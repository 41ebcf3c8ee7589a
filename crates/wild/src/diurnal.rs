//! Human-activity curves.
//!
//! §6.2: *"during the day, network activity increases as the users
//! interact with the IoT devices while it decreases during the night …
//! Samsung IoT devices have a small spike in the mornings before
//! gradually reaching their peak around 18:00"* and Alexa-enabled devices
//! keep *"a significant baseline during the night"*. The curves here feed
//! the wild generator's per-hour active-use probability; idle chatter is
//! flat by construction (devices heartbeat around the clock).

use haystack_testbed::catalog::Category;

/// Usage-intensity shape by hour of day, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsageShape {
    /// Evening-heavy entertainment (smart speakers, TVs): strong 18–22 h
    /// peak, small morning shoulder.
    Entertainment,
    /// Morning + evening household routine (appliances, thermostats).
    Household,
    /// Mostly flat with a mild daytime lift (cameras, hubs, sensors).
    Ambient,
}

impl UsageShape {
    /// Pick a shape for a device category.
    pub fn for_category(c: Category) -> UsageShape {
        match c {
            Category::Audio | Category::Video => UsageShape::Entertainment,
            Category::Appliances | Category::HomeAutomation => UsageShape::Household,
            Category::Surveillance | Category::SmartHubs => UsageShape::Ambient,
        }
    }

    /// Relative usage intensity at `hour_of_day` (0..24), normalized so
    /// the daily peak is 1.0.
    pub fn intensity(self, hour_of_day: u32) -> f64 {
        let h = f64::from(hour_of_day % 24);
        let bump = |center: f64, width: f64| -> f64 {
            // Wrap-around Gaussian bump.
            let mut d = (h - center).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            (-d * d / (2.0 * width * width)).exp()
        };
        match self {
            UsageShape::Entertainment => (bump(20.0, 2.5) + 0.25 * bump(7.5, 1.5)).min(1.0),
            UsageShape::Household => (0.8 * bump(18.5, 2.5) + 0.55 * bump(7.0, 1.5)).min(1.0),
            UsageShape::Ambient => 0.35 + 0.25 * bump(15.0, 5.0),
        }
    }
}

/// Probability that an owner actively uses a device of `shape` during a
/// given hour, scaled by the device's `peak_use` propensity.
pub fn active_use_probability(shape: UsageShape, peak_use: f64, hour_of_day: u32) -> f64 {
    (peak_use * shape.intensity(hour_of_day)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entertainment_peaks_in_the_evening() {
        let s = UsageShape::Entertainment;
        let evening = s.intensity(20);
        assert!(evening > s.intensity(3) * 5.0, "evening {evening} vs night");
        assert!(evening > s.intensity(12));
        let peak_hour =
            (0..24).max_by(|a, b| s.intensity(*a).partial_cmp(&s.intensity(*b)).unwrap());
        assert!((18..=22).contains(&peak_hour.unwrap()));
    }

    #[test]
    fn household_has_morning_shoulder() {
        let s = UsageShape::Household;
        assert!(
            s.intensity(7) > s.intensity(12),
            "morning bump beats midday"
        );
        assert!(
            s.intensity(18) > s.intensity(7),
            "evening peak beats morning"
        );
    }

    #[test]
    fn ambient_is_flat_ish() {
        let s = UsageShape::Ambient;
        let vals: Vec<f64> = (0..24).map(|h| s.intensity(h)).collect();
        let max = vals.iter().cloned().fold(0.0, f64::max);
        let min = vals.iter().cloned().fold(1.0, f64::min);
        assert!(max / min < 2.0, "ambient spread too wide: {min}..{max}");
    }

    #[test]
    fn probabilities_are_clamped() {
        for h in 0..24 {
            let p = active_use_probability(UsageShape::Entertainment, 5.0, h);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn category_mapping() {
        assert_eq!(
            UsageShape::for_category(Category::Audio),
            UsageShape::Entertainment
        );
        assert_eq!(
            UsageShape::for_category(Category::Appliances),
            UsageShape::Household
        );
        assert_eq!(
            UsageShape::for_category(Category::Surveillance),
            UsageShape::Ambient
        );
    }
}
