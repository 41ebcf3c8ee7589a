//! Simulated time: the study window, hour bins, and day bins.
//!
//! The paper analyses two weeks of traffic — **November 15 through
//! November 28, 2019** — and reports everything in *per-hour* and *per-day*
//! aggregates (Figures 5, 10, 11, 13–15, 17, 18). We model time as seconds
//! since an arbitrary simulation epoch placed at `Nov 15 2019 00:00` local
//! ISP time, so hour bin `0` is the first hour of Figure 11(a) and day bin
//! `0` is "Nov-15".
//!
//! All simulation components share this clock; nothing in the workspace ever
//! consults wall-clock time, which keeps every experiment bit-reproducible.

use crate::error::NetError;
use std::fmt;

/// Seconds in one simulated hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds in one simulated day.
pub const SECS_PER_DAY: u64 = 86_400;

/// A point in simulated time, in seconds since the simulation epoch
/// (Nov 15 2019 00:00, ISP timezone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (Nov 15 2019 00:00).
    pub const EPOCH: SimTime = SimTime(0);

    /// Build a time from whole days, hours, and seconds past the epoch.
    ///
    /// `SimTime::from_dhs(1, 2, 3)` is Nov 16, 02:00:03.
    pub fn from_dhs(days: u64, hours: u64, secs: u64) -> Self {
        SimTime(days * SECS_PER_DAY + hours * SECS_PER_HOUR + secs)
    }

    /// The hour bin this instant falls into.
    pub fn hour(self) -> HourBin {
        HourBin((self.0 / SECS_PER_HOUR) as u32)
    }

    /// The day bin this instant falls into.
    pub fn day(self) -> DayBin {
        DayBin((self.0 / SECS_PER_DAY) as u32)
    }

    /// Hour of day in `0..24` (the ISP's timezone), used by the diurnal
    /// activity model (§6.2 reports Samsung peaks around 18:00).
    pub fn hour_of_day(self) -> u32 {
        ((self.0 % SECS_PER_DAY) / SECS_PER_HOUR) as u32
    }

    /// Saturating difference in seconds (`self - earlier`).
    pub fn secs_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / SECS_PER_DAY;
        let rem = self.0 % SECS_PER_DAY;
        write!(
            f,
            "{}T{:02}:{:02}:{:02}",
            DayBin(d as u32),
            rem / SECS_PER_HOUR,
            (rem % SECS_PER_HOUR) / 60,
            rem % 60
        )
    }
}

/// An hour-granularity bin; bin `0` is Nov 15 2019, 00:00–01:00.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HourBin(pub u32);

impl HourBin {
    /// The instant at which this bin starts.
    pub fn start(self) -> SimTime {
        SimTime(u64::from(self.0) * SECS_PER_HOUR)
    }

    /// The day this hour belongs to.
    pub fn day(self) -> DayBin {
        DayBin(self.0 / 24)
    }

    /// Hour of day in `0..24`.
    pub fn hour_of_day(self) -> u32 {
        self.0 % 24
    }

    /// The next hour bin.
    #[must_use]
    pub fn next(self) -> HourBin {
        HourBin(self.0 + 1)
    }
}

impl fmt::Display for HourBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:02}h", self.day(), self.hour_of_day())
    }
}

/// A day-granularity bin; bin `0` is "Nov-15" in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DayBin(pub u32);

/// Calendar labels for the 14 study days, matching the x axes of
/// Figures 11–15.
const DAY_LABELS: [&str; 14] = [
    "Nov-15", "Nov-16", "Nov-17", "Nov-18", "Nov-19", "Nov-20", "Nov-21", "Nov-22", "Nov-23",
    "Nov-24", "Nov-25", "Nov-26", "Nov-27", "Nov-28",
];

impl DayBin {
    /// First hour bin of this day.
    pub fn first_hour(self) -> HourBin {
        HourBin(self.0 * 24)
    }

    /// Whether this study day is a weekend. Nov 15 2019 (day 0) was a
    /// Friday, so days 1, 2, 8, 9 are the two weekends — §7.1 notes the
    /// usage peak "during the day and weekends (Nov. 23-24)", i.e. days
    /// 8 and 9.
    pub fn is_weekend(self) -> bool {
        matches!(self.0 % 7, 1 | 2)
    }

    /// Iterate over the 24 hour bins of this day.
    pub fn hours(self) -> impl Iterator<Item = HourBin> {
        let first = self.first_hour().0;
        (first..first + 24).map(HourBin)
    }
}

impl fmt::Display for DayBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match DAY_LABELS.get(self.0 as usize) {
            Some(l) => f.write_str(l),
            None => write!(f, "Day+{}", self.0),
        }
    }
}

/// A half-open interval of simulated time, e.g. the idle-experiment window
/// (Nov 22–25) or the full two-week study period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyWindow {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl StudyWindow {
    /// The full two-week study period, Nov 15 00:00 – Nov 29 00:00.
    pub const FULL: StudyWindow = StudyWindow {
        start: SimTime(0),
        end: SimTime(14 * SECS_PER_DAY),
    };

    /// The active ground-truth experiment window, Nov 15 – Nov 19 (§2.3:
    /// "9,810 active experiments between November 15th and 18th" — the
    /// window covers through the end of the 18th).
    pub const ACTIVE_GT: StudyWindow = StudyWindow {
        start: SimTime(0),
        end: SimTime(4 * SECS_PER_DAY),
    };

    /// The idle ground-truth experiment window, Nov 22 – Nov 25 (§2.3:
    /// "idle traffic for three days, November 23th-25th" plus the startup
    /// day; Figure 5 plots Nov 22–25).
    pub const IDLE_GT: StudyWindow = StudyWindow {
        start: SimTime(7 * SECS_PER_DAY),
        end: SimTime(10 * SECS_PER_DAY),
    };

    /// Construct a window spanning whole days `[start_day, end_day)`.
    pub fn days(start_day: u32, end_day: u32) -> Self {
        StudyWindow {
            start: DayBin(start_day).first_hour().start(),
            end: DayBin(end_day).first_hour().start(),
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Number of whole hours in the window.
    pub fn num_hours(&self) -> u32 {
        ((self.end.0 - self.start.0) / SECS_PER_HOUR) as u32
    }

    /// Number of whole days in the window.
    pub fn num_days(&self) -> u32 {
        ((self.end.0 - self.start.0) / SECS_PER_DAY) as u32
    }

    /// Iterate over the hour bins covered by the window.
    pub fn hour_bins(&self) -> impl Iterator<Item = HourBin> {
        let first = (self.start.0 / SECS_PER_HOUR) as u32;
        let last = (self.end.0 / SECS_PER_HOUR) as u32;
        (first..last).map(HourBin)
    }

    /// Iterate over the day bins covered by the window.
    pub fn day_bins(&self) -> impl Iterator<Item = DayBin> {
        let first = (self.start.0 / SECS_PER_DAY) as u32;
        let last = (self.end.0 / SECS_PER_DAY) as u32;
        (first..last).map(DayBin)
    }

    /// Validate that `t` lies inside the window.
    pub fn check(&self, t: SimTime) -> Result<(), NetError> {
        if self.contains(t) {
            Ok(())
        } else {
            Err(NetError::OutOfWindow {
                ts: t.0,
                start: self.start.0,
                end: self.end.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_and_day_binning() {
        let t = SimTime::from_dhs(3, 17, 59);
        assert_eq!(t.hour(), HourBin(3 * 24 + 17));
        assert_eq!(t.day(), DayBin(3));
        assert_eq!(t.hour_of_day(), 17);
        assert_eq!(t.hour().day(), DayBin(3));
        assert_eq!(t.hour().hour_of_day(), 17);
    }

    #[test]
    fn hour_bin_boundaries_are_half_open() {
        let end_of_hour = SimTime(SECS_PER_HOUR - 1);
        let start_of_next = SimTime(SECS_PER_HOUR);
        assert_eq!(end_of_hour.hour(), HourBin(0));
        assert_eq!(start_of_next.hour(), HourBin(1));
    }

    #[test]
    fn study_window_constants_cover_paper_periods() {
        assert_eq!(StudyWindow::FULL.num_days(), 14);
        assert_eq!(StudyWindow::FULL.num_hours(), 336);
        assert_eq!(StudyWindow::ACTIVE_GT.num_days(), 4);
        assert_eq!(StudyWindow::IDLE_GT.num_days(), 3);
        assert!(StudyWindow::IDLE_GT.contains(SimTime::from_dhs(8, 0, 0)));
        assert!(!StudyWindow::IDLE_GT.contains(SimTime::from_dhs(10, 0, 0)));
    }

    #[test]
    fn day_labels_match_figures() {
        assert_eq!(DayBin(0).to_string(), "Nov-15");
        assert_eq!(DayBin(13).to_string(), "Nov-28");
        assert_eq!(DayBin(20).to_string(), "Day+20");
    }

    #[test]
    fn weekends_fall_on_nov_16_17_and_23_24() {
        // Nov 15 2019 was a Friday.
        for (day, weekend) in [
            (0u32, false),
            (1, true),
            (2, true),
            (3, false),
            (8, true),
            (9, true),
            (10, false),
        ] {
            assert_eq!(DayBin(day).is_weekend(), weekend, "day {day}");
        }
    }

    #[test]
    fn window_iterators_agree_with_counts() {
        let w = StudyWindow::days(2, 5);
        assert_eq!(w.hour_bins().count() as u32, w.num_hours());
        assert_eq!(w.day_bins().count() as u32, w.num_days());
        assert_eq!(w.day_bins().next(), Some(DayBin(2)));
        assert_eq!(w.day_bins().last(), Some(DayBin(4)));
    }

    #[test]
    fn check_rejects_out_of_window() {
        let w = StudyWindow::days(0, 1);
        assert!(w.check(SimTime(10)).is_ok());
        assert!(w.check(SimTime(SECS_PER_DAY)).is_err());
    }

    #[test]
    fn day_hours_iterates_24_bins() {
        let hours: Vec<_> = DayBin(2).hours().collect();
        assert_eq!(hours.len(), 24);
        assert_eq!(hours[0], HourBin(48));
        assert_eq!(hours[23], HourBin(71));
    }

    #[test]
    fn display_round_trips_key_instants() {
        assert_eq!(SimTime::from_dhs(0, 0, 0).to_string(), "Nov-15T00:00:00");
        assert_eq!(
            SimTime::from_dhs(13, 23, 3599).to_string(),
            "Nov-28T23:59:59"
        );
    }
}
