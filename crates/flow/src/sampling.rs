//! Packet sampling.
//!
//! Both vantage points sample: the ISP "uses NetFlow to monitor the traffic
//! flows at all border routers … using a consistent sampling rate across
//! all routers" and the IXP samples "at a consistent sampling rate, which
//! is an order of magnitude lower" (§2.1). Everything the paper measures —
//! the 16 % service-IP visibility, the detection-time curves, the 10-packet
//! usage threshold — is downstream of these samplers.
//!
//! Two per-packet samplers are provided (systematic count-based, as Cisco
//! routers implement, and uniform random), plus [`binomial_thin`], the
//! flow-level equivalent used by the population-scale simulation: for a
//! flow of `n` packets each kept independently with probability `p`, the
//! number of sampled packets is `Binomial(n, p)`. The `sampling_equivalence`
//! bench and property tests verify the per-packet and flow-level paths
//! agree in distribution.

use crate::error::FlowError;
use rand::Rng;

/// A per-packet sampling decision process.
pub trait PacketSampler {
    /// Decide whether the next packet is sampled.
    fn sample(&mut self) -> bool;

    /// The configured rate denominator `N` (one packet in `N`).
    fn rate(&self) -> u64;
}

/// Deterministic 1-in-N systematic (count-based) sampler with a random
/// initial phase, matching `ip flow sampling-mode packet-interval N`.
#[derive(Debug, Clone)]
pub struct SystematicSampler {
    n: u64,
    counter: u64,
}

impl SystematicSampler {
    /// Create a sampler selecting one packet in `n`, with the given phase
    /// offset (`0 <= phase < n`; real routers randomize this at startup).
    pub fn new(n: u64, phase: u64) -> Result<Self, FlowError> {
        if n == 0 {
            return Err(FlowError::BadSamplingRate(n));
        }
        Ok(SystematicSampler {
            n,
            counter: phase % n,
        })
    }

    /// Sampler that keeps every packet (rate 1/1), used by the Home-VP
    /// full-capture point.
    pub fn keep_all() -> Self {
        SystematicSampler { n: 1, counter: 0 }
    }
}

impl PacketSampler for SystematicSampler {
    fn sample(&mut self) -> bool {
        self.counter += 1;
        if self.counter >= self.n {
            self.counter = 0;
            true
        } else {
            false
        }
    }

    fn rate(&self) -> u64 {
        self.n
    }
}

/// IID uniform sampler: each packet kept with probability `1/n`.
#[derive(Debug, Clone)]
pub struct RandomSampler<R: Rng> {
    n: u64,
    rng: R,
}

impl<R: Rng> RandomSampler<R> {
    /// Create a sampler keeping each packet with probability `1/n`.
    pub fn new(n: u64, rng: R) -> Result<Self, FlowError> {
        if n == 0 {
            return Err(FlowError::BadSamplingRate(n));
        }
        Ok(RandomSampler { n, rng })
    }
}

impl<R: Rng> PacketSampler for RandomSampler<R> {
    fn sample(&mut self) -> bool {
        self.n == 1 || self.rng.gen_range(0..self.n) == 0
    }

    fn rate(&self) -> u64 {
        self.n
    }
}

/// Draw from `Binomial(n, p)` — the number of packets surviving uniform
/// 1-in-(1/p) sampling out of a flow of `n` packets.
///
/// Exact Bernoulli summation for small `n`; for large `n` a
/// normal-approximation draw (Box–Muller) with continuity correction,
/// clamped to `[0, n]`. At the simulation's operating point
/// (`p ≈ 1e-3 … 1e-4`, `n` up to a few hundred thousand) the approximation
/// error is far below the run-to-run variance of the experiments.
pub fn binomial_thin<R: Rng>(n: u64, p: f64, rng: &mut R) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 64 {
        // Exact.
        return (0..n).filter(|_| rng.gen::<f64>() < p).count() as u64;
    }
    if mean < 32.0 {
        // Poisson-limit regime: inversion by sequential search is exact for
        // Poisson and an excellent Binomial approximation when p is tiny.
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut prod = rng.gen::<f64>();
        while prod > l && k < n {
            k += 1;
            prod *= rng.gen::<f64>();
        }
        return k.min(n);
    }
    // Normal approximation.
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let draw = (mean + sd * z + 0.5).floor();
    draw.clamp(0.0, n as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rate_rejected() {
        assert!(SystematicSampler::new(0, 0).is_err());
        assert!(RandomSampler::new(0, SmallRng::seed_from_u64(1)).is_err());
    }

    #[test]
    fn systematic_exact_fraction() {
        let mut s = SystematicSampler::new(100, 17).unwrap();
        let kept = (0..10_000).filter(|_| s.sample()).count();
        assert_eq!(kept, 100);
        assert_eq!(s.rate(), 100);
    }

    #[test]
    fn keep_all_keeps_all() {
        let mut s = SystematicSampler::keep_all();
        assert!((0..100).all(|_| s.sample()));
    }

    #[test]
    fn random_sampler_close_to_rate() {
        let mut s = RandomSampler::new(10, SmallRng::seed_from_u64(7)).unwrap();
        let kept = (0..100_000).filter(|_| s.sample()).count() as f64;
        let frac = kept / 100_000.0;
        assert!((0.09..0.11).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(binomial_thin(0, 0.5, &mut rng), 0);
        assert_eq!(binomial_thin(100, 0.0, &mut rng), 0);
        assert_eq!(binomial_thin(100, 1.0, &mut rng), 100);
    }

    #[test]
    fn binomial_mean_tracks_np_small_n() {
        let mut rng = SmallRng::seed_from_u64(11);
        let trials = 20_000;
        let total: u64 = (0..trials).map(|_| binomial_thin(50, 0.1, &mut rng)).sum();
        let mean = total as f64 / trials as f64;
        assert!((4.5..5.5).contains(&mean), "mean {mean}, expected ~5");
    }

    #[test]
    fn binomial_mean_tracks_np_poisson_regime() {
        // n = 10_000, p = 1e-3 → mean 10: the ISP sampling operating point.
        let mut rng = SmallRng::seed_from_u64(13);
        let trials = 20_000;
        let total: u64 = (0..trials)
            .map(|_| binomial_thin(10_000, 1e-3, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((9.5..10.5).contains(&mean), "mean {mean}, expected ~10");
    }

    #[test]
    fn binomial_mean_tracks_np_normal_regime() {
        let mut rng = SmallRng::seed_from_u64(17);
        let trials = 20_000;
        let total: u64 = (0..trials)
            .map(|_| binomial_thin(1_000, 0.2, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((195.0..205.0).contains(&mean), "mean {mean}, expected ~200");
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut rng = SmallRng::seed_from_u64(19);
        for _ in 0..5_000 {
            assert!(binomial_thin(80, 0.99, &mut rng) <= 80);
        }
    }

    #[test]
    fn poisson_regime_nonzero_probability_sane() {
        // P[X >= 1] for Binomial(100, 1e-3) ≈ 0.095. This is the per-hour
        // "is this laconic domain visible at the ISP" coin the whole paper
        // turns on, so pin it within loose bounds.
        let mut rng = SmallRng::seed_from_u64(23);
        let trials = 50_000;
        let nonzero = (0..trials)
            .filter(|_| binomial_thin(100, 1e-3, &mut rng) >= 1)
            .count();
        let frac = nonzero as f64 / trials as f64;
        assert!(
            (0.085..0.105).contains(&frac),
            "P[X>=1] = {frac}, expected ~0.095"
        );
    }
}
