//! The ISP vantage point (§2.1, Figure 3).
//!
//! All border routers sample at one consistent rate (default 1-in-1000)
//! and export NetFlow; user addresses are anonymized before anything
//! leaves the vantage point. At population scale the vantage point hands
//! the detector decoded [`WildRecord`](crate::WildRecord)s directly (see
//! [`crate::record`] for why), one batch per hour.

use crate::degrade::{degrade_records, DegradeStream};
use crate::gen::{generate_hour, HourStream, HourTraffic};
use crate::plan::ContactPlan;
use crate::population::{Population, PopulationConfig};
use crate::stream::{RecordStream, VantagePoint};
use haystack_flow::ChaosConfig;
use haystack_net::{Anonymizer, HourBin};
use haystack_testbed::catalog::Catalog;
use haystack_testbed::materialize::MaterializedWorld;

/// ISP vantage-point configuration.
#[derive(Debug, Clone)]
pub struct IspConfig {
    /// Subscriber lines (the paper's ISP has 15 M; simulate what your
    /// machine affords — results are reported as percentages).
    pub lines: u32,
    /// 1-in-N packet sampling (the paper's rate is undisclosed; 1/1000 is
    /// the common NetFlow deployment and calibrates §3's 16 % service-IP
    /// visibility).
    pub sampling: u64,
    /// RNG seed.
    pub seed: u64,
    /// Include the non-IoT background browsing component.
    pub background: bool,
}

impl Default for IspConfig {
    fn default() -> Self {
        IspConfig {
            lines: 100_000,
            sampling: 1_000,
            seed: 0x15B0_0001,
            background: false,
        }
    }
}

/// The ISP vantage point.
#[derive(Debug)]
pub struct IspVantage {
    config: IspConfig,
    population: Population,
    plan: ContactPlan,
    anonymizer: Anonymizer,
    chaos: Option<ChaosConfig>,
}

impl IspVantage {
    /// Build the vantage point: draws the subscriber population.
    pub fn new(catalog: &Catalog, config: IspConfig) -> Self {
        let population = Population::new(catalog, PopulationConfig::isp(config.lines, config.seed));
        let plan = ContactPlan::new(catalog);
        let anonymizer = Anonymizer::new(config.seed ^ 0xA17A, config.seed ^ 0x5EED);
        IspVantage {
            config,
            population,
            plan,
            anonymizer,
            chaos: None,
        }
    }

    /// Run the export feed through record-level chaos (see
    /// [`crate::degrade`]): every captured hour is degraded
    /// deterministically before the detector sees it.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The underlying population (tests / calibration oracles).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The compiled contact plan.
    pub fn plan(&self) -> &ContactPlan {
        &self.plan
    }

    /// The vantage point's anonymizer (the detector needs none of it;
    /// exposed so evaluation oracles can map lines to report identities).
    pub fn anonymizer(&self) -> &Anonymizer {
        &self.anonymizer
    }

    /// Configuration.
    pub fn config(&self) -> &IspConfig {
        &self.config
    }

    /// One hour of sampled, anonymized flow records, degraded by the
    /// configured chaos (if any).
    pub fn capture_hour(&self, world: &MaterializedWorld, hour: HourBin) -> HourTraffic {
        let mut t = generate_hour(
            &self.population,
            &self.plan,
            world,
            hour,
            self.config.sampling,
            self.config.seed,
            &self.anonymizer,
            self.config.background,
        );
        if let Some(chaos) = &self.chaos {
            let (records, deg) = degrade_records(t.records, chaos, u64::from(hour.0));
            t.records = records;
            t.degradation = deg;
        }
        t
    }
}

impl VantagePoint for IspVantage {
    /// Stream the hour line-by-line ([`HourStream`]), running the feed
    /// through [`DegradeStream`] when chaos is configured. Emits the
    /// same records, in the same order, with the same funnel accounting
    /// as [`IspVantage::capture_hour`] — one bounded chunk at a time.
    fn stream_hour<'a>(
        &'a self,
        world: &'a MaterializedWorld,
        hour: HourBin,
        chunk_records: usize,
    ) -> Box<dyn RecordStream + 'a> {
        let inner = HourStream::new(
            &self.population,
            &self.plan,
            world,
            hour,
            self.config.sampling,
            self.config.seed,
            &self.anonymizer,
            self.config.background,
            chunk_records,
        );
        match &self.chaos {
            Some(chaos) => Box::new(DegradeStream::new(
                inner,
                chaos.clone(),
                u64::from(hour.0),
                chunk_records,
            )),
            None => Box::new(inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haystack_testbed::catalog::data::standard_catalog;
    use haystack_testbed::materialize::materialize;

    #[test]
    fn capture_produces_iot_traffic() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let isp = IspVantage::new(
            &catalog,
            IspConfig {
                lines: 10_000,
                sampling: 1_000,
                seed: 1,
                background: false,
            },
        );
        let t = isp.capture_hour(&world, HourBin(30));
        assert!(!t.records.is_empty());
        // Hour-over-hour volumes are in the same ballpark.
        let t2 = isp.capture_hour(&world, HourBin(31));
        let ratio = t.records.len() as f64 / t2.records.len() as f64;
        assert!((0.2..5.0).contains(&ratio));
    }

    #[test]
    fn stream_hour_matches_capture_hour_with_and_without_chaos() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let config = IspConfig {
            lines: 8_000,
            sampling: 500,
            seed: 9,
            background: true,
        };
        for chaos in [None, Some(ChaosConfig::at_severity(0.5, 77))] {
            let mut isp = IspVantage::new(&catalog, config.clone());
            if let Some(c) = chaos {
                isp = isp.with_chaos(c);
            }
            let want = isp.capture_hour(&world, HourBin(20));
            for chunk in [64usize, usize::MAX] {
                let got =
                    crate::stream::materialize(&mut *isp.stream_hour(&world, HourBin(20), chunk));
                assert_eq!(got.records, want.records, "chunk {chunk}");
                assert_eq!(got.sampled_packets, want.sampled_packets);
                assert_eq!(got.degradation, want.degradation);
            }
            assert_eq!(
                isp.materialize_hour(&world, HourBin(20)).records,
                want.records
            );
        }
    }

    #[test]
    fn line_identities_are_anonymized_consistently() {
        let catalog = standard_catalog();
        let world = materialize(&catalog);
        let isp = IspVantage::new(
            &catalog,
            IspConfig {
                lines: 5_000,
                sampling: 200,
                seed: 2,
                background: false,
            },
        );
        let a = isp.capture_hour(&world, HourBin(10));
        // The anonymizer maps each raw address to exactly one id.
        let mut map = std::collections::HashMap::new();
        for r in &a.records {
            let prev = map.insert(r.src_ip, r.line);
            if let Some(prev) = prev {
                assert_eq!(prev, r.line);
            }
        }
    }
}
