//! Experiment configuration.
//!
//! Defaults reproduce the paper's setup scaled to a laptop:
//! Wikipedia-like topical corpus, k = 10, λ = 1e-3, query counts swept over
//! a 16× range. `Scale::Full` switches to the paper's 0.5M–4M sweep.

use ctk_stream::{CorpusConfig, QueryWorkload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// Sweep magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Laptop scale: 25k–400k queries (default).
    Laptop,
    /// Paper scale: 0.5M–4M queries (needs ~10 GB and patience).
    Full,
    /// Tiny scale for smoke tests and CI.
    Smoke,
}

impl Scale {
    /// The query-count sweep of Figure 1 at this scale.
    pub fn query_counts(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![2_000, 4_000],
            Scale::Laptop => vec![25_000, 50_000, 100_000, 200_000],
            Scale::Full => vec![500_000, 1_000_000, 2_000_000, 4_000_000],
        }
    }

    pub fn warmup_events(self) -> usize {
        match self {
            Scale::Smoke => 300,
            Scale::Laptop => 1_500,
            Scale::Full => 3_000,
        }
    }

    pub fn measured_events(self) -> usize {
        match self {
            Scale::Smoke => 100,
            Scale::Laptop => 300,
            Scale::Full => 200,
        }
    }
}

impl FromStr for Scale {
    type Err = ();

    fn from_str(s: &str) -> Result<Scale, ()> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "laptop" => Ok(Scale::Laptop),
            "full" => Ok(Scale::Full),
            _ => Err(()),
        }
    }
}

/// One experiment cell: a corpus, a query workload, and stream sizes.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    pub corpus: CorpusConfig,
    pub workload: WorkloadConfig,
    pub num_queries: usize,
    pub warmup_events: usize,
    pub measured_events: usize,
    /// Decay parameter shared by all engines.
    pub lambda: f64,
    /// Emulate a long-running deployment by seeding every query's top-k
    /// with its best score over a pre-stream sample: the
    /// paper measures after streaming millions of documents, where result
    /// churn per event is tiny and thresholds are tight. 0 disables.
    pub steady_state_sample: usize,
}

impl ExperimentConfig {
    /// The paper's Figure-1 configuration for one sweep point.
    pub fn fig1(workload: QueryWorkload, num_queries: usize, scale: Scale) -> Self {
        ExperimentConfig {
            corpus: CorpusConfig::default(),
            workload: WorkloadConfig { workload, ..WorkloadConfig::default() },
            num_queries,
            warmup_events: scale.warmup_events(),
            measured_events: scale.measured_events(),
            lambda: 1e-4,
            steady_state_sample: 1_500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_sweep() {
        assert_eq!("laptop".parse(), Ok(Scale::Laptop));
        assert_eq!("bogus".parse::<Scale>(), Err(()));
        assert_eq!(Scale::Full.query_counts(), vec![500_000, 1_000_000, 2_000_000, 4_000_000]);
        assert!(Scale::Smoke.warmup_events() < Scale::Laptop.warmup_events());
    }

    #[test]
    fn fig1_defaults_match_paper_setup() {
        let c = ExperimentConfig::fig1(QueryWorkload::Uniform, 1000, Scale::Smoke);
        assert_eq!(c.workload.k, 10);
        assert_eq!(c.lambda, 1e-4);
        assert_eq!(c.num_queries, 1000);
    }
}
