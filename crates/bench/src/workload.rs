//! Workload materialization: one reproducible `(queries, warmup, measured)`
//! triple per experiment cell, shared by every engine so comparisons are
//! input-identical.

use crate::config::ExperimentConfig;
use ctk_common::{DocId, Document, QueryId, QuerySpec, ScoredDoc};
use ctk_core::ContinuousTopK;
use ctk_stream::{ArrivalClock, QueryGenerator, StreamDriver};

/// A fully materialized experiment input.
pub struct PreparedWorkload {
    pub specs: Vec<QuerySpec>,
    /// Steady-state seeds, aligned with `specs` (empty vec = no seed).
    pub seeds: Vec<Vec<ScoredDoc>>,
    pub warmup: Vec<Document>,
    pub measured: Vec<Document>,
}

impl PreparedWorkload {
    /// Register all queries and apply the steady-state seeds on `engine` —
    /// the common prologue of every run.
    pub fn install(&self, engine: &mut dyn ContinuousTopK) {
        for (i, spec) in self.specs.iter().enumerate() {
            let qid = engine.register(spec.clone());
            if !self.seeds[i].is_empty() {
                engine.seed_results(qid, &self.seeds[i]);
            }
        }
    }
}

/// Build the workload for a config. Documents are pre-generated so that
/// generator cost never pollutes the timed region.
pub fn prepare(cfg: &ExperimentConfig) -> PreparedWorkload {
    let mut qgen = QueryGenerator::new(cfg.workload.clone(), &cfg.corpus);
    let specs = qgen.generate_batch(cfg.num_queries);

    // Steady-state emulation: the k-th best score of a query
    // that has watched a long stream approaches its best achievable score.
    // Sample a pre-stream corpus slice, find each query's best score over
    // it with the exhaustive matcher, and seed all k slots just below it.
    let seeds = if cfg.steady_state_sample > 0 {
        let mut seed_corpus = cfg.corpus.clone();
        seed_corpus.seed = cfg.corpus.seed.wrapping_add(0x5EED_5EED);
        let mut pre = StreamDriver::new(seed_corpus, ArrivalClock::unit());
        let mut oracle = ctk_core::Naive::new(0.0);
        let mut best1: Vec<QueryId> = Vec::with_capacity(specs.len());
        for spec in &specs {
            let mut s1 = spec.clone();
            s1.k = 1;
            best1.push(oracle.register(s1));
        }
        for doc in pre.take_batch(cfg.steady_state_sample) {
            oracle.process(&doc);
        }
        let k = cfg.workload.k;
        best1
            .iter()
            .enumerate()
            .map(|(i, &qid)| {
                let best = oracle
                    .results(qid)
                    .and_then(|r| r.first().map(|sd| sd.score.get()))
                    .unwrap_or(0.0);
                if best <= 0.0 {
                    return Vec::new();
                }
                // A slightly descending ladder: the k-th slot sits just
                // under the best, emulating tight steady-state thresholds.
                (0..k)
                    .map(|slot| {
                        ScoredDoc::new(
                            DocId(u64::MAX / 2 + (i * k + slot) as u64),
                            best * (1.0 - 0.002 * slot as f64),
                        )
                    })
                    .collect()
            })
            .collect()
    } else {
        vec![Vec::new(); specs.len()]
    };

    let mut driver = StreamDriver::new(cfg.corpus.clone(), ArrivalClock::unit());
    let warmup = driver.take_batch(cfg.warmup_events);
    let measured = driver.take_batch(cfg.measured_events);
    PreparedWorkload { specs, seeds, warmup, measured }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use ctk_stream::QueryWorkload;

    #[test]
    fn prepared_sizes_match_config() {
        let cfg = ExperimentConfig::fig1(QueryWorkload::Uniform, 500, Scale::Smoke);
        let w = prepare(&cfg);
        assert_eq!(w.specs.len(), 500);
        assert_eq!(w.seeds.len(), 500);
        assert_eq!(w.warmup.len(), cfg.warmup_events);
        assert_eq!(w.measured.len(), cfg.measured_events);
        // Measured events continue the warmup timeline.
        assert!(w.measured[0].arrival > w.warmup.last().unwrap().arrival - 1e-9);
    }

    #[test]
    fn preparation_is_deterministic() {
        let cfg = ExperimentConfig::fig1(QueryWorkload::Connected, 200, Scale::Smoke);
        let a = prepare(&cfg);
        let b = prepare(&cfg);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.measured, b.measured);
    }
}
