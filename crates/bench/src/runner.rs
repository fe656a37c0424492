//! The timed experiment runner.
//!
//! Protocol (identical for every engine, matching the paper's metric):
//! register all queries, play the warmup stream untimed (thresholds fill and
//! reach steady state), then time each measured `process` call — the
//! *response time per stream event*.

use crate::workload::PreparedWorkload;
use ctk_core::{ContinuousTopK, CumulativeStats};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Outcome of one engine × workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub algo: String,
    pub num_queries: usize,
    pub events: usize,
    /// Mean response time per stream event, in milliseconds (the paper's
    /// Figure-1 y-axis).
    pub avg_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub max_ms: f64,
    /// Wall-clock of the measured region, ms.
    pub total_ms: f64,
    /// Work counters accumulated over the measured region only.
    pub stats: CumulativeStats,
    /// Registration + warmup wall clock, ms (index build cost).
    pub setup_ms: f64,
}

fn diff(after: &CumulativeStats, before: &CumulativeStats) -> CumulativeStats {
    CumulativeStats {
        events: after.events - before.events,
        full_evaluations: after.full_evaluations - before.full_evaluations,
        iterations: after.iterations - before.iterations,
        postings_accessed: after.postings_accessed - before.postings_accessed,
        bound_computations: after.bound_computations - before.bound_computations,
        updates: after.updates - before.updates,
        matched_lists: after.matched_lists - before.matched_lists,
        expired: after.expired - before.expired,
        evicted: after.evicted - before.evicted,
        renormalizations: after.renormalizations - before.renormalizations,
    }
}

/// Register, warm up, then time the measured stream on `engine`.
pub fn run_engine(engine: &mut dyn ContinuousTopK, workload: &PreparedWorkload) -> RunResult {
    let setup_start = Instant::now();
    workload.install(engine);
    for doc in &workload.warmup {
        engine.process(doc);
    }
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;

    let before = *engine.cumulative();
    let mut per_event_ns: Vec<u64> = Vec::with_capacity(workload.measured.len());
    let measured_start = Instant::now();
    for doc in &workload.measured {
        let t = Instant::now();
        engine.process(doc);
        per_event_ns.push(t.elapsed().as_nanos() as u64);
    }
    let total_ms = measured_start.elapsed().as_secs_f64() * 1e3;
    let stats = diff(engine.cumulative(), &before);

    per_event_ns.sort_unstable();
    let n = per_event_ns.len().max(1);
    let pct = |p: f64| -> f64 {
        let idx = ((n as f64 * p).ceil() as usize).min(n) - 1;
        per_event_ns.get(idx).copied().unwrap_or(0) as f64 / 1e6
    };
    let avg_ms = per_event_ns.iter().sum::<u64>() as f64 / n as f64 / 1e6;

    RunResult {
        algo: engine.name().to_string(),
        num_queries: workload.specs.len(),
        events: workload.measured.len(),
        avg_ms,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        max_ms: per_event_ns.last().copied().unwrap_or(0) as f64 / 1e6,
        total_ms,
        stats,
        setup_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Scale};
    use crate::engines::make_engine;
    use crate::workload::prepare;
    use ctk_stream::QueryWorkload;

    #[test]
    fn runner_produces_consistent_numbers() {
        let cfg = ExperimentConfig::fig1(QueryWorkload::Connected, 400, Scale::Smoke);
        let wl = prepare(&cfg);
        let mut e = make_engine("MRIO", cfg.lambda);
        let r = run_engine(e.as_mut(), &wl);
        assert_eq!(r.algo, "MRIO");
        assert_eq!(r.events, cfg.measured_events);
        assert_eq!(r.stats.events as usize, cfg.measured_events);
        assert!(r.avg_ms >= 0.0);
        assert!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.max_ms);
        assert!(r.setup_ms > 0.0);
        assert_eq!(e.num_queries(), 400);
    }

    #[test]
    fn engines_see_identical_inputs() {
        let cfg = ExperimentConfig::fig1(QueryWorkload::Uniform, 300, Scale::Smoke);
        let wl = prepare(&cfg);
        let mut a = make_engine("RIO", cfg.lambda);
        let mut b = make_engine("MRIO", cfg.lambda);
        let ra = run_engine(a.as_mut(), &wl);
        let rb = run_engine(b.as_mut(), &wl);
        // Same updates must be produced by exact algorithms on same input.
        assert_eq!(ra.stats.updates, rb.stats.updates);
    }
}
