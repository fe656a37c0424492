//! The four workloads as data: frozen operation counts, and the fully
//! generated operation sequence ("plan") of one run. Everything in a plan is
//! a function of `(workload, seed, scale)`, so two runs with one seed issue
//! identical operations and every count metric repeats exactly.

use crate::inputs::{self, Query, Request, LAMBDA};
use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_common::QuerySpec;
use ctk_core::PostingsStorage;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The measured phase is cut into this many equal-operation slices.
pub const SLICES: usize = 100;
/// Queries whose final top-k is compared with the `Naive` oracle.
pub const ORACLE_SAMPLE: usize = 200;

/// `churn_mixed`: live-member cap of the `tenant` namespace.
const TENANT_CAP: usize = 2_000;
/// `churn_mixed`: namespace TTL, in stream-time units (one per document).
pub const TENANT_TTL: f64 = 200_000.0;
/// `churn_mixed`: per-query TTL of every other tenant query — 250 rounds of
/// 8 documents, so expiry and cap eviction both happen inside a run.
pub const TENANT_SHORT_TTL: f64 = 2_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireFirehose,
    WireNotify,
    EmbeddedLarge,
    ChurnMixed,
}

/// The frozen shape of one workload. `calls_per_second` was sized once so
/// that `--seconds 10` measures about ten seconds on the 2-core reference
/// box; `--seconds` scales the operation count, never a clock.
pub struct Shape {
    pub queries: usize,
    /// Documents per publish call.
    pub batch: usize,
    pub warm_calls: usize,
    pub calls_per_second: usize,
    pub storage: PostingsStorage,
    /// Tombstone ratio at which the index compacts; 0 disables compaction.
    pub compact_at: f64,
    /// Wire workloads: whether the daemon runs `--fsync always` (else `never`).
    pub fsync: bool,
    /// Client and daemon share one CPU (see [`crate::affinity`]).
    pub one_cpu: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireFirehose,
        Workload::WireNotify,
        Workload::EmbeddedLarge,
        Workload::ChurnMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireFirehose => "wire_firehose",
            Workload::WireNotify => "wire_notify",
            Workload::EmbeddedLarge => "embedded_large",
            Workload::ChurnMixed => "churn_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the monitor lives in a `ctk-serve` child process.
    pub fn over_the_wire(self) -> bool {
        matches!(self, Workload::WireFirehose | Workload::WireNotify)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::WireFirehose => Shape {
                queries: 300,
                batch: 64,
                warm_calls: 50,
                calls_per_second: 300,
                storage: PostingsStorage::Plain,
                compact_at: 0.0,
                fsync: true,
                one_cpu: false,
            },
            Workload::WireNotify => Shape {
                queries: 2_000,
                batch: 1,
                warm_calls: 1_000,
                calls_per_second: 2_800,
                storage: PostingsStorage::Plain,
                compact_at: 0.0,
                // One `fdatasync` per document on a shared virtual disk and a
                // cross-CPU wake-up at every hand-over made this workload's
                // latencies the host's (NOISE.md, sessions 3 and 4).
                fsync: false,
                one_cpu: true,
            },
            Workload::EmbeddedLarge => Shape {
                queries: 50_000,
                batch: 1,
                warm_calls: 200,
                calls_per_second: 180,
                storage: PostingsStorage::Compressed,
                compact_at: 0.0,
                fsync: false,
                one_cpu: false,
            },
            Workload::ChurnMixed => Shape {
                queries: 20_000,
                batch: 8,
                warm_calls: 100,
                calls_per_second: 140,
                storage: PostingsStorage::Plain,
                compact_at: 0.3,
                fsync: false,
                one_cpu: false,
            },
        }
    }
}

/// How much of the frozen shape one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--seconds`: the measured phase holds `calls_per_second * seconds`
    /// publish calls.
    pub seconds: f64,
    /// Query populations and warm-up are divided by this (`--smoke`: 20).
    pub shrink: usize,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
}

/// The churn operations that precede one publish call of `churn_mixed`.
pub struct Round {
    /// Two tenant registrations: the first with the short per-query TTL, the
    /// second living until the namespace cap evicts it.
    pub tenants: [QuerySpec; 2],
    /// Which standing query is unregistered and registered again.
    pub slot: usize,
}

pub struct Plan {
    pub workload: Workload,
    pub shape: Shape,
    pub queries: Vec<Query>,
    /// `churn_mixed` only: tenant queries that fill the namespace to its cap
    /// during set-up.
    pub tenant_fill: Vec<QuerySpec>,
    pub tenant_cap: u64,
    /// `churn_mixed` only: one entry per publish call, warm-up first.
    pub rounds: Vec<Round>,
    pub warm: Vec<Request>,
    pub measured: Vec<Request>,
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let mut shape = workload.shape();
        shape.queries = (shape.queries / scale.shrink).max(ORACLE_SAMPLE / 2);
        shape.warm_calls = (shape.warm_calls / scale.shrink).max(10);
        let calls = (shape.calls_per_second as f64 * scale.seconds / SLICES as f64).round();
        let calls = (calls as usize).max(1) * SLICES;

        let queries = inputs::queries(seed, 2, shape.queries);
        let mut stream = inputs::Stream::new(seed);
        let warm = stream.requests(shape.warm_calls, shape.batch);
        let measured = stream.requests(calls, shape.batch);

        let (mut tenant_fill, mut rounds, mut tenant_cap) = (Vec::new(), Vec::new(), 0);
        if workload == Workload::ChurnMixed {
            let cap = (TENANT_CAP / scale.shrink).max(10);
            let total = shape.warm_calls + calls;
            let mut tenants = inputs::queries(seed, 3, cap + 2 * total).into_iter().map(|q| q.spec);
            tenant_fill = tenants.by_ref().take(cap).collect();
            tenant_cap = cap as u64;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5107_C4A2);
            rounds = (0..total)
                .map(|_| Round {
                    tenants: [tenants.next().expect("sized"), tenants.next().expect("sized")],
                    slot: rng.gen_range(0..shape.queries),
                })
                .collect();
        }
        Plan { workload, shape, queries, tenant_fill, tenant_cap, rounds, warm, measured }
    }

    /// The monitor configuration of this workload. The wire workloads get
    /// the same one from `ctk-serve`'s defaults (MRIO, plain storage, one
    /// shard), which is what makes the staged replay comparable.
    pub fn builder(&self) -> MonitorBuilder {
        let mut builder = MonitorBuilder::new(EngineKind::Mrio)
            .lambda(LAMBDA)
            .postings_storage(self.shape.storage);
        if self.shape.compact_at > 0.0 {
            builder = builder.compact_at(self.shape.compact_at);
        }
        builder
    }

    pub fn measured_docs(&self) -> u64 {
        (self.measured.len() * self.shape.batch) as u64
    }

    /// The standing-query slots checked against the oracle, spread evenly.
    pub fn oracle_slots(&self) -> Vec<usize> {
        let n = self.queries.len();
        let sample = ORACLE_SAMPLE.min(n);
        (0..sample).map(|j| j * n / sample).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { seconds: 0.5, shrink: 20, setups: 1 };

    #[test]
    fn measured_phase_is_a_whole_number_of_slices() {
        for workload in Workload::ALL {
            let plan = Plan::generate(workload, 1, SMOKE);
            assert_eq!(plan.measured.len() % SLICES, 0, "{}", workload.name());
            assert!(plan.measured.iter().all(|r| r.publish.len() == plan.shape.batch));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
    }

    #[test]
    fn churn_plan_has_one_round_per_call_and_valid_slots() {
        let plan = Plan::generate(Workload::ChurnMixed, 3, SMOKE);
        assert_eq!(plan.rounds.len(), plan.warm.len() + plan.measured.len());
        assert_eq!(plan.tenant_fill.len() as u64, plan.tenant_cap);
        assert!(plan.rounds.iter().all(|r| r.slot < plan.queries.len()));
        let slots = plan.oracle_slots();
        assert!(slots.windows(2).all(|w| w[0] < w[1]) && slots.len() <= ORACLE_SAMPLE);
    }
}
