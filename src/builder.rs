//! The one construction path for monitor backends.
//!
//! [`MonitorBuilder`] assembles the product's configurations — the paper's
//! MRIO engine, or the exhaustive [`Naive`] oracle it is checked against,
//! single-engine or sharded, with a postings layout and optional tombstone
//! compaction — behind the uniform [`MonitorBackend`] API. The examples,
//! the daemon and the integration tests all construct through it, so a
//! configuration is one value, not a code path. The comparators of the
//! paper's evaluation (RTA, RIO, SortQuer, TPS and the zone-maxima
//! ablations) are reached through `ctk_bench::make_engine` instead.

use ctk_common::{FxHashMap, QueryId};
use ctk_core::{
    ContinuousTopK, Monitor, MonitorBackend, MrioSeg, Naive, PostingsStorage, ShardedMonitor,
    Snapshot, StorageConfig,
};

/// The engines a monitor can run on: the paper's MRIO, and the exhaustive
/// oracle every engine is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// MRIO with exact segment-tree zone maxima (the paper's algorithm).
    Mrio,
    /// The exhaustive term-filtered oracle (exact by construction).
    Naive,
}

impl EngineKind {
    /// The report name, identical to the engine's `ContinuousTopK::name`.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Mrio => "MRIO",
            EngineKind::Naive => "Naive",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    /// Parse an engine name, case-insensitively — CLI flags and server
    /// configs say `mrio` as often as the report name `MRIO`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [EngineKind::Mrio, EngineKind::Naive]
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown engine name: {s}"))
    }
}

/// Builder for any [`MonitorBackend`] configuration.
///
/// ```
/// use continuous_topk::prelude::*;
///
/// let mut monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(0.001).build();
/// let q = monitor.register(QuerySpec::uniform(&[TermId(7)], 3).unwrap());
/// let receipt = monitor.publish(vec![(TermId(7), 1.0)], 0.0);
/// assert_eq!(receipt.changes_for(q).count(), 1);
/// assert_eq!(monitor.results(q).unwrap().len(), 1);
/// ```
///
/// The same configuration value, pointed at more shards, serves the same
/// API (and bit-identical results — see `tests/backend_api.rs`):
///
/// ```
/// use continuous_topk::prelude::*;
///
/// let mut monitor =
///     MonitorBuilder::new(EngineKind::Mrio).lambda(0.001).shards(4).build();
/// let q = monitor.register(QuerySpec::uniform(&[TermId(7)], 3).unwrap());
/// monitor.publish_batch(vec![
///     (vec![(TermId(7), 1.0)], 0.0),
///     (vec![(TermId(9), 1.0)], 1.0),
/// ]);
/// assert_eq!(monitor.shards(), 4);
/// assert_eq!(monitor.results(q).unwrap().len(), 1);
/// ```
///
/// More than one shard splits the **query population**: every worker owns
/// a full engine (of the configured [`EngineKind`]) over its slice of the
/// queries, and every document is broadcast to all shards. The
/// per-document matched-list walk is paid once per shard, so sharding pays
/// off once each shard's slice still dominates the walk — the paper's
/// regime of millions of CTQDs (see the README's "Sharding").
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorBuilder {
    kind: EngineKind,
    lambda: f64,
    shards: usize,
    compact_at: f64,
    storage: StorageConfig,
}

impl MonitorBuilder {
    /// A builder for `kind` with λ = 0, one shard, plain postings storage
    /// and compaction disabled.
    pub fn new(kind: EngineKind) -> Self {
        MonitorBuilder {
            kind,
            lambda: 0.0,
            shards: 1,
            compact_at: 0.0,
            storage: StorageConfig::plain(),
        }
    }

    /// The engine this builder builds.
    pub fn engine(&self) -> EngineKind {
        self.kind
    }

    /// The decay parameter λ (per time unit); finite and `>= 0`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Number of worker shards, at least 1. 1 (the default) builds the
    /// single-engine [`Monitor`]; more builds a [`ShardedMonitor`] with the
    /// query population spread round-robin.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enable tombstone compaction: at batch boundaries where the engine's
    /// index has `tombstone_ratio() >= ratio`, dead postings are compacted
    /// and the affected bound structures rebuilt. `<= 0.0` (the default)
    /// disables the policy.
    pub fn compact_at(mut self, ratio: f64) -> Self {
        self.compact_at = ratio;
        self
    }

    /// Which postings layout the query index(es) use (see
    /// [`PostingsStorage`]). Both backends are bit-identical on every
    /// read — the selection only moves the RAM footprint and throughput:
    ///
    /// * [`PostingsStorage::Plain`] (default) — `Vec`-backed lists; the
    ///   fastest layout, and the baseline the compressed backend is
    ///   proptested against.
    /// * [`PostingsStorage::Compressed`] — sealed delta + bit-packed blocks
    ///   (raw f32 weights, lossless); fewer bytes per registered query at
    ///   scale.
    pub fn postings_storage(mut self, storage: PostingsStorage) -> Self {
        self.storage.storage = storage;
        self
    }

    /// Why this configuration cannot be built, naming the knob at fault:
    /// `shards` below 1, or a `lambda` that is negative or not finite.
    pub fn check(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(format!("lambda must be finite and >= 0, got {}", self.lambda));
        }
        Ok(())
    }

    /// Build the configured backend.
    ///
    /// # Panics
    /// Panics with [`MonitorBuilder::check`]'s message when the
    /// configuration is invalid.
    pub fn build(&self) -> Box<dyn MonitorBackend + Send> {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let (lambda, storage) = (self.lambda, &self.storage);
        match self.kind {
            EngineKind::Mrio => self.build_over(|| MrioSeg::with_storage(lambda, storage)),
            EngineKind::Naive => self.build_over(|| Naive::with_storage(lambda, storage)),
        }
    }

    /// The configured front-end over engines made by `engine`: the
    /// single-engine [`Monitor`] at one shard, else a [`ShardedMonitor`].
    fn build_over<E: ContinuousTopK + Send + 'static>(
        &self,
        engine: impl Fn() -> E,
    ) -> Box<dyn MonitorBackend + Send> {
        if self.shards == 1 {
            return Box::new(Monitor::new(engine()).with_compaction(self.compact_at));
        }
        let mut sharded = ShardedMonitor::new(self.shards, engine);
        if self.compact_at > 0.0 {
            sharded.set_compaction_threshold(self.compact_at);
        }
        Box::new(sharded)
    }

    /// Build the configured backend and restore a [`Snapshot`] into it.
    /// The snapshot's λ overrides the builder's, and its shard sections are
    /// rebalanced onto this configuration's shard count. Returns the
    /// backend and the captured-id → new-id mapping.
    ///
    /// ```
    /// use continuous_topk::prelude::*;
    ///
    /// let mut monitor = MonitorBuilder::new(EngineKind::Mrio).lambda(0.5).shards(3).build();
    /// let q = monitor.register(QuerySpec::uniform(&[TermId(7)], 3).unwrap());
    /// monitor.publish(vec![(TermId(7), 1.0)], 0.0);
    ///
    /// let snapshot = monitor.snapshot();
    /// let (restored, mapping) = MonitorBuilder::new(EngineKind::Mrio).restore(&snapshot);
    /// assert_eq!(restored.shards(), 1);
    /// assert_eq!(restored.lambda(), 0.5);
    /// assert_eq!(restored.results(mapping[&q]), monitor.results(q));
    /// ```
    pub fn restore(
        &self,
        snapshot: &Snapshot,
    ) -> (Box<dyn MonitorBackend + Send>, FxHashMap<QueryId, QueryId>) {
        let mut backend = self.clone().lambda(snapshot.lambda).build();
        let mapping = snapshot.restore_into(&mut *backend);
        (backend, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_names_round_trip() {
        let engines: [(EngineKind, &dyn ContinuousTopK); 2] =
            [(EngineKind::Mrio, &MrioSeg::new(0.001)), (EngineKind::Naive, &Naive::new(0.001))];
        for (kind, engine) in engines {
            assert_eq!(engine.name(), kind.name());
            assert_eq!(kind.name().parse::<EngineKind>().unwrap(), kind);
            assert_eq!(kind.name().to_lowercase().parse::<EngineKind>().unwrap(), kind);
        }
        for comparator in ["RTA", "RIO", "MRIO-block", "MRIO-suffix", "SortQuer", "TPS", "WAND"] {
            let err = comparator.parse::<EngineKind>().unwrap_err();
            assert_eq!(err, format!("unknown engine name: {comparator}"));
        }
    }

    #[test]
    fn each_kind_builds_its_engine_at_every_shard_count() {
        use ctk_common::{QuerySpec, TermId};
        // Eight filled top-1 queries on one term, then a document whose
        // (normalised) weight on it is far below their thresholds: MRIO's
        // bound prunes every query, the oracle scores all eight.
        for shards in [1, 2] {
            for kind in [EngineKind::Mrio, EngineKind::Naive] {
                let mut m = MonitorBuilder::new(kind).lambda(0.001).shards(shards).build();
                assert_eq!(m.lambda(), 0.001, "{kind} x{shards}");
                for _ in 0..8 {
                    m.register(QuerySpec::uniform(&[TermId(1)], 1).unwrap());
                }
                let fill = m.publish(vec![(TermId(1), 1.0)], 0.0).merged_stats();
                assert_eq!(fill.full_evaluations, 8, "{kind} x{shards}");
                let weak = m.publish(vec![(TermId(1), 0.1), (TermId(2), 1.0)], 1.0).merged_stats();
                let expected = match kind {
                    EngineKind::Mrio => 0,
                    EngineKind::Naive => 8,
                };
                assert_eq!(weak.full_evaluations, expected, "{kind} x{shards}");
            }
        }
    }

    #[test]
    fn builder_picks_the_front_end_by_shard_count() {
        let single = MonitorBuilder::new(EngineKind::Mrio).lambda(0.5).build();
        assert_eq!(single.shards(), 1);
        assert_eq!(single.lambda(), 0.5);
        let sharded = MonitorBuilder::new(EngineKind::Mrio).lambda(0.5).shards(3).build();
        assert_eq!(sharded.shards(), 3);
        assert_eq!(sharded.lambda(), 0.5);
    }

    #[test]
    fn storage_knob_reaches_every_front_end() {
        use ctk_common::{QuerySpec, TermId};
        for storage in PostingsStorage::ALL {
            for shards in [1, 2] {
                let mut m = MonitorBuilder::new(EngineKind::Mrio)
                    .lambda(0.001)
                    .shards(shards)
                    .postings_storage(storage)
                    .build();
                let q = m.register(QuerySpec::uniform(&[TermId(1)], 2).unwrap());
                m.publish(vec![(TermId(1), 1.0)], 0.0);
                assert_eq!(m.results(q).unwrap().len(), 1, "{storage} x{shards}");
                assert!(m.storage_stats().index_bytes > 0, "{storage} x{shards}");
            }
        }
    }

    #[test]
    fn compact_at_reaches_every_front_end() {
        use ctk_common::{QuerySpec, TermId};
        for shards in [1, 2] {
            // A hundred live queries beside nine hundred tombstoned ones,
            // then one publish: only the compacting backend re-encodes its
            // sealed blocks without the dead postings at that batch
            // boundary.
            let bytes = |builder: MonitorBuilder| {
                let mut m = builder
                    .lambda(0.001)
                    .shards(shards)
                    .postings_storage(PostingsStorage::Compressed)
                    .build();
                let qids: Vec<_> = (0..1000u32)
                    .map(|i| m.register(QuerySpec::uniform(&[TermId(i % 2)], 2).unwrap()))
                    .collect();
                for &q in &qids[100..] {
                    assert!(m.unregister(q));
                }
                m.publish(vec![(TermId(1), 1.0)], 0.0);
                m.storage_stats().index_bytes
            };
            let kept = bytes(MonitorBuilder::new(EngineKind::Mrio));
            let compacted = bytes(MonitorBuilder::new(EngineKind::Mrio).compact_at(0.5));
            assert!(compacted < kept, "x{shards}: {compacted} !< {kept}");
        }
    }

    #[test]
    fn publish_sizes_are_result_invariant_on_every_front_end() {
        use ctk_common::{QuerySpec, TermId};
        let batch: Vec<_> = (0..30u64)
            .map(|i| (vec![(TermId((i % 5) as u32), 1.0 / (i + 1) as f32)], i as f64))
            .collect();
        for shards in [1, 2] {
            let config = MonitorBuilder::new(EngineKind::Mrio).lambda(0.001).shards(shards);
            let mut a = config.build();
            let mut b = config.build();
            let qa = a.register(QuerySpec::uniform(&[TermId(0), TermId(3)], 4).unwrap());
            let qb = b.register(QuerySpec::uniform(&[TermId(0), TermId(3)], 4).unwrap());
            let whole = a.publish_batch(batch.clone());
            let mut cut = Vec::new();
            for chunk in batch.chunks(3) {
                cut.extend(b.publish_batch(chunk.to_vec()).doc_ids);
            }
            assert_eq!(whole.doc_ids, cut, "x{shards}");
            assert_eq!(a.results(qa), b.results(qb), "x{shards}");
        }
    }

    #[test]
    fn check_names_the_knob_that_cannot_be_built() {
        let mrio = MonitorBuilder::new(EngineKind::Mrio);
        assert_eq!(mrio.check(), Ok(()));
        assert_eq!(mrio.clone().shards(0).check(), Err("shards must be at least 1".to_string()));
        for lambda in [-1.0, f64::NAN, f64::INFINITY] {
            let err = mrio.clone().lambda(lambda).check().unwrap_err();
            assert!(err.starts_with("lambda must be finite and >= 0"), "{lambda}: {err}");
        }
        let Err(panic) = std::panic::catch_unwind(|| mrio.clone().shards(0).build()) else {
            panic!("zero shards must not build");
        };
        assert_eq!(panic.downcast_ref::<String>().unwrap(), "shards must be at least 1");
    }

    #[test]
    fn restore_takes_lambda_from_the_snapshot_at_every_shard_count() {
        use ctk_common::{QuerySpec, TermId};
        let mut source = MonitorBuilder::new(EngineKind::Mrio).lambda(0.5).shards(2).build();
        let q = source.register(QuerySpec::uniform(&[TermId(1)], 2).unwrap());
        source.publish_batch(vec![(vec![(TermId(1), 1.0)], 0.0), (vec![(TermId(1), 0.5)], 3.0)]);
        let snap = source.snapshot();
        for shards in [1, 3] {
            let (restored, mapping) =
                MonitorBuilder::new(EngineKind::Mrio).lambda(0.001).shards(shards).restore(&snap);
            assert_eq!(restored.shards(), shards);
            assert_eq!(restored.lambda(), 0.5, "the snapshot's λ wins, x{shards}");
            assert_eq!(restored.results(mapping[&q]), source.results(q), "x{shards}");
        }
    }
}
