//! Engine factory: construct any algorithm by its report name.
//!
//! Thin shim over the facade's [`EngineKind`] — the harness's name-keyed
//! tables and CLI flags resolve through the same registry the application
//! builder uses, so a new engine kind lands everywhere at once.

use continuous_topk::EngineKind;
use ctk_core::{ContinuousTopK, ShardedMonitor, StorageConfig};

/// The five methods of the paper's Figure 1, in its legend order.
pub const PAPER_ALGOS: [&str; 5] = ["RTA", "RIO", "MRIO", "SortQuer", "TPS"];

/// All known engine names.
pub const ALL_ALGOS: [&str; 8] =
    ["RTA", "RIO", "MRIO", "MRIO-block", "MRIO-suffix", "SortQuer", "TPS", "Naive"];

/// Construct an engine by name. Panics on unknown names (callers pass
/// compile-time constants).
pub fn make_engine(name: &str, lambda: f64) -> Box<dyn ContinuousTopK + Send> {
    make_engine_with(name, lambda, &StorageConfig::plain())
}

/// [`make_engine`] with an explicit postings-storage configuration (ignored
/// by engines without a query index).
pub fn make_engine_with(
    name: &str,
    lambda: f64,
    storage: &StorageConfig,
) -> Box<dyn ContinuousTopK + Send> {
    let kind: EngineKind = name.parse().unwrap_or_else(|e| panic!("{e}"));
    kind.build_engine_with(lambda, storage)
}

/// Construct a sharded monitor running one engine of the named kind per
/// shard, with the postings-storage configuration applied to every shard's
/// query index.
pub fn make_sharded_with(
    shards: usize,
    engine: &str,
    lambda: f64,
    storage: &StorageConfig,
) -> ShardedMonitor {
    ShardedMonitor::new(shards, || make_engine_with(engine, lambda, storage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_core::MonitorBackend;

    #[test]
    fn factory_names_round_trip() {
        for name in ALL_ALGOS {
            let e = make_engine(name, 0.001);
            assert_eq!(e.name(), name);
            assert_eq!(e.lambda(), 0.001);
        }
    }

    #[test]
    fn name_tables_match_the_kind_registry() {
        assert_eq!(ALL_ALGOS, EngineKind::ALL.map(|k| k.name()));
        assert_eq!(PAPER_ALGOS, EngineKind::PAPER.map(|k| k.name()));
    }

    #[test]
    #[should_panic]
    fn unknown_name_panics() {
        let _ = make_engine("WAND2000", 0.0);
    }

    #[test]
    fn sharded_factory_builds_the_requested_shards() {
        let m = make_sharded_with(2, "MRIO", 0.001, &StorageConfig::plain());
        assert_eq!(m.shards(), 2);
        assert_eq!(m.lambda(), 0.001);
    }
}
