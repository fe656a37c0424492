//! Engine factory: construct any algorithm by its report name.
//!
//! The product builds only MRIO and its oracle (`continuous_topk`'s
//! `EngineKind`); the comparators of the paper's evaluation — RTA, RIO,
//! SortQuer, TPS and the zone-maxima ablations — are constructed here, by
//! the names the reports print.

use ctk_baselines::{Rta, SortQuer, Tps};
use ctk_core::{ContinuousTopK, MrioBlock, MrioSeg, MrioSuffix, Naive, Rio, StorageConfig};

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

/// [`make_engine`] with an explicit postings-storage configuration. RTA and
/// SortQuer keep their own impact-ordered structures instead of a
/// `QueryIndex`, so the storage selection does not apply to them.
pub fn make_engine_with(
    name: &str,
    lambda: f64,
    storage: &StorageConfig,
) -> Box<dyn ContinuousTopK + Send> {
    match name {
        "RTA" => Box::new(Rta::new(lambda)),
        "RIO" => Box::new(Rio::with_storage(lambda, storage)),
        "MRIO" => Box::new(MrioSeg::with_storage(lambda, storage)),
        "MRIO-block" => Box::new(MrioBlock::with_storage(lambda, storage)),
        "MRIO-suffix" => Box::new(MrioSuffix::with_storage(lambda, storage)),
        "SortQuer" => Box::new(SortQuer::new(lambda)),
        "TPS" => Box::new(Tps::with_storage(lambda, storage)),
        "Naive" => Box::new(Naive::with_storage(lambda, storage)),
        _ => panic!("unknown engine name: {name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_names_round_trip() {
        for name in ALL_ALGOS {
            let e = make_engine(name, 0.001);
            assert_eq!(e.name(), name);
            assert_eq!(e.lambda(), 0.001);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_name_panics() {
        let _ = make_engine("WAND2000", 0.0);
    }
}
