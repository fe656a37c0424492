//! Grouped, typed configuration for the ingestion path.
//!
//! The builder historically grew one flat knob per concern
//! (`batch_size`, `pipeline_window`, `compact_at`, …). These structs bundle
//! the knobs by the subsystem they tune — [`IngestConfig`] for the
//! publish-side pipeline, [`IndexConfig`] for the query index — so a whole
//! deployment profile is one value with `Default` + builder-style setters.
//! The flat builder methods remain as delegating wrappers, so both styles
//! configure the same fields.

use ctk_index::StorageConfig;

/// AIMD controller parameters for adaptive ingest chunking (see
/// [`crate::ShardedMonitor::set_adaptive_batching`]).
///
/// The controller watches the wall-clock latency of each pipeline drain
/// during `publish_batch`: while drains come back under
/// [`AdaptiveConfig::target_drain_ms`], the chunk size grows additively by
/// [`AdaptiveConfig::increase_step`] (more documents in flight per
/// round-trip, higher throughput); the first drain over the target halves
/// it (multiplicative decrease, classic AIMD), bounded to
/// `[min_chunk, max_chunk]`.
///
/// Chunking is **result-invariant**: `publish_batch` produces bit-identical
/// receipts under any chunk-size schedule (proptested against a
/// fixed-window oracle in `tests/sharded_batch.rs`), so the controller only
/// ever moves throughput and latency, never results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Target per-drain latency in milliseconds: drains slower than this
    /// halve the chunk size. Default 5 ms.
    pub target_drain_ms: f64,
    /// Lower chunk-size clamp (never shrink below this). Default 8.
    pub min_chunk: usize,
    /// Upper chunk-size clamp (never grow above this). Default 4096.
    pub max_chunk: usize,
    /// Additive growth per under-target drain, in documents. Default 16.
    pub increase_step: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { target_drain_ms: 5.0, min_chunk: 8, max_chunk: 4096, increase_step: 16 }
    }
}

impl AdaptiveConfig {
    /// The per-drain latency target, in milliseconds.
    pub fn target_drain_ms(mut self, ms: f64) -> Self {
        self.target_drain_ms = ms;
        self
    }

    /// The chunk-size clamp `[min, max]`.
    ///
    /// # Panics
    /// Panics unless `1 <= min <= max`.
    pub fn chunk_bounds(mut self, min: usize, max: usize) -> Self {
        assert!(1 <= min && min <= max, "need 1 <= min_chunk <= max_chunk");
        self.min_chunk = min;
        self.max_chunk = max;
        self
    }

    /// Documents added to the chunk per under-target drain.
    pub fn increase_step(mut self, step: usize) -> Self {
        self.increase_step = step.max(1);
        self
    }
}

/// How `publish_batch` drives the submit/drain pipeline on sharded
/// backends: chunk size, pipeline window, and the optional AIMD controller
/// that retunes the chunk size from measured drain latency.
///
/// ```
/// use ctk_core::{AdaptiveConfig, IngestConfig};
///
/// let cfg = IngestConfig::default()
///     .batch_size(256)
///     .pipeline_window(2)
///     .adaptive(AdaptiveConfig::default());
/// assert_eq!(cfg.batch_size, 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// `publish_batch` chunk size (0 = whole publish as one batch). With
    /// [`IngestConfig::adaptive`] set this is only the controller's
    /// starting point (clamped to its bounds).
    pub batch_size: usize,
    /// Chunks kept in flight while chunking (0 = fully synchronous).
    /// Default 1: shards score chunk *n+1* while the merger drains chunk
    /// *n*.
    pub pipeline_window: usize,
    /// AIMD chunk-size controller; `None` keeps the fixed `batch_size`.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig { batch_size: 0, pipeline_window: 1, adaptive: None }
    }
}

impl IngestConfig {
    /// Set the (initial) publish chunk size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Set how many chunks stay in flight.
    pub fn pipeline_window(mut self, window: usize) -> Self {
        self.pipeline_window = window;
        self
    }

    /// Enable the AIMD chunk-size controller.
    pub fn adaptive(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = Some(cfg);
        self
    }
}

/// How the query index(es) behind a monitor are stored and maintained:
/// postings layout, pager budget and tombstone compaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexConfig {
    /// Postings layout + pager budget (see `ctk_index::StorageConfig`).
    pub storage: StorageConfig,
    /// Compact the index at batch boundaries once
    /// `tombstone_ratio() >= threshold` (`<= 0.0` disables).
    pub compaction_threshold: f64,
}

impl IndexConfig {
    /// Set the postings storage configuration.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Set the tombstone-compaction threshold.
    pub fn compaction_threshold(mut self, threshold: f64) -> Self {
        self.compaction_threshold = threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_defaults_are_sane_and_setters_clamp() {
        let d = AdaptiveConfig::default();
        assert!(d.min_chunk >= 1 && d.min_chunk <= d.max_chunk);
        assert!(d.target_drain_ms > 0.0);
        let c = AdaptiveConfig::default().chunk_bounds(4, 64).increase_step(0);
        assert_eq!((c.min_chunk, c.max_chunk), (4, 64));
        assert_eq!(c.increase_step, 1, "a zero step would freeze the controller");
    }

    #[test]
    #[should_panic]
    fn inverted_chunk_bounds_are_rejected() {
        let _ = AdaptiveConfig::default().chunk_bounds(64, 4);
    }

    #[test]
    fn ingest_config_builder_style() {
        let cfg = IngestConfig::default()
            .batch_size(128)
            .pipeline_window(3)
            .adaptive(AdaptiveConfig::default());
        assert_eq!(cfg.batch_size, 128);
        assert_eq!(cfg.pipeline_window, 3);
        assert!(cfg.adaptive.is_some());
        assert_eq!(IngestConfig::default().adaptive, None);
        assert_eq!(IngestConfig::default().pipeline_window, 1, "default keeps one chunk in flight");
    }
}
