//! # ctk-bench
//!
//! The benchmark harness that regenerates the paper's evaluation (Fig. 1a,
//! Fig. 1b, the speedup claims) and the ablations and sweeps listed in the
//! README's "Benchmarks" section.
//!
//! Structure:
//! * [`config`] — experiment descriptions (corpus, workload, sweep points);
//! * [`workload`] — materializes a reproducible `(queries, warmup stream,
//!   measured stream)` triple;
//! * [`engines`] — a factory constructing any algorithm by name;
//! * [`runner`] — registers, warms up, then times `process` per event;
//! * [`report`] — markdown / CSV / JSON emission into `results/`;
//! * [`cli`] — the strict `--flag value` parser of every binary's flags.
//!
//! Binaries (`src/bin/*.rs`): `fig1`, `optimality`, `ablation_zonemax`,
//! `sweep_k`, `sweep_lambda`, `sweep_doclen`, `sweep_shards` (monitor
//! publish throughput over `--queries`, `--batches` and `--storage`),
//! `compare_reports` (the CI perf-regression gate over two
//! `sweep_shards` reports, joined on `queries × batch × storage`)
//! and `http_load` (the wire-level publish path against a daemon).
//! Criterion micro-benches live in `benches/`.

pub mod cli;
pub mod config;
pub mod engines;
pub mod report;
pub mod runner;
pub mod workload;

pub use config::{ExperimentConfig, Scale};
pub use engines::{make_engine, make_engine_with, PAPER_ALGOS};
pub use report::{
    existing_report_schema, write_csv, write_json, write_json_report, Table,
    SWEEP_SHARDS_SCHEMA_VERSION,
};
pub use runner::{run_engine, RunResult};
pub use workload::{prepare, PreparedWorkload};
