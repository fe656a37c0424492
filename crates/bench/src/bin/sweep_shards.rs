//! Sharded publish throughput: docs/sec as a function of **query
//! population** × shard count × publish size, against two fixed references
//! on the *same* workload — the single-threaded engine (measured per
//! population) and the per-document sharded path (publish size 1).
//!
//! ```text
//! cargo run -p ctk-bench --release --bin sweep_shards \
//!     [-- --scale smoke|laptop|full] \
//!     [--queries 2000,10000] [--shards 1,2,4] [--batches 1,64,256] \
//!     [--docs N] [--repeat N] \
//!     [--storage plain,compressed]
//! ```
//!
//! A `batch` cell publishes the measured stream through
//! `publish_request(PublishRequest::from(chunk))` calls of `batch`
//! documents each; every call sends each shard the chunk once and merges
//! once. Batch 1 is the per-document reference and is always swept.
//!
//! `--queries N[,N...]` sweeps the query population (default: the scale's
//! midpoint count, the pre-v3 behavior). Sharding pays the matched-list
//! walk once per shard, so the population decides where more shards start
//! to beat the single engine.
//!
//! `--repeat N` (default 1) measures every cell — and the single-threaded
//! references — N times from identical cold state (fresh monitor, same
//! registration/seed/warmup prologue) and keeps the best run. Transient
//! interference (CPU steal on shared CI runners, frequency ramps) only
//! ever *slows* a run, so best-of-N converges on the machine's true
//! throughput; the CI perf gate uses `--repeat 3` to keep its sub-second
//! smoke cells out of the noise floor.
//!
//! `--storage B[,B...]` sweeps the postings-storage backend (default
//! `plain`); each cell records the backend's `index_bytes` (summed across
//! shards after the measured stream) and the derived `bytes_per_query`, so
//! the report shows the compression ratio next to the throughput cost.
//!
//! Prints a markdown table and writes the machine-readable report
//! (`schema_version` 8 — cells carry the `queries`, `storage` and `batch`
//! axes and memory footprint)
//! to `results/sweep_shards.json`, which CI archives as a build artifact
//! and gates against `results/sweep_shards_baseline.json` with the
//! `compare_reports` binary. The writer refuses to clobber a report whose
//! schema version it does not recognize.

use ctk_bench::report::format_sig;
use ctk_bench::{
    existing_report_schema, prepare, write_json_report, ExperimentConfig, Scale, Table,
    SWEEP_SHARDS_SCHEMA_VERSION,
};
use ctk_core::{
    ContinuousTopK, MonitorBackend, MrioSeg, PostingsStorage, PublishRequest, ShardedMonitor,
    StorageConfig,
};
use ctk_stream::QueryWorkload;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Single {
    queries: usize,
    docs_per_sec: f64,
}

#[derive(Serialize)]
struct Cell {
    queries: usize,
    shards: usize,
    /// Documents per publish.
    batch: usize,
    /// Postings-storage backend this cell ran on (`plain` / `compressed`).
    storage: String,
    docs_per_sec: f64,
    speedup_vs_single: f64,
    speedup_vs_per_doc_sharded: f64,
    /// Estimated index heap bytes after the measured stream, summed across
    /// shards.
    index_bytes: u64,
    bytes_per_query: f64,
}

#[derive(Serialize)]
struct SweepReport {
    schema_version: u32,
    engine: String,
    scale: String,
    query_counts: Vec<usize>,
    measured_docs: usize,
    /// Postings-storage backends swept, cell order.
    storage_modes: Vec<String>,
    available_parallelism: usize,
    /// Single-threaded reference per query population, `query_counts` order.
    singles: Vec<Single>,
    cells: Vec<Cell>,
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',').filter_map(|p| p.trim().parse().ok()).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg_value(&args, "--scale").and_then(|s| Scale::parse(&s)).unwrap_or(Scale::Laptop);
    let query_counts: Vec<usize> = arg_value(&args, "--queries")
        .map(|s| parse_list(&s))
        .unwrap_or_else(|| vec![scale.query_counts()[scale.query_counts().len() / 2]]);
    let shard_counts =
        arg_value(&args, "--shards").map(|s| parse_list(&s)).unwrap_or_else(|| vec![1, 2, 4]);
    let batch_sizes =
        arg_value(&args, "--batches").map(|s| parse_list(&s)).unwrap_or_else(|| vec![1, 64, 256]);
    let repeat: usize =
        arg_value(&args, "--repeat").and_then(|s| s.parse().ok()).unwrap_or(1).max(1);
    let storages: Vec<PostingsStorage> = match arg_value(&args, "--storage") {
        None => vec![PostingsStorage::Plain],
        Some(s) => match s.split(',').map(|p| p.trim().parse()).collect() {
            Ok(list) => list,
            Err(e) => {
                eprintln!("sweep_shards: {e}");
                std::process::exit(2);
            }
        },
    };
    let measured_docs: usize =
        arg_value(&args, "--docs").and_then(|s| s.parse().ok()).unwrap_or(match scale {
            Scale::Smoke => 2_000,
            Scale::Laptop => 8_000,
            Scale::Full => 20_000,
        });
    if query_counts.is_empty() {
        eprintln!("sweep_shards: --queries needs at least one population");
        std::process::exit(2);
    }

    // Never clobber a report written in a format this binary does not
    // understand (e.g. by a newer checkout) — regeneration must be a
    // conscious `rm`, not a silent downgrade.
    match existing_report_schema("sweep_shards") {
        Ok(Some(v)) if !(1..=SWEEP_SHARDS_SCHEMA_VERSION).contains(&v) => {
            eprintln!(
                "sweep_shards: refusing to overwrite results/sweep_shards.json: \
                 its schema_version {v} is unknown to this binary \
                 (understands 1 through {SWEEP_SHARDS_SCHEMA_VERSION}); delete it to regenerate"
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("sweep_shards: cannot inspect existing report: {e}");
            std::process::exit(2);
        }
        _ => {}
    }

    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if cores < shard_counts.iter().copied().max().unwrap_or(1) {
        eprintln!(
            "  note: fewer cores than shards — sharding cannot beat the single engine here; \
             compare batch sizes (coordination overhead) instead"
        );
    }

    // Best-of-N from identical cold state: interference only slows runs,
    // so the fastest repetition is the least-perturbed estimate. `measure`
    // returns (docs/sec, index bytes).
    let best_of =
        |measure: &dyn Fn() -> (f64, u64)| {
            (0..repeat).map(|_| measure()).fold((0.0f64, 0u64), |best, run| {
                if run.0 > best.0 {
                    run
                } else {
                    best
                }
            })
        };

    let mut table = Table::new(
        "Sharded publish throughput (MRIO single reference)",
        "queries x storage x shards x batch",
        &["docs/sec", "vs single", "vs per-doc sharded", "bytes/query"],
        "docs/sec",
    );
    let mut singles = Vec::new();
    let mut cells = Vec::new();
    for &n in &query_counts {
        let mut cfg = ExperimentConfig::fig1(QueryWorkload::Connected, n, scale);
        cfg.measured_events = measured_docs;
        let wl = prepare(&cfg);
        eprintln!(
            "sweep_shards: {n} queries, {} measured docs, {cores} core(s)",
            wl.measured.len()
        );

        // Reference 1: the single-threaded engine at this population
        // (always plain storage — the sharded cells normalize against it).
        let (single_dps, _) = best_of(&|| {
            let mut engine = MrioSeg::new(cfg.lambda);
            wl.install(&mut engine);
            for doc in &wl.warmup {
                engine.process(doc);
            }
            let start = Instant::now();
            for doc in &wl.measured {
                engine.process(doc);
            }
            (wl.measured.len() as f64 / start.elapsed().as_secs_f64(), 0)
        });
        eprintln!("  single-threaded MRIO: {} docs/sec (best of {repeat})", format_sig(single_dps));
        singles.push(Single { queries: n, docs_per_sec: single_dps });

        for &storage in &storages {
            let storage_cfg = StorageConfig::new(storage);
            for &shards in &shard_counts {
                // A sharded monitor holding the workload's registered and
                // seeded population, before any document. One shard is
                // still the sharded runtime, as the baseline cells were
                // measured.
                let fresh = || {
                    let mut monitor = ShardedMonitor::new(shards, || {
                        MrioSeg::with_storage(cfg.lambda, &storage_cfg)
                    });
                    let ids: Vec<_> =
                        wl.specs.iter().map(|spec| monitor.register(spec.clone())).collect();
                    for (i, seeds) in wl.seeds.iter().enumerate() {
                        if !seeds.is_empty() {
                            monitor.seed_results(ids[i], seeds);
                        }
                    }
                    monitor
                };
                // Reference 2: this shard count fed one document per
                // publish. Always swept first and exactly once, whatever
                // --batches says.
                let mut batches = vec![1usize];
                for &b in &batch_sizes {
                    if b > 1 && !batches.contains(&b) {
                        batches.push(b);
                    }
                }
                let mut per_doc_dps = f64::NAN;
                for &batch in &batches {
                    // The requests are cut outside the timed section.
                    let requests: Vec<PublishRequest> =
                        wl.measured.chunks(batch).map(PublishRequest::from).collect();
                    let (dps, index_bytes) = best_of(&|| {
                        let mut monitor = fresh();
                        for chunk in wl.warmup.chunks(batch) {
                            monitor.publish_request(PublishRequest::from(chunk));
                        }
                        let requests = requests.clone();

                        let start = Instant::now();
                        for request in requests {
                            monitor.publish_request(request);
                        }
                        let dps = wl.measured.len() as f64 / start.elapsed().as_secs_f64();
                        (dps, monitor.storage_stats().index_bytes)
                    });
                    if batch == 1 {
                        per_doc_dps = dps;
                    }
                    let vs_per_doc = dps / per_doc_dps;
                    let bytes_per_query = index_bytes as f64 / n as f64;
                    eprintln!(
                        "  queries={n} storage={storage} shards={shards} batch={batch}: \
                         {} docs/sec ({:.2}x single, {:.2}x per-doc, {} bytes/query)",
                        format_sig(dps),
                        dps / single_dps,
                        vs_per_doc,
                        format_sig(bytes_per_query)
                    );
                    table.push_row(
                        format!("{n} x {storage} x {shards} x {batch}"),
                        vec![dps, dps / single_dps, vs_per_doc, bytes_per_query],
                    );
                    cells.push(Cell {
                        queries: n,
                        shards,
                        batch,
                        storage: storage.name().to_string(),
                        docs_per_sec: dps,
                        speedup_vs_single: dps / single_dps,
                        speedup_vs_per_doc_sharded: vs_per_doc,
                        index_bytes,
                        bytes_per_query,
                    });
                }
            }
        }
    }

    println!("{}", table.to_markdown());
    let report = SweepReport {
        schema_version: SWEEP_SHARDS_SCHEMA_VERSION,
        engine: "MRIO".to_string(),
        scale: format!("{scale:?}"),
        query_counts,
        measured_docs,
        storage_modes: storages.iter().map(|s| s.name().to_string()).collect(),
        available_parallelism: cores,
        singles,
        cells,
    };
    match write_json_report("sweep_shards", &report) {
        Ok(path) => eprintln!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write JSON report: {e}"),
    }
}
