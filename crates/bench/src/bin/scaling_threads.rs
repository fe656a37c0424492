//! Ablation A5 — sharded-monitor scaling: throughput of the parallel
//! monitor with 1, 2 and 4 shards over the same query population.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin scaling_threads [-- --scale smoke|laptop]
//! ```

use ctk_bench::{prepare, write_csv, ExperimentConfig, Scale, Table};
use ctk_core::{MonitorBackend, MrioSeg, ShardedMonitor};
use ctk_stream::QueryWorkload;
use std::time::Instant;

fn main() {
    let scale = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Laptop);
    let n = scale.query_counts()[scale.query_counts().len() / 2];
    let cfg = ExperimentConfig::fig1(QueryWorkload::Connected, n, scale);
    let wl = prepare(&cfg);

    let mut table =
        Table::new("A5 — sharded monitor scaling (MRIO)", "shards", &["ms/event", "speedup"], "");
    let mut base = 0.0f64;
    for shards in [1usize, 2, 4] {
        let mut monitor = ShardedMonitor::new(shards, || MrioSeg::new(cfg.lambda));
        let mut ids = Vec::with_capacity(wl.specs.len());
        for spec in &wl.specs {
            ids.push(monitor.register(spec.clone()));
        }
        for (i, spec_seeds) in wl.seeds.iter().enumerate() {
            if !spec_seeds.is_empty() {
                monitor.seed_results(ids[i], spec_seeds);
            }
        }
        for doc in &wl.warmup {
            monitor.process(doc.clone());
        }
        let start = Instant::now();
        for doc in &wl.measured {
            monitor.process(doc.clone());
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / wl.measured.len() as f64;
        if shards == 1 {
            base = ms;
        }
        eprintln!("  shards={shards} {ms:.4} ms/event (speedup {:.2}x)", base / ms);
        table.push_row(shards.to_string(), vec![ms, base / ms]);
    }
    println!("{}", table.to_markdown());
    let _ = write_csv("scaling_threads", &table);
}
