//! Ablation A2 — effect of the result size k on response time.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin sweep_k [-- --scale smoke|laptop]
//! ```

use ctk_bench::{
    make_engine, prepare, run_engine, write_csv, ExperimentConfig, Table, PAPER_ALGOS,
};
use ctk_stream::QueryWorkload;

fn main() {
    let scale = ctk_bench::cli::scale_from_env("sweep_k");
    let n = scale.query_counts()[scale.query_counts().len() / 2];

    let mut table = Table::new("A2 — effect of k (Connected)", "k", &PAPER_ALGOS, "ms/event");
    for k in [1usize, 5, 10, 20, 50] {
        let mut cfg = ExperimentConfig::fig1(QueryWorkload::Connected, n, scale);
        cfg.workload.k = k;
        let wl = prepare(&cfg);
        let mut row = Vec::new();
        for algo in PAPER_ALGOS {
            let mut engine = make_engine(algo, cfg.lambda);
            let r = run_engine(engine.as_mut(), &wl);
            eprintln!("  k={k:<3} {algo:<9} {:>9.4} ms/ev", r.avg_ms);
            row.push(r.avg_ms);
        }
        table.push_row(k.to_string(), row);
    }
    println!("{}", table.to_markdown());
    let _ = write_csv("sweep_k", &table);
}
