//! Ablation A3 — effect of the decay parameter λ: larger λ means looser
//! per-document targets (θ_d falls faster), more result churn, and less
//! pruning for every method.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin sweep_lambda [-- --scale smoke|laptop]
//! ```

use ctk_bench::{
    make_engine, prepare, run_engine, write_csv, ExperimentConfig, Table, PAPER_ALGOS,
};
use ctk_stream::QueryWorkload;

fn main() {
    let scale = ctk_bench::cli::scale_from_env("sweep_lambda");
    let n = scale.query_counts()[scale.query_counts().len() / 2];

    let mut table =
        Table::new("A3 — effect of decay λ (Connected)", "lambda", &PAPER_ALGOS, "ms/event");
    for lambda in [0.0, 1e-5, 1e-4, 1e-3, 1e-2] {
        let mut cfg = ExperimentConfig::fig1(QueryWorkload::Connected, n, scale);
        cfg.lambda = lambda;
        let wl = prepare(&cfg);
        let mut row = Vec::new();
        for algo in PAPER_ALGOS {
            let mut engine = make_engine(algo, cfg.lambda);
            let r = run_engine(engine.as_mut(), &wl);
            eprintln!(
                "  λ={lambda:<8} {algo:<9} {:>9.4} ms/ev ({:.1} updates/ev)",
                r.avg_ms,
                r.stats.updates as f64 / r.stats.events.max(1) as f64
            );
            row.push(r.avg_ms);
        }
        table.push_row(format!("{lambda}"), row);
    }
    println!("{}", table.to_markdown());
    let _ = write_csv("sweep_lambda", &table);
}
