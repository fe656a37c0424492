//! Ablation A4 — effect of document length (tokens per document): longer
//! documents match more lists (larger m), increasing work for everyone.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin sweep_doclen [-- --scale smoke|laptop]
//! ```

use ctk_bench::{
    make_engine, prepare, run_engine, write_csv, ExperimentConfig, Table, PAPER_ALGOS,
};
use ctk_stream::QueryWorkload;

fn main() {
    let scale = ctk_bench::cli::scale_from_env("sweep_doclen");
    let n = scale.query_counts()[scale.query_counts().len() / 2];

    let mut table = Table::new(
        "A4 — effect of document length (Connected)",
        "avg tokens",
        &PAPER_ALGOS,
        "ms/event",
    );
    for tokens in [50usize, 100, 200, 400] {
        let mut cfg = ExperimentConfig::fig1(QueryWorkload::Connected, n, scale);
        cfg.corpus.avg_tokens = tokens;
        let wl = prepare(&cfg);
        let mut row = Vec::new();
        for algo in PAPER_ALGOS {
            let mut engine = make_engine(algo, cfg.lambda);
            let r = run_engine(engine.as_mut(), &wl);
            eprintln!("  tokens={tokens:<4} {algo:<9} {:>9.4} ms/ev", r.avg_ms);
            row.push(r.avg_ms);
        }
        table.push_row(tokens.to_string(), row);
    }
    println!("{}", table.to_markdown());
    let _ = write_csv("sweep_doclen", &table);
}
