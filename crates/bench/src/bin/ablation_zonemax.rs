//! Ablation A1 — the three implementations of MRIO's zone maximum `UB*`
//! (TKDE §5.2): exact segment tree vs block maxima vs suffix snapshots,
//! against RIO as the no-zone baseline.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin ablation_zonemax [-- --scale smoke|laptop]
//! ```

use ctk_bench::{make_engine, prepare, run_engine, write_csv, ExperimentConfig, Table};
use ctk_stream::QueryWorkload;

fn main() {
    let scale = ctk_bench::cli::scale_from_env("ablation_zonemax");

    let variants = ["RIO", "MRIO", "MRIO-block", "MRIO-suffix"];
    for workload in [QueryWorkload::Uniform, QueryWorkload::Connected] {
        let mut time_tab = Table::new(
            &format!("A1 zone-max ablation — {} (time)", workload.name()),
            "queries",
            &variants,
            "ms/event",
        );
        let mut eval_tab = Table::new(
            &format!("A1 zone-max ablation — {} (evals)", workload.name()),
            "queries",
            &variants,
            "full evaluations/event",
        );
        for &n in &scale.query_counts() {
            let cfg = ExperimentConfig::fig1(workload, n, scale);
            let wl = prepare(&cfg);
            let mut times = Vec::new();
            let mut evals = Vec::new();
            for v in variants {
                let mut engine = make_engine(v, cfg.lambda);
                let r = run_engine(engine.as_mut(), &wl);
                eprintln!(
                    "  |Q|={n:>8} {v:<12} {:>9.4} ms/ev  {:>9.1} evals/ev",
                    r.avg_ms,
                    r.stats.avg_full_evaluations()
                );
                times.push(r.avg_ms);
                evals.push(r.stats.avg_full_evaluations());
            }
            time_tab.push_row(n.to_string(), times);
            eval_tab.push_row(n.to_string(), evals);
        }
        println!("{}", time_tab.to_markdown());
        println!("{}", eval_tab.to_markdown());
        let stem = format!("ablation_zonemax_{}", workload.name().to_lowercase());
        let _ = write_csv(&stem, &time_tab);
    }
}
