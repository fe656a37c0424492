//! Experiment E4 — the paper's optimality claim (§III, Lemma 2): MRIO
//! performs the fewest full evaluations / iterations of any exact algorithm
//! in the ID-ordering paradigm. Reports "queries considered per stream
//! event" for every method next to the lower bound (the number of queries
//! whose result actually changes).
//!
//! ```text
//! cargo run -p ctk-bench --release --bin optimality [-- --scale smoke|laptop]
//! ```

use ctk_bench::{make_engine, prepare, run_engine, write_csv, ExperimentConfig, Table};
use ctk_stream::QueryWorkload;

fn main() {
    let scale = ctk_bench::cli::scale_from_env("optimality");
    let counts = scale.query_counts();
    let n = counts[counts.len() / 2];

    for workload in [QueryWorkload::Uniform, QueryWorkload::Connected] {
        let cfg = ExperimentConfig::fig1(workload, n, scale);
        let wl = prepare(&cfg);
        eprintln!("== optimality on {} / |Q| = {n} ==", workload.name());

        let algos = ["RTA", "TPS", "SortQuer", "RIO", "MRIO", "MRIO-block", "MRIO-suffix"];
        let mut table = Table::new(
            &format!("E4 optimality — {}", workload.name()),
            "metric",
            &algos,
            "per stream event",
        );
        let mut evals = Vec::new();
        let mut iters = Vec::new();
        let mut updates = Vec::new();
        for algo in algos {
            let mut engine = make_engine(algo, cfg.lambda);
            let r = run_engine(engine.as_mut(), &wl);
            eprintln!(
                "  {algo:<12} evals/ev={:>10.1} iters/ev={:>10.1}",
                r.stats.avg_full_evaluations(),
                r.stats.avg_iterations()
            );
            evals.push(r.stats.avg_full_evaluations());
            iters.push(r.stats.avg_iterations());
            updates.push(r.stats.updates as f64 / r.stats.events as f64);
        }
        let lower_bound = updates[0];
        table.push_row("queries considered (full evals)", evals.clone());
        table.push_row("traversal iterations", iters);
        table.push_row("result updates (lower bound)", updates);
        println!("{}", table.to_markdown());
        println!(
            "lower bound (queries whose top-k actually changes): {lower_bound:.1}/event; \
             MRIO considers {:.1} — within {:.1}% of optimal.\n",
            evals[4],
            (evals[4] / lower_bound - 1.0) * 100.0
        );
        let _ = write_csv(&format!("optimality_{}", workload.name().to_lowercase()), &table);
    }
}
