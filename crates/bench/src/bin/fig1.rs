//! Regenerates **Figure 1** of the paper: response time per stream event vs
//! number of registered queries, for RTA, RIO, MRIO, SortQuer and TPS, on
//! the Uniform (a) and Connected (b) query workloads.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin fig1 [-- --scale smoke|laptop|full]
//!                                             [-- --workload uniform|connected|both]
//! ```
//!
//! Prints one markdown table per workload (rows = |Q|, columns = methods,
//! cells = mean ms/event) plus the paper's §IV speedup claim (MRIO vs TPS /
//! SortQuer / RTA), and writes `results/fig1_<workload>.{csv,json}`.

use ctk_bench::cli::{Flags, Spec};
use ctk_bench::{
    make_engine, prepare, run_engine, write_csv, write_json, ExperimentConfig, RunResult, Scale,
    Table, PAPER_ALGOS,
};
use ctk_stream::QueryWorkload;

const FLAGS: Spec = Spec { program: "fig1", valued: &["--scale", "--workload"], switches: &[] };

fn parse_args() -> (Scale, Vec<QueryWorkload>) {
    let flags = Flags::from_env(FLAGS);
    let scale = flags.parsed_or_exit("--scale").unwrap_or(Scale::Laptop);
    let workloads = match flags.value("--workload").unwrap_or("both") {
        "uniform" => vec![QueryWorkload::Uniform],
        "connected" => vec![QueryWorkload::Connected],
        "both" => vec![QueryWorkload::Uniform, QueryWorkload::Connected],
        other => FLAGS.usage_exit(&format!("bad value {other:?} for --workload")),
    };
    (scale, workloads)
}

fn main() {
    let (scale, workloads) = parse_args();
    let counts = scale.query_counts();

    for workload in workloads {
        let fig = match workload {
            QueryWorkload::Uniform => "Figure 1(a) — Wiki-Uniform",
            QueryWorkload::Connected => "Figure 1(b) — Wiki-Connected",
        };
        eprintln!("== {fig}: sweeping |Q| = {counts:?} (scale {scale:?}) ==");

        let mut table = Table::new(fig, "queries", &PAPER_ALGOS, "response time, ms/event");
        let mut all_results: Vec<RunResult> = Vec::new();

        for &n in &counts {
            let cfg = ExperimentConfig::fig1(workload, n, scale);
            let wl = prepare(&cfg);
            let mut row = Vec::with_capacity(PAPER_ALGOS.len());
            for algo in PAPER_ALGOS {
                let mut engine = make_engine(algo, cfg.lambda);
                let r = run_engine(engine.as_mut(), &wl);
                eprintln!(
                    "  |Q|={n:>8}  {algo:<9} avg={:>10.4} ms  p95={:>10.4} ms  evals/ev={:>9.1}",
                    r.avg_ms,
                    r.p95_ms,
                    r.stats.avg_full_evaluations()
                );
                row.push(r.avg_ms);
                all_results.push(r);
            }
            table.push_row(n.to_string(), row);
        }

        println!("{}", table.to_markdown());

        // The §IV claim: MRIO vs the best published competitors at the
        // largest sweep point.
        if let Some((_, last)) = table.rows.last() {
            let idx = |name: &str| PAPER_ALGOS.iter().position(|&a| a == name).unwrap();
            let mrio = last[idx("MRIO")];
            println!("**Speedups at |Q| = {} ({}):**\n", counts.last().unwrap(), workload.name());
            for other in ["TPS", "SortQuer", "RTA", "RIO"] {
                println!("- MRIO vs {other}: {:.1}x", last[idx(other)] / mrio);
            }
            println!();
        }

        let stem = format!("fig1_{}", workload.name().to_lowercase());
        match (write_csv(&stem, &table), write_json(&stem, &all_results)) {
            (Ok(c), Ok(j)) => eprintln!("wrote {} and {}", c.display(), j.display()),
            (c, j) => eprintln!("result files: {c:?} {j:?}"),
        }
    }
}
