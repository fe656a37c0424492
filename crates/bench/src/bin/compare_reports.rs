//! CI perf-regression gate over `sweep_shards` reports.
//!
//! ```text
//! cargo run -p ctk-bench --release --bin compare_reports -- \
//!     --baseline results/sweep_shards_baseline.json \
//!     --current  results/sweep_shards.json \
//!     [--tolerance 0.30] [--absolute]
//! ```
//!
//! Joins the two reports on `(queries, shards, batch, storage)`
//! and fails (exit 1) when any cell's throughput dropped by more than
//! `tolerance` (default 30%) versus the baseline. By default the compared metric is
//! the **normalized** throughput `docs_per_sec / single_docs_per_sec(queries)`
//! of each report — CI runners and developer machines differ wildly in
//! absolute speed, but each report carries its own single-threaded
//! reference measured in the same process on the same workload *per query
//! population*, so the ratio is the noise-tolerant signal: it regresses
//! only when the *sharded path itself* got slower relative to the engine.
//! `--absolute` switches to raw docs/sec (useful when baseline and current
//! come from the same machine).
//!
//! Reads only the current schema version; older reports are refused
//! (regenerate the baseline with the current `sweep_shards`).
//!
//! Exit codes: `0` pass, `1` regression, `2` unusable input (an unknown
//! flag or a bad value, a missing file, an unrecognized schema version, or
//! reports measured under different workload configurations — those deltas
//! would be meaningless).

use ctk_bench::cli::{Flags, Spec};
use ctk_bench::report::format_sig;
use ctk_bench::SWEEP_SHARDS_SCHEMA_VERSION;
use serde::Deserialize;

#[derive(Deserialize)]
struct Probe {
    schema_version: u32,
}

#[derive(Deserialize)]
struct Single {
    queries: usize,
    docs_per_sec: f64,
}

#[derive(Deserialize)]
struct Cell {
    queries: usize,
    shards: usize,
    batch: usize,
    storage: String,
    docs_per_sec: f64,
}

#[derive(Deserialize)]
struct Report {
    query_counts: Vec<usize>,
    measured_docs: usize,
    storage_modes: Vec<String>,
    singles: Vec<Single>,
    cells: Vec<Cell>,
}

impl Report {
    /// The single-threaded reference for a cell's query population.
    fn single(&self, queries: usize) -> Option<f64> {
        self.singles.iter().find(|s| s.queries == queries).map(|s| s.docs_per_sec)
    }
}

const FLAGS: Spec = Spec {
    program: "compare_reports",
    valued: &["--baseline", "--current", "--tolerance"],
    switches: &["--absolute"],
};

fn usage_exit(msg: &str) -> ! {
    FLAGS.usage_exit(msg)
}

fn load(path: &str) -> Report {
    let contents = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_exit(&format!("cannot read {path}: {e}")));
    let probe: Probe = serde_json::from_str(&contents)
        .unwrap_or_else(|e| usage_exit(&format!("{path} is not a sweep_shards report: {e}")));
    let v = probe.schema_version;
    if v != SWEEP_SHARDS_SCHEMA_VERSION {
        usage_exit(&format!(
            "{path} has schema_version {v} (this gate understands only \
             {SWEEP_SHARDS_SCHEMA_VERSION}); regenerate it with the current sweep_shards binary"
        ));
    }
    serde_json::from_str(&contents)
        .unwrap_or_else(|e| usage_exit(&format!("{path} is not a v{v} report: {e}")))
}

fn main() {
    let flags = Flags::from_env(FLAGS);
    let baseline_path =
        flags.value("--baseline").unwrap_or_else(|| usage_exit("--baseline is required"));
    let current_path =
        flags.value("--current").unwrap_or_else(|| usage_exit("--current is required"));
    let tolerance: f64 = match flags.parsed("--tolerance") {
        Ok(None) => 0.30,
        Ok(Some(t)) if (0.0..1.0).contains(&t) => t,
        _ => usage_exit("--tolerance must be a fraction in [0, 1)"),
    };
    let absolute = flags.switch("--absolute");

    let base = load(baseline_path);
    let cur = load(current_path);

    // Deltas are only meaningful at equal workload configuration.
    let base_cfg = (&base.query_counts, base.measured_docs, &base.storage_modes);
    let cur_cfg = (&cur.query_counts, cur.measured_docs, &cur.storage_modes);
    if base_cfg != cur_cfg {
        usage_exit(&format!(
            "workload configs differ: baseline (queries, docs, storage) = \
             {base_cfg:?}, current = {cur_cfg:?}; regenerate the baseline at the gate's \
             configuration"
        ));
    }

    let metric = |report: &Report, cell: &Cell| -> f64 {
        if absolute {
            cell.docs_per_sec
        } else {
            match report.single(cell.queries) {
                Some(single) => cell.docs_per_sec / single,
                None => usage_exit(&format!(
                    "report lacks a single-threaded reference for {} queries",
                    cell.queries
                )),
            }
        }
    };
    let metric_name = if absolute { "docs/sec" } else { "docs/sec vs single" };

    println!("### Perf gate: {metric_name}, tolerance -{:.0}%\n", tolerance * 100.0);
    println!("| queries | shards | batch | storage | baseline | current | delta | status |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut regressions = 0usize;
    let mut missing = 0usize;
    let key = |c: &Cell| (c.queries, c.shards, c.batch, c.storage.clone());
    for bc in &base.cells {
        let Some(cc) = cur.cells.iter().find(|c| key(c) == key(bc)) else {
            println!(
                "| {} | {} | {} | {} | — | — | — | MISSING |",
                bc.queries, bc.shards, bc.batch, bc.storage
            );
            missing += 1;
            continue;
        };
        let (b, c) = (metric(&base, bc), metric(&cur, cc));
        let delta = c / b - 1.0;
        let regressed = delta < -tolerance;
        if regressed {
            regressions += 1;
        }
        println!(
            "| {} | {} | {} | {} | {} | {} | {:+.1}% | {} |",
            bc.queries,
            bc.shards,
            bc.batch,
            bc.storage,
            format_sig(b),
            format_sig(c),
            delta * 100.0,
            if regressed { "REGRESSION" } else { "ok" }
        );
    }
    for cc in &cur.cells {
        let known = base.cells.iter().any(|b| key(b) == key(cc));
        if !known {
            println!(
                "| {} | {} | {} | {} | — | {} | — | new (no baseline) |",
                cc.queries,
                cc.shards,
                cc.batch,
                cc.storage,
                format_sig(metric(&cur, cc))
            );
        }
    }
    println!();

    if missing > 0 {
        eprintln!(
            "compare_reports: {missing} baseline cell(s) absent from the current report — \
             the gate cannot vouch for them; align the sweep configurations"
        );
        std::process::exit(2);
    }
    if regressions > 0 {
        eprintln!(
            "compare_reports: {regressions} cell(s) regressed more than {:.0}% on {metric_name}",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("compare_reports: all {} cells within tolerance", base.cells.len());
}
