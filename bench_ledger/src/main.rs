//! `bench_ledger`: the repository's benchmark. See `README.md` for the
//! workloads, the metric glossary and how to run and compare.
//!
//! ```text
//! bench_ledger --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's call)
//! bench_ledger --smoke                                            all workloads at 1/20 scale, both modes
//! bench_ledger --collect OUT.json [--runs N] [--seconds S]        N untraced runs per workload into a set file
//! bench_ledger --compare A.json B.json                            two set files against the bounds
//! bench_ledger --selfcheck [--runs N] [--seconds S]               two interleaved sets of this build must agree
//! ```

mod affinity;
mod compare;
mod daemon;
mod engine;
mod inputs;
mod layers;
mod plan;
mod run;
mod stats;
mod trace;
mod wire;

use plan::{Scale, Workload};
use run::Report;
use std::io::Write;
use std::process::ExitCode;

/// `BENCHMARK.json`'s `run_seconds`: what `--collect` and `--selfcheck` pass
/// as `--seconds` unless told otherwise.
const RUN_SECONDS: f64 = 10.0;
/// How often a full-scale run sets up; `setup_s` is the median.
const SETUPS: usize = 5;

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match arg_value(args, flag) {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| format!("bad value {raw:?} for {flag}")),
    }
}

/// Print every metric by name with its unit, then the result line.
fn print_report(report: &Report) {
    let mut out = std::io::stdout().lock();
    for note in &report.notes {
        let _ = writeln!(out, "# {note}");
    }
    for (name, unit, value) in &report.metrics {
        let _ = writeln!(out, "{:<15} {name:<36} {value:>16.6} {unit}", report.workload.name());
    }
    let _ = writeln!(out, "{}", report.to_json());
}

fn one_run(workload: Workload, seed: u64, scale: Scale, trace: bool) -> Result<Report, String> {
    let report = if trace {
        run::traced(workload, seed, scale)
    } else {
        run::end_to_end(workload, seed, scale)
    };
    report.map_err(|e| format!("{}: {e}", workload.name()))
}

/// All four workloads at 1/20 scale, untraced and traced; the traced run
/// twice, to show that every count metric repeats exactly under one seed.
fn smoke() -> Result<bool, String> {
    let scale = Scale { seconds: RUN_SECONDS / 20.0, shrink: 20, setups: 1 };
    let mut all_correct = true;
    for workload in Workload::ALL {
        let untraced = one_run(workload, 1, scale, false)?;
        print_report(&untraced);
        let first = one_run(workload, 1, scale, true)?;
        let second = one_run(workload, 1, scale, true)?;
        print_report(&first);
        for ((name, unit, a), (_, _, b)) in first.metrics.iter().zip(&second.metrics) {
            if matches!(*unit, "count" | "bytes") && a != b {
                eprintln!("{}: count metric {name} did not repeat: {a} then {b}", workload.name());
                all_correct = false;
            }
        }
        all_correct &= untraced.correct() && first.correct() && second.correct();
    }
    Ok(all_correct)
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let runs = parsed::<u64>(args, "--runs")?;
    let seconds = parsed::<f64>(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }

    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
            return Err("--compare takes two set files".to_string());
        };
        let read = |path: &String| {
            std::fs::read_to_string(path)
                .and_then(|text| compare::set_from_json(&text))
                .map_err(|e| format!("{path}: {e}"))
        };
        let bounds = compare::repo_bounds().map_err(|e| format!("BENCHMARK.json: {e}"))?;
        return Ok(compare::compare(&read(a)?, &read(b)?, &bounds) == 0);
    }
    if let Some(out) = arg_value(args, "--collect") {
        let sets =
            compare::collect(&names, runs.unwrap_or(10), seconds, 1).map_err(|e| e.to_string())?;
        std::fs::write(out, compare::set_to_json(&sets[0])).map_err(|e| format!("{out}: {e}"))?;
        return Ok(true);
    }
    if args.iter().any(|a| a == "--selfcheck") {
        let runs = runs.unwrap_or(5);
        if runs < 5 {
            return Err("--selfcheck needs at least 5 runs per set".to_string());
        }
        let sets = compare::collect(&names, runs, seconds, 2).map_err(|e| e.to_string())?;
        let bounds = compare::repo_bounds().map_err(|e| format!("BENCHMARK.json: {e}"))?;
        return Ok(compare::compare(&sets[0], &sets[1], &bounds) == 0);
    }

    let name = arg_value(args, "--workload")
        .ok_or("missing --workload (or --smoke, --collect, --compare, --selfcheck)")?;
    let workload = Workload::from_name(name)
        .ok_or_else(|| format!("unknown workload {name:?} (expected one of {names:?})"))?;
    let seed = parsed::<u64>(args, "--seed")?.unwrap_or(1);
    let trace = match arg_value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value {other:?} for --trace (expected 0 or 1)")),
    };
    let report = one_run(workload, seed, Scale { seconds, shrink: 1, setups: SETUPS }, trace)?;
    print_report(&report);
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_ledger: {message}");
            ExitCode::from(2)
        }
    }
}
