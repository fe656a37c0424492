//! Sets of runs: collecting them, comparing two of them metric by metric
//! against the bounds in `BENCHMARK.json`, and the self-check that two sets
//! of one build agree.

use crate::stats::{median, quartiles, spread};
use serde::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};

/// `workload → metric → one value per run`.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The bounded (end-to-end) metrics of a `BENCHMARK.json` document.
pub fn bounds_from(benchmark_json: &str) -> io::Result<BTreeMap<String, Bound>> {
    let doc: Value = serde_json::from_str(benchmark_json)?;
    let metrics =
        doc.field("end_to_end").and_then(Value::as_array).map_err(|e| invalid(e.to_string()))?;
    metrics
        .iter()
        .map(|metric| {
            let text = |key: &str| metric.field(key).and_then(Value::as_str);
            let entry = (|| {
                Ok::<_, serde::Error>((
                    text("name")?.to_string(),
                    Bound {
                        higher_is_better: text("better")? == "higher",
                        bound: metric.field("bound")?.as_f64()?,
                    },
                ))
            })();
            entry.map_err(|e| invalid(format!("BENCHMARK.json end_to_end entry: {e}")))
        })
        .collect()
}

/// The bounds of the `BENCHMARK.json` at the repository root.
pub fn repo_bounds() -> io::Result<BTreeMap<String, Bound>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    bounds_from(&std::fs::read_to_string(path)?)
}

/// Add the metrics of one result line (the last stdout line of a run).
pub fn add_result(set: &mut RunSet, workload: &str, result_line: &str) -> io::Result<()> {
    let doc: Value = serde_json::from_str(result_line)?;
    let metrics = match doc.get("metrics") {
        Some(Value::Object(entries)) => entries,
        _ => return Err(invalid(format!("no metrics in {result_line}"))),
    };
    for (name, metric) in metrics {
        let value =
            metric.field("value").and_then(Value::as_f64).map_err(|e| invalid(e.to_string()))?;
        set.entry(workload.to_string()).or_default().entry(name.clone()).or_default().push(value);
    }
    Ok(())
}

pub fn set_to_json(set: &RunSet) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|(workload, metrics)| {
            let metrics: Vec<String> = metrics
                .iter()
                .map(|(name, values)| {
                    let values: Vec<String> = values.iter().map(f64::to_string).collect();
                    format!("    \"{name}\": [{}]", values.join(", "))
                })
                .collect();
            format!("  \"{workload}\": {{\n{}\n  }}", metrics.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", workloads.join(",\n"))
}

pub fn set_from_json(text: &str) -> io::Result<RunSet> {
    let doc: Value = serde_json::from_str(text)?;
    let Value::Object(workloads) = doc else {
        return Err(invalid("a run set is an object".into()));
    };
    let mut set = RunSet::new();
    for (workload, metrics) in workloads {
        let Value::Object(metrics) = metrics else {
            return Err(invalid(format!("{workload}: expected an object of metrics")));
        };
        for (name, values) in metrics {
            let values: Vec<f64> = serde::Deserialize::from_value(&values)
                .map_err(|e| invalid(format!("{workload}.{name}: {e}")))?;
            set.entry(workload.clone()).or_default().insert(name, values);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    /// The run-to-run spread of either set is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate values `b` against baseline values `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> Verdict {
    if spread(a) > bound.bound || spread(b) > bound.bound {
        return Verdict::Unresolved;
    }
    let (base, candidate) = (median(a), median(b));
    let gain = (candidate - base) / base.abs() * if bound.higher_is_better { 1.0 } else { -1.0 };
    if gain < -bound.bound {
        Verdict::Regressed
    } else if gain > bound.bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// Print the comparison table; returns how many bounded metrics did not
/// come out `within` or `improved`.
pub fn compare(a: &RunSet, b: &RunSet, bounds: &BTreeMap<String, Bound>) -> usize {
    let mut disagreements = 0;
    println!(
        "{:<15} {:<34} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "diff",
        "bound"
    );
    for (workload, metrics) in a {
        for (name, va) in metrics {
            let Some(vb) = b.get(workload).and_then(|m| m.get(name)) else { continue };
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            let ((a1, a3), (b1, b3)) = (quartiles(va), quartiles(vb));
            let (ma, mb) = (median(va), median(vb));
            let diff = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let (bound, verdict) = match bounds.get(name) {
                Some(&bound) => {
                    let verdict = judge(va, vb, bound);
                    disagreements +=
                        usize::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
                    (format!("{:.1}%", bound.bound * 100.0), verdict.label())
                }
                None => ("-".to_string(), "-"),
            };
            println!(
                "{workload:<15} {name:<34} {a1:>12.5} {ma:>12.5} {a3:>12.5} {b1:>12.5} {mb:>12.5} {b3:>12.5} {:>6.1}% {bound:>7}  {verdict}",
                diff * 100.0
            );
        }
    }
    disagreements
}

/// Run this executable once as a child, the way the driver does, and return
/// the last line of its standard output.
fn run_child(workload: &str, seed: u64, seconds: f64) -> io::Result<String> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "{workload} seed {seed} exited with {}: {last}",
            output.status
        )));
    }
    Ok(last)
}

/// Run every workload `runs` times, untraced, into each of `sets` run sets,
/// the sets interleaved run by run, seeds `1..=runs`.
pub fn collect(
    workloads: &[&str],
    runs: u64,
    seconds: f64,
    sets: usize,
) -> io::Result<Vec<RunSet>> {
    let mut out = vec![RunSet::new(); sets];
    for workload in workloads {
        for seed in 1..=runs {
            for set in &mut out {
                let line = run_child(workload, seed, seconds)?;
                eprintln!("{workload} seed {seed}: {line}");
                add_result(set, workload, &line)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Bound = Bound { higher_is_better: false, bound: 0.10 };
    const HIGHER_10: Bound = Bound { higher_is_better: true, bound: 0.10 };

    fn around(center: f64) -> Vec<f64> {
        (0..10).map(|i| center * (1.0 + (i as f64 - 4.5) * 0.004)).collect()
    }

    #[test]
    fn judge_follows_the_metric_direction() {
        assert_eq!(judge(&around(100.0), &around(103.0), LOWER_10), Verdict::Within);
        assert_eq!(judge(&around(100.0), &around(115.0), LOWER_10), Verdict::Regressed);
        assert_eq!(judge(&around(100.0), &around(85.0), LOWER_10), Verdict::Improved);
        assert_eq!(judge(&around(100.0), &around(115.0), HIGHER_10), Verdict::Improved);
        assert_eq!(judge(&around(100.0), &around(85.0), HIGHER_10), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 5.0 * i as f64).collect();
        assert!(spread(&noisy) > 0.10);
        assert_eq!(judge(&noisy, &around(200.0), LOWER_10), Verdict::Unresolved);
        assert_eq!(judge(&around(100.0), &noisy, HIGHER_10), Verdict::Unresolved);
    }

    #[test]
    fn result_lines_round_trip_through_a_set_file() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "docs_per_s": {"value": 1200.5, "unit": "1/s"}}}"#;
        let mut set = RunSet::new();
        add_result(&mut set, "wire_notify", line).unwrap();
        add_result(&mut set, "wire_notify", line).unwrap();
        assert_eq!(set["wire_notify"]["docs_per_s"], vec![1200.5, 1200.5]);
        assert_eq!(set_from_json(&set_to_json(&set)).unwrap(), set);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let bounds = bounds_from(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "docs_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}]}"#,
        )
        .unwrap();
        assert_eq!(bounds["setup_s"], Bound { higher_is_better: false, bound: 0.25 });
        assert_eq!(bounds["docs_per_s"], Bound { higher_is_better: true, bound: 0.15 });
        assert_eq!(compare(&RunSet::new(), &RunSet::new(), &bounds), 0);
    }
}
