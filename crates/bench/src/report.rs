//! Result tables and file emission.
//!
//! Every binary prints a markdown table mirroring the paper's figure series
//! and drops machine-readable CSV/JSON next to it under `results/`.

use crate::runner::RunResult;
use std::fmt::Write as _;
use std::path::Path;

/// A simple column-oriented table: one row per sweep point, one column per
/// algorithm.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub row_label: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<f64>)>,
    pub unit: String,
}

impl Table {
    pub fn new(title: &str, row_label: &str, columns: &[&str], unit: &str) -> Self {
        Table {
            title: title.to_string(),
            row_label: row_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            unit: unit.to_string(),
        }
    }

    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((label.into(), values));
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} ({})\n", self.title, self.unit);
        let _ = write!(out, "| {} |", self.row_label);
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "| {label} |");
            for v in vals {
                let _ = write!(out, " {} |", format_sig(*v));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.row_label);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "{label}");
            for v in vals {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Format with ~4 significant digits, keeping small values readable.
pub fn format_sig(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Write CSV to `results/<name>.csv` (directory created if needed).
pub fn write_csv(name: &str, table: &Table) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Write full run results as JSON to `results/<name>.json`.
pub fn write_json(name: &str, results: &[RunResult]) -> std::io::Result<std::path::PathBuf> {
    write_json_report(name, &results)
}

/// Write any serializable report as JSON to `results/<name>.json` —
/// the machine-readable side channel every bench binary emits so CI can
/// archive throughput numbers as build artifacts.
pub fn write_json_report<T: serde::Serialize>(
    name: &str,
    report: &T,
) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(report)?)?;
    Ok(path)
}

/// Schema version of the `sweep_shards` report format.
///
/// * **v8** (current): v7 without the report's `window` and the cells'
///   `batching` axis — a cell's `batch` is the size of each publish, and a
///   publish is never chunked or pipelined.
/// * **v7**: v6 without the `mode` axis — the query population is the only
///   thing the monitor shards.
/// * **v6**: v5 without the doc-mode walk's per-cell skip counters and the
///   report-level pruning policy — document mode has a single, exhaustive
///   walk.
/// * **v5**: cells carry a `batching` axis (`"fixed"` /
///   `"adaptive"`) — `--adaptive` sweeps an AIMD-chunked ingestion cell
///   next to the fixed-window ones (`batch` is 0 for adaptive cells: the
///   controller, not the flag, chooses the chunk).
/// * **v4**: cells carry a `storage` axis (`"plain"` /
///   `"compressed"` / `"paged"`) plus the memory-footprint counters
///   `index_bytes` and `bytes_per_query`; the report records the swept
///   `storage_modes` and the pager budget.
/// * **v3**: cells carry a `queries` axis (the sweep runs at
///   several query populations) plus the doc-mode walk's skip counters;
///   the single-threaded reference becomes per-population (`singles`).
/// * **v2**: `schema_version` tag; cells carry a `mode` axis (`"query"` /
///   `"doc"`) alongside `shards × batch`; one query population
///   (`num_queries`) and one `single_docs_per_sec` per report.
/// * **v1**: untagged (no `schema_version` field), query mode only.
///
/// The writer refuses to overwrite a report tagged with a version it does
/// not recognize (see [`existing_report_schema`]), so a future format never
/// gets silently clobbered by an old binary. The `compare_reports` gate
/// reads only the current version.
pub const SWEEP_SHARDS_SCHEMA_VERSION: u32 = 8;

/// The `schema_version` of an existing `results/<name>.json` report:
/// `None` when the file does not exist, `Some(1)` for pre-versioned
/// (untagged) reports, `Some(v)` for tagged ones. Writers compare this
/// against the versions they understand before overwriting.
pub fn existing_report_schema(name: &str) -> std::io::Result<Option<u32>> {
    let path = Path::new("results").join(format!("{name}.json"));
    let contents = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    #[derive(serde::Deserialize)]
    struct Probe {
        schema_version: u32,
    }
    // Untagged (or unparseable) files predate versioning: treat as v1.
    Ok(Some(serde_json::from_str::<Probe>(&contents).map(|p| p.schema_version).unwrap_or(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("Fig 1(a)", "queries", &["RTA", "MRIO"], "ms");
        t.push_row("25000", vec![1.5, 0.1]);
        t.push_row("50000", vec![3.2, 0.22]);
        let md = t.to_markdown();
        assert!(md.contains("| queries | RTA | MRIO |"));
        assert!(md.contains("| 25000 |"));
        let csv = t.to_csv();
        assert!(csv.starts_with("queries,RTA,MRIO\n"));
        assert!(csv.contains("50000,3.2,0.22"));
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(format_sig(1234.5), "1234"); // round-half-even
        assert_eq!(format_sig(12.34), "12.3");
        assert_eq!(format_sig(0.5), "0.500");
        assert_eq!(format_sig(0.01234), "0.01234");
    }

    #[test]
    #[should_panic]
    fn row_arity_checked() {
        let mut t = Table::new("x", "r", &["a", "b"], "ms");
        t.push_row("1", vec![1.0]);
    }

    #[test]
    fn report_schema_probe_reads_tagged_untagged_and_absent() {
        assert_eq!(existing_report_schema("no_such_report_ever").unwrap(), None);

        let dir = Path::new("results");
        std::fs::create_dir_all(dir).unwrap();
        let name = "schema_probe_test";
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, r#"{"cells": []}"#).unwrap();
        assert_eq!(existing_report_schema(name).unwrap(), Some(1), "untagged reads as v1");
        std::fs::write(&path, r#"{"schema_version": 7, "cells": []}"#).unwrap();
        assert_eq!(existing_report_schema(name).unwrap(), Some(7));
        std::fs::remove_file(&path).unwrap();
    }
}
