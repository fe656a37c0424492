//! One invocation: set a workload up, measure it, check it against the
//! oracle, and turn what was recorded into the named metrics of
//! `BENCHMARK.json` — the end-to-end ones from an untraced run, the
//! per-layer ones from a `--trace 1` run.

use crate::affinity::OneCpu;
use crate::daemon;
use crate::engine::{self, Phase};
use crate::layers::{self, Chain, HostProbe, WIRE_STAGES};
use crate::plan::{Plan, Scale, Workload, SLICES};
use crate::stats::{median, percentile, quiet_latency, quiet_rate, slice_rates, sorted};
use crate::trace::{self, Tracer};
use crate::wire;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name and unit of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("quiet_docs_per_s", "1/s"),
    ("quiet_publish_p50_ms", "ms"),
    ("quiet_notify_p50_ms", "ms"),
    ("index_bytes_per_query", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Name and unit of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("docs_per_s", "1/s"),
    ("publish_p50_ms", "ms"),
    ("notify_p50_ms", "ms"),
    ("register_p50_us", "us"),
    ("server.http.parse_us", "us"),
    ("server.http.write_us", "us"),
    ("server.http.request_bytes_per_doc", "bytes"),
    ("server.http.response_bytes_per_doc", "bytes"),
    ("server.wire.decode_us", "us"),
    ("server.wire.encode_us", "us"),
    ("server.journal.append_sync_us", "us"),
    ("server.journal.append_nosync_us", "us"),
    ("server.journal.bytes_per_doc", "bytes"),
    ("server.subscribers.fanout_us", "us"),
    ("server.subscribers.events_per_doc", "count"),
    ("server.subscribers.dropped_share", "share"),
    ("server.transport.residual_us", "us"),
    ("core.publish_us", "us"),
    ("core.iterations_per_doc", "count"),
    ("core.full_evaluations_per_doc", "count"),
    ("core.postings_accessed_per_doc", "count"),
    ("core.bound_computations_per_doc", "count"),
    ("core.matched_lists_per_doc", "count"),
    ("core.updates_per_doc", "count"),
    ("core.useful_eval_share", "share"),
    ("core.register_us", "us"),
    ("core.unregister_us", "us"),
    ("core.expired_per_round", "count"),
    ("core.evicted_per_round", "count"),
    ("core.snapshot_ms", "ms"),
    ("core.snapshot_bytes_per_query", "bytes"),
    ("index.register_us", "us"),
    ("index.unregister_us", "us"),
    ("index.compact_ms", "ms"),
    ("index.tombstone_ratio", "share"),
    ("index.heap_bytes_per_query", "bytes"),
    ("storage.push_ns", "ns"),
    ("storage.scan_ns_per_posting", "ns"),
    ("storage.seek_ns", "ns"),
    ("storage.bytes_per_posting", "bytes"),
    ("storage.page_faults", "count"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.publish_p95_ms", "ms"),
    ("client.publish_max_ms", "ms"),
    ("client.samples", "count"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// The result of one invocation, as the last stdout line reports it.
pub struct Report {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed above the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything one set-up-and-measure pass of a workload recorded.
struct Pass {
    plan: Plan,
    /// Seconds of each set-up, the measured one last.
    setups_s: Vec<f64>,
    /// Microseconds of each set-up registration call, all set-ups pooled.
    setup_register_us: Vec<f64>,
    phase: Phase,
    index_bytes_per_query: f64,
    peak_rss_mb: f64,
    /// Sampled queries whose final top-k differs from the oracle's.
    mismatches: u64,
    /// The CPU a `one_cpu` workload was confined to.
    cpu: Option<usize>,
}

impl Pass {
    fn docs_per_s(&self) -> f64 {
        self.plan.measured_docs() as f64 / self.phase.wall_s
    }

    fn publish_p50_ms(&self) -> f64 {
        median(&self.phase.publish_ms)
    }

    fn notify_p50_ms(&self) -> f64 {
        median(&self.phase.notify_ms.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }

    /// Median time of one registration call as the workload issues it:
    /// inside the measured phase on `churn_mixed`, in set-up elsewhere.
    fn register_p50_us(&self) -> f64 {
        if self.phase.register_us.is_empty() {
            median(&self.setup_register_us)
        } else {
            median(&self.phase.register_us)
        }
    }

    fn attempted(&self) -> u64 {
        self.phase.attempted + self.plan.oracle_slots().len() as u64
    }

    fn failed(&self) -> u64 {
        self.phase.failed + self.mismatches
    }
}

/// A journal directory of this process under the scratch directory.
fn journal_dir(scratch: &Path, name: &str) -> PathBuf {
    scratch.join(format!("{name}-{}", std::process::id()))
}

/// A workload after set-up, ready for its first measured operation.
enum Ready {
    Wire(wire::Wired),
    Embedded(engine::Live, Vec<engine::Call>),
}

/// Set the workload up `scale.setups` times — generation, daemon spawn and
/// `/readyz`, registration, warm-up: everything between workload start and
/// the first measured operation — then measure once on the last set-up and
/// compare the sampled queries with the oracle.
fn pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    tracer: &mut Tracer,
    binary: &Path,
    scratch: &Path,
) -> io::Result<Pass> {
    // Held to the end of the pass: the daemon and the client threads are
    // started below and inherit the mask.
    let pinned = workload.shape().one_cpu.then(OneCpu::pin);
    let cpu = pinned.as_ref().and_then(|pin| pin.cpu);
    let mut setups_s = Vec::with_capacity(scale.setups);
    let mut setup_register_us = Vec::new();
    let (plan, ready) = loop {
        let start = Instant::now();
        let plan = Plan::generate(workload, seed, scale);
        let ready = if workload.over_the_wire() {
            Ready::Wire(wire::setup(&plan, binary, journal_dir(scratch, workload.name()))?)
        } else {
            let (live, calls) = engine::prepare(&plan, tracer, None).map_err(io::Error::other)?;
            Ready::Embedded(live, calls)
        };
        setups_s.push(start.elapsed().as_secs_f64());
        setup_register_us.extend_from_slice(match &ready {
            Ready::Wire(wired) => &wired.register_us,
            Ready::Embedded(live, _) => &live.register_us,
        });
        if setups_s.len() >= scale.setups {
            break (plan, ready);
        }
    };
    match ready {
        Ready::Wire(wired) => {
            let observed = wire::run_calls(&plan, wired, tracer)?;
            let expected = engine::oracle_results(&plan, &observed.order);
            Ok(Pass {
                mismatches: engine::oracle_mismatches(&expected, &observed.results),
                plan,
                setups_s,
                setup_register_us,
                phase: observed.phase,
                index_bytes_per_query: observed.index_bytes_per_query,
                peak_rss_mb: observed.peak_rss_mb,
                cpu,
            })
        }
        Ready::Embedded(mut live, calls) => {
            let phase = engine::measure(&mut live, calls, tracer, None);
            // Read before the oracle replay allocates anything.
            let peak_rss_mb = daemon::peak_rss_mb("/proc/self/status")?;
            let index_bytes = live.backend.storage_stats().index_bytes as f64;
            let order: Vec<usize> = (0..plan.measured.len()).collect();
            let expected = engine::oracle_results(&plan, &order);
            let observed = engine::sampled_results(&plan, &live);
            Ok(Pass {
                mismatches: engine::oracle_mismatches(&expected, &observed),
                index_bytes_per_query: index_bytes / live.backend.num_queries() as f64,
                setup_register_us,
                plan,
                setups_s,
                phase,
                peak_rss_mb,
                cpu,
            })
        }
    }
}

fn notes_for(pass: &Pass, seed: u64, label: &str) -> Vec<String> {
    let plan = &pass.plan;
    let publish = sorted(pass.phase.publish_ms.clone());
    let per_slice = plan.measured_docs() as f64 / SLICES as f64;
    let rates = sorted(slice_rates(&pass.phase.marks, per_slice));
    vec![
        format!(
            "{} seed {seed} ({label}{}): {} queries, {} measured calls x {} docs in {:.3} s, {} set-ups {:?} s",
            plan.workload.name(),
            match (plan.shape.one_cpu, pass.cpu) {
                (false, _) => String::new(),
                (true, Some(cpu)) => format!(", on CPU {cpu}"),
                (true, None) => ", NOT pinned: the kernel refused the mask".to_string(),
            },
            plan.queries.len(),
            plan.measured.len(),
            plan.shape.batch,
            pass.phase.wall_s,
            pass.setups_s.len(),
            pass.setups_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        ),
        format!(
            "publish ms p50 {:.4} p95 {:.4} max {:.4} over {} calls; notify samples {}; register samples {}",
            percentile(&publish, 0.5),
            percentile(&publish, 0.95),
            percentile(&publish, 1.0),
            publish.len(),
            pass.phase.notify_ms.len(),
            pass.phase.register_us.len().max(pass.setup_register_us.len()),
        ),
        format!(
            "slice docs/s min {:.1} p10 {:.1} p50 {:.1} p90 {:.1} max {:.1}",
            rates[0],
            percentile(&rates, 0.1),
            percentile(&rates, 0.5),
            percentile(&rates, 0.9),
            rates[rates.len() - 1],
        ),
        format!(
            "oracle: {} of {} sampled queries differ; {} of {} operations failed",
            pass.mismatches,
            plan.oracle_slots().len(),
            pass.phase.failed,
            pass.phase.attempted,
        ),
    ]
}

/// `--trace 0`: the end-to-end metrics of one untraced run.
pub fn end_to_end(workload: Workload, seed: u64, scale: Scale) -> io::Result<Report> {
    let binary = daemon::build_daemon()?;
    let scratch = daemon::scratch_dir()?;
    let pass = pass(workload, seed, scale, &mut Tracer::new(false), &binary, &scratch)?;
    if pass.phase.notify_ms.is_empty() {
        return Err(io::Error::other("no measured document changed any result"));
    }
    let calls = pass.plan.measured.len();
    let publish: Vec<(usize, f64)> = pass.phase.publish_ms.iter().copied().enumerate().collect();
    let values = [
        median(&pass.setups_s),
        quiet_rate(&pass.phase.marks, pass.plan.measured_docs() as f64 / SLICES as f64),
        quiet_latency(&publish, calls, SLICES),
        quiet_latency(&pass.phase.notify_ms, calls, SLICES),
        pass.index_bytes_per_query,
        pass.peak_rss_mb,
    ];
    Ok(Report {
        workload,
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics: END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect(),
        notes: notes_for(&pass, seed, "untraced"),
    })
}

/// `--trace 1`: the per-layer metrics. Three passes over the same seeded
/// inputs at half length: the workload untraced, the workload with spans
/// around the benchmark's calls, and the staged replay in which every
/// publish crosses each layer's public functions inside its own span.
pub fn traced(workload: Workload, seed: u64, scale: Scale) -> io::Result<Report> {
    let binary = daemon::build_daemon()?;
    let scratch = daemon::scratch_dir()?;
    let half = Scale { seconds: scale.seconds / 2.0, setups: 1, ..scale };
    let probe = HostProbe::new();
    let mut probes = vec![probe.run()];

    let untraced = pass(workload, seed, half, &mut Tracer::new(false), &binary, &scratch)?;
    probes.push(probe.run());
    let mut tracer = Tracer::new(true);
    let with_spans = pass(workload, seed, half, &mut tracer, &binary, &scratch)?;
    probes.push(probe.run());

    let plan = &with_spans.plan;
    let chain_dir = journal_dir(&scratch, "chain");
    let mut chain = Chain::open(&chain_dir)?;
    let mut staged = Tracer::new(true);
    let (mut live, calls) =
        engine::prepare(plan, &mut staged, Some(&mut chain)).map_err(io::Error::other)?;
    chain.start_counting();
    let phase = engine::measure(&mut live, calls, &mut staged, Some(&mut chain));
    let (snapshot_ms, snapshot_bytes) =
        layers::lifecycle_probe(plan, live.backend.as_mut(), &mut live.ids, &mut staged);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    layers::index_probe(plan, &mut staged, &mut m);
    layers::storage_probe(plan, &mut staged, &mut m);
    probes.push(probe.run());
    let journal_bytes = chain.journal_bytes();
    let _ = std::fs::remove_dir_all(&chain_dir);

    let span_us = |name: &str| median(&staged.durations_us(name));
    let docs = plan.measured_docs() as f64;
    let stats = &phase.stats;
    let crossed: &[&str] = if workload.over_the_wire() { &WIRE_STAGES } else { &["core.publish"] };
    // The staged replay journals every publish both ways; the daemon did one.
    let journal = if plan.shape.fsync {
        "server.journal.append_sync"
    } else {
        "server.journal.append_nosync"
    };
    let explained: f64 = crossed
        .iter()
        .map(|&stage| span_us(if stage == "server.journal.append" { journal } else { stage }))
        .sum();
    let publish = sorted(untraced.phase.publish_ms.clone());

    m.insert("docs_per_s", untraced.docs_per_s());
    m.insert("publish_p50_ms", untraced.publish_p50_ms());
    m.insert("notify_p50_ms", untraced.notify_p50_ms());
    m.insert("register_p50_us", untraced.register_p50_us());
    m.insert("server.http.parse_us", span_us("server.http.parse"));
    m.insert("server.http.write_us", span_us("server.http.write"));
    m.insert("server.http.request_bytes_per_doc", chain.request_bytes as f64 / chain.docs as f64);
    m.insert("server.http.response_bytes_per_doc", chain.response_bytes as f64 / chain.docs as f64);
    m.insert("server.wire.decode_us", span_us("server.wire.decode"));
    m.insert("server.wire.encode_us", span_us("server.wire.encode"));
    m.insert("server.journal.append_sync_us", span_us("server.journal.append_sync"));
    m.insert("server.journal.append_nosync_us", span_us("server.journal.append_nosync"));
    m.insert("server.journal.bytes_per_doc", journal_bytes as f64 / chain.docs as f64);
    m.insert("server.subscribers.fanout_us", span_us("server.subscribers.fanout"));
    m.insert("server.subscribers.events_per_doc", chain.events as f64 / chain.docs as f64);
    m.insert("server.subscribers.dropped_share", chain.dropped_share());
    m.insert("server.transport.residual_us", untraced.publish_p50_ms() * 1e3 - explained);
    m.insert("core.publish_us", span_us("core.publish"));
    m.insert("core.iterations_per_doc", stats.iterations as f64 / docs);
    m.insert("core.full_evaluations_per_doc", stats.full_evaluations as f64 / docs);
    m.insert("core.postings_accessed_per_doc", stats.postings_accessed as f64 / docs);
    m.insert("core.bound_computations_per_doc", stats.bound_computations as f64 / docs);
    m.insert("core.matched_lists_per_doc", stats.matched_lists as f64 / docs);
    m.insert("core.updates_per_doc", stats.updates as f64 / docs);
    m.insert("core.useful_eval_share", stats.updates as f64 / stats.full_evaluations.max(1) as f64);
    m.insert("core.register_us", span_us("core.register"));
    m.insert("core.unregister_us", span_us("core.unregister"));
    m.insert("core.expired_per_round", stats.expired as f64 / plan.measured.len() as f64);
    m.insert("core.evicted_per_round", stats.evicted as f64 / plan.measured.len() as f64);
    m.insert("core.snapshot_ms", snapshot_ms);
    m.insert(
        "core.snapshot_bytes_per_query",
        snapshot_bytes as f64 / live.backend.num_queries() as f64,
    );
    m.insert("storage.page_faults", live.backend.storage_stats().page_faults as f64);
    m.insert("client.encode_us", span_us("client.encode"));
    m.insert("client.decode_us", span_us("client.decode"));
    m.insert("client.publish_p95_ms", percentile(&publish, 0.95));
    m.insert("client.publish_max_ms", percentile(&publish, 1.0));
    m.insert("client.samples", publish.len() as f64);
    m.insert("host.probe_ms", median(&probes));
    m.insert("trace.overhead_share", 1.0 - with_spans.docs_per_s() / untraced.docs_per_s());

    let mut notes = notes_for(&untraced, seed, "untraced, half length");
    notes.extend(notes_for(&with_spans, seed, "spans around the benchmark's calls"));
    tracer.absorb(staged);
    // Self times must account for the root spans: anything else means a
    // span escaped its parent and the per-layer numbers cannot be trusted.
    let coverage = trace::self_time_coverage(tracer.spans());
    notes.push(format!("self times sum to {coverage:.4} of the root spans"));
    for (name, ns) in trace::self_time_by_name(tracer.spans()) {
        notes.push(format!("self time {name}: {:.3} ms", ns as f64 / 1e6));
    }
    let path = scratch.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, tracer.to_json())?;
    notes.push(format!("{} spans written to {}", tracer.spans().len(), path.display()));

    let staged_failed = phase.failed + u64::from((coverage - 1.0).abs() > 0.05);
    Ok(Report {
        workload,
        attempted: untraced.attempted() + with_spans.attempted() + phase.attempted,
        failed: untraced.failed() + with_spans.failed() + staged_failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, *m.get(name).expect("every per-layer metric is set")))
            .collect(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` is the contract the driver reads; the tables above
    /// are what a run prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_what_a_run_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |section: &str, key: &str| -> Vec<String> {
            let entries = doc.field(section).unwrap().as_array().unwrap();
            entries.iter().map(|e| e.field(key).unwrap().as_str().unwrap().to_string()).collect()
        };
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
            let units: Vec<&str> = table.iter().map(|&(_, unit)| unit).collect();
            assert_eq!(listed(section, "name"), names, "{section} names");
            assert_eq!(listed(section, "unit"), units, "{section} units");
        }
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
        assert_eq!(doc.field("run_seconds").unwrap().as_f64().unwrap(), crate::RUN_SECONDS);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let report = Report {
            workload: Workload::WireNotify,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.8127), ("docs_per_s", "1/s", 1200.0)],
            notes: Vec::new(),
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let doc: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(entries) = &doc else { panic!("not an object: {line}") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(doc.field("correct").unwrap().as_bool().unwrap());
        let setup = doc.field("metrics").unwrap().field("setup_s").unwrap();
        assert_eq!(setup.field("value").unwrap().as_f64().unwrap(), 0.8127);
        assert_eq!(setup.field("unit").unwrap().as_str().unwrap(), "s");
    }
}
