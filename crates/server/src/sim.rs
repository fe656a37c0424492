//! A seeded simulator of the daemon: one generated op sequence drives a
//! journaled [`Node`] — MRIO over plain or compressed postings — and,
//! beside it, a journal-less `Naive` node, the oracle. After every step
//! both replies must agree (ids, counts, doc ids, changes as a set) and
//! every result set must match bit for bit.
//!
//! The ops are register (one query, or a bulk of ~200 that makes lists
//! seal several 64-posting blocks), publishes of 1–8 wire-framed documents
//! whose weights come from a small set (so equal and ulp-close scores
//! occur), unregister, retention, the forget dry run and the confirmed
//! forget, stats, snapshot, restore of an earlier capture, and a **crash**:
//! the node's journal directory is copied, the newest segment of the copy
//! is torn at a generated byte, and a node of the other storage backend
//! recovers from it. The oracle is then rebuilt from its
//! own capture at the last checkpoint plus the journaled ops that survived
//! the tear, each register getting the id it was journaled with. After
//! every crash and every restore, each id handed out must still name the
//! query it was handed out for, on both sides, or answer 404.
//!
//! A failing case shrinks to a minimal op sequence and prints the
//! `PROPTEST_REPLAY=<seed>:<case>` line that reruns exactly that case:
//!
//! ```text
//! PROPTEST_REPLAY=<seed>:<case> cargo test --release -p ctk-server --lib sim
//! ```

use crate::journal::{publish_body_payload, FsyncPolicy, Journal, JournalConfig};
use crate::node::{Node, Op, Reply, ServerStats};
use crate::subscribers::SubscriberRegistry;
use crate::wire::decode_publish;
use continuous_topk::index::PostingsStorage;
use continuous_topk::{EngineKind, MonitorBuilder};
use ctk_common::{QueryId, QuerySpec, TermId};
use ctk_core::{EvictionPolicy, ReplayCommand, RetentionPolicy, Snapshot};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Term weights, as the wire spells them: repeats of one small set make
/// equal scores, and 0.3 beside its f32 successor near-equal ones.
const WEIGHTS: [&str; 4] = ["1", "0.5", "0.3", "0.30000004"];
/// Registers and retention use the first three; bulk registers go to
/// "bulk", which only a forget or an unregister thins; "nobody" stays
/// empty.
const NAMESPACES: [&str; 5] = ["", "alerts", "feed", "bulk", "nobody"];
/// Node shapes: one per storage backend (see [`Sim::shape`]).
const SHAPES: usize = PostingsStorage::ALL.len();
/// Bulk registers stop once this many ids were handed out.
const BULK_LIMIT: u32 = 400;

/// A well-mixed 64-bit value from two small ones (SplitMix64's finalizer).
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn weight(i: u64) -> f32 {
    WEIGHTS[i as usize % WEIGHTS.len()].parse().unwrap()
}

/// What one CI run of the simulator covered, summed over its cases.
#[derive(Debug, Default)]
struct Tally {
    /// Ops applied, by node shape (see [`Sim::shape`]).
    steps: [u64; SHAPES],
    crashes: u64,
    /// Sealed blocks the walk decoded, by node shape.
    blocks_decoded: [u64; SHAPES],
}

static TALLY: Mutex<Tally> =
    Mutex::new(Tally { steps: [0; SHAPES], crashes: 0, blocks_decoded: [0; SHAPES] });

/// One simulated daemon and its oracle.
struct Sim {
    lambda: f64,
    compact_at: f64,
    /// The node's shape: its storage backend, `PostingsStorage::ALL[shape]`.
    shape: usize,
    /// The node's journal directory and the one a crash recovers into.
    dirs: [PathBuf; 2],
    node: Node,
    oracle: Node,
    /// The next query id both sides will assign.
    next_id: u32,
    /// The spec each id below `next_id` was handed out for.
    specs: Vec<QuerySpec>,
    clock: f64,
    /// The terms of the last published document, as the wire spells them.
    last_terms: String,
    /// Captures of both sides taken by the same snapshot op.
    captures: Vec<(Snapshot, Snapshot)>,
    /// The oracle's state at the node's last checkpoint, and every op the
    /// node journaled since, as the oracle applied it (registers with the
    /// id they were assigned).
    checkpoint: Option<Snapshot>,
    journaled: Vec<ReplayCommand>,
    tally: Tally,
}

/// The node under test: MRIO on the given shape's storage.
fn builder(lambda: f64, compact_at: f64, shape: usize) -> MonitorBuilder {
    MonitorBuilder::new(EngineKind::Mrio)
        .lambda(lambda)
        .compact_at(compact_at)
        .postings_storage(PostingsStorage::ALL[shape])
}

fn oracle(lambda: f64) -> Node {
    let builder = MonitorBuilder::new(EngineKind::Naive).lambda(lambda);
    Node::new(&builder, None, Arc::new(SubscriberRegistry::new(1)))
}

fn journal_config(dir: &Path) -> JournalConfig {
    JournalConfig::new(dir).fsync(FsyncPolicy::Never).max_segment_bytes(2048)
}

/// A register record; the node fills in the id it assigns.
fn register(terms: &[u32], weights: u64, k: usize, namespace: &str, max_age: Option<f64>) -> Op {
    let pairs = terms.iter().enumerate().map(|(i, &t)| (TermId(t), weight(weights >> (2 * i))));
    Op::Record(ReplayCommand::Register {
        assigned: QueryId(0),
        spec: QuerySpec::new(pairs.collect(), k).unwrap(),
        namespace: namespace.to_string(),
        max_age,
    })
}

/// The result set of `qid` on both sides, scores as bits.
fn results(reply: &Reply) -> Option<Vec<(u64, u64)>> {
    match reply {
        Reply::Results(r) => Some(r.iter().map(|s| (s.doc.0, s.score.get().to_bits())).collect()),
        _ => None,
    }
}

/// A capture restored onto a `Naive` monitor and written again: the form
/// in which captures of different engines and storage backends compare.
fn canonical(capture: &Snapshot) -> String {
    let single = MonitorBuilder::new(EngineKind::Naive).restore(capture);
    single.snapshot().to_json().unwrap()
}

/// The parts of `/stats` both sides must agree on.
fn lifecycle(stats: &ServerStats) -> String {
    format!("{} {} {} {:?}", stats.queries, stats.expired, stats.evicted, stats.namespaces)
}

/// Whether two replies to the same op agree.
fn agree(node: &Reply, oracle: &Reply) -> bool {
    match (node, oracle) {
        (Reply::Published { receipt: a, .. }, Reply::Published { receipt: b, .. }) => {
            let changes = |r: &ctk_core::PublishReceipt| {
                let mut c: Vec<String> = r.changes.iter().map(|c| format!("{c:?}")).collect();
                c.sort_unstable();
                c
            };
            let lifecycle = |r: &ctk_core::PublishReceipt| {
                r.stats.iter().map(|s| (s.updates, s.expired, s.evicted)).collect::<Vec<_>>()
            };
            a.doc_ids == b.doc_ids && changes(a) == changes(b) && lifecycle(a) == lifecycle(b)
        }
        (Reply::Results(_), Reply::Results(_)) => results(node) == results(oracle),
        (Reply::Stats(a), Reply::Stats(b)) => lifecycle(a) == lifecycle(b),
        (Reply::Registered(a), Reply::Registered(b)) => a == b,
        (Reply::Removed(a), Reply::Removed(b)) => a == b,
        (Reply::Retention(a), Reply::Retention(b)) => a == b,
        (Reply::Restored(a), Reply::Restored(b)) => a == b,
        (Reply::Done, Reply::Done) | (Reply::Unknown, Reply::Unknown) => true,
        (Reply::Rejected(a), Reply::Rejected(b)) => a == b,
        _ => false,
    }
}

impl Sim {
    fn new(start: usize, lambda: f64, compact_at: f64) -> Sim {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = |side: u8| {
            let name = format!("ctk-sim-{}-{case}-{side}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let _ = fs::remove_dir_all(&dir);
            dir
        };
        let dirs = [dir(0), dir(1)];
        let (journal, recovery) = Journal::open(journal_config(&dirs[0])).unwrap();
        assert!(recovery.is_empty());
        let builder = builder(lambda, compact_at, start);
        Sim {
            lambda,
            compact_at,
            shape: start,
            dirs,
            node: Node::new(&builder, Some(journal), Arc::new(SubscriberRegistry::new(1))),
            oracle: oracle(lambda),
            next_id: 0,
            specs: Vec::new(),
            clock: 0.0,
            last_terms: String::new(),
            captures: Vec::new(),
            checkpoint: None,
            journaled: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Apply one op to both sides; their replies must agree. Journaled
    /// mutations are remembered for rebuilding the oracle after a crash.
    fn apply(&mut self, node_op: Op, oracle_op: Op) -> Result<Reply, String> {
        let described = format!("{oracle_op:?}");
        let record = match &oracle_op {
            Op::Record(command) => Some(command.clone()),
            Op::Publish { request, .. } => {
                Some(ReplayCommand::Publish { docs: request.docs().to_vec() })
            }
            _ => None,
        };
        let (node, oracle) = (self.node.apply(node_op), self.oracle.apply(oracle_op));
        if let Reply::Refused(e) = &node {
            panic!("{described}: the journal refused it: {e}");
        }
        if !agree(&node, &oracle) {
            return Err(format!("{described}\n  node: {node:?}\n  oracle: {oracle:?}"));
        }
        match (record, &oracle) {
            (
                Some(ReplayCommand::Register { spec, namespace, max_age, .. }),
                Reply::Registered(q),
            ) => {
                if q.0 != self.next_id {
                    return Err(format!("{described}: registered as {q}, not q{}", self.next_id));
                }
                self.next_id = q.0 + 1;
                self.specs.push(spec.clone());
                self.journaled.push(ReplayCommand::Register {
                    assigned: *q,
                    spec,
                    namespace,
                    max_age,
                });
            }
            (Some(command), Reply::Removed(_) | Reply::Done | Reply::Published { .. }) => {
                self.journaled.push(command)
            }
            _ => {}
        }
        Ok(oracle)
    }

    /// The same op on both sides.
    fn both(&mut self, op: impl Fn() -> Op) -> Result<Reply, String> {
        self.apply(op(), op())
    }

    /// A publish of `1 + a % 8` documents over the terms 1..=4. Half the
    /// publishes are a burst: one vector, then copies of it one ulp of
    /// stream time apart. In the others each document repeats the one
    /// before with even odds, one ulp later, or is new. Once λ > 0 a copy
    /// outscores the original by an ulp or two: a near-tie that a rounded
    /// zone bound must not prune.
    fn publish(&mut self, a: u32, b: u64) -> Result<(), String> {
        let mut docs = Vec::new();
        for i in 0..1 + u64::from(a % 8) {
            let r = mix(u64::from(a) << 32 | i, b);
            let repeat = if b.is_multiple_of(2) { i > 0 } else { r.is_multiple_of(2) };
            if repeat && !self.last_terms.is_empty() {
                self.clock = self.clock.next_up();
            } else {
                self.clock += [0.0, 0.25, 1.0][(r >> 1) as usize % 3];
                let terms: Vec<String> = (0..1 + (r >> 3) % 3)
                    .map(|j| {
                        let weight = WEIGHTS[(r >> (20 + 2 * j)) as usize % WEIGHTS.len()];
                        format!("[{}, {weight}]", 1 + (r >> (5 + 3 * j)) % 4)
                    })
                    .collect();
                self.last_terms = terms.join(", ");
            }
            docs.push(format!(r#"{{"terms": [{}], "arrival": {}}}"#, self.last_terms, self.clock));
        }
        let body = format!(r#"{{"docs": [{}]}}"#, docs.join(", "));
        let request = || decode_publish(&body).unwrap();
        let record = Some(publish_body_payload(&body));
        self.apply(
            Op::Publish { request: request(), record },
            Op::Publish { request: request(), record: None },
        )?;
        Ok(())
    }

    /// 180 to 239 queries over two to four of the terms 1..=4: enough
    /// postings on those lists to seal several blocks.
    fn bulk_register(&mut self, a: u32, b: u64) -> Result<(), String> {
        for i in 0..180 + u64::from(a % 60) {
            let r = mix(b, i);
            let bits = (r % 16) | (3 << ((r >> 4) % 3));
            let terms: Vec<u32> = (1..=4).filter(|t| bits >> (t - 1) & 1 == 1).collect();
            self.both(|| register(&terms, r >> 8, 1 + (r >> 16) as usize % 2, "bulk", None))?;
        }
        Ok(())
    }

    /// Collect the node's storage counters before its backend goes away.
    fn count_storage(&mut self) {
        if let Reply::Stats(stats) = self.node.apply(Op::Stats) {
            self.tally.blocks_decoded[self.shape] += stats.blocks_decoded;
        }
    }

    /// Tear the newest segment of a copy of the journal at a byte drawn
    /// from `a` and `b`, recover a node of another shape from it, and
    /// rebuild the oracle from what survived.
    fn crash(&mut self, a: u32, b: u64) -> Result<(), String> {
        self.count_storage();
        self.tally.crashes += 1;
        let (from, to) = (self.dirs[0].clone(), self.dirs[1].clone());
        let _ = fs::remove_dir_all(&to);
        fs::create_dir_all(&to).unwrap();
        let mut segments = Vec::new();
        for entry in fs::read_dir(&from).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            fs::copy(&path, to.join(&name)).unwrap();
            if name.starts_with("wal-") {
                segments.push(to.join(name));
            }
        }
        segments.sort();
        if let Some(newest) = segments.last() {
            let len = fs::metadata(newest).unwrap().len();
            fs::OpenOptions::new()
                .write(true)
                .open(newest)
                .unwrap()
                .set_len(mix(u64::from(a), b) % (len + 1))
                .unwrap();
        }
        // Another shape, named by `a` alone so that a shrunk case keeps its
        // later crashes' targets.
        let target = a as usize % SHAPES;
        self.shape = if target == self.shape { (target + 1) % SHAPES } else { target };
        let (journal, recovery) = Journal::open(journal_config(&to)).unwrap();
        let survivors = recovery.commands.len();
        let (recovered, checkpointed) = (!recovery.is_empty(), recovery.snapshot.is_some());
        let builder = builder(self.lambda, self.compact_at, self.shape);
        let mut node = Node::new(&builder, Some(journal), Arc::new(SubscriberRegistry::new(1)));
        node.recover(recovery).unwrap();
        self.node = node;
        self.dirs.swap(0, 1);
        let _ = fs::remove_dir_all(&self.dirs[1]);

        // The oracle, from its capture at the checkpoint the node restored
        // (or from nothing) and the journaled ops that survived, each
        // register at the id it was journaled with.
        assert_eq!(checkpointed, self.checkpoint.is_some(), "the checkpoint went missing");
        self.oracle = oracle(self.lambda);
        if let Some(capture) = self.checkpoint.take() {
            match self.oracle.apply(Op::Restore(Box::new(capture))) {
                Reply::Restored(_) => {}
                other => panic!("the oracle refused its own capture: {other:?}"),
            }
        }
        for command in std::mem::take(&mut self.journaled).into_iter().take(survivors) {
            let assigned = match &command {
                ReplayCommand::Register { assigned, .. } => Some(*assigned),
                _ => None,
            };
            match (assigned, self.oracle.apply(Op::Record(command))) {
                (Some(old), Reply::Registered(new)) if new != old => {
                    return Err(format!("the oracle replayed register {old} as {new}"));
                }
                _ => {}
            }
        }
        // What the tear lost was never handed out.
        let capture = self.oracle_capture();
        self.next_id = capture.next_query;
        self.specs.truncate(self.next_id as usize);
        if recovered {
            // Recovery re-checkpointed: the journal starts over from here.
            self.checkpoint = Some(capture);
        }
        self.check_ids()
    }

    /// Every id either side holds names the query it was handed out for,
    /// and both hand out `next_id` next.
    fn check_ids(&self) -> Result<(), String> {
        for (side, capture) in [("node", self.node.capture()), ("oracle", self.oracle.capture())] {
            if capture.next_query != self.next_id {
                let next = capture.next_query;
                return Err(format!("{side}: next id q{next}, not q{}", self.next_id));
            }
            for q in capture.queries() {
                if self.specs.get(q.qid as usize) != Some(&q.spec) {
                    return Err(format!("{side}: q{} names another query", q.qid));
                }
            }
        }
        Ok(())
    }

    fn oracle_capture(&mut self) -> Snapshot {
        match self.oracle.apply(Op::Snapshot) {
            Reply::Snapshot(capture) => *capture,
            other => panic!("no capture: {other:?}"),
        }
    }

    /// One generated op from an opcode and two free integers.
    fn step(&mut self, kind: u8, a: u32, b: u64) -> Result<(), String> {
        self.tally.steps[self.shape] += 1;
        let namespace = NAMESPACES[a as usize % 3];
        match kind {
            0..=4 => self.publish(a, b)?,
            5 => {
                let terms = [1 + a % 6, 1 + (a / 6) % 6];
                let terms = if terms[0] == terms[1] { &terms[..1] } else { &terms[..] };
                self.both(|| register(terms, b, 1 + b as usize % 3, "", None))?;
            }
            6 => {
                let max_age = (!b.is_multiple_of(3)).then_some(1.0 + (b % 7) as f64);
                self.both(|| register(&[1 + a % 6], b, 1 + b as usize % 3, namespace, max_age))?;
            }
            7 if self.next_id < BULK_LIMIT => self.bulk_register(a, b)?,
            // Live, removed and never-assigned ids alike.
            8 => {
                let qid = QueryId(a % (self.next_id + 2));
                self.both(|| Op::Record(ReplayCommand::Unregister { qid }))?;
            }
            9 => {
                let policy = RetentionPolicy {
                    max_age: b.is_multiple_of(2).then_some(2.0 + (a % 5) as f64),
                    // Caps of 1 to 3 evict at once from a fuller namespace.
                    max_queries: (!a.is_multiple_of(3)).then_some(1 + b % 3),
                    eviction: match b % 3 {
                        1 => EvictionPolicy::LowestScore,
                        _ => EvictionPolicy::Oldest,
                    },
                };
                let namespace = namespace.to_string();
                self.both(|| {
                    Op::Record(ReplayCommand::SetRetention { namespace: namespace.clone(), policy })
                })?;
            }
            10 => {
                self.both(|| Op::CountNamespace(NAMESPACES[a as usize % 5].to_string()))?;
            }
            11 => {
                let namespace = NAMESPACES[a as usize % 5].to_string();
                self.both(|| Op::Record(ReplayCommand::Forget { namespace: namespace.clone() }))?;
            }
            12 => {
                let (node, oracle) =
                    (self.node.apply(Op::Snapshot), self.oracle.apply(Op::Snapshot));
                let (Reply::Snapshot(node), Reply::Snapshot(oracle)) = (node, oracle) else {
                    panic!("a snapshot op that captured nothing");
                };
                if canonical(&node) != canonical(&oracle) {
                    return Err("the captures differ".to_string());
                }
                self.checkpoint = Some((*oracle).clone());
                self.journaled.clear();
                self.captures.push((*node, *oracle));
            }
            13 if !self.captures.is_empty() => {
                self.count_storage();
                let (node, oracle) = self.captures[a as usize % self.captures.len()].clone();
                if let Reply::Restored(_) =
                    self.apply(Op::Restore(Box::new(node)), Op::Restore(Box::new(oracle)))?
                {
                    self.checkpoint = Some(self.oracle_capture());
                    self.journaled.clear();
                    self.check_ids()?;
                }
            }
            14 => self.crash(a, b)?,
            15 if b.is_multiple_of(2) => {
                self.both(|| Op::Stats)?;
            }
            15 => {
                self.both(|| Op::GetRetention(NAMESPACES[a as usize % 5].to_string()))?;
            }
            _ => {
                let qid = QueryId(a % (self.next_id + 1));
                self.both(|| Op::Results(qid))?;
            }
        }
        // Every result set, bit for bit; ids past the last one answer 404.
        for qid in 0..=self.next_id {
            self.both(|| Op::Results(QueryId(qid)))?;
        }
        Ok(())
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        for dir in &self.dirs {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Run one case: `start` picks the first shape.
fn simulate(
    start: usize,
    lambda: f64,
    compact_at: f64,
    ops: &[(u8, u32, u64)],
) -> Result<(), String> {
    let mut sim = Sim::new(start, lambda, compact_at);
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        sim.step(kind, a, b).map_err(|e| format!("step {i} ({kind}, {a}, {b}): {e}"))?;
    }
    sim.count_storage();
    let mut tally = TALLY.lock().unwrap();
    for shape in 0..SHAPES {
        tally.steps[shape] += sim.tally.steps[shape];
        tally.blocks_decoded[shape] += sim.tally.blocks_decoded[shape];
    }
    tally.crashes += sim.tally.crashes;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    fn simulated_cases(
        start in 0usize..SHAPES,
        lambda in prop::sample::select(vec![0.0, 0.05, 0.8]),
        compact_at in prop::sample::select(vec![0.0, 0.2]),
        ops in prop::collection::vec((0u8..17, 0u32..1000, 0u64..1000), 1..160),
    ) {
        simulate(start, lambda, compact_at, &ops)?;
    }
}

#[test]
fn the_daemon_matches_a_naive_node_through_every_op_and_crash() {
    simulated_cases();
    let tally = TALLY.lock().unwrap();
    let steps: u64 = tally.steps.iter().sum();
    println!("simulator: {steps} steps, {} crashes; {tally:?}", tally.crashes);
    if std::env::var_os("PROPTEST_REPLAY").is_some() {
        return;
    }
    assert!(steps >= 10_000, "only {steps} steps");
    assert!(tally.steps.iter().all(|&s| s > 0), "a shape went unvisited");
    for shape in
        (0..SHAPES).filter(|&shape| PostingsStorage::ALL[shape] == PostingsStorage::Compressed)
    {
        assert!(tally.blocks_decoded[shape] > 0, "shape {shape} never decoded a sealed block");
    }
}
