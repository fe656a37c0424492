//! Property-based tests over the journal's on-disk record format, plus a
//! byte-for-byte fixture pin.
//!
//! The properties mirror what a crash can actually do to the file: any
//! command sequence must round-trip through append/recover exactly, and any
//! truncation point — a crash mid-append — must recover precisely the
//! records that were fully written before it, never more, never garbage.
//!
//! The fixture (`tests/fixtures/journal_v1.wal`) pins the byte format the
//! same way `tests/fixtures/snapshot_v2.json` pins the snapshot format: a
//! daemon upgraded in place must still replay the journal its predecessor
//! wrote. Regenerate deliberately with `UPDATE_FIXTURES=1` (and bump the
//! checkpoint format) — never by accident.

use ctk_common::{QueryId, TermId};
use ctk_core::{EvictionPolicy, ReplayCommand, RetentionPolicy};
use ctk_server::wire::decode_publish;
use ctk_server::{
    decode_records, encode_record, publish_body_payload, FsyncPolicy, Journal, JournalConfig,
    TailState,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ctk-jprops-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Build one command from an opcode plus a few free integers — the whole
/// `ReplayCommand` surface, deterministically derived so the generated
/// sequence is reproducible from the proptest seed.
fn command(kind: u8, a: u32, b: u64) -> ReplayCommand {
    let spec = ctk_common::QuerySpec::uniform(
        &[TermId(1 + a % 40), TermId(50 + a % 9)],
        (1 + a % 8) as usize,
    )
    .expect("distinct terms, k >= 1");
    match kind % 5 {
        0 => ReplayCommand::Publish {
            docs: (0..1 + (a % 3) as usize)
                .map(|i| {
                    let term = TermId(1 + (a + i as u32) % 50);
                    let weight = 0.1 + (b % 10) as f32 * 0.05;
                    (vec![(term, weight)], b as f64 * 0.25 + i as f64)
                })
                .collect(),
        },
        1 => ReplayCommand::Register {
            assigned: QueryId(a),
            spec,
            namespace: if a.is_multiple_of(2) {
                String::new()
            } else {
                format!("tenant-{}", a % 7)
            },
            max_age: if b.is_multiple_of(3) { None } else { Some(b as f64 * 0.5) },
        },
        2 => ReplayCommand::Unregister { qid: QueryId(a) },
        3 => ReplayCommand::SetRetention {
            namespace: format!("ns-{}", a % 5),
            policy: RetentionPolicy {
                max_age: if b.is_multiple_of(2) { Some(b as f64) } else { None },
                max_queries: if a.is_multiple_of(2) { Some(1 + b % 100) } else { None },
                eviction: if a.is_multiple_of(2) {
                    EvictionPolicy::Oldest
                } else {
                    EvictionPolicy::LowestScore
                },
            },
        },
        _ => ReplayCommand::Forget { namespace: format!("ns-{}", a % 5) },
    }
}

fn encode_all(commands: &[ReplayCommand]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, command) in commands.iter().enumerate() {
        let payload = serde_json::to_string(command).expect("commands serialize");
        bytes.extend_from_slice(&encode_record(i as u64 + 1, payload.as_bytes()));
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Append any command sequence, drop the journal, reopen: recovery
    /// returns exactly that sequence, in order.
    #[test]
    fn any_command_sequence_round_trips_through_the_journal(
        ops in prop::collection::vec((0u8..5, 0u32..200, 0u64..1000), 1..20),
        max_segment in 96u64..4096,
    ) {
        let commands: Vec<ReplayCommand> =
            ops.iter().map(|&(k, a, b)| command(k, a, b)).collect();
        let dir = temp_dir("roundtrip");
        let cfg = JournalConfig::new(&dir)
            .fsync(FsyncPolicy::Never)
            .max_segment_bytes(max_segment);
        let (mut journal, recovery) = Journal::open(cfg.clone()).expect("open fresh");
        prop_assert!(recovery.is_empty());
        for command in &commands {
            journal.append(command).expect("append");
        }
        journal.sync().expect("sync");
        drop(journal);
        let (_journal, recovery) = Journal::open(cfg).expect("reopen");
        prop_assert_eq!(recovery.commands, commands);
        prop_assert_eq!(recovery.truncated_bytes, 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Truncate the encoded byte stream anywhere: the decoder yields exactly
    /// the records that were fully written before the cut, and flags the
    /// tail torn iff the cut landed inside a record.
    #[test]
    fn any_truncation_recovers_exactly_the_complete_prefix(
        ops in prop::collection::vec((0u8..5, 0u32..200, 0u64..1000), 1..12),
        cut_fraction in 0.0f64..1.0,
    ) {
        let commands: Vec<ReplayCommand> =
            ops.iter().map(|&(k, a, b)| command(k, a, b)).collect();
        let bytes = encode_all(&commands);

        // Record boundaries, so we know what a given cut *should* recover.
        let mut boundaries = vec![0usize];
        for command in &commands {
            let payload = serde_json::to_string(command).expect("serialize");
            boundaries.push(boundaries.last().unwrap() + 16 + payload.len());
        }

        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let (records, tail) = decode_records(&bytes[..cut]);
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(records.len(), complete, "cut at {} of {}", cut, bytes.len());
        let on_boundary = boundaries.contains(&cut);
        prop_assert_eq!(tail == TailState::Clean, on_boundary);
        // The recovered prefix parses back to the original commands.
        for (i, (seq, payload)) in records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            let parsed: ReplayCommand =
                serde_json::from_str(std::str::from_utf8(payload).expect("utf8"))
                    .expect("payload parses");
            prop_assert_eq!(&parsed, &commands[i]);
        }
    }

    /// Bit flips never pass the checksum: corrupt any single byte of a
    /// record and the decoder stops at (or before) that record rather than
    /// returning corrupted data.
    #[test]
    fn single_byte_corruption_never_yields_a_wrong_record(
        ops in prop::collection::vec((0u8..5, 0u32..200, 0u64..1000), 1..8),
        position_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let commands: Vec<ReplayCommand> =
            ops.iter().map(|&(k, a, b)| command(k, a, b)).collect();
        let mut bytes = encode_all(&commands);
        let position = (((bytes.len() - 1) as f64) * position_fraction) as usize;
        bytes[position] ^= flip;
        let (records, _) = decode_records(&bytes);
        // Every record the decoder *does* return must be one of the
        // originals, verbatim, in order. (A corrupted length field can hide
        // later records; it must never fabricate one.)
        for (i, (seq, payload)) in records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            let parsed: ReplayCommand =
                serde_json::from_str(std::str::from_utf8(payload).expect("utf8"))
                    .expect("payload parses");
            prop_assert_eq!(&parsed, &commands[i]);
        }
    }
}

/// The commands `tests/fixtures/journal_v1.wal` holds, seqs 1 to 5.
fn fixture_commands() -> Vec<ReplayCommand> {
    vec![
        ReplayCommand::Register {
            assigned: QueryId(1),
            spec: ctk_common::QuerySpec::uniform(&[TermId(3), TermId(7)], 2).unwrap(),
            namespace: "tenant-a".to_string(),
            max_age: Some(30.0),
        },
        ReplayCommand::Publish {
            docs: vec![
                (vec![(TermId(3), 0.5), (TermId(9), 0.25)], 1.5),
                (vec![(TermId(7), 1.0)], 2.0),
            ],
        },
        ReplayCommand::SetRetention {
            namespace: "tenant-a".to_string(),
            policy: RetentionPolicy {
                max_age: Some(60.0),
                max_queries: Some(100),
                eviction: EvictionPolicy::LowestScore,
            },
        },
        ReplayCommand::Unregister { qid: QueryId(1) },
        ReplayCommand::Forget { namespace: "tenant-a".to_string() },
    ]
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v1.wal")
}

/// Pin the exact bytes of the journal format, the way
/// `tests/fixtures/snapshot_v2.json` pins the snapshot format. If this test
/// fails, a new daemon can no longer replay an old daemon's journal:
/// that is a format break and needs a `JOURNAL_FORMAT` bump plus a
/// migration path, not a fixture refresh.
#[test]
fn fixture_pins_the_on_disk_byte_format() {
    let commands = fixture_commands();
    let bytes = encode_all(&commands);

    let path = fixture_path();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &bytes).unwrap();
    }
    let fixture = fs::read(&path)
        .expect("tests/fixtures/journal_v1.wal missing; regenerate with UPDATE_FIXTURES=1");
    assert_eq!(
        fixture, bytes,
        "journal byte format drifted from the v1 fixture — old journals would no longer replay"
    );

    // And the pinned bytes still decode to the same commands.
    let (records, tail) = decode_records(&fixture);
    assert_eq!(tail, TailState::Clean);
    let decoded: Vec<ReplayCommand> = records
        .iter()
        .map(|(_, payload)| serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap())
        .collect();
    assert_eq!(decoded, commands);
}

/// A daemon upgraded in place: the segment an older build wrote (the v1
/// fixture) gains publish-body records from this build, then a crash tears
/// the last one inside its body. Recovery replays both generations in
/// order and truncates the tear; the next append reuses the torn seq.
#[test]
fn old_records_and_body_records_replay_from_one_segment() {
    let dir = temp_dir("upgrade");
    fs::create_dir_all(&dir).unwrap();
    let mut bytes = fs::read(fixture_path()).unwrap();
    let bodies = [
        r#"{"terms": [[3, 0.75]], "arrival": 3.0}"#,
        "{\"docs\": [{\"terms\": [[7, 1e-1], [9, 0.15811388194561005]], \"arrival\": 4},\n\
         {\"arrival\": 5, \"terms\": [[3, 1]], \"terms\": []}]}",
    ];
    for (i, body) in bodies.iter().enumerate() {
        bytes.extend(encode_record(6 + i as u64, publish_body_payload(body).as_bytes()));
    }
    let clean_len = bytes.len() as u64;
    let torn = encode_record(8, publish_body_payload(r#"{"terms": [[1, 1.0]]}"#).as_bytes());
    let kept = torn.len() - 5; // past the header and the prefix, inside the body
    bytes.extend_from_slice(&torn[..kept]);
    let segment = dir.join(format!("wal-{:020}.log", 1));
    fs::write(&segment, &bytes).unwrap();

    let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);
    let (mut journal, recovery) = Journal::open(cfg.clone()).unwrap();
    let mut expected = fixture_commands();
    expected.extend(
        bodies.iter().map(|body| ReplayCommand::Publish {
            docs: decode_publish(body).unwrap().into_batch(),
        }),
    );
    assert_eq!(
        expected[5],
        ReplayCommand::Publish { docs: vec![(vec![(TermId(3), 0.75)], 3.0)] },
        "the body decodes as the wire reads it"
    );
    assert_eq!(recovery.commands, expected);
    assert_eq!(recovery.truncated_bytes, kept as u64);
    assert_eq!(fs::metadata(&segment).unwrap().len(), clean_len);

    let next = publish_body_payload(r#"{"terms": [[1, 1.0]]}"#);
    assert_eq!(journal.append_payload(next.as_bytes()).unwrap(), 8);
    drop(journal);
    let (_journal, recovery) = Journal::open(cfg).unwrap();
    assert_eq!(recovery.truncated_bytes, 0);
    assert_eq!(recovery.commands.len(), expected.len() + 1);
    fs::remove_dir_all(&dir).unwrap();
}
