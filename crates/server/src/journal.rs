//! The durable write-ahead publish journal: every mutating command is
//! appended — length-prefixed, CRC-32-checksummed, fsynced per policy —
//! *before* the ingest thread acks it, so a SIGKILL between snapshots
//! loses nothing that was acknowledged.
//!
//! # On-disk format (version 1)
//!
//! A journal directory holds numbered segment files plus at most one
//! checkpoint:
//!
//! ```text
//! journal/
//!   checkpoint.json          {"format": 1, "last_seq": N, "snapshot": {...}}
//!   wal-00000000000000000042.log
//!   wal-00000000000000000107.log   (named by their first record's seq)
//! ```
//!
//! Each segment is a run of records:
//!
//! ```text
//! | len: u32 LE | seq: u64 LE | crc: u32 LE | payload: len bytes |
//! ```
//!
//! `payload` is one JSON object naming its command with an `"op"` tag;
//! `crc` is CRC-32 (IEEE) over the `len` and `seq` fields' bytes plus the
//! payload, so a corrupted header is caught the same as a corrupted body.
//! A publish payload has one of two shapes:
//!
//! ```text
//! {"op":"publish_body","body":<the POST /publish body, byte for byte>}
//! {"op":"publish","docs":[[[[term,weight],...],arrival],...]}
//! ```
//!
//! This build writes the first ([`publish_body_payload`]) on the daemon's
//! publish path: the body is stored as received, after
//! [`decode_publish`] accepted it, and recovery runs it through that same
//! decoder, so a replayed publish is the request the live server applied,
//! bit for bit, and no document is ever encoded a second time. The second
//! is the serialized [`ReplayCommand::Publish`], which
//! [`Journal::append`] still writes and every older build wrote; it
//! replays as before. The other four ops (`register`, `unregister`,
//! `retention`, `forget`) are always the serialized [`ReplayCommand`].
//!
//! Sequence numbers start at 1 and increase by one per record, never
//! resetting — `last_seq` in the checkpoint says which prefix of the
//! history the snapshot already covers, which makes replay idempotent
//! across the crash window between writing a checkpoint and truncating the
//! segments.
//!
//! # Torn tails and failed appends
//!
//! A crash mid-append leaves a torn final record: a short header, a
//! truncated payload, or a checksum mismatch. Recovery tolerates exactly
//! that — a bad record at the tail of the **newest** segment truncates the
//! file there and replays the clean prefix. A bad record anywhere else
//! (an older segment, or with valid data after it) is real corruption and
//! fails recovery with a descriptive error rather than silently dropping
//! acknowledged writes.
//!
//! A *failed* append (ENOSPC mid-write, a refused fsync) is rolled back
//! while the process lives: the segment is truncated to the pre-append
//! offset so the refused record leaves no bytes behind for later appends
//! to bury. If that rollback itself fails, the journal is **poisoned** —
//! every further mutating command is refused until a restart — because
//! acking writes behind unrolled garbage would silently drop them at the
//! next recovery.
//!
//! # Checkpoints
//!
//! [`Journal::checkpoint`] streams the envelope and the snapshot's compact
//! text ([`Snapshot::write_json`], one query at a time) to
//! `checkpoint.tmp`, fsyncs, renames it over `checkpoint.json`, then starts
//! a fresh segment and deletes the now-redundant old ones. Recovery parses
//! the checkpoint once and hands its `snapshot` member to
//! [`Snapshot::from_json_value`] (rejecting snapshot versions newer than
//! this build supports), then replays only records with `seq > last_seq`.

use crate::wire::decode_publish;
use ctk_common::Crc32;
use ctk_core::{ReplayCommand, Snapshot};
use serde::Value;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bytes of the fixed record header: `len` (4) + `seq` (8) + `crc` (4).
pub const RECORD_HEADER_BYTES: usize = 16;

/// The checkpoint file's `format` field this build writes and reads.
pub const JOURNAL_FORMAT: u32 = 1;

const CHECKPOINT_FILE: &str = "checkpoint.json";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

/// What precedes the body in a publish-body payload; a `}` follows it.
const PUBLISH_BODY_PREFIX: &str = r#"{"op":"publish_body","body":"#;

/// When appended journal records reach the disk — the durability/throughput
/// trade of the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record, before the command is acked: an
    /// acked publish survives SIGKILL *and* power loss. The default, and
    /// what the crash-recovery guarantees assume.
    #[default]
    Always,
    /// Sync at most once per interval: bounded data loss (everything acked
    /// in the last interval) for near-`Never` throughput.
    Interval(Duration),
    /// Never sync explicitly; the OS flushes on its own schedule. Survives
    /// a process SIGKILL (the page cache outlives the process) but not a
    /// kernel panic or power loss.
    Never,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Accepts `always`, `never`, or `interval:<ms>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:").and_then(|ms| ms.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => Ok(FsyncPolicy::Interval(Duration::from_millis(ms))),
                _ => Err(format!(
                    "bad fsync policy {s:?} (expected \"always\", \"never\", or \"interval:<ms>\")"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Where and how the journal persists.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// Directory holding the segments and checkpoint (created if missing).
    pub dir: PathBuf,
    /// When appends reach the disk.
    pub fsync: FsyncPolicy,
    /// Rotate to a new segment once the current one would exceed this many
    /// bytes (a record larger than the cap still lands whole in its own
    /// segment — records are never split).
    pub max_segment_bytes: u64,
}

impl JournalConfig {
    /// A config with the default fsync policy (`always`) and segment cap
    /// (64 MiB).
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            max_segment_bytes: 64 * 1024 * 1024,
        }
    }

    /// Set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> JournalConfig {
        self.fsync = policy;
        self
    }

    /// Set the segment rotation threshold.
    pub fn max_segment_bytes(mut self, bytes: u64) -> JournalConfig {
        self.max_segment_bytes = bytes.max(RECORD_HEADER_BYTES as u64 + 1);
        self
    }
}

/// What [`Journal::open`] found on disk: the state the ingest thread must
/// rebuild before serving.
#[derive(Debug)]
pub struct Recovery {
    /// The checkpoint snapshot to restore first, if one was written.
    pub snapshot: Option<Snapshot>,
    /// The sequence number the checkpoint covers (0 when none).
    pub checkpoint_seq: u64,
    /// Journaled commands newer than the checkpoint, in append order.
    pub commands: Vec<ReplayCommand>,
    /// Bytes of a torn final record dropped during recovery (0 for a clean
    /// shutdown).
    pub truncated_bytes: u64,
}

impl Recovery {
    /// True when there was nothing on disk (fresh directory).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.commands.is_empty()
    }
}

/// Encode one record: header (`len`, `seq`, `crc`) plus payload. The CRC
/// covers the `len` and `seq` bytes and the payload.
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("journal payloads are far below 4 GiB");
    let mut crc = Crc32::new();
    crc.update(&len.to_le_bytes());
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The journal payload of one `POST /publish`:
/// `{"op":"publish_body","body":<body>}`, with `body` copied verbatim. Pass
/// only a body [`decode_publish`] accepted: that makes `body` one JSON
/// value, so the payload is a JSON object too, and recovery replays it
/// through the same decoder.
pub fn publish_body_payload(body: &str) -> String {
    let mut payload = String::with_capacity(PUBLISH_BODY_PREFIX.len() + body.len() + 1);
    payload.push_str(PUBLISH_BODY_PREFIX);
    payload.push_str(body);
    payload.push('}');
    payload
}

/// The command one record's payload journaled: a publish-body payload back
/// through [`decode_publish`], anything else as a serialized
/// [`ReplayCommand`].
fn decode_payload(seq: u64, payload: &[u8]) -> io::Result<ReplayCommand> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| invalid(format!("journal record {seq} is not UTF-8 JSON")))?;
    let command = match text.strip_prefix(PUBLISH_BODY_PREFIX).and_then(|b| b.strip_suffix('}')) {
        Some(body) => decode_publish(body)
            .map(|request| ReplayCommand::Publish { docs: request.into_batch() }),
        None => serde_json::from_str(text).map_err(|e| e.to_string()),
    };
    command.map_err(|e| invalid(format!("journal record {seq} does not parse: {e}")))
}

/// How [`decode_records`] left the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// Every byte belonged to a whole, checksum-valid record.
    Clean,
    /// Decoding stopped at a short or checksum-invalid record;
    /// `valid_bytes` is the length of the clean prefix.
    Torn {
        /// Offset of the first bad byte — where a recovering journal
        /// truncates the segment.
        valid_bytes: u64,
    },
}

/// Decode a segment's bytes into `(seq, payload)` records plus the state of
/// its tail. Pure — the fault-injection tests drive this over in-memory
/// buffers byte-by-byte.
pub fn decode_records(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, TailState) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < RECORD_HEADER_BYTES {
            return (records, TailState::Torn { valid_bytes: off as u64 });
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        if rest.len() - RECORD_HEADER_BYTES < len {
            return (records, TailState::Torn { valid_bytes: off as u64 });
        }
        let payload = &rest[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + len];
        let mut crc = Crc32::new();
        crc.update(&rest[0..12]);
        crc.update(payload);
        if crc.finish() != stored_crc {
            return (records, TailState::Torn { valid_bytes: off as u64 });
        }
        records.push((seq, payload.to_vec()));
        off += RECORD_HEADER_BYTES + len;
    }
    (records, TailState::Clean)
}

fn segment_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}")
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Load and validate `checkpoint.json`: `(last_seq, snapshot)`.
///
/// The embedded snapshot member goes straight to
/// [`Snapshot::from_json_value`], so a checkpoint written by a newer build
/// fails with the same clear "unsupported snapshot version" error the
/// restore endpoint gives — never a panic or a garbled partial parse.
fn load_checkpoint(path: &Path) -> io::Result<(u64, Snapshot)> {
    let text = fs::read_to_string(path)?;
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| invalid(format!("corrupt journal checkpoint {}: {e}", path.display())))?;
    let format = doc.get("format").and_then(|v| v.as_u64().ok()).ok_or_else(|| {
        invalid(format!("journal checkpoint {} has no format tag", path.display()))
    })?;
    if format != JOURNAL_FORMAT as u64 {
        return Err(invalid(format!(
            "unsupported journal checkpoint format {format} (this build reads {JOURNAL_FORMAT})"
        )));
    }
    let last_seq = doc
        .get("last_seq")
        .and_then(|v| v.as_u64().ok())
        .ok_or_else(|| invalid(format!("journal checkpoint {} has no last_seq", path.display())))?;
    let snapshot_value = doc
        .get("snapshot")
        .ok_or_else(|| invalid(format!("journal checkpoint {} has no snapshot", path.display())))?;
    let snapshot = Snapshot::from_json_value(snapshot_value)
        .map_err(|e| invalid(format!("journal checkpoint rejected: {e}")))?;
    Ok((last_seq, snapshot))
}

/// The live append side of the journal. One instance is owned by the ingest
/// thread; nothing here is thread-safe (it does not need to be — every
/// mutating command is already linearized through that thread).
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    max_segment_bytes: u64,
    file: File,
    segment_bytes: u64,
    /// Bytes across all live (post-checkpoint) segments — `/stats`'s
    /// `journal_bytes`.
    live_bytes: u64,
    next_seq: u64,
    last_checkpoint: u64,
    last_sync: Instant,
    dirty: bool,
    /// Set when a failed append could not be rolled back: the segment may
    /// hold garbage bytes, so every further mutating call is refused (the
    /// message says why) until the process restarts and recovery truncates
    /// the file. Continuing to ack writes behind unrolled garbage would
    /// silently drop them on the next restart.
    poisoned: Option<String>,
}

impl Journal {
    /// Open (or create) the journal at `config.dir`, returning the append
    /// handle plus everything recovery found. Fails with a descriptive
    /// `InvalidData` error on real corruption (bad record *not* at the
    /// newest segment's tail, unreadable checkpoint, unsupported snapshot
    /// or checkpoint version) — a torn final record is truncated, not
    /// fatal.
    pub fn open(config: JournalConfig) -> io::Result<(Journal, Recovery)> {
        fs::create_dir_all(&config.dir)?;
        // A crash between writing checkpoint.tmp and renaming it leaves the
        // tmp file behind; it was never the checkpoint, so drop it.
        let _ = fs::remove_file(config.dir.join(CHECKPOINT_TMP));

        let checkpoint_path = config.dir.join(CHECKPOINT_FILE);
        let (checkpoint_seq, snapshot) = if checkpoint_path.exists() {
            let (seq, snap) = load_checkpoint(&checkpoint_path)?;
            (seq, Some(snap))
        } else {
            (0, None)
        };

        let mut segments: Vec<PathBuf> = fs::read_dir(&config.dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(SEGMENT_PREFIX) && n.ends_with(SEGMENT_SUFFIX))
            })
            .collect();
        segments.sort();

        let mut commands = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut max_seq = checkpoint_seq;
        let mut live_bytes = 0u64;
        let last_index = segments.len().saturating_sub(1);
        for (i, path) in segments.iter().enumerate() {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let (records, tail) = decode_records(&bytes);
            let mut kept_bytes = bytes.len() as u64;
            if let TailState::Torn { valid_bytes } = tail {
                if i != last_index {
                    return Err(invalid(format!(
                        "corrupt journal segment {}: bad record at byte {valid_bytes} with newer \
                         segments after it",
                        path.display()
                    )));
                }
                // The torn tail of the newest segment is the crash artifact
                // recovery exists for: truncate to the clean prefix.
                truncated_bytes = bytes.len() as u64 - valid_bytes;
                OpenOptions::new().write(true).open(path)?.set_len(valid_bytes)?;
                kept_bytes = valid_bytes;
            }
            let mut stale = !records.is_empty();
            for (seq, payload) in records {
                if seq <= max_seq && seq <= checkpoint_seq {
                    // Covered by the checkpoint (crash between checkpoint
                    // rename and segment truncation); skip.
                    continue;
                }
                stale = false;
                if seq != max_seq + 1 {
                    return Err(invalid(format!(
                        "journal sequence gap in {}: expected {} but found {seq}",
                        path.display(),
                        max_seq + 1
                    )));
                }
                max_seq = seq;
                commands.push(decode_payload(seq, &payload)?);
            }
            if stale {
                // Every record predates the checkpoint: the segment is
                // garbage from an interrupted truncation. Drop it.
                let _ = fs::remove_file(path);
            } else {
                live_bytes += kept_bytes;
            }
        }

        let next_seq = max_seq + 1;
        // Append to the newest surviving segment, or start a fresh one.
        let current = segments
            .iter()
            .rev()
            .find(|p| p.exists())
            .cloned()
            .unwrap_or_else(|| config.dir.join(segment_name(next_seq)));
        let file = OpenOptions::new().create(true).append(true).open(&current)?;
        let segment_bytes = file.metadata()?.len();

        let journal = Journal {
            dir: config.dir,
            fsync: config.fsync,
            max_segment_bytes: config.max_segment_bytes,
            file,
            segment_bytes,
            live_bytes,
            next_seq,
            last_checkpoint: checkpoint_seq,
            last_sync: Instant::now(),
            dirty: false,
            poisoned: None,
        };
        let recovery = Recovery { snapshot, checkpoint_seq, commands, truncated_bytes };
        Ok((journal, recovery))
    }

    /// Append one command and make it as durable as the fsync policy
    /// promises. Returns the record's sequence number. The ingest thread
    /// calls this *before* acking the command; an error here means the
    /// command must be refused, not applied — and the segment holds no
    /// trace of it (a partial write is truncated back out, so the refused
    /// record can neither corrupt the tail nor collide with the seq of the
    /// next accepted append).
    pub fn append(&mut self, command: &ReplayCommand) -> io::Result<u64> {
        let payload = serde_json::to_string(command)
            .map_err(|e| invalid(format!("journal command does not serialize: {e}")))?;
        self.append_payload(payload.as_bytes())
    }

    /// [`Journal::append`] for a payload built elsewhere — all that is left
    /// is to stamp the sequence number and checksum, write and sync. The
    /// publish path frames the request body on the connection thread
    /// ([`publish_body_payload`]) so the ingest thread, the one serial
    /// resource, does only this.
    pub fn append_payload(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.check_poisoned()?;
        let record = encode_record(self.next_seq, payload);
        if self.segment_bytes > 0
            && self.segment_bytes + record.len() as u64 > self.max_segment_bytes
        {
            self.rotate()?;
        }
        if let Err(e) = self.write_record(&record) {
            self.rollback_append(&e);
            return Err(e);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segment_bytes += record.len() as u64;
        self.live_bytes += record.len() as u64;
        Ok(seq)
    }

    /// The failable half of an append: the write plus the policy-driven
    /// sync, as one unit so the caller can roll both back together.
    fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        self.file.write_all(record)?;
        self.dirty = true;
        match self.fsync {
            FsyncPolicy::Always => {
                self.file.sync_data()?;
                self.dirty = false;
                self.last_sync = Instant::now();
            }
            FsyncPolicy::Interval(every) => {
                if self.last_sync.elapsed() >= every {
                    self.file.sync_data()?;
                    self.dirty = false;
                    self.last_sync = Instant::now();
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Undo a failed append: truncate the segment back to the pre-append
    /// offset and sync the truncation, so a partial write (ENOSPC mid
    /// `write_all`) leaves no garbage for later appends to bury, and a
    /// fully-written record whose fsync failed cannot survive to collide
    /// with the seq the next accepted append will reuse. If the rollback
    /// itself fails the file's tail is unknowable — poison the journal so
    /// every further mutating command is refused until a restart, whose
    /// recovery truncates at the first bad checksum.
    fn rollback_append(&mut self, cause: &io::Error) {
        match self.file.set_len(self.segment_bytes).and_then(|()| self.file.sync_data()) {
            Ok(()) => {
                self.dirty = false;
                self.last_sync = Instant::now();
            }
            Err(e) => {
                self.poisoned =
                    Some(format!("append failed ({cause}) and rollback truncation failed ({e})"));
            }
        }
    }

    /// `Err` while the journal is poisoned (see [`Journal::rollback_append`]).
    fn check_poisoned(&self) -> io::Result<()> {
        match &self.poisoned {
            None => Ok(()),
            Some(why) => Err(io::Error::other(format!(
                "journal is poisoned and refuses writes until restart: {why}"
            ))),
        }
    }

    /// Seal the current segment and start a new one named by the next seq.
    fn rotate(&mut self) -> io::Result<()> {
        // A sealed segment is never written again; make it durable before
        // moving on so a later torn tail can only be in the newest file.
        self.file.sync_data()?;
        self.dirty = false;
        let path = self.dir.join(segment_name(self.next_seq));
        self.file = OpenOptions::new().create(true).append(true).open(path)?;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Write `snapshot` as the new checkpoint, then truncate the journal:
    /// delete every segment and start fresh. Returns the sequence number
    /// the checkpoint covers. On return, recovery needs only the checkpoint
    /// plus whatever is appended after this call.
    pub fn checkpoint(&mut self, snapshot: &Snapshot) -> io::Result<u64> {
        self.check_poisoned()?;
        let covered = self.next_seq - 1;
        let tmp = self.dir.join(CHECKPOINT_TMP);
        // Streamed, never held whole: the envelope, the snapshot's own
        // compact text, the closing brace. `into_inner` flushes and hands
        // back the file, which is synced and closed before the rename.
        let mut file = BufWriter::new(File::create(&tmp)?);
        write!(file, "{{\"format\":{JOURNAL_FORMAT},\"last_seq\":{covered},\"snapshot\":")?;
        snapshot.write_json(&mut file)?;
        file.write_all(b"}")?;
        file.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        // The rename is the commit point: either the old checkpoint (plus
        // the still-present segments) or the new one is what recovery sees.
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }

        // The fresh segment must be open *before* anything is deleted: if
        // this open fails, `self.file` still points at a live (linked) old
        // segment and appends keep landing somewhere recovery can see —
        // the new checkpoint plus old segments is exactly the crash window
        // the seq filter in `open` already handles.
        let fresh_path = self.dir.join(segment_name(self.next_seq));
        self.file = OpenOptions::new().create(true).append(true).open(&fresh_path)?;
        self.segment_bytes = 0;
        self.live_bytes = 0;
        self.last_checkpoint = covered;
        self.dirty = false;

        // Past the commit point, the old segments are redundant (their
        // records are all <= covered), so deleting them is best-effort
        // cleanup: anything left behind is skipped by seq and removed as
        // stale on the next recovery.
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path == fresh_path {
                    continue;
                }
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with(SEGMENT_PREFIX) && name.ends_with(SEGMENT_SUFFIX) {
                    let _ = fs::remove_file(path);
                }
            }
        }
        Ok(covered)
    }

    /// Force everything appended so far to disk, whatever the policy —
    /// called on drain/shutdown so `Interval`/`Never` journals are durable
    /// across a *graceful* exit.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// When an `Interval` journal holding unsynced records is due to sync;
    /// `None` when nothing waits on the timer. Appends sync only inside the
    /// *next* append, so the ingest thread waits for commands no longer
    /// than this and then calls [`Journal::sync_lapsed`]: records acked
    /// just before traffic stops reach the disk within the interval, as
    /// [`FsyncPolicy::Interval`] promises.
    pub(crate) fn sync_due(&self) -> Option<Instant> {
        match self.fsync {
            FsyncPolicy::Interval(every) if self.dirty && self.poisoned.is_none() => {
                Some(self.last_sync + every)
            }
            _ => None,
        }
    }

    /// Sync once [`Journal::sync_due`] has passed. A failed sync poisons
    /// the journal: records already acked may never reach the disk, and
    /// acking more behind them would only widen the loss.
    pub(crate) fn sync_lapsed(&mut self) {
        if let Err(e) = self.sync() {
            self.poisoned = Some(format!("interval sync failed ({e})"));
        }
    }

    /// Bytes in live segments (appended since the last checkpoint).
    pub fn bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The sequence number the latest checkpoint covers (0 = none yet).
    pub fn last_checkpoint(&self) -> u64 {
        self.last_checkpoint
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::TermId;
    use ctk_core::MonitorBackend;
    use std::sync::atomic::{AtomicU64, Ordering};

    impl Journal {
        /// Poison the journal as a failed rollback would, for tests of what
        /// its callers do with a journal that refuses every write.
        pub(crate) fn poison(&mut self, why: &str) {
            self.poisoned = Some(why.to_string());
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ctk-journal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn publish(term: u32, arrival: f64) -> ReplayCommand {
        ReplayCommand::Publish { docs: vec![(vec![(TermId(term), 1.0)], arrival)] }
    }

    #[test]
    fn fsync_policy_parses_and_prints() {
        assert_eq!("always".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Always);
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!(
            "interval:250".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        for policy in ["always", "never", "interval:5"] {
            assert_eq!(policy.parse::<FsyncPolicy>().unwrap().to_string(), policy);
        }
        assert!("interval:0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert!("interval:fast".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn records_round_trip_and_tails_tear_cleanly() {
        let payloads: Vec<Vec<u8>> =
            vec![b"alpha".to_vec(), vec![], b"a longer third payload".to_vec()];
        let mut bytes = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64 + 1, p));
        }
        let (records, tail) = decode_records(&bytes);
        assert_eq!(tail, TailState::Clean);
        assert_eq!(records.len(), 3);
        for (i, (seq, payload)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(payload, &payloads[i]);
        }

        // Cutting exactly at the last record's boundary is a clean
        // two-record stream; cutting anywhere *inside* it is a torn tail
        // that recovers exactly the first two records.
        let last_start = bytes.len() - (RECORD_HEADER_BYTES + payloads[2].len());
        let (records, tail) = decode_records(&bytes[..last_start]);
        assert_eq!((records.len(), tail), (2, TailState::Clean));
        for cut in last_start + 1..bytes.len() {
            let (records, tail) = decode_records(&bytes[..cut]);
            assert_eq!(records.len(), 2, "cut at {cut}");
            assert_eq!(tail, TailState::Torn { valid_bytes: last_start as u64 });
        }

        // A flipped bit anywhere in the final record is caught by the CRC.
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        let (records, tail) = decode_records(&corrupt);
        assert_eq!(records.len(), 2);
        assert_eq!(tail, TailState::Torn { valid_bytes: last_start as u64 });
    }

    #[test]
    fn journal_survives_reopen_checkpoint_and_torn_tail() {
        let dir = temp_dir("cycle");
        let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);

        // Fresh journal: nothing recovered, appends take seqs from 1.
        let (mut journal, recovery) = Journal::open(cfg.clone()).unwrap();
        assert!(recovery.is_empty());
        assert_eq!(journal.append(&publish(1, 1.0)).unwrap(), 1);
        assert_eq!(journal.append(&publish(2, 2.0)).unwrap(), 2);
        assert!(journal.bytes() > 0);
        journal.sync().unwrap();
        drop(journal);

        // Reopen: both commands come back, seq continues.
        let (mut journal, recovery) = Journal::open(cfg.clone()).unwrap();
        assert_eq!(recovery.commands, vec![publish(1, 1.0), publish(2, 2.0)]);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(journal.next_seq(), 3);

        // Checkpoint truncates: a reopen sees the snapshot and no commands.
        let snapshot = ctk_core::Monitor::new(ctk_core::Naive::new(0.01)).snapshot();
        assert_eq!(journal.checkpoint(&snapshot).unwrap(), 2);
        assert_eq!(journal.bytes(), 0);
        assert_eq!(journal.last_checkpoint(), 2);
        assert_eq!(journal.append(&publish(3, 3.0)).unwrap(), 3);
        journal.sync().unwrap();
        drop(journal);

        let (_journal, recovery) = Journal::open(cfg.clone()).unwrap();
        assert_eq!(recovery.checkpoint_seq, 2);
        assert!(recovery.snapshot.is_some());
        assert_eq!(recovery.commands, vec![publish(3, 3.0)]);

        // Tear the newest segment's tail: recovery truncates, keeps the
        // clean prefix, and the next open is clean again.
        let newest = newest_segment(&dir);
        let mut bytes = fs::read(&newest).unwrap();
        bytes.extend_from_slice(&encode_record(4, b"{\"op\":\"forget\",\"namespace\":\"x\"}")[..9]);
        fs::write(&newest, &bytes).unwrap();
        let (_journal, recovery) = Journal::open(cfg.clone()).unwrap();
        assert_eq!(recovery.truncated_bytes, 9);
        assert_eq!(recovery.commands, vec![publish(3, 3.0)]);
        let (_journal, recovery) = Journal::open(cfg).unwrap();
        assert_eq!(recovery.truncated_bytes, 0, "truncation persisted");

        fs::remove_dir_all(&dir).unwrap();
    }

    fn newest_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().contains(SEGMENT_PREFIX))
            .collect();
        segs.sort();
        segs.pop().expect("a segment exists")
    }

    #[test]
    fn rotation_caps_segments_and_replays_across_them() {
        let dir = temp_dir("rotate");
        let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never).max_segment_bytes(128);
        let (mut journal, _) = Journal::open(cfg.clone()).unwrap();
        for i in 0..10 {
            journal.append(&publish(i, i as f64)).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let segments = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(SEGMENT_SUFFIX))
            .count();
        assert!(segments > 1, "128-byte cap must rotate ({segments} segments)");
        let (_journal, recovery) = Journal::open(cfg.clone()).unwrap();
        assert_eq!(recovery.commands.len(), 10);
        assert_eq!(
            recovery.commands,
            (0..10).map(|i| publish(i, i as f64)).collect::<Vec<_>>(),
            "append order survives rotation"
        );

        // Corruption in a *non-final* segment is fatal, not truncated.
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(SEGMENT_SUFFIX))
            .collect();
        segs.sort();
        let first = &segs[0];
        let mut bytes = fs::read(first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(first, &bytes).unwrap();
        let err = Journal::open(cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt journal segment"), "{err}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_rolls_back_partial_bytes() {
        let dir = temp_dir("rollback");
        let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(cfg.clone()).unwrap();
        journal.append(&publish(1, 1.0)).unwrap();
        journal.sync().unwrap();

        // Simulate an append dying mid-write: garbage lands in the segment
        // through the journal's own handle, then the rollback runs exactly
        // as `append` runs it on the error path.
        let newest = newest_segment(&dir);
        let clean_len = fs::metadata(&newest).unwrap().len();
        journal.file.write_all(b"partial record garbage").unwrap();
        assert!(fs::metadata(&newest).unwrap().len() > clean_len);
        journal.rollback_append(&io::Error::other("injected: disk full"));
        assert_eq!(fs::metadata(&newest).unwrap().len(), clean_len, "garbage truncated out");
        assert!(journal.poisoned.is_none(), "a successful rollback does not poison");

        // The journal keeps working: the next append takes the seq the
        // refused record would have used, and recovery sees a clean
        // two-record history with nothing torn.
        assert_eq!(journal.append(&publish(2, 2.0)).unwrap(), 2);
        journal.sync().unwrap();
        drop(journal);
        let (_journal, recovery) = Journal::open(cfg).unwrap();
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.commands, vec![publish(1, 1.0), publish(2, 2.0)]);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_journal_refuses_every_mutation() {
        let dir = temp_dir("poison");
        let (mut journal, _) =
            Journal::open(JournalConfig::new(&dir).fsync(FsyncPolicy::Never)).unwrap();
        journal.append(&publish(1, 1.0)).unwrap();
        journal.poison("injected rollback failure");
        let err = journal.append(&publish(2, 2.0)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        let snapshot = ctk_core::Monitor::new(ctk_core::Naive::new(0.01)).snapshot();
        let err = journal.checkpoint(&snapshot).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_bodies_replay_through_the_wire_decoder() {
        let dir = temp_dir("bodies");
        let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(cfg.clone()).unwrap();
        let body = " {\"docs\": [{\"terms\": [[1, 1e0]], \"arrival\": 1}, {\"x\": [], \"terms\": [[2, 0.5]]}]}\n";
        let payload = publish_body_payload(body);
        assert_eq!(payload, format!("{{\"op\":\"publish_body\",\"body\":{body}}}"));
        journal.append_payload(payload.as_bytes()).unwrap();
        journal.append(&publish(3, 3.0)).unwrap();
        drop(journal);
        let (_journal, recovery) = Journal::open(cfg.clone()).unwrap();
        assert_eq!(
            recovery.commands,
            vec![
                ReplayCommand::Publish {
                    docs: vec![(vec![(TermId(1), 1.0)], 1.0), (vec![(TermId(2), 0.5)], 0.0)],
                },
                publish(3, 3.0),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();

        // A body the decoder refuses is corruption, named by its record.
        let (mut journal, _) = Journal::open(cfg.clone()).unwrap();
        journal.append_payload(publish_body_payload(r#"{"docs": []}"#).as_bytes()).unwrap();
        journal.append(&publish(4, 4.0)).unwrap();
        drop(journal);
        let err = Journal::open(cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("journal record 1 does not parse"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_a_dirty_interval_journal_waits_on_its_timer() {
        let hour = Duration::from_secs(3600);
        for (policy, waits) in [
            (FsyncPolicy::Always, false),
            (FsyncPolicy::Never, false),
            (FsyncPolicy::Interval(hour), true),
        ] {
            let dir = temp_dir("due");
            let (mut journal, _) = Journal::open(JournalConfig::new(&dir).fsync(policy)).unwrap();
            assert_eq!(journal.sync_due(), None, "{policy}: nothing appended yet");
            journal.append(&publish(1, 1.0)).unwrap();
            assert_eq!(journal.sync_due(), waits.then_some(journal.last_sync + hour), "{policy}");
            journal.sync_lapsed();
            assert_eq!(journal.sync_due(), None, "{policy}: synced");
            journal.append(&publish(2, 2.0)).unwrap();
            journal.poison("injected");
            assert_eq!(journal.sync_due(), None, "{policy}: a poisoned journal has no timer");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoint_keeps_the_fresh_segment_linked() {
        // Two checkpoints in a row: the second's fresh segment has the same
        // name as the first's (no appends between), so the delete pass must
        // not remove the file the journal just opened — appends after it
        // have to land in a *linked* file that recovery can read.
        let dir = temp_dir("ckpt-fresh");
        let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(cfg.clone()).unwrap();
        journal.append(&publish(1, 1.0)).unwrap();
        let snapshot = ctk_core::Monitor::new(ctk_core::Naive::new(0.01)).snapshot();
        journal.checkpoint(&snapshot).unwrap();
        journal.checkpoint(&snapshot).unwrap();
        journal.append(&publish(2, 2.0)).unwrap();
        journal.sync().unwrap();
        let segments = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(SEGMENT_SUFFIX))
            .count();
        assert_eq!(segments, 1, "one live segment after back-to-back checkpoints");
        drop(journal);
        let (_journal, recovery) = Journal::open(cfg).unwrap();
        assert_eq!(recovery.commands, vec![publish(2, 2.0)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `checkpoint.json` is the document earlier builds printed from one
    /// value tree, byte for byte, though no tree is built any more. A
    /// checkpoint whose snapshot member is pretty-printed recovers the same
    /// capture.
    #[test]
    fn checkpoint_bytes_match_the_tree_printed_document_and_pretty_text_recovers() {
        use ctk_core::{EvictionPolicy, QueryOptions, RetentionPolicy};
        use serde::{Number, Serialize};

        let mut monitor = ctk_core::Monitor::new(ctk_core::Naive::new(0.5));
        let tenant = monitor.intern_namespace("tenant \"t\"\n");
        monitor.set_retention(
            tenant,
            RetentionPolicy {
                max_age: Some(1e3),
                max_queries: Some(8),
                eviction: EvictionPolicy::LowestScore,
            },
        );
        for i in 0..6u32 {
            let spec = ctk_common::QuerySpec::uniform(&[TermId(i % 3), TermId(3)], 2).unwrap();
            let namespace = if i % 2 == 0 { tenant } else { ctk_common::Namespace::DEFAULT };
            monitor.register_with(spec, QueryOptions { namespace, max_age: Some(5e2) });
        }
        for i in 0..50u32 {
            monitor.publish(vec![(TermId(i % 4), 1.0), (TermId(3), 0.3)], f64::from(i) * 3.0);
        }
        let snapshot = monitor.snapshot();
        assert!(snapshot.landmark() > 0.0 && snapshot.num_queries() == 6);

        let dir = temp_dir("ckpt-bytes");
        let cfg = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(cfg.clone()).unwrap();
        journal.append(&publish(1, 1.0)).unwrap();
        journal.append(&publish(2, 2.0)).unwrap();
        assert_eq!(journal.checkpoint(&snapshot).unwrap(), 2);
        drop(journal);
        let tree = Value::Object(vec![
            ("format".to_string(), Value::Num(Number::U64(JOURNAL_FORMAT.into()))),
            ("last_seq".to_string(), Value::Num(Number::U64(2))),
            ("snapshot".to_string(), snapshot.to_value()),
        ]);
        let want = serde_json::to_string(&tree).unwrap();
        assert_eq!(fs::read_to_string(dir.join(CHECKPOINT_FILE)).unwrap(), want);

        let captured = serde_json::to_string(&snapshot).unwrap();
        let pretty = serde_json::to_string_pretty(&snapshot).unwrap();
        fs::write(
            dir.join(CHECKPOINT_FILE),
            format!("{{\n  \"format\": 1,\n  \"last_seq\": 2,\n  \"snapshot\": {pretty}\n}}"),
        )
        .unwrap();
        let (_journal, recovery) = Journal::open(cfg).unwrap();
        assert_eq!(recovery.checkpoint_seq, 2);
        let recovered = recovery.snapshot.expect("the pretty checkpoint recovers");
        assert_eq!(serde_json::to_string(&recovered).unwrap(), captured);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsupported_checkpoint_versions_fail_with_clear_errors() {
        let dir = temp_dir("versions");
        fs::create_dir_all(&dir).unwrap();

        // A checkpoint from a hypothetical newer journal format.
        fs::write(dir.join(CHECKPOINT_FILE), r#"{"format": 2, "last_seq": 0, "snapshot": {}}"#)
            .unwrap();
        let err = Journal::open(JournalConfig::new(&dir)).unwrap_err();
        assert!(err.to_string().contains("unsupported journal checkpoint format 2"), "{err}");

        // A checkpoint embedding a snapshot version newer than this build.
        let snapshot = ctk_core::Monitor::new(ctk_core::Naive::new(0.01)).snapshot();
        let future = snapshot.to_json().unwrap().replacen(
            &format!("\"version\":{}", ctk_core::SNAPSHOT_VERSION),
            "\"version\":99",
            1,
        );
        fs::write(
            dir.join(CHECKPOINT_FILE),
            format!(r#"{{"format": 1, "last_seq": 3, "snapshot": {future}}}"#),
        )
        .unwrap();
        let err = Journal::open(JournalConfig::new(&dir)).unwrap_err();
        assert!(err.to_string().contains("unsupported snapshot version 99"), "{err}");

        fs::remove_dir_all(&dir).unwrap();
    }
}
