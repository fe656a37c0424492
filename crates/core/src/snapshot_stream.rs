//! Streaming snapshot serialization: capture a monitor to any
//! [`io::Write`] sink without materializing the full JSON tree.
//!
//! [`Snapshot::to_json`] builds one `serde::Value` tree for the whole
//! capture and then prints it — at large query populations that tree (plus
//! the output `String`) roughly doubles the monitor's resident memory at
//! the worst possible moment, mid-capture on a loaded server.
//! [`SnapshotWriter`] produces **byte-identical** output by streaming it in
//! pieces: the snapshot envelope (version, stream position, namespaces,
//! policies) is serialized once with an empty `shards` list, and each
//! shard section's queries are serialized in small chunks by a pool of
//! worker threads, re-indented, and spliced into the envelope in order.
//! Peak transient memory is a handful of in-flight chunks, independent of
//! the capture size (measured: [`SnapshotStreamStats::peak_buffered_bytes`]).
//!
//! The splicing is sound because the JSON shim's pretty printer is strictly
//! line-structural: it emits two-space indentation, never a literal newline
//! inside a string (control characters are `\n`-escaped), and an empty
//! array always prints as `[]`. A standalone pretty-printed subtree
//! therefore embeds exactly at depth *d* by prefixing every newline with
//! `2·d` spaces — byte-for-byte what the one-pass printer would have
//! written. Both facts are pinned by the byte-equality tests below, so a
//! printer change breaks the build, not the format.
//!
//! Restore needs no counterpart: the streamed output **is** the v3 format,
//! so [`Snapshot::from_json`] (and the server's `POST /restore`) accept it
//! unchanged.

use crate::snapshot::{ShardSnapshot, Snapshot, SnapshotQuery};
use crossbeam::channel::bounded;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Marker where the envelope's (empty) `shards` array sits; everything
/// after the `[` is the envelope's tail.
const SHARDS_SPLIT: &str = "\"shards\": []";
/// Marker where a section envelope's (empty) `queries` array sits.
const QUERIES_SPLIT: &str = "\"queries\": []";

/// Streams a [`Snapshot`] to a sink, byte-identical to
/// [`Snapshot::to_json`], serializing query chunks on worker threads.
///
/// ```
/// use ctk_core::{Monitor, MonitorBackend, Naive, SnapshotWriter};
/// use ctk_common::{QuerySpec, TermId};
///
/// let mut m = Monitor::new(Naive::new(0.0));
/// m.register(QuerySpec::uniform(&[TermId(1)], 2).unwrap());
/// let snapshot = MonitorBackend::snapshot(&m);
/// let mut out = Vec::new();
/// let stats = SnapshotWriter::new().write(&snapshot, &mut out).unwrap();
/// assert_eq!(out, snapshot.to_json().unwrap().into_bytes());
/// assert_eq!(stats.total_bytes, out.len() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    workers: usize,
    chunk_queries: usize,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

/// What one [`SnapshotWriter::write`] call did: output size, job shape, and
/// the writer-side memory high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStreamStats {
    /// Bytes written to the sink (equals the [`Snapshot::to_json`] length).
    pub total_bytes: u64,
    /// Shard sections streamed.
    pub sections: usize,
    /// Query chunks serialized by the worker pool.
    pub query_jobs: usize,
    /// High-water mark of serialized-but-not-yet-written bytes held in the
    /// writer's reorder buffer. Bounded by a few chunks regardless of the
    /// capture size — the measured "never materializes the tree" claim.
    pub peak_buffered_bytes: u64,
    /// Worker threads used.
    pub workers: usize,
}

/// One unit of worker parallelism: a contiguous run of one section's
/// queries, identified by its position in the global write order.
struct Job<'a> {
    section: usize,
    queries: &'a [SnapshotQuery],
}

impl SnapshotWriter {
    /// A writer with the default pool (up to 8 workers, chunks of 64
    /// queries).
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
        SnapshotWriter { workers, chunk_queries: 64 }
    }

    /// Set the worker-thread count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set how many queries each worker job serializes (clamped to at
    /// least 1). Smaller chunks lower peak memory; larger chunks lower
    /// coordination overhead.
    pub fn chunk_queries(mut self, chunk: usize) -> Self {
        self.chunk_queries = chunk.max(1);
        self
    }

    /// Stream `snapshot` to `out`, byte-identical to
    /// [`Snapshot::to_json`]. Returns the run's [`SnapshotStreamStats`].
    pub fn write<W: Write>(
        &self,
        snapshot: &Snapshot,
        out: &mut W,
    ) -> io::Result<SnapshotStreamStats> {
        let mut stats = SnapshotStreamStats {
            sections: snapshot.shards.len(),
            workers: self.workers,
            ..Default::default()
        };
        let mut sink = CountingWrite { inner: out, written: 0 };

        // The envelope: the whole snapshot minus its sections. `shards` is
        // the struct's last field, so the envelope splits cleanly at the
        // empty array.
        let envelope = pretty(&Snapshot {
            version: snapshot.version,
            lambda: snapshot.lambda,
            next_doc: snapshot.next_doc,
            last_arrival: snapshot.last_arrival,
            namespaces: snapshot.namespaces.clone(),
            policies: snapshot.policies.clone(),
            shards: Vec::new(),
        })?;
        if snapshot.shards.is_empty() {
            sink.write_all(envelope.as_bytes())?;
            stats.total_bytes = sink.written;
            return Ok(stats);
        }
        let split = envelope
            .rfind(SHARDS_SPLIT)
            .expect("the envelope of a v3 snapshot ends with an empty shards array");
        // Head ends with the array's `[`; the tail is the envelope's close.
        let (head, tail) = envelope.split_at(split + SHARDS_SPLIT.len() - 1);
        sink.write_all(head.as_bytes())?;

        // One job per run of `chunk_queries` queries, global write order.
        let jobs: Vec<Job<'_>> = snapshot
            .shards
            .iter()
            .enumerate()
            .flat_map(|(section, s)| {
                s.queries.chunks(self.chunk_queries).map(move |queries| Job { section, queries })
            })
            .collect();
        stats.query_jobs = jobs.len();

        self.stream_sections(snapshot, &jobs, &mut sink, &mut stats)?;

        // Close the shards array, then the envelope's tail (`\n}`).
        sink.write_all(b"\n  ]")?;
        sink.write_all(&tail.as_bytes()[1..])?; // skip the split's `]`
        stats.total_bytes = sink.written;
        Ok(stats)
    }

    /// Serialize every job on the pool and splice sections into the sink in
    /// capture order.
    fn stream_sections<W: Write>(
        &self,
        snapshot: &Snapshot,
        jobs: &[Job<'_>],
        sink: &mut CountingWrite<'_, W>,
        stats: &mut SnapshotStreamStats,
    ) -> io::Result<()> {
        // The writer hands out job indices through a bounded queue and never
        // dispatches more than `lookahead` jobs past what it has written.
        // That window — not channel backpressure — is what bounds buffered
        // bytes: a bounded result channel alone cannot, because every recv
        // while waiting for a straggler frees a slot and lets fast workers
        // run arbitrarily far ahead.
        let lookahead = (self.workers * 2).max(2);
        let (job_tx, job_rx) = bounded::<usize>(lookahead);
        let job_rx = std::sync::Mutex::new(job_rx);
        let (res_tx, res_rx) =
            crossbeam::channel::unbounded::<(usize, serde_json::Result<String>)>();
        std::thread::scope(|scope| -> io::Result<()> {
            // Owned by the scope body so it drops (closing the job queue and
            // releasing the workers) before the scope joins them.
            let job_tx = job_tx;
            for _ in 0..self.workers.min(jobs.len()) {
                let job_rx = &job_rx;
                let res_tx = res_tx.clone();
                scope.spawn(move || loop {
                    // The queue is multi-producer single-consumer underneath;
                    // a mutex turns it into the work queue the pool shares.
                    let Ok(i) = job_rx.lock().expect("job queue poisoned").recv() else {
                        break;
                    };
                    if res_tx.send((i, serialize_chunk(jobs[i].queries))).is_err() {
                        break; // writer bailed on an I/O error
                    }
                });
            }
            drop(res_tx);

            // Reorder buffer: results arrive in completion order, the sink
            // needs them in job order. `dispatched - next_write <= lookahead`
            // holds throughout, so at most `lookahead` serialized chunks are
            // ever resident (in the buffer or in flight).
            let mut buffered: BTreeMap<usize, String> = BTreeMap::new();
            let mut buffered_bytes = 0u64;
            let mut dispatched = 0usize;
            let mut next_write = 0usize;
            let mut take = |want: usize,
                            dispatched: &mut usize,
                            buffered: &mut BTreeMap<usize, String>,
                            buffered_bytes: &mut u64|
             -> io::Result<String> {
                while *dispatched < jobs.len() && *dispatched < want + lookahead {
                    job_tx
                        .send(*dispatched)
                        .map_err(|_| io::Error::other("snapshot worker pool died"))?;
                    *dispatched += 1;
                }
                loop {
                    if let Some(text) = buffered.remove(&want) {
                        *buffered_bytes -= text.len() as u64;
                        return Ok(text);
                    }
                    let (i, result) =
                        res_rx.recv().map_err(|_| io::Error::other("snapshot worker pool died"))?;
                    let text = result.map_err(io::Error::from)?;
                    *buffered_bytes += text.len() as u64;
                    stats.peak_buffered_bytes = stats.peak_buffered_bytes.max(*buffered_bytes);
                    buffered.insert(i, text);
                }
            };

            for (section_idx, section) in snapshot.shards.iter().enumerate() {
                if section_idx > 0 {
                    sink.write_all(b",")?;
                }
                sink.write_all(b"\n    ")?;
                // The section envelope, re-indented to its depth in the
                // shards array.
                let envelope = indent(
                    &pretty(&ShardSnapshot { landmark: section.landmark, queries: Vec::new() })?,
                    "    ",
                );
                if section.queries.is_empty() {
                    sink.write_all(envelope.as_bytes())?;
                    continue;
                }
                let split = envelope
                    .rfind(QUERIES_SPLIT)
                    .expect("a section envelope ends with an empty queries array");
                let (head, tail) = envelope.split_at(split + QUERIES_SPLIT.len() - 1);
                sink.write_all(head.as_bytes())?;
                let section_jobs =
                    jobs[next_write..].iter().take_while(|j| j.section == section_idx).count();
                for chunk in 0..section_jobs {
                    if chunk > 0 {
                        sink.write_all(b",")?;
                    }
                    let text =
                        take(next_write, &mut dispatched, &mut buffered, &mut buffered_bytes)?;
                    sink.write_all(text.as_bytes())?;
                    next_write += 1;
                }
                sink.write_all(b"\n      ]")?;
                sink.write_all(&tail.as_bytes()[1..])?; // skip the split's `]`
            }
            Ok(())
        })
    }
}

/// Serialize one run of queries as `shards[i].queries` array elements:
/// each query pretty-printed standalone, re-indented to element depth, and
/// prefixed with the element's newline; elements joined with `,`.
fn serialize_chunk(queries: &[SnapshotQuery]) -> serde_json::Result<String> {
    let mut out = String::new();
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        ");
        out.push_str(&indent(&serde_json::to_string_pretty(q)?, "        "));
    }
    Ok(out)
}

fn pretty<T: serde::Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value).map_err(io::Error::from)
}

/// Re-indent a standalone pretty-printed subtree for embedding: add
/// `extra` after every newline. Exact because the printer never emits a
/// literal newline inside a string.
fn indent(s: &str, extra: &str) -> String {
    let mut out = String::with_capacity(s.len() + extra.len() * 8);
    for c in s.chars() {
        out.push(c);
        if c == '\n' {
            out.push_str(extra);
        }
    }
    out
}

/// Counts what flows through so the caller gets exact output sizes.
struct CountingWrite<'a, W: Write> {
    inner: &'a mut W,
    written: u64,
}

impl<W: Write> Write for CountingWrite<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MonitorBackend;
    use crate::lifecycle::{EvictionPolicy, QueryOptions, RetentionPolicy};
    use crate::monitor::Monitor;
    use crate::naive::Naive;
    use crate::sharded::ShardedMonitor;
    use ctk_common::{QuerySpec, TermId};

    fn streamed(snapshot: &Snapshot, writer: &SnapshotWriter) -> (String, SnapshotStreamStats) {
        let mut out = Vec::new();
        let stats = writer.write(snapshot, &mut out).expect("stream");
        (String::from_utf8(out).expect("utf8 JSON"), stats)
    }

    fn assert_byte_identical(snapshot: &Snapshot, writer: &SnapshotWriter) {
        let want = snapshot.to_json().expect("to_json");
        let (got, stats) = streamed(snapshot, writer);
        assert_eq!(got, want, "streamed snapshot must be byte-identical to to_json");
        assert_eq!(stats.total_bytes, want.len() as u64);
    }

    #[test]
    fn empty_monitor_streams_byte_identical() {
        let m = Monitor::new(Naive::new(0.001));
        assert_byte_identical(&MonitorBackend::snapshot(&m), &SnapshotWriter::new());
    }

    #[test]
    fn no_sections_at_all_streams_byte_identical() {
        // A hand-built capture with zero sections: the envelope's empty
        // `shards` array must come through untouched.
        let snap = Snapshot {
            version: crate::snapshot::SNAPSHOT_VERSION,
            lambda: 0.5,
            next_doc: 7,
            last_arrival: 3.25,
            namespaces: vec![String::new(), "tenant \"a\"\n".to_string()],
            policies: Vec::new(),
            shards: Vec::new(),
        };
        assert_byte_identical(&snap, &SnapshotWriter::new());
    }

    #[test]
    fn populated_sections_stream_byte_identical_under_many_chunkings() {
        // Query mode: several sections, some empty, with lifecycle state,
        // policies, a namespace needing string escapes, renormalized decay
        // frames and real float scores — every piece the splicing must not
        // disturb.
        let mut m = ShardedMonitor::new(3, || Naive::new(0.5));
        let ns = m.intern_namespace("tenant \"x\"\n\t");
        m.set_retention(
            ns,
            RetentionPolicy {
                max_age: Some(1e6),
                max_queries: Some(64),
                eviction: EvictionPolicy::LowestScore,
            },
        );
        for i in 0..17u32 {
            let spec = QuerySpec::uniform(&[TermId(i % 5), TermId(5 + i % 3)], 2).unwrap();
            if i % 3 == 0 {
                m.register_with(spec, QueryOptions { namespace: ns, max_age: Some(5e5) });
            } else {
                m.register(spec);
            }
        }
        // Unregister a whole shard's worth so one section can end up empty
        // only through luck — and definitely uneven.
        for q in [0u32, 3, 6, 9, 12, 15] {
            m.unregister(ctk_common::QueryId(q));
        }
        for i in 0..40u64 {
            // Arrivals up to 160 under λ = 0.5 cross the renorm headroom.
            m.publish(vec![(TermId((i % 5) as u32), 1.0), (TermId(7), 0.3)], i as f64 * 4.0);
        }
        let snap = MonitorBackend::snapshot(&m);
        assert!(snap.num_queries() > 0);

        for (workers, chunk) in [(1, 1), (1, 1000), (4, 1), (4, 3), (8, 64)] {
            assert_byte_identical(
                &snap,
                &SnapshotWriter::new().workers(workers).chunk_queries(chunk),
            );
        }
    }

    #[test]
    fn single_engine_section_streams_byte_identical() {
        let mut m = Monitor::new(Naive::new(0.001));
        for i in 0..9u32 {
            m.register(QuerySpec::uniform(&[TermId(i % 4)], 1).unwrap());
        }
        m.publish_batch(vec![
            (vec![(TermId(1), 1.0)], 1.0),
            (vec![(TermId(2), 0.25)], 2.0),
            (vec![(TermId(3), 0.1)], 3.5),
        ]);
        let snap = MonitorBackend::snapshot(&m);
        assert_eq!(snap.shards.len(), 1);
        assert_byte_identical(&snap, &SnapshotWriter::new().workers(3).chunk_queries(2));
    }

    #[test]
    fn streamed_output_restores_like_the_materialized_one() {
        let mut m = ShardedMonitor::new(2, || Naive::new(0.01));
        let q = m.register(QuerySpec::uniform(&[TermId(1), TermId(2)], 3).unwrap());
        m.publish(vec![(TermId(1), 1.0), (TermId(2), 0.5)], 1.0);
        let snap = MonitorBackend::snapshot(&m);
        let (text, _) = streamed(&snap, &SnapshotWriter::new());
        let parsed = Snapshot::from_json(&text).expect("streamed output is a valid v3 capture");
        let mut restored = ShardedMonitor::new(3, || Naive::new(0.01));
        let mapping = parsed.restore_into(&mut restored);
        assert_eq!(restored.results(mapping[&q]), m.results(q));
    }

    #[test]
    fn peak_buffer_stays_a_few_chunks_regardless_of_capture_size() {
        let mut m = Monitor::new(Naive::new(0.0));
        for i in 0..3000u32 {
            m.register(QuerySpec::uniform(&[TermId(i % 64), TermId(64 + i % 32)], 3).unwrap());
        }
        m.publish(vec![(TermId(3), 1.0)], 1.0);
        let snap = MonitorBackend::snapshot(&m);
        let writer = SnapshotWriter::new().workers(4).chunk_queries(16);
        let (text, stats) = streamed(&snap, &writer);
        assert_eq!(text, snap.to_json().unwrap());
        assert!(stats.query_jobs > 100);
        assert!(
            stats.peak_buffered_bytes < stats.total_bytes / 8,
            "peak buffered {} must stay far below total {}",
            stats.peak_buffered_bytes,
            stats.total_bytes
        );
    }
}
