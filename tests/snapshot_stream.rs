//! Streaming-snapshot scale check: a six-figure query population streams
//! through [`Snapshot::write_json`] one query at a time.
//!
//! The writer's claim is that it never holds more than one query's text:
//! `POST /snapshot?stream=1` and the journal checkpoint exist so a large
//! monitor is captured without the daemon materializing the whole document.
//! This test pins that at a size where it matters: 100k queries across four
//! shards, streamed into a sink that records every write, with the largest
//! single write asserted to stay a few KiB while tens of MB go through —
//! and the bytes equal to the derived compact writer's.

use continuous_topk::prelude::*;
use std::io;

/// Keeps what it is given and the size of the largest single write.
#[derive(Default)]
struct RecordingSink {
    bytes: Vec<u8>,
    largest_write: usize,
}

impl io::Write for RecordingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.largest_write = self.largest_write.max(buf.len());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn hundred_k_query_snapshot_streams_with_bounded_buffering() {
    let mut monitor = ShardedMonitor::new(4, || Naive::new(1e-3));
    for i in 0..100_000u32 {
        let spec = QuerySpec::uniform(&[TermId(i % 512), TermId(512 + i % 1024)], 3).unwrap();
        monitor.register(spec);
    }
    // Some published state so the captured queries carry result sets, not
    // just registrations.
    monitor.publish_batch(
        (0..256u32).map(|d| (vec![(TermId(d % 512), 1.0f32)], f64::from(d))).collect(),
    );

    let snapshot = MonitorBackend::snapshot(&monitor);
    assert_eq!(snapshot.shards.len(), 4, "one section per shard");
    let mut sink = RecordingSink::default();
    snapshot.write_json(&mut sink).expect("streaming serialization");

    assert!(
        sink.bytes == serde_json::to_string(&snapshot).unwrap().into_bytes(),
        "the stream must equal the derived compact writer's text"
    );
    assert!(
        sink.bytes.len() > 10 * 1024 * 1024,
        "a 100k-query capture is tens of MB ({} bytes)",
        sink.bytes.len()
    );
    // The bound under test: no write carries more than a query's text (plus
    // the envelope or a section header), far below the whole document.
    assert!(
        sink.largest_write <= 4096,
        "largest write {} bytes of {} — streaming degenerated into materializing",
        sink.largest_write,
        sink.bytes.len()
    );
}
