//! The change-notification fan-out: per-subscriber bounded buffers fed by
//! publish receipts, drained by long-polls.
//!
//! The paper's product surface is the *push* side — subscribers hold
//! standing top-k queries and are told when their result sets change. The
//! ingest thread calls [`SubscriberRegistry::fanout_json`] with each
//! [`PublishReceipt`]. Each subscriber owns a **bounded** ring of pending
//! [`ChangeEvent`]s: a slow poller cannot grow server memory, it loses its
//! *oldest* events instead, and the next poll reports the gap (`dropped`
//! count) so the client knows to re-read `GET /queries/{id}/results` for the
//! authoritative state. Sequence numbers are per-subscriber and gap-free
//! *except* across a reported drop.
//!
//! # Who encodes
//!
//! Every change crosses JSON once. With at least one subscriber, fan-out
//! prints the receipt's changes into one comma-joined text, in receipt
//! order, and hands that text back: the publish handler splices it into the
//! receipt body as is. Each subscriber matching a change gets a copy of that
//! change's bytes in its own text buffer beside its ring, and a poll writes
//! those bytes between `{"seq":N,"change":` and `}`. Nothing is printed for
//! a quiet receipt or when nobody subscribes; the handler then prints the
//! changes itself. The printing happens before the registry lock is taken,
//! so polls, subscribes and `/stats` wait only for the copies.
//!
//! A change with no JSON spelling (a non-finite score, which a server
//! without a journal admits) cannot be delivered: each subscriber it matches
//! counts it as dropped, so the next poll reports the gap, while the
//! receipt's printable changes are routed as usual. Fan-out then hands back
//! no text, and the publish handler's own printing fails with the writer's
//! error (a 500), as it always has.
//!
//! A ring never holds another receipt's text, only copies of its own
//! events' bytes. Bytes of delivered or dropped events form a dead prefix
//! that is cut off once it passes half the buffer, so a subscriber's buffer
//! holds at most `capacity` × the largest change of live bytes and at most
//! twice that in all, however long it goes unpolled.

use ctk_common::QueryId;
use ctk_core::{PublishReceipt, ResultChange};
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Room reserved per change for printed changes: a change with an evicted
/// entry and 17-digit scores prints ≈ 115 bytes, so the text rarely grows.
pub(crate) const CHANGE_JSON_BYTES: usize = 128;

/// One pushed change notification: a per-subscriber sequence number plus
/// the result change itself, exactly as the publish receipt reported it.
#[derive(Debug, Clone, Serialize)]
pub struct ChangeEvent {
    /// Per-subscriber sequence number, starting at 0. Consecutive unless
    /// the poll that delivered this event also reported a non-zero gap.
    pub seq: u64,
    /// The result-set change, bit-identical to the receipt's entry.
    pub change: ResultChange,
}

/// What one long-poll returns.
#[derive(Debug, Clone)]
pub struct PollOutcome {
    /// Delivered events, oldest first.
    pub events: Vec<ChangeEvent>,
    /// Events lost to buffer overflow since the previous poll. Non-zero
    /// means the subscriber fell behind; re-read the affected results.
    pub dropped: u64,
    /// True once the server started draining: no further publishes will be
    /// accepted, so once `events` is empty the stream is complete.
    pub draining: bool,
    /// The events' changes as fan-out printed them, back to back: event
    /// `i`'s JSON ends at byte `ends[i]`.
    text: String,
    ends: Vec<usize>,
}

impl Serialize for PollOutcome {
    /// The reference tree, built from the events' typed changes.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("events".to_string(), self.events.to_value()),
            ("dropped".to_string(), self.dropped.to_value()),
            ("draining".to_string(), self.draining.to_value()),
        ])
    }

    /// The tree's bytes, with each change copied from the text fan-out
    /// printed instead of printed again.
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        out.reserve(self.text.len() + 32 * self.events.len() + 48);
        out.push_str("{\"events\":[");
        let mut start = 0;
        for (i, (event, &end)) in self.events.iter().zip(&self.ends).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"seq\":");
            event.seq.write_json(out)?;
            out.push_str(",\"change\":");
            out.push_str(&self.text[start..end]);
            out.push('}');
            start = end;
        }
        out.push_str("],\"dropped\":");
        self.dropped.write_json(out)?;
        out.push_str(",\"draining\":");
        self.draining.write_json(out)?;
        out.push('}');
        Ok(())
    }
}

/// One subscriber's pending events and their JSON. Text offsets count bytes
/// of everything ever buffered, so cutting the dead prefix moves no event.
struct Subscriber {
    /// `None` subscribes to every query's changes.
    filter: Option<Vec<QueryId>>,
    /// Pending events, oldest first, each with the offset where its
    /// change's JSON ends.
    ring: VecDeque<(ChangeEvent, usize)>,
    /// The pending changes' JSON back to back, after a dead prefix of
    /// delivered or dropped ones; `text[0]` is at offset `base`.
    text: String,
    base: usize,
    /// Where the oldest pending change's JSON starts.
    head: usize,
    /// Events dropped (oldest-first) since the last poll reported them.
    dropped: u64,
    next_seq: u64,
}

impl Subscriber {
    fn new(filter: Option<Vec<QueryId>>) -> Subscriber {
        Subscriber {
            filter,
            ring: VecDeque::new(),
            text: String::new(),
            base: 0,
            head: 0,
            dropped: 0,
            next_seq: 0,
        }
    }

    fn wants(&self, query: QueryId) -> bool {
        self.filter.as_ref().is_none_or(|filter| filter.contains(&query))
    }

    /// Buffer `change`, whose JSON is `json`, displacing the oldest event
    /// when the ring is full. True when an event was dropped.
    fn push(&mut self, change: ResultChange, json: &str, capacity: usize) -> bool {
        let full = self.ring.len() == capacity;
        if full {
            let (_, end) = self.ring.pop_front().expect("a full ring holds an event");
            self.head = end;
            self.dropped += 1;
            self.compact();
        }
        self.text.push_str(json);
        let end = self.base + self.text.len();
        self.ring.push_back((ChangeEvent { seq: self.next_seq, change }, end));
        self.next_seq += 1;
        full
    }

    /// Cut the dead prefix once it passes half the text.
    fn compact(&mut self) {
        let dead = self.head - self.base;
        if 2 * dead > self.text.len() {
            self.text.drain(..dead);
            self.base = self.head;
        }
    }

    /// Hand over up to `max_events` pending events with their JSON.
    fn drain(&mut self, max_events: usize, draining: bool) -> PollOutcome {
        let take = self.ring.len().min(max_events);
        let start = self.head;
        let mut events = Vec::with_capacity(take);
        let mut ends = Vec::with_capacity(take);
        for (event, end) in self.ring.drain(..take) {
            events.push(event);
            ends.push(end - start);
        }
        self.head = start + ends.last().copied().unwrap_or(0);
        let text = self.text[start - self.base..self.head - self.base].to_string();
        self.compact();
        let dropped = std::mem::take(&mut self.dropped);
        PollOutcome { events, dropped, draining, text, ends }
    }
}

#[derive(Default)]
struct RegistryState {
    subscribers: Vec<(u64, Subscriber)>,
    next_id: u64,
    draining: bool,
    total_dropped: u64,
    total_delivered: u64,
}

/// The shared subscriber table. All methods take `&self`; the ingest thread
/// fans out while connection handlers poll.
pub struct SubscriberRegistry {
    state: Mutex<RegistryState>,
    wakeup: Condvar,
    /// Per-subscriber buffered-event cap (drop-oldest beyond it).
    capacity: usize,
    /// `state.subscribers.len()`, written under the lock, so fan-out can
    /// skip the printing and the lock when nobody subscribes.
    count: AtomicUsize,
}

impl SubscriberRegistry {
    pub fn new(capacity: usize) -> SubscriberRegistry {
        assert!(capacity >= 1, "a subscriber buffer needs at least one slot");
        SubscriberRegistry {
            state: Mutex::new(RegistryState::default()),
            wakeup: Condvar::new(),
            capacity,
            count: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RegistryState> {
        self.state.lock().expect("no thread panics while holding the subscriber table")
    }

    /// Add a subscriber; `filter` of `None` receives every change.
    pub fn subscribe(&self, filter: Option<Vec<QueryId>>) -> u64 {
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.subscribers.push((id, Subscriber::new(filter)));
        self.count.store(state.subscribers.len(), Ordering::Relaxed);
        id
    }

    /// Remove a subscriber. False when the id is unknown.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut state = self.lock();
        let before = state.subscribers.len();
        state.subscribers.retain(|(sid, _)| *sid != id);
        let removed = state.subscribers.len() < before;
        self.count.store(state.subscribers.len(), Ordering::Relaxed);
        if removed {
            // A poller blocked on this subscriber must notice it vanished.
            self.wakeup.notify_all();
        }
        removed
    }

    /// Route a receipt's changes to every matching subscriber. Returns the
    /// number of events buffered (sum over subscribers).
    pub fn fanout(&self, receipt: &PublishReceipt) -> u64 {
        self.route(receipt).0
    }

    /// [`SubscriberRegistry::fanout`], returning the text the subscribers'
    /// copies came from: the receipt's changes as JSON, comma-joined in
    /// receipt order — the inside of the receipt's `"changes"` array. `None`
    /// when the text is not the whole array: a quiet receipt, nobody
    /// subscribed, or a change with no JSON spelling (a non-finite score),
    /// which every subscriber it matches counts as dropped.
    pub fn fanout_json(&self, receipt: &PublishReceipt) -> Option<String> {
        self.route(receipt).1
    }

    /// With nobody subscribed this is one atomic load. The changes are
    /// printed and ordered before the lock is taken; under it each matching
    /// subscriber only copies its changes' bytes.
    fn route(&self, receipt: &PublishReceipt) -> (u64, Option<String>) {
        let changes = &receipt.changes;
        if changes.is_empty() || self.is_empty() {
            return (0, None);
        }
        let (json, spans) = encode(changes);
        // Ascending query id, document order within a query.
        let mut order: Vec<usize> = (0..changes.len()).collect();
        order.sort_unstable_by_key(|&i| (changes[i].query, changes[i].inserted.doc, i));
        let capacity = self.capacity;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut state = self.lock();
        for (_, sub) in &mut state.subscribers {
            for &i in &order {
                let change = changes[i];
                if !sub.wants(change.query) {
                    continue;
                }
                match &spans[i] {
                    Some(span) => {
                        dropped += u64::from(sub.push(change, &json[span.clone()], capacity));
                        delivered += 1;
                    }
                    None => {
                        sub.dropped += 1;
                        dropped += 1;
                    }
                }
            }
        }
        state.total_delivered += delivered;
        state.total_dropped += dropped;
        drop(state);
        if delivered + dropped > 0 {
            self.wakeup.notify_all();
        }
        (delivered, spans.iter().all(Option::is_some).then_some(json))
    }

    /// Long-poll one subscriber: block until it has buffered events, the
    /// server drains, or `timeout` elapses — whichever comes first — then
    /// drain up to `max_events` of them. `None` when the subscriber is
    /// unknown (or was unsubscribed mid-poll).
    pub fn poll(&self, id: u64, max_events: usize, timeout: Duration) -> Option<PollOutcome> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let draining = state.draining;
            let sub = match state.subscribers.iter_mut().find(|(sid, _)| *sid == id) {
                None => return None,
                Some((_, sub)) => sub,
            };
            let now = Instant::now();
            if !sub.ring.is_empty() || sub.dropped > 0 || draining || now >= deadline {
                return Some(sub.drain(max_events, draining));
            }
            let (next, timed_out) = self.wakeup.wait_timeout(state, deadline - now).unwrap();
            state = next;
            if timed_out.timed_out() {
                // Fall through one more pass so a race with fanout still
                // delivers what arrived at the deadline.
            }
        }
    }

    /// Begin draining: wake every blocked poller. Buffered events remain
    /// readable — polls drain them with `draining: true` — but no new ones
    /// will arrive.
    pub fn begin_drain(&self) {
        self.lock().draining = true;
        self.wakeup.notify_all();
    }

    /// Number of live subscribers.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when no subscriber is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(delivered, dropped)` lifetime totals across all subscribers.
    pub fn totals(&self) -> (u64, u64) {
        let state = self.lock();
        (state.total_delivered, state.total_dropped)
    }
}

/// The changes' JSON, comma-joined in order, with each change's byte range.
/// A change with no JSON spelling has no range, and the text is then not
/// a valid list; the ranges of the others still hold.
fn encode(changes: &[ResultChange]) -> (String, Vec<Option<Range<usize>>>) {
    let mut json = String::with_capacity(changes.len() * CHANGE_JSON_BYTES);
    let spans = changes.iter().map(|change| push_change(&mut json, 0, change).ok()).collect();
    (json, spans)
}

/// Append `change`'s JSON to `out` as the next item of the comma-joined
/// list that starts at byte `list`, and return the range of the change's
/// own bytes. On `Err` (a non-finite score) `out` holds a partial item.
pub(crate) fn push_change(
    out: &mut String,
    list: usize,
    change: &ResultChange,
) -> Result<Range<usize>, serde::Error> {
    if out.len() > list {
        out.push(',');
    }
    let start = out.len();
    change.write_json(out)?;
    Ok(start..out.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_common::{DocId, ScoredDoc};

    fn receipt(changes: Vec<(u32, u64)>) -> PublishReceipt {
        PublishReceipt {
            doc_ids: changes.iter().map(|&(_, d)| DocId(d)).collect(),
            changes: changes
                .into_iter()
                .map(|(q, d)| ResultChange {
                    query: QueryId(q),
                    inserted: ScoredDoc::new(DocId(d), 1.0),
                    evicted: None,
                })
                .collect(),
            stats: Vec::new(),
        }
    }

    #[test]
    fn fanout_respects_filters_and_orders_events() {
        let reg = SubscriberRegistry::new(16);
        let all = reg.subscribe(None);
        let only_q1 = reg.subscribe(Some(vec![QueryId(1)]));
        let delivered = reg.fanout(&receipt(vec![(2, 10), (1, 11), (1, 12)]));
        assert_eq!(delivered, 5, "3 to the unfiltered subscriber, 2 to the filtered one");

        let out = reg.poll(all, 64, Duration::ZERO).unwrap();
        assert_eq!(out.events.len(), 3);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        // changes_by_query order: ascending query id, doc order within.
        assert_eq!(out.events[0].change.query, QueryId(1));
        assert_eq!(out.events[0].change.inserted.doc, DocId(11));
        assert_eq!(out.events[2].change.query, QueryId(2));

        let out = reg.poll(only_q1, 64, Duration::ZERO).unwrap();
        assert_eq!(out.events.len(), 2);
        assert!(out.events.iter().all(|e| e.change.query == QueryId(1)));
    }

    #[test]
    fn fanout_json_is_the_receipts_changes_array_inside() {
        let reg = SubscriberRegistry::new(16);
        let busy = receipt(vec![(2, 10), (1, 11)]);
        assert_eq!(reg.fanout_json(&busy), None, "nobody subscribed");
        reg.subscribe(Some(vec![QueryId(7)]));
        let json = reg.fanout_json(&busy).expect("someone subscribed");
        assert_eq!(format!("[{json}]"), serde_json::to_string(&busy.changes).unwrap());
        assert_eq!(reg.fanout_json(&receipt(Vec::new())), None, "a quiet receipt");
        assert_eq!(reg.totals(), (0, 0), "the filter matched nothing");
    }

    #[test]
    fn overflow_drops_oldest_and_reports_the_gap() {
        let reg = SubscriberRegistry::new(2);
        let id = reg.subscribe(None);
        reg.fanout(&receipt(vec![(1, 1), (1, 2), (1, 3), (1, 4)]));
        let out = reg.poll(id, 64, Duration::ZERO).unwrap();
        assert_eq!(out.dropped, 2, "two oldest events were displaced");
        assert_eq!(out.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(out.events[0].change.inserted.doc, DocId(3));
        // The gap is reported once.
        let out = reg.poll(id, 64, Duration::ZERO).unwrap();
        assert_eq!((out.events.len(), out.dropped), (0, 0));
    }

    #[test]
    fn an_unpolled_buffer_stays_bounded_by_its_ring() {
        let capacity = 8;
        let reg = SubscriberRegistry::new(capacity);
        let id = reg.subscribe(None);
        let mut largest = 0;
        for round in 0..10_000u64 {
            // Query ids and scores of every width, so fragments differ.
            let changes: Vec<ResultChange> = (0..1 + round % 5)
                .map(|j| ResultChange {
                    query: QueryId((round * 7919 + j) as u32 % 100_000),
                    inserted: ScoredDoc::new(DocId(round), 1.0 / (1 + round % 13) as f64),
                    evicted: (round % 3 == 0).then(|| ScoredDoc::new(DocId(j), 0.5)),
                })
                .collect();
            for change in &changes {
                largest = largest.max(serde_json::to_string(change).unwrap().len());
            }
            reg.fanout(&PublishReceipt { doc_ids: vec![DocId(round)], changes, stats: vec![] });
        }
        let state = reg.lock();
        let sub = &state.subscribers[0].1;
        let live = sub.base + sub.text.len() - sub.head;
        assert!(sub.ring.len() <= capacity);
        assert!(live <= capacity * largest, "{live} live bytes");
        assert!(sub.text.len() <= 2 * capacity * largest, "{} bytes held", sub.text.len());
        assert!(sub.text.capacity() <= 4 * capacity * largest, "{} allocated", sub.text.capacity());
        drop(state);
        let out = reg.poll(id, usize::MAX, Duration::ZERO).unwrap();
        assert_eq!(out.events.len(), capacity);
        assert_eq!(
            serde_json::to_string(&out).unwrap(),
            serde_json::to_string(&out.to_value()).unwrap()
        );
    }

    #[test]
    fn poll_blocks_until_fanout() {
        let reg = std::sync::Arc::new(SubscriberRegistry::new(16));
        let id = reg.subscribe(None);
        let poller = {
            let reg = std::sync::Arc::clone(&reg);
            std::thread::spawn(move || reg.poll(id, 64, Duration::from_secs(10)).unwrap())
        };
        // Give the poller a moment to block, then wake it with an event.
        std::thread::sleep(Duration::from_millis(30));
        reg.fanout(&receipt(vec![(1, 5)]));
        let out = poller.join().unwrap();
        assert_eq!(out.events.len(), 1);
        assert!(!out.draining);
    }

    #[test]
    fn drain_wakes_pollers_and_flushes_buffers() {
        let reg = std::sync::Arc::new(SubscriberRegistry::new(16));
        let id = reg.subscribe(None);
        reg.fanout(&receipt(vec![(1, 5)]));
        reg.begin_drain();
        // Buffered events still drain out, flagged as draining.
        let out = reg.poll(id, 64, Duration::from_secs(10)).unwrap();
        assert_eq!(out.events.len(), 1);
        assert!(out.draining);
        // An empty post-drain poll returns immediately instead of blocking.
        let start = Instant::now();
        let out = reg.poll(id, 64, Duration::from_secs(10)).unwrap();
        assert!(out.events.is_empty() && out.draining);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn unknown_and_removed_subscribers_are_none() {
        let reg = SubscriberRegistry::new(4);
        assert!(reg.poll(7, 1, Duration::ZERO).is_none());
        let id = reg.subscribe(None);
        assert!(reg.unsubscribe(id));
        assert!(!reg.unsubscribe(id));
        assert!(reg.poll(id, 1, Duration::ZERO).is_none());
        assert!(reg.is_empty());
    }
}
