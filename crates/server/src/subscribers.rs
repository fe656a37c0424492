//! The change-notification fan-out: per-subscriber bounded buffers fed by
//! publish receipts, drained by long-polls.
//!
//! The paper's product surface is the *push* side — subscribers hold
//! standing top-k queries and are told when their result sets change. The
//! ingest thread calls [`SubscriberRegistry::fanout`] with each
//! [`PublishReceipt`]; its grouped `changes_by_query` view is routed to
//! every subscriber whose filter matches. Each subscriber owns a **bounded**
//! ring of pending [`ChangeEvent`]s: a slow poller cannot grow server
//! memory, it loses its *oldest* events instead, and the next poll reports
//! the gap (`dropped` count) so the client knows to re-read
//! `GET /queries/{id}/results` for the authoritative state. Sequence
//! numbers are per-subscriber and gap-free *except* across a reported drop.

use ctk_common::QueryId;
use ctk_core::{PublishReceipt, ResultChange};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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
#[derive(Debug, Clone, Serialize)]
pub struct PollOutcome {
    /// Delivered events, oldest first.
    pub events: Vec<ChangeEvent>,
    /// Events lost to buffer overflow since the previous poll. Non-zero
    /// means the subscriber fell behind; re-read the affected results.
    pub dropped: u64,
    /// True once the server started draining: no further publishes will be
    /// accepted, so once `events` is empty the stream is complete.
    pub draining: bool,
}

struct Subscriber {
    /// `None` subscribes to every query's changes.
    filter: Option<Vec<QueryId>>,
    buffer: VecDeque<ChangeEvent>,
    /// Events dropped (oldest-first) since the last poll reported them.
    dropped: u64,
    next_seq: u64,
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
}

impl SubscriberRegistry {
    pub fn new(capacity: usize) -> SubscriberRegistry {
        assert!(capacity >= 1, "a subscriber buffer needs at least one slot");
        SubscriberRegistry {
            state: Mutex::new(RegistryState::default()),
            wakeup: Condvar::new(),
            capacity,
        }
    }

    /// Add a subscriber; `filter` of `None` receives every change.
    pub fn subscribe(&self, filter: Option<Vec<QueryId>>) -> u64 {
        let mut state = self.state.lock().unwrap();
        let id = state.next_id;
        state.next_id += 1;
        state
            .subscribers
            .push((id, Subscriber { filter, buffer: VecDeque::new(), dropped: 0, next_seq: 0 }));
        id
    }

    /// Remove a subscriber. False when the id is unknown.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut state = self.state.lock().unwrap();
        let before = state.subscribers.len();
        state.subscribers.retain(|(sid, _)| *sid != id);
        let removed = state.subscribers.len() < before;
        if removed {
            // A poller blocked on this subscriber must notice it vanished.
            self.wakeup.notify_all();
        }
        removed
    }

    /// Route a receipt's changes to every matching subscriber. Returns the
    /// number of events buffered (sum over subscribers). With nobody
    /// subscribed this is a lock and a length check: the changes are only
    /// grouped (a clone and a sort of the receipt's change list) once there
    /// is someone to group them for.
    pub fn fanout(&self, receipt: &PublishReceipt) -> u64 {
        if receipt.changes.is_empty() || self.is_empty() {
            return 0;
        }
        // Grouped outside the lock; a subscriber that leaves meanwhile just
        // makes the loop below shorter.
        let grouped = receipt.changes_by_query();
        let mut state = self.state.lock().unwrap();
        let capacity = self.capacity;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for (_, sub) in &mut state.subscribers {
            for (qid, group) in &grouped {
                if let Some(filter) = &sub.filter {
                    if !filter.contains(qid) {
                        continue;
                    }
                }
                for change in group {
                    if sub.buffer.len() == capacity {
                        sub.buffer.pop_front();
                        sub.dropped += 1;
                        dropped += 1;
                    }
                    sub.buffer.push_back(ChangeEvent { seq: sub.next_seq, change: *change });
                    sub.next_seq += 1;
                    delivered += 1;
                }
            }
        }
        state.total_delivered += delivered;
        state.total_dropped += dropped;
        drop(state);
        if delivered > 0 {
            self.wakeup.notify_all();
        }
        delivered
    }

    /// Long-poll one subscriber: block until it has buffered events, the
    /// server drains, or `timeout` elapses — whichever comes first — then
    /// drain up to `max_events` of them. `None` when the subscriber is
    /// unknown (or was unsubscribed mid-poll).
    pub fn poll(&self, id: u64, max_events: usize, timeout: Duration) -> Option<PollOutcome> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            let draining = state.draining;
            let sub = match state.subscribers.iter_mut().find(|(sid, _)| *sid == id) {
                None => return None,
                Some((_, sub)) => sub,
            };
            if !sub.buffer.is_empty() || sub.dropped > 0 || draining {
                let take = sub.buffer.len().min(max_events);
                let events: Vec<ChangeEvent> = sub.buffer.drain(..take).collect();
                let dropped = std::mem::take(&mut sub.dropped);
                return Some(PollOutcome { events, dropped, draining });
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(PollOutcome { events: Vec::new(), dropped: 0, draining });
            }
            let (next, timed_out) = self.wakeup.wait_timeout(state, deadline - now).unwrap();
            state = next;
            if timed_out.timed_out() {
                // Fall through one more pass so a race with fanout still
                // delivers what arrived at the deadline.
            }
        }
    }

    /// Rewrite every subscriber filter through a restore's old-id → new-id
    /// mapping (sorted by old id). A filtered id that survived the restore
    /// follows its query to the new id; ids the snapshot did not carry are
    /// dropped from the filter — the queries they named no longer exist, so
    /// keeping them would subscribe to whatever query is registered into
    /// that slot next. Unfiltered (`None`) subscribers are untouched.
    pub fn remap_filters(&self, mapping: &[(QueryId, QueryId)]) {
        let mut state = self.state.lock().unwrap();
        for (_, sub) in &mut state.subscribers {
            if let Some(filter) = &mut sub.filter {
                filter.retain_mut(|qid| match mapping.binary_search_by_key(qid, |&(old, _)| old) {
                    Ok(i) => {
                        *qid = mapping[i].1;
                        true
                    }
                    Err(_) => false,
                });
            }
        }
    }

    /// Begin draining: wake every blocked poller. Buffered events remain
    /// readable — polls drain them with `draining: true` — but no new ones
    /// will arrive.
    pub fn begin_drain(&self) {
        self.state.lock().unwrap().draining = true;
        self.wakeup.notify_all();
    }

    /// Number of live subscribers.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().subscribers.len()
    }

    /// True when no subscriber is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(delivered, dropped)` lifetime totals across all subscribers.
    pub fn totals(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap();
        (state.total_delivered, state.total_dropped)
    }
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
    fn remap_follows_mapping_and_drops_strays() {
        let reg = SubscriberRegistry::new(16);
        let filtered = reg.subscribe(Some(vec![QueryId(0), QueryId(2), QueryId(5)]));
        let all = reg.subscribe(None);
        // Restore mapped 0→0 and 2→1; query 5 did not survive the snapshot.
        reg.remap_filters(&[(QueryId(0), QueryId(0)), (QueryId(2), QueryId(1))]);
        reg.fanout(&receipt(vec![(1, 10), (2, 11), (5, 12)]));
        let out = reg.poll(filtered, 64, Duration::ZERO).unwrap();
        assert_eq!(out.events.len(), 1, "only remapped id 1 matches now");
        assert_eq!(out.events[0].change.query, QueryId(1));
        let out = reg.poll(all, 64, Duration::ZERO).unwrap();
        assert_eq!(out.events.len(), 3, "unfiltered subscribers are untouched");
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
