//! Captures in the shape the query-sharded builds wrote: one section per
//! shard, all at the same landmark. The snapshot format keeps reading
//! them, so the tests that restore a capture also restore this shape.

use continuous_topk::prelude::{ShardSnapshot, Snapshot};

/// `snapshot`'s queries dealt round-robin, in captured order, into
/// `sections` sections at its landmark: the capture a build with that
/// many query shards wrote of the same state.
pub fn dealt(snapshot: &Snapshot, sections: usize) -> Snapshot {
    let mut dealt = snapshot.clone();
    let landmark = snapshot.landmark();
    dealt.shards = vec![ShardSnapshot { landmark, queries: Vec::new() }; sections];
    for (i, query) in snapshot.queries().enumerate() {
        dealt.shards[i % sections].queries.push(query.clone());
    }
    dealt
}
