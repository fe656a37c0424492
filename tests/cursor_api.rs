//! The one cursor API, on both postings backends at once.
//!
//! Plain and compressed indexes receive the same random sequence of registrations
//! (list pushes, with id gaps), unregistrations (tombstones) and
//! compactions; between those, two cursor sets per backend are driven
//! through the same random `advance_to` / `advance_past_current` /
//! `advance_to_pos` / `probe` / `read_below` steps, except that on a
//! `read_below` the second set of each backend steps with
//! `advance_past_current` instead. After every step the cursors must agree
//! on `(pos, qid, weight)`, every run read must be the postings stepping
//! visits, and at the end of every pass the compressed backend must have
//! decoded no sealed block twice.

use ctk_common::{DocId, Document, QueryId, SparseVector, TermId};
use ctk_core::engine::{CursorSet, EXHAUSTED};
use ctk_index::{PostingsStorage, QueryIndex, StorageConfig};
use proptest::prelude::*;

/// Postings per sealed block (asserted equal to `ctk_storage::BLOCK_LEN`).
const BLOCK: usize = ctk_index::block_max::DEFAULT_BLOCK;
const HOT: TermId = TermId(1);
const WARM: TermId = TermId(2);

fn backends() -> Vec<QueryIndex> {
    [StorageConfig::plain(), StorageConfig::new(PostingsStorage::Compressed)]
        .iter()
        .map(QueryIndex::with_storage)
        .collect()
}

/// The query registered at step `i` of a burst: on the hot list, the warm
/// list, both, or neither (which leaves an id gap in both).
fn query_vector(salt: u32, i: u32) -> SparseVector {
    let weight = 0.25 + ((salt + i) % 13) as f32;
    let mut pairs = match (salt / 3 + i) % 5 {
        0 | 1 => vec![(HOT, weight)],
        2 => vec![(HOT, weight), (WARM, 1.0)],
        3 => vec![(WARM, weight)],
        _ => vec![(TermId(100 + (salt + i) % 7), 1.0)],
    };
    pairs.push((TermId(50 + i % 3), 0.5));
    let mut vector = SparseVector::from_pairs(pairs);
    vector.normalize();
    vector
}

/// What one cursor shows: its list, position, qid and (unless exhausted)
/// the weight bits under it.
type Seen = (u32, usize, QueryId, Option<u32>);

fn observe(cs: &CursorSet) -> Vec<Seen> {
    cs.cursors
        .iter()
        .map(|c| {
            let weight = (c.qid != EXHAUSTED).then(|| c.weight.to_bits());
            (c.list, c.pos(), c.qid, weight)
        })
        .collect()
}

/// Sealed blocks of the lists `doc` matches: the most a pass may decode.
fn sealed_blocks(index: &QueryIndex, doc: &Document) -> u64 {
    doc.vector
        .iter()
        .filter_map(|(term, _)| index.list_of_term(term))
        .map(|li| (index.list(li).len() / BLOCK) as u64)
        .sum()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn cursors_agree_on_every_backend(
        ops in prop::collection::vec((0u32..=9, 0u32..10_000, 1u32..=150), 4..28),
    ) {
        let mut indexes = backends();
        // Set `i` reads backend `i % 3`; the second three step through runs.
        let mut sets: Vec<CursorSet> =
            (0..2 * indexes.len()).map(|_| CursorSet::default()).collect();
        let mut live: Vec<QueryId> = Vec::new();
        let doc = Document::new(DocId(0), vec![(HOT, 1.0), (WARM, 0.5), (TermId(999), 1.0)], 0.0);

        for (kind, salt, count) in ops {
            match kind {
                // Push: a burst of registrations (crosses block seals).
                0..=3 => {
                    for i in 0..count {
                        let vector = query_vector(salt, i);
                        let ids: Vec<QueryId> =
                            indexes.iter_mut().map(|ix| ix.register(&vector, 1)).collect();
                        prop_assert!(ids.iter().all(|&id| id == ids[0]));
                        live.push(ids[0]);
                    }
                }
                // Tombstone: unregister a handful of live queries.
                4 | 5 => {
                    for i in 0..(count % 12).min(live.len() as u32) {
                        let victim = live.swap_remove((salt + i * 31) as usize % live.len());
                        for ix in &mut indexes {
                            prop_assert!(ix.unregister(victim).is_some());
                        }
                    }
                }
                // Compact: the re-sealing point of the compressed layouts.
                6 => {
                    let changed: Vec<Vec<u32>> = indexes.iter_mut().map(|ix| ix.compact()).collect();
                    prop_assert!(changed.iter().all(|c| *c == changed[0]));
                }
                // Read: one pass of random cursor steps, in lockstep.
                _ => {
                    let decoded_before: Vec<u64> = sets.iter().map(|cs| cs.blocks_decoded()).collect();
                    let built: Vec<usize> = sets
                        .iter_mut()
                        .zip(indexes.iter().cycle())
                        .map(|(cs, ix)| cs.build(ix, &doc))
                        .collect();
                    prop_assert!(built.iter().all(|&m| m == built[0]));
                    let mut rng = u64::from(salt) * 2 + 1;
                    for _ in 0..count {
                        let view = observe(&sets[0]);
                        for cs in &sets[1..] {
                            prop_assert_eq!(&observe(cs), &view);
                        }
                        if view.is_empty() {
                            break;
                        }
                        let r = xorshift(&mut rng);
                        let which = (r >> 8) as usize % view.len();
                        let (_, pos, qid, _) = view[which];
                        // Mostly short hops, sometimes several blocks.
                        let hop = if r & 7 == 0 { (r >> 20) % 700 } else { (r >> 20) % 9 } as u32;
                        let target = QueryId(qid.0.saturating_add(hop).min(EXHAUSTED.0 - 1));
                        let (mut probes, mut runs) = (Vec::new(), Vec::new());
                        let pairs = sets.iter_mut().zip(indexes.iter().cycle());
                        for (i, (cs, ix)) in pairs.enumerate() {
                            let CursorSet { cursors, blocks } = cs;
                            let c = &mut cursors[which];
                            let mut run = Vec::new();
                            match (r >> 4) % 5 {
                                0 if qid != EXHAUSTED => c.advance_past_current(ix, blocks),
                                1 => c.advance_to(ix, blocks, target),
                                2 => c.advance_to_pos(ix, blocks, pos + hop as usize / 2),
                                3 => probes.push(c.probe(ix, blocks, target)),
                                // A run below `target` (a no-op once exhausted).
                                _ if i < indexes.len() => {
                                    c.read_below(ix, blocks, target, |p, q, w| {
                                        run.push((p, q, w.to_bits()));
                                    })
                                }
                                _ => {
                                    while c.qid < target {
                                        run.push((c.pos(), c.qid, c.weight.to_bits()));
                                        c.advance_past_current(ix, blocks);
                                    }
                                }
                            }
                            runs.push(run);
                        }
                        prop_assert!(probes.iter().all(|&p| p == probes[0]), "probe: {:?}", probes);
                        prop_assert!(runs.iter().all(|r| *r == runs[0]), "runs: {:?}", runs);
                    }
                    let pairs = sets.iter().zip(indexes.iter().cycle());
                    for ((cs, ix), before) in pairs.zip(decoded_before) {
                        let decoded = cs.blocks_decoded() - before;
                        if ix.storage_config().storage == PostingsStorage::Plain {
                            prop_assert_eq!(decoded, 0);
                        } else {
                            prop_assert!(
                                decoded <= sealed_blocks(ix, &doc),
                                "{} decodes over {} sealed blocks",
                                decoded,
                                sealed_blocks(ix, &doc)
                            );
                        }
                    }
                }
            }
        }
    }
}
