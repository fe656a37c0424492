//! Property-based tests (proptest) over the core invariants.
//!
//! Three layers:
//! 1. **Sparse-vector algebra** — construction canonicalizes, normalization
//!    yields unit norm, dot is symmetric and Cauchy–Schwarz-bounded.
//! 2. **Top-k state** — after any offer sequence, the set holds exactly the
//!    k best candidates under the deterministic tie-break order, and the
//!    threshold equals the k-th best.
//! 3. **Whole-system equivalence** — on arbitrary random query sets and
//!    document streams, every pruning algorithm maintains results identical
//!    to the exhaustive oracle (the paper's exactness claim, adversarially
//!    sampled).
//! 4. **Zone maxima** — the segment tree answers every read exactly as the
//!    scan reference does, at any length and capacity.
//! 5. **Records** — through any register / unregister / compact sequence,
//!    each live query's record holds exactly the list ids of its terms, in
//!    order, and every posting it points at is its own.

use continuous_topk::index::{zone::ScanZoneMax, MaxSegTree, QueryIndex, ZoneMax};
use continuous_topk::prelude::*;
use ctk_baselines::{Rta, SortQuer, Tps};
use proptest::prelude::*;

// ---------------------------------------------------------------- layer 1

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_vector_canonical_form(pairs in prop::collection::vec((0u32..50, 0.01f32..5.0), 0..30)) {
        let v = SparseVector::from_pairs(
            pairs.iter().map(|&(t, w)| (TermId(t), w)).collect(),
        );
        let s = v.as_slice();
        // Sorted strictly ascending, all weights positive.
        prop_assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(s.iter().all(|&(_, w)| w > 0.0));
        // Total mass preserved (duplicates merged by summation).
        let want: f32 = pairs.iter().map(|&(_, w)| w).sum();
        let got: f32 = s.iter().map(|&(_, w)| w).sum();
        prop_assert!((want - got).abs() < want * 1e-3 + 1e-6);
    }

    #[test]
    fn normalization_and_dot_properties(
        a in prop::collection::vec((0u32..40, 0.01f32..5.0), 1..20),
        b in prop::collection::vec((0u32..40, 0.01f32..5.0), 1..20),
    ) {
        let mut va = SparseVector::from_pairs(a.iter().map(|&(t, w)| (TermId(t), w)).collect());
        let mut vb = SparseVector::from_pairs(b.iter().map(|&(t, w)| (TermId(t), w)).collect());
        va.normalize();
        vb.normalize();
        prop_assert!(va.is_normalized());
        // Symmetry and Cauchy–Schwarz for unit vectors.
        let d1 = va.dot(&vb);
        let d2 = vb.dot(&va);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((-1e-6..=1.0 + 1e-6).contains(&d1));
    }
}

// ---------------------------------------------------------------- layer 2

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topk_state_holds_the_k_best(
        k in 1u32..6,
        offers in prop::collection::vec((0u64..40, 0.0f64..10.0), 0..60),
    ) {
        let mut sets = continuous_topk::core::topk::ResultSets::default();
        sets.push(k);
        let mut reference: Vec<ScoredDoc> = Vec::new();
        for &(doc, score) in &offers {
            let cand = ScoredDoc::new(DocId(doc), score);
            sets.offer(0, cand);
            reference.push(cand);
            // The reference "best k" under the system's order: sort and
            // dedup is not needed (doc ids repeat, but the engine also
            // never sees duplicate ids in practice; keep raw offers).
            reference.sort();
        }
        reference.truncate(k as usize);
        let state = sets.get(0).unwrap();
        let got = state.sorted_results();
        prop_assert_eq!(&got, &reference);
        let want_threshold = if reference.len() == k as usize {
            reference.last().unwrap().score.get()
        } else {
            0.0
        };
        prop_assert_eq!(state.threshold(), want_threshold);
    }
}

// ---------------------------------------------------------------- layer 3

/// Strategy: a random query population over a small vocabulary plus a
/// random document stream, with decay chosen to sometimes trigger landmark
/// renormalization.
fn engines(lambda: f64) -> Vec<Box<dyn ContinuousTopK>> {
    vec![
        Box::new(Rio::new(lambda)),
        Box::new(MrioSeg::new(lambda)),
        Box::new(MrioBlock::new(lambda)),
        Box::new(MrioSuffix::new(lambda)),
        Box::new(Rta::new(lambda)),
        Box::new(SortQuer::new(lambda)),
        Box::new(Tps::new(lambda)),
    ]
}

proptest! {
    // Each case runs 8 engines over a small stream; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_match_the_oracle(
        queries in prop::collection::vec(
            (prop::collection::vec((0u32..60, 0.1f32..2.0), 1..5), 1usize..4),
            1..40,
        ),
        docs in prop::collection::vec(
            prop::collection::vec((0u32..60, 0.1f32..2.0), 1..12),
            1..60,
        ),
        lambda in prop::sample::select(vec![0.0, 0.01, 0.8]),
    ) {
        let specs: Vec<QuerySpec> = queries
            .iter()
            .filter_map(|(terms, k)| {
                QuerySpec::new(
                    terms.iter().map(|&(t, w)| (TermId(t), w)).collect(),
                    *k,
                )
                .ok()
            })
            .collect();
        prop_assume!(!specs.is_empty());

        let mut oracle = Naive::new(lambda);
        let mut subjects = engines(lambda);
        for spec in &specs {
            let qid = oracle.register(spec.clone());
            for s in subjects.iter_mut() {
                prop_assert_eq!(s.register(spec.clone()), qid);
            }
        }

        for (i, pairs) in docs.iter().enumerate() {
            let doc = Document::new(
                DocId(i as u64),
                pairs.iter().map(|&(t, w)| (TermId(t), w)).collect(),
                i as f64,
            );
            oracle.process(&doc);
            for s in subjects.iter_mut() {
                s.process(&doc);
            }
        }

        for q in 0..specs.len() as u32 {
            let want = oracle.results(QueryId(q)).unwrap();
            for s in subjects.iter() {
                let got = s.results(QueryId(q)).unwrap();
                prop_assert_eq!(got.len(), want.len(), "{} q{}", s.name(), q);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.doc, w.doc, "{} q{}", s.name(), q);
                    let (x, y) = (g.score.get(), w.score.get());
                    prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- layer 4

/// A zone value drawn from `(kind, a, b)`: the `-∞` tombstone, the `+∞`
/// unfilled sentinel, or a finite bound.
fn zone_value(kind: u8, a: u32, b: u32) -> f64 {
    match kind {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        _ => f64::from(a.wrapping_mul(2_654_435_761) ^ b.wrapping_mul(40_503)) / 7.0e6,
    }
}

/// The kind of the `i`-th value of a run drawn with `kind`: mostly finite,
/// so that writes move the maxima, with the odd sentinel among them.
fn run_kind(kind: u8, i: u32) -> u8 {
    if i % 29 == 3 {
        kind
    } else {
        2
    }
}

/// Every read of `tree` against `scan`, bit for bit: the length, each
/// position's value, the global maximum, and the maxima of a few ranges —
/// whole, first, last, empty, past the end and two drawn from `(a, b)`.
fn zone_reads_agree(
    tree: &mut MaxSegTree,
    scan: &mut ScanZoneMax,
    a: usize,
    b: usize,
) -> Result<(), String> {
    let n = scan.len();
    prop_assert_eq!(tree.len(), n);
    for pos in 0..n {
        prop_assert_eq!(tree.value_at(pos).to_bits(), scan.value_at(pos).to_bits(), "at {}", pos);
    }
    prop_assert_eq!(tree.global_max().to_bits(), scan.global_max().to_bits());
    let (x, y) = (a % (n + 2), b % (n + 2));
    let ranges = [
        (0, n),
        (0, 1),
        (n.saturating_sub(1), n),
        (x, x),
        (n, n + 3),
        (x.min(y), x.max(y)),
        (x.min(y), n + 1),
    ];
    for (lo, hi) in ranges {
        let (got, want) = (tree.range_max(lo, hi), scan.range_max(lo, hi));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "[{}, {}) of {}", lo, hi, n);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `MaxSegTree` against `ScanZoneMax` through random appends, point
    /// updates, runs of updates and rebuilds. Lengths 0 and 1 (no tree at
    /// all), and capacities on both sides of the growth rule's doubling
    /// and chunked phases — powers of two and not — are all reached.
    #[test]
    fn segment_tree_reads_equal_the_scan_at_every_capacity(
        start in prop::sample::select(vec![0usize, 1, 2, 3, 5, 255, 257, 513, 600, 768, 1025, 1300]),
        ops in prop::collection::vec((0u8..10, 0u32..1 << 20, 0u32..1 << 20, 0u8..6), 1..40),
    ) {
        let vals: Vec<f64> = (0..start as u32).map(|i| zone_value(run_kind(0, i), i, 3)).collect();
        let (mut tree, mut scan) = (MaxSegTree::from_values(&vals), ScanZoneMax::default());
        scan.rebuild(&vals);
        zone_reads_agree(&mut tree, &mut scan, 0, start)?;
        let mut writes = Vec::new();
        for (op, a, b, kind) in ops {
            let n = scan.len();
            match op {
                0..=2 => {
                    let u = zone_value(kind, a, b);
                    tree.append(u);
                    scan.append(u);
                }
                3 => {
                    // A burst of appends, across the next capacity step.
                    for i in 0..b % 300 {
                        let u = zone_value(run_kind(kind, i), a, i);
                        tree.append(u);
                        scan.append(u);
                    }
                }
                4 | 5 if n > 0 => {
                    let (pos, u) = (a as usize % n, zone_value(kind, b, a));
                    tree.update(pos, u);
                    scan.update(pos, u);
                }
                6..=8 if n > 0 => {
                    let (x, y) = (a as usize % n, b as usize % n);
                    let (lo, hi) = (x.min(y), x.max(y) + 1);
                    let step = 1 + (a as usize >> 10) % 5;
                    writes.clear();
                    for pos in (lo..hi).filter(|&p| p == lo || p + 1 == hi || (p - lo) % step == 0) {
                        writes.push((pos, zone_value(run_kind(kind, pos as u32), a, pos as u32)));
                    }
                    tree.update_run(lo, hi, &writes);
                    for &(pos, u) in &writes {
                        scan.update(pos, u);
                    }
                }
                _ => {
                    let len = [0, 1, 2, a as usize % 1537][b as usize % 4];
                    let vals: Vec<f64> =
                        (0..len as u32).map(|i| zone_value(run_kind(kind, i), i, b)).collect();
                    tree.rebuild(&vals);
                    scan.rebuild(&vals);
                }
            }
            zone_reads_agree(&mut tree, &mut scan, a as usize, b as usize)?;
        }
    }
}

// ---------------------------------------------------------------- layer 5

/// A query of `len` distinct terms drawn from `seed`, with weights of a few
/// sizes so that normalization leaves them apart.
fn record_query(len: u32, seed: u32) -> SparseVector {
    let pairs = (0..len)
        .map(|j| (TermId(seed.wrapping_add(j.wrapping_mul(7_919)) % 2_000), 0.5 + (j % 3) as f32))
        .collect();
    let mut v = SparseVector::from_pairs(pairs);
    v.normalize();
    v
}

/// Every live query's record against the model, on `index`: its list ids
/// in the order of its terms, each pointing at its own live posting with
/// its weight; every removed query without a record. And the directory:
/// every term of the range finds the model's list or none, and every list
/// its term.
fn records_agree(
    index: &QueryIndex,
    model: &[Option<SparseVector>],
    lists: &std::collections::HashMap<TermId, u32>,
) -> Result<(), String> {
    prop_assert_eq!(index.num_slots(), model.len());
    prop_assert_eq!(index.num_live(), model.iter().flatten().count());
    for (q, want) in model.iter().enumerate() {
        let qid = QueryId(q as u32);
        let Some(vector) = want else {
            prop_assert!(index.record(qid).is_none(), "query {} was removed", q);
            continue;
        };
        let record = index.record(qid).expect("a live query has a record");
        let ids: Vec<u32> = record.entries().map(|e| e.list).collect();
        let want_ids: Vec<u32> = vector.iter().map(|(t, _)| lists[&t]).collect();
        prop_assert_eq!(ids, want_ids, "query {}", q);
        for (e, (term, weight)) in record.entries_full().zip(vector.iter()) {
            prop_assert_eq!(e.term, term);
            let posting = index.list(e.list).get(e.pos as usize);
            prop_assert_eq!(posting.qid, qid, "query {} term {:?}", q, term);
            prop_assert_eq!(posting.weight.to_bits(), weight.to_bits());
        }
    }
    let live: Vec<QueryId> = index.live_ids().collect();
    let want: Vec<QueryId> =
        (0..model.len()).filter(|&q| model[q].is_some()).map(|q| QueryId(q as u32)).collect();
    prop_assert_eq!(live, want);
    prop_assert_eq!(index.num_lists(), lists.len());
    for term in (0..2_000).map(TermId) {
        let list = index.list_of_term(term);
        prop_assert_eq!(list, lists.get(&term).copied(), "term {:?}", term);
        if let Some(list) = list {
            prop_assert_eq!(index.term_of_list(list), term);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The varint record layout and the term directory against models, on
    /// both backends. Most queries hold 1–5 terms, so records fill and
    /// cross the arena's 1 KiB chunks; one in eight holds up to 600, whose
    /// one- and two-byte list ids can outgrow a chunk. Bursts of removals
    /// followed by compaction push the stranded bytes past half the live
    /// ones, where the arena is rebuilt. New terms cross the directory's
    /// resizes on the way to the range's 2 000 lists.
    #[test]
    fn records_hold_their_queries_list_ids_in_order(
        ops in prop::collection::vec((0u8..12, 0u32..1 << 30, 0u32..1 << 30), 1..120),
    ) {
        for storage in PostingsStorage::ALL {
            let mut index = QueryIndex::with_storage(&StorageConfig::new(storage));
            let mut model: Vec<Option<SparseVector>> = Vec::new();
            let mut lists = std::collections::HashMap::new();
            for &(op, a, b) in &ops {
                let live: Vec<usize> = (0..model.len()).filter(|&q| model[q].is_some()).collect();
                match op {
                    0..=6 => {
                        let len = if a % 8 == 0 { 1 + b % 600 } else { 1 + b % 5 };
                        let vector = record_query(len, a ^ b);
                        for (term, _) in vector.iter() {
                            let next = lists.len() as u32;
                            lists.entry(term).or_insert(next);
                        }
                        prop_assert_eq!(index.register(&vector, 1), QueryId(model.len() as u32));
                        model.push(Some(vector));
                    }
                    7 | 8 if !live.is_empty() => {
                        let q = live[a as usize % live.len()];
                        let record = index.unregister(QueryId(q as u32)).expect("live");
                        let vector = model[q].take().expect("live");
                        prop_assert_eq!(record.entries.len(), vector.len());
                    }
                    9 => {
                        // Every other live query, from an offset.
                        for &q in live.iter().skip(a as usize % 2).step_by(2) {
                            prop_assert!(index.unregister(QueryId(q as u32)).is_some());
                            model[q] = None;
                        }
                    }
                    _ => {
                        index.compact();
                        prop_assert_eq!(index.tombstone_ratio(), 0.0);
                    }
                }
                records_agree(&index, &model, &lists)?;
            }
        }
    }
}
