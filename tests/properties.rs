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
