//! Cross-algorithm equivalence: every engine must maintain result sets
//! identical (documents, scores, order) to the exhaustive oracle, on
//! realistic randomized workloads, under both query workloads, with and
//! without decay, and across register/unregister churn.
//!
//! This is the strongest correctness statement in the repository: RIO, the
//! three MRIO variants, RTA, SortQuer and TPS are all *exact* algorithms —
//! their pruning must never change a single result.

#[path = "support/sections.rs"]
mod sections;

use continuous_topk::prelude::*;
use ctk_baselines::{Rta, SortQuer, Tps};
use sections::dealt;

/// All engines under test, freshly constructed.
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

fn scores_close(a: &ScoredDoc, b: &ScoredDoc) -> bool {
    let (x, y) = (a.score.get(), b.score.get());
    a.doc == b.doc && (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

/// Run `events` documents against `num_queries` queries on every engine and
/// compare all result sets (and thresholds) against the Naive oracle.
fn run_equivalence(
    workload: QueryWorkload,
    lambda: f64,
    num_queries: usize,
    events: usize,
    seed: u64,
    churn: bool,
) {
    let corpus = CorpusConfig {
        vocab_size: 2_000,
        avg_tokens: 80,
        length_jitter: 0.4,
        zipf_exponent: 1.0,
        model: CorpusModel::TopicMixture {
            num_topics: 12,
            terms_per_topic: 120,
            in_topic_fraction: 0.7,
        },
        seed,
    };
    let wl = WorkloadConfig { workload, terms_min: 2, terms_max: 4, k: 3, seed: seed ^ 0xABCD };
    let mut qgen = QueryGenerator::new(wl, &corpus);
    let specs = qgen.generate_batch(num_queries);

    let mut oracle = Naive::new(lambda);
    let mut subjects = engines(lambda);

    let mut qids = Vec::new();
    for spec in &specs {
        let qid = oracle.register(spec.clone());
        for s in subjects.iter_mut() {
            assert_eq!(s.register(spec.clone()), qid, "{} id allocation", s.name());
        }
        qids.push(qid);
    }

    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());
    let mut removed: Vec<QueryId> = Vec::new();
    for step in 0..events {
        // Churn: remove one query at 1/3, add one back at 2/3.
        if churn && step == events / 3 {
            let victim = qids[qids.len() / 2];
            assert!(oracle.unregister(victim));
            for s in subjects.iter_mut() {
                assert!(s.unregister(victim), "{} unregister", s.name());
            }
            removed.push(victim);
        }
        if churn && step == 2 * events / 3 {
            let spec = qgen.generate();
            let qid = oracle.register(spec.clone());
            for s in subjects.iter_mut() {
                assert_eq!(s.register(spec.clone()), qid);
            }
            qids.push(qid);
        }

        let doc = driver.next_document();
        oracle.process(&doc);
        for s in subjects.iter_mut() {
            s.process(&doc);
        }

        // Spot-check full equality every few events (cheap enough here).
        if step % 7 == 0 || step + 1 == events {
            for &qid in &qids {
                if removed.contains(&qid) {
                    continue;
                }
                let want = oracle.results(qid).expect("oracle result");
                for s in subjects.iter() {
                    let got = s
                        .results(qid)
                        .unwrap_or_else(|| panic!("{}: missing results for {qid}", s.name()));
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{} query {qid} step {step}: {got:?} vs {want:?}",
                        s.name()
                    );
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            scores_close(g, w),
                            "{} query {qid} step {step}: {g:?} vs {w:?}",
                            s.name()
                        );
                    }
                }
            }
        }
    }

    // Removed queries must stay gone.
    for qid in removed {
        for s in subjects.iter() {
            assert!(s.results(qid).is_none(), "{}", s.name());
        }
    }
}

#[test]
fn uniform_no_decay() {
    run_equivalence(QueryWorkload::Uniform, 0.0, 120, 140, 11, false);
}

#[test]
fn uniform_with_decay() {
    run_equivalence(QueryWorkload::Uniform, 0.01, 120, 140, 22, false);
}

#[test]
fn connected_no_decay() {
    run_equivalence(QueryWorkload::Connected, 0.0, 120, 140, 33, false);
}

#[test]
fn connected_with_decay() {
    run_equivalence(QueryWorkload::Connected, 0.01, 120, 140, 44, false);
}

#[test]
fn connected_with_churn() {
    run_equivalence(QueryWorkload::Connected, 0.005, 80, 150, 55, true);
}

#[test]
fn uniform_with_churn_and_strong_decay() {
    run_equivalence(QueryWorkload::Uniform, 0.05, 80, 150, 66, true);
}

/// Renormalization path: tiny exponent headroom forces many landmark
/// renormalizations; results must stay equivalent throughout.
#[test]
fn heavy_decay_exercises_renormalization() {
    // λ=0.7 over 150 unit-spaced events pushes λΔτ to 105 > 60 (the default
    // headroom), forcing at least one renormalization in every engine.
    run_equivalence(QueryWorkload::Connected, 0.7, 60, 150, 77, false);
}

// ------------------------------------------------------------------------
// MRIO's walk: the exact test of the front candidate and the windows scored
// term-at-a-time. Results must stay the oracle's bit for bit on every zone
// structure and storage, and each regime must keep the cost it is meant to
// have.

use proptest::prelude::*;

/// The corpus of the walk tests: a small vocabulary, so lists run to
/// hundreds of postings — several sealed blocks under `Compressed`.
fn walk_corpus(seed: u64) -> CorpusConfig {
    CorpusConfig { vocab_size: 150, avg_tokens: 12, seed, ..CorpusConfig::default() }
}

fn walk_queries(corpus: &CorpusConfig, k: usize, seed: u64) -> QueryGenerator {
    let workload =
        WorkloadConfig { workload: QueryWorkload::Connected, terms_min: 2, terms_max: 4, k, seed };
    QueryGenerator::new(workload, corpus)
}

/// One seeded stream of interleaved registrations, unregistrations,
/// compactions, renormalisations, warm-start seeds, restores into fresh
/// engines and documents — some of them an earlier vector republished under
/// a smaller id, which ties `S_k` and wins — through the oracle and the
/// plain and compressed builds of one MRIO variant.
fn churned_walk_matches_oracle(
    build: impl Fn(&StorageConfig) -> Box<dyn ContinuousTopK>,
    lambda: f64,
    seed: u64,
) {
    let corpus = walk_corpus(seed);
    let mut queries = walk_queries(&corpus, 2, seed ^ 0x51);
    let mut docs = DocumentGenerator::new(corpus);
    // The oracle first, then the engine under test on both storages.
    let fresh = || -> [Box<dyn ContinuousTopK>; 3] {
        [
            Box::new(Naive::new(lambda)),
            build(&StorageConfig::plain()),
            build(&StorageConfig::new(PostingsStorage::Compressed)),
        ]
    };
    let mut engines = fresh();
    let variant = engines[1].name();

    // A cheap deterministic dice for the interleaving.
    let mut state = seed | 1;
    let mut roll = move |n: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % n
    };

    let mut live: Vec<(QueryId, QuerySpec)> = Vec::new();
    let mut now = 0.0f64;
    let (mut renorms_due, mut renorms_seen) = (0u64, 0u64);
    // New documents count up from the middle of the id space, republished
    // ones down: a republished vector always carries the smaller id.
    const FIRST_ID: u64 = 1 << 32;
    let mut tie_wins = 0usize;
    for step in 0..90u64 {
        match roll(13) {
            // A burst of registrations (the first step builds the population).
            op if op == 0 || step == 0 => {
                for spec in queries.generate_batch(if step == 0 { 500 } else { 40 }) {
                    let ids = engines.each_mut().map(|e| e.register(spec.clone()));
                    assert!(ids.iter().all(|&id| id == ids[0]));
                    live.push((ids[0], spec));
                }
            }
            // A wave of unregistrations: tombstones inside every list.
            1 => {
                for _ in 0..30.min(live.len()) {
                    let (victim, _) = live.swap_remove(roll(live.len() as u64) as usize);
                    assert!(engines.iter_mut().all(|e| e.unregister(victim)));
                }
            }
            2 => {
                let changed = engines.each_mut().map(|e| e.compact_index());
                assert_eq!(changed[1], changed[2]);
            }
            // Past the decay headroom: the next document renormalises.
            3 if lambda > 0.0 => {
                now += 61.0 / lambda;
                renorms_due += 1;
            }
            // Warm-start seeds: `S_k` rises with the walk standing nowhere.
            4 => {
                for _ in 0..20.min(live.len()) {
                    let (qid, _) = live[roll(live.len() as u64) as usize];
                    let score = engines[0].threshold(qid).unwrap() * 1.5 + 0.05;
                    let seeds = [ScoredDoc::new(DocId(roll(FIRST_ID)), score)];
                    engines.iter_mut().for_each(|e| e.seed_results(qid, &seeds));
                }
            }
            // A restore: fresh engines in the old decay frame, the live
            // queries registered again (renumbered) and seeded.
            5 => {
                let mut restored = fresh();
                for (old, new) in engines.iter().zip(&mut restored) {
                    new.restore_landmark(old.landmark());
                    for (qid, spec) in &live {
                        let id = new.register(spec.clone());
                        new.seed_results(id, &old.results(*qid).unwrap());
                    }
                }
                renorms_seen += engines[1].cumulative().renormalizations;
                engines = restored;
                for (i, (qid, _)) in live.iter_mut().enumerate() {
                    *qid = QueryId(i as u32);
                }
            }
            _ => {}
        }
        now += 1.0;
        // A third of the documents arrive twice, the second time under a
        // smaller id: equal scores, so it ties `S_k` wherever the first one
        // became the k-th result, and wins.
        let doc = docs.generate(DocId(FIRST_ID + step), now);
        let again = Document { id: DocId(FIRST_ID - 1 - step), ..doc.clone() };
        for doc in [Some(doc), (roll(3) == 0).then_some(again)].into_iter().flatten() {
            let [_, on_plain, on_compressed] = engines.each_mut().map(|e| e.process(&doc));
            assert_eq!(on_plain, on_compressed, "{variant} λ={lambda}: EventStats at {step}");
            assert_eq!(on_plain.full_evaluations, on_plain.updates, "{variant}: exact front test");
            for engine in &engines[1..] {
                assert_eq!(engine.last_changes(), engines[0].last_changes(), "{variant} at {step}");
            }
            tie_wins += (doc.id.0 < FIRST_ID) as usize * engines[0].last_changes().len();
        }
    }
    assert!(tie_wins > 0, "no republished document was inserted");
    assert_eq!(renorms_seen + engines[1].cumulative().renormalizations, renorms_due);
    for (qid, _) in &live {
        for engine in &engines[1..] {
            assert_eq!(engine.results(*qid), engines[0].results(*qid), "{variant} query {qid}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mrio_walk_is_the_oracle_on_every_zone_structure_and_storage(
        seed in 1u64..u64::MAX,
        lambda in prop::sample::select(vec![0.0, 1e-3, 0.05]),
    ) {
        churned_walk_matches_oracle(|s| Box::new(MrioSeg::with_storage(lambda, s)), lambda, seed);
        churned_walk_matches_oracle(|s| Box::new(MrioBlock::with_storage(lambda, s)), lambda, seed);
        churned_walk_matches_oracle(|s| Box::new(MrioSuffix::with_storage(lambda, s)), lambda, seed);
    }
}

/// Update-heavy stream (strong decay: most candidates are insertions). The
/// exact test must leave next to no wasted evaluation, and the windows must
/// keep the zone bounds out of the walk: about one bound term per
/// iteration, where a pivot search per candidate costs several.
#[test]
fn dense_stream_evaluates_only_what_it_inserts() {
    let corpus = walk_corpus(7);
    let mut mrio = MrioSeg::new(0.05);
    let mut oracle = Naive::new(0.05);
    for spec in walk_queries(&corpus, 3, 3).generate_batch(1_500) {
        mrio.register(spec.clone());
        oracle.register(spec);
    }
    let mut driver = StreamDriver::new(corpus, ArrivalClock::unit());
    for _ in 0..200 {
        let doc = driver.next_document();
        mrio.process(&doc);
        oracle.process(&doc);
        assert_eq!(mrio.last_changes(), oracle.last_changes());
    }
    let cum = mrio.cumulative();
    assert!(cum.updates > 20_000, "the stream must be update-heavy: {cum:?}");
    let wasted = cum.full_evaluations - cum.updates;
    assert!(wasted * 100 <= cum.full_evaluations, "wasted evaluations: {cum:?}");
    assert!(cum.bound_computations <= 2 * cum.iterations, "bounds per iteration: {cum:?}");
}

/// The paper's regime: no decay, every result set filled and its threshold
/// high, so nearly everything is skipped. One long list (every query has
/// the common term) and one sparse list (every hundredth query also has the
/// rare term): each pivot search proves the stretch of the long list up to
/// the next rare posting prunable and jumps it. The windows must not decay
/// into a linear scan here — a long jump grants no window — so the walk
/// may touch only a small fixed fraction of the matched lists' live
/// postings, all of which the exhaustive walk touches.
#[test]
fn skip_regime_touches_a_small_fraction_of_the_matched_lists() {
    const COMMON: TermId = TermId(1);
    const RARE: TermId = TermId(2);
    const NOISE: TermId = TermId(3); // in no query
    let mut mrio = MrioSeg::new(0.0);
    let mut oracle = Naive::new(0.0);
    let mut register = |pairs: Vec<(TermId, f32)>, k: usize| {
        let spec = QuerySpec::new(pairs, k).unwrap();
        assert_eq!(mrio.register(spec.clone()), oracle.register(spec));
    };
    for i in 0..4_000 {
        if i % 100 == 50 {
            register(vec![(COMMON, 1.0), (RARE, 1.0)], 1);
        } else {
            register(vec![(COMMON, 1.0)], 1);
        }
    }
    // One query that never fills keeps the list-wide bounds at +∞, so only
    // the zones can prune — the event never ends early.
    register(vec![(COMMON, 1.0)], 1_000);

    // Fill every result set with a perfect match: every S_k is 1.
    let mut next = 0u64;
    let mut publish = |pairs: Vec<(TermId, f32)>| {
        let doc = Document::new(DocId(next), pairs, next as f64);
        next += 1;
        let (walked, all) = (mrio.process(&doc), oracle.process(&doc));
        assert_eq!(mrio.last_changes(), oracle.last_changes());
        (walked, all)
    };
    publish(vec![(COMMON, 1.0)]);
    publish(vec![(COMMON, 1.0), (RARE, 1.0)]);

    let (mut touched, mut live) = (0u64, 0u64);
    for _ in 0..20 {
        let (walked, all) = publish(vec![(COMMON, 1.0), (RARE, 1.5), (NOISE, 5.0)]);
        assert_eq!((walked.updates, all.updates), (1, 1), "only the unfilled query is updated");
        touched += walked.postings_accessed;
        live += all.postings_accessed;
    }
    assert_eq!(live, 20 * 4_041);
    assert!(touched * 20 <= live, "MRIO touched {touched} of {live} live postings");
}

// ------------------------------------------------------------------------
// The oracle's arithmetic in every engine that prunes with a bound: aligned
// cursors sum in the query's record order, and a bound comparison never
// prunes an exact tie.

/// Constructors of the engines that score a query from the cursors aligned
/// on it.
fn cursor_engines() -> [fn() -> Box<dyn ContinuousTopK>; 5] {
    [
        || Box::new(Rio::new(0.0)),
        || Box::new(MrioSeg::new(0.0)),
        || Box::new(MrioBlock::new(0.0)),
        || Box::new(MrioSuffix::new(0.0)),
        || Box::new(Tps::new(0.0)),
    ]
}

/// A seeded source of term weights in `[0.01, 1.01)`.
fn weights(mut seed: u64) -> impl FnMut() -> f32 {
    move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((seed >> 40) as f32 / (1u64 << 24) as f32) + 0.01
    }
}

fn spec_of(terms: &[(u32, f32)], k: usize) -> QuerySpec {
    QuerySpec::new(terms.iter().map(|&(t, w)| (TermId(t), w)).collect(), k).unwrap()
}

const ALIGNED_CASES: usize = 20_000;
const TIE_CASES: usize = 300;

/// The aligned-cursors cases. Query 0 is on terms {1, 5}, query 1 on
/// {1, 3, 5}, and the document hits {1, 3, 5}: once query 0 is passed, the
/// cursors of lists 1 and 5 land on query 1 beside the one of list 3. Summed
/// in the order they land, its dot product can come out one ulp away from
/// the oracle's, which sums in the order of the record (by term).
fn aligned_cases() -> impl Iterator<Item = ([QuerySpec; 2], Vec<(TermId, f32)>)> {
    let mut next = weights(0x2545_f491_4f6c_dd1d);
    (0..ALIGNED_CASES).map(move |_| {
        let q0 = spec_of(&[(1, next()), (5, next())], 1);
        let q1 = spec_of(&[(1, next()), (3, next()), (5, next())], 1);
        ([q0, q1], vec![(TermId(1), next()), (TermId(3), next()), (TermId(5), next())])
    })
}

/// The tie cases: three query shapes over terms {1, 2, 3}, k = 1, and one
/// document vector. Published under ids 10, 5 and 7, the vector fills every
/// set, then ties `S_k` and wins on the smaller id, then ties and loses. A
/// bound summing `f_j · fl(w_j/S_k)` may round the winner to `θ_d − ulp`.
fn tie_cases() -> impl Iterator<Item = ([QuerySpec; 3], Vec<(TermId, f32)>)> {
    let mut next = weights(0x9e37_79b9_7f4a_7c15);
    (0..TIE_CASES).map(move |_| {
        let shapes = [
            spec_of(&[(1, next()), (2, next())], 1),
            spec_of(&[(1, next()), (2, next()), (3, next())], 1),
            spec_of(&[(2, next()), (3, next())], 1),
        ];
        (shapes, vec![(TermId(1), next()), (TermId(2), next()), (TermId(3), next())])
    })
}

/// Whether an engine's changes for a document are the oracle's, in the
/// oracle's order — or, with `any_query_order`, once sorted by query: RTA
/// offers in the threshold algorithm's order, not the stream's.
fn same_changes(engine: &[ResultChange], oracle: &[ResultChange], any_query_order: bool) -> bool {
    if !any_query_order {
        return engine == oracle;
    }
    let mut engine = engine.to_vec();
    engine.sort_by_key(|c| c.query);
    engine == oracle
}

/// The aligned cases in which `make`'s engine inserts anything but the
/// oracle's changes, bit for bit (`any_query_order`: see [`same_changes`]).
fn aligned_cases_that_differ(
    make: impl Fn() -> Box<dyn ContinuousTopK>,
    any_query_order: bool,
) -> usize {
    let mut differ = 0;
    for (queries, pairs) in aligned_cases() {
        let (mut engine, mut oracle) = (make(), Naive::new(0.0));
        for spec in queries {
            assert_eq!(engine.register(spec.clone()), oracle.register(spec));
        }
        let doc = Document::new(DocId(1), pairs, 0.0);
        engine.process(&doc);
        oracle.process(&doc);
        assert_eq!(oracle.last_changes().len(), 2);
        let same = same_changes(engine.last_changes(), oracle.last_changes(), any_query_order);
        differ += !same as usize;
    }
    differ
}

/// The tie cases in which `make`'s engine differs from the oracle: in its
/// changes (`any_query_order`: see [`same_changes`]), its updates or —
/// where its front test is `offer`'s own comparison (`exact`) — in
/// evaluating anything but the winners.
fn tie_cases_that_differ(
    make: impl Fn() -> Box<dyn ContinuousTopK>,
    exact: bool,
    any_query_order: bool,
) -> usize {
    let mut differ = 0;
    for (shapes, pairs) in tie_cases() {
        let (mut engine, mut oracle) = (make(), Naive::new(0.0));
        for spec in &shapes {
            assert_eq!(engine.register(spec.clone()), oracle.register(spec.clone()));
        }
        // The same vector three times: the smaller id wins every tie, the
        // larger one loses every tie.
        let mut same = true;
        for (id, wins) in [(10u64, 3), (5, 3), (7, 0)] {
            let doc = Document::new(DocId(id), pairs.clone(), 0.0);
            let ev = engine.process(&doc);
            oracle.process(&doc);
            same &= same_changes(engine.last_changes(), oracle.last_changes(), any_query_order);
            same &= ev.updates == wins && (!exact || ev.full_evaluations == wins);
        }
        differ += !same as usize;
    }
    differ
}

/// Every insertion must carry the oracle's score bit for bit.
#[test]
fn aligned_cursors_sum_in_record_order_in_every_cursor_engine() {
    let report: Vec<_> =
        cursor_engines().map(|make| (make().name(), aligned_cases_that_differ(make, false))).into();
    assert!(
        report.iter().all(|&(_, d)| d == 0),
        "cases of {ALIGNED_CASES} that differ: {report:?}"
    );
}

/// Every cursor engine must evaluate each tie winner, as the oracle does;
/// MRIO's front test is `offer`'s own comparison, so it evaluates nothing
/// else.
#[test]
fn exact_ties_follow_the_oracle_in_every_cursor_engine() {
    // How often a plain `≥ θ_d` on the normalised sum would have pruned the
    // winner: sum query 0's `f_j · fl(w_j/S_k)` by term.
    let rounded_below = tie_cases().filter(|(shapes, pairs)| {
        let mut oracle = Naive::new(0.0);
        for spec in shapes {
            oracle.register(spec.clone());
        }
        let doc = Document::new(DocId(5), pairs.clone(), 0.0);
        oracle.process(&doc);
        let sk = oracle.threshold(QueryId(0)).unwrap();
        let s: f64 = shapes[0]
            .vector
            .iter()
            .map(|(t, w)| doc.vector.weight(t) as f64 * (w as f64 / sk))
            .sum();
        s < 1.0
    });
    assert!(rounded_below.count() > 0, "no case exercised the rounding");
    let report: Vec<_> = cursor_engines()
        .map(|make| {
            let exact_front_test = make().name().starts_with("MRIO");
            (make().name(), tie_cases_that_differ(make, exact_front_test, false))
        })
        .into();
    assert!(
        report.iter().all(|&(_, d)| d == 0),
        "tie cases of {TIE_CASES} that differ: {report:?}"
    );
}

/// SortQuer and RTA prune with bounds of their own: per-list cutoffs and a
/// candidate filter (SortQuer), the threshold algorithm's stopping rule
/// (RTA). Neither may drop a tie winner or sum off the oracle. RTA rebuilds
/// its impact lists every event here: a case is three documents long, and
/// impacts left at the `+∞` of registration would never stop its walk.
/// SortQuer's changes must come in the oracle's order; RTA's only per query.
#[test]
fn aligned_sums_and_exact_ties_follow_the_oracle_in_sortquer_and_rta() {
    let baselines: [fn() -> Box<dyn ContinuousTopK>; 2] =
        [|| Box::new(SortQuer::new(0.0)), || Box::new(Rta::with_rebuild_every(0.0, 1))];
    let report: Vec<_> = baselines
        .map(|make| {
            let any_query_order = make().name() == "RTA";
            let aligned = aligned_cases_that_differ(make, any_query_order);
            (make().name(), aligned, tie_cases_that_differ(make, false, any_query_order))
        })
        .into();
    assert!(
        report.iter().all(|&(_, aligned, ties)| aligned + ties == 0),
        "(aligned of {ALIGNED_CASES}, ties of {TIE_CASES}) that differ: {report:?}"
    );
}

/// The tie cases through an MRIO monitor restored from a capture of two
/// shard sections: each tie's loser — the filled result, doc 10 — arrives
/// in the engine as a seeded result, so the zone bounds start from
/// restored thresholds that every later document ties exactly. The
/// monitor numbers documents itself, so doc 0 ties every `S_k` and wins,
/// doc 1 ties and loses.
#[test]
fn exact_ties_follow_the_oracle_through_a_restored_sharded_monitor() {
    let config = MonitorBuilder::new(EngineKind::Mrio);
    let mut ties = 0;
    for (shapes, pairs) in tie_cases() {
        let (mut captured, mut oracle) =
            (MonitorBuilder::new(EngineKind::Naive).build(), Naive::new(0.0));
        for spec in &shapes {
            assert_eq!(captured.register(spec.clone()), oracle.register(spec.clone()));
        }
        oracle.process(&Document::new(DocId(10), pairs.clone(), 0.0));
        let mut snapshot = captured.snapshot();
        for q in snapshot.shards.iter_mut().flat_map(|s| &mut s.queries) {
            q.results = oracle.results(QueryId(q.qid)).unwrap();
        }
        let mut monitor = config.restore(&dealt(&snapshot, 2));
        let mut same = true;
        for wins in [3, 0] {
            let receipt = monitor.publish(pairs.clone(), 0.0);
            oracle.process(&Document::new(receipt.doc_id(), pairs.clone(), 0.0));
            same &= same_changes(&receipt.changes, oracle.last_changes(), true)
                && receipt.merged_stats().updates == wins;
        }
        ties += !same as usize;
    }
    assert_eq!(ties, 0, "tie cases of {TIE_CASES} that differ");
}
