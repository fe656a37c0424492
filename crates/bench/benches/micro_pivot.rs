//! Microbenchmarks of the traversal primitives: galloping posting-list
//! seeks and the cursor-set repair — the two operations
//! every ID-ordering iteration performs. The per-backend cursor reads are
//! in `micro_storage`.

use criterion::{criterion_group, criterion_main, Criterion};
use ctk_common::{DocId, Document, QueryId, QuerySpec, TermId};
use ctk_core::engine::CursorSet;
use ctk_index::{PostingsList, QueryIndex};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bench_seek(c: &mut Criterion) {
    let mut list = PostingsList::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mut qid = 0u32;
    for _ in 0..100_000 {
        qid += rng.gen_range(1u32..20);
        list.push(QueryId(qid), 0.5);
    }
    let max_id = qid;
    let mut group = c.benchmark_group("postings/seek");
    group.sample_size(30);
    group.bench_function("galloping", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let from = rng.gen_range(0..list.len());
            let target = QueryId(rng.gen_range(0..max_id));
            std::hint::black_box(list.seek(from, target))
        });
    });
    group.finish();
}

fn bench_cursor_repair(c: &mut Criterion) {
    // A realistic matched-list set: 150 lists over one document.
    let mut index = QueryIndex::new();
    let mut rng = StdRng::seed_from_u64(3);
    for q in 0..20_000u32 {
        let terms: Vec<(TermId, f32)> =
            (0..3).map(|_| (TermId(rng.gen_range(0..150)), 1.0)).collect();
        if let Ok(spec) = QuerySpec::new(terms, 1) {
            let _ = index.register(&spec.vector, spec.k as u32);
            let _ = q;
        }
    }
    let doc = Document::new(DocId(0), (0..150).map(|t| (TermId(t), 1.0)).collect(), 0.0);
    let mut group = c.benchmark_group("cursors");
    group.sample_size(30);
    group.bench_function("build_150_lists", |b| {
        let mut cs = CursorSet::default();
        b.iter(|| std::hint::black_box(cs.build(&index, &doc)));
    });
    group.bench_function("repair_prefix_small", |b| {
        let mut cs = CursorSet::default();
        cs.build(&index, &doc);
        b.iter(|| {
            // A small jump, as a pivot makes it: advance the two front
            // cursors to the id under the fourth, then repair. Rebuild
            // once the lists run out.
            if cs.len() < 4 {
                cs.build(&index, &doc);
            }
            let target = cs.cursors[3].qid;
            let CursorSet { cursors, blocks } = &mut cs;
            for c in &mut cursors[..2] {
                c.advance_to(&index, blocks, target);
            }
            cs.repair_prefix(2);
            std::hint::black_box(cs.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_seek, bench_cursor_repair);
criterion_main!(benches);
