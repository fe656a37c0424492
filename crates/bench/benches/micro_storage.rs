//! Microbenchmarks of the postings read path, per backend: the block codec
//! (`decode_block`, its ids-only half, and the stopping id walk a look-up
//! uses), the cursor's advancing seek with hops that stay inside a block
//! versus hops that leave it, and the non-advancing bound probe. These are
//! the constants that decide whether a compressed list is walked at plain
//! speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctk_common::{DocId, Document, QueryId, SparseVector, TermId};
use ctk_core::engine::{CursorSet, EXHAUSTED};
use ctk_index::{PostingsStorage, QueryIndex, StorageConfig};
use ctk_storage::{decode_block, decode_ids, encode_block, seek_ids, Block, BLOCK_LEN};
use std::hint::black_box;

const HOT: TermId = TermId(1);

fn bench_codec(c: &mut Criterion) {
    // Gaps of 0..32 ids: five bits per delta, the common shape of a long
    // list at tens of thousands of queries.
    let mut qid = 1_000u32;
    let slots: Vec<(u32, f32)> = (0..BLOCK_LEN as u32)
        .map(|i| {
            qid += 1 + (i * 7) % 32;
            (qid, 0.5 + i as f32)
        })
        .collect();
    let middle = slots[BLOCK_LEN / 2].0;
    let mut bytes = Vec::new();
    encode_block(&slots, &mut bytes);

    let mut group = c.benchmark_group("codec");
    group.sample_size(30);
    group.bench_function("decode_block", |b| {
        let mut out = Block::zeroed();
        b.iter(|| {
            decode_block(black_box(&bytes), &mut out);
            black_box(out.weights[63])
        });
    });
    group.bench_function("decode_ids", |b| {
        let mut ids = [0u32; BLOCK_LEN];
        b.iter(|| {
            decode_ids(black_box(&bytes), &mut ids);
            black_box(ids[63])
        });
    });
    group.bench_function("seek_ids_to_middle", |b| {
        b.iter(|| black_box(seek_ids(black_box(&bytes), 0, middle)));
    });
    group.finish();
}

/// One list of 20 000 postings (312 sealed blocks on the compressed
/// layouts) with id gaps, on each backend.
fn indexes() -> Vec<(PostingsStorage, QueryIndex)> {
    PostingsStorage::ALL
        .iter()
        .map(|&storage| {
            let mut index = QueryIndex::with_storage(&StorageConfig::new(storage));
            let (mut on_list, mut i) = (0, 0u32);
            while on_list < 20_000 {
                let term = if i % 3 == 2 { TermId(2) } else { HOT };
                on_list += usize::from(term == HOT);
                index.register(&SparseVector::from_pairs(vec![(term, 1.0)]), 1);
                i += 1;
            }
            (storage, index)
        })
        .collect()
}

fn bench_cursor(c: &mut Criterion) {
    let indexes = indexes();
    let doc = Document::new(DocId(0), vec![(HOT, 1.0)], 0.0);

    // One pass over the list per iteration, by hops of `hop` query ids: 3
    // ids is two postings ahead (inside the block 31 times out of 32), 150
    // ids is a hundred postings ahead (always another block).
    for (name, hop) in [("advance_to/in_block", 3u32), ("advance_to/cross_block", 150)] {
        let mut group = c.benchmark_group(name);
        group.sample_size(20);
        for (storage, index) in &indexes {
            group.bench_function(BenchmarkId::from_parameter(storage), |b| {
                let mut cs = CursorSet::default();
                b.iter(|| {
                    cs.build(index, &doc);
                    let CursorSet { cursors, blocks } = &mut cs;
                    let cursor = &mut cursors[0];
                    let mut steps = 0u32;
                    while cursor.qid != EXHAUSTED {
                        cursor.advance_to(index, blocks, QueryId(cursor.qid.0 + hop));
                        steps += 1;
                    }
                    black_box(steps)
                });
            });
        }
        group.finish();
    }

    // The bound probe of a pivot search: the cursor stays put, the bounds
    // fan out from a few postings ahead (current block) over the next
    // block to several blocks away, the mix a galloping pivot search asks.
    let mut group = c.benchmark_group("probe");
    group.sample_size(30);
    for (storage, index) in &indexes {
        group.bench_function(BenchmarkId::from_parameter(storage), |b| {
            let mut cs = CursorSet::default();
            cs.build(index, &doc);
            let CursorSet { cursors, blocks } = &mut cs;
            let cursor = &mut cursors[0];
            cursor.advance_to(index, blocks, QueryId(9_000));
            let bounds: Vec<QueryId> = [2, 5, 9, 20, 40, 90, 130, 400, 6, 3]
                .iter()
                .map(|ahead| QueryId(cursor.qid.0 + ahead))
                .collect();
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(cursor.probe(index, blocks, bounds[i % bounds.len()]))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_cursor);
criterion_main!(benches);
