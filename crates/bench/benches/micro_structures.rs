//! Microbenchmarks of the index substrate: the three zone-max structures
//! (range query + point update) and the versioned max tracker. These are
//! the per-iteration primitives whose constants decide the ID-ordering
//! family's wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctk_common::QueryId;
use ctk_index::{BlockMax, MaxSegTree, SuffixMax, VersionedMaxTracker, ZoneMax};
use rand::{rngs::StdRng, Rng, SeedableRng};

const N: usize = 16_384;

fn values() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..N).map(|_| rng.gen_range(0.0..2.0)).collect()
}

fn bench_range_max(c: &mut Criterion) {
    let vals = values();
    let mut group = c.benchmark_group("zone_max/range_max");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(7);
    let ranges: Vec<(usize, usize)> = (0..1024)
        .map(|_| {
            let lo = rng.gen_range(0..N - 64);
            (lo, lo + rng.gen_range(1usize..64))
        })
        .collect();

    macro_rules! bench_impl {
        ($name:expr, $mk:expr) => {
            group.bench_function(BenchmarkId::from_parameter($name), |b| {
                let mut z = $mk;
                z.rebuild(&vals);
                let mut i = 0usize;
                b.iter(|| {
                    let (lo, hi) = ranges[i % ranges.len()];
                    i += 1;
                    std::hint::black_box(z.range_max(lo, hi))
                });
            });
        };
    }
    bench_impl!("segtree", MaxSegTree::new());
    bench_impl!("block", BlockMax::new());
    bench_impl!("suffix", SuffixMax::new());
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let vals = values();
    let mut group = c.benchmark_group("zone_max/update");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(9);
    let updates: Vec<(usize, f64)> =
        (0..1024).map(|_| (rng.gen_range(0..N), rng.gen_range(0.0..2.0))).collect();

    macro_rules! bench_impl {
        ($name:expr, $mk:expr) => {
            group.bench_function(BenchmarkId::from_parameter($name), |b| {
                let mut z = $mk;
                z.rebuild(&vals);
                let mut i = 0usize;
                b.iter(|| {
                    let (pos, v) = updates[i % updates.len()];
                    i += 1;
                    z.update(pos, v);
                });
            });
        };
    }
    bench_impl!("segtree", MaxSegTree::new());
    bench_impl!("block", BlockMax::new());
    bench_impl!("suffix", SuffixMax::new());
    group.finish();
}

fn bench_tracker(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_tracker");
    group.sample_size(30);
    group.bench_function("push_peek", |b| {
        let mut t = VersionedMaxTracker::new();
        let mut version = vec![0u32; 1000];
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let q = rng.gen_range(0..1000u32);
            version[q as usize] += 1;
            t.push(QueryId(q), version[q as usize], rng.gen_range(0.0..2.0));
            std::hint::black_box(t.peek_max(|qid, v| version[qid.index()] == v))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_range_max, bench_update, bench_tracker);
criterion_main!(benches);
