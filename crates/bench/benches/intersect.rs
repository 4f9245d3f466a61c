//! Kernel-level micro-bench for the matcher's intersection primitives:
//! `filter_in_place` under each `IntersectAlgo` and `materialize` on each
//! view shape, over synthetic sorted lists.
//!
//! The neighbor list has a fixed size; the candidate buffer is 1:1, 1:32
//! and 1:1024 of it (the regimes where blocked merge, the `Auto` crossover
//! and galloping win). Each shape runs on a plain list and on a new view
//! with a tombstoned prefix and an interleaved appended tail. Run with
//! `cargo bench -p gcsm-bench --bench intersect`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gcsm_graph::{encode_tombstone, NeighborView};
use gcsm_matcher::intersect::{filter_in_place, materialize};
use gcsm_matcher::{CostCounter, IntersectAlgo};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const LIST_LEN: usize = 16_384;
const RATIOS: [usize; 3] = [1, 32, 1024];

/// `n` distinct sorted ids drawn from `0..universe`.
fn sorted_ids(rng: &mut SmallRng, n: usize, universe: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n * 2).map(|_| rng.gen_range(0..universe)).collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(n);
    v
}

/// Raw adjacency runs: a plain list, and the same ids split into a prefix
/// with ~30 % tombstones plus an interleaved tail holding ~30 % of them.
struct Lists {
    plain: Vec<u32>,
    prefix: Vec<u32>,
    tail: Vec<u32>,
}

fn lists(rng: &mut SmallRng) -> Lists {
    let plain = sorted_ids(rng, LIST_LEN, 4 * LIST_LEN as u32);
    let (mut prefix, mut tail) = (Vec::new(), Vec::new());
    for &v in &plain {
        if rng.gen_bool(0.3) {
            tail.push(v);
        } else if rng.gen_bool(0.3) {
            prefix.push(encode_tombstone(v));
        } else {
            prefix.push(v);
        }
    }
    Lists { plain, prefix, tail }
}

fn bench_filter(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(17);
    let l = lists(&mut rng);
    let views = [
        ("plain", NeighborView::plain(&l.plain)),
        ("tail+tomb", NeighborView::new_view(&l.prefix, &l.tail)),
    ];
    let mut group = c.benchmark_group("filter_in_place");
    group.sample_size(200);
    for ratio in RATIOS {
        let cands = sorted_ids(&mut rng, LIST_LEN / ratio, 4 * LIST_LEN as u32);
        group.throughput(Throughput::Elements((cands.len() + LIST_LEN) as u64));
        for (shape, view) in &views {
            for algo in [
                IntersectAlgo::Merge,
                IntersectAlgo::Gallop,
                IntersectAlgo::Blocked,
                IntersectAlgo::Auto,
            ] {
                let id = BenchmarkId::new(format!("{algo:?}/1:{ratio}"), shape);
                // The buffer is refilled per iteration (an O(|cands|) copy,
                // like the enumerator's materialize) and never reallocated.
                let mut buf = Vec::with_capacity(cands.len());
                group.bench_with_input(id, view, |b, view| {
                    b.iter(|| {
                        buf.clear();
                        buf.extend_from_slice(&cands);
                        filter_in_place(&mut buf, view, algo, &mut CostCounter::default());
                        buf.len()
                    })
                });
            }
        }
    }
    group.finish();
}

fn bench_materialize(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(18);
    let l = lists(&mut rng);
    let mut group = c.benchmark_group("materialize");
    group.sample_size(200);
    for (shape, view) in [
        ("old", NeighborView::old(&l.prefix)),
        ("new_no_tail", NeighborView::new_view(&l.prefix, &[])),
        ("new_with_tail", NeighborView::new_view(&l.prefix, &l.tail)),
        ("plain", NeighborView::plain(&l.plain)),
    ] {
        group.throughput(Throughput::Elements(view.raw_len() as u64));
        let mut out = Vec::with_capacity(LIST_LEN);
        group.bench_with_input(BenchmarkId::from_parameter(shape), &view, |b, view| {
            b.iter(|| {
                materialize(view, &mut out, &mut CostCounter::default());
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_filter, bench_materialize);
criterion_main!(benches);
