//! Kernel-level micro-bench for the matcher's intersection primitives:
//! `filter_in_place` under each `IntersectAlgo` and `materialize` on each
//! view shape, over synthetic sorted lists.
//!
//! `filter_in_place`: the neighbor list has a fixed size; the candidate
//! buffer is 1:1, 1:32 and 1:1024 of it (the regimes where merge, the
//! `Auto` crossover and galloping win). Each shape runs on a plain list and
//! on a new view with a tombstoned prefix and an interleaved appended tail.
//!
//! `filter_short`: the regime the matcher actually runs in — a tree node
//! materializes only tens of candidates (about 17 on `skew_q4`). Lists of
//! 16, 32 and 64 entries at candidate:list ratios 1:1 to 1:16, as a plain
//! list, a tail-less new view with tombstones (one run) and a new view with
//! tombstones and a tail (two runs). Each iteration filters 512 different
//! random instances, so the branch predictor cannot learn one instance's
//! outcome pattern; the printed time is per 512 calls. These shapes set
//! `Auto`'s merge/blocked crossover (DESIGN.md §13.1).
//!
//! Run with `cargo bench -p gcsm-bench --bench intersect`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gcsm_graph::{encode_tombstone, NeighborView};
use gcsm_matcher::intersect::{filter_in_place, materialize};
use gcsm_matcher::{CostCounter, IntersectAlgo};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const LIST_LEN: usize = 16_384;
const RATIOS: [usize; 3] = [1, 32, 1024];

const SHORT_LENS: [usize; 3] = [16, 32, 64];
const SHORT_RATIOS: [usize; 7] = [1, 2, 3, 4, 6, 8, 16];
/// Random instances per `filter_short` iteration.
const INSTANCES: usize = 512;

const ALGOS: [IntersectAlgo; 4] =
    [IntersectAlgo::Merge, IntersectAlgo::Gallop, IntersectAlgo::Blocked, IntersectAlgo::Auto];

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

fn lists(rng: &mut SmallRng, len: usize) -> Lists {
    let plain = sorted_ids(rng, len, 4 * len as u32);
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
    let l = lists(&mut rng, LIST_LEN);
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
            for algo in ALGOS {
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

/// One short-list instance: candidates plus the list's runs.
struct Instance {
    cands: Vec<u32>,
    lists: Lists,
}

impl Instance {
    /// The instance's view of `shape`.
    fn view(&self, shape: &str) -> NeighborView<'_> {
        let l = &self.lists;
        match shape {
            "plain" => NeighborView::plain(&l.plain),
            // One run: the prefix's tombstones are skipped, no tail.
            "tomb" => NeighborView::new_view(&l.prefix, &[]),
            _ => NeighborView::new_view(&l.prefix, &l.tail),
        }
    }
}

fn bench_filter_short(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(19);
    let mut group = c.benchmark_group("filter_short");
    group.sample_size(200);
    group.throughput(Throughput::Elements(INSTANCES as u64));
    for len in SHORT_LENS {
        for ratio in SHORT_RATIOS {
            let instances: Vec<Instance> = (0..INSTANCES)
                .map(|_| Instance {
                    cands: sorted_ids(&mut rng, len / ratio, 4 * len as u32),
                    lists: lists(&mut rng, len),
                })
                .collect();
            for shape in ["plain", "tomb", "tail+tomb"] {
                let views: Vec<(&[u32], NeighborView<'_>)> =
                    instances.iter().map(|i| (i.cands.as_slice(), i.view(shape))).collect();
                for algo in ALGOS {
                    let id = BenchmarkId::new(format!("{algo:?}/{len}/1:{ratio}"), shape);
                    let mut buf = Vec::with_capacity(len);
                    group.bench_with_input(id, &views, |b, views| {
                        b.iter(|| {
                            let mut kept = 0;
                            for (cands, view) in views {
                                buf.clear();
                                buf.extend_from_slice(cands);
                                filter_in_place(&mut buf, view, algo, &mut CostCounter::default());
                                kept += buf.len();
                            }
                            kept
                        })
                    });
                }
            }
        }
    }
    group.finish();
}

fn bench_materialize(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(18);
    let l = lists(&mut rng, LIST_LEN);
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

criterion_group!(benches, bench_filter, bench_filter_short, bench_materialize);
criterion_main!(benches);
