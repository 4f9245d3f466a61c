//! Micro-bench for the pool behind the vendored `rayon` stand-in.
//!
//! `pool_overhead` times a trivial `par_iter().map` over 2, 64 and 4096 items:
//! at 2 items the time is almost all per-call cost (publishing the job,
//! waking workers, waiting for claimed blocks). `pool_skewed` maps 4096 items
//! where 1 item in 64 costs 100× the others, once with the costly items
//! spread evenly and once clustered at the front (as plan-major seed tasks
//! cluster their costly plans), next to a serial map of the same items; the
//! parallel/serial ratio shows how well blocks balance. Run with
//! `cargo bench -p gcsm-bench --bench pool`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rayon::prelude::*;
use std::hint::black_box;

const SIZES: [usize; 3] = [2, 64, 4096];
const SKEWED_ITEMS: usize = 4096;
/// One item in `SKEW_PERIOD` is costly.
const SKEW_PERIOD: usize = 64;
const SKEW_FACTOR: u64 = 100;

/// Busy work proportional to `units`.
fn work(units: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..units * 32 {
        x = x.rotate_left(5) ^ x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_overhead");
    group.sample_size(2000);
    for n in SIZES {
        let items: Vec<u64> = (0..n as u64).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("par_map", n), &items, |b, items| {
            b.iter(|| items.par_iter().map(|&x| x + 1).collect::<Vec<u64>>().len())
        });
    }
    group.finish();
}

fn bench_skewed(c: &mut Criterion) {
    let costly = SKEWED_ITEMS / SKEW_PERIOD;
    let spread: Vec<u64> =
        (0..SKEWED_ITEMS).map(|i| if i % SKEW_PERIOD == 0 { SKEW_FACTOR } else { 1 }).collect();
    let clustered: Vec<u64> =
        (0..SKEWED_ITEMS).map(|i| if i < costly { SKEW_FACTOR } else { 1 }).collect();
    let mut group = c.benchmark_group("pool_skewed");
    group.sample_size(100);
    group.throughput(Throughput::Elements(SKEWED_ITEMS as u64));
    for (layout, costs) in [("spread", &spread), ("clustered", &clustered)] {
        group.bench_with_input(BenchmarkId::new("serial", layout), costs, |b, costs| {
            b.iter(|| costs.iter().map(|&u| black_box(work(u))).collect::<Vec<u64>>().len())
        });
        group.bench_with_input(BenchmarkId::new("par_map", layout), costs, |b, costs| {
            b.iter(|| costs.par_iter().map(|&u| black_box(work(u))).collect::<Vec<u64>>().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overhead, bench_skewed);
criterion_main!(benches);
