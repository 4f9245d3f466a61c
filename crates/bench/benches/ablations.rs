//! Design-choice ablations (beyond the paper's figures; DESIGN.md §4):
//!
//! * set-intersection kernels (merge / gallop / blocked / auto);
//! * recursive vs stack enumerator;
//! * merged-binomial vs naive independent random walks (Sec. IV-B);
//! * estimator walk budget `M` (Eq. (5) trade-off);
//! * the incremental GPU kernel on one skewed Q4 batch (seed-group executor,
//!   DESIGN.md §17);
//! * estimation plus the kernel on one road Q1 shard batch, as two passes
//!   and as GCSM's one host pass (DESIGN.md §18);
//! * graph reorganisation (Table III's wall-clock counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcsm::kernel::{finish_launch, run_gpu_kernel_with_plans};
use gcsm::sources::CachedSource;
use gcsm::EngineConfig;
use gcsm_bench::{RunConfig, Workload};
use gcsm_cache::Dcsr;
use gcsm_datagen::road::{self, RoadConfig};
use gcsm_datagen::social::{generate_social, SocialConfig};
use gcsm_datagen::{Preset, StreamConfig, UpdateStream};
use gcsm_freq::{
    estimate_and_match, estimate_merged, estimate_naive, recommended_walks, select_top_frequency,
    FreqEstimate, PassOptions, WalkParams,
};
use gcsm_gpusim::Device;
use gcsm_graph::DynamicGraph;
use gcsm_matcher::{
    match_incremental, DriverOptions, DynSource, EnumeratorKind, IntersectAlgo, ReadTallies,
};
use gcsm_pattern::{compile_incremental, queries, PlanOptions};
use gcsm_shard::{route, PartitionPolicy, Partitioning};

fn setup() -> (DynamicGraph, Vec<gcsm_graph::EdgeUpdate>) {
    let rc = RunConfig { scale: 0.0625, max_batches: 1, ..Default::default() };
    let w = Workload::build(Preset::Friendster, rc.scale, 512, 1);
    let mut g = DynamicGraph::from_csr(&w.initial);
    let summary = g.apply_batch(&w.batches[0]);
    (g, summary.applied)
}

fn bench_intersect_kernels(c: &mut Criterion) {
    let (g, batch) = setup();
    let q = queries::q2();
    let mut group = c.benchmark_group("ablation_intersect_kernel");
    group.sample_size(10);
    for (name, algo) in [
        ("merge", IntersectAlgo::Merge),
        ("gallop", IntersectAlgo::Gallop),
        ("blocked", IntersectAlgo::Blocked),
        ("auto", IntersectAlgo::Auto),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &algo, |b, &algo| {
            let src = DynSource::new(&g);
            let opts = DriverOptions { algo, parallel: true, ..Default::default() };
            b.iter(|| match_incremental(&src, &q, &batch, &opts).matches);
        });
    }
    group.finish();
}

fn bench_enumerators(c: &mut Criterion) {
    let (g, batch) = setup();
    let q = queries::q1();
    let mut group = c.benchmark_group("ablation_enumerator");
    group.sample_size(10);
    for (name, e) in [("recursive", EnumeratorKind::Recursive), ("stack", EnumeratorKind::Stack)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &e, |b, &e| {
            let src = DynSource::new(&g);
            let opts = DriverOptions { enumerator: e, parallel: true, ..Default::default() };
            b.iter(|| match_incremental(&src, &q, &batch, &opts).matches);
        });
    }
    group.finish();
}

fn bench_walk_strategies(c: &mut Criterion) {
    let (g, batch) = setup();
    let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
    let d = g.max_degree_bound();
    let mut group = c.benchmark_group("ablation_walks");
    group.sample_size(10);
    let params = WalkParams { walks: 8192, seed: 3 };
    group.bench_function("merged_8k", |b| {
        let src = DynSource::new(&g);
        b.iter(|| estimate_merged(&src, &plans, &batch, d, &params).walk_ops);
    });
    group.bench_function("naive_8k", |b| {
        let src = DynSource::new(&g);
        b.iter(|| estimate_naive(&src, &plans, &batch, d, &params).walk_ops);
    });
    for m in [1024u64, 65_536] {
        group.bench_with_input(BenchmarkId::new("merged_sweep", m), &m, |b, &m| {
            let src = DynSource::new(&g);
            let p = WalkParams { walks: m, seed: 3 };
            b.iter(|| estimate_merged(&src, &plans, &batch, d, &p).walk_ops);
        });
    }
    // The flat regime next to the skewed one: one shard's share of a bulk
    // batch on a 2^18-vertex road lattice, Q1, the engine's walk budget.
    let (g, batch) = road_shard_batch();
    let q = queries::q1();
    let plans = compile_incremental(&q, PlanOptions::default());
    let d = g.max_degree_bound();
    let params = WalkParams { walks: recommended_walks(q.num_vertices(), batch.len(), d), seed: 3 };
    group.bench_function("merged_road_q1_shard", |b| {
        let src = DynSource::new(&g);
        b.iter(|| estimate_merged(&src, &plans, &batch, d, &params).walk_ops);
    });
    group.finish();
}

/// A road lattice with one 4096-update batch of a 20 % uniform stream
/// applied, and the updates hash shard 0 of 2 matches.
fn road_shard_batch() -> (DynamicGraph, Vec<gcsm_graph::EdgeUpdate>) {
    let g0 = road::generate(&RoadConfig::with_vertices(1 << 18, 1));
    let stream = UpdateStream::generate(&g0, StreamConfig::Fraction(0.2), 2);
    let batch = stream.batches(4096).next().unwrap_or_default();
    let mut g = DynamicGraph::from_csr(&stream.initial);
    let applied = g.apply_batch(batch).applied;
    let parts = Partitioning::compute(&stream.initial, PartitionPolicy::HashSrc, 2);
    let shard0 = route(&applied, &parts).per_shard_match.swap_remove(0);
    (g, shard0)
}

/// One batch through the incremental kernel over GCSM's cached source: a
/// skewed social graph (2^15 vertices, backbone degree 6), the paper's 10 %
/// uniform stream in batches of 1024, Q4, and the cache the engine selects
/// from the merged-walk estimate under the device budget.
fn bench_kernel(c: &mut Criterion) {
    let g0 = generate_social(&SocialConfig::new(15, 6, 1));
    let stream = UpdateStream::generate(&g0, StreamConfig::Fraction(0.10), 2);
    let batch = stream.batches(1024).next().unwrap_or_default();
    let mut g = DynamicGraph::from_csr(&stream.initial);
    let applied = g.apply_batch(batch).applied;
    let q = queries::q4();
    let cfg = EngineConfig::default();
    let plans = compile_incremental(&q, cfg.plan);
    let d = g.max_degree_bound();
    let params = WalkParams {
        walks: recommended_walks(q.num_vertices(), applied.len(), d),
        seed: cfg.walk_seed,
    };
    let est = estimate_merged(&DynSource::new(&g), &plans, &applied, d, &params);
    let selection = select_top_frequency(&est, cfg.gpu.cache_budget(), |v| g.list_bytes(v));
    let dcsr = Dcsr::pack(&g, &selection.vertices);
    let mut group = c.benchmark_group("ablation_kernel");
    group.sample_size(10);
    group.bench_function("skew_q4_cached", |b| {
        b.iter(|| {
            let device = Device::new(cfg.gpu);
            let src = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
            run_gpu_kernel_with_plans(&device, &src, &plans, &applied, &cfg).stats.matches
        });
    });
    group.finish();
}

/// One `road_sharded` shard batch (Q1, the engine's walk budget and cache
/// selection) through estimation plus the kernel, as two passes
/// (`estimate_merged`, then `run_gpu_kernel_with_plans` over the cached
/// source) and as GCSM's one host pass (`estimate_and_match`, then the
/// tallied reads charged to the same cache).
fn bench_fused(c: &mut Criterion) {
    let (g, batch) = road_shard_batch();
    let q = queries::q1();
    let cfg = EngineConfig::default();
    let plans = compile_incremental(&q, cfg.plan);
    let d = g.max_degree_bound();
    let params = WalkParams {
        walks: recommended_walks(q.num_vertices(), batch.len(), d),
        seed: cfg.walk_seed,
    };
    let host = DynSource::new(&g);
    let est = estimate_merged(&host, &plans, &batch, d, &params);
    let selection = select_top_frequency(&est, cfg.gpu.cache_budget(), |v| g.list_bytes(v));
    let dcsr = Dcsr::pack(&g, &selection.vertices);
    let mut group = c.benchmark_group("ablation_fused");
    group.sample_size(15);
    group.bench_function("road_q1_two_passes", |b| {
        b.iter(|| {
            let est = estimate_merged(&host, &plans, &batch, d, &params);
            let device = Device::new(cfg.gpu);
            let src = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
            let run = run_gpu_kernel_with_plans(&device, &src, &plans, &batch, &cfg);
            (est.walk_ops, run.stats.matches)
        });
    });
    let mut reads = ReadTallies::default();
    let mut spent = Some(FreqEstimate::default());
    group.bench_function("road_q1_one_pass", |b| {
        b.iter(|| {
            let opts = PassOptions { algo: cfg.algo, parallel: cfg.parallel_kernel };
            let recycled = spent.take().unwrap_or_default();
            let pass =
                estimate_and_match(recycled, &host, &plans, &batch, d, &params, opts, &reads);
            let device = Device::new(cfg.gpu);
            let src = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
            src.charge_tallied(&mut reads, cfg.parallel_kernel);
            let run = finish_launch(&device, &pass.tasks, &cfg);
            let walk_ops = pass.estimate.walk_ops;
            spent = Some(pass.estimate);
            (walk_ops, run.stats.matches)
        });
    });
    group.finish();
}

fn bench_reorganize(c: &mut Criterion) {
    let rc = RunConfig { scale: 0.25, max_batches: 1, ..Default::default() };
    let mut group = c.benchmark_group("table3_reorganize_wall");
    group.sample_size(10);
    for (preset, batch_size) in [(Preset::Friendster, 4096usize), (Preset::Sf10k, 8192)] {
        let w = Workload::build(preset, rc.scale, batch_size, 1);
        group.bench_with_input(BenchmarkId::new(preset.name(), batch_size), &w, |b, w| {
            b.iter_batched(
                || {
                    let mut g = DynamicGraph::from_csr(&w.initial);
                    g.apply_batch(&w.batches[0]);
                    g
                },
                |mut g| {
                    g.reorganize();
                    g
                },
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(
            BenchmarkId::new(format!("{}_parallel", preset.name()), batch_size),
            &w,
            |b, w| {
                b.iter_batched(
                    || {
                        let mut g = DynamicGraph::from_csr(&w.initial);
                        g.apply_batch(&w.batches[0]);
                        g
                    },
                    |mut g| {
                        g.reorganize_parallel();
                        g
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_intersect_kernels,
    bench_enumerators,
    bench_walk_strategies,
    bench_kernel,
    bench_fused,
    bench_reorganize
);
criterion_main!(benches);
