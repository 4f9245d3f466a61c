//! The one-pass host traversal (`gcsm_freq::estimate_and_match`) against
//! the two passes it replaces: `estimate_merged` for the estimate and
//! `delta_task_stats` / `run_gpu_kernel_with_plans` over a `CachedSource`
//! for the kernel. The estimate (`freq` bits, `walk_ops`, touched list),
//! every per-task `MatchStats`, the imbalance bits and the charged
//! `TrafficSnapshot` must all be equal — for the triangle, the kite, a
//! labeled kite and Q1–Q6 with symmetry breaking off and on, over random
//! insert/delete batches with duplicate oriented seeds, a cache with hits
//! and misses, the Merge, Gallop and Auto kernels, and 1-, 2- and 4-thread
//! pools as well as the serial path.

use gcsm::kernel::{delta_task_stats, finish_launch, run_gpu_kernel_with_plans};
use gcsm::sources::CachedSource;
use gcsm::EngineConfig;
use gcsm_cache::Dcsr;
use gcsm_freq::{estimate_and_match, estimate_merged, FreqEstimate, PassOptions, WalkParams};
use gcsm_gpusim::{Device, GpuConfig};
use gcsm_graph::{CsrBuilder, DynamicGraph, EdgeUpdate, Label};
use gcsm_matcher::{DynSource, IntersectAlgo, ReadTallies};
use gcsm_pattern::{compile_incremental, queries, MatchPlan, PlanOptions, QueryGraph};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A sealed random graph (labels drawn from `0..labels`) and the batch the
/// kernel runs on: the applied deletes and inserts, plus repeats of some of
/// them in both orientations, so oriented seeds occur more than once.
fn sealed(seed: u64, n: u32, edges: usize, labels: Label) -> (DynamicGraph, Vec<EdgeUpdate>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::new(n as usize);
    for _ in 0..edges {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.set_labels((0..n).map(|_| rng.gen_range(0..labels)).collect());
    let g0 = b.build();
    let mut batch: Vec<EdgeUpdate> =
        g0.edges().step_by(9).map(|(a, b)| EdgeUpdate::delete(a, b)).collect();
    batch.extend((0..60).map(|_| EdgeUpdate::insert(rng.gen_range(0..n), rng.gen_range(0..n))));
    let mut g = DynamicGraph::from_csr(&g0);
    let mut applied = g.apply_batch(&batch).applied;
    let repeats: Vec<EdgeUpdate> = applied
        .iter()
        .step_by(5)
        .map(|u| EdgeUpdate { src: u.dst, dst: u.src, ..*u })
        .chain(applied.iter().step_by(7).copied())
        .collect();
    applied.extend(repeats);
    (g, applied)
}

/// Every third vertex cached: the kernel sees hits and misses.
fn cache_of(g: &DynamicGraph) -> Dcsr {
    let cached: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
    Dcsr::pack(g, &cached)
}

fn bits(est: &FreqEstimate) -> Vec<u64> {
    est.freq.iter().map(|f| f.to_bits()).collect()
}

/// One executor configuration: a pool size, or the serial path (`None`).
const POOLS: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];

fn check(g: &DynamicGraph, batch: &[EdgeUpdate], plans: &[MatchPlan], what: &str) {
    let host = DynSource::new(g);
    let dcsr = cache_of(g);
    let d = g.max_degree_bound();
    let params = WalkParams { walks: 24 * batch.len() as u64, seed: 17 };
    let cfg = EngineConfig::default();
    let want_est = estimate_merged(&host, plans, batch, d, &params);
    assert!(want_est.walk_ops > 0, "{what}: the walks never ran");
    let want_tasks = delta_task_stats(&host, plans, batch, &EngineConfig::default());
    assert!(want_tasks.iter().any(|s| s.matches != 0), "{what}: no matches to compare");
    let want_device = Device::new(GpuConfig::default());
    let src = CachedSource { graph: g, device: &want_device, dcsr: &dcsr };
    let want_run = run_gpu_kernel_with_plans(&want_device, &src, plans, batch, &cfg);
    let want_traffic = want_device.snapshot();
    assert!(want_traffic.cache_hits > 0 && want_traffic.cache_misses > 0, "{what}");

    let mut reads = ReadTallies::default();
    for (threads, algo) in POOLS.iter().flat_map(|&t| {
        [IntersectAlgo::Merge, IntersectAlgo::Gallop, IntersectAlgo::Auto].map(|a| (t, a))
    }) {
        let ctx = format!("{what} threads {threads:?} {algo:?}");
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads.unwrap_or(2)).build();
        let opts = PassOptions { algo, parallel: threads.is_some() };
        let pass = pool.expect("pool").install(|| {
            estimate_and_match(
                FreqEstimate::default(),
                &host,
                plans,
                batch,
                d,
                &params,
                opts,
                &reads,
            )
        });
        assert_eq!(bits(&pass.estimate), bits(&want_est), "{ctx}: freq");
        assert_eq!(pass.estimate.walk_ops, want_est.walk_ops, "{ctx}: walk_ops");
        assert_eq!(pass.estimate.touched(), want_est.touched(), "{ctx}: touched");
        assert_eq!(pass.tasks.len(), want_tasks.len(), "{ctx}");
        for (i, (got, exp)) in pass.tasks.iter().zip(&want_tasks).enumerate() {
            assert_eq!(got, exp, "{ctx}: task {i}");
        }
        let device = Device::new(GpuConfig::default());
        let src = CachedSource { graph: g, device: &device, dcsr: &dcsr };
        src.charge_tallied(&mut reads, threads.is_some());
        let run = finish_launch(&device, &pass.tasks, &cfg);
        assert_eq!(run.stats, want_run.stats, "{ctx}");
        assert_eq!(run.imbalance.to_bits(), want_run.imbalance.to_bits(), "{ctx}: imbalance");
        assert_eq!(device.snapshot(), want_traffic, "{ctx}: traffic");
        // Draining emptied the tallies; they stay pooled for the next pass.
        let pooled = reads.pooled();
        assert!((1..=5).contains(&pooled), "{ctx}: {pooled} tallies");
        reads.drain(|v, sel, n| panic!("{ctx}: {n} reads of ({v}, {sel:?}) left over"));
    }
}

fn unlabeled_queries() -> Vec<QueryGraph> {
    let mut qs = vec![queries::triangle(), queries::fig1_kite()];
    qs.extend(queries::all());
    qs
}

#[test]
fn pass_equals_estimator_plus_kernel_on_every_query() {
    let (g, batch) = sealed(5, 90, 700, 1);
    for q in unlabeled_queries() {
        for symmetry_break in [false, true] {
            let plans = compile_incremental(&q, PlanOptions { symmetry_break });
            check(&g, &batch, &plans, &format!("{} sb={symmetry_break}", q.name()));
        }
    }
}

#[test]
fn pass_equals_estimator_plus_kernel_on_a_labeled_kite() {
    let (g, batch) = sealed(8, 70, 900, 2);
    let kite = queries::fig1_kite();
    let q = QueryGraph::with_labels("kite-labeled", 4, kite.edges(), vec![0, 1, 1, 0]);
    for symmetry_break in [false, true] {
        let plans = compile_incremental(&q, PlanOptions { symmetry_break });
        check(&g, &batch, &plans, &format!("labeled kite sb={symmetry_break}"));
    }
}

/// No walks (or `D = 0`) leave the estimate empty and the kernel whole.
#[test]
fn pass_without_walks_still_runs_the_kernel() {
    let (g, batch) = sealed(3, 60, 400, 1);
    let host = DynSource::new(&g);
    let plans = compile_incremental(&queries::q1(), PlanOptions::default());
    let reads = ReadTallies::default();
    let want = delta_task_stats(&host, &plans, &batch, &EngineConfig::default());
    for (d, walks) in [(g.max_degree_bound(), 0), (0, 1000)] {
        let params = WalkParams { walks, seed: 1 };
        let opts = PassOptions::default();
        let pass = estimate_and_match(
            FreqEstimate::default(),
            &host,
            &plans,
            &batch,
            d,
            &params,
            opts,
            &reads,
        );
        assert_eq!(pass.estimate.walk_ops, 0);
        assert!(pass.estimate.touched().is_empty());
        assert_eq!(pass.tasks, want);
    }
    let empty = estimate_and_match(
        FreqEstimate::default(),
        &host,
        &plans,
        &[],
        8,
        &WalkParams::default(),
        PassOptions::default(),
        &reads,
    );
    assert!(empty.tasks.is_empty() && empty.estimate.walk_ops == 0);
}

/// On a tracing device the tallied reads are replayed one by one: the same
/// snapshot and the same multiset of trace events as the kernel's own reads.
#[test]
fn traced_charging_records_every_read() {
    let (g, batch) = sealed(4, 80, 600, 1);
    let host = DynSource::new(&g);
    let dcsr = cache_of(&g);
    let plans = compile_incremental(&queries::q4(), PlanOptions::default());
    let cfg = EngineConfig::default();
    let params = WalkParams { walks: 1000, seed: 2 };
    let d = g.max_degree_bound();
    let events = |device: &Device| {
        let mut e: Vec<String> = device.trace().drain().iter().map(|e| format!("{e:?}")).collect();
        e.sort();
        e
    };
    let want_device = Device::with_trace(GpuConfig::default(), 1 << 20);
    let src = CachedSource { graph: &g, device: &want_device, dcsr: &dcsr };
    run_gpu_kernel_with_plans(&want_device, &src, &plans, &batch, &cfg);

    let reads = ReadTallies::default();
    let opts = PassOptions { algo: cfg.algo, parallel: true };
    let pass = estimate_and_match(
        FreqEstimate::default(),
        &host,
        &plans,
        &batch,
        d,
        &params,
        opts,
        &reads,
    );
    let device = Device::with_trace(GpuConfig::default(), 1 << 20);
    let src = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
    let mut reads = reads;
    src.charge_tallied(&mut reads, true);
    finish_launch(&device, &pass.tasks, &cfg);
    assert_eq!(device.snapshot(), want_device.snapshot());
    assert!(want_device.trace().total_recorded() > 0);
    assert_eq!(device.trace().total_recorded(), want_device.trace().total_recorded());
    assert_eq!(events(&device), events(&want_device));
}
