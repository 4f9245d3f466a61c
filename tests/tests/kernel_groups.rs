//! Kernel differential suite: the seed-group executor behind
//! `run_gpu_kernel_with_plans` must reproduce, task for task, what running
//! every (plan × batch edge × orientation) task alone through
//! `match_from_seed_stack` in plan-major order gives — the per-task
//! `MatchStats`, the bits of the grid's imbalance factor and the full
//! `TrafficSnapshot` — for every query, with and without symmetry breaking,
//! over cached (hits and misses) and zero-copy sources, on 1-, 2- and
//! 4-thread pools and with the parallel kernel off.

use gcsm::kernel::{delta_task_stats, run_gpu_kernel_with_plans};
use gcsm::sources::{CachedSource, ZeroCopySource};
use gcsm::EngineConfig;
use gcsm_cache::Dcsr;
use gcsm_gpusim::{imbalance_factor, Device, GpuConfig, Scheduling, TrafficSnapshot};
use gcsm_graph::{CsrBuilder, CsrGraph, DynamicGraph, EdgeUpdate, Label, NeighborView, VertexId};
use gcsm_matcher::{match_from_seed_stack, MatchStats, NeighborSource, PlanGroups, StackScratch};
use gcsm_pattern::{compile_incremental, queries, MatchPlan, PlanOptions, QueryGraph, ViewSel};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A sealed random graph (`n` vertices, labels drawn from `0..labels`) with
/// a batch of deletes and inserts applied.
fn sealed_graph(seed: u64, n: u32, edges: usize, labels: Label) -> (DynamicGraph, Vec<EdgeUpdate>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::new(n as usize);
    for _ in 0..edges {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.set_labels((0..n).map(|_| rng.gen_range(0..labels)).collect());
    let g0: CsrGraph = b.build();
    let mut batch: Vec<EdgeUpdate> =
        g0.edges().step_by(9).map(|(a, b)| EdgeUpdate::delete(a, b)).collect();
    batch.extend((0..50).map(|_| EdgeUpdate::insert(rng.gen_range(0..n), rng.gen_range(0..n))));
    let mut g = DynamicGraph::from_csr(&g0);
    let applied = g.apply_batch(&batch).applied;
    (g, applied)
}

/// The per-task reference: every task alone, plan-major, on `device`.
fn reference<S: NeighborSource>(
    device: &Device,
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    cfg: &EngineConfig,
) -> (Vec<MatchStats>, u64) {
    device.traffic().add_kernel_launches(1);
    let mut ss = StackScratch::default();
    let mut per_task = Vec::new();
    for plan in plans {
        for u in batch {
            for (a, b) in [(u.src, u.dst), (u.dst, u.src)] {
                let sign = u.op.sign();
                per_task.push(match_from_seed_stack(
                    src,
                    plan,
                    a,
                    b,
                    sign,
                    cfg.algo,
                    &mut ss,
                    &mut |_, _| {},
                ));
            }
        }
    }
    let costs: Vec<u64> = per_task.iter().map(|s| s.intersect_ops + s.list_accesses).collect();
    let imbalance = imbalance_factor(&costs, cfg.gpu.num_blocks, cfg.scheduling);
    let ops = per_task.iter().map(|s| s.intersect_ops).sum();
    device.gpu_ops(ops);
    (per_task, imbalance.to_bits())
}

/// Which traffic-recording source a run reads through.
#[derive(Clone, Copy, Debug)]
enum Src {
    Cached,
    ZeroCopy,
}

/// One executor configuration: a pool size, or the serial kernel (`None`).
const POOLS: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];

struct Fixture {
    g: DynamicGraph,
    batch: Vec<EdgeUpdate>,
    dcsr: Dcsr,
    pools: Vec<(Option<usize>, rayon::ThreadPool)>,
}

impl Fixture {
    fn new(seed: u64, n: u32, edges: usize, labels: Label) -> Self {
        let (g, batch) = sealed_graph(seed, n, edges, labels);
        // Cache every third vertex so the kernel sees hits and misses.
        let cached: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
        let dcsr = Dcsr::pack(&g, &cached);
        let pools = POOLS
            .iter()
            .map(|&p| {
                let threads = p.unwrap_or(2);
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
                (p, pool.expect("pool"))
            })
            .collect();
        Self { g, batch, dcsr, pools }
    }

    /// Run `f` over a fresh device and the chosen source.
    fn with_src<R>(
        &self,
        which: Src,
        f: impl FnOnce(&Device, &Forward<'_>) -> R,
    ) -> (R, TrafficSnapshot) {
        let device = Device::new(GpuConfig::default());
        let r = match which {
            Src::Cached => {
                let src = CachedSource { graph: &self.g, device: &device, dcsr: &self.dcsr };
                f(&device, &Forward(&src))
            }
            Src::ZeroCopy => {
                f(&device, &Forward(&ZeroCopySource { graph: &self.g, device: &device }))
            }
        };
        (r, device.snapshot())
    }

    /// Compare the executor with the per-task reference for `plans`.
    fn check(&self, plans: &[MatchPlan], what: &str) {
        let batch = &self.batch;
        for scheduling in [Scheduling::WorkStealing, Scheduling::Chunked] {
            for which in [Src::Cached, Src::ZeroCopy] {
                let base = EngineConfig { scheduling, ..EngineConfig::default() };
                let ((want, want_bits), want_traffic) =
                    self.with_src(which, |device, src| reference(device, src, plans, batch, &base));
                assert!(want.iter().any(|s| s.matches != 0), "{what}: no matches to compare");
                if matches!(which, Src::Cached) {
                    assert!(want_traffic.cache_hits > 0 && want_traffic.cache_misses > 0);
                }
                for (threads, pool) in &self.pools {
                    let cfg = EngineConfig { parallel_kernel: threads.is_some(), ..base.clone() };
                    let ctx = format!("{what} {which:?} {scheduling:?} threads {threads:?}");
                    let (per_task, _) = self.with_src(which, |_, src| {
                        pool.install(|| delta_task_stats(src, plans, batch, &cfg))
                    });
                    assert_eq!(per_task.len(), want.len(), "{ctx}");
                    for (i, (got, exp)) in per_task.iter().zip(&want).enumerate() {
                        assert_eq!(got, exp, "{ctx}: task {i}");
                    }
                    let (run, traffic) = self.with_src(which, |device, src| {
                        pool.install(|| run_gpu_kernel_with_plans(device, src, plans, batch, &cfg))
                    });
                    assert_eq!(run.stats, want.iter().copied().sum::<MatchStats>(), "{ctx}");
                    assert_eq!(run.imbalance.to_bits(), want_bits, "{ctx}: imbalance");
                    assert_eq!(traffic, want_traffic, "{ctx}: traffic");
                }
            }
        }
    }
}

/// Forwards to a source chosen at run time.
struct Forward<'a>(&'a dyn NeighborSource);

impl NeighborSource for Forward<'_> {
    fn view(&self, v: VertexId, sel: ViewSel) -> NeighborView<'_> {
        self.0.view(v, sel)
    }
    fn label(&self, v: VertexId) -> Label {
        self.0.label(v)
    }
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn max_degree(&self) -> usize {
        self.0.max_degree()
    }
}

fn unlabeled_queries() -> Vec<QueryGraph> {
    let mut qs = vec![queries::triangle(), queries::fig1_kite()];
    qs.extend(queries::all());
    qs
}

#[test]
fn executor_matches_per_task_reference_on_every_query() {
    let fx = Fixture::new(5, 90, 700, 1);
    for q in unlabeled_queries() {
        for symmetry_break in [false, true] {
            let plans = compile_incremental(&q, PlanOptions { symmetry_break });
            fx.check(&plans, &format!("{} sb={symmetry_break}", q.name()));
        }
    }
}

#[test]
fn shared_subtrees_are_exercised() {
    // Without symmetry breaking Q4 and the kite have suffix-sharing plans;
    // the suite above must therefore run shared subtrees, not only
    // singleton groups.
    for q in [queries::q4(), queries::fig1_kite()] {
        let plans = compile_incremental(&q, PlanOptions::default());
        assert_eq!(PlanGroups::new(&plans).max_len(), 2, "{}", q.name());
    }
}

#[test]
fn executor_matches_reference_on_labeled_query() {
    let fx = Fixture::new(9, 70, 900, 2);
    let kite = QueryGraph::with_labels(
        "kite-labeled",
        4,
        &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
        vec![0, 1, 1, 0],
    );
    for symmetry_break in [false, true] {
        let plans = compile_incremental(&kite, PlanOptions { symmetry_break });
        fx.check(&plans, &format!("kite-labeled sb={symmetry_break}"));
    }
}

#[test]
fn executor_matches_reference_on_random_batches() {
    for seed in 20..23 {
        let fx = Fixture::new(seed, 60, 420, 1);
        for q in [queries::fig1_kite(), queries::q4(), queries::q2()] {
            let plans = compile_incremental(&q, PlanOptions::default());
            fx.check(&plans, &format!("{} seed {seed}", q.name()));
        }
    }
}
