//! The shared "GPU kernel": incremental matching over a batch, executed on
//! the simulated grid.
//!
//! Every GPU engine (ZP, UM, VSGM, Naive) runs this exact function — the
//! STMatch-adapted kernel of Sec. V-C — against a different
//! [`gcsm_matcher::NeighborSource`]. GCSM runs the same executor inside its
//! host pass (`gcsm_freq::estimate_and_match`, DESIGN.md §18), which also
//! draws the Sec. IV-B walks and tallies the kernel's view reads; once the
//! cache is chosen it charges the tallies through
//! [`crate::sources::CachedSource::charge_tallied`] and closes the launch
//! with [`finish_launch`], so its traffic, stats and imbalance are the ones
//! this function records over a `CachedSource`. The work items are the oriented seeds
//! (batch edge × orientation): each runs every delta plan on its seed
//! through [`gcsm_matcher::run_seed`], which shares the subtrees of plans
//! that agree below level 0 (DESIGN.md §17). The pool splits the seed list
//! into contiguous blocks (16 per pool thread) that threads claim
//! dynamically, so threads that draw cheap blocks keep claiming while
//! another works through a hub's seeds.
//!
//! The grid model still sees the (plan × batch edge × orientation) tasks
//! STMatch maps to thread blocks: every (plan, seed) pair's stats are
//! written back to its plan-major index `pi·2|ΔE| + 2e + o`, so the
//! per-task cost vector, and with it the imbalance factor, is the one a
//! per-task launch records. Compute is charged to the device as `gpu_ops`.
//! [`run_gpu_kernel_with_plans`] is [`delta_task_stats`] (the `dm_i` span)
//! followed by [`finish_launch`] (the `merge` span).

use crate::config::EngineConfig;
use gcsm_gpusim::Device;
use gcsm_graph::EdgeUpdate;
use gcsm_matcher::{
    match_from_seed, match_from_seed_stack, run_seed, EnumeratorKind, MatchStats, NeighborSource,
    PlanGroups, Scratch, SeedScratch, StackScratch,
};
use gcsm_pattern::{compile_incremental, QueryGraph};
use rayon::prelude::*;

/// Outcome of one kernel launch: aggregate stats plus the grid's
/// load-imbalance factor (`makespan / ideal` over the configured blocks and
/// scheduling policy — see [`gcsm_gpusim::schedule`]).
pub struct KernelRun {
    pub stats: MatchStats,
    pub imbalance: f64,
}

/// Run the incremental matching kernel. The intersect work is charged to
/// `device` as GPU compute and one kernel launch is recorded; the returned
/// imbalance factor tells the engine how much to stretch the kernel's time
/// for the scheduling policy in effect.
pub fn run_gpu_kernel<S: NeighborSource>(
    device: &Device,
    src: &S,
    q: &QueryGraph,
    batch: &[EdgeUpdate],
    cfg: &EngineConfig,
) -> KernelRun {
    let plans = compile_incremental(q, cfg.plan);
    run_gpu_kernel_with_plans(device, src, &plans, batch, cfg)
}

/// Like [`run_gpu_kernel`], but with caller-supplied delta plans (used by
/// the optimized-ordering mode, which compiles cardinality-scored plans).
pub fn run_gpu_kernel_with_plans<S: NeighborSource>(
    device: &Device,
    src: &S,
    plans: &[gcsm_pattern::MatchPlan],
    batch: &[EdgeUpdate],
    cfg: &EngineConfig,
) -> KernelRun {
    let per_task = {
        let mut span = gcsm_obs::span("dm_i", gcsm_obs::cat::MATCHER);
        span.set_count((plans.len() * batch.len() * 2) as u64);
        delta_task_stats(src, plans, batch, cfg)
    };
    finish_launch(device, &per_task, cfg)
}

/// Close a launch whose tasks have run (their view reads already charged):
/// charge the launch and its set-op compute to `device`, and fold the
/// per-task stats (in [`delta_task_stats`]' order) into the aggregate and
/// the grid's imbalance factor.
pub fn finish_launch(device: &Device, per_task: &[MatchStats], cfg: &EngineConfig) -> KernelRun {
    let mut merge_span = gcsm_obs::span("merge", gcsm_obs::cat::MATCHER);
    merge_span.set_count(per_task.len() as u64);
    // Per-task cost (intersect ops + list accesses as a proxy for the
    // task's memory time) for the load-balance model.
    let costs: Vec<u64> = per_task.iter().map(|s| s.intersect_ops + s.list_accesses).collect();
    let imbalance = gcsm_gpusim::imbalance_factor(&costs, cfg.gpu.num_blocks, cfg.scheduling);
    let stats = per_task.iter().copied().sum::<MatchStats>();
    drop(merge_span);
    device.traffic().add_kernel_launches(1);
    device.gpu_ops(stats.intersect_ops);
    KernelRun { stats, imbalance }
}

/// The kernel's per-task stats: one entry per (plan, batch edge,
/// orientation) task at plan-major index `pi·2|ΔE| + 2e + o`, orientation
/// 0 seeding `(src, dst)` and 1 `(dst, src)`. Each entry equals what
/// [`gcsm_matcher::match_from_seed_stack`] returns for that task, and `src`
/// is charged the same view reads; the tasks run seed-major through
/// [`gcsm_matcher::run_seed`], on the pool when `cfg.parallel_kernel` is set.
pub fn delta_task_stats<S: NeighborSource>(
    src: &S,
    plans: &[gcsm_pattern::MatchPlan],
    batch: &[EdgeUpdate],
    cfg: &EngineConfig,
) -> Vec<MatchStats> {
    let groups = PlanGroups::new(plans);
    let (n_plans, n_seeds) = (plans.len(), batch.len() * 2);
    // Seed-major output: seed `s` owns `by_seed[s·P .. (s+1)·P]`, one slot
    // per plan, so a seed writes a fixed-size slice and allocates nothing.
    let mut by_seed = vec![MatchStats::default(); n_plans * n_seeds];
    let seeds = batch.iter().flat_map(|u| {
        let sign = u.op.sign();
        [(u.src, u.dst, sign), (u.dst, u.src, sign)]
    });
    let run = |scratch: &mut SeedScratch, out: &mut [MatchStats], (a, b, sign)| {
        run_seed(src, plans, &groups, a, b, sign, cfg.algo, scratch, out)
    };
    if n_plans > 0 {
        let items = by_seed.chunks_mut(n_plans).zip(seeds);
        if cfg.parallel_kernel {
            items.into_par_iter().for_each_init(SeedScratch::default, |scratch, (out, seed)| {
                run(scratch, out, seed)
            });
        } else {
            let mut scratch = SeedScratch::default();
            items.for_each(|(out, seed)| run(&mut scratch, out, seed));
        }
    }
    // Transpose to the plan-major task order of the grid model.
    (0..n_plans).flat_map(|pi| by_seed.iter().skip(pi).step_by(n_plans).copied()).collect()
}

/// Static (from-scratch) matching on the simulated GPU: seed the static
/// plan on every graph edge. The paper's focus is incremental matching
/// (prior work already mapped Fig. 2a onto GPUs \[8\]\[9\]\[19\]); this
/// entry point computes the initial result `M(G_0)` under the same traffic
/// model, so a deployment can bootstrap counts before streaming.
pub fn run_gpu_kernel_static<S: NeighborSource>(
    device: &Device,
    src: &S,
    q: &QueryGraph,
    edges: &[(gcsm_graph::VertexId, gcsm_graph::VertexId)],
    cfg: &EngineConfig,
) -> KernelRun {
    let plan = gcsm_pattern::compile_static(q, cfg.plan);
    device.traffic().add_kernel_launches(1);
    let run_edge = |rs: &mut Scratch, ss: &mut StackScratch, u, v| {
        let mut acc = MatchStats::default();
        for (a, b) in [(u, v), (v, u)] {
            let s = match cfg.enumerator {
                EnumeratorKind::Recursive => {
                    match_from_seed(src, &plan, a, b, 1, cfg.algo, rs, &mut |_, _| {})
                }
                EnumeratorKind::Stack => {
                    match_from_seed_stack(src, &plan, a, b, 1, cfg.algo, ss, &mut |_, _| {})
                }
            };
            acc.merge(s);
        }
        let cost = acc.intersect_ops + acc.list_accesses;
        (acc, cost)
    };
    let per_task: Vec<(MatchStats, u64)> = if cfg.parallel_kernel {
        edges
            .par_iter()
            .map_init(
                || (Scratch::default(), StackScratch::default()),
                |(rs, ss), &(u, v)| run_edge(rs, ss, u, v),
            )
            .collect()
    } else {
        let (mut rs, mut ss) = (Scratch::default(), StackScratch::default());
        edges.iter().map(|&(u, v)| run_edge(&mut rs, &mut ss, u, v)).collect()
    };
    let costs: Vec<u64> = per_task.iter().map(|(_, c)| *c).collect();
    let imbalance = gcsm_gpusim::imbalance_factor(&costs, cfg.gpu.num_blocks, cfg.scheduling);
    let stats = per_task.into_iter().map(|(s, _)| s).sum::<MatchStats>();
    device.gpu_ops(stats.intersect_ops);
    KernelRun { stats, imbalance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{CachedSource, ZeroCopySource};
    use gcsm_gpusim::GpuConfig;
    use gcsm_graph::{CsrGraph, DynamicGraph};
    use gcsm_pattern::queries;

    #[test]
    fn kernel_counts_and_charges() {
        let g0 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut g = DynamicGraph::from_csr(&g0);
        let batch = vec![EdgeUpdate::insert(1, 3)];
        let summary = g.apply_batch(&batch);
        let device = Device::new(GpuConfig::default());
        let src = ZeroCopySource { graph: &g, device: &device };
        let cfg = EngineConfig::default();
        let run = run_gpu_kernel(&device, &src, &queries::triangle(), &summary.applied, &cfg);
        assert_eq!(run.stats.matches, 6); // one new triangle (1,2,3) × |Aut|=6
        assert!(run.imbalance >= 1.0);
        let t = device.snapshot();
        assert_eq!(t.gpu_ops, run.stats.intersect_ops);
        assert_eq!(t.kernel_launches, 1);
        assert!(t.zerocopy_bytes > 0);
    }

    #[test]
    fn static_kernel_counts_whole_graph() {
        // K4: 4 triangles × 6 embeddings = 24.
        let g0 = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let mut g = DynamicGraph::from_csr(&g0);
        g.begin_batch();
        g.seal_batch();
        let device = Device::new(GpuConfig::default());
        let src = ZeroCopySource { graph: &g, device: &device };
        let edges: Vec<_> = g0.edges().collect();
        let run = run_gpu_kernel_static(
            &device,
            &src,
            &queries::triangle(),
            &edges,
            &EngineConfig::default(),
        );
        assert_eq!(run.stats.matches, 24);
        assert!(run.imbalance >= 1.0);
        assert!(device.snapshot().zerocopy_bytes > 0);
    }

    /// A sealed random graph with inserts and deletes in flight.
    fn sealed_random_graph() -> (DynamicGraph, Vec<EdgeUpdate>) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let n = 120u32;
        let mut rng = SmallRng::seed_from_u64(5);
        let edges: Vec<_> = (0..900)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        let g0 = CsrGraph::from_edges(n as usize, &edges);
        let mut batch: Vec<EdgeUpdate> =
            g0.edges().step_by(11).map(|(a, b)| EdgeUpdate::delete(a, b)).collect();
        batch.extend((0..60).map(|_| EdgeUpdate::insert(rng.gen_range(0..n), rng.gen_range(0..n))));
        let mut g = DynamicGraph::from_csr(&g0);
        let summary = g.apply_batch(&batch);
        (g, summary.applied)
    }

    #[test]
    fn serial_and_parallel_agree() {
        use gcsm_cache::Dcsr;
        let (g, applied) = sealed_random_graph();
        // Cache every third vertex so the kernel sees hits and misses.
        let cached: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
        let dcsr = Dcsr::pack(&g, &cached);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        for q in [queries::triangle(), queries::q1(), queries::q4()] {
            let run = |parallel_kernel: bool| {
                let device = Device::new(GpuConfig::default());
                let src = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
                let cfg = EngineConfig { parallel_kernel, ..EngineConfig::default() };
                let run = pool.install(|| run_gpu_kernel(&device, &src, &q, &applied, &cfg));
                (run, device.snapshot())
            };
            let (par, par_traffic) = run(true);
            let (ser, ser_traffic) = run(false);
            assert!(par_traffic.cache_hits > 0 && par_traffic.cache_misses > 0);
            assert!(par.stats.matches != 0 && par.stats.list_accesses > 0);
            assert_eq!(par.stats, ser.stats, "{}", q.name());
            assert_eq!(par_traffic, ser_traffic, "{}", q.name());
            assert_eq!(par.imbalance.to_bits(), ser.imbalance.to_bits());
        }
    }

    /// Forwards to `inner`, recording which threads read neighbor lists.
    struct ThreadRecorder<'a, S> {
        inner: &'a S,
        threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl<S: NeighborSource> NeighborSource for ThreadRecorder<'_, S> {
        fn view(
            &self,
            v: gcsm_graph::VertexId,
            sel: gcsm_pattern::ViewSel,
        ) -> gcsm_graph::NeighborView<'_> {
            self.threads.lock().expect("recorder").insert(std::thread::current().id());
            self.inner.view(v, sel)
        }
        fn label(&self, v: gcsm_graph::VertexId) -> gcsm_graph::Label {
            self.inner.label(v)
        }
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn max_degree(&self) -> usize {
            self.inner.max_degree()
        }
    }

    #[test]
    fn static_kernel_serial_and_parallel_agree() {
        use gcsm_cache::Dcsr;
        let (g, _) = sealed_random_graph();
        let cached: Vec<u32> = (0..g.num_vertices() as u32).step_by(3).collect();
        let dcsr = Dcsr::pack(&g, &cached);
        let edges: Vec<_> = (0..g.num_vertices() as u32)
            .flat_map(|u| g.new_view(u).to_vec().into_iter().map(move |v| (u, v)))
            .filter(|&(u, v)| u < v)
            .collect();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        for q in [queries::triangle(), queries::q1()] {
            for enumerator in [EnumeratorKind::Recursive, EnumeratorKind::Stack] {
                let run = |parallel_kernel: bool| {
                    let device = Device::new(GpuConfig::default());
                    let cached = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
                    let src = ThreadRecorder { inner: &cached, threads: Default::default() };
                    let cfg =
                        EngineConfig { parallel_kernel, enumerator, ..EngineConfig::default() };
                    let run =
                        pool.install(|| run_gpu_kernel_static(&device, &src, &q, &edges, &cfg));
                    let threads = src.threads.into_inner().expect("recorder");
                    (run, device.snapshot(), threads)
                };
                let (par, par_traffic, _) = run(true);
                let (ser, ser_traffic, ser_threads) = run(false);
                // A serial run never leaves the calling thread.
                assert_eq!(
                    ser_threads.into_iter().collect::<Vec<_>>(),
                    [std::thread::current().id()]
                );
                assert!(par_traffic.cache_hits > 0 && par_traffic.cache_misses > 0);
                assert!(par.stats.matches > 0);
                assert_eq!(par.stats, ser.stats, "{} {enumerator:?}", q.name());
                assert_eq!(par_traffic, ser_traffic, "{} {enumerator:?}", q.name());
                assert!((par.imbalance - ser.imbalance).abs() < 1e-9);
            }
        }
    }
}
