//! The shared "GPU kernel": incremental matching over a batch, executed on
//! the simulated grid.
//!
//! Every GPU engine (GCSM, ZP, UM, VSGM, Naive) runs this exact function —
//! the STMatch-adapted kernel of Sec. V-C — against a different
//! [`gcsm_matcher::NeighborSource`]. The seed tasks (plan × batch edge ×
//! orientation) map to thread blocks. STMatch balances skewed seeds with
//! inter-block stealing; here the pool splits the task list into contiguous
//! blocks (16 per pool thread) that threads claim dynamically, so threads
//! that draw cheap blocks keep claiming while another works through a
//! costly plan's seeds. Compute is charged to the device as `gpu_ops`.

use crate::config::EngineConfig;
use gcsm_gpusim::Device;
use gcsm_graph::EdgeUpdate;
use gcsm_matcher::{
    delta_seeds, match_from_seed, match_from_seed_stack, EnumeratorKind, MatchStats,
    NeighborSource, Scratch, StackScratch,
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
    device.traffic().add_kernel_launches(1);

    // Per-task cost vector (intersect ops + list accesses as a proxy for
    // the task's memory time) for the load-balance model.
    let tasks = delta_seeds(plans, batch);
    let run_task =
        |rs: &mut Scratch, ss: &mut StackScratch, pi: usize, a, b, sign| match cfg.enumerator {
            EnumeratorKind::Recursive => {
                match_from_seed(src, &plans[pi], a, b, sign, cfg.algo, rs, &mut |_, _| {})
            }
            EnumeratorKind::Stack => {
                match_from_seed_stack(src, &plans[pi], a, b, sign, cfg.algo, ss, &mut |_, _| {})
            }
        };
    let run_slice = |slice: &[(usize, gcsm_graph::VertexId, gcsm_graph::VertexId, i64)]| -> Vec<(MatchStats, u64)> {
        if cfg.parallel_kernel {
            slice
                .par_iter()
                .map_init(
                    || (Scratch::default(), StackScratch::default()),
                    |(rs, ss), &(pi, a, b, sign)| {
                        let s = run_task(rs, ss, pi, a, b, sign);
                        let cost = s.intersect_ops + s.list_accesses;
                        (s, cost)
                    },
                )
                .collect()
        } else {
            let mut rs = Scratch::default();
            let mut ss = StackScratch::default();
            slice
                .iter()
                .map(|&(pi, a, b, sign)| {
                    let s = run_task(&mut rs, &mut ss, pi, a, b, sign);
                    let cost = s.intersect_ops + s.list_accesses;
                    (s, cost)
                })
                .collect()
        }
    };
    // `delta_seeds` is plan-major: plan `i`'s tasks are one contiguous
    // chunk of `batch.len() * 2` seeds, so with tracing on each ΔM_i level
    // runs under its own `dm_i` span. The chunks partition the same task
    // list in the same order, so the per-task cost vector (and therefore
    // the imbalance factor) is identical either way.
    let stride = batch.len() * 2;
    let per_task: Vec<(MatchStats, u64)> = if gcsm_obs::enabled() && stride > 0 {
        let mut out = Vec::with_capacity(tasks.len());
        for (level, chunk) in tasks.chunks(stride).enumerate() {
            let mut span = gcsm_obs::span("dm_i", gcsm_obs::cat::MATCHER);
            span.set_level(level as u32);
            span.set_count(chunk.len() as u64);
            out.extend(run_slice(chunk));
        }
        out
    } else {
        run_slice(&tasks)
    };
    let mut merge_span = gcsm_obs::span("merge", gcsm_obs::cat::MATCHER);
    merge_span.set_count(per_task.len() as u64);
    let costs: Vec<u64> = per_task.iter().map(|(_, c)| *c).collect();
    let imbalance = gcsm_gpusim::imbalance_factor(&costs, cfg.gpu.num_blocks, cfg.scheduling);
    let stats = per_task.into_iter().map(|(s, _)| s).sum::<MatchStats>();
    drop(merge_span);
    device.gpu_ops(stats.intersect_ops);
    KernelRun { stats, imbalance }
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
    let per_task: Vec<(MatchStats, u64)> = edges
        .par_iter()
        .map_init(
            || (Scratch::default(), StackScratch::default()),
            |(rs, ss), &(u, v)| {
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
            },
        )
        .collect();
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
        for q in [queries::triangle(), queries::q1()] {
            for enumerator in [EnumeratorKind::Recursive, EnumeratorKind::Stack] {
                let run = |parallel_kernel: bool| {
                    let device = Device::new(GpuConfig::default());
                    let src = CachedSource { graph: &g, device: &device, dcsr: &dcsr };
                    let cfg =
                        EngineConfig { parallel_kernel, enumerator, ..EngineConfig::default() };
                    let run = pool.install(|| run_gpu_kernel(&device, &src, &q, &applied, &cfg));
                    (run, device.snapshot())
                };
                let (par, par_traffic) = run(true);
                let (ser, ser_traffic) = run(false);
                assert!(par_traffic.cache_hits > 0 && par_traffic.cache_misses > 0);
                assert!(par.stats.matches != 0 && par.stats.list_accesses > 0);
                assert_eq!(par.stats, ser.stats, "{} {enumerator:?}", q.name());
                assert_eq!(par_traffic, ser_traffic, "{} {enumerator:?}", q.name());
                assert!((par.imbalance - ser.imbalance).abs() < 1e-9);
            }
        }
    }
}
