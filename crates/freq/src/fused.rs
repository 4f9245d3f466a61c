//! One host pass per batch: the Sec. IV-B walks drawn inside the matching
//! kernel's own DFS.
//!
//! The merged estimator samples paths of the same WCOJ execution tree that
//! the kernel (Sec. V-C) then enumerates in full, so running both walks
//! every node the estimator needs twice. [`estimate_and_match`] runs the
//! tree once: the seed-group executor enumerates every (plan, seed) task
//! over the host graph in the estimator's sorted, chunked seed order, and
//! each task carries its walks' visit count `B` down the DFS (see
//! [`crate::merged`]). A node with `B > 0` logs its hits and its set-op
//! cost for the estimate; every candidate of such a node draws its
//! `Binomial(B, 1/D)` from the task's keyed stream in the order the pruned
//! walk draws. Nodes with `B = 0` still run, for the kernel.
//!
//! The outcome is the pair of passes it replaces, exactly:
//!
//! * the [`FreqEstimate`] is bit-identical to [`crate::estimate_merged`]'s
//!   (`freq`, `walk_ops`, touched list) — the set-op cost model depends on
//!   sizes only, so the kernel's intersection algorithm does not move it;
//! * the per-task stats equal the kernel's (`pi·2|ΔE| + 2e + o`, as
//!   `gcsm::kernel::delta_task_stats` returns them);
//! * the view reads the kernel issues are counted per (vertex, view) in
//!   [`ReadTallies`]. The device cache is only chosen after the estimate,
//!   so the caller charges the tallies to the cache afterwards, read for
//!   read what the kernel's source would have been charged.

use crate::estimate::{FreqEstimate, WalkParams};
use crate::merged::{fold_logs, Walk, CHUNK_SEEDS};
use gcsm_graph::EdgeUpdate;
use gcsm_matcher::{IntersectAlgo, MatchStats, NeighborSource, ReadTallies};
use gcsm_pattern::MatchPlan;

/// How the pass runs the kernel's side.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassOptions {
    /// Intersection kernel for the enumeration (the model cost, and so the
    /// estimate, does not depend on it).
    pub algo: IntersectAlgo,
    /// Run the seed chunks on the rayon pool.
    pub parallel: bool,
}

/// What one host pass over a batch yields.
#[derive(Clone, Debug)]
pub struct BatchPass {
    /// The merged estimate of the batch.
    pub estimate: FreqEstimate,
    /// Every (plan, seed) task's stats, plan-major: task `pi·2|ΔE| + 2e + o`
    /// is plan `pi` seeded on update `e` in orientation `o` (0 seeds
    /// `(src, dst)`, 1 seeds `(dst, src)`).
    pub tasks: Vec<MatchStats>,
}

/// Estimate access frequencies and enumerate every delta task of `batch`
/// in one pass over the host source `src`, counting the tasks' view reads
/// in `reads` (drain them to charge a cache). `spent` is a previous
/// estimate whose allocation is reused, as in
/// [`crate::estimate_merged_into`]. The estimate is bit-identical for every
/// pool size and with `opts.parallel` off.
#[allow(clippy::too_many_arguments)]
pub fn estimate_and_match<S: NeighborSource>(
    spent: FreqEstimate,
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    max_degree: usize,
    params: &WalkParams,
    opts: PassOptions,
    reads: &ReadTallies,
) -> BatchPass {
    let mut estimate = spent.reset(src.num_vertices());
    let n_seeds = batch.len() * 2;
    let mut tasks = vec![MatchStats::default(); plans.len() * n_seeds];
    let Some(walk) = Walk::new(src, plans, batch, max_degree, params) else {
        return BatchPass { estimate, tasks };
    };
    let logs = walk.run(opts.algo, opts.parallel, Some(reads));
    // Scatter the sorted seeds' stats to their plan-major task slots.
    let sorted = walk.seeds.chunks(CHUNK_SEEDS).zip(&logs);
    for (seeds, log) in sorted {
        for (seed, stats) in seeds.iter().zip(log.stats.chunks(plans.len().max(1))) {
            for (pi, &s) in stats.iter().enumerate() {
                if let Some(task) = tasks.get_mut(pi * n_seeds + seed.slot) {
                    *task = s;
                }
            }
        }
    }
    fold_logs(&logs, &mut estimate);
    BatchPass { estimate, tasks }
}
