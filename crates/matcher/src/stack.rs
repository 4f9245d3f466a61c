//! STMatch-style iterative enumerator.
//!
//! STMatch \[9\] — the kernel the paper's GPU matcher is built on — replaces
//! recursion with an explicit per-level stack of candidate arrays and a
//! cursor per level, so a GPU thread block can run the DFS without a call
//! stack and idle blocks can steal subtrees. This module is the faithful
//! CPU rendering of that control structure; it shares the candidate
//! generation of [`crate::enumerate`] and is therefore result-equivalent to
//! the recursive enumerator by construction (property-tested in the
//! integration suite as well).

use crate::enumerate::{gen_candidates_logged, seed_admissible};
use crate::intersect::{CostCounter, IntersectAlgo};
use crate::source::NeighborSource;
use crate::stats::MatchStats;
use gcsm_graph::VertexId;
use gcsm_pattern::{MatchPlan, ViewSel};

/// Per-level stack frame: the filtered candidate array plus a cursor
/// (STMatch's "stack data structure to store intermediate subgraphs").
#[derive(Default)]
struct Frame {
    cands: Vec<VertexId>,
    cursor: usize,
}

/// Reusable frame stack.
#[derive(Default)]
pub struct StackScratch {
    frames: Vec<Frame>,
    pub(crate) bound: Vec<VertexId>,
}

/// Observer of a seed's execution tree, driven by [`run_levels`] and the
/// seed-group executor. The DFS announces which (plan, seed) walks own the
/// nodes that follow, asks before it expands a node, reports each expanded
/// node's set-op cost, and reports every view read it issues to the source.
/// Every method defaults to doing nothing (expanding everything), so
/// [`NoHook`] compiles away and the kernel pays nothing for the hook.
pub trait NodeHook {
    /// The nodes that follow belong to the plans `owners` (ascending plan
    /// indices): one plan, or every plan that shares the coming subtree.
    #[inline(always)]
    fn owners(&mut self, _owners: &[usize]) {}

    /// The DFS is about to expand the node at `level` (level 0 binds the
    /// first vertex after the seed); `false` skips the node and its subtree.
    #[inline(always)]
    fn enter(&mut self, _level: usize) -> bool {
        true
    }

    /// The node at `level` generated its candidate set over the bound prefix
    /// `bound` at a model cost of `ops` set operations.
    #[inline(always)]
    fn visit(&mut self, _level: usize, _bound: &[VertexId], _ops: u64) {}

    /// One view read issued to the source.
    #[inline(always)]
    fn read(&mut self, _v: VertexId, _sel: ViewSel) {}
}

/// The hook that observes nothing.
pub struct NoHook;

impl NodeHook for NoHook {}

/// Iterative equivalent of [`crate::enumerate::match_from_seed`].
#[allow(clippy::too_many_arguments)]
pub fn match_from_seed_stack<S, F>(
    src: &S,
    plan: &MatchPlan,
    x0: VertexId,
    x1: VertexId,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut StackScratch,
    emit: &mut F,
) -> MatchStats
where
    S: NeighborSource,
    F: FnMut(&[VertexId], i64),
{
    seed_stack(src, plan, x0, x1, sign, algo, scratch, emit, &mut NoHook)
}

/// [`match_from_seed_stack`] reporting to `hook`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn seed_stack<S, F, H>(
    src: &S,
    plan: &MatchPlan,
    x0: VertexId,
    x1: VertexId,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut StackScratch,
    emit: &mut F,
    hook: &mut H,
) -> MatchStats
where
    S: NeighborSource,
    F: FnMut(&[VertexId], i64),
    H: NodeHook,
{
    let mut stats = MatchStats::default();
    if !seed_admissible(src, plan, x0, x1) {
        return stats;
    }
    scratch.bound.clear();
    scratch.bound.push(x0);
    scratch.bound.push(x1);
    let mut cost = CostCounter::default();
    run_levels(src, plan, sign, algo, scratch, &mut cost, &mut stats, emit, hook);
    stats.intersect_ops += cost.ops;
    stats
}

/// The frame-stack DFS below the bound prefix: binds `plan.levels[start..]`
/// where `start = scratch.bound.len() - 2` (the seed binds two vertices),
/// emitting every complete match. Set-op work goes to `cost`, list accesses
/// and matches to `stats`, and every node and view read to `hook`. On
/// return the bound prefix is as it was on entry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_levels<S, F, H>(
    src: &S,
    plan: &MatchPlan,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut StackScratch,
    cost: &mut CostCounter,
    stats: &mut MatchStats,
    emit: &mut F,
    hook: &mut H,
) where
    S: NeighborSource,
    F: FnMut(&[VertexId], i64),
    H: NodeHook,
{
    let depth = plan.levels.len();
    let start = scratch.bound.len().saturating_sub(2);
    if start >= depth {
        // The prefix is the whole match (a two-vertex pattern, or a subtree
        // entered at its leaf).
        stats.matches += sign;
        emit(&scratch.bound, sign);
        return;
    }
    if !hook.enter(start) {
        return;
    }
    if scratch.frames.len() < depth {
        scratch.frames.resize_with(depth, Frame::default);
    }
    // Enter level `start`. The resize above guarantees
    // `frames.len() >= depth`, and `level` stays in `start..depth`
    // throughout, so the frame lookups below cannot miss; `get_mut` +
    // `debug_assert` keeps the kernel panic-free.
    {
        let Some(frame) = scratch.frames.get_mut(start) else {
            debug_assert!(false, "frame stack shallower than plan depth");
            return;
        };
        let mut cands = std::mem::take(&mut frame.cands);
        let before = cost.ops;
        let log = &mut |v, sel| hook.read(v, sel);
        gen_candidates_logged(src, plan, start, &scratch.bound, algo, &mut cands, cost, stats, log);
        hook.visit(start, &scratch.bound, cost.ops - before);
        frame.cands = cands;
        frame.cursor = 0;
    }
    let mut level = start;
    loop {
        let Some(frame) = scratch.frames.get_mut(level) else {
            debug_assert!(false, "level beyond frame stack");
            break;
        };
        let Some(&cand) = frame.cands.get(frame.cursor) else {
            // Exhausted: backtrack.
            if level == start {
                break;
            }
            level -= 1;
            scratch.bound.pop();
            continue;
        };
        frame.cursor += 1;
        if level + 1 == depth {
            // Innermost loop: output the match.
            scratch.bound.push(cand);
            stats.matches += sign;
            emit(&scratch.bound, sign);
            scratch.bound.pop();
        } else if hook.enter(level + 1) {
            scratch.bound.push(cand);
            level += 1;
            let Some(frame) = scratch.frames.get_mut(level) else {
                debug_assert!(false, "level beyond frame stack");
                break;
            };
            let mut cands = std::mem::take(&mut frame.cands);
            let before = cost.ops;
            gen_candidates_logged(
                src,
                plan,
                level,
                &scratch.bound,
                algo,
                &mut cands,
                cost,
                stats,
                &mut |v, sel| hook.read(v, sel),
            );
            hook.visit(level, &scratch.bound, cost.ops - before);
            let Some(frame) = scratch.frames.get_mut(level) else {
                debug_assert!(false, "level beyond frame stack");
                break;
            };
            frame.cands = cands;
            frame.cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{match_from_seed, Scratch};
    use crate::source::CsrSource;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::{compile_static, queries, PlanOptions, QueryGraph};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_graph(n: usize, p: f64, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((a, b));
                }
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    fn compare_enumerators(g: &CsrGraph, q: &QueryGraph, sb: bool) {
        let plan = compile_static(q, PlanOptions { symmetry_break: sb });
        let src = CsrSource::new(g);
        let mut rs = Scratch::default();
        let mut ss = StackScratch::default();
        let mut rec_total = MatchStats::default();
        let mut stk_total = MatchStats::default();
        let mut rec_matches = Vec::new();
        let mut stk_matches = Vec::new();
        for (u, v) in g.edges().collect::<Vec<_>>() {
            for (a, b) in [(u, v), (v, u)] {
                rec_total.merge(match_from_seed(
                    &src,
                    &plan,
                    a,
                    b,
                    1,
                    IntersectAlgo::Auto,
                    &mut rs,
                    &mut |m, _| rec_matches.push(m.to_vec()),
                ));
                stk_total.merge(match_from_seed_stack(
                    &src,
                    &plan,
                    a,
                    b,
                    1,
                    IntersectAlgo::Auto,
                    &mut ss,
                    &mut |m, _| stk_matches.push(m.to_vec()),
                ));
            }
        }
        rec_matches.sort();
        stk_matches.sort();
        assert_eq!(rec_matches, stk_matches, "{} sb={}", q.name(), sb);
        assert_eq!(rec_total, stk_total, "{} sb={} stats diverge", q.name(), sb);
    }

    #[test]
    fn stack_equals_recursive_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(18, 0.3, seed);
            for q in [queries::triangle(), queries::fig1_kite(), queries::q1()] {
                compare_enumerators(&g, &q, false);
                compare_enumerators(&g, &q, true);
            }
        }
    }

    #[test]
    fn stack_handles_two_vertex_pattern() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let q = QueryGraph::new("edge", 2, &[(0, 1)]);
        let plan = compile_static(&q, PlanOptions::default());
        let src = CsrSource::new(&g);
        let mut ss = StackScratch::default();
        let mut count = 0;
        for (u, v) in [(0u32, 1u32), (1, 0), (1, 2), (2, 1)] {
            count += match_from_seed_stack(
                &src,
                &plan,
                u,
                v,
                1,
                IntersectAlgo::Auto,
                &mut ss,
                &mut |_, _| {},
            )
            .matches;
        }
        assert_eq!(count, 4); // 2 edges × 2 orientations
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        let g = random_graph(12, 0.5, 7);
        let q = queries::q2();
        let plan = compile_static(&q, PlanOptions::default());
        let src = CsrSource::new(&g);
        let mut ss = StackScratch::default();
        let edges: Vec<_> = g.edges().collect();
        let mut first = Vec::new();
        let mut second = Vec::new();
        for pass in 0..2 {
            let out = if pass == 0 { &mut first } else { &mut second };
            for &(u, v) in &edges {
                let s = match_from_seed_stack(
                    &src,
                    &plan,
                    u,
                    v,
                    1,
                    IntersectAlgo::Auto,
                    &mut ss,
                    &mut |_, _| {},
                );
                out.push(s.matches);
            }
        }
        assert_eq!(first, second);
    }
}
