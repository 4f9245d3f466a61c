//! Recursive WCOJ enumerator.
//!
//! Executes one [`MatchPlan`] from a single seed binding: the data edge
//! `(x0, x1)` is bound to pattern vertices `order[0], order[1]`, then one
//! vertex is bound per level by intersecting the (plan-selected old/new)
//! neighbor views of its already-bound pattern neighbors — the nested loops
//! of the paper's Fig. 2, with injectivity and optional symmetry-breaking
//! checks folded into the candidate filter.

use crate::intersect::{filter_in_place, materialize, CostCounter, IntersectAlgo};
use crate::source::NeighborSource;
use crate::stats::MatchStats;
use gcsm_graph::{NeighborView, VertexId};
use gcsm_pattern::query::MAX_PATTERN;
use gcsm_pattern::{MatchPlan, ViewSel};

/// Reusable per-thread buffers (candidate stacks and the binding vector).
#[derive(Default)]
pub struct Scratch {
    bound: Vec<VertexId>,
    bufs: Vec<Vec<VertexId>>,
}

impl Scratch {
    fn prepare(&mut self, depth: usize) {
        self.bound.clear();
        if self.bufs.len() < depth {
            self.bufs.resize_with(depth, Vec::new);
        }
    }
}

/// Enumerate all matches of `plan` rooted at the seed binding
/// `(x0 → order[0], x1 → order[1])`, calling `emit(bindings, sign)` per
/// match. `bindings[k]` is the data vertex bound to `plan.order[k]`.
///
/// Returns the signed match count and cost statistics. The caller is
/// responsible for iterating seeds (all graph edges for static plans; the
/// batch `ΔE`, in both orientations, for delta plans).
#[allow(clippy::too_many_arguments)]
pub fn match_from_seed<S, F>(
    src: &S,
    plan: &MatchPlan,
    x0: VertexId,
    x1: VertexId,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut Scratch,
    emit: &mut F,
) -> MatchStats
where
    S: NeighborSource,
    F: FnMut(&[VertexId], i64),
{
    let mut stats = MatchStats::default();
    if !seed_admissible(src, plan, x0, x1) {
        return stats;
    }
    scratch.prepare(plan.levels.len());
    scratch.bound.push(x0);
    scratch.bound.push(x1);
    let mut cost = CostCounter::default();
    descend(
        src,
        plan,
        0,
        sign,
        algo,
        &mut scratch.bound,
        &mut scratch.bufs,
        &mut cost,
        &mut stats,
        emit,
    );
    stats.intersect_ops += cost.ops;
    stats
}

#[allow(clippy::too_many_arguments)]
fn descend<S, F>(
    src: &S,
    plan: &MatchPlan,
    level: usize,
    sign: i64,
    algo: IntersectAlgo,
    bound: &mut Vec<VertexId>,
    bufs: &mut [Vec<VertexId>],
    cost: &mut CostCounter,
    stats: &mut MatchStats,
    emit: &mut F,
) where
    S: NeighborSource,
    F: FnMut(&[VertexId], i64),
{
    if level == plan.levels.len() {
        stats.matches += sign;
        emit(bound, sign);
        return;
    }
    // Split the candidate buffer out of `bufs` so the recursive call can
    // still borrow the deeper buffers. `Scratch::for_plan` sizes `bufs` to
    // `plan.levels.len()`, so a level in range always has a buffer.
    let Some((buf, rest)) = bufs.split_first_mut() else {
        debug_assert!(false, "scratch shallower than plan depth");
        return;
    };
    gen_candidates(src, plan, level, bound, algo, buf, cost, stats);

    let candidates = std::mem::take(buf);
    for &cand in candidates.iter() {
        bound.push(cand);
        descend(src, plan, level + 1, sign, algo, bound, rest, cost, stats, emit);
        bound.pop();
    }
    *buf = candidates; // return the allocation to the scratch pool
}

/// Seed admissibility: distinct endpoints, matching labels for the seed
/// relation `R(u_a, u_b)`, and the seed symmetry-breaking condition.
pub fn seed_admissible<S: NeighborSource>(
    src: &S,
    plan: &MatchPlan,
    x0: VertexId,
    x1: VertexId,
) -> bool {
    if x0 == x1 {
        return false;
    }
    if src.label(x0) != plan.seed_labels.0 || src.label(x1) != plan.seed_labels.1 {
        return false;
    }
    match plan.seed_cond {
        Some(true) => x0 < x1,
        Some(false) => x0 > x1,
        None => true,
    }
}

/// Compute the fully-filtered candidate set for `plan.levels[level]` given
/// the current `bound` prefix: intersect the constraint views (smallest
/// first), then apply label, injectivity, and symmetry-breaking filters.
/// Shared by the recursive and the stack enumerator so they are equivalent
/// by construction.
#[allow(clippy::too_many_arguments)]
pub fn gen_candidates<S: NeighborSource>(
    src: &S,
    plan: &MatchPlan,
    level: usize,
    bound: &[VertexId],
    algo: IntersectAlgo,
    out: &mut Vec<VertexId>,
    cost: &mut CostCounter,
    stats: &mut MatchStats,
) {
    gen_candidates_logged(src, plan, level, bound, algo, out, cost, stats, &mut |_, _| {});
}

/// [`gen_candidates`] that also reports every view it reads to `log` as
/// `(vertex, view)`, in read order — the seed-group executor replays them
/// to charge a shared subtree's traffic once per plan that owns it.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn gen_candidates_logged<S, L>(
    src: &S,
    plan: &MatchPlan,
    level: usize,
    bound: &[VertexId],
    algo: IntersectAlgo,
    out: &mut Vec<VertexId>,
    cost: &mut CostCounter,
    stats: &mut MatchStats,
    log: &mut L,
) where
    S: NeighborSource,
    L: FnMut(VertexId, ViewSel),
{
    let Some(lvl) = plan.levels.get(level) else {
        debug_assert!(false, "gen_candidates level out of plan range");
        out.clear();
        return;
    };

    // Access every constraint's view once per tree node (the paper's
    // execution-tree access model) and pick the first smallest as the base
    // set in the same pass. A level has at most `MAX_PATTERN - 1` backward
    // constraints, so the views fit a fixed array and a node allocates
    // nothing.
    debug_assert!(lvl.constraints.len() <= MAX_PATTERN, "plan level wider than a pattern");
    let mut views: [Option<NeighborView<'_>>; MAX_PATTERN] = [None; MAX_PATTERN];
    let (mut base, mut base_len, mut n_views) = (0usize, usize::MAX, 0usize);
    for (slot, c) in views.iter_mut().zip(&lvl.constraints) {
        // lint:allow(hot-path-panic) -- c.pos < level == bound.len() by plan construction
        let v = bound[c.pos];
        log(v, c.view);
        let view = src.view(v, c.view);
        if view.raw_len() < base_len {
            (base, base_len) = (n_views, view.raw_len());
        }
        *slot = Some(view);
        n_views += 1;
    }
    stats.list_accesses += n_views as u64;

    let Some(Some(base_view)) = views.get(base) else {
        debug_assert!(false, "plan level with no constraints");
        out.clear();
        return;
    };
    materialize(base_view, out, cost);
    let others =
        views.iter().enumerate().filter(|&(i, _)| i != base).filter_map(|(_, v)| v.as_ref());
    for view in others {
        filter_in_place(out, view, algo, cost);
        if out.is_empty() {
            break;
        }
    }

    // Injectivity + label + symmetry-breaking filters.
    out.retain(|&cand| {
        src.label(cand) == lvl.label
            && !bound.contains(&cand)
            // lint:allow(hot-path-panic) -- lt positions are < level == bound.len() by plan construction
            && lvl.lt.iter().all(|&p| cand < bound[p])
            // lint:allow(hot-path-panic) -- gt positions are < level == bound.len() by plan construction
            && lvl.gt.iter().all(|&p| cand > bound[p])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CsrSource;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::{compile_static, queries, PlanOptions};

    fn count_static_seeded(g: &CsrGraph, plan: &MatchPlan, algo: IntersectAlgo) -> i64 {
        let src = CsrSource::new(g);
        let mut scratch = Scratch::default();
        let mut total = 0;
        for (u, v) in g.edges().collect::<Vec<_>>() {
            for (a, b) in [(u, v), (v, u)] {
                let s = match_from_seed(&src, plan, a, b, 1, algo, &mut scratch, &mut |_, _| {});
                total += s.matches;
            }
        }
        total
    }

    #[test]
    fn triangle_embeddings_in_k4() {
        // K4 has 4 triangles; each triangle has 6 embeddings (3! orderings).
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let q = queries::triangle();
        let plan = compile_static(&q, PlanOptions::default());
        assert_eq!(count_static_seeded(&g, &plan, IntersectAlgo::Auto), 24);
        // With symmetry breaking, each triangle counts once.
        let plan_sb = compile_static(&q, PlanOptions { symmetry_break: true });
        assert_eq!(count_static_seeded(&g, &plan_sb, IntersectAlgo::Auto), 4);
    }

    #[test]
    fn kite_in_fig1_initial_graph() {
        // The paper's Fig. 1: G_0 contains exactly one kite subgraph
        // {v1, v2, v3, v5} — the kite has |Aut| = 4 ⇒ 4 embeddings.
        let g = CsrGraph::from_edges(
            7,
            &[(1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (0, 1), (4, 5), (4, 6)],
        );
        let q = queries::fig1_kite();
        let plan = compile_static(&q, PlanOptions::default());
        assert_eq!(count_static_seeded(&g, &plan, IntersectAlgo::Auto), 4);
        let plan_sb = compile_static(&q, PlanOptions { symmetry_break: true });
        assert_eq!(count_static_seeded(&g, &plan_sb, IntersectAlgo::Auto), 1);
    }

    #[test]
    fn emit_receives_bindings_in_order_positions() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let q = queries::triangle();
        let plan = compile_static(&q, PlanOptions { symmetry_break: true });
        let src = CsrSource::new(&g);
        let mut scratch = Scratch::default();
        let mut seen = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            match_from_seed(
                &src,
                &plan,
                u,
                v,
                1,
                IntersectAlgo::Auto,
                &mut scratch,
                &mut |b, s| {
                    seen.push((b.to_vec(), s));
                },
            );
        }
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, 1);
        let mut ids = seen[0].0.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn labels_filter_matches() {
        let mut b = gcsm_graph::CsrBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.set_labels(vec![1, 1, 2]);
        let g = b.build();
        // Labeled triangle pattern 1-1-2 matches; 1-1-1 does not.
        let q_match = gcsm_pattern::QueryGraph::with_labels(
            "t112",
            3,
            &[(0, 1), (0, 2), (1, 2)],
            vec![1, 1, 2],
        );
        let q_miss = gcsm_pattern::QueryGraph::with_labels(
            "t111",
            3,
            &[(0, 1), (0, 2), (1, 2)],
            vec![1, 1, 1],
        );
        let plan_match = compile_static(&q_match, PlanOptions::default());
        let plan_miss = compile_static(&q_miss, PlanOptions::default());
        assert!(count_static_seeded(&g, &plan_match, IntersectAlgo::Auto) > 0);
        assert_eq!(count_static_seeded(&g, &plan_miss, IntersectAlgo::Auto), 0);
    }

    #[test]
    fn injectivity_prevents_degenerate_matches() {
        // A single edge "triangle-free" graph can't contain a triangle even
        // though 0's and 1's lists intersect trivially at each other.
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let q = queries::triangle();
        let plan = compile_static(&q, PlanOptions::default());
        assert_eq!(count_static_seeded(&g, &plan, IntersectAlgo::Auto), 0);
    }

    #[test]
    fn negative_sign_propagates() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let q = queries::triangle();
        let plan = compile_static(&q, PlanOptions { symmetry_break: true });
        let src = CsrSource::new(&g);
        let mut scratch = Scratch::default();
        let mut total = 0i64;
        for (u, v) in [(0u32, 1u32), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            let s = match_from_seed(
                &src,
                &plan,
                u,
                v,
                -1,
                IntersectAlgo::Auto,
                &mut scratch,
                &mut |_, _| {},
            );
            total += s.matches;
        }
        assert_eq!(total, -1);
    }

    #[test]
    fn stats_count_work() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let q = queries::triangle();
        let plan = compile_static(&q, PlanOptions::default());
        let src = CsrSource::new(&g);
        let mut scratch = Scratch::default();
        let s = match_from_seed(
            &src,
            &plan,
            0,
            1,
            1,
            IntersectAlgo::Auto,
            &mut scratch,
            &mut |_, _| {},
        );
        assert!(s.intersect_ops > 0);
        assert_eq!(s.list_accesses, 2); // one node expansion, two constraint views
        assert_eq!(s.matches, 2); // triangles (0,1,2) and (0,1,3)
    }
}
