//! Seed-group executor: every delta plan of one oriented seed runs
//! together, and plans with identical suffixes share their subtrees.
//!
//! Eq. (1) runs one delta loop per query edge, each seeded on every batch
//! edge. Several of those loop nests are copies of each other below level
//! 0: in Q4's plans 1/2, 3/4 and 6/7 the two plans differ only in whether
//! level 0 reads the old or the new view. From level 1 down, a level-0
//! candidate `c` that both plans admit roots the same subtree in both — the
//! same constraint positions and views, labels and symmetry conditions over
//! the same bound prefix `[a, b, c]`. [`PlanGroups`] finds such plans once
//! per launch; [`run_seed`] then runs, per seed and per group, each member's
//! own level 0 and every distinct level-0 candidate's subtree once, crediting
//! its [`MatchStats`] to every member whose level-0 set contains it (the
//! within-query form of the shared join structures of Choudhury & Holder).
//!
//! The outcome is exactly the per-plan one: each (plan, seed) pair gets the
//! stats [`crate::match_from_seed_stack`] would give it, and the views a
//! shared subtree read are re-issued to the source once per extra member, so
//! a traffic-recording source is charged as if every plan ran alone. Only
//! the order of those charges differs (replays follow the subtree rather
//! than plan order), which moves nothing but order-sensitive models such as
//! an LRU page cache.

use crate::enumerate::{gen_candidates_logged, seed_admissible};
use crate::intersect::{CostCounter, IntersectAlgo};
use crate::source::NeighborSource;
use crate::stack::{run_levels, seed_stack, NoHook, NodeHook, StackScratch};
use crate::stats::MatchStats;
use gcsm_graph::VertexId;
use gcsm_pattern::{LevelPlan, MatchPlan, ViewSel};

/// True when `a` and `b` bind their levels below level 0 identically: the
/// same constraint `(pos, view)` sequence, label and `lt`/`gt` on every
/// level from 1 down. `qvertex` and `Constraint::edge` are provenance and
/// differ between equivalent plans, so they are ignored. Plans without a
/// level below level 0 have nothing to share and never match.
pub(crate) fn same_suffix(a: &MatchPlan, b: &MatchPlan) -> bool {
    let same_level = |x: &LevelPlan, y: &LevelPlan| {
        x.label == y.label
            && x.lt == y.lt
            && x.gt == y.gt
            && x.constraints.len() == y.constraints.len()
            && x.constraints
                .iter()
                .zip(&y.constraints)
                .all(|(c, d)| c.pos == d.pos && c.view == d.view)
    };
    match (a.levels.get(1..), b.levels.get(1..)) {
        (Some(x), Some(y)) => {
            !x.is_empty() && x.len() == y.len() && x.iter().zip(y).all(|(l, m)| same_level(l, m))
        }
        _ => false,
    }
}

/// A partition of a launch's delta plans into suffix-sharing groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanGroups {
    /// Plan indices, group by group, ascending within a group; groups are
    /// ordered by their first member.
    members: Vec<usize>,
    /// `members[bounds[g]..bounds[g + 1]]` is group `g`.
    bounds: Vec<usize>,
    /// Size of the largest group.
    width: usize,
}

impl PlanGroups {
    /// Group `plans` by [`same_suffix`]: each plan joins the first earlier
    /// group whose leader it matches.
    pub fn new(plans: &[MatchPlan]) -> Self {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            let leader = groups.iter_mut().find(|g| {
                g.first().and_then(|&l| plans.get(l)).is_some_and(|l| same_suffix(l, plan))
            });
            match leader {
                Some(g) => g.push(pi),
                None => groups.push(vec![pi]),
            }
        }
        let width = groups.iter().map(Vec::len).max().unwrap_or(0);
        let mut bounds = vec![0];
        let mut members = Vec::with_capacity(plans.len());
        for g in groups {
            members.extend(g);
            bounds.push(members.len());
        }
        Self { members, bounds, width }
    }

    /// The groups, each as a slice of plan indices.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.bounds.windows(2).filter_map(|w| match *w {
            [start, end] => self.members.get(start..end),
            _ => None,
        })
    }

    /// Size of the largest group.
    pub fn max_len(&self) -> usize {
        self.width
    }
}

/// Reusable per-worker buffers of [`run_seed`]: the frame stack below level
/// 0, one level-0 candidate list and cursor per group member, the owners of
/// the current level-0 candidate, and the view log of the current shared
/// subtree. Reused across seeds, so a warm scratch makes a seed
/// allocation-free.
#[derive(Default)]
pub struct SeedScratch {
    stack: StackScratch,
    level0: Vec<Vec<VertexId>>,
    cursors: Vec<usize>,
    owners: Vec<usize>,
    log: Vec<(VertexId, ViewSel)>,
}

/// Run every plan of `groups` on the oriented seed `(a, b)` with `sign`,
/// writing plan `pi`'s stats to `out[pi]` (`out` has one slot per plan; it
/// is overwritten). Each `out[pi]` equals what
/// [`crate::match_from_seed_stack`] returns for `(plans[pi], a, b, sign)`,
/// and `src` sees the same multiset of view reads.
#[allow(clippy::too_many_arguments)]
pub fn run_seed<S: NeighborSource>(
    src: &S,
    plans: &[MatchPlan],
    groups: &PlanGroups,
    a: VertexId,
    b: VertexId,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut SeedScratch,
    out: &mut [MatchStats],
) {
    run_seed_hooked(src, plans, groups, a, b, sign, algo, scratch, out, &mut NoHook);
}

/// [`run_seed`] reporting the seed's execution trees to `hook`. Before each
/// plan's own nodes — a singleton plan's whole tree, or a group member's
/// level 0 — the hook learns that plan as the sole owner; before each
/// shared level-0 candidate's subtree it learns every member holding the
/// candidate. Nodes arrive in DFS preorder per owner, and every view read
/// issued to `src` (replays included) is reported once. A hook that skips
/// nodes leaves the skipped plans' `out` slots short of their full stats.
#[allow(clippy::too_many_arguments)]
pub fn run_seed_hooked<S: NeighborSource, H: NodeHook>(
    src: &S,
    plans: &[MatchPlan],
    groups: &PlanGroups,
    a: VertexId,
    b: VertexId,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut SeedScratch,
    out: &mut [MatchStats],
    hook: &mut H,
) {
    out.fill(MatchStats::default());
    let width = groups.max_len();
    if scratch.level0.len() < width {
        scratch.level0.resize_with(width, Vec::new);
        scratch.cursors.resize(width, 0);
    }
    for group in groups.iter() {
        match *group {
            // A plan that shares nothing runs as the per-plan enumerator.
            [pi] => {
                if let (Some(plan), Some(slot)) = (plans.get(pi), out.get_mut(pi)) {
                    hook.owners(group);
                    let stack = &mut scratch.stack;
                    *slot = seed_stack(src, plan, a, b, sign, algo, stack, &mut |_, _| {}, hook);
                }
            }
            _ => run_group(src, plans, group, a, b, sign, algo, scratch, out, hook),
        }
    }
}

/// Forwards to `inner` and also logs every view read.
struct Logged<'a, H> {
    inner: &'a mut H,
    log: &'a mut Vec<(VertexId, ViewSel)>,
}

impl<H: NodeHook> NodeHook for Logged<'_, H> {
    #[inline(always)]
    fn owners(&mut self, owners: &[usize]) {
        self.inner.owners(owners);
    }

    #[inline(always)]
    fn enter(&mut self, level: usize) -> bool {
        self.inner.enter(level)
    }

    #[inline(always)]
    fn visit(&mut self, level: usize, bound: &[VertexId], ops: u64) {
        self.inner.visit(level, bound, ops);
    }

    #[inline(always)]
    fn read(&mut self, v: VertexId, sel: ViewSel) {
        self.inner.read(v, sel);
        self.log.push((v, sel));
    }
}

/// One group of two or more plans on one seed: each member's own
/// admissibility check and level 0, then a k-way walk over the sorted
/// level-0 sets that runs each distinct candidate's subtree once. Grouped
/// plans have a level below level 0 (see [`same_suffix`]).
#[allow(clippy::too_many_arguments)]
fn run_group<S: NeighborSource, H: NodeHook>(
    src: &S,
    plans: &[MatchPlan],
    group: &[usize],
    a: VertexId,
    b: VertexId,
    sign: i64,
    algo: IntersectAlgo,
    scratch: &mut SeedScratch,
    out: &mut [MatchStats],
    hook: &mut H,
) {
    let SeedScratch { stack, level0, cursors, owners, log } = scratch;
    let Some(leader) = group.first().and_then(|&pi| plans.get(pi)) else {
        debug_assert!(false, "empty plan group");
        return;
    };
    stack.bound.clear();
    stack.bound.push(a);
    stack.bound.push(b);
    // Level 0, per member: admissibility, candidates, cost and accesses.
    for ((pi, cands), cursor) in group.iter().zip(level0.iter_mut()).zip(cursors.iter_mut()) {
        cands.clear();
        *cursor = 0;
        let (Some(plan), Some(slot)) = (plans.get(*pi), out.get_mut(*pi)) else {
            debug_assert!(false, "group member out of range");
            continue;
        };
        hook.owners(std::slice::from_ref(pi));
        if !seed_admissible(src, plan, a, b) || !hook.enter(0) {
            continue;
        }
        let mut cost = CostCounter::default();
        let read = &mut |v, sel| hook.read(v, sel);
        gen_candidates_logged(src, plan, 0, &stack.bound, algo, cands, &mut cost, slot, read);
        hook.visit(0, &stack.bound, cost.ops);
        slot.intersect_ops += cost.ops;
    }
    let k = group.len().min(level0.len());
    loop {
        // The smallest head among the members' sorted level-0 sets, and the
        // members that hold it.
        let mut next: Option<VertexId> = None;
        for (cands, &cursor) in level0.iter().zip(cursors.iter()).take(k) {
            match (cands.get(cursor), next) {
                (Some(&c), Some(n)) if c >= n => {}
                (Some(&c), _) => next = Some(c),
                (None, _) => {}
            }
        }
        let Some(c) = next else { break };
        owners.clear();
        for ((&pi, cands), cursor) in group.iter().zip(level0.iter()).zip(cursors.iter_mut()) {
            if cands.get(*cursor) == Some(&c) {
                *cursor += 1;
                owners.push(pi);
            }
        }
        hook.owners(owners);
        stack.bound.push(c);
        let mut cost = CostCounter::default();
        let mut sub = MatchStats::default();
        log.clear();
        // Only a subtree with more than one owner logs its reads.
        let no_emit = &mut |_: &[VertexId], _| {};
        if owners.len() > 1 {
            let logged = &mut Logged { inner: &mut *hook, log: &mut *log };
            run_levels(src, leader, sign, algo, stack, &mut cost, &mut sub, no_emit, logged);
        } else {
            run_levels(src, leader, sign, algo, stack, &mut cost, &mut sub, no_emit, hook);
        }
        stack.bound.pop();
        sub.intersect_ops += cost.ops;
        // Credit every owner; replay the subtree's reads for all but the
        // first, so the source is charged once per owning plan.
        for (i, &pi) in owners.iter().enumerate() {
            if let Some(slot) = out.get_mut(pi) {
                slot.merge(sub);
            }
            if i > 0 {
                for &(v, sel) in log.iter() {
                    src.view(v, sel);
                    hook.read(v, sel);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DynSource;
    use crate::stack::match_from_seed_stack;
    use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
    use gcsm_pattern::{compile_incremental, queries, PlanOptions};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn groups_of(plans: &[MatchPlan]) -> Vec<Vec<usize>> {
        PlanGroups::new(plans).iter().map(<[usize]>::to_vec).collect()
    }

    #[test]
    fn q4_groups_plans_that_differ_only_at_level_0() {
        let plans = compile_incremental(&queries::q4(), PlanOptions::default());
        assert_eq!(groups_of(&plans), [vec![0], vec![1, 2], vec![3, 4], vec![5], vec![6, 7]]);
        assert_eq!(PlanGroups::new(&plans).max_len(), 2);
        // The pairs really differ at level 0.
        for (x, y) in [(1, 2), (3, 4), (6, 7)] {
            assert_ne!(plans[x].levels[0], plans[y].levels[0]);
        }
    }

    #[test]
    fn kite_has_two_pairs_and_shallow_or_other_queries_are_singletons() {
        let kite = compile_incremental(&queries::fig1_kite(), PlanOptions::default());
        let pairs = groups_of(&kite).into_iter().filter(|g| g.len() == 2).count();
        assert_eq!(pairs, 2);
        // The triangle's plans have no level below level 0.
        let tri = compile_incremental(&queries::triangle(), PlanOptions::default());
        assert_eq!(PlanGroups::new(&tri).max_len(), 1);
        for q in [queries::q1(), queries::q2(), queries::q6()] {
            let plans = compile_incremental(&q, PlanOptions::default());
            assert_eq!(PlanGroups::new(&plans).max_len(), 1, "{}", q.name());
        }
    }

    #[test]
    fn plans_differing_in_symmetry_conditions_are_not_grouped() {
        let plans = compile_incremental(&queries::q4(), PlanOptions::default());
        for edit in [
            |l: &mut LevelPlan| l.lt.push(0),
            |l: &mut LevelPlan| l.gt.push(1),
            |l: &mut LevelPlan| l.label += 1,
            |l: &mut LevelPlan| l.constraints.reverse(),
        ] {
            let mut twin = plans[2].clone();
            let last = twin.levels.last_mut().unwrap();
            assert_eq!(last.constraints.len(), 2, "reversing must reorder");
            edit(last);
            assert!(!same_suffix(&plans[1], &twin));
            assert_eq!(groups_of(&[plans[1].clone(), twin]), [vec![0], vec![1]]);
        }
        // Provenance alone does not split a pair.
        let mut twin = plans[2].clone();
        for l in &mut twin.levels {
            l.qvertex += 10;
            for c in &mut l.constraints {
                c.edge += 10;
            }
        }
        assert!(same_suffix(&plans[1], &twin));
    }

    #[test]
    fn run_seed_equals_per_plan_stack_enumerator() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 40u32;
        let edges: Vec<_> = (0..260)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        let g0 = CsrGraph::from_edges(n as usize, &edges);
        let mut batch: Vec<EdgeUpdate> =
            g0.edges().step_by(7).map(|(a, b)| EdgeUpdate::delete(a, b)).collect();
        batch.extend((0..30).map(|_| EdgeUpdate::insert(rng.gen_range(0..n), rng.gen_range(0..n))));
        let mut g = DynamicGraph::from_csr(&g0);
        let applied = g.apply_batch(&batch).applied;
        let src = DynSource::new(&g);
        for q in [queries::q4(), queries::fig1_kite(), queries::triangle()] {
            for symmetry_break in [false, true] {
                let plans = compile_incremental(&q, PlanOptions { symmetry_break });
                let groups = PlanGroups::new(&plans);
                let (mut scratch, mut ss) = (SeedScratch::default(), StackScratch::default());
                let mut out = vec![MatchStats::default(); plans.len()];
                for u in &applied {
                    for (a, b) in [(u.src, u.dst), (u.dst, u.src)] {
                        let sign = u.op.sign();
                        let algo = IntersectAlgo::Auto;
                        run_seed(&src, &plans, &groups, a, b, sign, algo, &mut scratch, &mut out);
                        for (plan, got) in plans.iter().zip(&out) {
                            let want = match_from_seed_stack(
                                &src,
                                plan,
                                a,
                                b,
                                sign,
                                algo,
                                &mut ss,
                                &mut |_, _| {},
                            );
                            assert_eq!(*got, want, "{} sb={symmetry_break}", q.name());
                        }
                    }
                }
            }
        }
    }
}
