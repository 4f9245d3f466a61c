//! Merged estimator: `M` random walks in one traversal (paper Sec. IV-B).
//!
//! Instead of running each walk separately (redundant intersections, poor
//! locality), a single instrumented traversal carries a *visit count* `B`
//! per execution-tree node: `B_1 ~ Binomial(M, 1/S)` at each seed, and for
//! every candidate of a visited node an independent
//! `B_child ~ Binomial(B, 1/D)` (the per-iteration binomial of the paper).
//! Nodes with `B = 0` are pruned, so the traversal only performs the set
//! operations the `M` walks would actually have needed — once each.
//!
//! How the pass is run:
//!
//! * **Seed-major order.** The oriented seeds are sorted by vertex id, and
//!   every delta plan runs on one seed before the next seed starts, so the
//!   seed's neighbor lists are reused while they are still in cache.
//! * **Keyed streams.** Each (plan, seed) pair draws from its own
//!   `SmallRng`, seeded with splitmix64 of (walk seed, plan index, index in
//!   the sorted seed list). The seeds' binomials were independent draws
//!   already (not one multinomial), so per-pair streams leave the Sec. IV-B
//!   distribution unchanged.
//! * **Parallel chunks.** The sorted seeds are cut into chunks of
//!   `CHUNK_SEEDS` walked on the rayon pool. Each chunk logs its
//!   contributions in walk order, and the logs are summed into `freq` in
//!   chunk order, so the estimate is bit-identical for any thread count and
//!   any order of the batch.
//! * **One-uniform draws.** `M`, `S` and `D` are fixed per call, so the
//!   seed binomial and the per-candidate binomials for `B ≤ 64` are
//!   tabulated once ([`crate::binomial`]) and each draw inverts a single
//!   uniform.
//! * **The kernel's DFS.** The traversal is the matching kernel's own
//!   seed-group executor ([`gcsm_matcher::run_seed_hooked`]) with a
//!   [`NodeHook`] that carries each plan's `B` per level: it draws a node's
//!   `B` as the DFS enters it, in the order a per-plan recursion draws,
//!   records the node's hits and set-op cost when `B > 0`, and prunes the
//!   node when no owning plan visits it. Plans that share their levels
//!   below level 0 share a subtree's set operations here too; `walk_ops`
//!   still counts the node once per visiting plan. With pruning off the
//!   same walk runs the kernel's whole tree ([`crate::fused`]).
//!
//! The estimate records the vertices it touched, which is what ranking and
//! cache selection iterate instead of all of |V|. Hits go to one buffer per
//! plan and are logged in plan order at the end of each seed, so a shared
//! subtree does not reorder the floating-point sums.

use crate::binomial::{BinomialTable, ChildDraws};
use crate::estimate::{FreqEstimate, WalkParams};
use gcsm_graph::{splitmix64, EdgeUpdate, VertexId};
use gcsm_matcher::{
    run_seed_hooked, IntersectAlgo, MatchStats, NeighborSource, NodeHook, PlanGroups, ReadTallies,
    ReadTally, SeedScratch, TallyLease,
};
use gcsm_pattern::{MatchPlan, ViewSel};
use rand::{rngs::SmallRng, SeedableRng};
use rayon::prelude::*;

/// Sorted seeds per parallel task. Fixed, so chunk boundaries — and with
/// them the summation order — never depend on the pool size.
pub(crate) const CHUNK_SEEDS: usize = 32;

/// Estimate access frequencies with the merged single-execution scheme.
/// Distribution-equivalent to [`crate::estimate_naive`] (same per-node
/// visit probabilities), with far fewer set operations.
pub fn estimate_merged<S: NeighborSource>(
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    max_degree: usize,
    params: &WalkParams,
) -> FreqEstimate {
    estimate_merged_into(FreqEstimate::default(), src, plans, batch, max_degree, params)
}

/// [`estimate_merged`] writing into the allocation of a spent estimate: the
/// slots `spent` touched are zeroed (all of `freq` when it recorded no
/// touched list or covers another vertex count) and reused, so a caller
/// that hands back each batch's estimate allocates nothing per batch. The
/// result is bit-identical to a fresh [`estimate_merged`].
pub fn estimate_merged_into<S: NeighborSource>(
    spent: FreqEstimate,
    src: &S,
    plans: &[MatchPlan],
    batch: &[EdgeUpdate],
    max_degree: usize,
    params: &WalkParams,
) -> FreqEstimate {
    let mut est = spent.reset(src.num_vertices());
    let walk = match Walk::new(src, plans, batch, max_degree, params) {
        Some(walk) if walk.walking => walk,
        _ => return est,
    };
    let logs = walk.run(IntersectAlgo::Auto, true, None);
    fold_logs(&logs, &mut est);
    est
}

/// The RNG key of one (plan, seed) pair: `seed_key` is the mixed walk seed,
/// `seed_index` the seed's index in the sorted seed list.
fn stream_key(seed_key: u64, plan: usize, seed_index: usize) -> u64 {
    splitmix64(splitmix64(seed_key ^ plan as u64) ^ seed_index as u64)
}

/// One oriented seed: the edge `(a, b)` seeding the plans, the sign of its
/// update, and its slot `2e + o` among the batch's seeds (update `e`,
/// orientation `o`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Seed {
    pub(crate) a: VertexId,
    pub(crate) b: VertexId,
    pub(crate) sign: i64,
    pub(crate) slot: usize,
}

/// Everything fixed for one pass over a batch.
pub(crate) struct Walk<'a, S> {
    src: &'a S,
    plans: &'a [MatchPlan],
    groups: PlanGroups,
    /// Oriented seeds, sorted by `(a, b)`.
    pub(crate) seeds: Vec<Seed>,
    /// splitmix64 of the walk seed.
    key: u64,
    /// `M` as a float.
    m: f64,
    /// `weights[l]`: the inverse sampling probability `S·D^l` of a level-`l`
    /// node, built by the same repeated products the walks multiply out.
    weights: Vec<f64>,
    /// Longest plan.
    depth: usize,
    /// `Binomial(M, 1/S)`: walks starting at a seed.
    seed_draw: BinomialTable,
    /// `Binomial(B, 1/D)`: walks reaching a child of a node visited `B` times.
    child_draw: ChildDraws,
    /// False when the estimate is empty by definition (no walks, `D = 0`):
    /// no seed draws, every node has `B = 0`.
    walking: bool,
}

/// What one chunk of sorted seeds yields: `(vertex, share)` per recorded
/// access, in walk order; the set operations the walks spent; and, when the
/// whole tree runs, every (seed, plan) pair's stats, seed-major in sorted
/// order.
#[derive(Default)]
pub(crate) struct ChunkLog {
    pub(crate) hits: Vec<(VertexId, f64)>,
    pub(crate) walk_ops: u64,
    pub(crate) stats: Vec<MatchStats>,
}

/// Per-worker buffers reused across the chunks one pool block walks.
#[derive(Default)]
struct WalkState {
    lanes: Lanes,
    seed: SeedScratch,
    /// One stats slot per plan, for stats the walk discards.
    discard: Vec<MatchStats>,
}

/// The walks of one seed, one lane per plan.
#[derive(Default)]
struct Lanes {
    /// Per plan: the seed's stream.
    rngs: Vec<SmallRng>,
    /// Per plan, `depth` entries: the visit count `B` of the node the DFS
    /// is at on each level.
    visits: Vec<u64>,
    /// Per plan: the seed's hits, in the plan's DFS order.
    hits: Vec<Vec<(VertexId, f64)>>,
    /// The plans owning the nodes the DFS reports next.
    owners: Vec<usize>,
    /// Set operations of visited nodes, once per visiting plan.
    walk_ops: u64,
    /// The seed `(a, b)` and its reads of `[a old, a new, b old, b new]`,
    /// counted here and added to the tally once per seed: the seed's
    /// endpoints take most of a seed's reads.
    seed: (VertexId, VertexId),
    seed_reads: [u64; 4],
}

impl<'a, S: NeighborSource> Walk<'a, S> {
    /// `None` when the batch has no seeds.
    pub(crate) fn new(
        src: &'a S,
        plans: &'a [MatchPlan],
        batch: &[EdgeUpdate],
        max_degree: usize,
        params: &WalkParams,
    ) -> Option<Self> {
        if batch.is_empty() {
            return None;
        }
        let mut seeds: Vec<Seed> = batch
            .iter()
            .enumerate()
            .flat_map(|(e, u)| {
                let sign = u.op.sign();
                [
                    Seed { a: u.src, b: u.dst, sign, slot: 2 * e },
                    Seed { a: u.dst, b: u.src, sign, slot: 2 * e + 1 },
                ]
            })
            .collect();
        seeds.sort_unstable_by_key(|s| (s.a, s.b));
        let s_count = seeds.len() as f64;
        let d = max_degree as f64;
        let depth = plans.iter().map(|p| p.levels.len()).max().unwrap_or(0);
        let mut weights = Vec::with_capacity(depth);
        let mut weight = s_count;
        for _ in 0..depth {
            weights.push(weight);
            weight *= d;
        }
        Some(Self {
            src,
            plans,
            groups: PlanGroups::new(plans),
            seeds,
            key: splitmix64(params.seed),
            m: params.walks as f64,
            weights,
            depth,
            seed_draw: BinomialTable::new(params.walks, 1.0 / s_count),
            child_draw: ChildDraws::new(1.0 / d),
            walking: max_degree > 0 && params.walks > 0,
        })
    }

    /// Walk every chunk, on the pool when `parallel` is set. With `tallies`
    /// the whole execution tree runs — every node, with `algo` — and its
    /// reads are counted in tallies leased from the pool; without, only the
    /// nodes some walk visits run.
    pub(crate) fn run(
        &self,
        algo: IntersectAlgo,
        parallel: bool,
        tallies: Option<&ReadTallies>,
    ) -> Vec<ChunkLog> {
        let n = self.src.num_vertices();
        let init = || (WalkState::default(), tallies.map(|t| t.lease(n)));
        let chunk = |(state, lease): &mut (WalkState, Option<TallyLease<'_>>), c| {
            self.chunk(c, algo, state, lease.as_deref_mut())
        };
        let chunks = self.seeds.len().div_ceil(CHUNK_SEEDS);
        if parallel {
            (0..chunks).into_par_iter().map_init(init, chunk).collect()
        } else {
            let mut state = init();
            (0..chunks).map(|c| chunk(&mut state, c)).collect()
        }
    }

    /// Walk chunk `c` of the sorted seeds, seed-major: per seed, draw every
    /// plan's `B_1` from its stream, run the seed's plans through the
    /// seed-group executor, then log the plans' hits in plan order.
    fn chunk(
        &self,
        c: usize,
        algo: IntersectAlgo,
        st: &mut WalkState,
        mut tally: Option<&mut ReadTally>,
    ) -> ChunkLog {
        let full = tally.is_some();
        let n_plans = self.plans.len();
        let first = c * CHUNK_SEEDS;
        let seeds = self.seeds.iter().skip(first).take(CHUNK_SEEDS);
        let mut log = ChunkLog::default();
        if full {
            log.stats.resize(n_plans * seeds.len(), MatchStats::default());
        }
        let WalkState { lanes, seed: scratch, discard } = st;
        lanes.visits.resize(n_plans * self.depth, 0);
        lanes.hits.resize_with(n_plans, Vec::new);
        lanes.walk_ops = 0;
        discard.resize(n_plans, MatchStats::default());
        for (j, (i, seed)) in (first..).zip(seeds).enumerate() {
            lanes.rngs.clear();
            let mut any = false;
            for p in 0..n_plans {
                let mut rng = SmallRng::seed_from_u64(stream_key(self.key, p, i));
                // How many of the M walks start at this seed.
                let b1 = if self.walking { self.seed_draw.sample(&mut rng) } else { 0 };
                if let Some(root) = lanes.visits.get_mut(p * self.depth) {
                    *root = b1;
                }
                any |= b1 > 0;
                lanes.rngs.push(rng);
            }
            if !any && !full {
                continue;
            }
            let out = match log.stats.get_mut(j * n_plans..(j + 1) * n_plans) {
                Some(out) => out,
                None => discard.as_mut_slice(),
            };
            lanes.seed = (seed.a, seed.b);
            let mut hook = WalkHook { walk: self, lanes: &mut *lanes, tally: tally.as_deref_mut() };
            run_seed_hooked(
                self.src,
                self.plans,
                &self.groups,
                seed.a,
                seed.b,
                seed.sign,
                algo,
                scratch,
                out,
                &mut hook,
            );
            for hits in &mut lanes.hits {
                log.hits.append(hits);
            }
            if let Some(tally) = tally.as_deref_mut() {
                let [a_old, a_new, b_old, b_new] = std::mem::take(&mut lanes.seed_reads);
                tally.add(seed.a, ViewSel::Old, a_old);
                tally.add(seed.a, ViewSel::New, a_new);
                tally.add(seed.b, ViewSel::Old, b_old);
                tally.add(seed.b, ViewSel::New, b_new);
            }
        }
        log.walk_ops = lanes.walk_ops;
        log
    }
}

/// The walks' view of one seed's execution trees (see [`NodeHook`]).
struct WalkHook<'h, 'a, S> {
    walk: &'h Walk<'a, S>,
    lanes: &'h mut Lanes,
    /// Present when the whole tree runs: count its reads, prune nothing.
    tally: Option<&'h mut ReadTally>,
}

impl<S> NodeHook for WalkHook<'_, '_, S> {
    #[inline]
    fn owners(&mut self, owners: &[usize]) {
        self.lanes.owners.clear();
        self.lanes.owners.extend_from_slice(owners);
    }

    /// Draw each owner's visit count for the node: its `B_1` at level 0,
    /// below that `Binomial(B_parent, 1/D)` from the owner's stream — one
    /// draw per candidate of a visited node, in DFS preorder, which is the
    /// order the walks draw in (Sec. IV-B). A node no owner visits is
    /// pruned unless the whole tree runs.
    #[inline]
    fn enter(&mut self, level: usize) -> bool {
        let Lanes { rngs, visits, owners, .. } = &mut *self.lanes;
        let depth = self.walk.depth;
        let mut visited = false;
        for &p in owners.iter() {
            let base = p * depth;
            let b = if level == 0 {
                visits.get(base).copied().unwrap_or(0)
            } else {
                match (visits.get(base + level - 1), rngs.get_mut(p)) {
                    (Some(&parent), Some(rng)) if parent > 0 => {
                        self.walk.child_draw.sample(parent, rng)
                    }
                    _ => 0,
                }
            };
            if let Some(slot) = visits.get_mut(base + level) {
                *slot = b;
            }
            visited |= b > 0;
        }
        visited || self.tally.is_some()
    }

    /// Record the node's accesses for every owner that visits it, weighted
    /// by how many of its walks do, and charge its set operations once per
    /// such owner.
    #[inline]
    fn visit(&mut self, level: usize, bound: &[VertexId], ops: u64) {
        let Lanes { visits, hits, owners, walk_ops, .. } = &mut *self.lanes;
        let walk = self.walk;
        let weight = walk.weights.get(level).copied().unwrap_or(0.0);
        for &p in owners.iter() {
            let b = visits.get(p * walk.depth + level).copied().unwrap_or(0);
            let (Some(node), Some(hits)) =
                (walk.plans.get(p).and_then(|plan| plan.levels.get(level)), hits.get_mut(p))
            else {
                continue;
            };
            if b == 0 {
                continue;
            }
            *walk_ops += ops;
            let share = b as f64 * weight / walk.m;
            hits.extend(
                node.constraints.iter().filter_map(|c| bound.get(c.pos)).map(|&v| (v, share)),
            );
        }
    }

    #[inline]
    fn read(&mut self, v: VertexId, sel: ViewSel) {
        let Some(tally) = self.tally.as_deref_mut() else { return };
        let (a, b) = self.lanes.seed;
        let [a_old, a_new, b_old, b_new] = &mut self.lanes.seed_reads;
        match sel {
            ViewSel::Old if v == a => *a_old += 1,
            ViewSel::New if v == a => *a_new += 1,
            ViewSel::Old if v == b => *b_old += 1,
            ViewSel::New if v == b => *b_new += 1,
            _ => tally.record(v, sel),
        }
    }
}

/// Sum the chunk logs into `est` (all zero, with an empty touched list) in
/// chunk order, so the sums never depend on the pool.
pub(crate) fn fold_logs(logs: &[ChunkLog], est: &mut FreqEstimate) {
    let mut walk_ops = 0;
    est.record_touched(|freq, touched| {
        for log in logs {
            walk_ops += log.walk_ops;
            for &(v, share) in &log.hits {
                if let Some(f) = freq.get_mut(v as usize) {
                    // Every share is positive, so a zero slot is a first touch.
                    if *f == 0.0 {
                        touched.push(v);
                    }
                    *f += share;
                }
            }
        }
    });
    est.walk_ops = walk_ops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_naive;
    use gcsm_graph::{CsrGraph, DynamicGraph};
    use gcsm_matcher::{
        match_incremental, AccessCounter, DriverOptions, DynSource, RecordingSource,
    };
    use gcsm_pattern::{compile_incremental, queries, PlanOptions};

    /// Shared fixture: a small skewed graph plus a mixed batch.
    fn fixture() -> (DynamicGraph, Vec<EdgeUpdate>) {
        // Hub-and-spoke plus triangles: vertex 0 is hot.
        let mut edges = vec![(0u32, 1u32), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (2, 3)];
        for i in 5..14u32 {
            edges.push((0, i));
        }
        edges.push((5, 6));
        let g0 = CsrGraph::from_edges(14, &edges);
        let mut g = DynamicGraph::from_csr(&g0);
        let batch = vec![
            EdgeUpdate::insert(1, 3),
            EdgeUpdate::insert(2, 4),
            EdgeUpdate::delete(0, 2),
            EdgeUpdate::insert(5, 7),
        ];
        let summary = g.apply_batch(&batch);
        (g, summary.applied)
    }

    /// Exact access counts (the oracle `C_v`) for the fixture.
    fn oracle(g: &DynamicGraph, batch: &[EdgeUpdate]) -> Vec<u64> {
        let src = DynSource::new(g);
        let counter = AccessCounter::new(g.num_vertices());
        let rec = RecordingSource::new(&src, &counter);
        let q = queries::triangle();
        match_incremental(&rec, &q, batch, &DriverOptions::default());
        counter.to_vec()
    }

    /// Both estimators must be (empirically) unbiased: averaging many runs
    /// approaches the oracle counts.
    #[test]
    fn merged_and_naive_are_unbiased() {
        let (g, batch) = fixture();
        let truth = oracle(&g, &batch);
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let d = g.max_degree_bound();
        let runs = 60;
        let mut mean_naive = vec![0.0; g.num_vertices()];
        let mut mean_merged = vec![0.0; g.num_vertices()];
        for r in 0..runs {
            let p = WalkParams { walks: 400, seed: 1000 + r };
            let en = estimate_naive(&src, &plans, &batch, d, &p);
            let em = estimate_merged(&src, &plans, &batch, d, &p);
            for v in 0..g.num_vertices() {
                mean_naive[v] += en.freq[v] / runs as f64;
                mean_merged[v] += em.freq[v] / runs as f64;
            }
        }
        // Check relative error on the hottest vertices (where the law of
        // large numbers has kicked in).
        let total_truth: u64 = truth.iter().sum();
        assert!(total_truth > 0);
        for v in 0..g.num_vertices() {
            if truth[v] >= 5 {
                let t = truth[v] as f64;
                let rel_n = (mean_naive[v] - t).abs() / t;
                let rel_m = (mean_merged[v] - t).abs() / t;
                assert!(rel_n < 0.35, "naive biased at v{v}: {} vs {}", mean_naive[v], t);
                assert!(rel_m < 0.35, "merged biased at v{v}: {} vs {}", mean_merged[v], t);
            }
        }
    }

    /// The merged scheme must rank the genuinely hot vertices on top.
    #[test]
    fn merged_ranks_hot_vertices_first() {
        let (g, batch) = fixture();
        let truth = oracle(&g, &batch);
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let est = estimate_merged(
            &src,
            &plans,
            &batch,
            g.max_degree_bound(),
            &WalkParams { walks: 20_000, seed: 3 },
        );
        let mut truth_ranked: Vec<(u32, u64)> =
            truth.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i as u32, c)).collect();
        truth_ranked.sort_by(|a, b| b.1.cmp(&a.1));
        let est_top: Vec<u32> = est.ranked().iter().take(3).map(|r| r.0).collect();
        // The single hottest oracle vertex must be within the estimator's
        // top three.
        assert!(
            est_top.contains(&truth_ranked[0].0),
            "hottest {:?} not in estimated top3 {:?}",
            truth_ranked[0],
            est_top
        );
    }

    /// Merged does far fewer set operations than naive at equal M.
    #[test]
    fn merged_is_cheaper_than_naive() {
        let (g, batch) = fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let p = WalkParams { walks: 20_000, seed: 9 };
        let en = estimate_naive(&src, &plans, &batch, g.max_degree_bound(), &p);
        let em = estimate_merged(&src, &plans, &batch, g.max_degree_bound(), &p);
        assert!(em.walk_ops * 4 < en.walk_ops, "merged {} vs naive {}", em.walk_ops, en.walk_ops);
    }

    #[test]
    fn zero_walks_estimate_is_empty() {
        let (g, batch) = fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let est = estimate_merged(
            &src,
            &plans,
            &batch,
            g.max_degree_bound(),
            &WalkParams { walks: 0, seed: 1 },
        );
        assert!(est.ranked().is_empty());
    }

    #[test]
    fn estimates_are_deterministic_given_seed() {
        let (g, batch) = fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::triangle(), PlanOptions::default());
        let p = WalkParams { walks: 1000, seed: 42 };
        let a = estimate_merged(&src, &plans, &batch, g.max_degree_bound(), &p);
        let b = estimate_merged(&src, &plans, &batch, g.max_degree_bound(), &p);
        assert_eq!(a.freq, b.freq);
    }

    /// A random graph and a mixed batch large enough for many seed chunks.
    fn chunked_fixture() -> (DynamicGraph, Vec<EdgeUpdate>) {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 600u32;
        let mut pair = || loop {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                return (a, b);
            }
        };
        let edges: Vec<(u32, u32)> = (0..4000).map(|_| pair()).collect();
        let mut g = DynamicGraph::from_csr(&CsrGraph::from_edges(n as usize, &edges));
        let batch: Vec<EdgeUpdate> = (0..200)
            .map(|i| {
                let (a, b) = pair();
                if i % 3 == 0 {
                    EdgeUpdate::delete(a, b)
                } else {
                    EdgeUpdate::insert(a, b)
                }
            })
            .collect();
        let applied = g.apply_batch(&batch).applied;
        (g, applied)
    }

    /// The estimate is a function of (graph, batch multiset, params): 1-,
    /// 2- and 4-thread pools and a shuffled batch give bit-identical
    /// `freq`, `walk_ops` and touched set.
    #[test]
    fn estimate_is_independent_of_threads_and_batch_order() {
        use rand::seq::SliceRandom;
        let (g, batch) = chunked_fixture();
        assert!(batch.len() * 2 > 4 * CHUNK_SEEDS, "fixture too small to chunk");
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::q1(), PlanOptions::default());
        let d = g.max_degree_bound();
        let p = WalkParams { walks: 16 * batch.len() as u64, seed: 77 };
        let on = |threads: usize, batch: &[EdgeUpdate]| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            pool.install(|| estimate_merged(&src, &plans, batch, d, &p))
        };
        let base = on(1, &batch);
        assert!(base.walk_ops > 0 && base.touched().len() > 10);
        let mut shuffled = batch.clone();
        shuffled.shuffle(&mut SmallRng::seed_from_u64(3));
        for est in [on(2, &batch), on(4, &batch), on(4, &shuffled), on(1, &shuffled)] {
            assert_eq!(est.freq, base.freq);
            assert_eq!(est.walk_ops, base.walk_ops);
            assert_eq!(est.touched(), base.touched());
        }
        // The touched list is exactly the nonzero entries.
        let nonzero: Vec<VertexId> =
            (0..g.num_vertices() as VertexId).filter(|&v| base.freq[v as usize] > 0.0).collect();
        assert_eq!(&*base.touched(), &nonzero[..]);
    }

    /// The walks as a standalone recursion per (plan, seed): seed-major over
    /// the sorted seeds, one keyed stream per pair, a child drawn per
    /// candidate of a visited node and recursed into when its count is
    /// positive. The oracle the hook-driven traversal must reproduce bit for
    /// bit.
    fn reference(
        src: &DynSource<'_>,
        plans: &[MatchPlan],
        batch: &[EdgeUpdate],
        d: usize,
        p: &WalkParams,
    ) -> (Vec<f64>, u64) {
        use gcsm_matcher::{gen_candidates, seed_admissible, CostCounter};
        #[allow(clippy::too_many_arguments)]
        fn expand(
            src: &DynSource<'_>,
            plan: &MatchPlan,
            level: usize,
            b: u64,
            weight: f64,
            m: f64,
            d: f64,
            child: &ChildDraws,
            rng: &mut SmallRng,
            bound: &mut Vec<VertexId>,
            hits: &mut Vec<(VertexId, f64)>,
            cost: &mut CostCounter,
        ) {
            let Some(node) = plan.levels.get(level) else { return };
            let share = b as f64 * weight / m;
            hits.extend(node.constraints.iter().map(|c| (bound[c.pos], share)));
            let mut cands = Vec::new();
            let mut stats = MatchStats::default();
            gen_candidates(
                src,
                plan,
                level,
                bound,
                IntersectAlgo::Auto,
                &mut cands,
                cost,
                &mut stats,
            );
            if level + 1 == plan.levels.len() {
                return;
            }
            for cand in cands {
                let bc = child.sample(b, rng);
                if bc > 0 {
                    bound.push(cand);
                    expand(
                        src,
                        plan,
                        level + 1,
                        bc,
                        weight * d,
                        m,
                        d,
                        child,
                        rng,
                        bound,
                        hits,
                        cost,
                    );
                    bound.pop();
                }
            }
        }
        let mut seeds: Vec<(VertexId, VertexId)> =
            batch.iter().flat_map(|u| [(u.src, u.dst), (u.dst, u.src)]).collect();
        seeds.sort_unstable();
        let s_count = seeds.len() as f64;
        let seed_draw = BinomialTable::new(p.walks, 1.0 / s_count);
        let child = ChildDraws::new(1.0 / d as f64);
        let (mut hits, mut cost) = (Vec::new(), CostCounter::default());
        for (i, &(x0, x1)) in seeds.iter().enumerate() {
            for (pi, plan) in plans.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(stream_key(splitmix64(p.seed), pi, i));
                let b1 = seed_draw.sample(&mut rng);
                if b1 == 0 || !seed_admissible(src, plan, x0, x1) {
                    continue;
                }
                let mut bound = vec![x0, x1];
                let (m, d) = (p.walks as f64, d as f64);
                expand(
                    src, plan, 0, b1, s_count, m, d, &child, &mut rng, &mut bound, &mut hits,
                    &mut cost,
                );
            }
        }
        let mut freq = vec![0.0; src.num_vertices()];
        for (v, share) in hits {
            freq[v as usize] += share;
        }
        (freq, cost.ops)
    }

    /// The hook-driven traversal draws exactly the standalone recursion's
    /// walks: grouped (Q4, kite) and singleton plans, symmetry breaking on
    /// and off.
    #[test]
    fn traversal_equals_the_standalone_recursion() {
        let (g, batch) = chunked_fixture();
        let src = DynSource::new(&g);
        let d = g.max_degree_bound();
        for q in [queries::triangle(), queries::fig1_kite(), queries::q1(), queries::q4()] {
            for symmetry_break in [false, true] {
                let plans = compile_incremental(&q, PlanOptions { symmetry_break });
                for seed in [1, 2] {
                    let p = WalkParams { walks: 40 * batch.len() as u64, seed };
                    let est = estimate_merged(&src, &plans, &batch, d, &p);
                    let (freq, ops) = reference(&src, &plans, &batch, d, &p);
                    let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&est.freq), bits(&freq), "{} sb={symmetry_break}", q.name());
                    assert_eq!(est.walk_ops, ops, "{} sb={symmetry_break}", q.name());
                }
            }
        }
    }

    /// Handing back each batch's estimate reuses its allocation and gives
    /// the fresh estimate bit for bit, over a sequence of batches.
    #[test]
    fn recycled_estimates_equal_fresh_ones() {
        let (g0, _) = chunked_fixture();
        let mut g = g0;
        let plans = compile_incremental(&queries::q1(), PlanOptions::default());
        let mut rng = SmallRng::seed_from_u64(9);
        let mut spent = FreqEstimate::default();
        for round in 0..6u64 {
            use rand::Rng;
            g.reorganize();
            let n = g.num_vertices() as u32;
            let batch: Vec<EdgeUpdate> = (0..40)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| {
                    if round % 2 == 0 {
                        EdgeUpdate::insert(a, b)
                    } else {
                        EdgeUpdate::delete(a, b)
                    }
                })
                .collect();
            let applied = g.apply_batch(&batch).applied;
            let src = DynSource::new(&g);
            let p = WalkParams { walks: 30 * applied.len() as u64, seed: round };
            let d = g.max_degree_bound();
            let fresh = estimate_merged(&src, &plans, &applied, d, &p);
            let ptr = spent.freq.as_ptr();
            let recycled = estimate_merged_into(spent, &src, &plans, &applied, d, &p);
            if round > 0 {
                assert_eq!(recycled.freq.as_ptr(), ptr, "allocation not reused");
            }
            let bits = |e: &FreqEstimate| e.freq.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&recycled), bits(&fresh), "round {round}");
            assert_eq!(recycled.walk_ops, fresh.walk_ops);
            assert_eq!(recycled.touched(), fresh.touched());
            spent = recycled;
        }
    }

    /// A different walk seed draws different streams.
    #[test]
    fn walk_seed_changes_the_estimate() {
        let (g, batch) = chunked_fixture();
        let src = DynSource::new(&g);
        let plans = compile_incremental(&queries::q1(), PlanOptions::default());
        let d = g.max_degree_bound();
        let est =
            |seed| estimate_merged(&src, &plans, &batch, d, &WalkParams { walks: 3200, seed });
        assert_ne!(est(1).freq, est(2).freq);
    }
}
