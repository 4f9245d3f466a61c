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
//!
//! The estimate records the vertices it touched, which is what ranking and
//! cache selection iterate instead of all of |V|.

use crate::binomial::{BinomialTable, ChildDraws};
use crate::estimate::{FreqEstimate, WalkParams};
use crate::naive::plan_seeds;
use gcsm_graph::{splitmix64, EdgeUpdate, VertexId};
use gcsm_matcher::{
    gen_candidates, seed_admissible, CostCounter, IntersectAlgo, MatchStats, NeighborSource,
};
use gcsm_pattern::MatchPlan;
use rand::{rngs::SmallRng, SeedableRng};
use rayon::prelude::*;

/// Sorted seeds per parallel task. Fixed, so chunk boundaries — and with
/// them the summation order — never depend on the pool size.
const CHUNK_SEEDS: usize = 32;

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
    let mut freq = vec![0.0; src.num_vertices()];
    if batch.is_empty() || max_degree == 0 || params.walks == 0 {
        return FreqEstimate::with_touched(freq, Vec::new(), 0);
    }
    let mut seeds = plan_seeds(batch);
    seeds.sort_unstable();
    let s_count = seeds.len() as f64;
    let d = max_degree as f64;
    let walk = Walk {
        src,
        plans,
        seeds: &seeds,
        key: splitmix64(params.seed),
        m: params.walks as f64,
        d,
        seed_draw: BinomialTable::new(params.walks, 1.0 / s_count),
        child_draw: ChildDraws::new(1.0 / d),
        s_count,
    };
    let logs: Vec<ChunkLog> = (0..seeds.len().div_ceil(CHUNK_SEEDS))
        .into_par_iter()
        .map_init(Scratch::default, |scratch, c| walk.chunk(c, scratch))
        .collect();

    let mut touched = Vec::new();
    let mut walk_ops = 0;
    for log in &logs {
        walk_ops += log.cost.ops;
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
    touched.sort_unstable();
    FreqEstimate::with_touched(freq, touched, walk_ops)
}

/// The RNG key of one (plan, seed) pair: `seed_key` is the mixed walk seed,
/// `seed_index` the seed's index in the sorted seed list.
fn stream_key(seed_key: u64, plan: usize, seed_index: usize) -> u64 {
    splitmix64(splitmix64(seed_key ^ plan as u64) ^ seed_index as u64)
}

/// Everything fixed for one estimation call.
struct Walk<'a, S> {
    src: &'a S,
    plans: &'a [MatchPlan],
    /// Oriented seeds, sorted.
    seeds: &'a [(VertexId, VertexId)],
    /// splitmix64 of the walk seed.
    key: u64,
    /// `M`, `D` and `S` as floats.
    m: f64,
    d: f64,
    s_count: f64,
    /// `Binomial(M, 1/S)`: walks starting at a seed.
    seed_draw: BinomialTable,
    /// `Binomial(B, 1/D)`: walks reaching a child of a node visited `B` times.
    child_draw: ChildDraws,
}

/// Scratch reused across the chunks one pool block walks.
#[derive(Default)]
struct Scratch {
    bound: Vec<VertexId>,
    /// One candidate buffer per plan level.
    bufs: Vec<Vec<VertexId>>,
    stats: MatchStats,
}

/// What one chunk contributes: `(vertex, share)` per recorded access, in
/// walk order, and the set operations spent.
#[derive(Default)]
struct ChunkLog {
    hits: Vec<(VertexId, f64)>,
    cost: CostCounter,
}

impl<S: NeighborSource> Walk<'_, S> {
    /// Walk chunk `c` of the sorted seeds, seed-major.
    fn chunk(&self, c: usize, scratch: &mut Scratch) -> ChunkLog {
        let mut log = ChunkLog::default();
        let first = c * CHUNK_SEEDS;
        let seeds = self.seeds.iter().skip(first).take(CHUNK_SEEDS);
        for (i, &(x0, x1)) in (first..).zip(seeds) {
            for (p, plan) in self.plans.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(stream_key(self.key, p, i));
                // How many of the M walks start at this seed.
                let b1 = self.seed_draw.sample(&mut rng);
                if b1 == 0 || !seed_admissible(self.src, plan, x0, x1) {
                    continue;
                }
                if scratch.bufs.len() < plan.levels.len() {
                    scratch.bufs.resize_with(plan.levels.len(), Vec::new);
                }
                scratch.bound.clear();
                scratch.bound.extend([x0, x1]);
                self.expand(
                    plan,
                    0,
                    b1,
                    self.s_count,
                    &mut rng,
                    &mut scratch.bound,
                    &mut scratch.bufs,
                    &mut log,
                    &mut scratch.stats,
                );
            }
        }
        log
    }

    /// Expand one execution-tree node visited by `b` of the `M` walks.
    /// `weight` is the node's inverse sampling probability (S·D^level).
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        plan: &MatchPlan,
        level: usize,
        b: u64,
        weight: f64,
        rng: &mut SmallRng,
        bound: &mut Vec<VertexId>,
        bufs: &mut [Vec<VertexId>],
        log: &mut ChunkLog,
        stats: &mut MatchStats,
    ) {
        let (Some(node), Some((buf, rest))) = (plan.levels.get(level), bufs.split_first_mut())
        else {
            return;
        };
        // Record the node's accesses, weighted by how many walks visit it.
        let share = b as f64 * weight / self.m;
        log.hits
            .extend(node.constraints.iter().filter_map(|c| bound.get(c.pos)).map(|&v| (v, share)));
        gen_candidates(
            self.src,
            plan,
            level,
            bound,
            IntersectAlgo::Auto,
            buf,
            &mut log.cost,
            stats,
        );
        if buf.is_empty() || level + 1 == plan.levels.len() {
            return;
        }
        let cands = std::mem::take(buf);
        for &cand in &cands {
            // Each walk at this node reaches each child with probability 1/D
            // (select 1/|V|, continue |V|/D) — the merged per-candidate
            // binomial of Sec. IV-B.
            let bc = self.child_draw.sample(b, rng);
            if bc > 0 {
                bound.push(cand);
                self.expand(plan, level + 1, bc, weight * self.d, rng, bound, rest, log, stats);
                bound.pop();
            }
        }
        *buf = cands;
    }
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
