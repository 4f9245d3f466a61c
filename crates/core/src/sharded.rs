//! Multi-device sharded execution.
//!
//! [`ShardedPipeline`] is the 1 × `N` grid of the batch driver (DESIGN.md
//! §15; [`crate::MultiPipeline::partitioned`] is the Q × `N` form). The
//! host still owns the single ground-truth [`DynamicGraph`] (steps 1 and 5
//! of Fig. 3 are CPU work and happen once — the paper's zero-copy story
//! puts the sealed lists in pinned host memory, which every device can
//! read). What is sharded is the *matching work*: `gcsm-shard` routes each
//! update to exactly one counting shard, so the summed per-shard `ΔM` is
//! bit-identical to the single-device pipeline, and mirrors cut updates
//! over the peer link of the non-counting owner, charged to its
//! `data_copy` phase (DESIGN.md §12).

use crate::config::EngineConfig;
use crate::engines::Engine;
use crate::multi::MultiPipeline;
use crate::result::BatchResult;
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::QueryGraph;
use gcsm_shard::{PartitionPolicy, Partitioning};

/// Outcome of one batch across all shards.
#[derive(Clone, Debug)]
pub struct ShardedBatchResult {
    /// The merged, single-device-equivalent record (see module docs for
    /// sum-vs-max semantics). `merged.matches` is the exact `ΔM`.
    pub merged: BatchResult,
    /// Each shard's own measurement, in shard order.
    pub per_shard: Vec<BatchResult>,
    /// Bytes mirrored over peer links for cut updates this batch.
    pub peer_bytes: u64,
    /// Updates whose endpoints live on different shards.
    pub cut_updates: usize,
    /// Achieved parallel engine time: the slowest shard's engine phases.
    pub makespan_seconds: f64,
    /// Modeled makespan of this batch's per-update costs re-assigned
    /// across the shards under the configured [`gcsm_gpusim::Scheduling`]
    /// policy.
    pub assignment_makespan_seconds: f64,
    /// `assignment makespan / ideal` (≥ 1): how far the shard assignment
    /// is from perfect balance.
    pub imbalance: f64,
}

/// Derive a per-shard engine config from a total budget: each device gets
/// `1/N` of the cache budget (and proportionally scaled capacity), keeping
/// every link/compute constant of the base config.
pub fn shard_config(base: &EngineConfig, num_shards: usize) -> EngineConfig {
    let n = num_shards.max(1);
    let mut gpu = base.gpu;
    gpu.um_cache_bytes /= n;
    gpu.device_capacity /= n;
    gpu.kernel_reserved /= n;
    EngineConfig { gpu, ..base.clone() }
}

/// Drives `N` engines, one per shard, over a stream of batches.
pub struct ShardedPipeline {
    grid: MultiPipeline,
}

impl ShardedPipeline {
    /// Pipeline over an initial snapshot, partitioned under `policy` into
    /// one shard per engine. Panics if `engines` is empty.
    pub fn new(
        initial: CsrGraph,
        query: QueryGraph,
        policy: PartitionPolicy,
        engines: Vec<Box<dyn Engine>>,
    ) -> Self {
        assert!(!engines.is_empty(), "sharded pipeline needs at least one engine");
        let grid = MultiPipeline::partitioned(initial, policy, engines.len());
        Self { grid: grid.register_sharded(query, engines) }
    }

    /// Enable/disable overlapped reorganization (see
    /// [`crate::Pipeline::set_overlap`]).
    pub fn set_overlap(&mut self, on: bool) {
        self.grid.set_overlap(on);
    }

    /// Join an in-flight overlapped reorganization and return its unhidden
    /// modeled seconds (see [`crate::Pipeline::flush`]).
    pub fn flush(&mut self) -> f64 {
        self.grid.flush()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.grid.num_shards()
    }

    /// The vertex partitioning in effect.
    pub fn partitioning(&self) -> &Partitioning {
        self.grid.partitioning().expect("built by MultiPipeline::partitioned")
    }

    /// The current graph state.
    pub fn graph(&self) -> &DynamicGraph {
        self.grid.graph()
    }

    /// The query.
    pub fn query(&self) -> &QueryGraph {
        self.grid.queries().next().expect("registered in new")
    }

    /// Count the query's matches on the *current* graph from scratch (same
    /// ground truth as [`crate::Pipeline::static_count`]).
    pub fn static_count(&self, symmetry_break: bool) -> i64 {
        self.grid.static_counts(symmetry_break)[0]
    }

    /// Process one batch end to end across all shards.
    pub fn process_batch(&mut self, updates: &[EdgeUpdate]) -> ShardedBatchResult {
        self.grid.process_rows(updates).swap_remove(0)
    }

    /// Process a whole stream of batches, returning per-batch results. Any
    /// overlapped reorganization left in flight is joined and its unhidden
    /// cost charged to the last batch, as in [`crate::Pipeline`].
    pub fn process_stream<'a>(
        &mut self,
        batches: impl Iterator<Item = &'a [EdgeUpdate]>,
    ) -> Vec<ShardedBatchResult> {
        let mut out: Vec<ShardedBatchResult> = batches.map(|b| self.process_batch(b)).collect();
        let exposed = self.flush();
        if let Some(last) = out.last_mut() {
            last.merged.phases.reorganize += exposed;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{GcsmEngine, ZeroCopyEngine};
    use crate::pipeline::Pipeline;
    use gcsm_pattern::queries;

    fn setup() -> (CsrGraph, Vec<Vec<EdgeUpdate>>) {
        let g0 = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (5, 6)]);
        let batches = vec![
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::delete(0, 1)],
            vec![EdgeUpdate::insert(4, 6), EdgeUpdate::insert(5, 7)],
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::delete(2, 4), EdgeUpdate::insert(6, 7)],
        ];
        (g0, batches)
    }

    fn engines(n: usize) -> Vec<Box<dyn Engine>> {
        let base = EngineConfig::default();
        (0..n)
            .map(|_| Box::new(GcsmEngine::new(shard_config(&base, n))) as Box<dyn Engine>)
            .collect()
    }

    #[test]
    fn one_shard_reproduces_the_single_device_pipeline() {
        let (g0, batches) = setup();
        let mut single = Pipeline::new(g0.clone(), queries::triangle());
        let mut e = GcsmEngine::new(EngineConfig::default());
        let mut sharded =
            ShardedPipeline::new(g0, queries::triangle(), PartitionPolicy::Range, engines(1));
        for b in &batches {
            let r1 = single.process_batch(&mut e, b);
            let rn = sharded.process_batch(b);
            assert_eq!(rn.merged.matches, r1.matches);
            assert_eq!(rn.peer_bytes, 0, "one shard has no peer traffic");
            assert_eq!(rn.cut_updates, 0);
            // Host phases are charged identically.
            assert!((rn.merged.phases.update - r1.phases.update).abs() < 1e-15);
            assert!((rn.merged.phases.reorganize - r1.phases.reorganize).abs() < 1e-15);
        }
        assert_eq!(sharded.static_count(false), single.static_count(false));
    }

    #[test]
    fn sharded_delta_counts_match_single_device() {
        let (g0, batches) = setup();
        for policy in
            [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced]
        {
            for n in [2usize, 3, 4] {
                let mut single = Pipeline::new(g0.clone(), queries::triangle());
                let mut e = ZeroCopyEngine::new(EngineConfig::default());
                let mut sharded =
                    ShardedPipeline::new(g0.clone(), queries::triangle(), policy, engines(n));
                for b in &batches {
                    let expect = single.process_batch(&mut e, b).matches;
                    let got = sharded.process_batch(b);
                    assert_eq!(got.merged.matches, expect, "{policy:?}/{n} shards diverged");
                    assert_eq!(
                        got.per_shard.iter().map(|r| r.matches).sum::<i64>(),
                        got.merged.matches
                    );
                }
                assert_eq!(sharded.static_count(false), single.static_count(false));
            }
        }
    }

    #[test]
    fn cut_updates_generate_peer_traffic() {
        let (g0, _) = setup();
        // Range over 8 vertices / 2 shards: {0..4} vs {4..8}; (3,4) and
        // (2,5) are cut, (0,1) is local.
        let mut sharded =
            ShardedPipeline::new(g0, queries::triangle(), PartitionPolicy::Range, engines(2));
        let r = sharded.process_batch(&[
            EdgeUpdate::insert(3, 5),
            EdgeUpdate::insert(1, 3),
            EdgeUpdate::delete(0, 1),
        ]);
        assert_eq!(r.cut_updates, 1);
        assert_eq!(r.peer_bytes, gcsm_shard::PEER_UPDATE_BYTES);
        assert_eq!(r.merged.traffic.peer_bytes, gcsm_shard::PEER_UPDATE_BYTES);
        assert!(r.merged.traffic.peer_copies >= 1);
        // The mirrored bytes cost simulated data-copy time on the replica.
        assert!(r.merged.sim.peer > 0.0);
    }

    #[test]
    fn makespan_and_imbalance_are_reported() {
        let (g0, batches) = setup();
        let mut sharded =
            ShardedPipeline::new(g0, queries::triangle(), PartitionPolicy::HashSrc, engines(2));
        for b in &batches {
            let r = sharded.process_batch(b);
            assert!(r.makespan_seconds >= 0.0);
            assert!(r.assignment_makespan_seconds >= 0.0);
            assert!(r.imbalance >= 1.0);
            // The merged engine phases are maxima over shards, so the
            // achieved makespan is exactly their sum.
            let merged_engine =
                r.merged.phases.freq_est + r.merged.phases.data_copy + r.merged.phases.matching;
            assert!(r.makespan_seconds <= merged_engine + 1e-12);
        }
    }

    #[test]
    fn shard_config_splits_the_budget() {
        let base = EngineConfig::with_cache_budget(1 << 20);
        let per = shard_config(&base, 4);
        assert_eq!(per.gpu.cache_budget(), (1 << 20) / 4);
        assert_eq!(per.gpu.dma_bandwidth, base.gpu.dma_bandwidth);
        let degenerate = shard_config(&base, 0);
        assert_eq!(degenerate.gpu.cache_budget(), 1 << 20);
    }
}
