//! The one batch driver behind every pipeline (DESIGN.md §15).
//!
//! [`BatchDriver`] owns the host side of the per-batch workflow (Fig. 3):
//! the ground-truth [`DynamicGraph`], Step 1 (staged while an overlapped
//! reorganize is in flight), the seal, Step 5 (inline or detached) and the
//! host cost. Steps 2–4 run over a grid of engine slots — one [`Row`] per
//! query, one engine per shard; rows run back to back, a row's shards in
//! parallel. Per row, counts, stats, traffic and bytes are summed across
//! shards and engine phases and walls take the maximum; host phases and
//! the host wall are charged once, to the first row. Routing and peer
//! copies run only with more than one shard; with one, the slot's result
//! passes through unmerged.

use crate::engines::Engine;
use crate::result::BatchResult;
use crate::sharded::ShardedBatchResult;
use gcsm_gpusim::{imbalance_factor, makespan, Scheduling, SimBreakdown, TrafficSnapshot};
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate, ReorgResult};
use gcsm_pattern::QueryGraph;
use gcsm_shard::{route, Partitioning, RoutedBatch};
use rayon::prelude::*;

/// An in-flight overlapped reorganization of the previous batch.
struct PendingReorg {
    handle: std::thread::JoinHandle<ReorgResult>,
    /// Modeled CPU seconds of the detached merge work; charged as the
    /// exposed remainder once the next batch's ingest window is known.
    sim_seconds: f64,
}

/// One query row of the grid: the query and one engine per shard.
pub(crate) struct Row<'a> {
    pub(crate) query: &'a QueryGraph,
    pub(crate) shards: Vec<&'a mut dyn Engine>,
}

/// Owns the graph and drives each batch over a (query × shard) grid.
pub(crate) struct BatchDriver {
    graph: DynamicGraph,
    /// Batches processed so far; labels the `batch` spans in traces.
    batches: u64,
    /// Double-buffered mode: reorganize batch *k* while ingesting *k+1*.
    overlap: bool,
    pending: Option<PendingReorg>,
}

impl BatchDriver {
    pub(crate) fn new(initial: &CsrGraph) -> Self {
        Self { graph: DynamicGraph::from_csr(initial), batches: 0, overlap: false, pending: None }
    }

    pub(crate) fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
    }

    pub(crate) fn overlap(&self) -> bool {
        self.overlap
    }

    pub(crate) fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Join and install an in-flight overlapped reorganization, if any.
    /// Returns the modeled CPU seconds of the joined work that no later
    /// batch will hide (0.0 when nothing was pending).
    pub(crate) fn flush(&mut self) -> f64 {
        match self.pending.take() {
            Some(p) => {
                let res = p.handle.join().expect("reorganize worker panicked");
                self.graph.install_reorg(res);
                p.sim_seconds
            }
            None => 0.0,
        }
    }

    /// Count `query`'s matches on the *current* graph from scratch
    /// (parallel CPU WCOJ). Together with the streamed deltas this gives a
    /// consistent running total: `count(G_k) = count(G_0) + Σ ΔM`.
    pub(crate) fn static_count(&self, query: &QueryGraph, symmetry_break: bool) -> i64 {
        let snapshot = self.graph.to_csr();
        let src = gcsm_matcher::CsrSource::new(&snapshot);
        let opts = gcsm_matcher::DriverOptions {
            plan: gcsm_pattern::PlanOptions { symmetry_break },
            parallel: true,
            ..Default::default()
        };
        gcsm_matcher::match_static(&src, query, &snapshot.edges().collect::<Vec<_>>(), &opts)
            .matches
    }

    /// Process one batch end to end: one ingest and seal, every row's
    /// matching, `after_match` against the sealed views, one reorganize.
    /// `part` splits the matching work when every row has more than one
    /// shard. Returns one merged record per row, in row order.
    pub(crate) fn drive_batch(
        &mut self,
        updates: &[EdgeUpdate],
        rows: &mut [Row<'_>],
        part: Option<&Partitioning>,
        after_match: impl FnOnce(&DynamicGraph, &[EdgeUpdate]),
    ) -> Vec<ShardedBatchResult> {
        // The host cost model reads the first slot's constants; with no
        // registered slot there is nothing to charge.
        let cpu_bw = rows.first().map(|r| r.shards[0].config().gpu.cpu_mem_bandwidth);
        let shards = rows.first().map_or(1, |r| r.shards.len());
        let batch = self.batches;
        self.batches += 1;
        let mut batch_span = gcsm_obs::span("batch", gcsm_obs::cat::PIPELINE);
        batch_span.set_batch(batch);
        batch_span.set_count(updates.len() as u64);

        // ---- Step 1: append ΔE to the CPU lists ----
        // With an overlapped reorganization in flight the updates are
        // journaled (staged batch); they replay inside `seal_batch` after
        // the merge result lands.
        let host = gcsm_obs::Stopwatch::start();
        {
            let _span = gcsm_obs::span("ingest", gcsm_obs::cat::PIPELINE);
            if self.pending.is_some() {
                self.graph.begin_staged_batch();
            } else {
                self.graph.begin_batch();
            }
            for &u in updates {
                self.graph.apply(u);
            }
        }
        // Join the previous batch's overlapped reorganize before sealing so
        // the journal replays against fully merged lists.
        let carried_sim = self.flush();
        let summary = {
            let _span = gcsm_obs::span("seal", gcsm_obs::cat::PIPELINE);
            self.graph.seal_batch()
        };
        // Steps 1 and 5 both stream every updated list; matching does not
        // change them, so one sum prices both.
        let touched_bytes: usize =
            self.graph.updated_vertices().iter().map(|&v| self.graph.list_bytes(v)).sum();
        let routed = part.filter(|_| shards > 1).map(|p| {
            let _span = gcsm_obs::span("route", gcsm_obs::cat::PIPELINE);
            (p, route(&summary.applied, p))
        });
        let mut host_wall = host.elapsed_seconds();

        // ---- Steps 2–4: every row in turn ----
        let graph = &self.graph;
        let applied = summary.applied.as_slice();
        let mut out: Vec<ShardedBatchResult> = rows
            .iter_mut()
            .enumerate()
            .map(|(idx, row)| {
                let mut span = gcsm_obs::span("query", gcsm_obs::cat::ENGINE);
                span.set_batch(batch);
                span.set_level(idx as u32);
                let per_shard = match &routed {
                    Some((_, routed)) => match_shards(graph, row, routed, batch),
                    None => vec![row.shards[0].match_sealed(graph, applied, row.query)],
                };
                merge_row(per_shard, applied, routed.as_ref(), row.shards[0].config().scheduling)
            })
            .collect();
        after_match(graph, applied);

        // ---- Step 5: reorganize (after matching, per the paper) ----
        let host = gcsm_obs::Stopwatch::start();
        // Merge-sort + tombstone removal streams each updated list ~twice.
        let reorg_sim = cpu_bw.map_or(0.0, |bw| 2.0 * touched_bytes as f64 / bw);
        let deferred = if self.overlap {
            let task = self.graph.take_reorg_task();
            if task.is_trivial() {
                // Nothing to merge (resurrection-only batch): settle inline.
                self.graph.install_reorg(task.compute());
                false
            } else {
                let handle = std::thread::spawn(move || {
                    let mut span = gcsm_obs::span("reorg_overlap", gcsm_obs::cat::GRAPH);
                    let res = task.compute();
                    span.set_count(res.len() as u64);
                    res
                });
                self.pending = Some(PendingReorg { handle, sim_seconds: reorg_sim });
                true
            }
        } else {
            self.graph.reorganize();
            false
        };
        host_wall += host.elapsed_seconds();

        // ---- Host cost, charged once to the first row ----
        if let (Some(bw), Some(first)) = (cpu_bw, out.first_mut()) {
            let update_sim = touched_bytes as f64 / bw;
            // Exposed remainder of the joined overlapped work: only what
            // its modeled cost exceeds the ingest window it hid behind.
            let exposed_sim = (carried_sim - update_sim).max(0.0);
            first.merged.phases.update += update_sim;
            first.merged.phases.reorganize += exposed_sim + if deferred { 0.0 } else { reorg_sim };
            first.merged.wall_seconds += host_wall;
        }
        drop(batch_span);
        for r in &out {
            crate::result::record_batch_metrics(&r.merged);
        }
        out
    }
}

/// Simulated engine seconds of one slot: the phases a device runs.
fn engine_seconds(r: &BatchResult) -> f64 {
    r.phases.freq_est + r.phases.data_copy + r.phases.matching
}

/// Every shard of `row` matches its routed subset, in parallel.
fn match_shards(
    graph: &DynamicGraph,
    row: &mut Row<'_>,
    routed: &RoutedBatch,
    batch: u64,
) -> Vec<BatchResult> {
    let query = row.query;
    let jobs: Vec<_> =
        routed.per_shard_match.iter().zip(&routed.peer_bytes_to).enumerate().collect();
    row.shards
        .par_iter_mut()
        .zip(jobs.into_par_iter())
        .map(|(engine, (idx, (assigned, &peer_in)))| {
            let mut span = gcsm_obs::span("shard_match", gcsm_obs::cat::ENGINE);
            span.set_batch(batch);
            span.set_shard(idx as u32);
            span.set_count(assigned.len() as u64);
            let mut r = engine.match_sealed(graph, assigned, query);
            // Mirror the cut updates this shard replicates but does not
            // count: one batched peer transfer over its link, charged to
            // the shard's data-copy phase like any other inbound bytes.
            if peer_in > 0 {
                let link =
                    TrafficSnapshot { peer_copies: 1, peer_bytes: peer_in, ..Default::default() };
                let peer = SimBreakdown::from_traffic(&link, &engine.config().gpu);
                r.phases.data_copy += peer.peer;
                r.sim = r.sim + peer;
                r.traffic = r.traffic + link;
            }
            r
        })
        .collect()
}

/// Merge one row's shard results under the module's rule (one shard
/// passes through) and model how evenly its work spreads over the shards.
fn merge_row(
    per_shard: Vec<BatchResult>,
    applied: &[EdgeUpdate],
    routed: Option<&(&Partitioning, RoutedBatch)>,
    scheduling: Scheduling,
) -> ShardedBatchResult {
    let merged = match per_shard.as_slice() {
        [only] => only.clone(),
        _ => {
            let mut merged = BatchResult {
                engine: format!("{}x{}", per_shard.len(), per_shard[0].engine),
                ..Default::default()
            };
            for r in &per_shard {
                merged.matches += r.matches;
                merged.stats.merge(r.stats);
                merged.traffic = merged.traffic + r.traffic;
                merged.sim = merged.sim + r.sim;
                merged.cpu_access_bytes += r.cpu_access_bytes;
                merged.cached_bytes += r.cached_bytes;
                merged.aux_bytes += r.aux_bytes;
                merged.phases.freq_est = merged.phases.freq_est.max(r.phases.freq_est);
                merged.phases.data_copy = merged.phases.data_copy.max(r.phases.data_copy);
                merged.phases.matching = merged.phases.matching.max(r.phases.matching);
                merged.wall_seconds = merged.wall_seconds.max(r.wall_seconds);
            }
            merged.cache_hit_rate = merged.traffic.cache_hit_rate();
            merged
        }
    };

    // Load-balance model: each shard's engine seconds spread uniformly
    // over its assigned updates, tasks listed in batch order, then
    // scheduled onto the shards under the configured policy.
    let shard_of = |u: &EdgeUpdate| routed.map_or(0, |(p, _)| p.counting_shard(u));
    let mut counts = vec![0usize; per_shard.len()];
    for u in applied {
        counts[shard_of(u)] += 1;
    }
    let per_update_ns: Vec<u64> = per_shard
        .iter()
        .zip(&counts)
        .map(|(r, &c)| if c == 0 { 0 } else { (engine_seconds(r) * 1e9 / c as f64) as u64 })
        .collect();
    let task_costs: Vec<u64> = applied.iter().map(|u| per_update_ns[shard_of(u)]).collect();
    let blocks = per_shard.len();

    ShardedBatchResult {
        makespan_seconds: per_shard.iter().map(engine_seconds).fold(0.0, f64::max),
        assignment_makespan_seconds: makespan(&task_costs, blocks, scheduling) as f64 * 1e-9,
        imbalance: imbalance_factor(&task_costs, blocks, scheduling),
        peer_bytes: routed.map_or(0, |(_, r)| r.peer_bytes()),
        cut_updates: routed.map_or(0, |(_, r)| r.cut_updates),
        merged,
        per_shard,
    }
}
