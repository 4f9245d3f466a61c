//! The single-device pipeline (Fig. 3): update → engine → reorganize.
//!
//! [`Pipeline`] is the 1 × 1 grid of the batch driver (DESIGN.md §15): it
//! owns the dynamic graph and the query, borrows its engine on each call,
//! and gets the engine's result back with the host steps (1 and 5)
//! charged. With [`Pipeline::set_overlap`] Step 5 of batch *k* runs on a
//! worker thread while batch *k+1* is ingested, and only its exposed
//! remainder is charged (DESIGN.md §11).

use crate::driver::{BatchDriver, Row};
use crate::engines::Engine;
use crate::result::BatchResult;
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::QueryGraph;

/// Concrete signed matches: data-vertex bindings in plan order, with the
/// +1/−1 sign of the delta edge that produced each.
pub type CollectedMatches = Vec<(Vec<gcsm_graph::VertexId>, i64)>;

/// Drives one engine over a stream of batches.
pub struct Pipeline {
    driver: BatchDriver,
    query: QueryGraph,
}

impl Pipeline {
    /// Pipeline over an initial snapshot `G_0`.
    pub fn new(initial: CsrGraph, query: QueryGraph) -> Self {
        Self { driver: BatchDriver::new(&initial), query }
    }

    /// Enable/disable overlapped reorganization for subsequent batches. An
    /// already in-flight reorganization (if any) still joins normally on
    /// the next batch or [`Self::flush`].
    pub fn set_overlap(&mut self, on: bool) {
        self.driver.set_overlap(on);
    }

    /// Whether overlapped reorganization is enabled.
    pub fn overlap(&self) -> bool {
        self.driver.overlap()
    }

    /// The current graph state.
    pub fn graph(&self) -> &DynamicGraph {
        self.driver.graph()
    }

    /// Join and install an in-flight overlapped reorganization, if any.
    /// Returns the modeled CPU seconds of the joined work that no later
    /// batch will hide (0.0 when nothing was pending). Call at stream end
    /// (or before inspecting `updated_vertices`) to settle the graph.
    pub fn flush(&mut self) -> f64 {
        self.driver.flush()
    }

    /// The query.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// Count the query's matches on the *current* graph from scratch
    /// (parallel CPU WCOJ). Together with the streamed deltas this gives a
    /// consistent running total: `count(G_k) = count(G_0) + Σ ΔM`.
    pub fn static_count(&self, symmetry_break: bool) -> i64 {
        self.driver.static_count(&self.query, symmetry_break)
    }

    /// Single-edge update mode (the paper's Sec. II-A "single-edge
    /// setting"): one matching invocation per update.
    pub fn process_update(&mut self, engine: &mut dyn Engine, update: EdgeUpdate) -> BatchResult {
        self.process_batch(engine, std::slice::from_ref(&update))
    }

    /// Process one batch end to end. Returns the engine's measurements
    /// with the pipeline-side phases (update, reorganize) filled in.
    pub fn process_batch(
        &mut self,
        engine: &mut dyn Engine,
        updates: &[EdgeUpdate],
    ) -> BatchResult {
        let mut rows = [Row { query: &self.query, shards: vec![engine] }];
        self.driver.drive_batch(updates, &mut rows, None, |_, _| {}).swap_remove(0).merged
    }

    /// Like [`Self::process_batch`], but also returns the concrete signed
    /// matches (data-vertex bindings in plan order). The collection pass
    /// runs on the host against the sealed views, so the engine's traffic
    /// measurements and every accounted phase and wall step are unaffected.
    pub fn process_batch_collect(
        &mut self,
        engine: &mut dyn Engine,
        updates: &[EdgeUpdate],
    ) -> (BatchResult, CollectedMatches) {
        let plan = engine.config().plan;
        let query = &self.query;
        let mut collected = Vec::new();
        let mut rows = [Row { query, shards: vec![engine] }];
        let mut out = self.driver.drive_batch(updates, &mut rows, None, |graph, applied| {
            let src = gcsm_matcher::DynSource::new(graph);
            let opts = gcsm_matcher::DriverOptions { plan, ..Default::default() };
            collected = gcsm_matcher::collect_incremental(&src, query, applied, &opts);
        });
        let result = out.swap_remove(0).merged;
        debug_assert_eq!(
            collected.iter().map(|(_, s)| s).sum::<i64>(),
            result.matches,
            "collection pass must agree with the engine"
        );
        (result, collected)
    }

    /// Process a whole stream of batches, returning per-batch results. Any
    /// overlapped reorganization left in flight after the last batch is
    /// joined, and its unhidden cost is charged to that batch's
    /// `reorganize` phase so the stream total stays conservative.
    pub fn process_stream<'a>(
        &mut self,
        engine: &mut dyn Engine,
        batches: impl Iterator<Item = &'a [EdgeUpdate]>,
    ) -> Vec<BatchResult> {
        let mut out: Vec<BatchResult> = batches.map(|b| self.process_batch(engine, b)).collect();
        let exposed = self.flush();
        if let Some(last) = out.last_mut() {
            last.phases.reorganize += exposed;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engines::{GcsmEngine, ZeroCopyEngine};
    use gcsm_pattern::queries;

    fn setup() -> (CsrGraph, Vec<EdgeUpdate>) {
        let g0 = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let batch = vec![EdgeUpdate::insert(2, 4), EdgeUpdate::delete(0, 1)];
        (g0, batch)
    }

    #[test]
    fn pipeline_runs_full_cycle_and_reorganizes() {
        let (g0, batch) = setup();
        let mut p = Pipeline::new(g0, queries::triangle());
        let mut e = ZeroCopyEngine::new(EngineConfig::default());
        let r = p.process_batch(&mut e, &batch);
        // Triangle (0,1,2) destroyed (−6 embeddings), (2,3,4) created (+6).
        assert_eq!(r.matches, 0);
        assert!(r.phases.update > 0.0);
        assert!(r.phases.reorganize > 0.0);
        // Graph is clean again (reorganized).
        assert!(p.graph().updated_vertices().is_empty());
    }

    #[test]
    fn running_total_stays_consistent() {
        let (g0, batch) = setup();
        let mut p = Pipeline::new(g0, queries::triangle());
        let initial = p.static_count(false);
        let mut e = GcsmEngine::new(EngineConfig::default());
        let mut total = initial;
        total += p.process_batch(&mut e, &batch).matches;
        total += p.process_batch(&mut e, &[EdgeUpdate::insert(0, 4)]).matches;
        assert_eq!(total, p.static_count(false));
    }

    #[test]
    fn single_update_mode() {
        let (g0, _) = setup();
        let mut p = Pipeline::new(g0, queries::triangle());
        let mut e = ZeroCopyEngine::new(EngineConfig::default());
        let r = p.process_update(&mut e, EdgeUpdate::insert(2, 4));
        assert_eq!(r.matches, 6); // triangle (2,3,4)
        let r = p.process_update(&mut e, EdgeUpdate::delete(2, 4));
        assert_eq!(r.matches, -6);
    }

    #[test]
    fn collect_returns_concrete_matches() {
        let (g0, batch) = setup();
        let mut p = Pipeline::new(g0, queries::triangle());
        let mut e = GcsmEngine::new(EngineConfig::default());
        let (r, matches) = p.process_batch_collect(&mut e, &batch);
        assert_eq!(matches.iter().map(|(_, s)| s).sum::<i64>(), r.matches);
        // The destroyed triangle {0,1,2} and the created one {2,3,4} both
        // appear with the right signs.
        assert!(matches.iter().any(|(m, s)| {
            let mut v = m.clone();
            v.sort_unstable();
            v == vec![0, 1, 2] && *s == -1
        }));
        assert!(matches.iter().any(|(m, s)| {
            let mut v = m.clone();
            v.sort_unstable();
            v == vec![2, 3, 4] && *s == 1
        }));
        // Graph reorganized afterwards.
        assert!(p.graph().updated_vertices().is_empty());
    }

    #[test]
    fn collect_and_plain_paths_account_identically() {
        // Regression: process_batch_collect used to drop the pipeline-side
        // wall time (update/reorganize steps) that process_batch accounted,
        // so identical work reported inconsistent timings. Both now run the
        // same shared core: simulated phases match exactly and both walls
        // include the host steps.
        let (g0, batch) = setup();
        let mut p1 = Pipeline::new(g0.clone(), queries::triangle());
        let mut p2 = Pipeline::new(g0, queries::triangle());
        let mut e1 = GcsmEngine::new(EngineConfig::default());
        let mut e2 = GcsmEngine::new(EngineConfig::default());
        let r_plain = p1.process_batch(&mut e1, &batch);
        let (r_collect, _) = p2.process_batch_collect(&mut e2, &batch);
        assert_eq!(r_plain.matches, r_collect.matches);
        assert_eq!(r_plain.phases.update, r_collect.phases.update);
        assert_eq!(r_plain.phases.reorganize, r_collect.phases.reorganize);
        // The collect path must also accumulate pipeline wall time on top
        // of the engine's own measurement, like the plain path does.
        assert!(r_plain.wall_seconds > 0.0);
        assert!(r_collect.wall_seconds > 0.0);
    }

    #[test]
    fn overlapped_pipeline_matches_serial() {
        let (g0, _) = setup();
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::delete(0, 1)],
            vec![EdgeUpdate::insert(0, 4), EdgeUpdate::insert(0, 1)],
            vec![EdgeUpdate::delete(2, 4), EdgeUpdate::insert(1, 4)],
            vec![EdgeUpdate::insert(2, 4)],
        ];
        let mut serial = Pipeline::new(g0.clone(), queries::triangle());
        let mut overlapped = Pipeline::new(g0, queries::triangle());
        overlapped.set_overlap(true);
        let mut es = GcsmEngine::new(EngineConfig::default());
        let mut eo = GcsmEngine::new(EngineConfig::default());
        for b in &batches {
            let rs = serial.process_batch(&mut es, b);
            let ro = overlapped.process_batch(&mut eo, b);
            assert_eq!(rs.matches, ro.matches, "per-batch ΔM must be identical");
        }
        overlapped.flush();
        assert!(overlapped.graph().updated_vertices().is_empty());
        let a = serial.graph().to_csr();
        let b = overlapped.graph().to_csr();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_eq!(serial.static_count(false), overlapped.static_count(false));
    }

    #[test]
    fn overlap_defers_reorganize_cost_to_exposed_remainder() {
        let (g0, _) = setup();
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::delete(0, 1)],
            vec![EdgeUpdate::insert(0, 4)],
            vec![EdgeUpdate::delete(0, 4), EdgeUpdate::insert(0, 1)],
        ];
        let run = |overlap: bool| {
            let mut p = Pipeline::new(g0.clone(), queries::triangle());
            p.set_overlap(overlap);
            let mut e = GcsmEngine::new(EngineConfig::default());
            let results = p.process_stream(&mut e, batches.iter().map(|b| b.as_slice()));
            results.iter().map(|r| r.phases.reorganize).sum::<f64>()
        };
        let serial_reorg = run(false);
        let overlap_reorg = run(true);
        assert!(serial_reorg > 0.0);
        // Overlap can only hide reorganize time behind ingest, never add to
        // the modeled cost.
        assert!(
            overlap_reorg <= serial_reorg + 1e-12,
            "overlap {overlap_reorg} must not exceed serial {serial_reorg}"
        );
    }

    #[test]
    fn flush_without_pending_is_noop() {
        let (g0, batch) = setup();
        let mut p = Pipeline::new(g0, queries::triangle());
        assert_eq!(p.flush(), 0.0);
        let mut e = ZeroCopyEngine::new(EngineConfig::default());
        p.process_batch(&mut e, &batch);
        assert_eq!(p.flush(), 0.0, "serial mode leaves nothing in flight");
    }

    #[test]
    fn multi_batch_stream_stays_consistent() {
        let (g0, _) = setup();
        let mut p = Pipeline::new(g0.clone(), queries::triangle());
        let mut e = GcsmEngine::new(EngineConfig::default());
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            vec![EdgeUpdate::insert(2, 4)],
            vec![EdgeUpdate::insert(0, 4)],
            vec![EdgeUpdate::delete(2, 4)],
        ];
        let mut cumulative = 0i64;
        for b in &batches {
            cumulative += p.process_batch(&mut e, b).matches;
        }
        // Net state: +edge (0,4). Triangles: (0,1,2) intact, (0,2,4)?
        // 0-4 and 2-4? (2,4) was deleted again. Recompute ground truth:
        let final_graph = p.graph().to_csr();
        let src = gcsm_matcher::CsrSource::new(&final_graph);
        let total_after = gcsm_matcher::match_static(
            &src,
            &queries::triangle(),
            &final_graph.edges().collect::<Vec<_>>(),
            &gcsm_matcher::DriverOptions::default(),
        )
        .matches;
        let src0 = gcsm_matcher::CsrSource::new(&g0);
        let total_before = gcsm_matcher::match_static(
            &src0,
            &queries::triangle(),
            &g0.edges().collect::<Vec<_>>(),
            &gcsm_matcher::DriverOptions::default(),
        )
        .matches;
        assert_eq!(cumulative, total_after - total_before);
    }
}
