//! Multi-query processing: register several patterns over one stream.
//!
//! Production CSM deployments monitor many patterns at once (the paper's
//! motivating scenarios — rumor shapes, laundering patterns — are query
//! *sets*). [`MultiPipeline`] is the (query × shard) grid of the batch
//! driver (DESIGN.md §15): one ingest, seal and reorganize per batch, then
//! every query's engines on the same sealed batch, in registration order.
//! [`MultiPipeline::partitioned`] splits each query's matching across
//! shards (§12). Each query's invocation is traced as a `query` span
//! (`level` = registration index).

use crate::driver::{BatchDriver, Row};
use crate::engines::Engine;
use crate::result::BatchResult;
use crate::sharded::ShardedBatchResult;
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::QueryGraph;
use gcsm_shard::{PartitionPolicy, Partitioning};

/// A registered query with one engine per shard.
struct Registered {
    query: QueryGraph,
    engines: Vec<Box<dyn Engine>>,
}

/// Pipeline over one dynamic graph and a grid of (query, shard) engines.
pub struct MultiPipeline {
    driver: BatchDriver,
    /// How matching work splits across shards; `None` for one shard.
    part: Option<Partitioning>,
    queries: Vec<Registered>,
}

/// Per-query outcome of one batch.
pub struct MultiBatchResult {
    /// Query name → result merged across shards, in registration order.
    pub per_query: Vec<(String, BatchResult)>,
    /// Each query's per-shard records, in registration then shard order.
    pub per_shard: Vec<Vec<BatchResult>>,
}

impl MultiBatchResult {
    /// Net `ΔM` summed over all queries (rarely meaningful; per-query
    /// results are the point).
    pub fn total_matches(&self) -> i64 {
        self.per_query.iter().map(|(_, r)| r.matches).sum()
    }

    /// Result for a named query.
    pub fn get(&self, name: &str) -> Option<&BatchResult> {
        self.per_query.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }
}

impl MultiPipeline {
    /// Pipeline over an initial snapshot; every query runs on one engine.
    pub fn new(initial: CsrGraph) -> Self {
        Self { driver: BatchDriver::new(&initial), part: None, queries: Vec::new() }
    }

    /// Pipeline over an initial snapshot whose vertices are partitioned
    /// under `policy` into `shards` (at least 1) shards; register queries with
    /// [`Self::register_sharded`].
    pub fn partitioned(initial: CsrGraph, policy: PartitionPolicy, shards: usize) -> Self {
        let part = Partitioning::compute(&initial, policy, shards);
        Self { driver: BatchDriver::new(&initial), part: Some(part), queries: Vec::new() }
    }

    /// Enable/disable overlapped reorganization (see
    /// [`crate::Pipeline::set_overlap`]).
    pub fn set_overlap(&mut self, on: bool) {
        self.driver.set_overlap(on);
    }

    /// Whether overlapped reorganization is enabled.
    pub fn overlap(&self) -> bool {
        self.driver.overlap()
    }

    /// Join an in-flight overlapped reorganization and return its unhidden
    /// modeled seconds (see [`crate::Pipeline::flush`]).
    pub fn flush(&mut self) -> f64 {
        self.driver.flush()
    }

    /// Register a query with its own engine (one-shard pipelines). Returns
    /// `self` for chaining.
    pub fn register(self, query: QueryGraph, engine: Box<dyn Engine>) -> Self {
        self.register_sharded(query, vec![engine])
    }

    /// Register a query with one engine per shard. Panics unless
    /// `engines.len()` equals [`Self::num_shards`].
    pub fn register_sharded(mut self, query: QueryGraph, engines: Vec<Box<dyn Engine>>) -> Self {
        assert_eq!(engines.len(), self.num_shards(), "register one engine per shard");
        self.queries.push(Registered { query, engines });
        self
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of shards every query's matching splits across.
    pub fn num_shards(&self) -> usize {
        self.part.as_ref().map_or(1, Partitioning::num_shards)
    }

    /// The vertex partitioning, for pipelines built by [`Self::partitioned`].
    pub(crate) fn partitioning(&self) -> Option<&Partitioning> {
        self.part.as_ref()
    }

    /// The registered queries, in registration order.
    pub(crate) fn queries(&self) -> impl Iterator<Item = &QueryGraph> {
        self.queries.iter().map(|r| &r.query)
    }

    /// The current graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.driver.graph()
    }

    /// Every registered query's from-scratch count on the current graph,
    /// in registration order (see [`crate::Pipeline::static_count`]).
    pub fn static_counts(&self, symmetry_break: bool) -> Vec<i64> {
        self.queries().map(|q| self.driver.static_count(q, symmetry_break)).collect()
    }

    /// Process one batch for every registered query: one update, one
    /// reorganisation, `Q × S` matching invocations.
    pub fn process_batch(&mut self, updates: &[EdgeUpdate]) -> MultiBatchResult {
        let rows = self.process_rows(updates);
        let (per_query, per_shard) = self
            .queries
            .iter()
            .zip(rows)
            .map(|(reg, r)| ((reg.query.name().to_string(), r.merged), r.per_shard))
            .unzip();
        MultiBatchResult { per_query, per_shard }
    }

    /// One batch through the driver: one merged record per query.
    pub(crate) fn process_rows(&mut self, updates: &[EdgeUpdate]) -> Vec<ShardedBatchResult> {
        let mut rows: Vec<Row<'_>> = self
            .queries
            .iter_mut()
            .map(|r| Row {
                query: &r.query,
                shards: r.engines.iter_mut().map(|e| e.as_mut() as &mut dyn Engine).collect(),
            })
            .collect();
        self.driver.drive_batch(updates, &mut rows, self.part.as_ref(), |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engines::{CpuWcojEngine, GcsmEngine, ZeroCopyEngine};
    use crate::pipeline::Pipeline;
    use gcsm_pattern::queries;

    fn setup() -> (CsrGraph, Vec<EdgeUpdate>) {
        let g0 = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]);
        let batch =
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::insert(3, 5), EdgeUpdate::delete(0, 1)];
        (g0, batch)
    }

    #[test]
    fn multi_matches_individual_pipelines() {
        let (g0, batch) = setup();
        let cfg = EngineConfig::default();
        let mut multi = MultiPipeline::new(g0.clone())
            .register(queries::triangle(), Box::new(GcsmEngine::new(cfg.clone())))
            .register(queries::fig1_kite(), Box::new(ZeroCopyEngine::new(cfg.clone())))
            .register(queries::q1(), Box::new(CpuWcojEngine::new(cfg.clone())));
        assert_eq!(multi.num_queries(), 3);
        let res = multi.process_batch(&batch);

        for q in [queries::triangle(), queries::fig1_kite(), queries::q1()] {
            let mut single = Pipeline::new(g0.clone(), q.clone());
            let mut e = ZeroCopyEngine::new(cfg.clone());
            let expect = single.process_batch(&mut e, &batch).matches;
            assert_eq!(
                res.get(q.name()).expect("registered").matches,
                expect,
                "{} diverges",
                q.name()
            );
        }
        assert!(multi.graph().updated_vertices().is_empty(), "reorganized once");
    }

    #[test]
    fn streaming_multiple_batches() {
        let (g0, batch) = setup();
        let cfg = EngineConfig::default();
        let mut multi = MultiPipeline::new(g0)
            .register(queries::triangle(), Box::new(GcsmEngine::new(cfg.clone())));
        let r1 = multi.process_batch(&batch);
        let r2 = multi.process_batch(&[EdgeUpdate::insert(0, 1)]);
        // Batch 2 restores triangle {0,1,2}.
        assert_eq!(r2.per_query[0].1.matches, 6);
        assert!(r1.total_matches() != 0 || r2.total_matches() != 0);
    }

    #[test]
    fn overlapped_multi_matches_serial() {
        let (g0, batch) = setup();
        let cfg = EngineConfig::default();
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            batch,
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 5)],
            vec![EdgeUpdate::delete(2, 4), EdgeUpdate::insert(0, 6)],
        ];
        let build = |overlap: bool| {
            let mut m = MultiPipeline::new(g0.clone())
                .register(queries::triangle(), Box::new(GcsmEngine::new(cfg.clone())))
                .register(queries::q1(), Box::new(ZeroCopyEngine::new(cfg.clone())));
            m.set_overlap(overlap);
            m
        };
        let mut serial = build(false);
        let mut overlapped = build(true);
        for b in &batches {
            let rs = serial.process_batch(b);
            let ro = overlapped.process_batch(b);
            for ((n1, r1), (n2, r2)) in rs.per_query.iter().zip(ro.per_query.iter()) {
                assert_eq!(n1, n2);
                assert_eq!(r1.matches, r2.matches, "{n1} diverged under overlap");
            }
        }
        overlapped.flush();
        assert!(overlapped.graph().updated_vertices().is_empty());
        let a = serial.graph().to_csr().edges().collect::<Vec<_>>();
        let b = overlapped.graph().to_csr().edges().collect::<Vec<_>>();
        assert_eq!(a, b, "final graphs must agree");
    }

    #[test]
    fn delta_cache_config_flows_through_registered_engines() {
        let (g0, batch) = setup();
        let cached = EngineConfig { delta_cache: true, ..Default::default() };
        let plain = EngineConfig::default();
        let mut with_cache = MultiPipeline::new(g0.clone())
            .register(queries::triangle(), Box::new(GcsmEngine::new(cached)));
        let mut without =
            MultiPipeline::new(g0).register(queries::triangle(), Box::new(GcsmEngine::new(plain)));
        let batches = [batch, vec![EdgeUpdate::insert(0, 4), EdgeUpdate::insert(1, 6)]];
        let mut dma_cached = 0u64;
        let mut dma_plain = 0u64;
        for b in &batches {
            let rc = with_cache.process_batch(b);
            let rp = without.process_batch(b);
            assert_eq!(
                rc.per_query[0].1.matches, rp.per_query[0].1.matches,
                "delta shipping must not change counts"
            );
            dma_cached += rc.per_query[0].1.traffic.dma_bytes;
            dma_plain += rp.per_query[0].1.traffic.dma_bytes;
        }
        // After warm-up, delta shipping can only reduce DMA volume.
        assert!(dma_cached <= dma_plain, "delta {dma_cached} vs full {dma_plain}");
    }

    #[test]
    fn empty_registration_is_fine() {
        let (g0, batch) = setup();
        let mut multi = MultiPipeline::new(g0);
        let r = multi.process_batch(&batch);
        assert!(r.per_query.is_empty());
        assert_eq!(r.total_matches(), 0);
    }
}
