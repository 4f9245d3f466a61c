//! The traced run's engine: `GcsmEngine::match_sealed` (delta-cache mode)
//! rebuilt from the layers' public functions, so the benchmark can time
//! each layer itself.
//!
//! The order is the engine's: `compile_incremental` → `estimate_merged`
//! (freq) → `select_top_frequency` + `DeltaPlanner::update_bounded` + DMA
//! (cache) → `run_gpu_kernel_with_plans` over `CachedSource` (matcher).
//! The phases are charged with the engine's formulas, so the returned
//! [`BatchResult`] must equal the engine's bit for bit; [`same_result`]
//! checks that against the untraced run.

use crate::trace::{SpanId, Tracer};
use gcsm::kernel::run_gpu_kernel_with_plans;
use gcsm::sources::CachedSource;
use gcsm::{BatchResult, EngineConfig, PhaseBreakdown};
use gcsm_cache::{Dcsr, DeltaPlanner};
use gcsm_freq::{estimate_merged, recommended_walks, select_top_frequency, WalkParams};
use gcsm_gpusim::{Device, SimBreakdown, TrafficSnapshot};
use gcsm_graph::{DynamicGraph, EdgeUpdate};
use gcsm_matcher::DynSource;
use gcsm_pattern::{compile_incremental, QueryGraph};
use std::time::Instant;

/// Layer counters of one composed batch that a `BatchResult` does not carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub walk_ops: u64,
    pub saved_bytes: u64,
    pub resident_bytes: u64,
    pub grid_imbalance: f64,
}

/// GCSM with delta caching, one call per layer.
pub struct ComposedGcsm {
    cfg: EngineConfig,
    device: Device,
    planner: DeltaPlanner,
}

impl ComposedGcsm {
    /// `cfg` must have `delta_cache` on and adaptive walks / optimized
    /// ordering off (the configuration every workload runs).
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(cfg.delta_cache && !cfg.adaptive_walks && !cfg.optimized_order);
        let device = Device::new(cfg.gpu);
        Self { cfg, device, planner: DeltaPlanner::new() }
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn match_sealed(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
        query: &QueryGraph,
        tr: &mut Tracer,
        b: u64,
        parent: Option<SpanId>,
    ) -> (BatchResult, LayerCounts) {
        let cfg = &self.cfg;
        let overall = self.device.snapshot();
        let wall = Instant::now();
        let mut phases = PhaseBreakdown::default();
        let sim = |t: &TrafficSnapshot| SimBreakdown::from_traffic(t, &cfg.gpu).total();

        // ---- freq: plans + merged random walks ----
        let (plans, est) = tr.time("freq", b, parent, || {
            let plans = compile_incremental(query, cfg.plan);
            let d = graph.max_degree_bound();
            let walks = cfg
                .walks_override
                .unwrap_or_else(|| recommended_walks(query.num_vertices(), batch.len(), d));
            let params = WalkParams { walks, seed: cfg.walk_seed };
            let est = estimate_merged(&DynSource::new(graph), &plans, batch, d, &params);
            (plans, est)
        });
        phases.freq_est = est.walk_ops as f64 * cfg.gpu.walk_op_cost;

        // ---- cache: select, delta-plan against the resident rows, DMA ----
        let device = &self.device;
        let planner = &mut self.planner;
        let (dcsr, shipped, saved) = tr.time("cache", b, parent, || {
            let budget = cfg.gpu.cache_budget();
            let selection = select_top_frequency(&est, budget, |v| graph.list_bytes(v));
            let updated = gcsm_cache::updated_set(batch);
            let (dcsr, plan) = planner.update_bounded(graph, &selection.vertices, &updated, budget);
            let meta = dcsr.bytes() - dcsr.colidx.len() * std::mem::size_of::<u32>();
            let shipped = plan.transfer_bytes(graph) + meta;
            let n = selection.vertices.len();
            let full = selection.vertices.iter().map(|&v| graph.list_bytes(v)).sum::<usize>()
                + n * Dcsr::ROW_META_BYTES
                + std::mem::size_of::<(i64, i64)>();
            let saved = full.saturating_sub(shipped);
            device.dma_delta(shipped, saved);
            (dcsr, shipped, saved)
        });
        let after_dc = device.snapshot();
        phases.data_copy = sim(&(after_dc - overall)) + shipped as f64 / cfg.gpu.cpu_mem_bandwidth;

        // ---- matcher: the incremental kernel over the cached source ----
        let run = tr.time("matcher", b, parent, || {
            let src = CachedSource { graph, device, dcsr: &dcsr };
            run_gpu_kernel_with_plans(device, &src, &plans, batch, cfg)
        });
        phases.matching = sim(&(device.snapshot() - after_dc)) * run.imbalance;

        let traffic = device.snapshot() - overall;
        let result = BatchResult {
            engine: "GCSM".to_string(),
            matches: run.stats.matches,
            phases,
            cpu_access_bytes: traffic.cpu_access_bytes(cfg.gpu.um_page),
            cache_hit_rate: traffic.cache_hit_rate(),
            traffic,
            sim: SimBreakdown::from_traffic(&traffic, &cfg.gpu),
            wall_seconds: wall.elapsed().as_secs_f64(),
            cached_bytes: dcsr.bytes(),
            stats: run.stats,
            aux_bytes: 0,
            stream: None,
        };
        let counts = LayerCounts {
            walk_ops: est.walk_ops,
            saved_bytes: saved as u64,
            resident_bytes: dcsr.bytes() as u64,
            grid_imbalance: run.imbalance,
        };
        (result, counts)
    }
}

/// Exact equality of everything deterministic in two batch results: ΔM,
/// matcher stats, the traffic snapshot, cached bytes and every modeled
/// phase (compared bit for bit). Wall time is excluded.
pub fn same_result(what: &str, traced: &BatchResult, untraced: &BatchResult) -> Result<(), String> {
    let p = |r: &BatchResult| {
        let ph = r.phases;
        [ph.update, ph.freq_est, ph.data_copy, ph.matching, ph.reorganize].map(f64::to_bits)
    };
    let checks = [
        ("ΔM", traced.matches == untraced.matches),
        ("matcher stats", traced.stats == untraced.stats),
        ("traffic", traced.traffic == untraced.traffic),
        ("cached bytes", traced.cached_bytes == untraced.cached_bytes),
        ("phases", p(traced) == p(untraced)),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        None => Ok(()),
        Some((field, _)) => Err(format!(
            "{what}: traced run diverged from the untraced run in {field} \
             (traced ΔM {} / {:?} / {:?}, untraced ΔM {} / {:?} / {:?})",
            traced.matches,
            traced.stats,
            traced.phases,
            untraced.matches,
            untraced.stats,
            untraced.phases
        )),
    }
}
