//! `GcsmEngine` runs the Sec. IV-B walks inside the kernel's host pass and
//! charges the kernel's reads after the cache is chosen. Its `BatchResult`
//! must equal, bit for bit, the engine composed from the public layers in
//! the paper's order: `estimate_merged` → `select_top_frequency` (+
//! `DeltaPlanner`) → DMA → `run_gpu_kernel_with_plans` over `CachedSource`.
//! ΔM, matcher stats, the traffic snapshot, cached bytes and every modeled
//! phase are compared, with the delta cache off and on, adaptive walks,
//! optimized order, and in sharded and multi-query grids.

use gcsm::kernel::run_gpu_kernel_with_plans;
use gcsm::sources::CachedSource;
use gcsm::{
    BatchResult, Engine, EngineConfig, GcsmEngine, MultiPipeline, PhaseBreakdown, Pipeline,
    ShardedPipeline,
};
use gcsm_cache::{Dcsr, DeltaPlanner};
use gcsm_freq::{
    adaptive_walk_target, estimate_merged, recommended_walks, select_top_frequency, FreqEstimate,
    WalkParams,
};
use gcsm_gpusim::{Device, SimBreakdown, TrafficSnapshot};
use gcsm_graph::{CsrBuilder, CsrGraph, DynamicGraph, EdgeUpdate, VertexId};
use gcsm_matcher::DynSource;
use gcsm_pattern::{compile_incremental, compile_incremental_scored, queries, QueryGraph};
use gcsm_shard::PartitionPolicy;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// GCSM rebuilt from the layers' public functions, one pass each.
struct Composed {
    cfg: EngineConfig,
    device: Device,
    planner: DeltaPlanner,
    last_estimate: Option<FreqEstimate>,
}

impl Composed {
    fn new(cfg: EngineConfig) -> Self {
        let device = Device::new(cfg.gpu);
        Self { cfg, device, planner: DeltaPlanner::new(), last_estimate: None }
    }

    fn plans(&self, graph: &DynamicGraph, query: &QueryGraph) -> Vec<gcsm_pattern::MatchPlan> {
        if !self.cfg.optimized_order {
            return compile_incremental(query, self.cfg.plan);
        }
        let scores: Vec<f64> = (0..query.num_vertices())
            .map(|u| {
                let (lu, du) = (query.label(u), query.degree(u));
                (0..graph.num_vertices() as VertexId)
                    .filter(|&v| graph.label(v) == lu && graph.new_degree(v) >= du)
                    .count() as f64
            })
            .collect();
        (0..query.num_edges())
            .map(|i| compile_incremental_scored(query, i, self.cfg.plan, &scores))
            .collect()
    }
}

impl Engine for Composed {
    fn name(&self) -> &'static str {
        "GCSM"
    }

    fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn match_sealed(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
        query: &QueryGraph,
    ) -> BatchResult {
        let cfg = self.cfg.clone();
        let sim = |t: &TrafficSnapshot| SimBreakdown::from_traffic(t, &cfg.gpu).total();
        let overall = self.device.snapshot();
        let mut phases = PhaseBreakdown::default();

        let plans = self.plans(graph, query);
        let d = graph.max_degree_bound();
        let recommended = cfg
            .walks_override
            .unwrap_or_else(|| recommended_walks(query.num_vertices(), batch.len(), d));
        let host = DynSource::new(graph);
        let mut walks = if cfg.adaptive_walks { (recommended / 4).max(64) } else { recommended };
        let mut round = 0u64;
        let est = loop {
            let seed = cfg.walk_seed.wrapping_add(round);
            let est = estimate_merged(&host, &plans, batch, d, &WalkParams { walks, seed });
            round += 1;
            if !cfg.adaptive_walks || round >= EngineConfig::ADAPTIVE_MAX_ROUNDS as u64 {
                break est;
            }
            let Some(min_freq) = est.min_nonzero() else { break est };
            let need = match adaptive_walk_target(
                query.num_vertices(),
                EngineConfig::ADAPTIVE_ALPHA,
                batch.len().max(1),
                d,
                EngineConfig::ADAPTIVE_CONFIDENCE,
                min_freq,
                walks,
            ) {
                Ok(()) => break est,
                Err(need) => need.min(recommended * 4),
            };
            if need <= walks {
                break est;
            }
            phases.freq_est += est.walk_ops as f64 * cfg.gpu.walk_op_cost;
            walks = need;
        };
        phases.freq_est += est.walk_ops as f64 * cfg.gpu.walk_op_cost;

        let budget = cfg.gpu.cache_budget();
        let selection = select_top_frequency(&est, budget, |v| graph.list_bytes(v));
        let (dcsr, shipped) = if cfg.delta_cache {
            let updated = gcsm_cache::updated_set(batch);
            let (dcsr, plan) =
                self.planner.update_bounded(graph, &selection.vertices, &updated, budget);
            let meta = dcsr.bytes() - dcsr.colidx.len() * std::mem::size_of::<u32>();
            let shipped = plan.transfer_bytes(graph) + meta;
            let n = selection.vertices.len();
            let full = selection.vertices.iter().map(|&v| graph.list_bytes(v)).sum::<usize>()
                + n * Dcsr::ROW_META_BYTES
                + std::mem::size_of::<(i64, i64)>();
            self.device.dma_delta(shipped, full.saturating_sub(shipped));
            (dcsr, shipped)
        } else {
            let dcsr = Dcsr::pack(graph, &selection.vertices);
            self.device.dma(dcsr.bytes());
            let bytes = dcsr.bytes();
            (dcsr, bytes)
        };
        let after_dc = self.device.snapshot();
        phases.data_copy = sim(&(after_dc - overall)) + shipped as f64 / cfg.gpu.cpu_mem_bandwidth;

        let src = CachedSource { graph, device: &self.device, dcsr: &dcsr };
        let run = run_gpu_kernel_with_plans(&self.device, &src, &plans, batch, &cfg);
        phases.matching = sim(&(self.device.snapshot() - after_dc)) * run.imbalance;
        self.last_estimate = Some(est);

        let traffic = self.device.snapshot() - overall;
        BatchResult {
            engine: "GCSM".to_string(),
            matches: run.stats.matches,
            phases,
            cpu_access_bytes: traffic.cpu_access_bytes(cfg.gpu.um_page),
            cache_hit_rate: traffic.cache_hit_rate(),
            traffic,
            sim: SimBreakdown::from_traffic(&traffic, &cfg.gpu),
            wall_seconds: 0.0,
            cached_bytes: dcsr.bytes(),
            stats: run.stats,
            aux_bytes: 0,
            stream: None,
        }
    }
}

/// Everything deterministic in a batch result, phases as bits.
fn key(r: &BatchResult) -> impl PartialEq + std::fmt::Debug {
    let p = r.phases;
    let phases = [p.update, p.freq_est, p.data_copy, p.matching, p.reorganize].map(f64::to_bits);
    (r.matches, r.stats, r.traffic, r.cached_bytes, phases)
}

/// A skewed graph (early vertices become hubs) and a stream of mixed
/// batches over it.
fn workload(n: u32, seed: u64) -> (CsrGraph, Vec<Vec<EdgeUpdate>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = CsrBuilder::new(n as usize);
    for v in 1..n {
        for _ in 0..3 {
            b.add_edge(v, rng.gen_range(0..v));
        }
    }
    let g0 = b.build();
    let edges: Vec<(u32, u32)> = g0.edges().collect();
    let batches = (0..4)
        .map(|i| {
            let mut batch: Vec<EdgeUpdate> = (0..30)
                .map(|_| {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    EdgeUpdate::insert(a, b)
                })
                .collect();
            batch.extend(edges.iter().skip(i).step_by(41).map(|&(a, b)| EdgeUpdate::delete(a, b)));
            batch
        })
        .collect();
    (g0, batches)
}

fn configs() -> Vec<(&'static str, EngineConfig)> {
    // A small budget so the selection, not the graph size, bounds the cache.
    let base = EngineConfig::with_cache_budget(24 << 10);
    vec![
        ("default", base.clone()),
        ("delta", EngineConfig { delta_cache: true, ..base.clone() }),
        ("adaptive", EngineConfig { adaptive_walks: true, ..base.clone() }),
        ("optimized", EngineConfig { optimized_order: true, delta_cache: true, ..base.clone() }),
        ("serial", EngineConfig { parallel_kernel: false, ..base }),
    ]
}

#[test]
fn engine_equals_the_composed_layers() {
    let (g0, batches) = workload(300, 7);
    for q in [queries::triangle(), queries::q1(), queries::q4()] {
        for (name, cfg) in configs() {
            let mut engine = GcsmEngine::new(cfg.clone());
            let mut composed = Composed::new(cfg);
            let (mut pe, mut pc) =
                (Pipeline::new(g0.clone(), q.clone()), Pipeline::new(g0.clone(), q.clone()));
            for (i, batch) in batches.iter().enumerate() {
                let got = pe.process_batch(&mut engine, batch);
                let want = pc.process_batch(&mut composed, batch);
                let ctx = format!("{} {name} batch {i}", q.name());
                assert_eq!(key(&got), key(&want), "{ctx}");
                assert!(want.traffic.cache_hits > 0, "{ctx}: nothing cached");
                let bits = |e: Option<&FreqEstimate>| {
                    e.map(|e| (e.freq.iter().map(|f| f.to_bits()).collect::<Vec<_>>(), e.walk_ops))
                };
                assert_eq!(
                    bits(engine.last_estimate()),
                    bits(composed.last_estimate.as_ref()),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn sharded_and_multi_query_grids_equal_the_composed_layers() {
    let (g0, batches) = workload(260, 11);
    let cfg = EngineConfig { delta_cache: true, ..EngineConfig::with_cache_budget(16 << 10) };
    let shard_cfg = gcsm::shard_config(&cfg, 2);
    let engines = |composed: bool| -> Vec<Box<dyn Engine>> {
        (0..2)
            .map(|_| -> Box<dyn Engine> {
                if composed {
                    Box::new(Composed::new(shard_cfg.clone()))
                } else {
                    Box::new(GcsmEngine::new(shard_cfg.clone()))
                }
            })
            .collect()
    };
    let mut sharded: Vec<ShardedPipeline> = [false, true]
        .map(|c| {
            ShardedPipeline::new(g0.clone(), queries::q1(), PartitionPolicy::HashSrc, engines(c))
        })
        .into();
    let grid = |composed: bool| {
        let mut p = MultiPipeline::new(g0.clone());
        for q in [queries::triangle(), queries::q2(), queries::q4()] {
            let e: Box<dyn Engine> = if composed {
                Box::new(Composed::new(cfg.clone()))
            } else {
                Box::new(GcsmEngine::new(cfg.clone()))
            };
            p = p.register(q, e);
        }
        p
    };
    let mut multi = [grid(false), grid(true)];
    for (i, batch) in batches.iter().enumerate() {
        let [got, want] = [0, 1].map(|k| sharded[k].process_batch(batch));
        assert_eq!(key(&got.merged), key(&want.merged), "sharded batch {i}");
        for (s, (g, w)) in got.per_shard.iter().zip(&want.per_shard).enumerate() {
            assert_eq!(key(g), key(w), "sharded batch {i} shard {s}");
        }
        let [got, want] = [0, 1].map(|k| multi[k].process_batch(batch));
        for ((name, g), (_, w)) in got.per_query.iter().zip(&want.per_query) {
            assert_eq!(key(g), key(w), "multi batch {i} {name}");
        }
    }
}

/// The adaptive loop's extra rounds seed `walk_seed + round`, wrapping: a
/// seed at `u64::MAX` must not overflow when a second round runs.
#[test]
fn adaptive_rounds_wrap_the_walk_seed() {
    let (g0, batches) = workload(300, 3);
    let cfg = EngineConfig { adaptive_walks: true, walk_seed: u64::MAX, ..EngineConfig::default() };
    let mut engine = GcsmEngine::new(cfg.clone());
    let mut composed = Composed::new(cfg);
    let (mut pe, mut pc) =
        (Pipeline::new(g0.clone(), queries::q1()), Pipeline::new(g0, queries::q1()));
    let mut resampled = false;
    for batch in &batches {
        let got = pe.process_batch(&mut engine, batch);
        let want = pc.process_batch(&mut composed, batch);
        assert_eq!(key(&got), key(&want));
        // A discarded round adds its walk ops to the final round's.
        let last = engine.last_estimate().map_or(0, |e| e.walk_ops);
        resampled |= got.phases.freq_est > last as f64 * engine.config().gpu.walk_op_cost;
    }
    assert!(resampled, "no batch ran a second adaptive round");
}
