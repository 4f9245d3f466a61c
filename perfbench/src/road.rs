//! `road_sharded`: a closed loop over a flat-degree road lattice, split
//! across two hash-partitioned shards.
//!
//! A 20 % uniform stream in bulk batches, Q1, `GcsmEngine` with delta
//! caching on each shard of a `ShardedPipeline`. Hubs are absent and the
//! graph is the largest of the three workloads, so frequency estimation,
//! cache building and graph maintenance take a large share of the wall
//! time: the opposite regime to `skew_q4`.

use crate::closed::{self, ClosedSystem, Step, TracedSystem};
use crate::composed::ComposedGcsm;
use crate::report::{Layers, Outcome};
use crate::stats::{self, mix, GRAPH_SEED};
use crate::trace::Tracer;
use crate::RunConfig;
use gcsm::{shard_config, BatchResult, Engine, EngineConfig, GcsmEngine, ShardedPipeline};
use gcsm_datagen::road::{self as roadgen, RoadConfig};
use gcsm_datagen::{StreamConfig, UpdateStream};
use gcsm_gpusim::{imbalance_factor, Device, SimBreakdown};
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::{queries, QueryGraph};
use gcsm_shard::{route, PartitionPolicy, Partitioning};
use std::time::Instant;

pub const SHARDS: usize = 2;

/// Input shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub vertices: usize,
    /// Share of the graph's edges turned into updates.
    pub fraction: f64,
    pub batch: usize,
}

impl Params {
    pub fn full() -> Self {
        Self { vertices: 1 << 18, fraction: 0.20, batch: 4096 }
    }

    pub fn tiny() -> Self {
        Self { vertices: 1 << 12, fraction: 0.20, batch: 256 }
    }
}

pub struct Inputs {
    pub g0: CsrGraph,
    pub updates: Vec<EdgeUpdate>,
}

pub fn generate(p: Params, seed: u64) -> Inputs {
    let g = roadgen::generate(&RoadConfig::with_vertices(p.vertices, GRAPH_SEED));
    let s = UpdateStream::generate(&g, StreamConfig::Fraction(p.fraction), mix(seed, 2));
    Inputs { g0: s.initial, updates: s.updates }
}

fn shard_engine_config() -> EngineConfig {
    shard_config(&EngineConfig { delta_cache: true, ..EngineConfig::default() }, SHARDS)
}

struct Untraced(ShardedPipeline);

impl ClosedSystem for Untraced {
    fn process(&mut self, batch: &[EdgeUpdate]) -> Step {
        let r = self.0.process_batch(batch);
        Step { merged: r.merged, parts: r.per_shard }
    }

    fn recount(&self) -> i64 {
        self.0.static_count(false)
    }
}

fn setup(g0: &CsrGraph, q: &QueryGraph) -> (Untraced, i64) {
    let engines: Vec<Box<dyn Engine>> = (0..SHARDS)
        .map(|_| Box::new(GcsmEngine::new(shard_engine_config())) as Box<dyn Engine>)
        .collect();
    let p = ShardedPipeline::new(g0.clone(), q.clone(), PartitionPolicy::HashSrc, engines);
    let base = p.static_count(false);
    (Untraced(p), base)
}

/// One shard of the traced composition: its engine plus its peer link.
struct Shard {
    engine: ComposedGcsm,
    link: Device,
}

/// `ShardedPipeline::process_batch` with each layer timed.
struct Traced {
    graph: DynamicGraph,
    query: QueryGraph,
    part: Partitioning,
    shards: Vec<Shard>,
}

impl TracedSystem for Traced {
    fn process(&mut self, batch: &[EdgeUpdate], tr: &mut Tracer, b: u64, l: &mut Layers) -> Step {
        let cfg = shard_engine_config();
        let cpu_bw = cfg.gpu.cpu_mem_bandwidth;
        let root = tr.open("batch", b, None);
        let g = &mut self.graph;
        tr.time("graph.ingest", b, Some(root), || {
            g.begin_batch();
            for &u in batch {
                g.apply(u);
            }
        });
        let summary = tr.time("graph.seal", b, Some(root), || g.seal_batch());
        let bytes: usize = g.updated_vertices().iter().map(|&v| g.list_bytes(v)).sum();
        let part = &self.part;
        let routed = tr.time("shard.route", b, Some(root), || route(&summary.applied, part));

        // Every shard matches its routed subset on its own thread.
        let (graph, query) = (&*g, &self.query);
        let forks: Vec<Tracer> = (0..self.shards.len()).map(|i| tr.fork(i)).collect();
        let per_shard: Vec<(BatchResult, crate::composed::LayerCounts, f64, Tracer)> =
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(forks)
                    .enumerate()
                    .map(|(i, (shard, mut ft))| {
                        let assigned = routed.per_shard_match[i].as_slice();
                        let peer_in = routed.peer_bytes_to[i];
                        s.spawn(move || {
                            let t = Instant::now();
                            let span = ft.open("shard", b, Some(root));
                            let (mut r, c) = shard.engine.match_sealed(
                                graph,
                                assigned,
                                query,
                                &mut ft,
                                b,
                                Some(span),
                            );
                            if peer_in > 0 {
                                let before = shard.link.snapshot();
                                shard.link.peer_copy(peer_in as usize);
                                let interval = shard.link.snapshot() - before;
                                let peer =
                                    SimBreakdown::from_traffic(&interval, shard.link.config());
                                r.phases.data_copy += peer.peer;
                                r.sim = r.sim + peer;
                                r.traffic = r.traffic + interval;
                            }
                            ft.close(span);
                            (r, c, t.elapsed().as_secs_f64(), ft)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
            });

        let mut merged = BatchResult::default();
        let mut parts = Vec::with_capacity(per_shard.len());
        let mut walls = Vec::with_capacity(per_shard.len());
        for (r, c, wall, ft) in per_shard {
            tr.absorb(ft);
            l.add_engine(&r, &c);
            merged.matches += r.matches;
            merged.stats.merge(r.stats);
            merged.traffic = merged.traffic + r.traffic;
            merged.cached_bytes += r.cached_bytes;
            merged.phases.freq_est = merged.phases.freq_est.max(r.phases.freq_est);
            merged.phases.data_copy = merged.phases.data_copy.max(r.phases.data_copy);
            merged.phases.matching = merged.phases.matching.max(r.phases.matching);
            walls.push(wall);
            parts.push(r);
        }
        l.model_imbalance_sum += model_imbalance(&summary.applied, &parts, &self.part, &cfg);
        tr.time("graph.reorg", b, Some(root), || g.reorganize());
        tr.close(root);
        merged.phases.update += bytes as f64 / cpu_bw;
        merged.phases.reorganize += 2.0 * bytes as f64 / cpu_bw;

        let mean_wall = stats::mean(&walls);
        l.wall_imbalance_sum += walls.iter().copied().fold(0.0, f64::max) / mean_wall.max(1e-12);
        l.cut_updates += routed.cut_updates as u64;
        l.routed_updates += summary.applied.len() as u64;
        l.peer_bytes += routed.peer_bytes();
        l.skipped_updates += summary.skipped as u64;
        l.graph_bytes = l.graph_bytes.max(g.allocated_bytes() as u64);
        Step { merged, parts }
    }
}

/// The load-balance model of `ShardedPipeline`: each shard's engine
/// seconds spread over its updates, re-scheduled across the shards.
fn model_imbalance(
    applied: &[EdgeUpdate],
    per_shard: &[BatchResult],
    part: &Partitioning,
    cfg: &EngineConfig,
) -> f64 {
    let mut counts = vec![0usize; per_shard.len()];
    for u in applied {
        counts[part.counting_shard(u)] += 1;
    }
    let per_update_ns: Vec<u64> = per_shard
        .iter()
        .zip(&counts)
        .map(|(r, &c)| {
            let s = r.phases.freq_est + r.phases.data_copy + r.phases.matching;
            if c == 0 {
                0
            } else {
                (s * 1e9 / c as f64) as u64
            }
        })
        .collect();
    let costs: Vec<u64> = applied.iter().map(|u| per_update_ns[part.counting_shard(u)]).collect();
    imbalance_factor(&costs, per_shard.len(), cfg.scheduling)
}

pub fn run(rc: &RunConfig, p: Params) -> Outcome {
    let inputs = generate(p, rc.seed);
    let q = queries::q1();
    let batches: Vec<Vec<EdgeUpdate>> = inputs.updates.chunks(p.batch).map(<[_]>::to_vec).collect();
    let mut out = Outcome {
        workload: "road_sharded",
        digest: stats::input_digest(&inputs.g0, &inputs.updates),
        ..Default::default()
    };
    let cost = shard_engine_config().gpu.walk_op_cost;
    if rc.trace {
        let mut layers = Layers::default();
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(Partitioning::compute(
                &inputs.g0,
                PartitionPolicy::HashSrc,
                SHARDS,
            ));
            layers.partition_s.push(t.elapsed().as_secs_f64());
        }
        let traced = Traced {
            graph: DynamicGraph::from_csr(&inputs.g0),
            query: q.clone(),
            part: Partitioning::compute(&inputs.g0, PartitionPolicy::HashSrc, SHARDS),
            shards: (0..SHARDS)
                .map(|_| Shard {
                    engine: ComposedGcsm::new(shard_engine_config()),
                    link: Device::new(shard_engine_config().gpu),
                })
                .collect(),
        };
        let reference = setup(&inputs.g0, &q);
        let tr = closed::run_traced(
            rc,
            q.name(),
            &batches,
            cost,
            reference,
            traced,
            &mut layers,
            &mut out,
        );
        layers.finish(&tr, &mut out);
        out.spans = Some(tr);
    } else {
        closed::run_untraced(rc, q.name(), &batches, cost, || setup(&inputs.g0, &q), &mut out);
    }
    out
}
