//! `skew_q4`: a closed loop over a skewed social graph.
//!
//! The paper's 10 % uniform insert/delete stream over a clustered
//! power-law graph, matched against Q4 by `GcsmEngine` with delta caching
//! through a single-device `Pipeline`. The matcher kernel dominates the
//! wall time here, so a kernel change shows at full leverage, while a
//! frequency-estimation or cache change should leave it unmoved.

use crate::closed::{self, ClosedSystem, Step, TracedSystem};
use crate::composed::ComposedGcsm;
use crate::report::{Layers, Outcome};
use crate::stats::{self, mix, GRAPH_SEED};
use crate::trace::Tracer;
use crate::RunConfig;
use gcsm::{EngineConfig, GcsmEngine, Pipeline};
use gcsm_datagen::social::{generate_social, SocialConfig};
use gcsm_datagen::{StreamConfig, UpdateStream};
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use gcsm_pattern::{queries, QueryGraph};

/// Input shape.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// log2 of the vertex count.
    pub scale: u32,
    pub backbone_degree: usize,
    /// Share of the graph's edges turned into updates.
    pub fraction: f64,
    pub batch: usize,
}

impl Params {
    pub fn full() -> Self {
        Self { scale: 15, backbone_degree: 6, fraction: 0.10, batch: 1024 }
    }

    pub fn tiny() -> Self {
        Self { scale: 10, backbone_degree: 6, fraction: 0.10, batch: 128 }
    }
}

/// Generated inputs.
pub struct Inputs {
    pub g0: CsrGraph,
    pub updates: Vec<EdgeUpdate>,
}

pub fn generate(p: Params, seed: u64) -> Inputs {
    let g = generate_social(&SocialConfig::new(p.scale, p.backbone_degree, GRAPH_SEED));
    let s = UpdateStream::generate(&g, StreamConfig::Fraction(p.fraction), mix(seed, 2));
    Inputs { g0: s.initial, updates: s.updates }
}

pub fn engine_config() -> EngineConfig {
    EngineConfig { delta_cache: true, ..EngineConfig::default() }
}

struct Untraced {
    pipeline: Pipeline,
    engine: GcsmEngine,
}

impl ClosedSystem for Untraced {
    fn process(&mut self, batch: &[EdgeUpdate]) -> Step {
        let r = self.pipeline.process_batch(&mut self.engine, batch);
        Step { parts: vec![r.clone()], merged: r }
    }

    fn recount(&self) -> i64 {
        self.pipeline.static_count(false)
    }
}

fn setup(g0: &CsrGraph, q: &QueryGraph) -> (Untraced, i64) {
    let pipeline = Pipeline::new(g0.clone(), q.clone());
    let base = pipeline.static_count(false);
    (Untraced { pipeline, engine: GcsmEngine::new(engine_config()) }, base)
}

/// `Pipeline::process_batch` (serial reorganize) with each layer timed.
struct Traced {
    graph: DynamicGraph,
    query: QueryGraph,
    engine: ComposedGcsm,
}

impl TracedSystem for Traced {
    fn process(&mut self, batch: &[EdgeUpdate], tr: &mut Tracer, b: u64, l: &mut Layers) -> Step {
        let cpu_bw = self.engine.config().gpu.cpu_mem_bandwidth;
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
        let (mut r, c) =
            self.engine.match_sealed(g, &summary.applied, &self.query, tr, b, Some(root));
        tr.time("graph.reorg", b, Some(root), || g.reorganize());
        tr.close(root);
        r.phases.update += bytes as f64 / cpu_bw;
        r.phases.reorganize += 2.0 * bytes as f64 / cpu_bw;
        l.add_engine(&r, &c);
        l.skipped_updates += summary.skipped as u64;
        l.graph_bytes = l.graph_bytes.max(g.allocated_bytes() as u64);
        Step { parts: vec![r.clone()], merged: r }
    }
}

pub fn run(rc: &RunConfig, p: Params) -> Outcome {
    let inputs = generate(p, rc.seed);
    let q = queries::q4();
    let batches: Vec<Vec<EdgeUpdate>> = inputs.updates.chunks(p.batch).map(<[_]>::to_vec).collect();
    let mut out = Outcome {
        workload: "skew_q4",
        digest: stats::input_digest(&inputs.g0, &inputs.updates),
        ..Default::default()
    };
    let cost = engine_config().gpu.walk_op_cost;
    if rc.trace {
        let mut layers = Layers::default();
        let traced = Traced {
            graph: DynamicGraph::from_csr(&inputs.g0),
            query: q.clone(),
            engine: ComposedGcsm::new(engine_config()),
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
