//! `serve_window`: an open loop into a standing-query stream session.
//!
//! One generator thread sends a locality-correlated 50/50 insert/delete
//! stream into an explicit-sequence `StreamSession` over a `MultiPipeline`
//! (standing queries triangle, Q1, Q2, Q6; overlapped reorganize and delta
//! caching on; `SealPolicy::Size`). Two segments, each from a fresh `G_0`:
//!
//! * **saturating** — the generator pushes as fast as
//!   `Backpressure::Block` allows; gives `throughput_ups`, the median
//!   delivery rate over runs of [`THROUGHPUT_CHUNK`] consecutive results,
//!   so that a short stall of the host does not decide the figure;
//! * **paced** — update `i` is due at `start + i / rate` on a fixed
//!   schedule (see [`crate::pacer`]); each result is timed from the due
//!   time of its batch's last update (`StreamMeta::last_seq`) to its
//!   arrival at a subscriber, which covers queue wait and excludes window
//!   fill. The rate is about half of the saturating throughput, whose
//!   median over ten seeds measured 6.1–6.2 k updates/s on a 2-vCPU
//!   x86-64 host (`results/`).

use crate::composed::{same_result, ComposedGcsm};
use crate::ledger::{Ledger, Tamper};
use crate::pacer::{self, PaceReport, Schedule};
use crate::report::{Counters, E2e, Layers, Outcome};
use crate::stats::{self, mix, GRAPH_SEED};
use crate::trace::Tracer;
use crate::RunConfig;
use gcsm::stream::{BatchProcessor, SealedBatch};
use gcsm::{
    Backpressure, BatchResult, EngineConfig, GcsmEngine, MultiPipeline, SealPolicy, SealReason,
    SequenceMode, StreamConfig, StreamMeta, StreamSession,
};
use gcsm_datagen::social::{generate_social, SocialConfig};
use gcsm_datagen::temporal::{temporal_stream, TemporalConfig};
use gcsm_graph::{CsrGraph, DynamicGraph, EdgeUpdate, ReorgResult};
use gcsm_pattern::{queries, QueryGraph};
use std::time::{Duration, Instant};

/// Input shape and load.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// log2 of the vertex count.
    pub scale: u32,
    pub backbone_degree: usize,
    /// Focus-region size of the temporal stream.
    pub region: usize,
    /// Generated stream length (the saturating segment stops early when
    /// it runs out).
    pub updates: usize,
    /// Paced-segment rate, updates per second.
    pub rate: f64,
    /// Share of the run spent in the saturating segment.
    pub saturate_share: f64,
    /// `SealPolicy::Size` threshold.
    pub seal: usize,
    /// Ingest-queue capacity.
    pub capacity: usize,
}

impl Params {
    pub fn full() -> Self {
        Self {
            scale: 14,
            backbone_degree: 6,
            region: 512,
            updates: 80_000,
            rate: 3000.0,
            saturate_share: 0.35,
            seal: 256,
            capacity: 4096,
        }
    }

    pub fn tiny() -> Self {
        Self {
            scale: 10,
            backbone_degree: 4,
            region: 256,
            updates: 4000,
            rate: 1000.0,
            saturate_share: 0.3,
            seal: 64,
            capacity: 256,
        }
    }
}

pub struct Inputs {
    pub g0: CsrGraph,
    pub updates: Vec<EdgeUpdate>,
}

pub fn generate(p: Params, seed: u64) -> Inputs {
    let g0 = generate_social(&SocialConfig::new(p.scale, p.backbone_degree, GRAPH_SEED));
    let cfg = TemporalConfig {
        updates: p.updates,
        locality: 0.8,
        region: p.region,
        drift_every: 1024,
        seed: mix(seed, 2),
    };
    let updates = temporal_stream(&g0, &cfg);
    Inputs { g0, updates }
}

pub fn standing_queries() -> Vec<QueryGraph> {
    vec![queries::triangle(), queries::q1(), queries::q2(), queries::q6()]
}

fn engine_config() -> EngineConfig {
    EngineConfig { delta_cache: true, ..EngineConfig::default() }
}

/// `count(G)` for `q`, from scratch — the computation behind
/// `Pipeline::static_count`.
pub fn static_count(g: &CsrGraph, q: &QueryGraph) -> i64 {
    let opts = gcsm_matcher::DriverOptions { parallel: true, ..Default::default() };
    let edges: Vec<_> = g.edges().collect();
    gcsm_matcher::match_static(&gcsm_matcher::CsrSource::new(g), q, &edges, &opts).matches
}

/// What a subscriber receives per sealed batch.
#[derive(Clone, Debug)]
pub struct Served {
    pub meta: StreamMeta,
    /// Wall seconds of the batch's processing call.
    pub batch_s: f64,
    /// The surviving updates the batch applied.
    pub updates: Vec<EdgeUpdate>,
    /// One result per standing query, in registration order.
    pub results: Vec<BatchResult>,
}

/// Ledgers of the standing queries, fed in seal order.
struct Ledgers {
    ledgers: Vec<Ledger>,
    tamper: Tamper,
    batches: usize,
}

impl Ledgers {
    fn new(queries: &[QueryGraph], bases: Vec<i64>, tamper: Tamper) -> Self {
        let ledgers = queries.iter().zip(bases).map(|(q, b)| Ledger::new(q.name(), b)).collect();
        Self { ledgers, tamper, batches: 0 }
    }

    fn add(&mut self, results: &[BatchResult]) {
        for (l, r) in self.ledgers.iter_mut().zip(results) {
            l.add(self.tamper.apply(self.batches, r.matches));
        }
        self.batches += 1;
    }

    fn check(&self, final_graph: &CsrGraph, queries: &[QueryGraph]) -> Vec<String> {
        let counts = queries.iter().map(|q| static_count(final_graph, q));
        self.ledgers.iter().zip(counts).filter_map(|(l, c)| l.check(c).err()).collect()
    }
}

/// The untraced processor: `MultiPipeline::process_batch` per sealed
/// batch, timed, with one ledger per query (what `spawn_multi`'s
/// `MultiProcessor` does, plus the timing).
struct Untraced {
    multi: MultiPipeline,
    ledgers: Ledgers,
}

impl BatchProcessor for Untraced {
    type Out = Served;

    fn process(&mut self, sealed: &SealedBatch) -> Served {
        let t = Instant::now();
        let res = self.multi.process_batch(&sealed.updates);
        let batch_s = t.elapsed().as_secs_f64();
        let results: Vec<BatchResult> = res.per_query.into_iter().map(|(_, r)| r).collect();
        self.ledgers.add(&results);
        Served { meta: sealed.meta, batch_s, updates: sealed.updates.clone(), results }
    }
}

fn setup(g0: &CsrGraph, qs: &[QueryGraph], tamper: Tamper) -> Untraced {
    let mut multi = qs.iter().fold(MultiPipeline::new(g0.clone()), |m, q| {
        m.register(q.clone(), Box::new(GcsmEngine::new(engine_config())))
    });
    multi.set_overlap(true);
    let bases = qs.iter().map(|q| static_count(g0, q)).collect();
    Untraced { multi, ledgers: Ledgers::new(qs, bases, tamper) }
}

/// An in-flight overlapped reorganize of the traced composition.
struct Pending {
    handle: std::thread::JoinHandle<ReorgResult>,
    sim_s: f64,
}

/// `MultiPipeline::process_batch` (overlap mode) with each layer timed.
struct Traced {
    graph: DynamicGraph,
    engines: Vec<(QueryGraph, ComposedGcsm)>,
    pending: Option<Pending>,
    ledgers: Ledgers,
    tr: Tracer,
    layers: Layers,
}

impl Traced {
    fn flush(&mut self) -> f64 {
        match self.pending.take() {
            Some(p) => {
                self.graph.install_reorg(p.handle.join().expect("reorganize worker panicked"));
                p.sim_s
            }
            None => 0.0,
        }
    }
}

impl BatchProcessor for Traced {
    type Out = Served;

    fn process(&mut self, sealed: &SealedBatch) -> Served {
        let t = Instant::now();
        let b = sealed.meta.batch_index;
        let cpu_bw = engine_config().gpu.cpu_mem_bandwidth;
        let root = self.tr.open("batch", b, None);
        let staged = self.pending.is_some();
        let g = &mut self.graph;
        self.tr.time("graph.ingest", b, Some(root), || {
            if staged {
                g.begin_staged_batch();
            } else {
                g.begin_batch();
            }
            for &u in &sealed.updates {
                g.apply(u);
            }
        });
        let join = self.tr.open("graph.join", b, Some(root));
        let carried = self.flush();
        self.tr.close(join);
        let g = &mut self.graph;
        let summary = self.tr.time("graph.seal", b, Some(root), || g.seal_batch());
        let bytes: usize = g.updated_vertices().iter().map(|&v| g.list_bytes(v)).sum();
        let update_sim = bytes as f64 / cpu_bw;
        let exposed = (carried - update_sim).max(0.0);

        let mut results = Vec::with_capacity(self.engines.len());
        for (q, engine) in &mut self.engines {
            let span = self.tr.open("query", b, Some(root));
            let (mut r, c) =
                engine.match_sealed(g, &summary.applied, q, &mut self.tr, b, Some(span));
            self.tr.close(span);
            if results.is_empty() {
                r.phases.update += update_sim;
            }
            self.layers.add_engine(&r, &c);
            self.layers.add_query_wall(q.name(), r.wall_seconds);
            results.push(r);
        }

        let reorg_sim = 2.0 * bytes as f64 / cpu_bw;
        let reorg = self.tr.open("graph.reorg", b, Some(root));
        let task = g.take_reorg_task();
        let deferred = if task.is_trivial() {
            g.install_reorg(task.compute());
            false
        } else {
            let handle = std::thread::spawn(move || task.compute());
            self.pending = Some(Pending { handle, sim_s: reorg_sim });
            true
        };
        self.tr.close(reorg);
        if let Some(first) = results.first_mut() {
            first.phases.reorganize += exposed + if deferred { 0.0 } else { reorg_sim };
        }
        self.tr.close(root);

        let mut merged = gcsm::PhaseBreakdown::default();
        for r in &results {
            merged.update += r.phases.update;
            merged.freq_est += r.phases.freq_est;
            merged.data_copy += r.phases.data_copy;
            merged.matching += r.phases.matching;
            merged.reorganize += r.phases.reorganize;
        }
        self.layers.add_phases(&merged);
        self.layers.batches += 1;
        self.layers.skipped_updates += summary.skipped as u64;
        self.layers.graph_bytes = self.layers.graph_bytes.max(g.allocated_bytes() as u64);
        self.ledgers.add(&results);
        Served {
            meta: sealed.meta,
            batch_s: t.elapsed().as_secs_f64(),
            updates: sealed.updates.clone(),
            results,
        }
    }
}

/// Generator wake-up granularity of the paced segment (see [`crate::pacer`]).
pub const PACER_TICK: Duration = Duration::from_millis(5);

/// Results per throughput sample in the saturating segment.
pub const THROUGHPUT_CHUNK: usize = 16;

/// Median over consecutive runs of `chunk` results of the updates delivered
/// per second: sequence numbers advanced over arrival time elapsed.
fn delivery_rate(received: &[(Served, Instant)], chunk: usize) -> f64 {
    let rates: Vec<f64> = received
        .windows(chunk + 1)
        .step_by(chunk)
        .map(|w| {
            let (first, last) = (&w[0], &w[chunk]);
            let updates = last.0.meta.last_seq.saturating_sub(first.0.meta.last_seq) as f64;
            updates / last.1.duration_since(first.1).as_secs_f64().max(1e-9)
        })
        .collect();
    stats::median(&rates)
}

/// How the generator sends.
#[derive(Clone, Copy, Debug)]
enum Load {
    /// As fast as the queue admits, for this long.
    Saturate(Duration),
    /// `count` updates on a fixed-rate schedule.
    Paced { rate: f64, count: u64 },
}

/// One finished session.
struct Session<P> {
    processor: P,
    /// Results in arrival order, with their arrival instants.
    received: Vec<(Served, Instant)>,
    schedule: Schedule,
    pace: PaceReport,
    /// Start of sending → every result delivered.
    elapsed_s: f64,
    offered: u64,
    processed: u64,
}

fn run_session<P: BatchProcessor<Out = Served> + 'static>(
    processor: P,
    updates: &[EdgeUpdate],
    p: Params,
    load: Load,
) -> Session<P> {
    let config = StreamConfig {
        seal_policy: SealPolicy::Size(p.seal),
        capacity: p.capacity,
        backpressure: Backpressure::Block,
        mode: SequenceMode::Explicit,
    };
    let session = StreamSession::spawn(processor, config);
    let rx = session.subscribe();
    let producer = session.producer();
    let start = Instant::now();
    let schedule = match load {
        Load::Paced { rate, .. } => Schedule::new(start, rate),
        Load::Saturate(_) => Schedule::new(start, 1.0),
    };
    let (pace, received, report, processor) = std::thread::scope(|s| {
        let subscriber = s.spawn(move || {
            let mut got = Vec::new();
            while let Ok(out) = rx.recv() {
                got.push((out, Instant::now()));
            }
            got
        });
        let generator = s.spawn(move || match load {
            Load::Paced { count, .. } => {
                let count = count.min(updates.len() as u64);
                pacer::run(schedule, count, PACER_TICK, |i| {
                    producer.ingest_at(i, updates[i as usize])
                })
            }
            Load::Saturate(d) => {
                let mut rep = PaceReport::default();
                for (i, &u) in updates.iter().enumerate() {
                    if start.elapsed() >= d {
                        break;
                    }
                    if producer.ingest_at(i as u64, u) {
                        rep.sent += 1;
                    } else {
                        rep.refused += 1;
                    }
                }
                rep
            }
        });
        let pace = generator.join().expect("generator panicked");
        let (report, processor) = session.finish();
        let received = subscriber.join().expect("subscriber panicked");
        (pace, received, report, processor)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    Session {
        processor,
        received,
        schedule,
        offered: pace.sent + pace.refused,
        processed: report.updates_received,
        pace,
        elapsed_s,
    }
}

fn fold_counters(c: &mut Counters, received: &[(Served, Instant)], walk_op_cost: f64) {
    for (s, _) in received {
        for r in &s.results {
            c.add_result(r, walk_op_cost);
        }
        let matches = s.results.iter().map(|r| r.matches).sum();
        c.end_batch(matches, s.results.iter().map(|r| r.phases.total()).sum::<f64>() * 1e3);
    }
}

/// Result latencies (seconds) of size-sealed batches: arrival minus the
/// due time of the batch's last update.
fn latencies(sess: &Session<impl Sized>) -> Vec<(f64, f64)> {
    sess.received
        .iter()
        .filter(|(s, _)| s.meta.seal_reason != SealReason::Flush)
        .map(|(s, at)| {
            let due = sess.schedule.due(s.meta.last_seq);
            (at.saturating_duration_since(due).as_secs_f64(), s.batch_s)
        })
        .collect()
}

pub fn run(rc: &RunConfig, p: Params) -> Outcome {
    let inputs = generate(p, rc.seed);
    let qs = standing_queries();
    let mut out = Outcome {
        workload: "serve_window",
        digest: stats::input_digest(&inputs.g0, &inputs.updates),
        ..Default::default()
    };
    let cost = engine_config().gpu.walk_op_cost;
    let paced_s = rc.seconds * (1.0 - p.saturate_share);
    let paced = Load::Paced { rate: p.rate, count: (p.rate * paced_s).round().max(1.0) as u64 };

    if rc.trace {
        let bases = qs.iter().map(|q| static_count(&inputs.g0, q)).collect();
        let traced = Traced {
            graph: DynamicGraph::from_csr(&inputs.g0),
            engines: qs.iter().map(|q| (q.clone(), ComposedGcsm::new(engine_config()))).collect(),
            pending: None,
            ledgers: Ledgers::new(&qs, bases, rc.tamper),
            tr: Tracer::new(),
            layers: Layers::default(),
        };
        let sess = run_session(traced, &inputs.updates, p, paced);
        let lat = latencies(&sess);
        out.attempted += sess.offered;
        out.failed += sess.offered - sess.processed;
        fold_counters(&mut out.counters, &sess.received, cost);
        let Session { processor: mut traced, received, pace, .. } = sess;
        traced.flush();
        out.errors.extend(traced.ledgers.check(&traced.graph.to_csr(), &qs));
        let mut layers = std::mem::take(&mut traced.layers);
        let tr = std::mem::take(&mut traced.tr);

        // The untraced reference replays the same sealed batches.
        let mut reference = setup(&inputs.g0, &qs, Tamper::default());
        for (s, _) in &received {
            let t = Instant::now();
            let res = reference.multi.process_batch(&s.updates);
            layers.reference_s += t.elapsed().as_secs_f64();
            layers.traced_s += s.batch_s;
            let what = |name: &str| format!("batch {} {name}", s.meta.batch_index);
            let mut pairs = res.per_query.iter().zip(&s.results);
            if let Some(e) =
                pairs.find_map(|((n, want), got)| same_result(&what(n), got, want).err())
            {
                out.errors.push(e);
                break;
            }
        }
        reference.multi.flush();

        layers.stream_block_s = pace.sink_s;
        layers.stream_gen_lag_s = pace.max_lag_s;
        for (s, _) in &received {
            layers.stream_queue_depth_max =
                layers.stream_queue_depth_max.max(s.meta.queue_depth as u64);
            layers.stream_window_open_s += s.meta.window_open_seconds;
        }
        layers.stream_wait_s = lat.iter().map(|(l, b)| l - b).collect();
        layers.finish(&tr, &mut out);
        out.spans = Some(tr);
        out
    } else {
        let mut e2e = E2e::default();
        // Saturating segment: throughput.
        let t = Instant::now();
        let sys = setup(&inputs.g0, &qs, rc.tamper);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        let sat = Load::Saturate(Duration::from_secs_f64(rc.seconds * p.saturate_share));
        let sess = run_session(sys, &inputs.updates, p, sat);
        e2e.throughput_ups = if sess.received.len() > THROUGHPUT_CHUNK {
            delivery_rate(&sess.received, THROUGHPUT_CHUNK)
        } else {
            sess.processed as f64 / sess.elapsed_s
        };
        out.attempted += sess.offered;
        out.failed += sess.offered - sess.processed;
        let mut sys = sess.processor;
        sys.multi.flush();
        out.errors.extend(sys.ledgers.check(&sys.multi.graph().to_csr(), &qs));

        // Paced segment: latency, batch time, modeled time.
        let t = Instant::now();
        let sys = setup(&inputs.g0, &qs, rc.tamper);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        let sess = run_session(sys, &inputs.updates, p, paced);
        for (lat, _) in latencies(&sess) {
            e2e.result_ms.push(lat * 1e3);
        }
        e2e.batch_ms = sess.received.iter().map(|(s, _)| s.batch_s * 1e3).collect();
        fold_counters(&mut out.counters, &sess.received, cost);
        out.attempted += sess.offered;
        out.failed += sess.offered - sess.processed;
        out.notes.push(format!(
            "paced {} updates at {} /s: generator ran at most {:.3} ms late",
            sess.offered,
            p.rate,
            sess.pace.max_lag_s * 1e3
        ));
        let mut sys = sess.processor;
        sys.multi.flush();
        out.errors.extend(sys.ledgers.check(&sys.multi.graph().to_csr(), &qs));

        let t = Instant::now();
        drop(setup(&inputs.g0, &qs, rc.tamper));
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        e2e.finish(&mut out);
        out
    }
}
