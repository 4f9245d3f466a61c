//! Concurrent streaming sessions: bounded ingestion, a sequencing worker,
//! and pipeline-driving batch processors with a running-count ledger.
//!
//! Threading model: any number of [`StreamProducer`] clones feed one
//! bounded crossbeam channel; a single worker thread re-establishes the
//! sequence order (explicit mode) or assigns it (arrival mode), drives the
//! shared [`BatchBuilder`], and hands each sealed batch to the session's
//! [`BatchProcessor`]. The processor owns a pipeline — a `Pipeline` or a
//! `MultiPipeline` grid of queries × shards, both shells over the one
//! batch driver (DESIGN.md §15) — and is therefore free of locks. Results
//! fan out to subscribers and accumulate in the final [`SessionReport`].

use super::builder::{BatchBuilder, SealPolicy, SealedBatch, StreamEvent};
use crate::engines::Engine;
use crate::multi::MultiPipeline;
use crate::pipeline::Pipeline;
use crate::result::BatchResult;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use gcsm_graph::EdgeUpdate;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How sequence numbers are established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SequenceMode {
    /// Producers supply the total order via [`StreamProducer::ingest_at`];
    /// a reorder buffer releases events in `seq` order. Batch boundaries
    /// are then independent of thread interleaving — the determinism
    /// guarantee the tests rely on. Sequence numbers should be dense
    /// overall (producers striping disjoint ranges is the usual scheme);
    /// gaps stall release until session shutdown.
    Explicit,
    /// The worker assigns sequence numbers in arrival order
    /// ([`StreamProducer::ingest`]). Replayable via the recorded order,
    /// but boundaries are only reproducible up front with one producer.
    Arrival,
}

/// What `ingest` does when the bounded queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the producer until space frees up. Lossless; the default.
    Block,
    /// Drop the offered update and count it ([`SessionReport::dropped`]).
    /// Only allowed in [`SequenceMode::Arrival`] — dropping an explicit
    /// sequence number would leave a permanent hole in the total order.
    DropNewest,
}

/// Session configuration.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    pub seal_policy: SealPolicy,
    /// Capacity of the bounded ingest queue.
    pub capacity: usize,
    pub backpressure: Backpressure,
    pub mode: SequenceMode,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            seal_policy: SealPolicy::Size(1024),
            capacity: 4096,
            backpressure: Backpressure::Block,
            mode: SequenceMode::Arrival,
        }
    }
}

struct Envelope {
    /// `Some` in explicit mode, `None` in arrival mode.
    seq: Option<u64>,
    event: StreamEvent,
}

/// Consumes sealed batches; owns the pipeline state. `Out` is what
/// subscribers and the report receive per batch.
pub trait BatchProcessor: Send {
    type Out: Clone + Send + 'static;
    fn process(&mut self, sealed: &SealedBatch) -> Self::Out;
}

/// Per-batch output of a single-query session.
#[derive(Clone, Debug)]
pub struct StreamBatch {
    /// The surviving updates this batch applied, in sequence order.
    pub updates: Vec<EdgeUpdate>,
    /// Engine measurements; `result.stream` carries the ingestion metadata.
    pub result: BatchResult,
    /// Ledger after this batch: `base + Σ ΔM` over all batches so far.
    pub running_total: i64,
}

/// Drives a [`Pipeline`] + engine and maintains the running-count ledger
/// `count(G_k) = count(G_0) + Σ ΔM`.
pub struct PipelineProcessor {
    pipeline: Pipeline,
    engine: Box<dyn Engine>,
    ledger: i64,
}

impl PipelineProcessor {
    /// `base` is `count(G_0)` — pass `pipeline.static_count(..)` for a true
    /// ledger, or 0 to track `Σ ΔM` alone.
    pub fn new(pipeline: Pipeline, engine: Box<dyn Engine>, base: i64) -> Self {
        Self { pipeline, engine, ledger: base }
    }

    /// The pipeline back, e.g. to `static_count` after the session. Any
    /// overlapped reorganization still in flight is joined first so the
    /// returned graph state is settled.
    pub fn into_pipeline(mut self) -> Pipeline {
        self.pipeline.flush();
        self.pipeline
    }
}

impl BatchProcessor for PipelineProcessor {
    type Out = StreamBatch;

    fn process(&mut self, sealed: &SealedBatch) -> StreamBatch {
        let mut result = self.pipeline.process_batch(self.engine.as_mut(), &sealed.updates);
        result.stream = Some(sealed.meta);
        self.ledger += result.matches;
        StreamBatch { updates: sealed.updates.clone(), result, running_total: self.ledger }
    }
}

/// Per-batch output of a multi-query session.
#[derive(Clone, Debug)]
pub struct MultiStreamBatch {
    pub updates: Vec<EdgeUpdate>,
    /// Query name → result, in registration order; each `result.stream`
    /// carries the (shared) ingestion metadata.
    pub per_query: Vec<(String, BatchResult)>,
    /// Query name → ledger after this batch.
    pub running_totals: Vec<(String, i64)>,
}

/// Drives a [`MultiPipeline`] (any queries × shards grid) with one ledger
/// per registered query.
pub struct MultiProcessor {
    multi: MultiPipeline,
    ledgers: Vec<i64>,
}

impl MultiProcessor {
    /// `bases` must have one entry per registered query (or be empty to
    /// track `Σ ΔM` from zero).
    pub fn new(multi: MultiPipeline, bases: Vec<i64>) -> Self {
        assert!(
            bases.is_empty() || bases.len() == multi.num_queries(),
            "one ledger base per registered query"
        );
        let ledgers = if bases.is_empty() { vec![0; multi.num_queries()] } else { bases };
        Self { multi, ledgers }
    }

    /// The pipeline back, with any in-flight overlapped reorganization
    /// joined (see [`PipelineProcessor::into_pipeline`]).
    pub fn into_multi(mut self) -> MultiPipeline {
        self.multi.flush();
        self.multi
    }
}

impl BatchProcessor for MultiProcessor {
    type Out = MultiStreamBatch;

    fn process(&mut self, sealed: &SealedBatch) -> MultiStreamBatch {
        let mut res = self.multi.process_batch(&sealed.updates);
        let mut running_totals = Vec::with_capacity(res.per_query.len());
        for (i, (name, r)) in res.per_query.iter_mut().enumerate() {
            r.stream = Some(sealed.meta);
            self.ledgers[i] += r.matches;
            running_totals.push((name.clone(), self.ledgers[i]));
        }
        MultiStreamBatch {
            updates: sealed.updates.clone(),
            per_query: res.per_query,
            running_totals,
        }
    }
}

/// Final accounting for a finished session.
#[derive(Clone, Debug)]
pub struct SessionReport<Out> {
    /// Every sealed batch's output, in seal order.
    pub batches: Vec<Out>,
    /// Update events the worker received (before coalescing).
    pub updates_received: u64,
    /// Tick events the worker received.
    pub ticks_received: u64,
    /// Updates dropped at the producers under [`Backpressure::DropNewest`].
    pub dropped: u64,
}

/// Multi-producer handle. Cheap to clone; drop all clones (and call
/// [`StreamSession::finish`]) to end the session.
#[derive(Clone)]
pub struct StreamProducer {
    tx: Sender<Envelope>,
    depth: Arc<AtomicUsize>,
    dropped: Arc<AtomicU64>,
    blocked: Arc<AtomicUsize>,
    mode: SequenceMode,
    backpressure: Backpressure,
}

impl StreamProducer {
    fn push(&self, env: Envelope) -> bool {
        match self.backpressure {
            Backpressure::Block => {
                // Relaxed: depth is an advisory gauge read by monitors; the
                // channel itself orders the envelopes, so no acquire/release
                // pairing is needed on the counter.
                self.depth.fetch_add(1, Ordering::Relaxed);
                match self.tx.try_send(env) {
                    Ok(()) => true,
                    Err(TrySendError::Disconnected(_)) => {
                        // Relaxed: undo of the advisory gauge above.
                        self.depth.fetch_sub(1, Ordering::Relaxed);
                        false
                    }
                    Err(TrySendError::Full(env)) => {
                        // Queue full: this producer is about to stall on a
                        // blocking send. Count the stall (and mirror it into
                        // the obs gauge) so backpressure is observable.
                        // Relaxed: advisory gauge, same as depth above.
                        self.blocked.fetch_add(1, Ordering::Relaxed);
                        let obs_on = gcsm_obs::enabled();
                        if obs_on {
                            gcsm_obs::global().registry.gauge("stream.blocked_producers").inc();
                        }
                        let ok = self.tx.send(env).is_ok();
                        // Relaxed: undo of the advisory gauge above.
                        self.blocked.fetch_sub(1, Ordering::Relaxed);
                        if obs_on {
                            gcsm_obs::global().registry.gauge("stream.blocked_producers").dec();
                        }
                        if !ok {
                            // Relaxed: undo of the advisory depth gauge.
                            self.depth.fetch_sub(1, Ordering::Relaxed);
                        }
                        ok
                    }
                }
            }
            Backpressure::DropNewest => {
                // Relaxed: same advisory gauge as the Block arm.
                self.depth.fetch_add(1, Ordering::Relaxed);
                match self.tx.try_send(env) {
                    Ok(()) => true,
                    Err(e) => {
                        // Relaxed: undo of the advisory gauge above.
                        self.depth.fetch_sub(1, Ordering::Relaxed);
                        if matches!(e, TrySendError::Full(_)) {
                            // Relaxed: monotonic statistics counter; readers
                            // only need an eventually-consistent total.
                            self.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        false
                    }
                }
            }
        }
    }

    /// Arrival-mode ingestion; the worker assigns the sequence number.
    /// Returns `false` if the update was dropped (full queue under
    /// `DropNewest`) or the session is gone.
    pub fn ingest(&self, update: EdgeUpdate) -> bool {
        assert_eq!(
            self.mode,
            SequenceMode::Arrival,
            "session is in explicit-sequence mode; use ingest_at(seq, update)"
        );
        self.push(Envelope { seq: None, event: StreamEvent::Update(update) })
    }

    /// Explicit-mode ingestion at a caller-chosen position in the total
    /// order. Sequence numbers must be globally distinct.
    pub fn ingest_at(&self, seq: u64, update: EdgeUpdate) -> bool {
        assert_eq!(
            self.mode,
            SequenceMode::Explicit,
            "session is in arrival-sequence mode; use ingest(update)"
        );
        self.push(Envelope { seq: Some(seq), event: StreamEvent::Update(update) })
    }

    /// Arrival-mode logical tick.
    pub fn tick(&self) -> bool {
        assert_eq!(self.mode, SequenceMode::Arrival, "use tick_at(seq) in explicit mode");
        self.push(Envelope { seq: None, event: StreamEvent::Tick })
    }

    /// Explicit-mode logical tick occupying position `seq`.
    pub fn tick_at(&self, seq: u64) -> bool {
        assert_eq!(self.mode, SequenceMode::Explicit, "use tick() in arrival mode");
        self.push(Envelope { seq: Some(seq), event: StreamEvent::Tick })
    }
}

/// A live streaming session; see the module docs for the threading model.
pub struct StreamSession<P: BatchProcessor> {
    /// The handle every [`Self::producer`] clones; [`Self::finish`] drops it.
    proto: StreamProducer,
    worker: JoinHandle<(SessionReport<P::Out>, P)>,
    subscribers: Arc<Mutex<Vec<Sender<P::Out>>>>,
}

impl<P: BatchProcessor + 'static> StreamSession<P> {
    /// Start the worker thread. Panics on invalid configurations
    /// (`DropNewest` with explicit sequencing).
    pub fn spawn(processor: P, config: StreamConfig) -> Self {
        assert!(
            !(config.backpressure == Backpressure::DropNewest
                && config.mode == SequenceMode::Explicit),
            "DropNewest would leave holes in an explicit sequence; use Block"
        );
        let (tx, rx) = channel::bounded::<Envelope>(config.capacity.max(1));
        let proto = StreamProducer {
            tx,
            depth: Arc::new(AtomicUsize::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
            blocked: Arc::new(AtomicUsize::new(0)),
            mode: config.mode,
            backpressure: config.backpressure,
        };
        let subscribers: Arc<Mutex<Vec<Sender<P::Out>>>> = Arc::new(Mutex::new(Vec::new()));
        let worker = {
            let depth = Arc::clone(&proto.depth);
            let dropped = Arc::clone(&proto.dropped);
            let subscribers = Arc::clone(&subscribers);
            std::thread::spawn(move || {
                run_worker(processor, rx, config, depth, dropped, subscribers)
            })
        };
        Self { proto, worker, subscribers }
    }

    /// A new producer handle.
    pub fn producer(&self) -> StreamProducer {
        self.proto.clone()
    }

    /// Current ingest-queue depth (advisory point-in-time value).
    pub fn queue_depth(&self) -> usize {
        // Relaxed: advisory gauge; see the producer-side comments.
        self.proto.depth.load(Ordering::Relaxed)
    }

    /// Producers currently stalled on a full queue under
    /// [`Backpressure::Block`] (advisory point-in-time value).
    pub fn blocked_producers(&self) -> usize {
        // Relaxed: advisory gauge; see the producer-side comments.
        self.proto.blocked.load(Ordering::Relaxed)
    }

    /// Updates dropped so far under [`Backpressure::DropNewest`].
    pub fn dropped_updates(&self) -> u64 {
        // Relaxed: monotonic statistics counter; an eventually-consistent
        // total is all callers need mid-session.
        self.proto.dropped.load(Ordering::Relaxed)
    }

    /// Subscribe to per-batch outputs. Batches sealed before subscribing
    /// are not replayed (the final report contains all of them).
    pub fn subscribe(&self) -> Receiver<P::Out> {
        let (tx, rx) = channel::unbounded();
        self.subscribers.lock().push(tx);
        rx
    }

    /// Graceful shutdown: stop accepting new producers, wait for all
    /// outstanding producer handles to drop, drain in-flight events, seal
    /// the remaining window, and return the report plus the processor
    /// (with its pipeline state).
    pub fn finish(self) -> (SessionReport<P::Out>, P) {
        let StreamProducer { tx, dropped, .. } = self.proto;
        drop(tx);
        let (mut report, processor) = self.worker.join().expect("stream worker panicked");
        // Relaxed: all producers have dropped and the worker has joined, so
        // the thread join already synchronizes; this read sees the final
        // value regardless of ordering.
        report.dropped = dropped.load(Ordering::Relaxed);
        (report, processor)
    }
}

/// Single-query convenience wrapper around
/// [`StreamSession::spawn`]`(`[`PipelineProcessor`]`, ..)`.
pub fn spawn_pipeline(
    pipeline: Pipeline,
    engine: Box<dyn Engine>,
    ledger_base: i64,
    config: StreamConfig,
) -> StreamSession<PipelineProcessor> {
    StreamSession::spawn(PipelineProcessor::new(pipeline, engine, ledger_base), config)
}

/// Multi-query convenience wrapper around
/// [`StreamSession::spawn`]`(`[`MultiProcessor`]`, ..)`.
pub fn spawn_multi(
    multi: MultiPipeline,
    ledger_bases: Vec<i64>,
    config: StreamConfig,
) -> StreamSession<MultiProcessor> {
    StreamSession::spawn(MultiProcessor::new(multi, ledger_bases), config)
}

/// Fold one sealed batch's ingestion stats into the obs layer (no-op when
/// observability is disabled): `stream.*` gauges/counters plus a closed
/// `window` span spanning first-admission → seal on the worker's timeline.
fn record_sealed_obs(sealed: &SealedBatch, dropped: &AtomicU64) {
    let obs = gcsm_obs::global();
    if !obs.enabled() {
        return;
    }
    let open_us = (sealed.meta.window_open_seconds * 1e6) as u64;
    let now_us = gcsm_obs::monotonic_micros();
    obs.tracer.record_closed(
        "window",
        gcsm_obs::cat::STREAM,
        now_us.saturating_sub(open_us),
        open_us,
        gcsm_obs::SpanArgs {
            batch: Some(sealed.meta.batch_index),
            count: Some(sealed.meta.admitted as u64),
            ..Default::default()
        },
    );
    obs.registry.gauge("stream.queue_depth").set(sealed.meta.queue_depth as i64);
    obs.registry.counter("stream.batches_sealed").inc();
    obs.registry.counter("stream.updates_admitted").add(sealed.meta.admitted as u64);
    // Relaxed: monotonic statistics counter mirrored into a gauge; readers
    // only need an eventually-consistent total.
    obs.registry.gauge("stream.dropped_updates").set(dropped.load(Ordering::Relaxed) as i64);
}

fn run_worker<P: BatchProcessor>(
    mut processor: P,
    rx: Receiver<Envelope>,
    config: StreamConfig,
    depth: Arc<AtomicUsize>,
    dropped: Arc<AtomicU64>,
    subscribers: Arc<Mutex<Vec<Sender<P::Out>>>>,
) -> (SessionReport<P::Out>, P) {
    let mut builder = BatchBuilder::new(config.seal_policy);
    let mut report =
        SessionReport { batches: Vec::new(), updates_received: 0, ticks_received: 0, dropped: 0 };
    // Explicit mode: events parked here until their predecessors arrive.
    let mut reorder: BTreeMap<u64, StreamEvent> = BTreeMap::new();
    let mut next_seq: u64 = 0;

    let handle = |seq: u64,
                  event: StreamEvent,
                  builder: &mut BatchBuilder,
                  report: &mut SessionReport<P::Out>,
                  processor: &mut P| {
        let sealed = match event {
            StreamEvent::Update(u) => {
                report.updates_received += 1;
                builder.offer(seq, u)
            }
            StreamEvent::Tick => {
                report.ticks_received += 1;
                builder.tick(seq)
            }
        };
        if let Some(mut sealed) = sealed {
            // Relaxed: advisory point-in-time gauge recorded in batch
            // metadata; exactness is not part of the determinism contract.
            sealed.meta.queue_depth = depth.load(Ordering::Relaxed);
            record_sealed_obs(&sealed, &dropped);
            let out = processor.process(&sealed);
            subscribers.lock().retain(|tx| tx.send(out.clone()).is_ok());
            report.batches.push(out);
        }
    };

    while let Ok(env) = rx.recv() {
        // Relaxed: advisory gauge decrement; the channel recv ordered the
        // envelope itself.
        depth.fetch_sub(1, Ordering::Relaxed);
        match env.seq {
            Some(seq) => {
                debug_assert_eq!(config.mode, SequenceMode::Explicit);
                reorder.insert(seq, env.event);
                while let Some(event) = reorder.remove(&next_seq) {
                    handle(next_seq, event, &mut builder, &mut report, &mut processor);
                    next_seq += 1;
                }
            }
            None => {
                debug_assert_eq!(config.mode, SequenceMode::Arrival);
                handle(next_seq, env.event, &mut builder, &mut report, &mut processor);
                next_seq += 1;
            }
        }
    }
    // Disconnected: release anything still parked (sequence gaps are
    // tolerated at shutdown — order stays by seq), then flush the window.
    for (seq, event) in std::mem::take(&mut reorder) {
        handle(seq, event, &mut builder, &mut report, &mut processor);
    }
    if let Some(mut sealed) = builder.flush() {
        sealed.meta.queue_depth = 0;
        record_sealed_obs(&sealed, &dropped);
        let out = processor.process(&sealed);
        subscribers.lock().retain(|tx| tx.send(out.clone()).is_ok());
        report.batches.push(out);
    }
    (report, processor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engines::ZeroCopyEngine;
    use gcsm_graph::CsrGraph;
    use gcsm_pattern::queries;

    fn small_pipeline() -> Pipeline {
        let g0 = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        Pipeline::new(g0, queries::triangle())
    }

    fn engine() -> Box<dyn Engine> {
        Box::new(ZeroCopyEngine::new(EngineConfig::default()))
    }

    #[test]
    fn session_processes_and_ledger_tracks() {
        let pipeline = small_pipeline();
        let base = pipeline.static_count(false);
        let session = spawn_pipeline(
            pipeline,
            engine(),
            base,
            StreamConfig { seal_policy: SealPolicy::Size(2), ..Default::default() },
        );
        let rx = session.subscribe();
        let p = session.producer();
        assert!(p.ingest(EdgeUpdate::insert(2, 4)));
        assert!(p.ingest(EdgeUpdate::insert(0, 3)));
        assert!(p.ingest(EdgeUpdate::delete(0, 1)));
        drop(p);
        let (report, processor) = session.finish();
        assert_eq!(report.batches.len(), 2, "2-seal + 1-flush");
        assert_eq!(report.updates_received, 3);
        assert_eq!(report.dropped, 0);
        let last = report.batches.last().unwrap();
        assert_eq!(last.result.stream.unwrap().seal_reason, crate::result::SealReason::Flush);
        // Ledger invariant against a from-scratch recount.
        let final_count = processor.into_pipeline().static_count(false);
        assert_eq!(last.running_total, final_count);
        // Subscriber saw the same batches.
        let seen: Vec<_> = rx.try_iter().collect();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].running_total, final_count);
    }

    #[test]
    fn explicit_sequencing_reorders() {
        let session = spawn_pipeline(
            small_pipeline(),
            engine(),
            0,
            StreamConfig {
                seal_policy: SealPolicy::Size(2),
                mode: SequenceMode::Explicit,
                ..Default::default()
            },
        );
        let p = session.producer();
        // Send out of order; worker must release 0,1,2.
        assert!(p.ingest_at(2, EdgeUpdate::insert(0, 4)));
        assert!(p.ingest_at(0, EdgeUpdate::insert(2, 4)));
        assert!(p.ingest_at(1, EdgeUpdate::insert(1, 4)));
        drop(p);
        let (report, _) = session.finish();
        assert_eq!(report.batches.len(), 2);
        assert_eq!(
            report.batches[0].updates,
            vec![EdgeUpdate::insert(2, 4), EdgeUpdate::insert(1, 4)]
        );
        assert_eq!(report.batches[1].updates, vec![EdgeUpdate::insert(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "explicit-sequence mode")]
    fn mode_misuse_panics() {
        let session = spawn_pipeline(
            small_pipeline(),
            engine(),
            0,
            StreamConfig { mode: SequenceMode::Explicit, ..Default::default() },
        );
        let p = session.producer();
        let _ = p.ingest(EdgeUpdate::insert(0, 1));
    }

    #[test]
    #[should_panic(expected = "DropNewest")]
    fn drop_newest_with_explicit_rejected() {
        let _ = spawn_pipeline(
            small_pipeline(),
            engine(),
            0,
            StreamConfig {
                mode: SequenceMode::Explicit,
                backpressure: Backpressure::DropNewest,
                ..Default::default()
            },
        );
    }

    #[test]
    fn drop_newest_counts_losses() {
        // Capacity-1 queue, worker held back by nothing — racing is fine:
        // we only assert ingested + dropped == offered.
        let session = spawn_pipeline(
            small_pipeline(),
            engine(),
            0,
            StreamConfig {
                seal_policy: SealPolicy::Size(64),
                capacity: 1,
                backpressure: Backpressure::DropNewest,
                mode: SequenceMode::Arrival,
            },
        );
        let p = session.producer();
        let offered = 200u64;
        let mut accepted = 0u64;
        for i in 0..offered {
            if p.ingest(EdgeUpdate::insert(i as u32 % 5, 5 + (i as u32 % 3))) {
                accepted += 1;
            }
        }
        drop(p);
        let (report, _) = session.finish();
        assert_eq!(report.updates_received, accepted);
        assert_eq!(report.dropped, offered - accepted);
    }
}
