//! The streaming subsystem's hard requirement: replaying the same
//! sequenced update stream — any number of producers, any engine, ticks
//! included — produces exactly the batch boundaries and ΔM sequence of
//! the single-threaded serial reference ([`gcsm::stream::replay_serial`]).

use gcsm::stream::{
    replay_serial, Backpressure, SealPolicy, SequenceMode, StreamConfig, StreamEvent,
};
use gcsm::Pipeline;
use gcsm_bench::{make_engine, EngineKind, RunConfig, Workload};
use gcsm_datagen::Preset;
use gcsm_graph::EdgeUpdate;
use gcsm_pattern::{queries, QueryGraph};

/// A sequenced event stream: the workload's updates with a logical tick
/// every `tick_every` events (ticks consume sequence numbers too, so
/// tick-based seals replay exactly).
fn sequenced_events(tick_every: usize) -> (Workload, Vec<(u64, StreamEvent)>) {
    let rc = RunConfig { scale: 0.0625, ..Default::default() };
    let w = Workload::build(Preset::Amazon, rc.scale, 64, 4);
    let updates: Vec<EdgeUpdate> = w.batches.iter().flat_map(|b| b.iter().copied()).collect();
    let mut events = Vec::new();
    for (i, u) in updates.into_iter().enumerate() {
        events.push((events.len() as u64, StreamEvent::Update(u)));
        if (i + 1) % tick_every == 0 {
            events.push((events.len() as u64, StreamEvent::Tick));
        }
    }
    (w, events)
}

/// One serial-reference batch: the coalesced updates plus the ΔM a fresh
/// pipeline+engine produces for them.
fn serial_reference(
    w: &Workload,
    q: &QueryGraph,
    kind: EngineKind,
    events: &[(u64, StreamEvent)],
    policy: SealPolicy,
) -> Vec<(Vec<EdgeUpdate>, i64, u64, u64)> {
    let rc = RunConfig { scale: 0.0625, ..Default::default() };
    let mut pipeline = Pipeline::new(w.initial.clone(), q.clone());
    let mut engine = make_engine(kind, rc.engine_config(w));
    replay_serial(events, policy, |sealed| {
        let r = pipeline.process_batch(engine.as_mut(), &sealed.updates);
        (sealed.updates.clone(), r.matches, sealed.meta.first_seq, sealed.meta.last_seq)
    })
}

/// Run the concurrent session with `producers` threads striping the
/// sequenced events, and return the same shape as [`serial_reference`].
fn concurrent_run(
    w: &Workload,
    q: &QueryGraph,
    kind: EngineKind,
    events: &[(u64, StreamEvent)],
    policy: SealPolicy,
    producers: usize,
) -> Vec<(Vec<EdgeUpdate>, i64, u64, u64)> {
    let rc = RunConfig { scale: 0.0625, ..Default::default() };
    let pipeline = Pipeline::new(w.initial.clone(), q.clone());
    let base = pipeline.static_count(false);
    let session = gcsm::stream::spawn_pipeline(
        pipeline,
        make_engine(kind, rc.engine_config(w)),
        base,
        StreamConfig {
            seal_policy: policy,
            capacity: 256,
            backpressure: Backpressure::Block,
            mode: SequenceMode::Explicit,
        },
    );
    std::thread::scope(|s| {
        for p in 0..producers {
            let producer = session.producer();
            s.spawn(move || {
                let mut i = p;
                while i < events.len() {
                    let (seq, ev) = events[i];
                    match ev {
                        StreamEvent::Update(u) => producer.ingest_at(seq, u),
                        StreamEvent::Tick => producer.tick_at(seq),
                    };
                    i += producers;
                }
            });
        }
    });
    let (report, _) = session.finish();
    report
        .batches
        .into_iter()
        .map(|b| {
            let m = b.result.stream.expect("session batches carry stream meta");
            (b.updates, b.result.matches, m.first_seq, m.last_seq)
        })
        .collect()
}

/// The acceptance grid: N ∈ {1, 3, 5} producers × 2 engines × 2 seal
/// policies, all byte-identical to the serial reference — same number of
/// batches, same update sequence, same ΔM, same sequence spans.
#[test]
fn producer_count_never_changes_batches() {
    let (w, events) = sequenced_events(96);
    let q = queries::triangle();
    for kind in [EngineKind::ZeroCopy, EngineKind::Gcsm] {
        for policy in [SealPolicy::Size(48), SealPolicy::SizeOrTick(64)] {
            let reference = serial_reference(&w, &q, kind, &events, policy);
            assert!(reference.len() > 1, "degenerate reference for {policy:?}");
            for producers in [1usize, 3, 5] {
                let got = concurrent_run(&w, &q, kind, &events, policy, producers);
                assert_eq!(
                    got,
                    reference,
                    "{} with {producers} producers diverged under {policy:?}",
                    kind.name(),
                );
            }
        }
    }
}

/// Tick-driven boundaries are part of the determinism contract: with
/// `OnTick` the batch spans are delimited exactly at the tick sequence
/// numbers regardless of producer count.
#[test]
fn tick_boundaries_replay_exactly() {
    let (w, events) = sequenced_events(40);
    let q = queries::q1();
    let reference = serial_reference(&w, &q, EngineKind::Cpu, &events, SealPolicy::OnTick);
    assert!(reference.len() > 2);
    let got = concurrent_run(&w, &q, EngineKind::Cpu, &events, SealPolicy::OnTick, 4);
    assert_eq!(got, reference);
}

/// Arrival mode is the documented *non*-deterministic convenience mode;
/// it must still keep the ledger consistent even though boundaries may
/// differ between runs.
#[test]
fn arrival_mode_keeps_ledger_consistent() {
    let rc = RunConfig { scale: 0.0625, ..Default::default() };
    let w = Workload::build(Preset::Amazon, rc.scale, 64, 2);
    let updates: Vec<EdgeUpdate> = w.batches.iter().flat_map(|b| b.iter().copied()).collect();
    let pipeline = Pipeline::new(w.initial.clone(), queries::triangle());
    let base = pipeline.static_count(false);
    let session = gcsm::stream::spawn_pipeline(
        pipeline,
        make_engine(EngineKind::ZeroCopy, rc.engine_config(&w)),
        base,
        StreamConfig {
            seal_policy: SealPolicy::Size(32),
            mode: SequenceMode::Arrival,
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for p in 0..3 {
            let producer = session.producer();
            let updates = &updates;
            s.spawn(move || {
                let mut i = p;
                while i < updates.len() {
                    producer.ingest(updates[i]);
                    i += 3;
                }
            });
        }
    });
    let (report, processor) = session.finish();
    let final_total = report.batches.last().map(|b| b.running_total).unwrap_or(base);
    assert_eq!(final_total, processor.into_pipeline().static_count(false));
}

/// `spawn_multi` over a 2-query × 2-shard grid with overlapped reorganize:
/// two producers striping an explicit sequence reproduce the serial
/// replay's batch boundaries and per-query ΔM, and every query's final
/// ledger equals a from-scratch recount of the session's graph.
#[test]
fn multi_query_sharded_session_equals_serial_replay() {
    let (w, events) = sequenced_events(80);
    let rc = RunConfig { scale: 0.0625, ..Default::default() };
    let cfg = gcsm::shard_config(&rc.engine_config(&w), 2);
    let grid = || {
        let mut m = gcsm::MultiPipeline::partitioned(
            w.initial.clone(),
            gcsm_shard::PartitionPolicy::HashSrc,
            2,
        );
        for q in [queries::triangle(), queries::q1()] {
            let engines = (0..2).map(|_| make_engine(EngineKind::Gcsm, cfg.clone())).collect();
            m = m.register_sharded(q, engines);
        }
        m.set_overlap(true);
        m
    };
    let policy = SealPolicy::SizeOrTick(56);
    let deltas = |per_query: &[(String, gcsm::BatchResult)]| -> Vec<i64> {
        per_query.iter().map(|(_, r)| r.matches).collect()
    };

    let mut serial = grid();
    let reference = replay_serial(&events, policy, |sealed| {
        let r = serial.process_batch(&sealed.updates);
        (sealed.updates.clone(), deltas(&r.per_query))
    });
    assert!(reference.len() > 2, "degenerate reference");

    let multi = grid();
    let bases = multi.static_counts(false);
    let session = gcsm::stream::spawn_multi(
        multi,
        bases,
        StreamConfig {
            seal_policy: policy,
            capacity: 256,
            backpressure: Backpressure::Block,
            mode: SequenceMode::Explicit,
        },
    );
    std::thread::scope(|s| {
        for p in 0..2 {
            let producer = session.producer();
            let events = &events;
            s.spawn(move || {
                for &(seq, ev) in events.iter().skip(p).step_by(2) {
                    match ev {
                        StreamEvent::Update(u) => producer.ingest_at(seq, u),
                        StreamEvent::Tick => producer.tick_at(seq),
                    };
                }
            });
        }
    });
    let (report, processor) = session.finish();
    let got: Vec<(Vec<EdgeUpdate>, Vec<i64>)> =
        report.batches.iter().map(|b| (b.updates.clone(), deltas(&b.per_query))).collect();
    assert_eq!(got, reference, "session diverged from the serial replay");

    let recount = processor.into_multi().static_counts(false);
    let last = report.batches.last().expect("batches sealed");
    let ledgers: Vec<i64> = last.running_totals.iter().map(|(_, t)| *t).collect();
    assert_eq!(ledgers, recount, "ledger drifted from the recount");
}
