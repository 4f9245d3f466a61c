//! Sharded-execution equivalence: the acceptance anchor for the
//! multi-device subsystem. Splitting a stream across N shards changes
//! *where* each update's matching runs and *what* crosses the simulated
//! peer links — it must not change a single count. Every test here pits
//! `ShardedPipeline` against the single-device `Pipeline` on the same
//! stream and demands batch-for-batch ΔM equality plus final-graph
//! agreement, across shard counts, partition policies, and workloads.

use gcsm::{shard_config, EngineConfig, Pipeline, ShardedPipeline};
use gcsm_bench::{make_engine, EngineKind};
use gcsm_datagen::{er::gnm, rmat, StreamConfig, UpdateStream};
use gcsm_graph::{CsrGraph, EdgeUpdate, UpdateOp};
use gcsm_pattern::{queries, QueryGraph};
use gcsm_shard::PartitionPolicy;
use proptest::prelude::*;

const POLICIES: [PartitionPolicy; 3] =
    [PartitionPolicy::HashSrc, PartitionPolicy::Range, PartitionPolicy::DegreeBalanced];

/// Per-batch ΔM from the single-device pipeline.
fn baseline(
    kind: EngineKind,
    initial: &CsrGraph,
    q: &QueryGraph,
    batches: &[&[EdgeUpdate]],
) -> Vec<i64> {
    let budget = initial.adjacency_bytes().max(1 << 16);
    let mut engine = make_engine(kind, EngineConfig::with_cache_budget(budget));
    let mut p = Pipeline::new(initial.clone(), q.clone());
    batches.iter().map(|b| p.process_batch(engine.as_mut(), b).matches).collect()
}

/// Per-batch ΔM from the sharded pipeline, plus its final static recount.
fn sharded(
    kind: EngineKind,
    initial: &CsrGraph,
    q: &QueryGraph,
    batches: &[&[EdgeUpdate]],
    policy: PartitionPolicy,
    shards: usize,
) -> (Vec<i64>, i64) {
    let budget = initial.adjacency_bytes().max(1 << 16);
    let cfg = shard_config(&EngineConfig::with_cache_budget(budget), shards);
    let engines = (0..shards).map(|_| make_engine(kind, cfg.clone())).collect();
    let mut p = ShardedPipeline::new(initial.clone(), q.clone(), policy, engines);
    let deltas = batches.iter().map(|b| p.process_batch(b).merged.matches).collect();
    (deltas, p.static_count(false))
}

/// Fixed-seed acceptance over the paper's update-stream recipe: ER and
/// skewed RMAT, shards ∈ {1, 2, 4}, all three partition policies.
#[test]
fn sharded_matches_single_device_on_er_and_rmat() {
    let workloads: [(&str, CsrGraph); 2] =
        [("er", gnm(512, 4096, 11)), ("rmat", rmat::generate(&rmat::RmatConfig::new(9, 12, 5)))];
    for (name, base) in workloads {
        let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.3), 23);
        let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(160).collect();
        let q = queries::triangle();
        let reference = baseline(EngineKind::Gcsm, &stream.initial, &q, &batches);
        let total: i64 = reference.iter().sum();
        let initial_static = Pipeline::new(stream.initial.clone(), q.clone()).static_count(false);
        for shards in [1usize, 2, 4] {
            for policy in POLICIES {
                let (deltas, recount) =
                    sharded(EngineKind::Gcsm, &stream.initial, &q, &batches, policy, shards);
                assert_eq!(
                    deltas,
                    reference,
                    "{name}: ΔM sequence diverges at {shards} shards / {}",
                    policy.name()
                );
                // The running ledger must agree with a from-scratch recount
                // of the final sealed graph.
                assert_eq!(
                    initial_static + total,
                    recount,
                    "{name}: ledger drifted from recount at {shards} shards / {}",
                    policy.name()
                );
            }
        }
    }
}

/// Deeper query + a second engine family: the routing layer sits above
/// the engines, so equivalence must hold regardless of how a shard reads
/// the graph.
#[test]
fn sharded_matches_single_device_zerocopy_kite() {
    let base = rmat::generate(&rmat::RmatConfig::new(8, 10, 3));
    let stream = UpdateStream::generate(&base, StreamConfig::Count(600), 17);
    let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(120).collect();
    let q = queries::fig1_kite();
    let reference = baseline(EngineKind::ZeroCopy, &stream.initial, &q, &batches);
    for shards in [2usize, 4] {
        let (deltas, _) = sharded(
            EngineKind::ZeroCopy,
            &stream.initial,
            &q,
            &batches,
            PartitionPolicy::HashSrc,
            shards,
        );
        assert_eq!(deltas, reference, "kite ΔM diverges at {shards} shards");
    }
}

/// One generated case: initial-graph seed, raw update requests (endpoint
/// pair + insert flag), batch size, shard count, policy selector.
type Case = (u64, Vec<(u8, u8, bool)>, usize, usize, u8);

fn case() -> impl Strategy<Value = Case> {
    (
        0u64..500,
        proptest::collection::vec((0u8..48, 0u8..48, any::<bool>()), 10..120),
        4usize..33,
        2usize..6,
        0u8..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary streams (duplicates, no-op deletes, self-loop-free),
    /// arbitrary shard counts and policies: per-batch ΔM is always the
    /// single-device sequence, and peer traffic is exactly the routed
    /// cut-update bill.
    #[test]
    fn sharded_delta_m_equals_single_device((seed, reqs, batch, shards, psel) in case()) {
        let initial = gnm(48, 160, seed);
        let updates: Vec<EdgeUpdate> = reqs
            .iter()
            .filter(|&&(a, b, _)| a != b)
            .map(|&(a, b, ins)| EdgeUpdate {
                src: a as u32,
                dst: b as u32,
                op: if ins { UpdateOp::Insert } else { UpdateOp::Delete },
            })
            .collect();
        prop_assume!(!updates.is_empty());
        let batches: Vec<&[EdgeUpdate]> = updates.chunks(batch).collect();
        let q = queries::triangle();
        let policy = POLICIES[psel as usize];
        let reference = baseline(EngineKind::Gcsm, &initial, &q, &batches);

        let cfg = shard_config(&EngineConfig::with_cache_budget(1 << 20), shards);
        let engines = (0..shards).map(|_| make_engine(EngineKind::Gcsm, cfg.clone())).collect();
        let mut p = ShardedPipeline::new(initial.clone(), q.clone(), policy, engines);
        // A mirror graph replays the same ingest so the test can see the
        // coalesced `applied` set the router actually consumed.
        let mut mirror = gcsm_graph::DynamicGraph::from_csr(&initial);
        for (i, b) in batches.iter().enumerate() {
            let r = p.process_batch(b);
            prop_assert_eq!(r.merged.matches, reference[i]);
            mirror.begin_batch();
            for &u in *b {
                mirror.apply(u);
            }
            let routed = gcsm_shard::route(&mirror.seal_batch().applied, p.partitioning());
            mirror.reorganize();
            // Peer bytes follow the router's cut accounting exactly.
            prop_assert_eq!(r.peer_bytes, routed.peer_bytes());
            prop_assert_eq!(r.cut_updates, routed.cut_updates);
        }
    }
}

/// Overlapped reorganize on a sharded pipeline: the deferred Step 5 hides
/// behind the next batch's ingest, so per-batch ΔM, routing and the final
/// graph equal the serial sharded run, and the modeled reorganize total
/// never grows.
#[test]
fn overlapped_sharded_matches_serial_sharded() {
    let base = rmat::generate(&rmat::RmatConfig::new(9, 10, 7));
    let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.3), 31);
    let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(128).collect();
    let q = queries::triangle();
    let cfg = shard_config(&EngineConfig::with_cache_budget(stream.initial.adjacency_bytes()), 2);
    let build = |overlap: bool| {
        let engines = (0..2).map(|_| make_engine(EngineKind::Gcsm, cfg.clone())).collect();
        let mut p = ShardedPipeline::new(
            stream.initial.clone(),
            q.clone(),
            PartitionPolicy::HashSrc,
            engines,
        );
        p.set_overlap(overlap);
        p
    };
    let (mut serial, mut overlapped) = (build(false), build(true));
    let (mut serial_reorg, mut overlap_reorg) = (0.0, 0.0);
    for b in &batches {
        let rs = serial.process_batch(b);
        let ro = overlapped.process_batch(b);
        assert_eq!(ro.merged.matches, rs.merged.matches, "ΔM diverges under overlap");
        assert_eq!((ro.peer_bytes, ro.cut_updates), (rs.peer_bytes, rs.cut_updates));
        serial_reorg += rs.merged.phases.reorganize;
        overlap_reorg += ro.merged.phases.reorganize;
    }
    overlap_reorg += overlapped.flush();
    assert!(overlapped.graph().updated_vertices().is_empty());
    let a: Vec<_> = serial.graph().to_csr().edges().collect();
    let b: Vec<_> = overlapped.graph().to_csr().edges().collect();
    assert_eq!(a, b, "final graphs must agree");
    assert_eq!(overlapped.static_count(false), serial.static_count(false));
    assert!(overlap_reorg <= serial_reorg + 1e-12, "{overlap_reorg} > {serial_reorg}");
}
