//! Grid differential suite: a `MultiPipeline` over Q queries × S hash
//! shards must report, per batch and per query, exactly the ΔM of Q
//! independent single-device `Pipeline`s, and each query row must equal
//! a 1 × S `ShardedPipeline` of that query alone — the shared ingest,
//! seal and reorganize only change *when* host work is charged, never a
//! count. Exercised with overlapped reorganize off and on.

use gcsm::{shard_config, Engine, EngineConfig, GcsmEngine, MultiPipeline, Pipeline};
use gcsm::{BatchResult, ShardedPipeline};
use gcsm_datagen::{er::gnm, StreamConfig, UpdateStream};
use gcsm_graph::{CsrGraph, EdgeUpdate};
use gcsm_pattern::{queries, QueryGraph};
use gcsm_shard::PartitionPolicy;

fn query_set(q: usize) -> Vec<QueryGraph> {
    vec![queries::triangle(), queries::fig1_kite(), queries::q1()].into_iter().take(q).collect()
}

fn engines(cfg: &EngineConfig, shards: usize) -> Vec<Box<dyn Engine>> {
    let per_shard = shard_config(cfg, shards);
    (0..shards).map(|_| Box::new(GcsmEngine::new(per_shard.clone())) as Box<dyn Engine>).collect()
}

/// Per-query per-batch ΔM from independent single-device pipelines, plus
/// the final graph's edges.
fn independent(
    initial: &CsrGraph,
    qs: &[QueryGraph],
    batches: &[&[EdgeUpdate]],
    cfg: &EngineConfig,
) -> (Vec<Vec<i64>>, Vec<(u32, u32)>) {
    let mut edges = Vec::new();
    let deltas = qs
        .iter()
        .map(|q| {
            let mut engine = GcsmEngine::new(cfg.clone());
            let mut p = Pipeline::new(initial.clone(), q.clone());
            let d = batches.iter().map(|b| p.process_batch(&mut engine, b).matches).collect();
            edges = p.graph().to_csr().edges().collect();
            d
        })
        .collect();
    (deltas, edges)
}

/// One grid run: every batch's per-query merged records, the summed
/// `reorganize` phase (including the drained in-flight remainder) and the
/// final graph's edges.
struct GridRun {
    per_batch: Vec<Vec<BatchResult>>,
    reorganize: f64,
    edges: Vec<(u32, u32)>,
}

fn grid(
    initial: &CsrGraph,
    qs: &[QueryGraph],
    batches: &[&[EdgeUpdate]],
    cfg: &EngineConfig,
    shards: usize,
    overlap: bool,
) -> GridRun {
    let mut mp = MultiPipeline::partitioned(initial.clone(), PartitionPolicy::HashSrc, shards);
    for q in qs {
        mp = mp.register_sharded(q.clone(), engines(cfg, shards));
    }
    assert_eq!((mp.num_queries(), mp.num_shards()), (qs.len(), shards));
    mp.set_overlap(overlap);
    let mut per_batch = Vec::new();
    for b in batches {
        let r = mp.process_batch(b);
        assert_eq!(r.per_shard.len(), qs.len());
        for ((_, merged), parts) in r.per_query.iter().zip(&r.per_shard) {
            assert_eq!(parts.len(), shards);
            assert_eq!(merged.matches, parts.iter().map(|p| p.matches).sum::<i64>());
        }
        per_batch.push(r.per_query.into_iter().map(|(_, r)| r).collect::<Vec<_>>());
    }
    let drained = mp.flush();
    let reorganize = per_batch.iter().flatten().map(|r| r.phases.reorganize).sum::<f64>() + drained;
    GridRun { per_batch, reorganize, edges: mp.graph().to_csr().edges().collect() }
}

fn check_grid(qn: usize, shards: usize) {
    let base = gnm(320, 2560, 5 + qn as u64);
    let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.25), 19);
    let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(112).collect();
    let cfg = EngineConfig::with_cache_budget(stream.initial.adjacency_bytes());
    let qs = query_set(qn);
    let (expect, serial_edges) = independent(&stream.initial, &qs, &batches, &cfg);

    let mut reorganize = Vec::new();
    for overlap in [false, true] {
        let run = grid(&stream.initial, &qs, &batches, &cfg, shards, overlap);
        for (qi, want) in expect.iter().enumerate() {
            let got: Vec<i64> = run.per_batch.iter().map(|rows| rows[qi].matches).collect();
            assert_eq!(
                &got,
                want,
                "{}×{shards} grid, query {}: ΔM diverges (overlap={overlap})",
                qn,
                qs[qi].name()
            );
        }
        // Host phases are charged once, to the first query row.
        for rows in &run.per_batch {
            assert!(rows[1..].iter().all(|r| r.phases.update == 0.0 && r.phases.reorganize == 0.0));
        }
        assert_eq!(run.edges, serial_edges, "{qn}×{shards} grid: final graph drifted");
        reorganize.push(run.reorganize);
    }
    let (serial, overlapped) = (reorganize[0], reorganize[1]);
    assert!(serial > 0.0);
    assert!(
        overlapped <= serial + 1e-12,
        "{qn}×{shards} grid: overlapped reorganize {overlapped} exceeds serial {serial}"
    );
}

#[test]
fn two_queries_on_two_shards_match_independent_pipelines() {
    check_grid(2, 2);
}

#[test]
fn three_queries_on_two_shards_match_independent_pipelines() {
    check_grid(3, 2);
}

/// A grid row is the 1 × S sharded pipeline of its query: same ΔM,
/// matcher stats, traffic and engine phases, batch for batch. Only the
/// host phases differ, and only on rows after the first.
#[test]
fn grid_rows_equal_standalone_sharded_pipelines() {
    let base = gnm(256, 2048, 3);
    let stream = UpdateStream::generate(&base, StreamConfig::Fraction(0.25), 29);
    let batches: Vec<&[EdgeUpdate]> = stream.updates.chunks(96).collect();
    let cfg = EngineConfig::with_cache_budget(stream.initial.adjacency_bytes());
    let qs = query_set(2);
    let run = grid(&stream.initial, &qs, &batches, &cfg, 2, false);
    for (qi, q) in qs.iter().enumerate() {
        let mut alone = ShardedPipeline::new(
            stream.initial.clone(),
            q.clone(),
            PartitionPolicy::HashSrc,
            engines(&cfg, 2),
        );
        for (bi, b) in batches.iter().enumerate() {
            let want = alone.process_batch(b).merged;
            let got = &run.per_batch[bi][qi];
            assert_eq!(got.matches, want.matches);
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.traffic, want.traffic);
            assert_eq!(got.cached_bytes, want.cached_bytes);
            let engine = |r: &BatchResult| {
                [r.phases.freq_est, r.phases.data_copy, r.phases.matching].map(f64::to_bits)
            };
            assert_eq!(engine(got), engine(&want), "{} batch {bi}: engine phases", q.name());
            if qi == 0 {
                assert_eq!(got.phases.update.to_bits(), want.phases.update.to_bits());
                assert_eq!(got.phases.reorganize.to_bits(), want.phases.reorganize.to_bits());
            }
        }
    }
}
