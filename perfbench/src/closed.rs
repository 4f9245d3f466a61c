//! Closed-loop driver shared by `skew_q4` and `road_sharded`: the caller
//! submits the next batch only after the previous one returns.
//!
//! Untraced: the batches forward, then their inverse, and so on, until
//! `--seconds` of batch time are measured, then the ledger gate. Traced: one pass in which each batch runs first
//! through the untraced system (the reference) and then through the
//! layer-by-layer composition, which must reproduce it exactly.

use crate::composed::same_result;
use crate::ledger::Ledger;
use crate::report::{Counters, E2e, Layers, Outcome};
use crate::trace::Tracer;
use crate::RunConfig;
use gcsm::BatchResult;
use gcsm_graph::{EdgeUpdate, UpdateOp};
use std::time::Instant;

/// One batch's outcome: the merged record plus each engine's own record
/// (one per shard; a single entry on one device).
pub struct Step {
    pub merged: BatchResult,
    pub parts: Vec<BatchResult>,
}

/// A system under test driven batch by batch.
pub trait ClosedSystem {
    fn process(&mut self, batch: &[EdgeUpdate]) -> Step;
    /// From-scratch count of the query on the current graph.
    fn recount(&self) -> i64;
}

/// The traced composition of a [`ClosedSystem`].
pub trait TracedSystem {
    fn process(&mut self, batch: &[EdgeUpdate], tr: &mut Tracer, b: u64, l: &mut Layers) -> Step;
}

fn fold_counters(c: &mut Counters, step: &Step, walk_op_cost: f64) {
    for r in &step.parts {
        c.add_result(r, walk_op_cost);
    }
    c.end_batch(step.merged.matches, step.merged.phases.total() * 1e3);
}

/// The batches that undo `batches`: each one reversed with its operations
/// flipped, in reverse order. Streaming `batches` then these returns the
/// graph to `G_0`.
pub fn inverse(batches: &[Vec<EdgeUpdate>]) -> Vec<Vec<EdgeUpdate>> {
    let flip = |u: &EdgeUpdate| match u.op {
        UpdateOp::Insert => EdgeUpdate::delete(u.src, u.dst),
        UpdateOp::Delete => EdgeUpdate::insert(u.src, u.dst),
    };
    batches.iter().rev().map(|b| b.iter().rev().map(flip).collect()).collect()
}

/// Set-ups timed per run: at least this many, and until this much time
/// has gone into them, so that a set-up of a fraction of a second still
/// yields a steady median.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 2.0;

/// Untraced closed loop. `setup` builds the system and returns it with its
/// ledger base `count(G_0)`; it is timed repeatedly (see [`MIN_SETUPS`])
/// and the last system built is driven. The loop streams the batches forward, then their
/// inverse, and so on, until `--seconds` of batch time are measured (the
/// first forward pass always completes and supplies the deterministic
/// counters). Set-up and the final recount run outside the measured time.
pub fn run_untraced<S: ClosedSystem>(
    rc: &RunConfig,
    query: &str,
    batches: &[Vec<EdgeUpdate>],
    walk_op_cost: f64,
    mut setup: impl FnMut() -> (S, i64),
    out: &mut Outcome,
) {
    let mut e2e = E2e::default();
    let mut built = None;
    while e2e.setup_s.len() < MIN_SETUPS || e2e.setup_s.iter().sum::<f64>() < MIN_SETUP_S {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup());
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut sys, base) = built.expect("set up at least once");
    let mut ledger = Ledger::new(query, base);
    let undo = inverse(batches);
    let (mut index, mut processed, mut busy_s) = (0usize, 0u64, 0.0);
    'passes: for pass in 0.. {
        for batch in if pass % 2 == 0 { batches } else { &undo } {
            if pass > 0 && busy_s >= rc.seconds {
                break 'passes;
            }
            let t = Instant::now();
            let step = sys.process(batch);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            e2e.batch_ms.push(ms);
            // In a closed loop the batch is due when it is submitted and the
            // caller holds its result when the call returns: the result
            // latency is the batch time (`result_*` and `batch_*` share
            // their bounds for this reason).
            e2e.result_ms.push(ms);
            busy_s += ms * 1e-3;
            processed += batch.len() as u64;
            out.attempted += batch.len() as u64;
            ledger.add(rc.tamper.apply(index, step.merged.matches));
            if pass == 0 {
                fold_counters(&mut out.counters, &step, walk_op_cost);
            }
            index += 1;
        }
    }
    if let Err(e) = ledger.check(sys.recount()) {
        out.errors.push(e);
    }
    out.notes.push(format!("{index} batches streamed ({} per pass)", batches.len()));
    e2e.throughput_ups = processed as f64 / busy_s;
    e2e.finish(out);
}

/// One traced pass. Returns the tracer holding the spans.
#[allow(clippy::too_many_arguments)]
pub fn run_traced<R: ClosedSystem, T: TracedSystem>(
    rc: &RunConfig,
    query: &str,
    batches: &[Vec<EdgeUpdate>],
    walk_op_cost: f64,
    reference: (R, i64),
    mut traced: T,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Tracer {
    let (mut sys, base) = reference;
    let mut ledger = Ledger::new(query, base);
    let mut tr = Tracer::new();
    for (i, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        let want = sys.process(batch);
        layers.reference_s += t.elapsed().as_secs_f64();
        ledger.add(rc.tamper.apply(i, want.merged.matches));
        fold_counters(&mut out.counters, &want, walk_op_cost);

        let t = Instant::now();
        let got = traced.process(batch, &mut tr, i as u64, layers);
        layers.traced_s += t.elapsed().as_secs_f64();
        layers.batches += 1;
        layers.add_phases(&got.merged.phases);
        out.attempted += batch.len() as u64;

        let what = format!("batch {i}");
        let parts = got.parts.iter().zip(&want.parts);
        let check = std::iter::once((&got.merged, &want.merged)).chain(parts);
        if let Some(e) = check.map(|(g, w)| same_result(&what, g, w)).find_map(Result::err) {
            out.errors.push(e);
            break;
        }
    }
    if let Err(e) = ledger.check(sys.recount()) {
        out.errors.push(e);
    }
    tr
}
