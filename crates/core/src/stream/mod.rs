//! Concurrent streaming ingestion for continuous subgraph matching.
//!
//! The batch pipeline ([`crate::Pipeline`]) answers "given this batch,
//! what changed?"; this module answers "given this firehose of updates,
//! *make* the batches" — the part a deployed CSM system sits behind:
//!
//! ```text
//!  producer ─┐                       ┌────────────────────────────────┐
//!  producer ─┼─▶ bounded channel ──▶ │ worker: sequencer → coalescing │──▶ subscribers
//!  producer ─┘   (backpressure)      │   window → seal → processor    │    + final report
//!                                    └───────────────┬────────────────┘
//!                                                    ▼
//!                      batch driver: ingest → seal → (query × shard) grid → reorganize
//!                      (Pipeline 1×1, MultiPipeline Q×S; DESIGN.md §15)
//! ```
//!
//! * **Admission & coalescing** — updates enter a window where duplicates
//!   collapse and insert/delete pairs annihilate
//!   ([`gcsm_graph::admission`]); self-loops are rejected.
//! * **Seal policies** — [`SealPolicy::Size`], [`SealPolicy::OnTick`], or
//!   both. Ticks are *logical* events in the sequenced stream, so
//!   tick-based boundaries replay exactly.
//! * **Determinism** — with [`SequenceMode::Explicit`], batch boundaries
//!   and the ΔM sequence are a pure function of (initial graph, sequenced
//!   events, seal policy): any producer interleaving matches the serial
//!   reference ([`replay_serial`]).
//! * **Backpressure** — the ingest queue is bounded;
//!   [`Backpressure::Block`] is lossless, [`Backpressure::DropNewest`]
//!   sheds load and counts every loss.
//! * **Ledger** — each batch carries `running_total = count(G_0) + Σ ΔM`,
//!   checkable against [`crate::Pipeline::static_count`] at any seal.
//!
//! See DESIGN.md § "Streaming ingestion" for the semantics argument and
//! `tests/tests/stream_*.rs` for the determinism/property suites.

mod builder;
mod session;

pub use builder::{replay_serial, BatchBuilder, SealPolicy, SealedBatch, StreamEvent};
pub use session::{
    spawn_multi, spawn_pipeline, Backpressure, BatchProcessor, MultiProcessor, MultiStreamBatch,
    PipelineProcessor, SequenceMode, SessionReport, StreamBatch, StreamConfig, StreamProducer,
    StreamSession,
};
