//! # gcsm — GPU-accelerated continuous subgraph matching (reproduction)
//!
//! End-to-end implementation of **GCSM** (Wei & Jiang, IPDPS 2024) and every
//! system it is evaluated against, on top of a simulated CPU–GPU memory
//! system (`gcsm-gpusim`; see DESIGN.md for the substitution argument).
//!
//! The per-batch workflow is the paper's Fig. 3:
//!
//! 1. append the edge updates `ΔE_k` to the CPU-side neighbor lists;
//! 2. run random walks from the updated edges to estimate access
//!    frequencies;
//! 3. pack the neighbor lists of the most frequent vertices into DCSR and
//!    ship them to GPU memory in one DMA;
//! 4. run the exact incremental matching kernel on the GPU (cache hits read
//!    device memory, misses fall back to zero-copy reads of CPU memory);
//! 5. reorganize the updated neighbor lists on the CPU.
//!
//! [`engines`] implements GCSM plus the paper's baselines — naive GPU
//! variants (**UM** unified memory, **ZP** zero-copy, **VSGM** k-hop
//! pre-copy, **Naive** degree-ranked cache) and CPU systems (the WCOJ CPU
//! baseline and a RapidFlow-like candidate-index matcher). All engines
//! return identical match counts and differ only in data movement — which
//! is precisely what the evaluation measures.
//!
//! ## Quickstart
//!
//! ```
//! use gcsm::prelude::*;
//!
//! // A small dynamic graph and a triangle query.
//! let g0 = gcsm_graph::CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let query = gcsm_pattern::queries::triangle();
//!
//! let config = EngineConfig::default();
//! let mut engine = GcsmEngine::new(config.clone());
//! let mut pipeline = Pipeline::new(g0, query);
//!
//! // Stream a batch: one insertion closing a second triangle.
//! let batch = vec![gcsm_graph::EdgeUpdate::insert(1, 3)];
//! let result = pipeline.process_batch(&mut engine, &batch);
//! assert_eq!(result.matches, 6); // 6 new embeddings (|Aut(triangle)| = 6)
//! ```

pub mod addr;
pub mod config;
mod driver;
pub mod engines;
pub mod kernel;
pub mod khop;
pub mod multi;
pub mod pipeline;
pub mod result;
pub mod sharded;
pub mod sources;
pub mod stream;

pub use config::EngineConfig;
pub use engines::{
    CpuWcojEngine, Engine, GcsmEngine, NaiveDegreeEngine, RapidFlowEngine, RecomputeEngine,
    UnifiedMemEngine, VsgmEngine, ZeroCopyEngine,
};
pub use multi::{MultiBatchResult, MultiPipeline};
pub use pipeline::Pipeline;
pub use result::{record_batch_metrics, BatchResult, PhaseBreakdown, SealReason, StreamMeta};
pub use sharded::{shard_config, ShardedBatchResult, ShardedPipeline};
pub use stream::{
    Backpressure, SealPolicy, SequenceMode, StreamConfig, StreamProducer, StreamSession,
};

/// Convenient glob imports for examples and benches.
pub mod prelude {
    pub use crate::config::EngineConfig;
    pub use crate::engines::{
        CpuWcojEngine, Engine, GcsmEngine, NaiveDegreeEngine, RapidFlowEngine, RecomputeEngine,
        UnifiedMemEngine, VsgmEngine, ZeroCopyEngine,
    };
    pub use crate::multi::{MultiBatchResult, MultiPipeline};
    pub use crate::pipeline::Pipeline;
    pub use crate::result::{BatchResult, PhaseBreakdown, SealReason, StreamMeta};
    pub use crate::sharded::{shard_config, ShardedBatchResult, ShardedPipeline};
    pub use crate::stream::{
        Backpressure, SealPolicy, SequenceMode, StreamBatch, StreamConfig, StreamSession,
    };
}
