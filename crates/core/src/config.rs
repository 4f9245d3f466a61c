//! Engine configuration shared by all evaluated systems.

use gcsm_gpusim::{GpuConfig, Scheduling};
use gcsm_matcher::{EnumeratorKind, IntersectAlgo};
use gcsm_pattern::PlanOptions;

/// Configuration for one engine instance.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The simulated hardware model (device capacity doubles as the cache
    /// budget knob, like the paper's 14 GB GPU buffer).
    pub gpu: GpuConfig,
    /// Plan options (symmetry breaking for unique-subgraph counting).
    pub plan: PlanOptions,
    /// Set-intersection kernel selection.
    pub algo: IntersectAlgo,
    /// Enumerator of the CPU engines and of the static bootstrap kernel
    /// (stack = the GPU kernel shape). The incremental GPU kernel always
    /// runs the seed-group executor (`gcsm_matcher::run_seed`), whose DFS
    /// is the stack enumerator's.
    pub enumerator: EnumeratorKind,
    /// Override the number of random walks per delta plan; `None` uses the
    /// paper's rule `M = |ΔE|·D^{n−2}/32^n` (Sec. VI-A).
    pub walks_override: Option<u64>,
    /// Enable the adaptive sample-size loop of Sec. IV-A: start with a
    /// quarter of the recommended `M`, check the Eq. (5) requirement
    /// against the smallest estimated frequency, and collect more samples
    /// if the confidence target is not met (at most [`Self::ADAPTIVE_MAX_ROUNDS`]
    /// rounds, capped at 4× the recommended `M`).
    pub adaptive_walks: bool,
    /// Ship only the cache *delta* between consecutive batches instead of
    /// re-sending the whole DCSR (extension beyond the paper; see
    /// `gcsm_cache::delta`). Counts are unaffected; only DMA volume drops.
    pub delta_cache: bool,
    /// Grid scheduling policy: `WorkStealing` models STMatch's inter-block
    /// stealing (the paper's kernel); `Static` is the ablation.
    pub scheduling: Scheduling,
    /// Compile cardinality-scored matching orders (RapidFlow's strategy)
    /// instead of the structural greedy order — the integration the paper
    /// names as future work ("incorporate its matching order optimization
    /// into our system"). Scores come from cheap global candidate counts
    /// (label + degree filters), no candidate index needed.
    pub optimized_order: bool,
    /// RNG seed for the walk estimator.
    pub walk_seed: u64,
    /// Run the matching kernel in parallel (deterministic counters; UM page
    /// hit rates may vary run to run). Serial runs are fully deterministic.
    pub parallel_kernel: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            gpu: GpuConfig::default(),
            plan: PlanOptions::default(),
            algo: IntersectAlgo::Auto,
            enumerator: EnumeratorKind::Stack,
            walks_override: None,
            adaptive_walks: false,
            delta_cache: false,
            scheduling: Scheduling::WorkStealing,
            optimized_order: false,
            walk_seed: 0x5eed,
            parallel_kernel: true,
        }
    }
}

impl EngineConfig {
    /// Ranking-gap parameter `α` for the adaptive loop (Theorem 1).
    pub const ADAPTIVE_ALPHA: f64 = 1.0;
    /// Target ranking confidence `δ` for the adaptive loop.
    pub const ADAPTIVE_CONFIDENCE: f64 = 0.9;
    /// Maximum resampling rounds.
    pub const ADAPTIVE_MAX_ROUNDS: usize = 3;
}

impl EngineConfig {
    /// Config with an explicit device cache budget in bytes.
    pub fn with_cache_budget(budget: usize) -> Self {
        Self { gpu: GpuConfig::rtx3090_scaled(budget), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_constructor() {
        let c = EngineConfig::with_cache_budget(1 << 20);
        assert_eq!(c.gpu.cache_budget(), 1 << 20);
    }
}
