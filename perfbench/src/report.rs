//! The run outcome and the metric catalogue.
//!
//! Every workload reports the same metric names: the end-to-end set on an
//! untraced run and the per-layer set on a traced run. A layer a workload
//! does not exercise reports 0 (e.g. `shard.*` on a single device).

use crate::stats::{self, Metric};
use crate::trace::Tracer;
use gcsm::BatchResult;

/// Length of one measured run, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of each workload, in [`crate::WORKLOADS`] order.
pub const WORKLOAD_WHY: [(&str, &str); 3] = [
    (
        "skew_q4",
        "closed loop, skewed social graph, Q4 on one device: the matcher kernel dominates, cache and estimation barely matter",
    ),
    (
        "serve_window",
        "open loop at half the saturating rate into a 4-query stream session: queueing, overlapped reorganize, cache residency",
    ),
    (
        "road_sharded",
        "closed loop, flat road lattice, Q1 on 2 hash shards, bulk batches: estimation, cache, graph and routing weigh most",
    ),
];

/// `(name, unit, better, bound)` of each end-to-end metric. `bound` is the
/// share of the parent's median by which a later change may worsen it. It
/// lies above the inter-quartile spread over ten seeds on every workload
/// (`results/README.md`); `setup_s` has the largest allowed. On the
/// closed loops the caller holds a batch's result when the call returns, so
/// `result_*` reads the same sample as `batch_*`; each pair therefore
/// shares one bound. `delivered_frac` is `1 - failed_frac`, reported this
/// way round because an end-to-end metric must never read 0.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("throughput_ups", "1/s", "higher", 0.25),
    ("batch_p50_ms", "ms", "lower", 0.2),
    ("batch_tail_ms", "ms", "lower", 0.25),
    ("result_p50_ms", "ms", "lower", 0.2),
    ("result_tail_ms", "ms", "lower", 0.25),
    ("sim_ms_per_batch", "ms", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("delivered_frac", "frac", "higher", 0.01),
];

/// `(name, unit, better)` of each per-layer metric.
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    ("graph.ingest_ms", "ms", "lower"),
    ("graph.seal_ms", "ms", "lower"),
    ("graph.reorg_ms", "ms", "lower"),
    ("graph.skipped_updates", "count", "lower"),
    ("graph.bytes", "bytes", "lower"),
    ("freq.est_ms", "ms", "lower"),
    ("freq.walk_ops", "count", "lower"),
    ("freq.ns_per_walk_op", "ns", "lower"),
    ("cache.build_ms", "ms", "lower"),
    ("cache.shipped_bytes", "bytes", "lower"),
    ("cache.saved_bytes", "bytes", "higher"),
    ("cache.hit_rate", "frac", "higher"),
    ("cache.resident_bytes", "bytes", "lower"),
    ("matcher.kernel_ms", "ms", "lower"),
    ("matcher.intersect_ops", "count", "lower"),
    ("matcher.list_accesses", "count", "lower"),
    ("matcher.ns_per_op", "ns", "lower"),
    ("matcher.grid_imbalance", "ratio", "lower"),
    ("gpusim.zerocopy_bytes", "bytes", "lower"),
    ("gpusim.sim_fe_ms", "ms", "lower"),
    ("gpusim.sim_dc_ms", "ms", "lower"),
    ("gpusim.sim_match_ms", "ms", "lower"),
    ("gpusim.sim_host_ms", "ms", "lower"),
    ("stream.block_ms", "ms", "lower"),
    ("stream.gen_lag_ms", "ms", "lower"),
    ("stream.queue_depth_max", "count", "lower"),
    ("stream.window_open_ms", "ms", "lower"),
    ("stream.wait_ms", "ms", "lower"),
    ("multi.query_ms.triangle", "ms", "lower"),
    ("multi.query_ms.Q1", "ms", "lower"),
    ("multi.query_ms.Q2", "ms", "lower"),
    ("multi.query_ms.Q6", "ms", "lower"),
    ("shard.route_ms", "ms", "lower"),
    ("shard.partition_ms", "ms", "lower"),
    ("shard.cut_frac", "frac", "lower"),
    ("shard.peer_bytes", "bytes", "lower"),
    ("shard.wall_imbalance", "ratio", "lower"),
    ("shard.model_imbalance", "ratio", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
    ("obs.self_time_coverage", "frac", "higher"),
];

/// Counters that must repeat exactly for a given seed (first pass over
/// the workload's batches).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    pub batches: u64,
    pub matches: i64,
    pub sim_ms_per_batch: f64,
    pub intersect_ops: u64,
    pub walk_ops: u64,
    pub shipped_bytes: u64,
}

impl Counters {
    /// Fold one query's result of one batch. `walk_ops` comes from the FE
    /// phase, which the engine charges as `walk_ops × walk_op_cost`.
    pub fn add_result(&mut self, r: &BatchResult, walk_op_cost: f64) {
        self.intersect_ops += r.stats.intersect_ops;
        self.walk_ops += (r.phases.freq_est / walk_op_cost).round() as u64;
        self.shipped_bytes += r.traffic.dma_bytes;
    }

    /// Close one batch with net `ΔM` `matches` and modeled time `sim_ms`.
    pub fn end_batch(&mut self, matches: i64, sim_ms: f64) {
        self.matches += matches;
        let n = self.batches as f64;
        self.sim_ms_per_batch = (self.sim_ms_per_batch * n + sim_ms) / (n + 1.0);
        self.batches += 1;
    }
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub digest: u64,
    /// Updates offered to the system.
    pub attempted: u64,
    /// Updates dropped or left unprocessed.
    pub failed: u64,
    /// Ledger-gate and trace-equality failures.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub counters: Counters,
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Updates dropped or unprocessed over updates offered; 1.0 when any
    /// check failed.
    pub fn failed_frac(&self) -> f64 {
        if !self.correct() {
            1.0
        } else if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let failed = if self.correct() { self.failed } else { self.attempted };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }
}

/// `BENCHMARK.json`, generated from the catalogues above.
pub fn manifest() -> String {
    let q = |s: &str| format!("\"{s}\"");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let workloads: Vec<String> = WORKLOAD_WHY
        .iter()
        .map(|(n, w)| format!("    {{\"name\": {}, \"why\": {}}}", q(n), q(w)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                q(n),
                q(u),
                q(b)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": {}, \"unit\": {}, \"better\": {}}}", q(n), q(u), q(b))
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.map(q).join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Raw end-to-end measurements of one untraced run.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub result_ms: Vec<f64>,
    pub throughput_ups: f64,
}

impl E2e {
    /// The end-to-end metrics, in [`END_TO_END`] order, plus notes naming
    /// each tail's percentile and sample count.
    pub fn finish(&self, out: &mut Outcome) {
        let bt = stats::tail(&self.batch_ms);
        let rt = stats::tail(&self.result_ms);
        let values = [
            self.throughput_ups,
            stats::median(&self.batch_ms),
            bt.value,
            stats::median(&self.result_ms),
            rt.value,
            out.counters.sim_ms_per_batch,
            stats::median(&self.setup_s),
            stats::peak_rss_mb(),
            1.0 - out.failed_frac(),
        ];
        for ((name, unit, _, _), v) in END_TO_END.iter().zip(values) {
            out.metrics.push(Metric::new(*name, v, unit));
        }
        out.notes.push(format!("batch_tail_ms is p{} of {} batches", bt.percentile, bt.samples));
        out.notes.push(format!("result_tail_ms is p{} of {} results", rt.percentile, rt.samples));
        out.notes.push(format!("setup_s is the median of {} set-ups", self.setup_s.len()));
    }
}

/// Per-layer accumulators of one traced run; values are per-batch means
/// unless noted.
#[derive(Default)]
pub struct Layers {
    pub batches: u64,
    pub skipped_updates: u64,
    /// Largest `DynamicGraph::allocated_bytes` seen.
    pub graph_bytes: u64,
    pub walk_ops: u64,
    pub shipped_bytes: u64,
    pub saved_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub resident_bytes: u64,
    pub intersect_ops: u64,
    pub list_accesses: u64,
    pub grid_imbalance_sum: f64,
    pub kernel_runs: u64,
    pub zerocopy_bytes: u64,
    pub sim_fe_s: f64,
    pub sim_dc_s: f64,
    pub sim_match_s: f64,
    pub sim_host_s: f64,
    pub stream_block_s: f64,
    pub stream_gen_lag_s: f64,
    pub stream_queue_depth_max: u64,
    pub stream_window_open_s: f64,
    pub stream_wait_s: Vec<f64>,
    /// Query name → summed engine wall seconds.
    pub query_wall_s: Vec<(String, f64)>,
    pub partition_s: Vec<f64>,
    pub cut_updates: u64,
    pub routed_updates: u64,
    pub peer_bytes: u64,
    pub wall_imbalance_sum: f64,
    pub model_imbalance_sum: f64,
    /// Wall seconds of the untraced reference and of the traced batches.
    pub reference_s: f64,
    pub traced_s: f64,
}

impl Layers {
    /// Fold one query's composed result of one batch.
    pub fn add_engine(&mut self, r: &BatchResult, c: &crate::composed::LayerCounts) {
        self.walk_ops += c.walk_ops;
        self.shipped_bytes += r.traffic.dma_bytes;
        self.saved_bytes += c.saved_bytes;
        self.resident_bytes += c.resident_bytes;
        self.cache_hits += r.traffic.cache_hits;
        self.cache_misses += r.traffic.cache_misses;
        self.intersect_ops += r.stats.intersect_ops;
        self.list_accesses += r.stats.list_accesses;
        self.grid_imbalance_sum += c.grid_imbalance;
        self.kernel_runs += 1;
        self.zerocopy_bytes += r.traffic.zerocopy_bytes;
    }

    /// Fold one batch's modeled phases (merged across queries or shards).
    pub fn add_phases(&mut self, p: &gcsm::PhaseBreakdown) {
        self.sim_fe_s += p.freq_est;
        self.sim_dc_s += p.data_copy;
        self.sim_match_s += p.matching;
        self.sim_host_s += p.update + p.reorganize;
    }

    pub fn add_query_wall(&mut self, name: &str, s: f64) {
        match self.query_wall_s.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => *t += s,
            None => self.query_wall_s.push((name.to_string(), s)),
        }
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub fn finish(&self, tr: &Tracer, out: &mut Outcome) {
        let b = self.batches.max(1) as f64;
        let st = tr.self_times();
        let self_ms = |layers: &[&str]| {
            layers.iter().map(|l| st.get(l).copied().unwrap_or(0)).sum::<u64>() as f64 * 1e-6 / b
        };
        let per = |x: u64| x as f64 / b;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let freq_ms = self_ms(&["freq"]);
        let kernel_ms = self_ms(&["matcher"]);
        let query_ms = |q: &str| {
            self.query_wall_s.iter().find(|(n, _)| n == q).map_or(0.0, |(_, s)| s * 1e3 / b)
        };
        let values: [f64; 40] = [
            self_ms(&["graph.ingest"]),
            self_ms(&["graph.seal"]),
            self_ms(&["graph.reorg", "graph.join"]),
            per(self.skipped_updates),
            self.graph_bytes as f64,
            freq_ms,
            per(self.walk_ops),
            ratio(freq_ms * 1e6 * b, self.walk_ops as f64),
            self_ms(&["cache"]),
            per(self.shipped_bytes),
            per(self.saved_bytes),
            ratio(self.cache_hits as f64, (self.cache_hits + self.cache_misses) as f64),
            per(self.resident_bytes),
            kernel_ms,
            per(self.intersect_ops),
            per(self.list_accesses),
            ratio(kernel_ms * 1e6 * b, (self.intersect_ops + self.list_accesses) as f64),
            ratio(self.grid_imbalance_sum, self.kernel_runs as f64),
            per(self.zerocopy_bytes),
            self.sim_fe_s * 1e3 / b,
            self.sim_dc_s * 1e3 / b,
            self.sim_match_s * 1e3 / b,
            self.sim_host_s * 1e3 / b,
            self.stream_block_s * 1e3,
            self.stream_gen_lag_s * 1e3,
            self.stream_queue_depth_max as f64,
            self.stream_window_open_s * 1e3 / b,
            stats::mean(&self.stream_wait_s) * 1e3,
            query_ms("triangle"),
            query_ms("Q1"),
            query_ms("Q2"),
            query_ms("Q6"),
            self_ms(&["shard.route"]),
            stats::median(&self.partition_s) * 1e3,
            ratio(self.cut_updates as f64, self.routed_updates as f64),
            per(self.peer_bytes),
            self.wall_imbalance_sum / b,
            self.model_imbalance_sum / b,
            1.0 - ratio(self.reference_s, self.traced_s),
            tr.child_coverage(),
        ];
        for ((name, unit, _), v) in PER_LAYER.iter().zip(values) {
            out.metrics.push(Metric::new(*name, v, unit));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perfbench --emit-manifest > BENCHMARK.json`"
        );
        let names: Vec<&str> = WORKLOAD_WHY.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
