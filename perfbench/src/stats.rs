//! Small measurement helpers: order statistics, the input digest, peak
//! resident memory, and the metric record every workload reports.

use gcsm_graph::{CsrGraph, EdgeUpdate, UpdateOp};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (any order).
/// Returns 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentiles the tail is chosen from, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that leaves at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        // The tolerance keeps e.g. 10 % of 100 samples from reading 9.999….
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0);
    Tail { percentile, value: quantile(values, percentile / 100.0), samples: n }
}

/// FNV-1a over a byte stream, fed field by field.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn graph(&mut self, g: &CsrGraph) {
        self.u64(g.num_vertices() as u64);
        for (a, b) in g.edges() {
            self.u64(((a as u64) << 32) | b as u64);
        }
    }

    pub fn updates(&mut self, updates: &[EdgeUpdate]) {
        self.u64(updates.len() as u64);
        for u in updates {
            let op = matches!(u.op, UpdateOp::Insert) as u64;
            self.u64((op << 63) | ((u.src as u64) << 32) | u.dst as u64);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a workload's generated inputs: `G_0` plus the update sequence.
pub fn input_digest(g0: &CsrGraph, updates: &[EdgeUpdate]) -> u64 {
    let mut d = Digest::default();
    d.graph(g0);
    d.updates(updates);
    d.finish()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seed of every workload's graph. The graph stays fixed, like the
/// paper's datasets, so that runs on different seeds measure the same
/// system on the same data; `--seed` draws the update stream over it.
pub const GRAPH_SEED: u64 = 0x6763_736d;

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(tail(&v[..40]).percentile, 75.0);
        assert_eq!(tail(&v[..5]).percentile, 50.0);
    }
}
