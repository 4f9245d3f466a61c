//! One-uniform binomial draws for the merged estimator.
//!
//! Every binomial the merged walk draws has parameters fixed for the whole
//! call: `Binomial(M, 1/S)` per seed, and `Binomial(b, 1/D)` per candidate
//! for a node visited by `b` walks. [`BinomialTable`] tabulates such a pmf
//! once and samples it by inversion: one uniform and a binary search of the
//! CDF per draw, exact for every `(n, p)` up to floating-point rounding.
//!
//! The table spans the mode plus both tails down to a relative weight of
//! `1e-20` (below the 2^-53 resolution of the uniform), built by the pmf
//! ratio recurrence outward from the mode, so `q^n` never underflows.
//! Parameters whose table would exceed [`MAX_TABLE`] entries (a standard
//! deviation in the thousands, far beyond any walk budget the engines
//! set) fall back to the `rand_distr` sampler.

use rand::{rngs::SmallRng, Rng};
use rand_distr::{Binomial, Distribution};

/// Tail weight, relative to the mode, below which the table stops.
const TAIL: f64 = 1e-20;

/// Largest table built; wider distributions use the `rand_distr` sampler.
const MAX_TABLE: usize = 1 << 16;

/// Largest visit count with a precomputed per-candidate table.
const CHILD_TABLES: u64 = 64;

/// An inverse-CDF sampler of `Binomial(n, p)` for fixed `(n, p)`.
#[derive(Clone, Debug)]
pub(crate) struct BinomialTable {
    /// Smallest value the table covers.
    lo: u64,
    /// `cdf[i] = Pr[X ≤ lo + i]` (normalized over the table).
    cdf: Vec<f64>,
    /// Sampler for distributions too wide to tabulate.
    wide: Option<Binomial>,
}

impl BinomialTable {
    /// Tabulate `Binomial(n, p)`. `p` outside `(0, 1)` (or NaN) gives the
    /// degenerate point mass at `0` (`p ≤ 0`) or `n` (`p ≥ 1`).
    pub(crate) fn new(n: u64, p: f64) -> Self {
        let point = |k: u64| Self { lo: k, cdf: vec![1.0], wide: None };
        if n == 0 || p.is_nan() || p <= 0.0 {
            return point(0);
        }
        if p >= 1.0 {
            return point(n);
        }
        let q = 1.0 - p;
        let sd = (n as f64 * p * q).sqrt();
        if sd * 20.0 > MAX_TABLE as f64 {
            return Self { lo: 0, cdf: Vec::new(), wide: Binomial::new(n, p).ok() };
        }
        let (odds, inv_odds) = (p / q, q / p);
        let mode = (((n + 1) as f64 * p).floor() as u64).min(n);
        // Unnormalized pmf weights, mode = 1: w(k+1)/w(k) = (n−k)/(k+1)·p/q.
        let mut below = Vec::new();
        let (mut w, mut k) = (1.0f64, mode);
        while k > 0 {
            w *= k as f64 / (n - k + 1) as f64 * inv_odds;
            if w < TAIL {
                break;
            }
            below.push(w);
            k -= 1;
        }
        let lo = mode - below.len() as u64;
        let mut weights: Vec<f64> = below.into_iter().rev().collect();
        weights.push(1.0);
        let (mut w, mut k) = (1.0f64, mode);
        while k < n {
            w *= (n - k) as f64 / (k + 1) as f64 * odds;
            if w < TAIL {
                break;
            }
            weights.push(w);
            k += 1;
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .into_iter()
            .map(|w| {
                acc += w;
                acc / total
            })
            .collect();
        Self { lo, cdf, wide: None }
    }

    /// Draw one value: a single uniform, inverted through the CDF.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> u64 {
        if let Some(wide) = &self.wide {
            return wide.sample(rng);
        }
        let u: f64 = rng.gen();
        // The last CDF entry rounds to ~1.0; a uniform at or above it lands
        // on the top of the table.
        let i = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len().saturating_sub(1));
        self.lo + i as u64
    }
}

/// Per-candidate draws `Binomial(b, p)` for every visit count `b`: tables
/// for `b ≤ CHILD_TABLES`, the `rand_distr` sampler above.
#[derive(Clone, Debug)]
pub(crate) struct ChildDraws {
    p: f64,
    /// `tables[b − 1]` samples `Binomial(b, p)`.
    tables: Vec<BinomialTable>,
}

impl ChildDraws {
    pub(crate) fn new(p: f64) -> Self {
        Self { p, tables: (1..=CHILD_TABLES).map(|b| BinomialTable::new(b, p)).collect() }
    }

    /// Draw `Binomial(b, p)`.
    #[inline]
    pub(crate) fn sample(&self, b: u64, rng: &mut SmallRng) -> u64 {
        match b.checked_sub(1).and_then(|i| self.tables.get(i as usize)) {
            Some(t) => t.sample(rng),
            None if b == 0 => 0,
            None => Binomial::new(b, self.p).map_or(0, |d| d.sample(rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Exact pmf of `Binomial(n, p)` for `k = 0..=n`, by the log-space
    /// recurrence from `ln Pr[X = 0] = n·ln(1−p)`.
    fn exact_pmf(n: u64, p: f64) -> Vec<f64> {
        let mut ln = n as f64 * (1.0 - p).ln();
        let mut out = Vec::with_capacity(n as usize + 1);
        for k in 0..=n {
            out.push(ln.exp());
            ln += ((n - k) as f64).ln() - ((k + 1) as f64).ln() + (p / (1.0 - p)).ln();
        }
        out
    }

    /// Sample mean and variance match `np` and `np(1−p)`, and a chi-square
    /// goodness-of-fit test over bins with expected count ≥ 5 passes.
    fn check(n: u64, p: f64, seed: u64) {
        let t = BinomialTable::new(n, p);
        assert!(t.wide.is_none(), "n={n} p={p} should tabulate");
        let mut rng = SmallRng::seed_from_u64(seed);
        let draws = 200_000u64;
        let mut counts = std::collections::BTreeMap::<u64, u64>::new();
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..draws {
            let x = t.sample(&mut rng);
            assert!(x <= n);
            *counts.entry(x).or_default() += 1;
            sum += x as f64;
            sq += (x as f64) * (x as f64);
        }
        let mean = sum / draws as f64;
        let var = sq / draws as f64 - mean * mean;
        let (em, ev) = (n as f64 * p, n as f64 * p * (1.0 - p));
        // 5 standard errors of the mean; the variance estimate's standard
        // error is ≈ ev·sqrt(2/draws) (plus a kurtosis term for tiny ev).
        assert!((mean - em).abs() < 5.0 * (ev / draws as f64).sqrt(), "n={n} p={p}: mean {mean}");
        assert!((var - ev).abs() < 8.0 * ev * (2.0 / draws as f64).sqrt() + 1e-3, "var {var}");
        // Chi-square over bins with expected count ≥ 5; the rest pooled.
        let (mut chi, mut bins) = (0.0, 0usize);
        let (mut pool_obs, mut pool_exp) = (0.0, 0.0);
        for (k, pmf) in exact_pmf(n, p).into_iter().enumerate() {
            let exp = pmf * draws as f64;
            let obs = counts.get(&(k as u64)).copied().unwrap_or(0) as f64;
            if exp >= 5.0 {
                chi += (obs - exp) * (obs - exp) / exp;
                bins += 1;
            } else {
                pool_obs += obs;
                pool_exp += exp;
            }
        }
        if pool_exp >= 5.0 {
            chi += (pool_obs - pool_exp) * (pool_obs - pool_exp) / pool_exp;
            bins += 1;
        }
        // Reject at far beyond the 99.9th percentile: for `df` degrees of
        // freedom, mean df and sd sqrt(2·df).
        let df = bins.saturating_sub(1).max(1) as f64;
        assert!(
            chi < df + 6.0 * (2.0 * df).sqrt() + 10.0,
            "n={n} p={p}: chi² {chi} over {bins} bins"
        );
    }

    #[test]
    fn matches_binomial_for_small_n() {
        // The n ≤ 64 regime: per-candidate draws.
        check(1, 0.25, 1);
        check(7, 0.1, 2);
        check(64, 1.0 / 3.0, 3);
        check(64, 0.01, 4);
    }

    #[test]
    fn matches_binomial_for_moderate_nq() {
        // n > 64, n·min(p, q) ≤ 32: per-seed draws at the engine's budgets.
        check(1500, 1.0 / 64.0, 5);
        check(200, 0.1, 6);
        check(300, 0.95, 7);
    }

    #[test]
    fn matches_binomial_for_large_nq() {
        // n·min(p, q) > 32, where the rand_distr stand-in approximates.
        check(20_000, 1.0 / 8.0, 8);
        check(5000, 0.5, 9);
    }

    #[test]
    fn degenerate_parameters() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(BinomialTable::new(0, 0.5).sample(&mut rng), 0);
        assert_eq!(BinomialTable::new(9, 0.0).sample(&mut rng), 0);
        assert_eq!(BinomialTable::new(9, 1.0).sample(&mut rng), 9);
        assert_eq!(BinomialTable::new(9, f64::NAN).sample(&mut rng), 0);
        let child = ChildDraws::new(1.0);
        assert_eq!(child.sample(0, &mut rng), 0);
        assert_eq!(child.sample(5, &mut rng), 5);
        assert_eq!(child.sample(500, &mut rng), 500);
    }

    #[test]
    fn wide_distributions_fall_back_and_stay_in_range() {
        let t = BinomialTable::new(1 << 40, 0.5);
        assert!(t.wide.is_some());
        let mut rng = SmallRng::seed_from_u64(1);
        let x = t.sample(&mut rng) as f64;
        assert!((x - (1u64 << 39) as f64).abs() < 10.0 * (1u64 << 19) as f64);
    }

    #[test]
    fn child_draws_above_the_tables_match_the_mean() {
        let child = ChildDraws::new(0.25);
        let mut rng = SmallRng::seed_from_u64(2);
        let draws = 20_000;
        let mean =
            (0..draws).map(|_| child.sample(400, &mut rng)).sum::<u64>() as f64 / draws as f64;
        assert!((mean - 100.0).abs() < 5.0 * (75.0f64 / draws as f64).sqrt(), "mean {mean}");
    }
}
