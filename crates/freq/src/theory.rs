//! Theorem 1 and the sample-size rule of Eq. (5).

/// The Theorem-1 bound on the probability that the estimator ranks `y`
/// above `x` when the true frequencies satisfy `C_x = (1+α)·C_y`:
///
/// `Pr[C̃_x < C̃_y] ≤ (n−1)(2+α)·|ΔE|·D^{n−2} / (α²·M·C_y)`  (Eq. (4)).
pub fn misrank_bound(
    n: usize,
    alpha: f64,
    delta_e: usize,
    max_degree: usize,
    walks: u64,
    c_y: f64,
) -> f64 {
    assert!(n >= 2 && alpha > 0.0 && c_y > 0.0 && walks > 0);
    let numer =
        (n as f64 - 1.0) * (2.0 + alpha) * delta_e as f64 * (max_degree as f64).powi(n as i32 - 2);
    numer / (alpha * alpha * walks as f64 * c_y)
}

/// Minimum number of walks to achieve ranking confidence `δ` (Eq. (5)):
/// `M ≥ (n−1)(2+α)|ΔE|D^{n−2} / (α²(1−δ)C_y)`.
pub fn min_walks(
    n: usize,
    alpha: f64,
    delta_e: usize,
    max_degree: usize,
    delta_conf: f64,
    c_y: f64,
) -> u64 {
    assert!((0.0..1.0).contains(&delta_conf));
    let numer =
        (n as f64 - 1.0) * (2.0 + alpha) * delta_e as f64 * (max_degree as f64).powi(n as i32 - 2);
    (numer / (alpha * alpha * (1.0 - delta_conf) * c_y)).ceil() as u64
}

/// The paper's practical setting (Sec. VI-A): `M = |ΔE|·D^{n−2} / 32^n`,
/// clamped to `[16·|ΔE|, 96·|ΔE|]` walks per delta plan.
///
/// The clamp matters at laptop scale: the paper's graphs have `D ≈ 5000`,
/// which makes the formula allot thousands of walks per batch edge; our
/// stand-ins have `D` in the hundreds, where the raw formula would sample
/// each seed only a handful of times and miss the deeper tree levels. The
/// floor restores the paper's per-seed sampling intensity; the ceiling
/// bounds estimation cost for large patterns (where `D^{n−2}` explodes).
pub fn recommended_walks(n: usize, delta_e: usize, max_degree: usize) -> u64 {
    let m = delta_e as f64 * (max_degree as f64).powi(n as i32 - 2) / 32f64.powi(n as i32);
    let floor = 16 * delta_e.max(2) as u64;
    let ceiling = 96 * delta_e.max(2) as u64;
    (m.ceil() as u64).clamp(floor, ceiling)
}

/// One step of the adaptive loop of Sec. IV-A: given the smallest estimated
/// frequency observed with `walks` samples, report whether `walks` already
/// meets the Eq. (5) requirement, and if not, the new target.
pub fn adaptive_walk_target(
    n: usize,
    alpha: f64,
    delta_e: usize,
    max_degree: usize,
    delta_conf: f64,
    min_estimated_freq: f64,
    walks: u64,
) -> Result<(), u64> {
    let need = min_walks(n, alpha, delta_e, max_degree, delta_conf, min_estimated_freq);
    if walks >= need {
        Ok(())
    } else {
        Err(need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decreases_with_more_walks() {
        let b1 = misrank_bound(4, 0.5, 100, 50, 1_000, 10.0);
        let b2 = misrank_bound(4, 0.5, 100, 50, 10_000, 10.0);
        assert!(b2 < b1);
        assert!((b1 / b2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bound_decreases_with_larger_gap() {
        let small_gap = misrank_bound(4, 0.1, 100, 50, 1_000, 10.0);
        let large_gap = misrank_bound(4, 2.0, 100, 50, 1_000, 10.0);
        assert!(large_gap < small_gap);
    }

    #[test]
    fn min_walks_satisfies_bound() {
        let (n, alpha, de, d, conf, cy) = (5, 0.5, 512, 100, 0.9, 20.0);
        let m = min_walks(n, alpha, de, d, conf, cy);
        let bound = misrank_bound(n, alpha, de, d, m, cy);
        assert!(bound <= 1.0 - conf + 1e-9);
        // One fewer walk would violate it (up to rounding).
        let bound_less = misrank_bound(n, alpha, de, d, (m as f64 * 0.9) as u64, cy);
        assert!(bound_less > bound);
    }

    #[test]
    fn recommended_walks_matches_paper_formula() {
        // |ΔE| = 4096, D = 5000, n = 5: formula ≈ 1.526e7 → ceiling 96·|ΔE|.
        assert_eq!(recommended_walks(5, 4096, 5000), 96 * 4096);
        // Tiny instance hits the floor 16·|ΔE|.
        assert_eq!(recommended_walks(3, 4, 5), 64);
        // Low-D mid-range also floors: 4096·64/32768 = 8 → 16·4096.
        assert_eq!(recommended_walks(3, 4096, 64), 16 * 4096);
        // Floor still binds at moderate D: |ΔE|=64, D=1300, n=4 → 1024.
        assert_eq!(recommended_walks(4, 64, 1300), 1024);
        // Genuinely in-band: |ΔE|=64, D=8192, n=4: 64·8192²/32⁴ = 4096.
        assert_eq!(recommended_walks(4, 64, 8192), 4096);
    }

    #[test]
    fn adaptive_loop_converges() {
        let (n, alpha, de, d, conf) = (4, 1.0, 64, 32, 0.8);
        let mut walks = 128u64;
        let min_freq = 50.0;
        let mut rounds = 0;
        loop {
            match adaptive_walk_target(n, alpha, de, d, conf, min_freq, walks) {
                Ok(()) => break,
                Err(need) => {
                    walks = need;
                    rounds += 1;
                    assert!(rounds < 3, "adaptive loop must converge in one step here");
                }
            }
        }
        assert!(walks >= 128);
    }
}
