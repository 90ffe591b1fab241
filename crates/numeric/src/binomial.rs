//! Exact binomial and multinomial sampling.
//!
//! `AppUnion` (Algorithm 1) draws `t` set indices i.i.d. with
//! probabilities `szᵢ/Σsz`, and with cyclic cursors it uses them only
//! through how often each index came up. Those counts are one
//! `Multinomial(t; p)` draw, which [`sample_multinomial`] takes as `k − 1`
//! conditional binomials: `O(k)` RNG words per call instead of `t`.
//!
//! [`sample_binomial`] draws from the binomial law itself, with no normal
//! or Poisson approximation:
//!
//! * **Inversion** (sequential search, Kachitvichyanukul and Schmeiser's
//!   BINV) when the mean `n·min(p, 1 − p)` is below 10: one uniform,
//!   walked down the pmf from `0` by the ratio recurrence, about
//!   `mean + 1` steps.
//! * **BTRS** (Hörmann 1993, transformed rejection with squeeze) from
//!   10 up: a uniform pair maps through a hat of the pmf and is accepted
//!   in a box where the hat lies under the pmf, or else by comparing
//!   with the exact log-pmf ratio to the mode (Stirling series for
//!   `ln j!` beyond a table). Its expected cost does not grow with the
//!   mean.
//!
//! `p > ½` is drawn as `n − Bin(n, 1 − p)`; `n = 0`, `p = 0` and `p = 1`
//! are answered without drawing.

use rand::{Rng, RngExt};

/// Means below this use inversion; at or above it, BTRS (whose hat
/// constants Hörmann fits for means of 10 and more).
const INVERSION_MAX_MEAN: f64 = 10.0;

/// `fc(j) = ln j! − [(j + ½)·ln(j + 1) − (j + 1) + ½·ln 2π]` for
/// `j ≤ 9`, where the Stirling series below is not yet accurate.
const STIRLING_TAIL: [f64; 10] = [
    0.081_061_466_795_327_26,
    0.041_340_695_955_409_29,
    0.027_677_925_684_998_34,
    0.020_790_672_103_765_09,
    0.016_644_691_189_821_19,
    0.013_876_128_823_070_75,
    0.011_896_709_945_891_77,
    0.010_411_265_261_972_09,
    0.009_255_462_182_712_733,
    0.008_330_563_433_362_87,
];

/// The Stirling correction `fc(j)` (see [`STIRLING_TAIL`]); beyond the
/// table, the series in `1/(j + 1)` to its fourth term, whose error at
/// `j = 10` is below `10⁻¹²`.
fn stirling_tail(j: f64) -> f64 {
    if j < STIRLING_TAIL.len() as f64 {
        return STIRLING_TAIL[j as usize];
    }
    let z = j + 1.0;
    let z2 = z * z;
    (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * z2)) / z2) / z2) / z
}

/// Draws `Bin(n, p)`: the number of successes in `n` independent trials
/// of success probability `p ∈ [0, 1]`.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "binomial p = {p} out of [0, 1]");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - sample_binomial(rng, n, 1.0 - p);
    }
    if n as f64 * p < INVERSION_MAX_MEAN {
        inversion(rng, n, p)
    } else {
        btrs(rng, n, p)
    }
}

/// BINV: one uniform `u`, minus `P(X = 0), P(X = 1), …` until it goes
/// under. For `p ≤ ½` and mean below 10, `P(X = 0) = qⁿ ≥ e⁻¹⁴`, so the
/// walk starts far from underflow; a `u` left over by rounding once the
/// pmf terms vanish (or pass `n`) is redrawn.
fn inversion<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let s = p / (1.0 - p);
    let a = (n as f64 + 1.0) * s;
    let r0 = (n as f64 * (-p).ln_1p()).exp();
    loop {
        let mut u: f64 = rng.random();
        let (mut x, mut r) = (0u64, r0);
        while u > r {
            u -= r;
            x += 1;
            r *= a / x as f64 - s;
            if x > n || r <= 0.0 {
                break;
            }
        }
        if u <= r && x <= n {
            return x;
        }
    }
}

/// BTRS for `p ≤ ½` and `n·p ≥ 10` (Hörmann 1993, Algorithm BTRS).
fn btrs<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let spq = (nf * p * (1.0 - p)).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let alpha = (2.83 + 5.1 / b) * spq;
    let r = p / (1.0 - p);
    let m = ((nf + 1.0) * p).floor();
    // The log-pmf at the mode, less the terms that cancel in the ratio.
    let h_m = (m + 0.5) * (m + 1.0).ln()
        + (nf - m + 0.5) * (nf - m + 1.0).ln()
        + stirling_tail(m)
        + stirling_tail(nf - m);
    loop {
        let u = rng.random::<f64>() - 0.5;
        let v: f64 = rng.random();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        // Also rejects the NaN/∞ of `us = 0`.
        if !(0.0..=nf).contains(&k) {
            continue;
        }
        // The box where the hat lies under the pmf accepts outright;
        // elsewhere, the exact test ln(v·hat) ≤ ln(f(k)/f(m)).
        let accept = (us >= 0.07 && v <= v_r) || {
            let lhs = (v * alpha / (a / (us * us) + b)).ln();
            lhs <= h_m
                - (k + 0.5) * (k + 1.0).ln()
                - (nf - k + 0.5) * (nf - k + 1.0).ln()
                - stirling_tail(k)
                - stirling_tail(nf - k)
                + (k - m) * r.ln()
        };
        if accept {
            // `nf` rounds for `n` above 2⁵³; keep `k` in range anyway.
            return (k as u64).min(n);
        }
    }
}

/// Draws the per-category counts of `trials` i.i.d. categorical draws
/// with probabilities `weights[i] / Σ weights` — one
/// `Multinomial(trials; weights)` sample — into `counts`.
///
/// Category `i` takes `Bin(left, wᵢ / Σ_{j ≥ i} wⱼ)` of the `left` draws
/// not yet given out, the suffix sums summed in `f64` from the back;
/// the last positive weight takes the remainder. Zero weights get zero
/// and consume no randomness; if every weight is zero, so is every
/// count. `suffix` is caller-owned working memory whose prior contents
/// never matter.
///
/// # Panics
/// Panics if `counts` and `weights` differ in length.
pub fn sample_multinomial<R: Rng + ?Sized>(
    rng: &mut R,
    trials: usize,
    weights: &[f64],
    suffix: &mut Vec<f64>,
    counts: &mut [usize],
) {
    assert_eq!(counts.len(), weights.len(), "one count per weight");
    debug_assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
    suffix.clear();
    suffix.resize(weights.len(), 0.0);
    let mut acc = 0.0;
    for (s, &w) in suffix.iter_mut().zip(weights).rev() {
        acc += w;
        *s = acc;
    }
    let last = weights.iter().rposition(|&w| w > 0.0);
    let mut left = trials;
    for (i, count) in counts.iter_mut().enumerate() {
        *count = match last {
            Some(l) if i == l => left,
            Some(l) if i < l && weights[i] > 0.0 => {
                sample_binomial(rng, left as u64, weights[i] / suffix[i]) as usize
            }
            _ => 0,
        };
        left -= *count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    /// `Bin(n, p)`'s pmf over its non-negligible support, as
    /// `(lo, probabilities from lo)`: the ratio recurrence run both ways
    /// from the mode and normalised, with terms below `10⁻²⁰` of the
    /// mode's dropped (so no `ln Γ` is needed).
    fn binomial_pmf(n: u64, p: f64) -> (u64, Vec<f64>) {
        if p == 0.0 || n == 0 {
            return (0, vec![1.0]);
        }
        if p == 1.0 {
            return (n, vec![1.0]);
        }
        let r = p / (1.0 - p);
        let mode = (((n + 1) as f64) * p).floor().min(n as f64) as u64;
        let mut up = vec![1.0];
        let (mut k, mut w) = (mode, 1.0);
        while k < n && w > 1e-20 {
            w *= (n - k) as f64 / (k + 1) as f64 * r;
            k += 1;
            up.push(w);
        }
        let mut down = Vec::new();
        let (mut k, mut w) = (mode, 1.0);
        while k > 0 && w > 1e-20 {
            w *= k as f64 / ((n - k + 1) as f64 * r);
            k -= 1;
            down.push(w);
        }
        let lo = mode - down.len() as u64;
        let mut pmf: Vec<f64> = down.into_iter().rev().chain(up).collect();
        let total: f64 = pmf.iter().sum();
        pmf.iter_mut().for_each(|x| *x /= total);
        (lo, pmf)
    }

    /// Pearson's statistic of `draws` samples of `Bin(n, p)` against the
    /// exact pmf, over cells merged from the tails inward until each
    /// expects at least 5, with its degrees of freedom.
    fn chi_square(n: u64, p: f64, draws: usize, seed: u64) -> (f64, usize) {
        let (lo, pmf) = binomial_pmf(n, p);
        let mut observed = vec![0u64; pmf.len()];
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..draws {
            let x = sample_binomial(&mut rng, n, p);
            assert!(x <= n, "Bin({n}, {p}) drew {x}");
            let idx = x.checked_sub(lo).map(|i| i as usize).filter(|&i| i < pmf.len());
            let idx = idx.unwrap_or_else(|| panic!("Bin({n}, {p}) drew {x}, outside support"));
            observed[idx] += 1;
        }
        // Merge cells left to right until each expects ≥ 5; fold the last
        // short cell into its neighbour.
        let mut cells: Vec<(f64, u64)> = Vec::new();
        let (mut e, mut o) = (0.0, 0u64);
        for (prob, &obs) in pmf.iter().zip(&observed) {
            e += prob * draws as f64;
            o += obs;
            if e >= 5.0 {
                cells.push((e, o));
                (e, o) = (0.0, 0);
            }
        }
        match cells.last_mut() {
            Some(last) => {
                last.0 += e;
                last.1 += o;
            }
            None => cells.push((e, o)),
        }
        let stat = cells.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        (stat, cells.len().saturating_sub(1))
    }

    /// Upper `1 − 10⁻⁶` quantile of χ²(df), by Wilson–Hilferty. With
    /// one cell there is nothing to test beyond the support.
    fn chi_square_critical(df: usize) -> f64 {
        if df == 0 {
            return f64::INFINITY;
        }
        let d = df as f64;
        let z = 4.753; // one-sided standard normal quantile at 10⁻⁶
        let h = 2.0 / (9.0 * d);
        d * (1.0 - h + z * h.sqrt()).powi(3) + 5.0
    }

    fn assert_fits(n: u64, p: f64, draws: usize, seed: u64) {
        let (stat, df) = chi_square(n, p, draws, seed);
        let crit = chi_square_critical(df);
        assert!(stat <= crit, "Bin({n}, {p}): χ² = {stat:.1} on {df} df > {crit:.1}");
    }

    /// A grid over both sides of the inversion/BTRS switch, `p > ½`
    /// reflection and `p` near 0 and 1; the heavyweight sweep below
    /// covers more of it with more draws.
    #[test]
    fn binomial_matches_exact_pmf() {
        let grid: &[(u64, f64)] = &[
            (1, 0.3),
            (5, 0.5),
            (19, 0.5),   // mean 9.5: inversion
            (20, 0.5),   // mean 10: BTRS
            (21, 0.49),  // BTRS, small n
            (100, 0.09), // inversion
            (100, 0.1),  // BTRS at the switch
            (100, 0.93), // reflected, inversion
            (100, 0.88), // reflected, BTRS
            (1000, 0.3),
            (12_000, 0.06),
            (50_000, 1e-5),
            (1_000_000, 0.5),
            (1_000_000, 1.0 - 1e-6),
        ];
        for (i, &(n, p)) in grid.iter().enumerate() {
            assert_fits(n, p, 60_000, 100 + i as u64);
        }
    }

    #[test]
    fn binomial_degenerate_cases_draw_nothing() {
        let mut rng = SmallRng::seed_from_u64(5);
        let before = rng.clone();
        assert_eq!(sample_binomial(&mut rng, 0, 0.4), 0);
        assert_eq!(sample_binomial(&mut rng, 17, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 17, 1.0), 17);
        assert_eq!(sample_binomial(&mut rng, u64::MAX / 2, 0.0), 0);
        assert_eq!(rng, before, "degenerate draws consumed randomness");
    }

    #[test]
    fn stirling_table_matches_definition() {
        for (j, &fc) in STIRLING_TAIL.iter().enumerate() {
            let ln_fact: f64 = (1..=j).map(|i| (i as f64).ln()).sum();
            let z = j as f64 + 1.0;
            let direct =
                ln_fact - ((j as f64 + 0.5) * z.ln() - z + 0.5 * std::f64::consts::TAU.ln());
            assert!((fc - direct).abs() < 1e-13, "fc({j}) = {fc}, direct {direct}");
        }
        // The series continues the table smoothly.
        let ln_fact_10: f64 = (1..=10).map(|i| (i as f64).ln()).sum();
        let direct_10 = ln_fact_10 - (10.5 * 11f64.ln() - 11.0 + 0.5 * std::f64::consts::TAU.ln());
        assert!((stirling_tail(10.0) - direct_10).abs() < 1e-12);
    }

    /// Counts sum to the trials, zero weights get nothing, the last
    /// positive weight takes the remainder, and every marginal is the
    /// right binomial in the mean.
    #[test]
    fn multinomial_counts_are_consistent() {
        let weights = [0.0, 3.0, 1.0, 0.0, 6.0, 0.0];
        let (mut suffix, mut counts) = (vec![9.0; 2], vec![7usize; weights.len()]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut sums = [0f64; 6];
        let reps = 4000;
        for _ in 0..reps {
            sample_multinomial(&mut rng, 500, &weights, &mut suffix, &mut counts);
            assert_eq!(counts.iter().sum::<usize>(), 500);
            assert_eq!((counts[0], counts[3], counts[5]), (0, 0, 0));
            for (s, &c) in sums.iter_mut().zip(&counts) {
                *s += c as f64;
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            let mean = sums[i] / reps as f64;
            let want = 500.0 * w / 10.0;
            // Standard error of the mean is ≤ √(500·¼/4000) ≈ 0.18.
            assert!((mean - want).abs() < 1.0, "category {i}: mean {mean}, want {want}");
        }
        sample_multinomial(&mut rng, 500, &[0.0, 0.0], &mut suffix, &mut counts[..2]);
        assert_eq!(&counts[..2], &[0, 0]);
        sample_multinomial(&mut rng, 500, &[2.0], &mut suffix, &mut counts[..1]);
        assert_eq!(counts[0], 500);
    }

    /// The heavyweight law check: 10⁶ draws per grid point, `n` up to
    /// 10⁷, `p` near 0, ½ and 1, both sides of the inversion/BTRS
    /// switch. Release mode, `--ignored`.
    #[test]
    #[ignore = "heavyweight: cargo test --release -p fpras-numeric -- --ignored"]
    fn binomial_law_heavyweight_sweep() {
        let mut grid: Vec<(u64, f64)> = Vec::new();
        for n in [1u64, 10, 19, 20, 100, 10_000, 1_000_000, 10_000_000] {
            let nf = n as f64;
            for p in [
                1e-9,
                1.0 / nf,
                9.5 / nf,
                10.0 / nf,
                10.5 / nf,
                0.01,
                0.25,
                0.4999,
                0.5,
                0.5001,
                0.75,
                0.99,
                1.0 - 10.0 / nf,
                1.0 - 9.5 / nf,
                1.0 - 1e-9,
            ] {
                if p > 0.0 && p < 1.0 {
                    grid.push((n, p));
                }
            }
        }
        for (i, &(n, p)) in grid.iter().enumerate() {
            assert_fits(n, p, 1_000_000, 7_000 + i as u64);
        }
    }
}
