//! Algorithm 1: `AppUnion` — Monte-Carlo union-size estimation.
//!
//! Estimates `|T₁ ∪ … ∪ T_k|` given, per set, (a) a list of samples drawn
//! from `T_i`, (b) a size estimate `sz_i`, and (c) a membership oracle.
//! This is the paper's adaptation of Karp–Luby \[12\]: sample a pair
//! `(σ, i)` from `U_multiple` (pick `i ∝ sz_i`, then take the next sample
//! from `S_i`), and count it when `σ ∉ T_j` for all `j < i` — i.e. when
//! the pair lies in `U_unique`. After `t` trials the output is
//! `(Y/t)·Σ sz_i` (Theorem 1).
//!
//! The membership oracle is the stored reachable-state set of each
//! sampled word (`σ ∈ T_j = L(p_jℓ)` iff `p_j ∈ reach(σ)`); the "does any
//! earlier set contain σ" test of line 9 collapses to one bitset
//! intersection against a precomputed prefix mask.
//!
//! The trials are drawn as counts. With cyclic cursors, which samples a
//! set hands out depends only on how many draws it got, so `Y` depends
//! on the `t` draws only through the per-set counts
//! `(c_1, …, c_k) ~ Multinomial(t; szᵢ/Σsz)`. `app_union` draws those
//! counts directly ([`sample_multinomial`], `O(k)` RNG words) and then
//! runs line 9's tests at most once per list position of each set; `Y`
//! is their tally. The law of `Y`, and with it Theorem 1's guarantee, is
//! the per-trial loop's. [`CursorPolicy::PaperBreak`] and inputs with an
//! empty sample list keep a per-trial draw loop, because the paper's
//! break depends on draw order. `membership_ops` still counts one oracle
//! query per trial, the paper's cost measure; `union_bit_tests` counts
//! the tests the tally actually ran.

use crate::params::{CursorPolicy, Params};
use crate::run_stats::RunStats;
use crate::sample_set::SampleSet;
use crate::table::RunTable;
use fpras_automata::{StateId, StateSet};
use fpras_numeric::{sample_multinomial, ExtFloat, WeightTable};
use rand::{Rng, RngExt};

/// One input set `T_i = L(p_iℓ)` for `AppUnion`.
pub struct UnionSetInput<'a> {
    /// Sampled list `S_i` (shared storage; consumed through a cursor).
    pub samples: &'a SampleSet,
    /// Size estimate `sz_i ≈ |T_i|`.
    pub size_est: ExtFloat,
    /// The predecessor state `p_i` identifying the set, used both for the
    /// prefix masks and (by callers) for memo keys.
    pub state: StateId,
}

/// Builds the `AppUnion` inputs for estimating
/// `|⋃_{p ∈ frontier} L(p^level)|` from the DP table: one input per
/// frontier state with a positive estimate (zero-estimate sets carry no
/// mass and would only waste prefix-mask width). Shared by the sampler's
/// `union_size` and the engine's batched count pass so every union
/// estimate in the system is built from the same rule.
pub fn frontier_inputs<'a>(
    table: &'a RunTable,
    level: usize,
    frontier: &StateSet,
) -> Vec<UnionSetInput<'a>> {
    frontier
        .iter()
        .filter_map(|p| {
            let cell = table.cell(level, p);
            if cell.n_est.is_zero() {
                None
            } else {
                Some(UnionSetInput {
                    samples: &cell.samples,
                    size_est: cell.n_est,
                    state: p as StateId,
                })
            }
        })
        .collect()
}

/// Output of one `AppUnion` call plus diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnionEstimate {
    /// The size estimate for `|⋃ T_i|`.
    pub value: ExtFloat,
    /// Trials executed (may be fewer than requested under
    /// [`CursorPolicy::PaperBreak`] when a sample list ran dry).
    pub trials_run: usize,
    /// True iff the paper's `break` path was taken.
    pub broke_early: bool,
}

/// Reusable working memory for [`app_union`]: the selection weights, the
/// prefix masks (one flat word buffer, not one `StateSet` per input
/// set), and the per-set cursor state. A fresh scratch is equivalent to
/// a reused one — every buffer is cleared and rebuilt per call — so
/// callers thread one scratch through an entire pass and every call
/// runs allocation-free.
#[derive(Clone, Debug, Default)]
pub struct UnionScratch {
    /// Selection weights `sz_i / max sz` (line 6).
    weights: Vec<f64>,
    /// Guide table for the per-trial loop's draws (see
    /// [`WeightTable::guided`]).
    guide: Vec<u32>,
    /// Suffix sums of `weights` for the multinomial count draw.
    suffix: Vec<f64>,
    /// Flat prefix-mask buffer: block `i` (words
    /// `[i·stride, (i+1)·stride)`) holds `{p_0, …, p_{i-1}}`.
    prefix: Vec<u64>,
    /// Per-set cursor starting offsets (line 7's deque heads).
    cursors: Vec<usize>,
    /// Samples consumed per set.
    consumed: Vec<usize>,
}

impl UnionScratch {
    /// An empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        UnionScratch::default()
    }
}

/// Runs Algorithm 1 over the given sets.
///
/// `eps`/`delta` are the call's accuracy/confidence, `eps_sz` the slack of
/// the incoming size estimates (`β'` at the call sites), `universe` the
/// NFA state count (for prefix masks). Empty sets (`sz_i = 0`) should be
/// filtered by the caller; they would merely waste prefix-mask width.
/// `scratch` is caller-owned working memory (see [`UnionScratch`]); its
/// prior contents never influence the result.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's parameter list
pub fn app_union<R: Rng + ?Sized>(
    params: &Params,
    eps: f64,
    delta: f64,
    eps_sz: f64,
    sets: &[UnionSetInput<'_>],
    universe: usize,
    rng: &mut R,
    scratch: &mut UnionScratch,
    stats: &mut RunStats,
) -> UnionEstimate {
    stats.appunion_calls += 1;
    if sets.is_empty() {
        return UnionEstimate { value: ExtFloat::ZERO, trials_run: 0, broke_early: false };
    }

    // Σ sz and m̂ = ⌈Σ sz / max sz⌉ (line 2).
    let total: ExtFloat = sets.iter().map(|s| s.size_est).sum();
    if total.is_zero() {
        return UnionEstimate { value: ExtFloat::ZERO, trials_run: 0, broke_early: false };
    }
    let max = sets
        .iter()
        .map(|s| s.size_est)
        .fold(ExtFloat::ZERO, |acc, v| if v > acc { v } else { acc });
    let m_hat = total.ratio(&max).ceil().max(1.0) as usize;
    let t = params.appunion_trials(eps, delta, eps_sz, m_hat);

    let UnionScratch { weights, guide, suffix, prefix, cursors, consumed } = scratch;

    // Selection weights sz_i / Σ sz (line 6), renormalized through the
    // maximum so extreme exponents survive the f64 conversion.
    weights.clear();
    weights.extend(sets.iter().map(|s| s.size_est.ratio(&max)));

    // Prefix masks: block i = {p_0, …, p_{i-1}} (line 9's "∃ j < i"),
    // built incrementally: copy block i-1, set bit p_{i-1}.
    let stride = universe.div_ceil(64);
    prefix.clear();
    prefix.resize(sets.len() * stride, 0);
    for i in 1..sets.len() {
        let (done, rest) = prefix.split_at_mut(i * stride);
        rest[..stride].copy_from_slice(&done[(i - 1) * stride..]);
        let p = sets[i - 1].state as usize;
        rest[p / 64] |= 1u64 << (p % 64);
    }

    // Per-set cursors (line 7's deque), optionally rotated (D3).
    cursors.clear();
    cursors.extend(sets.iter().map(|s| {
        if params.rotate_cursor && !s.samples.is_empty() {
            rng.random_range(0..s.samples.len())
        } else {
            0
        }
    }));
    consumed.clear();
    consumed.resize(sets.len(), 0);

    // Lines 5–8: draw the pairs (σ, i). Trial m of set i takes sample
    // (cursors[i] + m) mod |S_i|, so the draws matter only through the
    // per-set counts, one multinomial draw. The paper's break and an
    // empty list (noise injection only) depend on draw order, so they
    // keep the per-trial loop, its draws through a guided table.
    let paper_break = params.cursor == CursorPolicy::PaperBreak;
    let (trials_run, broke_early) = if paper_break || sets.iter().any(|s| s.samples.is_empty()) {
        let table = WeightTable::guided(weights, t, guide);
        let mut trials_run = 0;
        let mut broke_early = false;
        for _ in 0..t {
            let Some(i) = table.sample(rng) else { break };
            let len = sets[i].samples.len();
            // A positive estimate with no samples is treated as the
            // paper's exhausted-list break.
            if len == 0 || (paper_break && consumed[i] >= len) {
                broke_early = true;
                break;
            }
            consumed[i] += 1;
            trials_run += 1;
        }
        (trials_run, broke_early)
    } else {
        sample_multinomial(rng, t, weights, suffix, consumed);
        (t, false)
    };
    stats.membership_ops = stats.membership_ops.saturating_add(trials_run as u64);

    // Line 9, tallied: set i's c draws are c / |S_i| full cycles of its
    // list plus the c mod |S_i| samples from its cursor on; the set's
    // rows count them, testing each list position at most once.
    let mut y: u64 = 0;
    for (i, set) in sets.iter().enumerate() {
        let (list, taken) = (set.samples, consumed[i]);
        y += list.count_disjoint(cursors[i], taken, &prefix[i * stride..(i + 1) * stride]);
        stats.union_bit_tests += taken.min(list.len()) as u64;
    }

    // Line 10: (Y/t)·Σ sz. The divisor is the *requested* t, matching the
    // paper (an early break biases downward with negligible probability).
    let value = if y == 0 { ExtFloat::ZERO } else { total.scale(y as f64 / t as f64) };
    UnionEstimate { value, trials_run, broke_early }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use std::collections::HashMap;

    /// Builds a sample set for a synthetic `T_i ⊆ {0..universe_words}`:
    /// `count` uniform samples from the listed words, where each word's
    /// "reach set" marks which synthetic sets contain it.
    fn synthetic_set(
        words_in_set: &[u64],
        membership: impl Fn(u64) -> Vec<usize>,
        count: usize,
        universe: usize,
        rng: &mut SmallRng,
    ) -> SampleSet {
        let mut s = SampleSet::empty();
        for _ in 0..count {
            let w = words_in_set[rng.random_range(0..words_in_set.len())];
            s.push(&StateSet::from_iter(universe, membership(w)));
        }
        s
    }

    fn test_params() -> Params {
        let mut p = Params::practical(0.2, 0.05, 8, 8);
        p.rotate_cursor = false;
        p
    }

    /// Algorithm 1 trial by trial: draw `(σ, i)` through an unguided
    /// table and test `σ` at once. `app_union`'s per-trial path must
    /// match it bit for bit, and its counts draw must match its law.
    #[allow(clippy::too_many_arguments)]
    fn app_union_reference<R: Rng + ?Sized>(
        params: &Params,
        eps: f64,
        delta: f64,
        eps_sz: f64,
        sets: &[UnionSetInput<'_>],
        universe: usize,
        rng: &mut R,
        stats: &mut RunStats,
    ) -> UnionEstimate {
        stats.appunion_calls += 1;
        let zero = UnionEstimate { value: ExtFloat::ZERO, trials_run: 0, broke_early: false };
        let total: ExtFloat = sets.iter().map(|s| s.size_est).sum();
        if sets.is_empty() || total.is_zero() {
            return zero;
        }
        let max =
            sets.iter()
                .map(|s| s.size_est)
                .fold(ExtFloat::ZERO, |acc, v| if v > acc { v } else { acc });
        let m_hat = total.ratio(&max).ceil().max(1.0) as usize;
        let t = params.appunion_trials(eps, delta, eps_sz, m_hat);
        let weights: Vec<f64> = sets.iter().map(|s| s.size_est.ratio(&max)).collect();
        let table = WeightTable::new(&weights);
        let prefix: Vec<StateSet> = (0..sets.len())
            .map(|i| StateSet::from_iter(universe, sets[..i].iter().map(|s| s.state as usize)))
            .collect();
        let cursors: Vec<usize> = sets
            .iter()
            .map(|s| {
                if params.rotate_cursor && !s.samples.is_empty() {
                    rng.random_range(0..s.samples.len())
                } else {
                    0
                }
            })
            .collect();
        let mut consumed = vec![0usize; sets.len()];
        let (mut y, mut trials_run, mut broke_early) = (0u64, 0usize, false);
        for _ in 0..t {
            let Some(i) = table.sample(rng) else { break };
            let list = sets[i].samples;
            let len = list.len();
            if len == 0 {
                broke_early = true;
                break;
            }
            if params.cursor == CursorPolicy::PaperBreak && consumed[i] >= len {
                broke_early = true;
                break;
            }
            let idx = (cursors[i] + consumed[i]) % len;
            consumed[i] += 1;
            stats.membership_ops += 1;
            if !prefix[i].intersects_words(list.row(idx)) {
                y += 1;
            }
            trials_run += 1;
        }
        let value = if y == 0 { ExtFloat::ZERO } else { total.scale(y as f64 / t as f64) };
        UnionEstimate { value, trials_run, broke_early }
    }

    /// `k` random sample lists over `universe` states: genuine samples
    /// with random reach sets, some followed by padding; list `empty`
    /// (if any) has no samples at all.
    fn random_lists(
        k: usize,
        universe: usize,
        empty: Option<usize>,
        rng: &mut SmallRng,
    ) -> Vec<SampleSet> {
        let entry = |rng: &mut SmallRng| {
            StateSet::from_iter(universe, (0..universe).filter(|_| rng.random_range(0..3u8) == 0))
        };
        (0..k)
            .map(|i| {
                let mut s = SampleSet::empty();
                if empty == Some(i) {
                    return s;
                }
                for _ in 0..rng.random_range(1..40usize) {
                    s.push(&entry(rng));
                }
                if rng.random_bool(0.5) {
                    let pad = entry(rng);
                    s.pad(&pad, rng.random_range(1..30usize));
                }
                s
            })
            .collect()
    }

    /// Where `app_union` keeps a per-trial loop (`PaperBreak`, or a set
    /// with an empty list) it is the reference: equal `UnionEstimate`,
    /// membership ops and RNG state under cursor rotation on and off,
    /// padded and empty lists, and `t` on both sides of the guide
    /// threshold. Elsewhere it draws counts, runs the same `t` trials
    /// and charges the same ops; `counts_draw_has_the_per_trial_law`
    /// checks what it estimates.
    #[test]
    fn tallied_loop_matches_per_trial_reference() {
        let (mut guided, mut unguided, mut counted) = (0, 0, 0);
        let mut scratch = UnionScratch::new();
        for cursor in [CursorPolicy::Cyclic, CursorPolicy::PaperBreak] {
            for rotate_cursor in [false, true] {
                let mut params = test_params();
                params.cursor = cursor;
                params.rotate_cursor = rotate_cursor;
                for (k, eps) in [(1, 0.2), (2, 3.0), (5, 0.1), (12, 1.0), (12, 0.3), (40, 0.15)] {
                    for seed in 0..4u64 {
                        let universe = k + 70;
                        let mut setup = SmallRng::seed_from_u64(seed * 1000 + k as u64);
                        let empty = (seed == 3 && k > 1).then_some(k / 2);
                        let lists = random_lists(k, universe, empty, &mut setup);
                        let sets: Vec<UnionSetInput<'_>> = lists
                            .iter()
                            .enumerate()
                            .map(|(i, samples)| UnionSetInput {
                                samples,
                                // Sizes spread over ~2^±40 around 1.
                                size_est: ExtFloat::from_u64(setup.random_range(1..1000u64))
                                    * ExtFloat::pow2(setup.random_range(-40..=0i64)),
                                state: ((i * 7 + seed as usize) % universe) as StateId,
                            })
                            .collect();
                        let (mut a_stats, mut b_stats) = (RunStats::default(), RunStats::default());
                        let mut a = SmallRng::seed_from_u64(seed);
                        let mut b = SmallRng::seed_from_u64(seed);
                        let got = app_union(
                            &params,
                            eps,
                            0.05,
                            0.1,
                            &sets,
                            universe,
                            &mut a,
                            &mut scratch,
                            &mut a_stats,
                        );
                        let want = app_union_reference(
                            &params,
                            eps,
                            0.05,
                            0.1,
                            &sets,
                            universe,
                            &mut b,
                            &mut b_stats,
                        );
                        let case = format!(
                            "{cursor:?} rotate={rotate_cursor} k={k} eps={eps} seed={seed}"
                        );
                        let tests: usize =
                            lists.iter().zip(&scratch.consumed).map(|(l, &c)| c.min(l.len())).sum();
                        assert_eq!(a_stats.union_bit_tests, tests as u64, "{case}");
                        assert!(a_stats.union_bit_tests <= a_stats.membership_ops, "{case}");
                        if cursor == CursorPolicy::Cyclic && empty.is_none() {
                            counted += 1;
                            assert_eq!(got.trials_run, want.trials_run, "{case}");
                            assert!(!got.broke_early, "{case}");
                            assert_eq!(a_stats.membership_ops, b_stats.membership_ops, "{case}");
                            continue;
                        }
                        assert_eq!(got, want, "{case}");
                        assert_eq!(got.value.to_f64().to_bits(), want.value.to_f64().to_bits());
                        assert_eq!(a_stats.membership_ops, b_stats.membership_ops, "{case}");
                        assert_eq!(a.random::<u64>(), b.random::<u64>(), "{case}");
                        if scratch.guide.is_empty() {
                            unguided += 1;
                        } else {
                            guided += 1;
                        }
                    }
                }
            }
        }
        assert!(guided > 0 && unguided > 0, "guided {guided}, unguided {unguided}");
        assert!(counted > 0);
    }

    /// Pearson's two-sample statistic for equal-size samples `a` and `b`
    /// (outcome → count), with cells merged in key order until each
    /// holds at least 20 observations, and its degrees of freedom.
    fn homogeneity_chi_square(a: &HashMap<u64, u64>, b: &HashMap<u64, u64>) -> (f64, usize) {
        let mut keys: Vec<u64> = a.keys().chain(b.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut cells: Vec<(u64, u64)> = Vec::new();
        let mut cell = (0u64, 0u64);
        for key in keys {
            cell.0 += a.get(&key).copied().unwrap_or(0);
            cell.1 += b.get(&key).copied().unwrap_or(0);
            if cell.0 + cell.1 >= 20 {
                cells.push(std::mem::take(&mut cell));
            }
        }
        match cells.last_mut() {
            Some(last) => {
                last.0 += cell.0;
                last.1 += cell.1;
            }
            None => cells.push(cell),
        }
        let stat = cells.iter().map(|&(x, y)| (x as f64 - y as f64).powi(2) / (x + y) as f64).sum();
        (stat, cells.len() - 1)
    }

    /// Drawing the per-set counts as one multinomial gives `Y` — so the
    /// estimate — the law of the per-trial loop: on small fixed inputs
    /// (k ≤ 4, t ≤ 40, lists short enough to cycle, cursor rotation on
    /// and off), the estimates of 10⁵ seeds of each pass a two-sample
    /// chi-square test at level 10⁻⁶.
    #[test]
    fn counts_draw_has_the_per_trial_law() {
        const SEEDS: u64 = 100_000;
        let universe = 4;
        // Reach sets over states {0, 1, 2, 3}: set i is unique unless it
        // also reaches an earlier set's state.
        let list = |reaches: &[&[usize]]| {
            let mut s = SampleSet::empty();
            for reach in reaches {
                s.push(&StateSet::from_iter(universe, reach.iter().copied()));
            }
            s
        };
        let l0 = list(&[&[0], &[0, 1], &[0, 2], &[0]]);
        let l1 = list(&[&[1], &[0, 1], &[1, 2], &[1], &[0, 1, 3]]);
        let l2 = list(&[&[2, 0], &[2], &[2, 1]]);
        let l3 = list(&[&[3], &[3, 0], &[3], &[3, 1, 2], &[3], &[3, 2], &[3]]);
        let input = |samples, size: u64, state| UnionSetInput {
            samples,
            size_est: ExtFloat::from_u64(size),
            state,
        };
        // (sets, eps): t = 36 for the first two, 24 for the third.
        let cases: Vec<(Vec<UnionSetInput<'_>>, f64)> = vec![
            (vec![input(&l0, 5, 0), input(&l1, 3, 1)], 1.0),
            (vec![input(&l0, 5, 0), input(&l1, 3, 1), input(&l2, 8, 2)], 1.0),
            (vec![input(&l0, 4, 0), input(&l1, 9, 1), input(&l2, 2, 2), input(&l3, 6, 3)], 1.5),
        ];
        let mut scratch = UnionScratch::new();
        for rotate_cursor in [false, true] {
            let params = Params { rotate_cursor, ..test_params() };
            for (c, (sets, eps)) in cases.iter().enumerate() {
                let mut stats = RunStats::default();
                let (mut counted, mut reference) = (HashMap::new(), HashMap::new());
                for seed in 0..SEEDS {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let got = app_union(
                        &params,
                        *eps,
                        0.05,
                        0.0,
                        sets,
                        universe,
                        &mut rng,
                        &mut scratch,
                        &mut stats,
                    );
                    *counted.entry(got.value.to_f64().to_bits()).or_insert(0u64) += 1;
                    let mut rng = SmallRng::seed_from_u64(SEEDS + seed);
                    let want = app_union_reference(
                        &params, *eps, 0.05, 0.0, sets, universe, &mut rng, &mut stats,
                    );
                    *reference.entry(want.value.to_f64().to_bits()).or_insert(0u64) += 1;
                }
                let t = stats.membership_ops / (2 * SEEDS);
                assert!(t <= 40, "case {c}: t = {t}");
                let (stat, df) = homogeneity_chi_square(&counted, &reference);
                assert!(df >= 4, "case {c} rotate={rotate_cursor}: only {df} df");
                // Wilson–Hilferty upper 10⁻⁶ quantile of χ²(df).
                let h = 2.0 / (9.0 * df as f64);
                let crit = df as f64 * (1.0 - h + 4.753 * h.sqrt()).powi(3);
                assert!(
                    stat <= crit,
                    "case {c} rotate={rotate_cursor}: χ² = {stat:.1} on {df} df > {crit:.1}"
                );
            }
        }
    }

    /// Two disjoint sets of sizes 60 and 40: union is 100.
    #[test]
    fn disjoint_sets() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a: Vec<u64> = (0..60).collect();
        let b: Vec<u64> = (100..140).collect();
        let member = |w: u64| if w < 60 { vec![0] } else { vec![1] };
        let sa = synthetic_set(&a, member, 400, 2, &mut rng);
        let sb = synthetic_set(&b, member, 400, 2, &mut rng);
        let params = test_params();
        let sets = [
            UnionSetInput { samples: &sa, size_est: ExtFloat::from_u64(60), state: 0 },
            UnionSetInput { samples: &sb, size_est: ExtFloat::from_u64(40), state: 1 },
        ];
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.1,
            0.01,
            0.0,
            &sets,
            2,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        let v = est.value.to_f64();
        assert!((90.0..110.0).contains(&v), "estimate {v}");
        assert!(stats.membership_ops > 0);
    }

    /// Identical sets: union equals one set, not the sum.
    #[test]
    fn identical_sets_not_double_counted() {
        let mut rng = SmallRng::seed_from_u64(13);
        let words: Vec<u64> = (0..50).collect();
        let member = |_w: u64| vec![0, 1];
        let sa = synthetic_set(&words, member, 400, 2, &mut rng);
        let sb = synthetic_set(&words, member, 400, 2, &mut rng);
        let params = test_params();
        let sets = [
            UnionSetInput { samples: &sa, size_est: ExtFloat::from_u64(50), state: 0 },
            UnionSetInput { samples: &sb, size_est: ExtFloat::from_u64(50), state: 1 },
        ];
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.1,
            0.01,
            0.0,
            &sets,
            2,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        let v = est.value.to_f64();
        assert!((44.0..56.0).contains(&v), "estimate {v}");
    }

    /// Partial overlap: |A|=60, |B|=60, |A∩B|=20 → union 100.
    #[test]
    fn overlapping_sets() {
        let mut rng = SmallRng::seed_from_u64(17);
        let a: Vec<u64> = (0..60).collect();
        let b: Vec<u64> = (40..100).collect();
        let member = |w: u64| {
            let mut v = Vec::new();
            if w < 60 {
                v.push(0);
            }
            if (40..100).contains(&w) {
                v.push(1);
            }
            v
        };
        let sa = synthetic_set(&a, member, 600, 2, &mut rng);
        let sb = synthetic_set(&b, member, 600, 2, &mut rng);
        let params = test_params();
        let sets = [
            UnionSetInput { samples: &sa, size_est: ExtFloat::from_u64(60), state: 0 },
            UnionSetInput { samples: &sb, size_est: ExtFloat::from_u64(60), state: 1 },
        ];
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.1,
            0.01,
            0.0,
            &sets,
            2,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        let v = est.value.to_f64();
        assert!((88.0..112.0).contains(&v), "estimate {v}");
    }

    #[test]
    fn empty_input_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        let params = test_params();
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.1,
            0.01,
            0.0,
            &[],
            2,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        assert!(est.value.is_zero());
        assert_eq!(est.trials_run, 0);
    }

    #[test]
    fn zero_estimates_are_zero() {
        let mut rng = SmallRng::seed_from_u64(2);
        let params = test_params();
        let s = SampleSet::empty();
        let sets = [UnionSetInput { samples: &s, size_est: ExtFloat::ZERO, state: 0 }];
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.1,
            0.01,
            0.0,
            &sets,
            2,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        assert!(est.value.is_zero());
    }

    /// PaperBreak with tiny sample lists must take the break path.
    #[test]
    fn paper_break_on_exhausted_list() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut params = test_params();
        params.cursor = CursorPolicy::PaperBreak;
        let words: Vec<u64> = (0..10).collect();
        let s = synthetic_set(&words, |_| vec![0], 3, 1, &mut rng);
        let sets = [UnionSetInput { samples: &s, size_est: ExtFloat::from_u64(10), state: 0 }];
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.05,
            0.01,
            0.0,
            &sets,
            1,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        assert!(est.broke_early);
        assert!(est.trials_run <= 3);
    }

    /// Cyclic cursor never breaks and reuses the stored list.
    #[test]
    fn cyclic_cursor_reuses() {
        let mut rng = SmallRng::seed_from_u64(4);
        let params = test_params();
        let words: Vec<u64> = (0..10).collect();
        let s = synthetic_set(&words, |_| vec![0], 3, 1, &mut rng);
        let sets = [UnionSetInput { samples: &s, size_est: ExtFloat::from_u64(10), state: 0 }];
        let mut stats = RunStats::default();
        let est = app_union(
            &params,
            0.05,
            0.01,
            0.0,
            &sets,
            1,
            &mut rng,
            &mut UnionScratch::new(),
            &mut stats,
        );
        assert!(!est.broke_early);
        assert!(est.trials_run > 3);
        // Every trial cycles the 3-sample list; each sample is tested once.
        assert_eq!(stats.union_bit_tests, 3);
        // Single set: everything is unique, estimate = sz exactly.
        assert!((est.value.to_f64() - 10.0).abs() < 1e-9);
    }

    /// Reusing one scratch across calls is bit-identical to fresh
    /// scratches: every buffer is rebuilt per call, so stale contents
    /// (including leftovers from a *larger* input) never leak.
    #[test]
    fn scratch_reuse_is_transparent() {
        let mut setup_rng = SmallRng::seed_from_u64(23);
        let a: Vec<u64> = (0..60).collect();
        let b: Vec<u64> = (100..140).collect();
        let member = |w: u64| if w < 60 { vec![0] } else { vec![1] };
        let sa = synthetic_set(&a, member, 200, 3, &mut setup_rng);
        let sb = synthetic_set(&b, member, 200, 3, &mut setup_rng);
        let params = test_params();
        let two = [
            UnionSetInput { samples: &sa, size_est: ExtFloat::from_u64(60), state: 0 },
            UnionSetInput { samples: &sb, size_est: ExtFloat::from_u64(40), state: 2 },
        ];
        let one = [UnionSetInput { samples: &sa, size_est: ExtFloat::from_u64(60), state: 0 }];
        let mut stats = RunStats::default();
        // Reused scratch: big call first, then a smaller one.
        let mut shared = UnionScratch::new();
        let mut rng = SmallRng::seed_from_u64(29);
        let big = app_union(&params, 0.2, 0.05, 0.0, &two, 3, &mut rng, &mut shared, &mut stats);
        let small = app_union(&params, 0.2, 0.05, 0.0, &one, 3, &mut rng, &mut shared, &mut stats);
        // Fresh scratch per call, identical RNG stream.
        let mut rng2 = SmallRng::seed_from_u64(29);
        let big2 = app_union(
            &params,
            0.2,
            0.05,
            0.0,
            &two,
            3,
            &mut rng2,
            &mut UnionScratch::new(),
            &mut stats,
        );
        let small2 = app_union(
            &params,
            0.2,
            0.05,
            0.0,
            &one,
            3,
            &mut rng2,
            &mut UnionScratch::new(),
            &mut stats,
        );
        assert_eq!(big, big2);
        assert_eq!(small, small2);
        assert_eq!(rng.random::<u64>(), rng2.random::<u64>());
    }

    /// Error shrinks as eps tightens (more trials).
    #[test]
    fn accuracy_improves_with_eps() {
        let run = |eps: f64, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..128).collect();
            let b: Vec<u64> = (64..192).collect();
            let member = |w: u64| {
                let mut v = Vec::new();
                if w < 128 {
                    v.push(0);
                }
                if w >= 64 {
                    v.push(1);
                }
                v
            };
            let sa = synthetic_set(&a, member, 3000, 2, &mut rng);
            let sb = synthetic_set(&b, member, 3000, 2, &mut rng);
            let params = test_params();
            let sets = [
                UnionSetInput { samples: &sa, size_est: ExtFloat::from_u64(128), state: 0 },
                UnionSetInput { samples: &sb, size_est: ExtFloat::from_u64(128), state: 1 },
            ];
            let mut stats = RunStats::default();
            app_union(
                &params,
                eps,
                0.01,
                0.0,
                &sets,
                2,
                &mut rng,
                &mut UnionScratch::new(),
                &mut stats,
            )
            .value
            .to_f64()
        };
        let errs = |eps: f64| -> f64 {
            (0..10).map(|s| (run(eps, s) - 192.0).abs() / 192.0).sum::<f64>() / 10.0
        };
        let coarse = errs(0.5);
        let fine = errs(0.05);
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
        assert!(fine < 0.05, "fine error too large: {fine}");
    }
}
