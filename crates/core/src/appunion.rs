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
//! The trial loop only draws: each trial picks `i` (through a guided
//! [`WeightTable`]) and takes the next sample of `S_i`. Which samples a
//! set hands out depends only on how many were taken, so line 9's tests
//! run afterwards, at most once per list position of each set, and `Y`
//! is their tally. `Y`, the estimate and every RNG word
//! are those of the per-trial loop; `membership_ops` still counts one
//! oracle query per trial, the paper's cost measure.

use crate::params::{CursorPolicy, Params};
use crate::run_stats::RunStats;
use crate::sample_set::SampleSet;
use crate::table::RunTable;
use fpras_automata::{StateId, StateSet};
use fpras_numeric::{ExtFloat, WeightTable};
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
/// callers thread one scratch through an entire pass and the trial loop
/// runs allocation-free.
#[derive(Debug, Default)]
pub struct UnionScratch {
    /// Selection weights `sz_i / max sz` (line 6).
    weights: Vec<f64>,
    /// Guide table for drawing from `weights` (see [`WeightTable::guided`]).
    guide: Vec<u32>,
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

    let UnionScratch { weights, guide, prefix, cursors, consumed } = scratch;

    // Selection weights sz_i / Σ sz (line 6), renormalized through the
    // maximum so extreme exponents survive the f64 conversion. The total
    // is hoisted into a `WeightTable`, guided when t pays for it, so a
    // draw is usually one bucket lookup (draw-identical to
    // `sample_weights`).
    weights.clear();
    weights.extend(sets.iter().map(|s| s.size_est.ratio(&max)));
    let table = WeightTable::guided(weights, t, guide);

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
    // (cursors[i] + m) mod |S_i|, so counting draws per set fixes them.
    let paper_break = params.cursor == CursorPolicy::PaperBreak;
    let mut trials_run = 0usize;
    let mut broke_early = false;
    for _ in 0..t {
        let Some(i) = table.sample(rng) else { break };
        let len = sets[i].samples.len();
        // A positive estimate with no samples is treated as the paper's
        // exhausted-list break (can only arise under noise injection).
        if len == 0 || (paper_break && consumed[i] >= len) {
            broke_early = true;
            break;
        }
        consumed[i] += 1;
        trials_run += 1;
    }
    stats.membership_ops += trials_run as u64;

    // Line 9, tallied: set i's c draws are c / |S_i| full cycles of its
    // list plus the c mod |S_i| samples from its cursor on. Test each
    // sample at most once: the partial window, then the rest of the
    // cycle only if a full cycle was taken.
    let mut y: u64 = 0;
    for (i, set) in sets.iter().enumerate() {
        let (list, taken) = (set.samples, consumed[i]);
        if taken == 0 {
            continue;
        }
        let len = list.len();
        let mask = &prefix[i * stride..(i + 1) * stride];
        let unique = |offset: usize| {
            let entry = list.get((cursors[i] + offset) % len);
            u64::from(!entry.reach.intersects_words(mask))
        };
        let (cycles, partial) = (taken / len, taken % len);
        let window: u64 = (0..partial).map(unique).sum();
        let rest: u64 = if cycles > 0 { (partial..len).map(unique).sum() } else { 0 };
        y += cycles as u64 * (window + rest) + window;
    }

    // Line 10: (Y/t)·Σ sz. The divisor is the *requested* t, matching the
    // paper (an early break biases downward with negligible probability).
    let value = if y == 0 { ExtFloat::ZERO } else { total.scale(y as f64 / t as f64) };
    UnionEstimate { value, trials_run, broke_early }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample_set::SampleEntry;
    use fpras_automata::Word;
    use rand::{rngs::SmallRng, SeedableRng};

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
            s.push(SampleEntry {
                word: Word::from_index(w, 8, 2),
                reach: StateSet::from_iter(universe, membership(w)),
            });
        }
        s
    }

    fn test_params() -> Params {
        let mut p = Params::practical(0.2, 0.05, 8, 8);
        p.rotate_cursor = false;
        p
    }

    /// The per-trial loop `app_union` replaced: draw `(σ, i)` through an
    /// unguided table and test `σ` at once. The reference the tallied,
    /// guided loop must match bit for bit.
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
            if !list.get(idx).reach.intersects(&prefix[i]) {
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
        let entry = |rng: &mut SmallRng| SampleEntry {
            word: Word::from_index(rng.random_range(0..256u64), 8, 2),
            reach: StateSet::from_iter(
                universe,
                (0..universe).filter(|_| rng.random_range(0..3u8) == 0),
            ),
        };
        (0..k)
            .map(|i| {
                let mut s = SampleSet::empty();
                if empty == Some(i) {
                    return s;
                }
                for _ in 0..rng.random_range(1..40usize) {
                    s.push(entry(rng));
                }
                if rng.random_bool(0.5) {
                    let pad = entry(rng);
                    s.pad(pad, rng.random_range(1..30usize));
                }
                s
            })
            .collect()
    }

    /// The tallied, guided loop is the per-trial loop: equal
    /// `UnionEstimate`, membership ops and RNG state under both cursor
    /// policies, cursor rotation on and off, padded and empty lists, and
    /// `t` on both sides of the guide threshold.
    #[test]
    fn tallied_loop_matches_per_trial_reference() {
        let (mut guided, mut unguided) = (0, 0);
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
