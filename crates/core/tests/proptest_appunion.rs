//! Property tests for Algorithm 1 against brute-force union arithmetic.
//!
//! Random interval families over a small word universe give exact union
//! sizes by direct computation; `AppUnion` must land near them. The
//! estimator is randomized, so tolerances are generous and every case
//! derives its RNG seed deterministically from the case inputs — the
//! properties are reproducible, not flaky.

use fpras_automata::StateSet;
use fpras_core::sample_set::SampleSet;
use fpras_core::{app_union, Params, RunStats, UnionScratch, UnionSetInput};
use fpras_numeric::ExtFloat;
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};

/// Builds sample lists for interval sets `[lo, lo+len)` over `0..1024`.
fn build_inputs(
    intervals: &[(u64, u64)],
    samples: usize,
    seed: u64,
) -> (Vec<(SampleSet, u64)>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let member_of = |w: u64| -> Vec<usize> {
        intervals
            .iter()
            .enumerate()
            .filter(|(_, &(lo, len))| (lo..lo + len).contains(&w))
            .map(|(i, _)| i)
            .collect()
    };
    let mut covered = vec![false; 2048];
    for &(lo, len) in intervals {
        for w in lo..lo + len {
            covered[w as usize] = true;
        }
    }
    let exact_union = covered.iter().filter(|&&c| c).count() as u64;
    let sets = intervals
        .iter()
        .map(|&(lo, len)| {
            let mut s = SampleSet::empty();
            for _ in 0..samples {
                let w = rng.random_range(lo..lo + len);
                s.push(&StateSet::from_iter(intervals.len(), member_of(w)));
            }
            (s, len)
        })
        .collect();
    (sets, exact_union)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn estimate_lands_near_exact_union(
        raw in proptest::collection::vec((0u64..900, 1u64..120), 1..5),
        seed in 0u64..10_000,
    ) {
        let (sets, exact) = build_inputs(&raw, 1200, seed);
        let params = Params::practical(0.2, 0.05, 8, 8);
        let inputs: Vec<UnionSetInput<'_>> = sets
            .iter()
            .enumerate()
            .map(|(i, (s, sz))| UnionSetInput {
                samples: s,
                size_est: ExtFloat::from_u64(*sz),
                state: i as u32,
            })
            .collect();
        let mut stats = RunStats::default();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let est = app_union(&params, 0.1, 0.02, 0.0, &inputs, raw.len(), &mut rng, &mut UnionScratch::new(), &mut stats);
        let got = est.value.to_f64();
        let err = (got - exact as f64).abs() / exact as f64;
        // ε = 0.1 plus stored-sample resolution; 0.5 leaves ~5σ headroom.
        prop_assert!(err < 0.5, "err {err}: exact {exact}, got {got}");
    }

    #[test]
    fn estimate_never_exceeds_sum_of_sizes(
        raw in proptest::collection::vec((0u64..900, 1u64..120), 1..5),
        seed in 0u64..10_000,
    ) {
        let (sets, _) = build_inputs(&raw, 300, seed);
        let params = Params::practical(0.2, 0.05, 8, 8);
        let total: u64 = raw.iter().map(|&(_, len)| len).sum();
        let inputs: Vec<UnionSetInput<'_>> = sets
            .iter()
            .enumerate()
            .map(|(i, (s, sz))| UnionSetInput {
                samples: s,
                size_est: ExtFloat::from_u64(*sz),
                state: i as u32,
            })
            .collect();
        let mut stats = RunStats::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let est = app_union(&params, 0.3, 0.05, 0.0, &inputs, raw.len(), &mut rng, &mut UnionScratch::new(), &mut stats);
        // (Y/t)·Σsz with Y ≤ t can never exceed Σsz — a hard invariant.
        prop_assert!(est.value.to_f64() <= total as f64 * (1.0 + 1e-9));
    }

    #[test]
    fn single_set_estimate_is_its_size(
        lo in 0u64..900,
        len in 1u64..120,
        seed in 0u64..10_000,
    ) {
        // With one set every draw is unique: the estimate must equal the
        // declared size exactly (Y = t).
        let (sets, _) = build_inputs(&[(lo, len)], 200, seed);
        let params = Params::practical(0.2, 0.05, 8, 8);
        let inputs = [UnionSetInput {
            samples: &sets[0].0,
            size_est: ExtFloat::from_u64(len),
            state: 0,
        }];
        let mut stats = RunStats::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let est = app_union(&params, 0.3, 0.05, 0.0, &inputs, 1, &mut rng, &mut UnionScratch::new(), &mut stats);
        prop_assert!((est.value.to_f64() - len as f64).abs() < 1e-9);
    }
}

/// Line 9's tally the pre-row code ran: test every drawn position
/// `(cursor + o) mod len` on its own.
fn per_position_tally(set: &SampleSet, cursor: usize, taken: usize, mask: &[u64]) -> u64 {
    let len = set.len();
    let disjoint = |o: usize| set.row((cursor + o) % len).iter().zip(mask).all(|(r, m)| r & m == 0);
    (0..taken).map(|o| u64::from(disjoint(o))).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SampleSet::count_disjoint` — contiguous row ranges, the pad run
    /// by multiplication, a one-word loop for `m ≤ 64` — counts exactly
    /// what the per-position loop counts: `m = 48` (stride 1) and
    /// `m = 100` (stride 2), random genuine/pad splits and cursors, and
    /// `taken` of zero, a partial window, an exact multiple of the list
    /// length and several cycles plus a window.
    #[test]
    fn contiguous_tally_matches_per_position_loop(
        wide in 0u8..2,
        genuine in 0usize..40,
        pad in 0usize..30,
        seed in 0u64..1_000_000,
        cycles in 1usize..5,
    ) {
        let m = if wide == 1 { 100 } else { 48 };
        let pad = if genuine + pad == 0 { 1 } else { pad };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut random_set = |density: u8| {
            StateSet::from_iter(m, (0..m).filter(|_| rng.random_range(0..density) == 0))
        };
        let mut set = SampleSet::with_capacity(m, genuine + 1);
        for _ in 0..genuine {
            set.push(&random_set(4));
        }
        set.pad(&random_set(4), pad);
        let mask = random_set(6);
        let len = set.len();
        let cursor = rng.random_range(0..len);
        let partial = rng.random_range(1..len.max(2)).min(len);
        for taken in [0, partial, len, cycles * len, cycles * len + partial] {
            prop_assert_eq!(
                set.count_disjoint(cursor, taken, mask.words()),
                per_position_tally(&set, cursor, taken, mask.words()),
                "m {} genuine {} pad {} cursor {} taken {}", m, genuine, pad, cursor, taken
            );
        }
    }
}
