//! Weighted index sampling.
//!
//! Both `AppUnion` (Algorithm 1, line 6: pick a set with probability
//! `szᵢ/Σszⱼ`) and the backward sampler (Algorithm 2, line 13: pick the
//! next symbol proportionally to the union estimates) need categorical
//! draws over a handful of weights. Every draw is the same linear
//! cumulative scan: one uniform `u`, then `u·total` minus each weight in
//! turn until the running value goes negative. The sampler draws once per
//! weight vector, so the scan is all it needs. `AppUnion` usually draws
//! no indices at all: it draws its per-set trial counts as one
//! multinomial ([`crate::binomial`]). Only its per-trial loop, kept for
//! the paper's `PaperBreak` cursor and for empty sample lists, draws
//! thousands of times from one vector of up to a few dozen weights. For
//! that loop [`WeightTable`] can put a guide table (Chen and Asau's
//! cutpoint method) in front of the scan. The guide answers most draws
//! with one lookup and returns exactly the scan's index, from the same
//! single `u`, so guided and unguided draw sequences are bit-identical.
//! The sampler's compiled walk replays one node's draw millions of
//! times; for it [`fill_thresholds`] turns the weights into integer
//! thresholds on the RNG word, and [`sample_thresholds`] returns the
//! scan's index with integer compares alone.

use crate::ExtFloat;
use rand::{Rng, RngExt};

/// Samples an index proportionally to non-negative `f64` weights.
///
/// Returns `None` if all weights are zero (or the slice is empty).
pub fn sample_weights<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    debug_assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.random_range(0.0..1.0) * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return Some(i);
        }
    }
    // Floating-point slack: fall back to the last non-zero weight.
    weights.iter().rposition(|&w| w > 0.0)
}

/// The threshold no draw reaches, `2⁵³`: [`sample_weights`]'s uniform is
/// `u = j·2⁻⁵³` with `j = next_u64() >> 11 < 2⁵³`.
const NEVER: u64 = 1 << 53;

/// An RNG whose every word is one fixed value: feeds a chosen draw `j`
/// to [`sample_weights`] as the word `j << 11`.
struct ConstWord(u64);

impl Rng for ConstWord {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Writes to `out` the integer thresholds of `weights`, one per index
/// but the last: `Jᵢ = min{ j : choice(j) > i }`, where `choice(j)` is
/// the index [`sample_weights`] returns for the uniform `j·2⁻⁵³`, and
/// `2⁵³` (no draw reaches it) where no draw goes past `i`. The last
/// index's threshold is always `2⁵³`, so it is not stored. Then
/// [`sample_thresholds`] returns `sample_weights`' index from the same
/// RNG word.
///
/// The thresholds are exact by construction: `choice` is a
/// nondecreasing step function of `j` (see [`WeightTable`]: `fl(u·Σw)`
/// and every `fl(r − wᵢ)` are monotone in `u`, and the fallback index is
/// at or after any a negative running value selects), and each `Jᵢ` is
/// found by a search that asks `sample_weights` itself, fed a constant
/// word. The search starts at `⌈Σ_{t≤i} wₜ / Σw · 2⁵³⌉`, which is usually
/// within a few draws of `Jᵢ`, so it costs a handful of scans.
///
/// # Panics
/// Panics if every weight is zero: such a vector has no draws; or if
/// `out` is not one shorter than `weights`.
pub fn fill_thresholds(weights: &[f64], out: &mut [u64]) {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "thresholds of an all-zero weight vector");
    assert_eq!(out.len() + 1, weights.len(), "one threshold per weight but the last");
    let mut lo = 0;
    let mut cum = 0.0;
    for (i, (&w, t)) in weights.iter().zip(out).enumerate() {
        cum += w;
        let guess = (cum / total * NEVER as f64).ceil() as u64;
        // `choice` is monotone, so `J_{i−1}` bounds `Jᵢ` from below.
        lo = first_above(lo, guess, |j| sample_weights(&mut ConstWord(j << 11), weights) > Some(i));
        *t = lo;
    }
}

/// The least `j ∈ [lo, NEVER]` with `above(j)`, for a monotone `above`
/// that is false below `lo` and taken as true at [`NEVER`]: a gallop
/// out from `guess`, then a bisection of the bracket it finds.
fn first_above(mut lo: u64, guess: u64, above: impl Fn(u64) -> bool) -> u64 {
    // Invariant: `above` is false below `lo` and true at `hi`.
    let mut hi = NEVER;
    let g = guess.clamp(lo, hi);
    let mut step = 1;
    if g == hi || above(g) {
        hi = g;
        while hi - lo > step {
            if !above(hi - step) {
                lo = hi - step + 1;
                break;
            }
            hi -= step;
            step *= 2;
        }
    } else {
        lo = g + 1;
        while hi - lo > step {
            if above(lo + step - 1) {
                hi = lo + step - 1;
                break;
            }
            lo += step;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Draws an index from thresholds built by [`fill_thresholds`]: one RNG
/// word `j = next_u64() >> 11`, then the number of thresholds at or
/// below `j` (the unstored last one, `2⁵³`, never is). Returns exactly the index [`sample_weights`] returns on the
/// thresholds' weights from the same RNG state, and consumes the same
/// word.
#[inline]
pub fn sample_thresholds<R: Rng + ?Sized>(rng: &mut R, thresholds: &[u64]) -> usize {
    let j = rng.next_u64() >> 11;
    thresholds.iter().map(|&t| usize::from(j >= t)).sum()
}

/// Marks a guide bucket whose draws do not all select the same index.
const AMBIGUOUS: u32 = u32::MAX;

/// Fewest guide buckets worth building.
const MIN_GUIDE_BUCKETS: usize = 16;

/// Most guide buckets (4 KiB of guide).
const MAX_GUIDE_BUCKETS: usize = 1024;

/// Guide buckets per weight: at most `k − 1` buckets straddle an index
/// boundary, so at most one draw in this many falls back to the scan.
const GUIDE_BUCKETS_PER_WEIGHT: usize = 8;

/// Draws per guide bucket needed to build the guide. Building costs two
/// scans per bucket and a guided draw saves about one, so this leaves the
/// build at most half of what it saves.
const GUIDE_DRAWS_PER_BUCKET: usize = 4;

/// A weight vector with its total precomputed, for repeated categorical
/// draws over the *same* weights.
///
/// [`sample_weights`] re-sums the whole vector on every call — fine for
/// one-shot draws, pure waste inside `AppUnion`'s per-trial loop, which
/// draws thousands of times from one fixed vector. `WeightTable` hoists
/// the summation; its scan keeps the scalar subtraction loop of
/// `sample_weights` verbatim (same total, same fold order, same
/// fallback), so the two produce **bit-identical** draw sequences from
/// any RNG state — a property the `table_matches_sample_weights`
/// proptest pins down.
///
/// A table built by [`WeightTable::guided`] also splits `[0, 1)` into
/// `M = 2^b` equal buckets and stores, per bucket, the index the scan
/// returns for every `u` in it, when that index is unique. The scan's
/// index is monotone non-decreasing in `u`: `fl(u·total)` and each
/// `fl(r − w)` are monotone, so raising `u` can only move the first
/// negative running value later, and the `rposition` fallback is at or
/// after any index a negative value can select (a zero weight never
/// turns the running value negative). So if the scan gives one index at
/// both the smallest and the largest double of a bucket, it gives that
/// index for every `u` in between, and the stored answer is exact. A
/// draw still takes exactly one `random_range(0.0..1.0)` and scans only
/// when its bucket straddles an index boundary.
pub struct WeightTable<'a> {
    weights: &'a [f64],
    total: f64,
    /// Per-bucket index, or [`AMBIGUOUS`]; empty when unguided.
    guide: &'a [u32],
    /// `guide.len()` as a float, the bucket scale for `u`.
    buckets: f64,
}

impl<'a> WeightTable<'a> {
    /// Precomputes the total of `weights`.
    pub fn new(weights: &'a [f64]) -> Self {
        debug_assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
        WeightTable { weights, total: weights.iter().sum(), guide: &[], buckets: 0.0 }
    }

    /// A table for about `draws` draws: like [`WeightTable::new`], plus a
    /// guide table written into the caller-owned `guide` buffer when
    /// `draws` pays for building it. Draws are bit-identical either way;
    /// the guide only makes them cheaper.
    pub fn guided(weights: &'a [f64], draws: usize, guide: &'a mut Vec<u32>) -> Self {
        let mut table = WeightTable::new(weights);
        guide.clear();
        let buckets = (GUIDE_BUCKETS_PER_WEIGHT * weights.len())
            .next_power_of_two()
            .clamp(MIN_GUIDE_BUCKETS, MAX_GUIDE_BUCKETS);
        if weights.len() >= 2
            && table.total > 0.0
            && table.total.is_finite()
            && draws / GUIDE_DRAWS_PER_BUCKET >= buckets
        {
            let scale = buckets as f64;
            guide.extend((0..buckets).map(|j| {
                // The smallest and largest doubles in [j/M, (j+1)/M).
                let lo = table.scan(j as f64 / scale);
                let hi = table.scan(((j + 1) as f64 / scale).next_down());
                match (lo, hi) {
                    (Some(a), Some(b)) if a == b => a as u32,
                    _ => AMBIGUOUS,
                }
            }));
            table.buckets = scale;
        }
        table.guide = guide;
        table
    }

    /// True iff every weight is zero (or the slice is empty): no draw is
    /// possible and [`WeightTable::sample`] will return `None`.
    pub fn is_zero(&self) -> bool {
        self.total <= 0.0
    }

    /// Samples an index proportionally to the table's weights — the
    /// draw-identical counterpart of [`sample_weights`].
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.total <= 0.0 {
            return None;
        }
        let u = rng.random_range(0.0..1.0);
        // `u·M` is exact (M is a power of two) and below M, so the cast
        // is the bucket of `u`; an unguided table has no buckets.
        match self.guide.get((u * self.buckets) as usize) {
            Some(&i) if i != AMBIGUOUS => Some(i as usize),
            _ => self.scan(u),
        }
    }

    /// The reference draw for a given uniform `u ∈ [0, 1)`: the
    /// subtraction loop of [`sample_weights`].
    fn scan(&self, u: f64) -> Option<usize> {
        let mut target = u * self.total;
        for (i, &w) in self.weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return Some(i);
            }
        }
        // Floating-point slack: fall back to the last non-zero weight.
        self.weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Samples an index proportionally to [`ExtFloat`] weights.
///
/// The weights may individually exceed `f64` range; they are rescaled by
/// the maximum exponent before the draw, which preserves the ratios
/// exactly (weights more than ~2⁶⁴ below the maximum round to zero, which
/// is far below any probability the algorithms care about).
///
/// Returns `None` if all weights are zero.
pub fn sample_extfloat_weights<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[ExtFloat],
) -> Option<usize> {
    let max = weights.iter().filter(|w| !w.is_zero()).fold(ExtFloat::ZERO, |acc, w| {
        if *w > acc {
            *w
        } else {
            acc
        }
    });
    if max.is_zero() {
        return None;
    }
    let mut scaled = Vec::new();
    sample_extfloat_weights_with(rng, weights, &mut scaled)
}

/// [`sample_extfloat_weights`] with a caller-owned scratch buffer for the
/// rescaled weights, so repeated draws (one per sampler level per symbol)
/// allocate nothing. `buf` is cleared and refilled; the draw sequence is
/// identical to the allocating form.
pub fn sample_extfloat_weights_with<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[ExtFloat],
    buf: &mut Vec<f64>,
) -> Option<usize> {
    let max = weights.iter().filter(|w| !w.is_zero()).fold(ExtFloat::ZERO, |acc, w| {
        if *w > acc {
            *w
        } else {
            acc
        }
    });
    if max.is_zero() {
        return None;
    }
    buf.clear();
    buf.extend(weights.iter().map(|w| w.ratio(&max)));
    sample_weights(rng, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, SeedableRng};

    proptest! {
        /// The whole point of `WeightTable`: for any weight vector and
        /// any RNG seed, a sequence of table draws is bit-identical to a
        /// sequence of `sample_weights` calls (same indices *and* same
        /// RNG state consumed).
        #[test]
        fn table_matches_sample_weights(
            weights in proptest::collection::vec(0.0f64..1e12, 0..12),
            seed in any::<u64>(),
        ) {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            let table = WeightTable::new(&weights);
            for _ in 0..16 {
                prop_assert_eq!(table.sample(&mut a), sample_weights(&mut b, &weights));
            }
            // Identical RNG states after the draws.
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
        }

        /// Guided draws are the scan's draws: 1–64 weights mixing zeros,
        /// O(1) weights and weights down to ~1e-300 of them, drawn
        /// through a guide and through `sample_weights` from one seed,
        /// give the same indices and leave the RNG in the same state.
        #[test]
        fn guided_table_matches_sample_weights(
            spec in proptest::collection::vec((0u8..4, 1.0f64..10.0, 0i32..=300), 1..65),
            seed in any::<u64>(),
        ) {
            let weights = spread_weights(&spec);
            let mut guide = Vec::new();
            let table = WeightTable::guided(&weights, usize::MAX, &mut guide);
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            for _ in 0..256 {
                prop_assert_eq!(table.sample(&mut a), sample_weights(&mut b, &weights));
            }
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
        }

        /// Every bucket's two extreme draws, `j/M` and `(j+1)/M − 2⁻⁵³`,
        /// give the same index through the guide as through the scan.
        #[test]
        fn guide_bucket_edges_match_scan(
            spec in proptest::collection::vec((0u8..4, 1.0f64..10.0, 0i32..=300), 1..65),
        ) {
            let weights = spread_weights(&spec);
            let mut guide = Vec::new();
            let table = WeightTable::guided(&weights, usize::MAX, &mut guide);
            let buckets = table.guide.len();
            prop_assert!(buckets > 0 || weights.len() < 2 || table.is_zero());
            let ulp = 1.0 / (1u64 << 53) as f64;
            for j in 0..buckets {
                for u in [j as f64 / buckets as f64, (j + 1) as f64 / buckets as f64 - ulp] {
                    prop_assert_eq!(
                        table.sample(&mut FixedUnit::new(u)),
                        sample_weights(&mut FixedUnit::new(u), &weights),
                        "bucket {} of {}, u = {}", j, buckets, u
                    );
                }
            }
        }
    }

    /// Weight vectors of 1–8 weights mixing zeros and ratios down to
    /// 2⁻⁶⁰, at least one non-zero; with `single`, exactly one is.
    fn threshold_weights(spec: &[(u8, f64, i32)], single: bool, pick: usize) -> Vec<f64> {
        let mut weights: Vec<f64> = spec
            .iter()
            .map(|&(kind, m, e)| if kind == 0 { 0.0 } else { m * 2f64.powi(-e) })
            .collect();
        let keep = pick % weights.len();
        if weights[keep] == 0.0 {
            weights[keep] = spec[keep].1;
        }
        if single {
            for (i, w) in weights.iter_mut().enumerate() {
                if i != keep {
                    *w = 0.0;
                }
            }
        }
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// From any RNG state, the threshold draw returns
        /// `sample_weights`' index and consumes the same word.
        #[test]
        fn threshold_draw_matches_scan(
            spec in proptest::collection::vec((0u8..3, 1.0f64..2.0, 0i32..=60), 1..9),
            single in any::<bool>(),
            pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let weights = threshold_weights(&spec, single, pick);
            let mut thresholds = vec![0; weights.len() - 1];
            fill_thresholds(&weights, &mut thresholds);
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                prop_assert_eq!(
                    Some(sample_thresholds(&mut a, &thresholds)),
                    sample_weights(&mut b, &weights)
                );
            }
            prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
        }

        /// At every threshold's edges, `Jᵢ − 1`, `Jᵢ` and `Jᵢ + 1`, the
        /// threshold draw and the scan agree: a threshold one draw off
        /// would disagree at one of them.
        #[test]
        fn threshold_edges_match_scan(
            spec in proptest::collection::vec((0u8..3, 1.0f64..2.0, 0i32..=60), 1..9),
            single in any::<bool>(),
            pick in any::<usize>(),
        ) {
            let weights = threshold_weights(&spec, single, pick);
            let mut thresholds = vec![0; weights.len() - 1];
            fill_thresholds(&weights, &mut thresholds);
            prop_assert!(thresholds.windows(2).all(|w| w[0] <= w[1]), "{:?}", thresholds);
            prop_assert!(thresholds.iter().all(|&t| t <= NEVER), "{:?}", thresholds);
            for &t in &thresholds {
                for j in [t.wrapping_sub(1), t, t + 1].into_iter().filter(|&j| j < NEVER) {
                    prop_assert_eq!(
                        Some(sample_thresholds(&mut ConstWord(j << 11), &thresholds)),
                        sample_weights(&mut ConstWord(j << 11), &weights),
                        "draw {} of weights {:?}, thresholds {:?}", j, weights, thresholds
                    );
                }
            }
        }
    }

    /// Weights from `(kind, mantissa, exponent)` triples: kind 0 is a
    /// zero weight, kind 1 an O(1) weight, and kinds 2–3 are
    /// `mantissa · 10^-exponent`, down to ~1e-300.
    fn spread_weights(spec: &[(u8, f64, i32)]) -> Vec<f64> {
        spec.iter()
            .map(|&(kind, m, e)| match kind {
                0 => 0.0,
                1 => m,
                _ => m * 10f64.powi(-e),
            })
            .collect()
    }

    /// An RNG whose next `random_range(0.0..1.0)` is exactly `u` (a
    /// multiple of 2⁻⁵³ in `[0, 1)`), for pushing chosen draws through
    /// both routines.
    struct FixedUnit(u64);

    impl FixedUnit {
        fn new(u: f64) -> Self {
            let mut rng = FixedUnit(((u * (1u64 << 53) as f64) as u64) << 11);
            assert_eq!(rng.random_range(0.0..1.0), u);
            rng
        }
    }

    impl Rng for FixedUnit {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn guide_built_only_when_draws_pay() {
        let weights = [1.0, 2.0, 0.0, 4.0];
        let mut guide = Vec::new();
        WeightTable::guided(&weights, 10, &mut guide);
        assert!(guide.is_empty(), "10 draws do not pay for a guide");
        WeightTable::guided(&weights, 1 << 20, &mut guide);
        assert_eq!(guide.len(), 32);
        // Stale contents never survive a rebuild that skips the guide.
        WeightTable::guided(&[3.0], 1 << 20, &mut guide);
        assert!(guide.is_empty(), "one weight needs no guide");
        WeightTable::guided(&[0.0, 0.0], 1 << 20, &mut guide);
        assert!(guide.is_empty(), "all-zero weights have no draws");
        // Most buckets resolve without the scan.
        WeightTable::guided(&weights, 1 << 20, &mut guide);
        let ambiguous = guide.iter().filter(|&&g| g == AMBIGUOUS).count();
        assert!(ambiguous < weights.len(), "{ambiguous} ambiguous buckets");
    }

    #[test]
    fn table_zero_and_empty() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(WeightTable::new(&[]).is_zero());
        assert_eq!(WeightTable::new(&[]).sample(&mut rng), None);
        assert!(WeightTable::new(&[0.0, 0.0]).is_zero());
        assert_eq!(WeightTable::new(&[0.0, 0.0]).sample(&mut rng), None);
        assert!(!WeightTable::new(&[0.0, 2.0]).is_zero());
    }

    #[test]
    fn empty_and_zero_weights() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sample_weights(&mut rng, &[]), None);
        assert_eq!(sample_weights(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(sample_extfloat_weights(&mut rng, &[ExtFloat::ZERO]), None);
    }

    #[test]
    fn single_weight_always_chosen() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_weights(&mut rng, &[0.0, 3.0, 0.0]), Some(1));
        }
    }

    #[test]
    fn frequencies_match_weights() {
        let mut rng = SmallRng::seed_from_u64(2);
        let weights = [1.0, 2.0, 7.0];
        let mut counts = [0usize; 3];
        let trials = 60_000;
        for _ in 0..trials {
            counts[sample_weights(&mut rng, &weights).unwrap()] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / 10.0;
            let got = counts[i] as f64 / trials as f64;
            assert!((got - expect).abs() < 0.01, "index {i}: got {got}, expect {expect}");
        }
    }

    #[test]
    fn with_buffer_matches_allocating_form() {
        let weights = [ExtFloat::from_u64(3), ExtFloat::ZERO, ExtFloat::pow2(300)];
        let mut a = SmallRng::seed_from_u64(17);
        let mut b = SmallRng::seed_from_u64(17);
        let mut buf = Vec::new();
        for _ in 0..32 {
            assert_eq!(
                sample_extfloat_weights_with(&mut a, &weights, &mut buf),
                sample_extfloat_weights(&mut b, &weights)
            );
        }
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn extfloat_weights_extreme_range() {
        // 2^5000 vs 2^5001: ratios must survive the rescaling.
        let mut rng = SmallRng::seed_from_u64(3);
        let weights = [ExtFloat::pow2(5000), ExtFloat::pow2(5001)];
        let mut counts = [0usize; 2];
        let trials = 30_000;
        for _ in 0..trials {
            counts[sample_extfloat_weights(&mut rng, &weights).unwrap()] += 1;
        }
        let got = counts[1] as f64 / trials as f64;
        assert!((got - 2.0 / 3.0).abs() < 0.02, "got {got}");
    }

    #[test]
    fn extfloat_negligible_weight_never_dominates() {
        let mut rng = SmallRng::seed_from_u64(4);
        let weights = [ExtFloat::pow2(-10_000), ExtFloat::pow2(10_000)];
        for _ in 0..100 {
            assert_eq!(sample_extfloat_weights(&mut rng, &weights), Some(1));
        }
    }
}
