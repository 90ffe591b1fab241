//! E10 — `AppUnion` in isolation (Theorem 1).
//!
//! Controlled-overlap set families with known union sizes let us verify
//! the `(1+ε)(1+ε_sz)` sandwich, the error-vs-trials trade-off, and the
//! comparison against the ACJR-style exhaustive-fraction estimator at an
//! equal membership-operation budget.

use crate::table::{fnum, Table};
use fpras_automata::StateSet;
use fpras_core::sample_set::SampleSet;
use fpras_core::{app_union, Params, RunStats, UnionScratch, UnionSetInput};
use fpras_numeric::{stats, ExtFloat};
use rand::{rngs::SmallRng, RngExt, SeedableRng};

/// A synthetic family of `k` sets over the integers with a prescribed
/// pairwise-overlap fraction; returns per-set (samples, exact size) and
/// the exact union size.
struct Family {
    sets: Vec<(SampleSet, u64)>,
    union: u64,
}

fn build_family(k: usize, set_size: u64, overlap: f64, samples: usize, seed: u64) -> Family {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Set i covers [i·stride, i·stride + set_size): stride controls overlap.
    let stride = ((1.0 - overlap) * set_size as f64).round().max(1.0) as u64;
    let member_of = |w: u64| -> Vec<usize> {
        (0..k)
            .filter(|&i| {
                let lo = i as u64 * stride;
                (lo..lo + set_size).contains(&w)
            })
            .collect()
    };
    let union = stride * (k as u64 - 1) + set_size;
    let mut sets = Vec::with_capacity(k);
    for i in 0..k {
        let lo = i as u64 * stride;
        let mut s = SampleSet::empty();
        for _ in 0..samples {
            let w = rng.random_range(lo..lo + set_size);
            s.push(&StateSet::from_iter(k, member_of(w)));
        }
        sets.push((s, set_size));
    }
    Family { sets, union }
}

fn karp_luby_estimate(family: &Family, eps: f64, seed: u64) -> (f64, u64) {
    let mut params = Params::practical(0.2, 0.05, 8, 8);
    params.rotate_cursor = true;
    let inputs: Vec<UnionSetInput<'_>> = family
        .sets
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
    let est = app_union(
        &params,
        eps,
        0.05,
        0.0,
        &inputs,
        family.sets.len(),
        &mut rng,
        &mut UnionScratch::new(),
        &mut stats,
    );
    (est.value.to_f64(), stats.membership_ops)
}

/// The ACJR-style estimator: full pass over every sample list.
fn exhaustive_estimate(family: &Family) -> (f64, u64) {
    let k = family.sets.len();
    let mut total = 0.0;
    let mut ops = 0u64;
    let mut prefix = StateSet::empty(k);
    for (i, (s, sz)) in family.sets.iter().enumerate() {
        // One full cycle of the list, every sample tested once.
        let outside = s.count_disjoint(0, s.len(), prefix.words());
        ops += s.len() as u64;
        total += *sz as f64 * outside as f64 / s.len() as f64;
        prefix.insert(i);
    }
    (total, ops)
}

/// E10: Theorem 1 in isolation.
pub fn e10_appunion(quick: bool) -> String {
    let reps = if quick { 5 } else { 20 };
    let mut out = String::new();
    out.push_str(
        "### E10 — AppUnion in isolation (Theorem 1)\n\n\
         Claim: `(Y/t)·Σszᵢ` lands in the `(1+ε)(1+ε_sz)` sandwich w.h.p. with\n\
         `O(k·(1+ε_sz)²·ε⁻²·log(k/δ))` membership calls. Synthetic families of k = 8\n\
         sets, 4096 elements each, overlap-controlled; per-set sample lists of 4000.\n\n",
    );
    let mut table = Table::new(vec![
        "overlap",
        "ε",
        "mean rel-err (KL)",
        "p95 rel-err (KL)",
        "KL ops",
        "rel-err (exhaustive)",
        "exhaustive ops",
    ]);
    for &overlap in &[0.0, 0.5, 0.9] {
        for &eps in &[0.3, 0.1, 0.05] {
            let family = build_family(8, 4096, overlap, 4000, 500 + (overlap * 10.0) as u64);
            let mut errs = Vec::with_capacity(reps);
            let mut ops_total = 0u64;
            for r in 0..reps as u64 {
                let (est, ops) = karp_luby_estimate(&family, eps, 600 + r);
                errs.push((est - family.union as f64).abs() / family.union as f64);
                ops_total += ops;
            }
            let (ex_est, ex_ops) = exhaustive_estimate(&family);
            let ex_err = (ex_est - family.union as f64).abs() / family.union as f64;
            table.row(vec![
                format!("{overlap:.1}"),
                format!("{eps}"),
                fnum(stats::mean(&errs)),
                fnum(stats::percentile(&errs, 95.0)),
                fnum(ops_total as f64 / reps as f64),
                fnum(ex_err),
                fnum(ex_ops as f64),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "\nThe Karp–Luby column's error tracks ε while its op count tracks ε⁻²; the\n\
         exhaustive estimator is one fixed-cost pass whose accuracy is capped by the\n\
         stored-sample resolution — the trade the two papers make differently.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_union_math() {
        // overlap 0.5, size 100, k = 3: stride 50, union = 200.
        let f = build_family(3, 100, 0.5, 50, 1);
        assert_eq!(f.union, 200);
        // overlap 0, k = 2: disjoint, union = 2 * size.
        let f = build_family(2, 100, 0.0, 50, 2);
        assert_eq!(f.union, 200);
    }

    #[test]
    fn estimators_land_near_truth() {
        let f = build_family(4, 2048, 0.5, 3000, 3);
        let (kl, _) = karp_luby_estimate(&f, 0.1, 9);
        let (ex, _) = exhaustive_estimate(&f);
        let truth = f.union as f64;
        assert!((kl - truth).abs() / truth < 0.15, "kl {kl} vs {truth}");
        assert!((ex - truth).abs() / truth < 0.15, "ex {ex} vs {truth}");
    }

    #[test]
    fn e10_renders() {
        let out = e10_appunion(true);
        assert!(out.contains("E10"));
        assert!(out.contains("exhaustive ops"));
    }
}
