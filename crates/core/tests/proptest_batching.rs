//! Property tests for the batched union-estimation layer (D8).
//!
//! Two families of properties:
//!
//! * **Batched ≡ unbatched** — on random NFAs, toggling
//!   `Params::batch_unions` must not change a single cell of the run
//!   (estimates, stored samples, or the final count) for either entry
//!   point under the same seed. The batched path shares one `AppUnion` result
//!   per distinct frontier; the unbatched path re-runs it per
//!   `(cell, symbol)` pair on a clone of the same frontier-keyed RNG —
//!   any divergence means the fan-out, the canonical grouping, or the
//!   RNG discipline is wrong.
//! * **Canonicalization is a congruence** — equal frontiers produce
//!   equal memo keys and equal RNG tags regardless of how the sets were
//!   assembled (insertion order, universe padding), and unequal
//!   frontiers produce distinct keys.

use fpras_automata::StateSet;
use fpras_core::{run_parallel, FprasRun, FrontierInterner, Params};
use fpras_workloads::{random_nfa, RandomNfaConfig};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// Compares every observable cell of two runs.
fn assert_runs_identical(a: &FprasRun, b: &FprasRun, label: &str) {
    assert_eq!(a.estimate().to_f64(), b.estimate().to_f64(), "{label}: estimate");
    let (Some(m), Some(mb)) = (a.normalized_states(), b.normalized_states()) else {
        // Degenerate runs carry no table; the estimates already matched.
        return;
    };
    assert_eq!(m, mb, "{label}: normalized size");
    for ell in 0..=a.n() {
        for q in 0..m as u32 {
            assert_eq!(
                a.cell_estimate(q, ell).map(|e| e.to_f64()),
                b.cell_estimate(q, ell).map(|e| e.to_f64()),
                "{label}: N({q},{ell})"
            );
            assert_eq!(
                a.cell_genuine_samples(q, ell),
                b.cell_genuine_samples(q, ell),
                "{label}: S({q},{ell})"
            );
        }
    }
    // Sampler-side counters must agree too: the memo both passes seeded
    // must be interchangeable.
    assert_eq!(a.stats().sample_calls, b.stats().sample_calls, "{label}: sample calls");
    assert_eq!(a.stats().memo_hits, b.stats().memo_hits, "{label}: memo hits");
    assert_eq!(a.stats().samples_stored, b.stats().samples_stored, "{label}: samples");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_equals_unbatched_cell_for_cell(
        states in 2usize..7,
        density_tenths in 10u32..28,
        alphabet in 2usize..4,
        n in 4usize..9,
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let config = RandomNfaConfig {
            states,
            alphabet,
            density: density_tenths as f64 / 10.0,
            accepting: 1,
        };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(instance_seed));
        let mut batched = Params::practical(0.4, 0.1, states, n);
        batched.batch_unions = true;
        let mut unbatched = batched.clone();
        unbatched.batch_unions = false;

        // The serial API: one master seed drawn from the caller RNG.
        let mut rng_a = SmallRng::seed_from_u64(run_seed);
        let mut rng_b = SmallRng::seed_from_u64(run_seed);
        let a = FprasRun::run(&nfa, n, &batched, &mut rng_a).unwrap();
        let b = FprasRun::run(&nfa, n, &unbatched, &mut rng_b).unwrap();
        assert_runs_identical(&a, &b, "serial");
        // The RNG streams must remain aligned *after* the run too, or a
        // later consumer of the same RNG would diverge between modes.
        prop_assert_eq!(rng_a, rng_b);

        // run_parallel on three threads: frontier-tag-derived group
        // streams from the master seed.
        let c = run_parallel(&nfa, n, &batched, run_seed, 3).unwrap();
        let d = run_parallel(&nfa, n, &unbatched, run_seed, 3).unwrap();
        assert_runs_identical(&c, &d, "deterministic");

        // Work bookkeeping: identical output, work strictly ordered.
        prop_assert!(a.stats().membership_ops <= b.stats().membership_ops);
        prop_assert_eq!(b.stats().batch.cells_deduped, 0);
        prop_assert!(a.stats().batch.unions_run <= b.stats().batch.unions_run);
    }

    #[test]
    fn frontier_key_is_a_congruence(
        members in proptest::collection::vec(0usize..120, 1..12),
        padding in 0usize..100,
        level in 0usize..30,
    ) {
        // Same members, any insertion order, any universe padding ⇒ the
        // same canonical key (within one interner) and the same RNG tag
        // (even across interners over different universes).
        let mut members = members;
        let universe = 128;
        let interner = FrontierInterner::new(universe);
        let wide = FrontierInterner::new(universe + padding);
        let forward = StateSet::from_iter(universe, members.iter().copied());
        members.reverse();
        let backward = StateSet::from_iter(universe, members.iter().copied());
        let padded = StateSet::from_iter(universe + padding, members.iter().copied());
        let k_fwd = interner.intern(level, &forward);
        let k_bwd = interner.intern(level, &backward);
        prop_assert_eq!(&k_fwd, &k_bwd);
        prop_assert_eq!(k_fwd.frontier(), k_bwd.frontier());
        prop_assert_eq!(k_fwd.rng_tag(), k_bwd.rng_tag());
        prop_assert_eq!(k_fwd.rng_tag(), wide.intern(level, &padded).rng_tag());

        // Changing the membership changes the key (and, for distinct
        // sets, the tag — splitmix collisions at 64 bits would be a bug
        // in this tiny domain).
        let different: Vec<usize> = members.iter().map(|&s| (s + 1) % 121).collect();
        if StateSet::from_iter(universe, different.iter().copied()) != forward {
            let other = StateSet::from_iter(universe, different.iter().copied());
            prop_assert_ne!(&k_fwd, &interner.intern(level, &other));
            prop_assert_ne!(k_fwd.rng_tag(), interner.intern(level, &other).rng_tag());
        }
        // And so does the level (equal content shares one id there —
        // ids are content-only — but the tags must differ).
        let bumped = interner.intern(level + 1, &forward);
        prop_assert_eq!(k_fwd.frontier(), bumped.frontier());
        prop_assert_ne!(k_fwd.rng_tag(), bumped.rng_tag());
    }
}
