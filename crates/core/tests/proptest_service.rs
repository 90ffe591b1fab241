//! Property tests for the query-session service layer (DESIGN.md D11).
//!
//! The subsystem's load-bearing invariant: a [`QuerySession`] that has
//! served **any** interleaving of smaller and larger queries answers
//! `estimate(n)` bit-identically to a fresh engine run at `n` under the
//! same seed and policy. Four property families enforce it on random
//! NFAs and random query orders:
//!
//! * **Session ≡ fresh, per query** — for every queried length, the
//!   session's answer equals a fresh run from scratch, bit for bit:
//!   `run_parallel` at threads 1/2/8, and the serial API
//!   `FprasRun::run` for a session at the master seed that API draws
//!   from its caller RNG — including re-queries of lengths the session
//!   answered before extending further.
//! * **Generator ≡ session draw** — a session built straight to the
//!   largest length does the fresh run's work (ops, union calls and
//!   sampler counters) and draws the words a [`UniformGenerator`] over
//!   that fresh run draws from the same caller seed.
//! * **Queries are inert** — interleaved `sample` queries (which
//!   consume caller randomness and insert frontier-keyed memo entries)
//!   must not perturb any later extension.
//! * **Registry transparency** — routing the same stream through a
//!   capacity-limited [`ServiceRegistry`] (evictions included) returns
//!   the same answers as dedicated sessions.

use fpras_core::service::{QuerySession, ServiceRegistry, SessionKey, SessionPolicy};
use fpras_core::{run_parallel, FprasRun, Params, UniformGenerator};
use fpras_workloads::{random_nfa, RandomNfaConfig};
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};

/// The one-thread session policy `FprasRun::run` matches under a caller
/// RNG seeded `rng_seed`: the master seed that API draws first.
fn serial_api_policy(rng_seed: u64) -> SessionPolicy {
    SessionPolicy::Deterministic { seed: SmallRng::seed_from_u64(rng_seed).random(), threads: 1 }
}

fn session_params(states: usize, n: usize) -> Params {
    Params::for_session(0.4, 0.1, states, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serial_session_matches_fresh_runs_bitwise(
        states in 2usize..7,
        density_tenths in 10u32..28,
        alphabet in 2usize..4,
        lengths in proptest::collection::vec(1usize..9, 3..7),
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
        let max_n = *lengths.iter().max().expect("non-empty");
        let params = session_params(states, max_n);
        let mut session = QuerySession::new(
            &nfa,
            params.clone(),
            serial_api_policy(run_seed),
        ).unwrap();
        // Random query order, including revisits after extension.
        let mut lengths = lengths;
        lengths.push(lengths[0]);
        for &n in &lengths {
            let got = session.estimate(n).unwrap();
            let mut rng = SmallRng::seed_from_u64(run_seed);
            let fresh = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
            prop_assert_eq!(got, fresh.estimate(), "serial, n = {}", n);
        }
    }

    #[test]
    fn deterministic_session_matches_fresh_runs_bitwise(
        states in 2usize..7,
        density_tenths in 10u32..26,
        lengths in proptest::collection::vec(1usize..9, 3..6),
        max_n in 1usize..9,
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
        caller_seed in 0u64..1_000,
    ) {
        let config = RandomNfaConfig {
            states,
            alphabet: 2,
            density: density_tenths as f64 / 10.0,
            accepting: 1,
        };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(instance_seed));
        let params = session_params(states, max_n);
        let mut lengths: Vec<usize> = lengths.into_iter().map(|n| n.min(max_n)).collect();
        lengths.push(lengths[0]);
        for threads in [1usize, 2, 8] {
            // Built straight to max_n, a session is the fresh run's
            // table: the same work, and the same words drawn from it.
            let policy = SessionPolicy::Deterministic { seed: run_seed, threads };
            let mut session = QuerySession::new(&nfa, params.clone(), policy).unwrap();
            let got = session.estimate(max_n).unwrap();
            let fresh = run_parallel(&nfa, max_n, &params, run_seed, threads).unwrap();
            prop_assert_eq!(got, fresh.estimate(), "t = {}, n = {}", threads, max_n);
            if fresh.slice_estimates().is_some() {
                let (a, b) = (session.run_stats(), fresh.stats());
                prop_assert_eq!(a.membership_ops, b.membership_ops);
                prop_assert_eq!(a.appunion_calls, b.appunion_calls);
                prop_assert_eq!(a.walk_steps, b.walk_steps);
                prop_assert_eq!(a.trials_unwalked, b.trials_unwalked);
                prop_assert_eq!(a.walks_sure, b.walks_sure);
            }
            let mut generator = UniformGenerator::new(fresh);
            let mut session_rng = SmallRng::seed_from_u64(caller_seed);
            let mut generator_rng = SmallRng::seed_from_u64(caller_seed);
            for draw in 0..8 {
                prop_assert_eq!(
                    session.sample(max_n, &mut session_rng).unwrap(),
                    generator.generate(&mut generator_rng),
                    "t = {}, draw {}",
                    threads,
                    draw
                );
            }
        }
        for threads in [1usize, 2, 8] {
            let mut session = QuerySession::new(
                &nfa,
                params.clone(),
                SessionPolicy::Deterministic { seed: run_seed, threads },
            ).unwrap();
            for &n in &lengths {
                let got = session.estimate(n).unwrap();
                let fresh = run_parallel(&nfa, n, &params, run_seed, threads).unwrap();
                prop_assert_eq!(
                    got,
                    fresh.estimate(),
                    "deterministic t = {}, n = {}",
                    threads,
                    n
                );
            }
        }
    }

    #[test]
    fn sampling_between_queries_is_inert(
        states in 2usize..6,
        density_tenths in 12u32..26,
        small in 1usize..5,
        extra in 1usize..5,
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let config = RandomNfaConfig {
            states,
            alphabet: 2,
            density: density_tenths as f64 / 10.0,
            accepting: 1,
        };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(instance_seed));
        let large = small + extra;
        let params = session_params(states, large);
        let mut session = QuerySession::new(
            &nfa,
            params.clone(),
            serial_api_policy(run_seed),
        ).unwrap();
        session.estimate(small).unwrap();
        // Sampling draws from the caller's RNG and inserts only
        // frontier-keyed (value-congruent) memo entries: the later
        // extension must not see any of it.
        let mut caller = SmallRng::seed_from_u64(instance_seed ^ run_seed);
        for _ in 0..10 {
            if let Some(w) = session.sample(small, &mut caller).unwrap() {
                prop_assert_eq!(w.len(), small);
                prop_assert!(nfa.accepts(&w), "sampled word must be accepted");
            }
        }
        let got = session.estimate(large).unwrap();
        let mut rng = SmallRng::seed_from_u64(run_seed);
        let fresh = FprasRun::run(&nfa, large, &params, &mut rng).unwrap();
        prop_assert_eq!(got, fresh.estimate());
    }

    #[test]
    fn registry_routing_is_transparent(
        states_a in 2usize..5,
        states_b in 2usize..5,
        lengths in proptest::collection::vec((0usize..2, 1usize..8), 4..10),
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mk = |states: usize, salt: u64| random_nfa(
            &RandomNfaConfig { states, alphabet: 2, density: 1.8, accepting: 1 },
            &mut SmallRng::seed_from_u64(instance_seed ^ salt),
        );
        let automata = [mk(states_a, 0xA), mk(states_b, 0xB)];
        let params: Vec<Params> = automata
            .iter()
            .map(|nfa| session_params(nfa.num_states(), 8))
            .collect();
        let policy = SessionPolicy::Deterministic { seed: run_seed, threads: 1 };
        // Capacity 1 forces evictions on every automaton switch; the
        // answers must still match dedicated per-automaton sessions.
        let mut registry = ServiceRegistry::new(1);
        let mut dedicated: Vec<QuerySession> = automata
            .iter()
            .zip(&params)
            .map(|(nfa, p)| QuerySession::new(nfa, p.clone(), policy.clone()).unwrap())
            .collect();
        for &(which, n) in &lengths {
            let key = SessionKey::new(&automata[which], &params[which], &policy);
            let via_registry = registry
                .session_with_key_recycled(key, &automata[which], &params[which], &policy)
                .unwrap()
                .0
                .estimate(n)
                .unwrap();
            let direct = dedicated[which].estimate(n).unwrap();
            prop_assert_eq!(via_registry, direct, "automaton {}, n = {}", which, n);
        }
        let totals = registry.session_totals();
        prop_assert_eq!(totals.queries_served, lengths.len() as u64);
    }
}
