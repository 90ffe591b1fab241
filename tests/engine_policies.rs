//! Engine executor contracts:
//!
//! * the engine's one executor is **bit-identical** across
//!   `threads = 1/2/8/16` on seeded runs — table, stats, and estimate —
//!   and so is a budget abort's reported op count;
//! * both entry points, `run_parallel` (master seed) and the serial API
//!   `FprasRun::run` (caller RNG, one thread), meet the `(ε, δ)`
//!   accuracy contract on small instances with exact ground truth;
//! * the serial API is a thin wrapper: it equals `run_parallel` at the
//!   master seed it draws from its RNG.

use fpras_automata::exact::count_exact;
use fpras_automata::robp::Robp;
use fpras_core::service::{QuerySession, SessionPolicy};
use fpras_core::UniformGenerator;
use fpras_core::{run_parallel, run_robp_parallel, FprasError, FprasRun, Params, RunStats};
use fpras_workloads::families;
use rand::{rngs::SmallRng, RngExt, SeedableRng};

#[test]
fn deterministic_policy_bit_identical_across_1_2_8_16_threads() {
    for (label, nfa, n) in [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("ones-mod-3", families::ones_mod_k(3), 9),
    ] {
        let m = nfa.num_states();
        let params = Params::practical(0.3, 0.1, m, n);
        for seed in [7u64, 99] {
            // threads = 16 oversubscribes every host this runs on — the
            // work-stealing pool must stay bit-identical even when
            // workers outnumber both the hardware and most levels'
            // items (the sequential cutoff then eats whole passes).
            let runs: Vec<_> = [1usize, 2, 8, 16]
                .iter()
                .map(|&t| run_parallel(&nfa, n, &params, seed, t).unwrap())
                .collect();
            for (i, run) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    runs[0].estimate().to_f64(),
                    run.estimate().to_f64(),
                    "{label} seed {seed}: estimate differs at thread setting #{i}"
                );
                // Bit-identity is stronger than the final estimate: the
                // whole random process must match, so compare the
                // instrumentation counters and the full cell table.
                assert_eq!(runs[0].stats().membership_ops, run.stats().membership_ops);
                assert_eq!(runs[0].stats().sample_calls, run.stats().sample_calls);
                assert_eq!(runs[0].stats().samples_stored, run.stats().samples_stored);
                assert_eq!(runs[0].stats().memo_hits, run.stats().memo_hits);
                for ell in 0..=n {
                    for q in 0..m as u32 {
                        assert_eq!(
                            runs[0].cell_estimate(q, ell).map(|e| e.to_f64()),
                            run.cell_estimate(q, ell).map(|e| e.to_f64()),
                            "{label} seed {seed}: cell ({q}, {ell})"
                        );
                        assert_eq!(
                            runs[0].cell_genuine_samples(q, ell),
                            run.cell_genuine_samples(q, ell),
                            "{label} seed {seed}: samples at ({q}, {ell})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn serial_policy_meets_eps_delta_on_exact_ground_truth() {
    policy_accuracy_sweep(|nfa, n, params, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        FprasRun::run(nfa, n, params, &mut rng).unwrap().estimate().to_f64()
    });
}

#[test]
fn deterministic_policy_meets_eps_delta_on_exact_ground_truth() {
    policy_accuracy_sweep(|nfa, n, params, seed| {
        run_parallel(nfa, n, params, seed, 4).unwrap().estimate().to_f64()
    });
}

/// Runs the given estimator over small instances with known counts;
/// with δ = 0.1 per run, 10 seeds per instance must land within ε at
/// least 9 times (the expected failure count is 1).
fn policy_accuracy_sweep(estimate: impl Fn(&fpras_automata::Nfa, usize, &Params, u64) -> f64) {
    let eps = 0.3;
    for (label, nfa, n) in [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("ones-mod-4", families::ones_mod_k(4), 10),
        ("div-by-5", families::divisible_by(5), 10),
    ] {
        let exact = count_exact(&nfa, n).unwrap().to_f64();
        assert!(exact > 0.0, "{label}: test instance must be non-empty");
        let params = Params::practical(eps, 0.1, nfa.num_states(), n);
        let runs = 10;
        let within = (0..runs)
            .filter(|&seed| {
                let est = estimate(&nfa, n, &params, 1000 + seed);
                (est - exact).abs() / exact < eps
            })
            .count();
        assert!(within >= 9, "{label}: only {within}/{runs} runs within ε = {eps}");
    }
}

/// Closes the silent stats gap: `RunStats` was never asserted against
/// structural invariants before the batching layer made double-counting
/// an easy bug to write. Every `(cell, symbol)` pair of every count pass
/// must be accounted for exactly once — either its union estimate ran,
/// or it was skipped (deduplicated onto a groupmate, or trivially
/// empty): `unions_run + unions_skipped == cells_processed × k`.
fn assert_stats_invariants(stats: &RunStats, k: u64, label: &str) {
    let pairs = stats.cells_processed * k;
    assert_eq!(
        stats.batch.unions_run + stats.batch.unions_skipped,
        pairs,
        "{label}: every (cell, symbol) pair must be estimated or skipped \
         ({} run + {} skipped vs {} pairs)",
        stats.batch.unions_run,
        stats.batch.unions_skipped,
        pairs
    );
    // Deduplicated pairs are a subset of the skipped ones.
    assert!(
        stats.batch.cells_deduped <= stats.batch.unions_skipped,
        "{label}: deduped {} exceeds skipped {}",
        stats.batch.cells_deduped,
        stats.batch.unions_skipped
    );
    // Groups cannot outnumber executed estimations in batched mode nor
    // pairs in any mode.
    assert!(stats.batch.groups_formed <= pairs, "{label}: groups exceed pairs");
    // The count pass runs AppUnion exactly unions_run times; the rest of
    // appunion_calls belong to the sampler's memo misses (D9).
    assert_eq!(
        stats.appunion_calls,
        stats.batch.unions_run + stats.memo_misses,
        "{label}: appunion accounting"
    );
    // No pass pre-estimates sampler frontiers any more.
    assert_eq!(stats.share.preestimate_hits, 0, "{label}: the share counter is always zero");
    assert_eq!(stats.phase.share, std::time::Duration::ZERO, "{label}: no share phase");
}

#[test]
fn run_stats_union_invariants_hold_for_all_paths() {
    for (label, nfa, n) in [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("div-by-5", families::divisible_by(5), 9),
    ] {
        let k = nfa.alphabet().size() as u64;
        for batch in [true, false] {
            let mut params = Params::practical(0.3, 0.1, nfa.num_states(), n);
            params.batch_unions = batch;
            let mut rng = SmallRng::seed_from_u64(17);
            let serial = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
            assert_stats_invariants(serial.stats(), k, &format!("{label}/serial/batch={batch}"));
            let det = run_parallel(&nfa, n, &params, 17, 4).unwrap();
            assert_stats_invariants(det.stats(), k, &format!("{label}/det/batch={batch}"));
            if batch {
                assert!(
                    serial.stats().batch.cells_deduped > 0,
                    "{label}: these fixtures share frontiers, dedup must fire"
                );
                // No cell deep-cloned the memo: every snapshot shared
                // the base layer.
                assert!(
                    det.stats().memo.snapshots > 0 && det.stats().memo.entries_shared > 0,
                    "{label}: CoW snapshots must be taken and share the base"
                );
            } else {
                assert_eq!(serial.stats().batch.cells_deduped, 0, "{label}");
                assert_eq!(det.stats().batch.cells_deduped, 0, "{label}");
            }
        }
    }
}

#[test]
fn pool_stats_surface_matches_the_policy() {
    // A one-thread run (the serial API) never wakes a worker; every run
    // accounts for every scheduled item exactly once, either on the
    // pool or on the sequential-cutoff path.
    let narrow = families::contains_substring(&[1, 1]);
    let n = 10;
    let params = Params::practical(0.3, 0.1, narrow.num_states(), n);
    let mut rng = SmallRng::seed_from_u64(3);
    let serial = FprasRun::run(&narrow, n, &params, &mut rng).unwrap();
    let pool = &serial.stats().pool;
    assert!(pool.sequential_passes > 0, "one-thread passes run inline");
    assert_eq!((pool.parallel_passes, pool.steals), (0, 0), "one thread has no workers");

    let det = run_parallel(&narrow, n, &params, 3, 4).unwrap();
    let pool = &det.stats().pool;
    assert!(pool.parallel_items + pool.sequential_items > 0, "passes must be recorded");
    assert_eq!(pool.worker_items.iter().sum::<u64>(), pool.parallel_items, "item attribution");
    // contains-11 normalizes to ≤ 4 states: every pass is below the
    // threads × steal_chunk = 8 cutoff, so nothing may wake the pool.
    assert_eq!(pool.parallel_passes, 0, "tiny levels must take the sequential cutoff");
    assert_eq!(pool.steals, 0);

    // A wide instance must actually engage the pool.
    let wide = fpras_workloads::random_nfa(
        &fpras_workloads::RandomNfaConfig { states: 24, alphabet: 2, density: 2.0, accepting: 2 },
        &mut SmallRng::seed_from_u64(71),
    );
    let params = Params::practical(0.4, 0.1, wide.num_states(), 8);
    let det = run_parallel(&wide, 8, &params, 5, 4).unwrap();
    let pool = &det.stats().pool;
    assert!(pool.parallel_passes > 0, "wide levels must fan out: {pool:?}");
    assert_eq!(pool.worker_items.iter().sum::<u64>(), pool.parallel_items);
    // Worker-attributed ops are a subset of the run's membership ops
    // (cell assembly and sequential passes are not attributed).
    assert!(
        pool.worker_ops.iter().sum::<u64>() <= det.stats().membership_ops,
        "attributed ops cannot exceed the run total"
    );
}

/// The first 16 words a generator over `run` draws from a fixed stream.
fn first_words(run: FprasRun) -> Vec<String> {
    let mut generator = UniformGenerator::new(run);
    let mut rng = SmallRng::seed_from_u64(11);
    (0..16)
        .map(|_| {
            let w = generator.generate(&mut rng).expect("non-empty language");
            w.symbols().iter().map(|&s| char::from(b'0' + s)).collect()
        })
        .collect()
}

/// What pins a run: estimate bits, membership ops, and its first words.
fn fingerprint(run: FprasRun) -> (u64, u64, Vec<String>) {
    let (bits, ops) = (run.estimate().to_f64().to_bits(), run.stats().membership_ops);
    (bits, ops, first_words(run))
}

#[test]
fn serial_api_and_threads_1_share_the_engine() {
    // The serial API draws one master seed from its caller RNG and runs
    // the engine at one thread: it must equal `run_parallel` /
    // `run_robp_parallel` at that seed, at any thread count, on the
    // estimate bits, the op count and the generator's words.
    let nfa = families::contains_substring(&[1, 0, 1]);
    let n = 9;
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    let robp = Robp::from_nfa(&families::contains_substring(&[1, 1]), 8).unwrap();
    let robp_params = Params::practical(0.3, 0.1, robp.num_nodes(), robp.depth());
    for rng_seed in [4u64, 7, 99] {
        let seed: u64 = SmallRng::seed_from_u64(rng_seed).random();
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let api = fingerprint(FprasRun::run(&nfa, n, &params, &mut rng).unwrap());
        for threads in [1usize, 2] {
            let direct = fingerprint(run_parallel(&nfa, n, &params, seed, threads).unwrap());
            assert_eq!(api, direct, "rng seed {rng_seed}, threads {threads}");
        }

        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let api = fingerprint(FprasRun::run_robp(&robp, &robp_params, &mut rng).unwrap());
        for threads in [1usize, 2] {
            let direct =
                fingerprint(run_robp_parallel(&robp, &robp_params, seed, threads).unwrap());
            assert_eq!(api, direct, "robp: rng seed {rng_seed}, threads {threads}");
        }
    }
}

/// The op count a budget abort reports, or a panic if the call did not
/// abort on the budget.
fn budget_ops<T>(result: Result<T, FprasError>) -> u64 {
    match result {
        Err(FprasError::BudgetExceeded { ops }) => ops,
        Err(e) => panic!("expected a budget abort, got {e}"),
        Ok(_) => panic!("expected a budget abort, the call completed"),
    }
}

#[test]
fn budget_aborts_are_deterministic_across_thread_counts() {
    // Every pass runs to completion and the engine checks the budget
    // between passes, so the op total a budget abort reports is part
    // of the output: identical at every thread count, for a fresh run
    // and for a session extension alike.
    let wide = fpras_workloads::random_nfa(
        &fpras_workloads::RandomNfaConfig { states: 24, alphabet: 2, density: 2.0, accepting: 2 },
        &mut SmallRng::seed_from_u64(71),
    );
    let n = 8;
    let mut params = Params::for_session(0.4, 0.1, wide.num_states(), n);
    let total = run_parallel(&wide, n, &params, 5, 1).unwrap().stats().membership_ops;
    // Trips halfway through the run, not on its first pass.
    params.max_membership_ops = Some(total / 2);
    let fresh: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&threads| budget_ops(run_parallel(&wide, n, &params, 5, threads)))
        .collect();
    let sessions: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let policy = SessionPolicy::Deterministic { seed: 5, threads };
            let mut session = QuerySession::new(&wide, params.clone(), policy).unwrap();
            budget_ops(session.estimate(n))
        })
        .collect();
    assert!(fresh[0] > total / 2 && fresh[0] < total, "{fresh:?} vs total {total}");
    assert_eq!(fresh, vec![fresh[0]; 3], "fresh runs at threads 1/2/8");
    assert_eq!(sessions, fresh, "a session extension aborts exactly like a fresh run");
}
