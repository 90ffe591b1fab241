//! *A faster FPRAS for #NFA* (Meel ⓡ Chakraborty ⓡ Mathur, PODS 2024) —
//! approximate counting and almost-uniform sampling for slices of regular
//! languages.
//!
//! Given an NFA `A` with `m` states and a length `n`, the FPRAS estimates
//! `|L(A_n)|` — the number of length-`n` accepted words — within a factor
//! `(1±ε)` with probability `1−δ`, in time polynomial in `m`, `n`, `1/ε`
//! and `log(1/δ)`. The same run yields an almost-uniform generator over
//! `L(A_n)`.
//!
//! # Quickstart
//!
//! ```
//! use fpras_automata::{Alphabet, NfaBuilder};
//! use fpras_core::{estimate_count, FprasRun, Params, UniformGenerator};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // Binary words containing "11".
//! let mut b = NfaBuilder::new(Alphabet::binary());
//! let (q0, q1, q2) = (b.add_state(), b.add_state(), b.add_state());
//! b.set_initial(q0);
//! b.add_accepting(q2);
//! b.add_transition(q0, 0, q0);
//! b.add_transition(q0, 1, q0);
//! b.add_transition(q0, 1, q1);
//! b.add_transition(q1, 1, q2);
//! b.add_transition(q2, 0, q2);
//! b.add_transition(q2, 1, q2);
//! let nfa = b.build().unwrap();
//!
//! // Count length-10 words with ε = 0.3, δ = 0.1.
//! let result = estimate_count(&nfa, 10, 0.3, 0.1, 42).unwrap();
//! let exact = 880.0; // ground truth for this toy
//! assert!((result.estimate.to_f64() - exact).abs() / exact < 0.3);
//!
//! // The finished run doubles as an almost-uniform generator.
//! let params = Params::practical(0.3, 0.1, nfa.num_states(), 10);
//! let mut rng = SmallRng::seed_from_u64(7);
//! let run = FprasRun::run(&nfa, 10, &params, &mut rng).unwrap();
//! let mut gen = UniformGenerator::new(run);
//! let word = gen.generate(&mut rng).unwrap();
//! assert!(nfa.accepts(&word));
//! ```
//!
//! # Architecture
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`appunion`] | Algorithm 1 (`AppUnion`, Theorem 1) |
//! | [`sampler`] | Algorithm 2 (`sample`, Theorem 2) |
//! | [`engine`] | Algorithm 3's level-synchronous DP, one code path on one executor ([`Deterministic`], bit-identical at every thread count) |
//! | [`intern`] | frontier hash-consing: dense ids + one word arena behind every sharing/memo key (DESIGN.md §2.5) |
//! | [`counter`] | Algorithm 3's result type ([`FprasRun`], Theorem 3) |
//! | [`params`] | parameter derivations (paper + practical profiles) |
//! | [`generator`] | counting↔sampling inter-reducibility (§1.1) |
//! | [`median`] | median-of-runs confidence amplification |
//! | [`obs`] | phase-attributed timing, latency histograms, structured trace sink, metrics exposition (DESIGN.md D15) |
//!
//! Faithfulness deviations are catalogued in `DESIGN.md` §3 and are all
//! switchable through [`Params`].

#![warn(missing_docs)]

pub mod appunion;
pub mod counter;
pub mod engine;
pub mod error;
pub mod generator;
pub mod intern;
pub mod median;
pub mod obs;
pub mod params;
pub mod run_stats;
pub mod sample_set;
pub mod sampler;
pub mod service;
pub mod table;

pub use appunion::{app_union, frontier_inputs, UnionEstimate, UnionScratch, UnionSetInput};
pub use counter::FprasRun;
pub use engine::{
    run_parallel, run_robp_parallel, Deterministic, FrontierGroup, LevelPlan, LeveledSubstrate,
    MemoEntry, MemoTier, NfaSubstrate, Pool, RobpSubstrate, UnionMemo, MAX_THREADS,
};
pub use error::FprasError;
pub use generator::UniformGenerator;
pub use intern::{FrontierId, FrontierInterner, InternStats};
pub use median::{median_amplified, median_amplified_parallel, runs_needed, MedianEstimate};
pub use obs::{
    JsonlSink, LatencyHistogram, MemorySink, PhaseWall, PromText, TraceEvent, TraceSink,
};
pub use params::{CursorPolicy, Params, Profile};
pub use run_stats::{BatchStats, MemoStats, PoolStats, RunStats, ShareStats};
pub use sample_set::SampleSet;
pub use service::{
    nfa_fingerprint, robp_fingerprint, AdmissionController, QuerySession, QuotaConfig, QuotaDenied,
    QuotaStats, ServiceRegistry, ServiceStats, SessionPolicy, SessionStats,
};
pub use table::SampleOutcome;

use fpras_automata::Nfa;
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};

/// Result of [`estimate_count`].
#[derive(Debug, Clone)]
pub struct CountResult {
    /// The `(1±ε)` estimate of `|L(A_n)|`.
    pub estimate: ExtFloat,
    /// Instrumentation of the run.
    pub stats: RunStats,
    /// The resolved parameters that were used.
    pub params: Params,
}

/// Estimates the number of accepted words of length *at most* `n`
/// (`Σ_{ℓ≤n} |L(A_ℓ)|`) from a single run, using the per-slice estimates
/// the DP produces as a by-product (see [`FprasRun::slice_estimates`]).
///
/// Falls back to per-slice runs only in the degenerate case where the
/// length-`n` slice is empty but shorter slices may not be.
pub fn estimate_count_up_to(
    nfa: &Nfa,
    n: usize,
    eps: f64,
    delta: f64,
    seed: u64,
) -> Result<ExtFloat, FprasError> {
    let params = Params::practical(eps, delta, nfa.num_states(), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let run = FprasRun::run(nfa, n, &params, &mut rng)?;
    if let Some(slices) = run.slice_estimates() {
        return Ok(slices.into_iter().sum());
    }
    // Degenerate at length n: price each slice separately.
    let mut total = run.estimate();
    for ell in 0..n {
        let params = Params::practical(eps, delta, nfa.num_states(), ell.max(1));
        let run = FprasRun::run(nfa, ell, &params, &mut rng)?;
        total = total + run.estimate();
    }
    Ok(total)
}

/// One-call convenience: estimates `|L(A_n)|` with the practical profile
/// and a fixed seed (runs are fully reproducible given the seed).
pub fn estimate_count(
    nfa: &Nfa,
    n: usize,
    eps: f64,
    delta: f64,
    seed: u64,
) -> Result<CountResult, FprasError> {
    let params = Params::practical(eps, delta, nfa.num_states(), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let run = FprasRun::run(nfa, n, &params, &mut rng)?;
    Ok(CountResult { estimate: run.estimate(), stats: run.stats().clone(), params })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_automata::{Alphabet, NfaBuilder};

    #[test]
    fn estimate_count_convenience() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 1, q);
        let nfa = b.build().unwrap();
        let r = estimate_count(&nfa, 8, 0.3, 0.1, 1).unwrap();
        let err = (r.estimate.to_f64() - 256.0).abs() / 256.0;
        assert!(err < 0.3, "err {err}");
        assert!(r.stats.cells_processed > 0);
        assert_eq!(r.params.profile, Profile::Practical);
    }

    #[test]
    fn count_up_to_sums_slices() {
        // all-words: sum over ℓ ≤ n of 2^ℓ = 2^{n+1} - 1.
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 1, q);
        let nfa = b.build().unwrap();
        let n = 8;
        let expect = (1u64 << (n + 1)) as f64 - 1.0;
        let got = estimate_count_up_to(&nfa, n, 0.3, 0.1, 4).unwrap().to_f64();
        assert!((got - expect).abs() / expect < 0.3, "got {got}, expect {expect}");
    }

    #[test]
    fn count_up_to_handles_empty_top_slice() {
        // Even-length language at odd n: top slice empty, shorter ones not.
        let nfa =
            fpras_automata::regex::compile_regex("((0|1)(0|1))*", &Alphabet::binary()).unwrap();
        let got = estimate_count_up_to(&nfa, 5, 0.3, 0.1, 6).unwrap().to_f64();
        // 1 + 4 + 16 = 21 (lengths 0, 2, 4).
        assert!((got - 21.0).abs() / 21.0 < 0.35, "got {got}");
    }

    #[test]
    fn estimate_count_deterministic_per_seed() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 1, q);
        let nfa = b.build().unwrap();
        let a = estimate_count(&nfa, 6, 0.3, 0.1, 9).unwrap().estimate;
        let b2 = estimate_count(&nfa, 6, 0.3, 0.1, 9).unwrap().estimate;
        assert_eq!(a, b2);
    }
}
