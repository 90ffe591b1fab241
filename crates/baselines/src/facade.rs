//! Unified counter facade.
//!
//! The experiment harness runs many counters over the same instances;
//! this module gives them one entry point with one output shape, so the
//! comparison tables in EXPERIMENTS.md are generated by a single loop.

use fpras_automata::dfa::Dfa;
use fpras_automata::exact::{brute_force_count, count_exact, ExactError};
use fpras_automata::robp::Robp;
use fpras_automata::Nfa;
use fpras_bdd::BddError;
use fpras_core::{run_parallel, run_robp_parallel, FprasError, FprasRun, Params, PhaseWall};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};
use std::time::Instant;

use crate::acjr::{AcjrParams, AcjrRun};
use crate::naive::naive_mc;

/// Which counter to run.
#[derive(Debug, Clone, PartialEq)]
pub enum CounterKind {
    /// This paper's FPRAS (practical profile), driven through the
    /// level-synchronous engine in `fpras-core`.
    ///
    /// The facade seed is the engine's master seed, and `threads` the
    /// [`Deterministic`](fpras_core::Deterministic) executor's worker
    /// count (≥ 1): output is bit-identical for every thread count, so
    /// the knob trades wall time only. `batch = false` disables the
    /// engine's batched union estimation (D8): same output bit-for-bit
    /// under the same seed — the knob only shares work — so the row
    /// pair is the honest cost comparison in benchmark tables.
    Fpras {
        /// Worker threads (≥ 1).
        threads: usize,
        /// Share count-pass union estimates across same-frontier pairs
        /// (default).
        batch: bool,
    },
    /// The same FPRAS run through the nROBP substrate (DESIGN.md D14):
    /// the instance is first encoded as a read-once branching program
    /// ([`Robp::from_nfa`] — `L(robp) = L(A)_n` exactly), then counted
    /// by the identical engine over its `RobpSubstrate` front-end. Rows
    /// are directly comparable to the NFA-substrate [`CounterKind::Fpras`]
    /// rows on the same instance — statistically, not bit-for-bit: the
    /// node universe differs, so the frontier-keyed streams differ.
    RobpFpras {
        /// Worker threads (≥ 1).
        threads: usize,
        /// Share count-pass union estimates across same-frontier pairs.
        batch: bool,
    },
    /// The ACJR-style baseline (practical exponent).
    Acjr,
    /// Naive Monte Carlo with a fixed trial budget.
    NaiveMc {
        /// Number of uniform-word trials.
        trials: u64,
    },
    /// Path-count importance sampling with a fixed trial budget
    /// (unbiased; variance depends on the instance's ambiguity spread).
    PathIs {
        /// Number of accepting-path trials.
        trials: u64,
    },
    /// Exact level-wise determinization DP.
    ExactDp,
    /// Exact subset-construction DFA + linear counting DP.
    ExactDfa,
    /// Exact BDD compilation + model counting (`fpras-bdd`).
    ExactBdd,
    /// Exact enumeration of all `kⁿ` words (tiny `n` only).
    BruteForce,
}

impl CounterKind {
    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            CounterKind::Fpras { batch: true, .. } => "fpras(ours)",
            CounterKind::Fpras { batch: false, .. } => "fpras(unbatched)",
            CounterKind::RobpFpras { batch: true, .. } => "robp(ours)",
            CounterKind::RobpFpras { batch: false, .. } => "robp(unbatched)",
            CounterKind::Acjr => "acjr-style",
            CounterKind::NaiveMc { .. } => "naive-mc",
            CounterKind::PathIs { .. } => "path-is",
            CounterKind::ExactDp => "exact-dp",
            CounterKind::ExactDfa => "exact-dfa",
            CounterKind::ExactBdd => "exact-bdd",
            CounterKind::BruteForce => "brute-force",
        }
    }
}

/// Errors from the unified facade.
#[derive(Debug, Clone, PartialEq)]
pub enum CounterError {
    /// The FPRAS or baseline rejected its parameters or budget.
    Fpras(FprasError),
    /// An exact method blew up (subset cap).
    Exact(ExactError),
    /// The BDD-based exact method blew up (node budget).
    Bdd(BddError),
}

impl std::fmt::Display for CounterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CounterError::Fpras(e) => write!(f, "{e}"),
            CounterError::Exact(e) => write!(f, "{e}"),
            CounterError::Bdd(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CounterError {}

/// One counter's output on one instance.
#[derive(Debug, Clone)]
pub struct CounterOutput {
    /// The (estimated or exact) count.
    pub estimate: ExtFloat,
    /// True iff the method is exact.
    pub exact: bool,
    /// Membership/word operations attributed to the run (0 where the
    /// method has no such notion).
    pub ops: u64,
    /// `(cell, symbol)` pairs answered by the engine's batched
    /// union-estimation layer instead of their own `AppUnion` run
    /// (0 for non-FPRAS methods and unbatched runs).
    pub cells_deduped: u64,
    /// `AppUnion` calls that ran trials: one per count-pass frontier
    /// group and one per distinct sampler frontier the memo missed (0
    /// for non-FPRAS methods). Part of the output, like `ops`.
    pub appunion_calls: u64,
    /// Chunks the work-stealing executor moved between workers (D10;
    /// 0 for non-FPRAS methods and single-thread pools — scheduling
    /// evidence, not part of the deterministic output).
    pub pool_steals: u64,
    /// Distinct frontiers hash-consed by the run's interner (§2.5; 0
    /// for non-FPRAS methods).
    pub distinct_frontiers: u64,
    /// Frontier-key constructions answered by an existing interned
    /// entry — each one an allocation the pre-interner hot path paid
    /// (0 for non-FPRAS methods).
    pub intern_hits: u64,
    /// Wall time attributed to the engine's per-level phases
    /// (plan/count/sample/merge; all-zero for non-FPRAS methods,
    /// whose work has no phase structure).
    pub phase: PhaseWall,
    /// Wall-clock duration.
    pub wall: std::time::Duration,
}

impl CounterOutput {
    /// Output for methods outside the FPRAS engine: every engine-layer
    /// counter (dedup, `AppUnion` calls) is zero. `ops` is 0 where the
    /// method has no such notion.
    fn plain(estimate: ExtFloat, exact: bool, ops: u64, wall: std::time::Duration) -> Self {
        CounterOutput {
            estimate,
            exact,
            ops,
            cells_deduped: 0,
            appunion_calls: 0,
            pool_steals: 0,
            distinct_frontiers: 0,
            intern_hits: 0,
            phase: PhaseWall::default(),
            wall,
        }
    }

    /// Output of an FPRAS engine run that started at `start`.
    fn from_run(run: &FprasRun, start: Instant) -> Self {
        let s = run.stats();
        CounterOutput {
            estimate: run.estimate(),
            exact: false,
            ops: s.membership_ops,
            cells_deduped: s.batch.cells_deduped,
            appunion_calls: s.appunion_calls,
            pool_steals: s.pool.steals,
            distinct_frontiers: s.intern.distinct_frontiers,
            intern_hits: s.intern.intern_hits,
            phase: s.phase,
            wall: start.elapsed(),
        }
    }
}

/// Runs `kind` on `(nfa, n)` with accuracy targets `(eps, delta)` and a
/// deterministic seed.
pub fn run_counter(
    kind: &CounterKind,
    nfa: &Nfa,
    n: usize,
    eps: f64,
    delta: f64,
    seed: u64,
) -> Result<CounterOutput, CounterError> {
    let start = Instant::now();
    match kind {
        CounterKind::Fpras { threads, batch } => {
            let mut params = Params::practical(eps, delta, nfa.num_states(), n);
            params.batch_unions = *batch;
            let run = run_parallel(nfa, n, &params, seed, *threads).map_err(CounterError::Fpras)?;
            Ok(CounterOutput::from_run(&run, start))
        }
        CounterKind::RobpFpras { threads, batch } => {
            let robp = match Robp::from_nfa(nfa, n) {
                Ok(r) => r,
                Err(_) => {
                    // n = 0 (λ is decided directly) or an empty slice:
                    // the encoding refuses, and the count is exact.
                    let accepts_lambda = n == 0 && nfa.is_accepting(nfa.initial());
                    let est = if accepts_lambda { ExtFloat::ONE } else { ExtFloat::ZERO };
                    return Ok(CounterOutput::plain(est, true, 0, start.elapsed()));
                }
            };
            let mut params = Params::practical(eps, delta, robp.num_nodes(), n);
            params.batch_unions = *batch;
            let run =
                run_robp_parallel(&robp, &params, seed, *threads).map_err(CounterError::Fpras)?;
            Ok(CounterOutput::from_run(&run, start))
        }
        CounterKind::Acjr => {
            let params = AcjrParams::practical(eps, delta, nfa.num_states(), n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let run = AcjrRun::run(nfa, n, &params, &mut rng).map_err(CounterError::Fpras)?;
            Ok(CounterOutput::plain(
                run.estimate(),
                false,
                run.stats().membership_ops,
                start.elapsed(),
            ))
        }
        CounterKind::NaiveMc { trials } => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let r = naive_mc(nfa, n, *trials, &mut rng);
            Ok(CounterOutput::plain(r.estimate, false, r.trials, start.elapsed()))
        }
        CounterKind::PathIs { trials } => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let r = crate::path_is::path_importance_sampling(nfa, n, *trials, &mut rng);
            let estimate = r.map_or(ExtFloat::ZERO, |r| r.estimate);
            Ok(CounterOutput::plain(estimate, false, *trials, start.elapsed()))
        }
        CounterKind::ExactDp => {
            let c = count_exact(nfa, n).map_err(CounterError::Exact)?;
            Ok(CounterOutput::plain(ExtFloat::from_biguint(&c), true, 0, start.elapsed()))
        }
        CounterKind::ExactDfa => {
            let dfa = Dfa::determinize(nfa, 1 << 22).map_err(CounterError::Exact)?;
            let c = dfa.count_slice(n);
            Ok(CounterOutput::plain(ExtFloat::from_biguint(&c), true, 0, start.elapsed()))
        }
        CounterKind::ExactBdd => {
            let c = fpras_bdd::count_slice(nfa, n).map_err(CounterError::Bdd)?;
            Ok(CounterOutput::plain(ExtFloat::from_biguint(&c), true, 0, start.elapsed()))
        }
        CounterKind::BruteForce => {
            let c = brute_force_count(nfa, n);
            Ok(CounterOutput::plain(ExtFloat::from_biguint(&c), true, 0, start.elapsed()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_automata::{Alphabet, NfaBuilder};

    fn ends_in_1() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q1);
        for sym in [0, 1] {
            b.add_transition(q0, sym, q0);
        }
        b.add_transition(q0, 1, q1);
        b.build().unwrap()
    }

    #[test]
    fn all_counters_agree_on_easy_instance() {
        let nfa = ends_in_1();
        let n = 8;
        let exact = 128.0;
        for kind in [
            CounterKind::Fpras { threads: 1, batch: true },
            CounterKind::RobpFpras { threads: 1, batch: true },
            CounterKind::RobpFpras { threads: 2, batch: false },
            CounterKind::Acjr,
            CounterKind::NaiveMc { trials: 50_000 },
            CounterKind::PathIs { trials: 20_000 },
            CounterKind::ExactDp,
            CounterKind::ExactDfa,
            CounterKind::ExactBdd,
            CounterKind::BruteForce,
        ] {
            let out = run_counter(&kind, &nfa, n, 0.25, 0.1, 7).unwrap();
            let err = (out.estimate.to_f64() - exact).abs() / exact;
            let tolerance = if out.exact { 1e-9 } else { 0.25 };
            assert!(err <= tolerance, "{}: error {err}", kind.label());
        }
    }

    #[test]
    fn fpras_threads_knob_is_wall_time_only() {
        // The facade output must be bit-identical across thread counts.
        let nfa = ends_in_1();
        let n = 10;
        let one =
            run_counter(&CounterKind::Fpras { threads: 1, batch: true }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        let four =
            run_counter(&CounterKind::Fpras { threads: 4, batch: true }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        assert_eq!(one.estimate, four.estimate);
        assert_eq!(one.ops, four.ops);
        // And it is accurate.
        let err = (one.estimate.to_f64() - 512.0).abs() / 512.0;
        assert!(err < 0.25, "error {err}");
    }

    #[test]
    fn fpras_batch_knob_is_work_only() {
        // Disabling batched union estimation re-runs identical AppUnion
        // calls per (cell, symbol) pair: the estimate must be
        // bit-identical under the same seed while the op count grows.
        let nfa = ends_in_1();
        let n = 10;
        let batched =
            run_counter(&CounterKind::Fpras { threads: 2, batch: true }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        let unbatched =
            run_counter(&CounterKind::Fpras { threads: 2, batch: false }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        assert_eq!(batched.estimate, unbatched.estimate);
        assert!(batched.cells_deduped > 0, "ends-in-1 shares frontiers across symbols");
        assert_eq!(unbatched.cells_deduped, 0);
        assert!(
            batched.ops < unbatched.ops,
            "batched {} ops must undercut unbatched {}",
            batched.ops,
            unbatched.ops
        );
    }

    #[test]
    fn robp_threads_knob_is_wall_time_only() {
        // The substrate swap preserves the engine's D10 guarantee: the
        // executor's output is thread-count independent.
        let nfa = ends_in_1();
        let n = 10;
        let one =
            run_counter(&CounterKind::RobpFpras { threads: 1, batch: true }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        let four =
            run_counter(&CounterKind::RobpFpras { threads: 4, batch: true }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        assert_eq!(one.estimate, four.estimate);
        assert_eq!(one.ops, four.ops);
        let err = (one.estimate.to_f64() - 512.0).abs() / 512.0;
        assert!(err < 0.25, "error {err}");
    }

    #[test]
    fn robp_batch_knob_is_work_only() {
        let nfa = ends_in_1();
        let n = 10;
        let batched =
            run_counter(&CounterKind::RobpFpras { threads: 2, batch: true }, &nfa, n, 0.25, 0.1, 9)
                .unwrap();
        let unbatched = run_counter(
            &CounterKind::RobpFpras { threads: 2, batch: false },
            &nfa,
            n,
            0.25,
            0.1,
            9,
        )
        .unwrap();
        assert_eq!(batched.estimate, unbatched.estimate);
        assert_eq!(unbatched.cells_deduped, 0);
        assert!(batched.ops <= unbatched.ops);
    }

    #[test]
    fn robp_degenerate_slices_are_exact() {
        // Empty slice (ends-in-1 has no length-0 word) and λ handling.
        let nfa = ends_in_1();
        let out =
            run_counter(&CounterKind::RobpFpras { threads: 1, batch: true }, &nfa, 0, 0.25, 0.1, 1)
                .unwrap();
        assert!(out.exact);
        assert!(out.estimate.is_zero());
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            CounterKind::Fpras { threads: 1, batch: true },
            CounterKind::Fpras { threads: 1, batch: false },
            CounterKind::RobpFpras { threads: 1, batch: true },
            CounterKind::RobpFpras { threads: 1, batch: false },
            CounterKind::Acjr,
            CounterKind::NaiveMc { trials: 1 },
            CounterKind::PathIs { trials: 1 },
            CounterKind::ExactDp,
            CounterKind::ExactDfa,
            CounterKind::ExactBdd,
            CounterKind::BruteForce,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
