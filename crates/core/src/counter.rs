//! Algorithm 3's public result type.
//!
//! The DP itself lives in [`crate::engine`]: one level-synchronous loop
//! (count pass, then sample pass per level) on the engine's one
//! executor, [`Deterministic`](crate::engine::Deterministic). [`FprasRun`] is
//! what a finished run hands back — the estimate, instrumentation, and
//! the full `(N, S)` table, which doubles as an almost-uniform generator
//! for `L(A_n)` (see [`crate::generator::UniformGenerator`]).
//!
//! Normalizations applied before the DP (DESIGN.md D7):
//! * the automaton is trimmed to useful states — if nothing remains the
//!   count is 0;
//! * multiple accepting states are folded into one (Fig. 1's w.l.o.g.);
//! * `n = 0` is answered directly (`λ ∈ L(A)` iff the initial state
//!   accepts).

use crate::engine::{run_parallel, run_robp_parallel, RunInner};
use crate::error::FprasError;
use crate::params::Params;
use crate::run_stats::RunStats;
use fpras_automata::robp::Robp;
use fpras_automata::{Nfa, StateId};
use fpras_numeric::ExtFloat;
use rand::{Rng, RngExt};

/// A completed FPRAS run: the estimate plus the full `(N, S)` table.
pub struct FprasRun {
    /// The normalized automaton the DP ran on (trimmed, single accepting
    /// state). `None` for degenerate runs (empty language or `n = 0`).
    pub(crate) inner: Option<RunInner>,
    pub(crate) n: usize,
    pub(crate) estimate: ExtFloat,
    pub(crate) params: Params,
    pub(crate) stats: RunStats,
    /// For `n = 0` runs: whether λ is accepted (the generator emits λ).
    pub(crate) accepts_lambda: bool,
}

impl FprasRun {
    /// Runs the FPRAS on `nfa` for words of length `n`, single-threaded.
    ///
    /// Accepts any NFA (multiple accepting states are normalized away).
    /// Draws one `u64` master seed from `rng` and runs
    /// [`run_parallel`] at that seed on one thread, so seeded runs are
    /// reproducible and equal a `run_parallel` run at the drawn seed on
    /// any thread count (DESIGN.md D18).
    pub fn run<R: Rng + ?Sized>(
        nfa: &Nfa,
        n: usize,
        params: &Params,
        rng: &mut R,
    ) -> Result<FprasRun, FprasError> {
        run_parallel(nfa, n, params, rng.random(), 1)
    }

    /// Runs the FPRAS on an nROBP, single-threaded: [`run_robp_parallel`]
    /// at one master seed drawn from `rng`. The word length is the
    /// program's intrinsic depth (`robp.depth()`); see DESIGN.md D14 —
    /// the same engine runs on any [`crate::engine::LeveledSubstrate`].
    pub fn run_robp<R: Rng + ?Sized>(
        robp: &Robp,
        params: &Params,
        rng: &mut R,
    ) -> Result<FprasRun, FprasError> {
        run_robp_parallel(robp, params, rng.random(), 1)
    }

    /// The estimate for `|L(A_n)|`.
    pub fn estimate(&self) -> ExtFloat {
        self.estimate
    }

    /// The word length this run targeted.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Run instrumentation.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The parameters the run used.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Per-cell estimate `N(qℓ)` of the *normalized* automaton, for
    /// inspection and experiments. `None` for degenerate runs.
    pub fn cell_estimate(&self, q: StateId, level: usize) -> Option<ExtFloat> {
        self.inner.as_ref().map(|i| i.table.cell(level, q as usize).n_est)
    }

    /// Number of genuine samples stored at `(q, ℓ)` — the measured
    /// counterpart of the paper's samples-per-state accounting.
    pub fn cell_genuine_samples(&self, q: StateId, level: usize) -> Option<usize> {
        self.inner.as_ref().map(|i| i.table.cell(level, q as usize).samples.genuine_len())
    }

    /// Estimates for *every* slice `|L(A_ℓ)|`, `ℓ ∈ 0..=n`, from the one
    /// DP run — the unrolled table holds `N(q_F^ℓ)` for each level as a
    /// by-product (an extension the paper's template makes free).
    ///
    /// `None` for degenerate runs (empty language at length `n`, or
    /// `n = 0`), where only [`FprasRun::estimate`] is meaningful. The
    /// level-0 entry is exact (`λ ∈ L(A)` is decidable directly).
    pub fn slice_estimates(&self) -> Option<Vec<ExtFloat>> {
        let inner = self.inner.as_ref()?;
        let mut out = Vec::with_capacity(self.n + 1);
        out.push(if self.accepts_lambda { ExtFloat::ONE } else { ExtFloat::ZERO });
        for ell in 1..=self.n {
            out.push(inner.table.cell(ell, inner.q_final as usize).n_est);
        }
        Some(out)
    }

    /// The run's substrate cell-universe size (for the NFA front-end:
    /// the normalized automaton's state count after trimming and
    /// accepting-state folding); `None` for degenerate runs.
    pub fn normalized_states(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.substrate.universe())
    }

    #[cfg(test)]
    pub(crate) fn parts_for_test(
        &self,
    ) -> (&crate::table::RunTable, &dyn crate::engine::LeveledSubstrate) {
        let inner = self.inner.as_ref().expect("test requires a non-degenerate run");
        (&inner.table, &*inner.substrate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_automata::exact::count_exact;
    use fpras_automata::{Alphabet, NfaBuilder};
    use rand::{rngs::SmallRng, SeedableRng};

    fn all_words() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 1, q);
        b.build().unwrap()
    }

    fn contains_11() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q2);
        b.add_transition(q0, 0, q0);
        b.add_transition(q0, 1, q0);
        b.add_transition(q0, 1, q1);
        b.add_transition(q1, 1, q2);
        b.add_transition(q2, 0, q2);
        b.add_transition(q2, 1, q2);
        b.build().unwrap()
    }

    fn rel_err(est: ExtFloat, exact: u64) -> f64 {
        (est.to_f64() - exact as f64).abs() / exact as f64
    }

    #[test]
    fn n_zero_cases() {
        let nfa = all_words(); // accepts λ
        let params = Params::practical(0.3, 0.1, 1, 1);
        let mut rng = SmallRng::seed_from_u64(0);
        let run = FprasRun::run(&nfa, 0, &params, &mut rng).unwrap();
        assert_eq!(run.estimate().to_f64(), 1.0);

        let nfa = contains_11(); // does not accept λ
        let run = FprasRun::run(&nfa, 0, &params, &mut rng).unwrap();
        assert!(run.estimate().is_zero());
    }

    #[test]
    fn empty_slice_is_zero() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 1);
        let mut rng = SmallRng::seed_from_u64(0);
        // No length-1 word contains "11".
        let run = FprasRun::run(&nfa, 1, &params, &mut rng).unwrap();
        assert!(run.estimate().is_zero());
    }

    #[test]
    fn all_words_estimate_is_tight() {
        // Deterministic automaton: unions are singletons, so the only
        // noise is Monte-Carlo; the estimate should be very close to 2^n.
        let nfa = all_words();
        let n = 10;
        let params = Params::practical(0.2, 0.1, 1, n);
        let mut rng = SmallRng::seed_from_u64(42);
        let run = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
        let err = rel_err(run.estimate(), 1 << n);
        assert!(err < 0.2, "relative error {err}, estimate {}", run.estimate());
    }

    #[test]
    fn contains_11_estimate_within_eps() {
        let nfa = contains_11();
        let n = 10;
        let eps = 0.3;
        let exact = count_exact(&nfa, n).unwrap().to_u64().unwrap();
        let params = Params::practical(eps, 0.1, 3, n);
        let mut rng = SmallRng::seed_from_u64(7);
        let run = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
        let err = rel_err(run.estimate(), exact);
        assert!(
            err < eps,
            "relative error {err} vs eps {eps} (exact {exact}, est {})",
            run.estimate()
        );
        assert!(run.stats().sample_calls > 0);
        assert!(run.stats().membership_ops > 0);
    }

    #[test]
    fn budget_guard_trips() {
        let nfa = contains_11();
        let mut params = Params::practical(0.3, 0.1, 3, 8);
        params.max_membership_ops = Some(10);
        let mut rng = SmallRng::seed_from_u64(1);
        match FprasRun::run(&nfa, 8, &params, &mut rng) {
            Err(FprasError::BudgetExceeded { ops }) => assert!(ops > 10),
            other => {
                panic!("expected budget error, got estimate {:?}", other.map(|r| r.estimate()))
            }
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let nfa = all_words();
        let mut params = Params::practical(0.3, 0.1, 1, 4);
        params.eps = 2.0;
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            FprasRun::run(&nfa, 4, &params, &mut rng),
            Err(FprasError::InvalidParams(_))
        ));
    }

    #[test]
    fn reproducible_with_same_seed() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 8);
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            FprasRun::run(&nfa, 8, &params, &mut rng).unwrap().estimate()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn multi_accepting_normalized() {
        // Words ending in 1 OR containing 11, as two accepting states.
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q0);
        b.add_accepting(q1);
        b.add_transition(q0, 0, q0);
        b.add_transition(q0, 1, q1);
        b.add_transition(q1, 0, q0);
        b.add_transition(q1, 1, q1);
        let nfa = b.build().unwrap();
        let n = 8;
        let exact = count_exact(&nfa, n).unwrap().to_u64().unwrap();
        assert_eq!(exact, 256); // this DFA accepts everything
        let params = Params::practical(0.2, 0.1, 2, n);
        let mut rng = SmallRng::seed_from_u64(3);
        let run = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
        assert!(rel_err(run.estimate(), exact) < 0.2);
    }

    #[test]
    fn paper_profile_runs_on_micro_instance() {
        // The paper constants are enormous but finite for a 1-state, n=2
        // instance; override the error split to keep the test fast while
        // still exercising the PaperBreak cursor, noise injection and the
        // no-memoization path. ns stays above the per-call consumption so
        // the break path is the low-probability event the paper assumes.
        let nfa = all_words();
        let mut params = Params::paper(0.5, 0.3, 1, 2);
        params.beta_count = 0.3;
        params.beta_sample = 0.3;
        params.ns = 2000;
        params.xns = 16_000;
        let mut rng = SmallRng::seed_from_u64(9);
        let run = FprasRun::run(&nfa, 2, &params, &mut rng).unwrap();
        let err = rel_err(run.estimate(), 4);
        assert!(err < 0.5, "error {err}");
    }

    #[test]
    fn slice_estimates_cover_all_levels() {
        let nfa = contains_11();
        let n = 8;
        let params = Params::practical(0.25, 0.1, 3, n);
        let mut rng = SmallRng::seed_from_u64(17);
        let run = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
        let slices = run.slice_estimates().unwrap();
        assert_eq!(slices.len(), n + 1);
        assert!(slices[0].is_zero(), "lambda is not in the language");
        assert!(slices[1].is_zero(), "no length-1 word contains 11");
        for (ell, slice) in slices.iter().enumerate().skip(2) {
            let exact = count_exact(&nfa, ell).unwrap().to_f64();
            let err = (slice.to_f64() - exact).abs() / exact;
            assert!(err < 0.4, "level {ell}: err {err}");
        }
        assert_eq!(slices[n], run.estimate());
    }

    #[test]
    fn robp_run_matches_exact() {
        // The same engine, second substrate: an nROBP encoding of the
        // contains-11 slice must estimate the same count (D14).
        let nfa = contains_11();
        let n = 8;
        let robp = Robp::from_nfa(&nfa, n).unwrap();
        let exact = count_exact(&nfa, n).unwrap().to_u64().unwrap();
        let params = Params::practical(0.3, 0.1, robp.num_nodes(), n);
        let mut rng = SmallRng::seed_from_u64(12);
        let run = FprasRun::run_robp(&robp, &params, &mut rng).unwrap();
        assert_eq!(run.n(), n);
        let err = rel_err(run.estimate(), exact);
        assert!(err < 0.3, "relative error {err} (exact {exact}, est {})", run.estimate());
        assert!(run.stats().sample_calls > 0);
    }

    #[test]
    fn robp_empty_language_is_zero() {
        // A sink with no incoming path: the degenerate fast path.
        let mut b = fpras_automata::robp::RobpBuilder::new(Alphabet::binary(), 2);
        let s = b.add_node(0);
        let mid = b.add_node(1);
        let acc = b.add_node(2);
        b.set_source(s);
        b.add_accepting(acc);
        b.add_edge(s, 0, mid);
        let robp = b.build().unwrap();
        let params = Params::practical(0.3, 0.1, 3, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let run = FprasRun::run_robp(&robp, &params, &mut rng).unwrap();
        assert!(run.estimate().is_zero());
        assert!(run.slice_estimates().is_none());
    }

    #[test]
    fn robp_generator_emits_accepted_assignments() {
        let nfa = contains_11();
        let n = 7;
        let robp = Robp::from_nfa(&nfa, n).unwrap();
        let params = Params::practical(0.3, 0.1, robp.num_nodes(), n);
        let mut rng = SmallRng::seed_from_u64(3);
        let run = FprasRun::run_robp(&robp, &params, &mut rng).unwrap();
        let mut gen = crate::UniformGenerator::new(run);
        let words = gen.generate_many(&mut rng, 100);
        assert!(!words.is_empty());
        for w in words {
            assert_eq!(w.len(), n);
            assert!(robp.accepts(&w), "generated {w:?} not accepted");
            assert!(nfa.accepts(&w), "encoding must preserve the language");
        }
    }

    #[test]
    fn robp_depth_beyond_params_refused() {
        let nfa = contains_11();
        let robp = Robp::from_nfa(&nfa, 6).unwrap();
        let params = Params::practical(0.3, 0.1, robp.num_nodes(), 4);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            FprasRun::run_robp(&robp, &params, &mut rng),
            Err(FprasError::InvalidParams(_))
        ));
    }

    #[test]
    fn stats_are_populated() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 6);
        let mut rng = SmallRng::seed_from_u64(11);
        let run = FprasRun::run(&nfa, 6, &params, &mut rng).unwrap();
        let s = run.stats();
        assert!(s.cells_processed > 0);
        assert!(s.appunion_calls > 0);
        assert!(s.sample_success > 0);
        assert!(s.samples_per_cell() > 0.0);
        assert!(s.wall.as_nanos() > 0);
        // Memoization should be getting hits under the practical profile.
        assert!(s.memo_hits > 0);
    }
}
