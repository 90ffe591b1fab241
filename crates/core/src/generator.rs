//! Almost-uniform generation from a finished FPRAS run.
//!
//! Counting and almost-uniform generation are inter-reducible for
//! self-reducible problems (Jerrum–Valiant–Vazirani; paper §1.1), and the
//! FPRAS's `(N, S)` table *is* the generator: one more call to
//! Algorithm 2 at `(q_F, n)` emits each word of `L(A_n)` with probability
//! `γ₀` (Theorem 2(1)), so conditioning on non-⊥ gives an almost-uniform
//! draw. This module packages that as a retrying generator API — the
//! counterpart of the paper's regular-path-query *sampling* application.
//! A generator draws through the run's one draw path, the one a
//! [`QuerySession`](crate::service::QuerySession)'s `sample` takes, so
//! a session at the same seed draws the same words.

use crate::counter::FprasRun;
use fpras_automata::Word;
use rand::Rng;

/// Number of ⊥ results tolerated per draw before giving up, for
/// generators and session `sample` queries alike.
/// Theorem 2(2) bounds the per-call failure probability by
/// `1 − 2/(3e²) ≈ 0.91`, so 400 retries push the miss probability below
/// `0.91⁴⁰⁰ < 10⁻¹⁶` even at the worst-case rate.
pub const DEFAULT_RETRY_LIMIT: usize = 400;

/// An almost-uniform generator over `L(A_n)`.
///
/// Wraps a completed [`FprasRun`]; each [`UniformGenerator::generate`]
/// call replays Algorithm 2 from the accepting state through the run's
/// one draw path, the same one a session's `sample` takes. The generator
/// mutates the run's union memo (when memoization is enabled) and
/// sampler scratch, hence `&mut self`.
pub struct UniformGenerator {
    run: FprasRun,
}

impl UniformGenerator {
    /// Builds a generator from a finished run.
    pub fn new(run: FprasRun) -> Self {
        UniformGenerator { run }
    }

    /// Access to the underlying run (estimate, stats, parameters).
    pub fn run(&self) -> &FprasRun {
        &self.run
    }

    /// Consumes the generator, returning the run.
    pub fn into_run(self) -> FprasRun {
        self.run
    }

    /// Draws one almost-uniform word from `L(A_n)`.
    ///
    /// Returns `None` when the language slice is empty or every one of
    /// [`DEFAULT_RETRY_LIMIT`] retries failed (probability
    /// `≤ (1 − 2/(3e²))^limit` under accurate estimates). Each call is
    /// one retry loop of the sampler, and so its own epoch (DESIGN.md
    /// D21): whether a retry ends before walking depends only on the
    /// call's own retries.
    pub fn generate<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Word> {
        let FprasRun { inner, n, params, stats, accepts_lambda, .. } = &mut self.run;
        match inner {
            Some(run) => run.draw(*n, params, rng, stats),
            // Degenerate runs: empty language or the n = 0 special case.
            None => accepts_lambda.then(Word::empty),
        }
    }

    /// Draws up to `count` words (fewer only on repeated failure).
    pub fn generate_many<R: Rng + ?Sized>(&mut self, rng: &mut R, count: usize) -> Vec<Word> {
        (0..count).filter_map(|_| self.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::FprasRun;
    use crate::engine::Run;
    use crate::params::Params;
    use crate::sampler::{sample_one, SamplerEnv};
    use crate::table::SampleOutcome;
    use crate::RunStats;
    use fpras_automata::exact::count_exact;
    use fpras_automata::{Alphabet, Nfa, NfaBuilder};
    use fpras_numeric::stats::tv_to_uniform;
    use rand::{rngs::SmallRng, SeedableRng};
    use std::collections::HashMap;

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

    fn generator_for(nfa: &Nfa, n: usize, seed: u64) -> (UniformGenerator, SmallRng) {
        let params = Params::practical(0.25, 0.1, nfa.num_states(), n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let run = FprasRun::run(nfa, n, &params, &mut rng).unwrap();
        (UniformGenerator::new(run), rng)
    }

    #[test]
    fn generated_words_are_accepted() {
        let nfa = contains_11();
        let (mut g, mut rng) = generator_for(&nfa, 7, 21);
        for w in g.generate_many(&mut rng, 300) {
            assert_eq!(w.len(), 7);
            assert!(nfa.accepts(&w), "generated {w:?} not in language");
        }
    }

    #[test]
    fn empty_language_returns_none() {
        let nfa = contains_11();
        let (mut g, mut rng) = generator_for(&nfa, 1, 2);
        assert_eq!(g.generate(&mut rng), None);
    }

    #[test]
    fn n_zero_generator() {
        // All-words automaton accepts λ.
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 1, q);
        let nfa = b.build().unwrap();
        let (mut g, mut rng) = generator_for(&nfa, 0, 3);
        assert_eq!(g.generate(&mut rng), Some(Word::empty()));
    }

    #[test]
    fn distribution_close_to_uniform() {
        let nfa = contains_11();
        let n = 5; // 8 accepted words of length 5... (exact below)
        let support = count_exact(&nfa, n).unwrap().to_u64().unwrap() as usize;
        let (mut g, mut rng) = generator_for(&nfa, n, 1234);
        let draws = 20_000;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for w in g.generate_many(&mut rng, draws) {
            *counts.entry(w.to_index(2)).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), support, "every accepted word should appear");
        let tv = tv_to_uniform(&counts, support);
        // Practical-profile estimates put TV well under the eps used.
        assert!(tv < 0.1, "TV distance {tv}");
    }

    /// Words drawn in one epoch — one retry loop, so trials exit before
    /// walking once the start node has closed — are as close to uniform
    /// as separate draws: the coin is drawn first and an exit only
    /// replaces a tails outcome, so the law of the words is unchanged.
    #[test]
    fn one_epoch_draws_close_to_uniform() {
        use crate::sampler::sample_words;
        use std::ops::ControlFlow;
        let regex = fpras_automata::regex::compile_regex(
            "(0|1)*1(0|1)(0|1)(0|1)((00)*|(111)*)",
            &Alphabet::binary(),
        )
        .unwrap();
        for (nfa, n) in [(contains_11(), 5), (regex, 8)] {
            let support = count_exact(&nfa, n).unwrap().to_u64().unwrap() as usize;
            let (mut g, mut rng) = generator_for(&nfa, n, 1234);
            let FprasRun { inner, params, .. } = &mut g.run;
            let Run { substrate, interner, table, memo, sampler_seed, q_final, scratch, .. } =
                inner.as_mut().unwrap();
            let env = SamplerEnv {
                params,
                substrate: &**substrate,
                interner,
                sampler_seed: *sampler_seed,
            };
            let mut stats = RunStats::default();
            let mut counts: HashMap<u64, u64> = HashMap::new();
            sample_words(
                &env,
                table,
                memo,
                *q_final,
                n,
                120_000,
                &mut rng,
                scratch,
                &mut stats,
                |out| {
                    if let SampleOutcome::Word(trail) = out {
                        *counts.entry(trail.to_word().to_index(2)).or_insert(0) += 1;
                    }
                    ControlFlow::Continue(())
                },
            );
            assert!(stats.trials_unwalked > 60_000, "exits fired {} times", stats.trials_unwalked);
            assert!(stats.sample_success > 20_000, "{} words", stats.sample_success);
            assert_eq!(counts.len(), support, "every accepted word should appear");
            let tv = tv_to_uniform(&counts, support);
            assert!(tv < 0.1, "n = {n}: TV distance {tv}");
        }
    }

    #[test]
    fn rejection_rate_within_theorem_bound() {
        // Theorem 2(2): Pr[⊥] ≤ 1 − 2/(3e²) per call — with accurate
        // estimates the observed rate is ≈ 1 − 2/(3e) ≈ 0.755.
        let nfa = contains_11();
        let (mut g, mut rng) = generator_for(&nfa, 8, 77);
        let _ = g.generate_many(&mut rng, 500);
        let rate = g.run().stats().rejection_rate();
        let bound = 1.0 - 2.0 / (3.0 * std::f64::consts::E * std::f64::consts::E);
        assert!(rate <= bound + 0.02, "rejection rate {rate} above bound {bound}");
    }

    /// The retry loop stops at its attempt limit: with one attempt per
    /// draw, some draws return `None`.
    #[test]
    fn retry_limit_respected() {
        let nfa = contains_11();
        let (mut g, _rng) = generator_for(&nfa, 6, 5);
        let FprasRun { inner, params, .. } = &mut g.run;
        let Run { substrate, interner, table, memo, sampler_seed, q_final, scratch, .. } =
            inner.as_mut().unwrap();
        let env =
            SamplerEnv { params, substrate: &**substrate, interner, sampler_seed: *sampler_seed };
        let mut stats = RunStats::default();
        let mut rng = SmallRng::seed_from_u64(8);
        let got: Vec<_> = (0..200)
            .map(|_| sample_one(&env, table, memo, *q_final, 6, 1, &mut rng, scratch, &mut stats))
            .collect();
        let some = got.iter().filter(|w| w.is_some()).count();
        let none = got.len() - some;
        assert!(some > 0, "some draws should succeed");
        assert!(none > 0, "with one retry some draws should fail");
    }
}
