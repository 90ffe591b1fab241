//! The checkpointed run: the one `(N, S)` table behind fresh runs,
//! generators and query sessions.
//!
//! The paper's table is both the counter and the generator: Algorithm 3
//! fills it level by level and Algorithm 2 draws from it (Theorem 2).
//! [`Run`] owns that table together with everything a level or a draw
//! reads — the substrate, the frontier interner, the union memo, the
//! sampler seed and the sampler's scratch — and the number of levels
//! built so far. Every caller goes through its four operations:
//!
//! * [`Run::open`] normalizes the input and seeds level 0;
//! * [`Run::extend_to`] builds the missing levels with `run_level`;
//! * [`Run::estimate`] reads one level's estimate;
//! * [`Run::draw`] runs Algorithm 2 once from the final cell.
//!
//! A fresh run ([`super::run_parallel`], [`super::run_robp_parallel`])
//! is `open` then one `extend_to(n)`; a
//! [`QuerySession`](crate::service::QuerySession) keeps the run and
//! calls `extend_to` again whenever a query reaches past the checkpoint.
//! Both execute this one code path, which is why a session extended to
//! `n` is bit-identical to a fresh run at `n` (DESIGN.md D11).

use super::policy::sampler_union_seed;
use super::{
    run_level, Deterministic, EngineCtx, LeveledSubstrate, NfaSubstrate, RobpSubstrate, UnionMemo,
};
use crate::error::FprasError;
use crate::generator::DEFAULT_RETRY_LIMIT;
use crate::intern::FrontierInterner;
use crate::obs::{emit_with, trace_enabled, TraceEvent};
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::sample_set::SampleSet;
use crate::sampler::{sample_one, SamplerEnv, SamplerScratch};
use crate::table::RunTable;
use fpras_automata::ops::{trim, with_single_accepting};
use fpras_automata::robp::Robp;
use fpras_automata::{Nfa, StateId, StateSet, Word};
use fpras_numeric::ExtFloat;
use rand::Rng;
use std::time::Instant;

/// What a run is compiled from: one of the engine's two leveled
/// substrates (DESIGN.md D14). Every entry point that needs an input
/// takes `impl Into<Source>`, so `&Nfa` and `&Robp` both pass straight
/// through one constructor, one key and one registry lookup.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// A word automaton: runs answer `|L(A_n)|` for every `n`.
    Nfa(&'a Nfa),
    /// A non-deterministic read-once branching program: runs answer its
    /// assignment count at `n = depth`.
    Robp(&'a Robp),
}

impl<'a> From<&'a Nfa> for Source<'a> {
    fn from(nfa: &'a Nfa) -> Self {
        Source::Nfa(nfa)
    }
}

impl<'a> From<&'a Robp> for Source<'a> {
    fn from(robp: &'a Robp) -> Self {
        Source::Robp(robp)
    }
}

impl Source<'_> {
    /// `λ ∈ L` of the input as given: length-0 queries are answered from
    /// this directly. A read-once program accepts only full assignments.
    pub(crate) fn accepts_lambda(&self) -> bool {
        match self {
            Source::Nfa(nfa) => nfa.is_accepting(nfa.initial()),
            Source::Robp(_) => false,
        }
    }
}

/// Normalizes an automaton for the DP (DESIGN.md D7): trims to useful
/// states and folds the accepting states into one. Returns `None` when
/// trimming leaves nothing (the language is empty at every length > 0).
fn normalize_for_run(nfa: &Nfa) -> Option<(Nfa, StateId)> {
    let trimmed = trim(nfa)?;
    let normalized = with_single_accepting(&trimmed);
    let q_final =
        normalized.accepting().iter().next().expect("normalized automaton has an accepting state")
            as StateId;
    Some((normalized, q_final))
}

/// Writes level 0 of the DP (Algorithm 3 lines 6–10):
/// `N(I⁰) = 1, S(I⁰) = (λ, λ, …)`. The source cell is the sole level-0
/// seed on every substrate.
fn seed_level_zero(table: &mut RunTable, substrate: &dyn LeveledSubstrate, params: &Params) {
    let m = substrate.universe();
    let init = substrate.initial();
    let cell = table.cell_mut(0, init);
    cell.n_est = ExtFloat::ONE;
    cell.samples = SampleSet::repeated(&StateSet::singleton(m, init), params.ns);
}

/// The checkpoint of one engine run: the substrate the DP runs over (for
/// the NFA front-end, the trimmed single-accepting automaton with its
/// unrolling and stepping arenas), the filled `(N, S)` table and union
/// memo, and what draws from them need. Levels `1..=levels_built()` are
/// finished; level 0 is seeded by [`Run::open`].
///
/// Deliberately no `Params` and no horizon field: every operation takes
/// the params, and per-level work is a function of
/// `(Params, level, table, memo)` alone, or an extended run could not be
/// bit-identical to a fresh one (D11).
pub(crate) struct Run {
    pub(crate) substrate: Box<dyn LeveledSubstrate>,
    /// Every memo and sharing key is minted here. It lives as long as
    /// the run, so ids stay stable across extensions and post-run draws
    /// keep interning against the ids minted while building.
    pub(crate) interner: FrontierInterner,
    pub(crate) table: RunTable,
    pub(crate) memo: UnionMemo,
    /// Seed of the frontier-keyed sampler union streams (D9), derived
    /// once from the master seed: draws after the build keep using it,
    /// so their memo misses stay congruent with in-run estimates.
    pub(crate) sampler_seed: u64,
    pub(crate) q_final: StateId,
    /// Reusable sampler buffers for [`Run::draw`].
    pub(crate) scratch: SamplerScratch,
    built: usize,
}

impl Run {
    /// Normalizes an automaton or builds an nROBP's substrate, then
    /// seeds level 0, with the sampler seed derived from `master_seed`.
    /// `None` when nothing is left: trimming removed every state, or the
    /// program accepts no assignment.
    pub(crate) fn open(
        source: Source<'_>,
        params: &Params,
        master_seed: u64,
    ) -> Result<Option<Run>, FprasError> {
        let substrate: Box<dyn LeveledSubstrate> = match source {
            Source::Nfa(nfa) => match normalize_for_run(nfa) {
                Some((normalized, q_final)) => Box::new(NfaSubstrate::new(normalized, q_final, 0)?),
                None => return Ok(None),
            },
            Source::Robp(robp) => Box::new(RobpSubstrate::new(robp)?),
        };
        let m = substrate.universe();
        let mut table = RunTable::new(m, 0)?;
        seed_level_zero(&mut table, &*substrate, params);
        let mut run = Run {
            interner: FrontierInterner::new(m),
            table,
            memo: UnionMemo::new(),
            sampler_seed: sampler_union_seed(master_seed),
            q_final: substrate.final_cell(),
            scratch: SamplerScratch::new(),
            built: 0,
            substrate,
        };
        if let Source::Robp(robp) = source {
            if !run.accepts_at(robp.depth())? {
                return Ok(None);
            }
        }
        Ok(Some(run))
    }

    /// Highest finished level.
    pub(crate) fn levels_built(&self) -> usize {
        self.built
    }

    /// True iff some length-`n` word reaches the final cell, the one
    /// accepting cell after normalization: `L_n ≠ ∅`. Grows the
    /// substrate's views to `n` first.
    pub(crate) fn accepts_at(&mut self, n: usize) -> Result<bool, FprasError> {
        self.substrate.ensure_horizon(n)?;
        Ok(self.substrate.reachable(n).contains(self.q_final as usize))
    }

    /// Builds levels `levels_built() + 1..=n` (a no-op when they are
    /// finished), adding their counters to `stats`.
    ///
    /// Runs `run_level` for each missing level on `exec`, then drains
    /// the executor's pool counters into `stats`, snapshots the
    /// interner's (it is cumulative over the run's life, so the latest
    /// reading is the total) and adds this extension's wall to
    /// `stats.wall`. Traces `run_start`, `pool_summary` and `run_end`
    /// around it. A budget abort stops at the offending level, which is
    /// then half-built: the run must not be extended or read again.
    pub(crate) fn extend_to(
        &mut self,
        n: usize,
        params: &Params,
        exec: &Deterministic,
        stats: &mut RunStats,
    ) -> Result<(), FprasError> {
        if n <= self.built {
            return Ok(());
        }
        let start = Instant::now();
        self.substrate.ensure_horizon(n)?;
        self.table.grow(n)?;
        let ctx = EngineCtx {
            params,
            substrate: &*self.substrate,
            interner: &self.interner,
            m: self.substrate.universe(),
            k: self.substrate.width() as u8,
            sampler_seed: self.sampler_seed,
        };
        emit_with(|| TraceEvent::RunStart {
            substrate: ctx.substrate.kind(),
            policy: "deterministic",
            n,
            from_level: self.built + 1,
        });
        let mut result = Ok(());
        for ell in self.built + 1..=n {
            result = run_level(&ctx, &mut self.table, &mut self.memo, stats, ell, exec);
            if result.is_err() {
                break;
            }
            self.built = ell;
        }
        // Executor evidence (D10). Scheduling only: everything above is
        // bit-identical for any thread count; these counters record how
        // the work actually spread over the workers.
        let pool = exec.take_pool_stats();
        stats.pool.merge(&pool);
        // Interner evidence (§2.5).
        stats.intern = self.interner.stats();
        let wall = start.elapsed();
        stats.wall += wall;
        stats.wall_max = stats.wall;
        if trace_enabled() {
            if pool.parallel_passes + pool.sequential_passes > 0 {
                emit_with(|| TraceEvent::PoolSummary {
                    parallel_passes: pool.parallel_passes,
                    sequential_passes: pool.sequential_passes,
                    items: pool.parallel_items + pool.sequential_items,
                    steals: pool.steals,
                });
            }
            emit_with(|| TraceEvent::RunEnd {
                ops: stats.membership_ops,
                wall_us: wall.as_micros() as u64,
            });
        }
        result
    }

    /// The estimate `N(q_F^ℓ)` of the length-`ℓ` slice; `ℓ` must be
    /// built.
    pub(crate) fn estimate(&self, ell: usize) -> ExtFloat {
        self.table.cell(ell, self.q_final as usize).n_est
    }

    /// Draws one almost-uniform word of length `n` (built) by Algorithm 2
    /// from the final cell, within [`DEFAULT_RETRY_LIMIT`] trials, adding
    /// the work to `stats`. Randomness comes from `rng` alone, and the
    /// call is its own sampler epoch (DESIGN.md D21), so earlier draws
    /// never change a later one. `None` when the slice is empty or every
    /// trial failed.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        params: &Params,
        rng: &mut R,
        stats: &mut RunStats,
    ) -> Option<Word> {
        let env = SamplerEnv {
            params,
            substrate: &*self.substrate,
            interner: &self.interner,
            sampler_seed: self.sampler_seed,
        };
        sample_one(
            &env,
            &self.table,
            &self.memo,
            self.q_final,
            n,
            DEFAULT_RETRY_LIMIT,
            rng,
            &mut self.scratch,
            stats,
        )
    }
}
