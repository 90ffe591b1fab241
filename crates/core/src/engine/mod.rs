//! The level-synchronous execution engine for Algorithm 3.
//!
//! The paper's DP has a strict *level* structure: `N(qℓ)` and `S(qℓ)`
//! read only levels `< ℓ`, never same-level siblings. The engine owns
//! that schedule once — normalization, the `(n+1) × m` [`RunTable`], the
//! shared [`UnionMemo`], and the per-level **two-pass** loop (a count
//! pass over all useful cells, then a sample pass over the live ones) —
//! and runs each pass on its one executor, [`Deterministic`]: every
//! unit of work draws from a SplitMix64 stream keyed by what it
//! computes, and the pass fans out over a persistent work-stealing
//! [`Pool`] (`engine/pool.rs`, D10) whose workers are spawned once,
//! parked between passes, and rebalance skewed levels by stealing
//! chunks. The output is bit-identical for every thread count and
//! schedule, so `threads = 1` is the single-threaded run; the
//! RNG-taking entry points ([`FprasRun::run`], [`FprasRun::run_robp`])
//! draw one master seed from the caller's RNG and run exactly that
//! (D18).
//!
//! Every per-level computation (`run_group`, `assemble_count_cell`,
//! `sample_cell`) lives here, so optimizations land in exactly one
//! place.
//!
//! # Batched union estimation (D8)
//!
//! The count pass does not run `AppUnion` per `(cell, symbol)` pair any
//! more: the engine first builds a [`LevelPlan`] that
//! groups pairs by their canonical predecessor-frontier key, the
//! executor estimates each *group* once (on an RNG stream derived from
//! the frontier, not the cell), and per-cell counts are assembled by
//! summing the shared group estimates. `Params::batch_unions = false`
//! re-runs the identical estimation once per member pair instead — same
//! streams, same output, strictly more work — which is the honest
//! unbatched baseline the benches compare against. See
//! `engine/batch.rs`.
//!
//! # Memo lifecycle (D9)
//!
//! The sampler's union memo is the leveled copy-on-write [`UnionMemo`]
//! (`engine/memo.rs`); its per-level snapshot → overlay →
//! canonical-merge flow is specified once, with a diagram, in
//! **DESIGN.md §2.2 "The memo lifecycle"**. In short: the count pass
//! seeds the overlay, the engine commits before the sample pass, every
//! cell samples against an O(1) snapshot of the committed base, and the
//! cells' new entries merge back first-wins in canonical key order.
//! Sampler-side union randomness is frontier-keyed (see `sampler.rs`),
//! so two cells that miss the same frontier compute the same value:
//! which cell's entry wins the merge cannot change the output.

pub mod batch;
pub mod memo;
pub mod policy;
pub mod pool;
pub mod substrate;

use crate::app_union;
use crate::appunion::{frontier_inputs, UnionScratch};
use crate::counter::FprasRun;
use crate::error::FprasError;
use crate::intern::FrontierInterner;
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::sample_set::{SampleEntry, SampleSet};
use crate::sampler::{sample_word, SamplerEnv, SamplerScratch};
use crate::table::{RunTable, SampleOutcome};
use fpras_automata::ops::{trim, with_single_accepting};
use fpras_automata::robp::Robp;
use fpras_automata::{Nfa, StateId, StateSet};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, Rng, RngExt};
use std::time::Instant;

pub use batch::{FrontierGroup, LevelPlan};
pub use memo::{MemoEntry, MemoTier, UnionMemo};
pub use policy::Deterministic;
pub use pool::{Pool, MAX_THREADS};
pub use substrate::{LeveledSubstrate, NfaSubstrate, RobpSubstrate};

/// The state a finished run keeps: the substrate the DP ran over (for
/// the NFA front-end: the trimmed single-accepting automaton with its
/// unrolling and stepping arenas), the filled `(N, S)` table, and the
/// union memo the generator keeps extending.
pub(crate) struct RunInner {
    pub(crate) substrate: Box<dyn LeveledSubstrate>,
    pub(crate) table: RunTable,
    pub(crate) memo: UnionMemo,
    /// The run's frontier interner: post-run sampler walks keep
    /// interning against it, so memo keys stay consistent with the ids
    /// minted during the run.
    pub(crate) interner: FrontierInterner,
    /// Seed of the run's frontier-keyed sampler union streams (D9); the
    /// generator keeps using it so post-run memo misses stay congruent
    /// with in-run estimates.
    pub(crate) sampler_seed: u64,
    pub(crate) q_final: StateId,
}

/// Immutable per-run context handed to the executor and cell computations.
pub struct EngineCtx<'a> {
    /// Resolved run parameters.
    pub params: &'a Params,
    /// The leveled-DAG substrate the DP runs over (D14) — for the NFA
    /// front-end, the normalized automaton with its unrolling views.
    pub substrate: &'a dyn LeveledSubstrate,
    /// The run's frontier interner: every memo/sharing key is minted
    /// here (dense ids, cached RNG tags — DESIGN.md §2.5).
    pub interner: &'a FrontierInterner,
    /// Cell-universe size (`substrate.universe()`, cached).
    pub m: usize,
    /// Alphabet size (`substrate.width()`, cached).
    pub k: u8,
    /// Per-run seed of the frontier-keyed sampler union streams (D9),
    /// derived once from the master seed, so every cell that misses a
    /// frontier derives identical per-frontier randomness.
    pub sampler_seed: u64,
}

/// Output of one count-pass cell. Estimation counters live on the
/// group outputs ([`GroupOut::stats`]); assembly itself does no
/// countable work.
pub struct CountOut {
    /// The cell's state.
    pub q: StateId,
    /// The estimate `N(qℓ)`.
    pub n_est: ExtFloat,
}

/// Output of one frontier group's union estimation.
pub struct GroupOut {
    /// The shared estimate of `|⋃_{p ∈ frontier} L(p^{ℓ-1})|`, fanned
    /// out to every member `(cell, symbol)` pair and seeded into the
    /// sampler memo under the group's key.
    pub estimate: ExtFloat,
    /// Counters attributable to this group's estimation work.
    pub stats: RunStats,
}

/// Output of one level's count pass: one [`GroupOut`] per plan group and
/// one [`CountOut`] per cell, both in canonical order.
pub struct CountPass {
    /// Per-group estimation results, in plan order.
    pub groups: Vec<GroupOut>,
    /// Per-cell assembled counts, in cell order.
    pub cells: Vec<CountOut>,
}

/// Output of one sample-pass cell.
pub struct SampleOut {
    /// The cell's state.
    pub q: StateId,
    /// The filled sample multiset `S(qℓ)` (padded to `ns`).
    pub samples: SampleSet,
    /// Genuine (non-padding) samples collected.
    pub genuine: usize,
    /// Padding entries appended.
    pub padded: usize,
    /// Counters attributable to this cell.
    pub stats: RunStats,
}

/// Estimates one frontier group's union size (Algorithm 3 line 15 for
/// every member `(cell, symbol)` pair at once).
///
/// Under `params.batch_unions` the estimation runs once; otherwise it is
/// re-run once per member pair on a *clone* of the group RNG — identical
/// draws, identical estimate, the per-pair cost the batched path saves.
/// Group RNGs are derived from the frontier (never the member cells), so
/// this function is the reason batching cannot change the output.
pub fn run_group(
    ctx: &EngineCtx<'_>,
    table: &RunTable,
    ell: usize,
    group: &FrontierGroup,
    rng: &SmallRng,
    scratch: &mut UnionScratch,
) -> GroupOut {
    let params = ctx.params;
    let mut stats = RunStats::default();
    let eps_sz = params.eps_sz_at_level(params.beta_count, ell);
    let inputs = frontier_inputs(table, ell - 1, &group.frontier);
    let repeats = if params.batch_unions { 1 } else { group.members };
    let mut estimate = ExtFloat::ZERO;
    for _ in 0..repeats {
        let mut r = rng.clone();
        estimate = app_union(
            params,
            params.beta_count,
            params.delta_count_inner(),
            eps_sz,
            &inputs,
            ctx.m,
            &mut r,
            scratch,
            &mut stats,
        )
        .value;
        stats.batch.unions_run += 1;
    }
    // Pairs beyond the `repeats` executed were answered by sharing.
    let shared = u64::from(group.members) - u64::from(repeats);
    stats.batch.cells_deduped += shared;
    stats.batch.unions_skipped += shared;
    GroupOut { estimate, stats }
}

/// Assembles one cell's count from the level's shared group estimates
/// (Algorithm 3 lines 12–19): sums the per-symbol estimates, optionally
/// injects the paper's analysis noise.
pub fn assemble_count_cell<R: Rng + ?Sized>(
    ctx: &EngineCtx<'_>,
    ell: usize,
    q: StateId,
    groups_of_cell: &[Option<usize>],
    estimates: &[ExtFloat],
    rng: &mut R,
) -> CountOut {
    let params = ctx.params;
    let mut n_est = ExtFloat::ZERO;
    for gi in groups_of_cell.iter().flatten() {
        n_est = n_est + estimates[*gi];
    }

    // Noise injection (lines 16–19) — analysis artifact, only under the
    // paper profile (DESIGN.md D2). The length entering the probability
    // is the params' derivation length, not the run horizon, so the
    // draw is identical whether the level is built fresh or by an
    // extending session (D11).
    if params.inject_noise {
        let p_noise = params.eta / (2.0 * params.n_hint as f64);
        if rng.random_bool(p_noise.clamp(0.0, 1.0)) {
            let u: f64 = rng.random_range(0.0..1.0);
            n_est = ExtFloat::pow2(ell as i64).scale(u);
        }
    }

    CountOut { q, n_est }
}

/// Sample pass for one `(q, ℓ)` cell (Algorithm 3 lines 20–30): draws up
/// to `ns` words by Algorithm 2 within `xns` attempts, padding with the
/// cell's witness word when short.
pub(crate) fn sample_cell<R: Rng + ?Sized>(
    ctx: &EngineCtx<'_>,
    table: &RunTable,
    memo: &mut UnionMemo,
    ell: usize,
    q: StateId,
    rng: &mut R,
    scratch: &mut SamplerScratch,
) -> SampleOut {
    let params = ctx.params;
    let env = SamplerEnv {
        params,
        substrate: ctx.substrate,
        interner: ctx.interner,
        sampler_seed: ctx.sampler_seed,
    };
    let mut stats = RunStats::default();
    let mut collected: Vec<SampleEntry> = Vec::with_capacity(params.ns);
    let mut attempts = 0usize;
    while collected.len() < params.ns && attempts < params.xns {
        attempts += 1;
        match sample_word(&env, table, memo, q, ell, rng, scratch, &mut stats) {
            SampleOutcome::Word(w) => {
                let reach = ctx.substrate.reach(&w);
                debug_assert!(
                    reach.contains(q as usize),
                    "sampled word must reach its cell's state"
                );
                collected.push(SampleEntry { word: w, reach });
            }
            SampleOutcome::DeadEnd => break,
            SampleOutcome::FailPhi | SampleOutcome::FailCoin => {}
        }
    }
    let genuine = collected.len();
    let mut samples = SampleSet::empty();
    for e in collected {
        samples.push(e);
    }
    let padded = params.ns - genuine;
    if padded > 0 {
        let wit = ctx.substrate.witness(q, ell).expect("reachable cell must have a witness word");
        let reach = ctx.substrate.reach(&wit);
        samples.pad(SampleEntry { word: wit, reach }, padded);
    }
    SampleOut { q, samples, genuine, padded, stats }
}

/// Aborts the run once the membership-op budget is exceeded.
fn check_budget(params: &Params, stats: &RunStats) -> Result<(), FprasError> {
    if let Some(budget) = params.max_membership_ops {
        if stats.membership_ops > budget {
            return Err(FprasError::BudgetExceeded { ops: stats.membership_ops });
        }
    }
    Ok(())
}

/// Runs one level of the DP: the count pass over the level's frontier
/// groups and cells, the memo commit, and the sample pass over the live
/// cells.
///
/// This is the loop body of every run, extracted so a checkpointed run
/// ([`crate::service::QuerySession`]) can resume at level `built + 1`
/// and execute *exactly* the code a fresh run would — the whole
/// bit-identity argument of DESIGN.md D11 rests on the two paths
/// sharing this one function. Everything it reads is a function of
/// `(params, level, table, memo)` — never of the run's current horizon
/// — provided `params.trim_dead` is off (the alive-set filter is the
/// one horizon-dependent input; sessions reject it).
pub(crate) fn run_level(
    ctx: &EngineCtx<'_>,
    table: &mut RunTable,
    memo: &mut UnionMemo,
    stats: &mut RunStats,
    ell: usize,
    exec: &Deterministic,
) -> Result<(), FprasError> {
    let params = ctx.params;
    let m = ctx.m;
    let substrate = ctx.substrate;
    // Phase attribution (DESIGN.md D15): pure clock reads around each
    // phase, accumulated incrementally so a budget abort mid-level
    // still leaves the finished phases attributed. Observation only —
    // no RNG stream and no estimate is touched.
    let phase_start = Instant::now();
    let useful: Vec<StateId> = (0..m as StateId)
        .filter(|&q| {
            let reachable = substrate.reachable(ell).contains(q as usize);
            reachable && (!params.trim_dead || substrate.alive(ell).contains(q as usize))
        })
        .collect();
    stats.cells_skipped += (m - useful.len()) as u64;
    stats.cells_processed += useful.len() as u64;

    // ---- Pass 1: count phase (batched over frontier groups) ----
    let plan = LevelPlan::build(ctx, ell, &useful);
    stats.batch.groups_formed += plan.groups().len() as u64;
    stats.batch.unions_skipped += plan.empty_pairs();
    let plan_wall = phase_start.elapsed();
    stats.phase.plan += plan_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "plan",
        items: plan.groups().len() as u64,
        wall_us: plan_wall.as_micros() as u64,
        walk_table_hits: 0,
    });

    let count_start = Instant::now();
    let pass = exec.count_pass(ctx, &plan, table);
    let count_wall = count_start.elapsed();
    stats.phase.count += count_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "count",
        items: useful.len() as u64,
        wall_us: count_wall.as_micros() as u64,
        walk_table_hits: 0,
    });
    let merge_start = Instant::now();
    for (gi, out) in pass.groups.iter().enumerate() {
        stats.merge(&out.stats);
        // Seed the sampler's memo with the high-precision count-phase
        // value (DESIGN.md D4), first-wins in canonical group order:
        // deterministic regardless of how the pass was scheduled.
        if params.memoize_unions {
            memo.insert_first_wins(plan.key(gi), out.estimate, MemoTier::Count);
        }
    }
    // The plan's static dedup count and the pass's dynamic
    // accounting are two definitions of the same quantity; a batched
    // pass must reconcile them exactly.
    debug_assert!(
        !params.batch_unions
            || pass.groups.iter().map(|g| g.stats.batch.cells_deduped).sum::<u64>()
                == plan.deduped_pairs(),
        "plan and pass disagree on deduplicated pairs"
    );
    for out in pass.cells {
        table.cell_mut(ell, out.q as usize).n_est = out.n_est;
    }
    stats.phase.merge += merge_start.elapsed();
    check_budget(params, stats)?;

    // Commit the level's count seeds (plus the previous level's sampler
    // insertions) into the immutable base layer, so the whole sample
    // pass shares one O(1) snapshot.
    let commit_start = Instant::now();
    let promoted = memo.commit();
    stats.memo.commits += 1;
    stats.memo.entries_promoted += promoted as u64;
    stats.phase.merge += commit_start.elapsed();
    crate::obs::emit_with(|| crate::obs::TraceEvent::MemoCommit {
        level: ell,
        promoted: promoted as u64,
    });

    // ---- Pass 2: sample phase (live cells only) ----
    let live: Vec<StateId> =
        useful.iter().copied().filter(|&q| !table.cell(ell, q as usize).n_est.is_zero()).collect();
    let sample_start = Instant::now();
    let sampled = exec.sample_pass(ctx, ell, &live, table, memo);
    let sample_wall = sample_start.elapsed();
    stats.phase.sample += sample_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "sample",
        items: live.len() as u64,
        wall_us: sample_wall.as_micros() as u64,
        walk_table_hits: sampled.iter().map(|out| out.stats.walk_table_hits).sum(),
    });
    let merge_start = Instant::now();
    for out in sampled {
        stats.merge(&out.stats);
        stats.samples_stored += out.genuine as u64;
        if out.padded > 0 {
            stats.padded_cells += 1;
            stats.padded_entries += out.padded as u64;
        }
        table.cell_mut(ell, out.q as usize).samples = out.samples;
    }
    let merge_wall = merge_start.elapsed();
    stats.phase.merge += merge_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "merge",
        items: promoted as u64,
        wall_us: merge_wall.as_micros() as u64,
        walk_table_hits: 0,
    });
    check_budget(params, stats)
}

/// Normalizes an automaton for the DP (DESIGN.md D7): trims to useful
/// states and folds the accepting states into one. Returns `None` when
/// trimming leaves nothing (the language is empty at every length > 0).
/// Shared by fresh runs and sessions so both run the DP on the same
/// automaton.
pub(crate) fn normalize_for_run(nfa: &Nfa) -> Option<(Nfa, StateId)> {
    let trimmed = trim(nfa)?;
    let normalized = with_single_accepting(&trimmed);
    let q_final =
        normalized.accepting().iter().next().expect("normalized automaton has an accepting state")
            as StateId;
    Some((normalized, q_final))
}

/// Writes level 0 of the DP (Algorithm 3 lines 6–10):
/// `N(I⁰) = 1, S(I⁰) = (λ, λ, …)`. Shared by fresh runs and sessions,
/// for every substrate (the source cell is always the sole level-0 seed).
pub(crate) fn seed_level_zero(
    table: &mut RunTable,
    substrate: &dyn LeveledSubstrate,
    params: &Params,
) {
    let m = substrate.universe();
    let init = substrate.initial();
    let cell = table.cell_mut(0, init);
    cell.n_est = ExtFloat::ONE;
    cell.samples = SampleSet::repeated(
        SampleEntry { word: fpras_automata::Word::empty(), reach: StateSet::singleton(m, init) },
        params.ns,
    );
}

/// Runs the FPRAS on `nfa` for words of length `n`, with per-cell
/// streams derived from `master_seed` and each pass fanned out over up
/// to `threads` (≥ 1) workers.
///
/// This is the NFA entry point of the engine; [`FprasRun::run`] draws
/// one master seed from its caller RNG and runs this at one thread.
/// The returned run is **bit-identical for any `threads ≥ 1`**.
///
/// ```
/// use fpras_automata::{Alphabet, NfaBuilder};
/// use fpras_core::{run_parallel, Params};
///
/// let mut b = NfaBuilder::new(Alphabet::binary());
/// let q = b.add_state();
/// b.set_initial(q);
/// b.add_accepting(q);
/// b.add_transition(q, 0, q);
/// b.add_transition(q, 1, q);
/// let nfa = b.build().unwrap();
///
/// let params = Params::practical(0.3, 0.1, 1, 8);
/// let two = run_parallel(&nfa, 8, &params, 7, 2).unwrap();
/// let eight = run_parallel(&nfa, 8, &params, 7, 8).unwrap();
/// assert_eq!(two.estimate().to_f64(), eight.estimate().to_f64());
/// ```
pub fn run_parallel(
    nfa: &Nfa,
    n: usize,
    params: &Params,
    master_seed: u64,
    threads: usize,
) -> Result<FprasRun, FprasError> {
    params.validate()?;
    // The error-budget splits (sampler δ, noise probability) are pinned
    // to the length the params were derived for (`Params::n_hint`,
    // D11). Running *longer* than that would silently loosen the
    // promised (ε, δ); refuse loudly instead. Shorter runs only
    // tighten the split and stay allowed.
    if n > params.n_hint {
        return Err(FprasError::InvalidParams(format!(
            "run length {n} exceeds the length these params were derived for \
             (n_hint = {}); rebuild Params for the target length",
            params.n_hint
        )));
    }
    let start = Instant::now();
    let degenerate = |estimate: ExtFloat, accepts_lambda: bool| {
        let wall = start.elapsed();
        FprasRun {
            inner: None,
            n,
            estimate,
            params: params.clone(),
            stats: RunStats { wall, wall_max: wall, ..RunStats::default() },
            accepts_lambda,
        }
    };

    // n = 0: the DP is about positive-length words; answer directly.
    if n == 0 {
        let accepts = nfa.is_accepting(nfa.initial());
        let est = if accepts { ExtFloat::ONE } else { ExtFloat::ZERO };
        return Ok(degenerate(est, accepts));
    }

    // Normalize: trim, then fold accepting states (DESIGN.md D7).
    let Some((normalized, q_final)) = normalize_for_run(nfa) else {
        return Ok(degenerate(ExtFloat::ZERO, false));
    };
    let substrate = NfaSubstrate::new(normalized, q_final, n);
    if !substrate.language_nonempty() {
        return Ok(degenerate(ExtFloat::ZERO, false));
    }
    let exec = Deterministic::new(master_seed, threads);
    run_on_substrate(Box::new(substrate), n, params, &exec, nfa.is_accepting(nfa.initial()), start)
}

/// The substrate-generic run core: the level loop over an already-built
/// [`LeveledSubstrate`] whose views cover `0..=n` and whose language is
/// known non-empty at `n`. Front-end entry points ([`run_parallel`] for
/// NFAs, [`run_robp_parallel`] for nROBPs) handle normalization and the
/// degenerate cases, then delegate here.
fn run_on_substrate(
    substrate: Box<dyn LeveledSubstrate>,
    n: usize,
    params: &Params,
    exec: &Deterministic,
    accepts_lambda: bool,
    start: Instant,
) -> Result<FprasRun, FprasError> {
    let m = substrate.universe();
    let q_final = substrate.final_cell();
    // One interner per run: every memo key below is minted here.
    let interner = FrontierInterner::new(m);
    // One seed per run for the frontier-keyed sampler union streams (D9).
    let sampler_seed = policy::sampler_union_seed(exec.master_seed());
    // Deliberately no run-horizon field: per-level work must be a
    // function of `(Params, level, table, memo)` alone, or resumed
    // sessions could not be bit-identical to fresh runs (D11).
    let ctx = EngineCtx {
        params,
        substrate: &*substrate,
        interner: &interner,
        m,
        k: substrate.width() as u8,
        sampler_seed,
    };

    let mut table = RunTable::new(m, n);
    let mut memo = UnionMemo::new();
    let mut stats = RunStats::default();

    crate::obs::emit_with(|| crate::obs::TraceEvent::RunStart {
        substrate: ctx.substrate.kind(),
        policy: "deterministic",
        n,
        from_level: 1,
    });

    seed_level_zero(&mut table, &*substrate, params);

    for ell in 1..=n {
        run_level(&ctx, &mut table, &mut memo, &mut stats, ell, exec)?;
    }

    let estimate = table.cell(n, q_final as usize).n_est;
    // Executor evidence (D10): drained once per run. Scheduling-only —
    // everything above is bit-identical for any thread count; these
    // counters record how the work actually spread over the workers.
    stats.pool = exec.take_pool_stats();
    // Interner evidence (§2.5): snapshot of the run's key traffic.
    stats.intern = interner.stats();
    stats.wall = start.elapsed();
    stats.wall_max = stats.wall;
    if crate::obs::trace_enabled() {
        if stats.pool.parallel_passes + stats.pool.sequential_passes > 0 {
            crate::obs::emit_with(|| crate::obs::TraceEvent::PoolSummary {
                parallel_passes: stats.pool.parallel_passes,
                sequential_passes: stats.pool.sequential_passes,
                items: stats.pool.parallel_items + stats.pool.sequential_items,
                steals: stats.pool.steals,
            });
        }
        crate::obs::emit_with(|| crate::obs::TraceEvent::RunEnd {
            ops: stats.membership_ops,
            wall_us: stats.wall.as_micros() as u64,
        });
    }
    Ok(FprasRun {
        inner: Some(RunInner { substrate, table, memo, interner, sampler_seed, q_final }),
        n,
        estimate,
        params: params.clone(),
        stats,
        accepts_lambda,
    })
}

/// Runs the FPRAS over an nROBP, estimating the number of accepted
/// assignments (length-`depth` words over the program's alphabet) —
/// the nROBP counterpart of [`run_parallel`], bit-identical for every
/// `threads ≥ 1`. The run length is the program's intrinsic depth; the
/// degenerate cases (no accepting node reachable) short-circuit exactly
/// like an empty NFA slice.
pub fn run_robp_parallel(
    robp: &Robp,
    params: &Params,
    master_seed: u64,
    threads: usize,
) -> Result<FprasRun, FprasError> {
    params.validate()?;
    let n = robp.depth();
    if n > params.n_hint {
        return Err(FprasError::InvalidParams(format!(
            "program depth {n} exceeds the length these params were derived for \
             (n_hint = {}); rebuild Params for the target depth",
            params.n_hint
        )));
    }
    let start = Instant::now();
    let substrate = RobpSubstrate::new(robp);
    if !substrate.language_nonempty() {
        let wall = start.elapsed();
        return Ok(FprasRun {
            inner: None,
            n,
            estimate: ExtFloat::ZERO,
            params: params.clone(),
            stats: RunStats { wall, wall_max: wall, ..RunStats::default() },
            accepts_lambda: false,
        });
    }
    let exec = Deterministic::new(master_seed, threads);
    run_on_substrate(Box::new(substrate), n, params, &exec, false, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::UniformGenerator;
    use fpras_automata::{Alphabet, NfaBuilder};
    use rand::{rngs::SmallRng, SeedableRng};

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

    #[test]
    fn different_seeds_differ() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 10);
        let a = run_parallel(&nfa, 10, &params, 1, 4).unwrap();
        let b = run_parallel(&nfa, 10, &params, 2, 4).unwrap();
        // Estimates are both accurate but almost surely not identical.
        assert_ne!(a.estimate().to_f64(), b.estimate().to_f64());
    }

    #[test]
    fn degenerate_cases() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 4);
        // n = 0: λ not accepted.
        assert!(run_parallel(&nfa, 0, &params, 0, 4).unwrap().estimate().is_zero());
        // Empty slice.
        assert!(run_parallel(&nfa, 1, &params, 0, 4).unwrap().estimate().is_zero());
    }

    #[test]
    fn budget_guard_trips() {
        let nfa = contains_11();
        let mut params = Params::practical(0.3, 0.1, 3, 8);
        params.max_membership_ops = Some(10);
        assert!(matches!(
            run_parallel(&nfa, 8, &params, 1, 4),
            Err(FprasError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn generator_works_on_parallel_run() {
        let nfa = contains_11();
        let n = 8;
        let params = Params::practical(0.3, 0.1, 3, n);
        let run = run_parallel(&nfa, n, &params, 5, 4).unwrap();
        let mut generator = UniformGenerator::new(run);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..20 {
            let w = generator.generate(&mut rng).expect("language non-empty");
            assert_eq!(w.len(), n);
            assert!(nfa.accepts(&w));
        }
    }
}
