//! The engine's one executor: *how* the two per-level passes run.
//!
//! The engine fixes the schedule (count pass over the level's frontier
//! groups then its cells, sample pass in state order) and the merge
//! discipline; [`Deterministic`] decides scheduling within a pass —
//! which thread runs which unit of work — and derives each unit's
//! randomness from *what* it computes, never from where or when it
//! runs. Passes return outputs in the same order as the input lists.
//!
//! Count-pass randomness is **frontier-keyed**: the RNG stream feeding
//! a group's union estimation is derived from the group's canonical
//! [`MemoKey::rng_tag`](crate::table::MemoKey::rng_tag), never from a
//! member cell. That is what makes batched and unbatched count passes
//! bit-identical — see `engine/batch.rs`.

use super::{assemble_count_cell, run_group, sample_cell, CountPass, EngineCtx, SampleOut};
use crate::appunion::UnionScratch;
use crate::engine::memo::UnionMemo;
use crate::engine::pool::Pool;
use crate::engine::LevelPlan;
use crate::run_stats::PoolStats;
use crate::sampler::SamplerScratch;
use crate::table::splitmix64;
use fpras_automata::StateId;
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};
use std::cell::RefCell;

thread_local! {
    /// Per-worker `AppUnion` scratch for the pool-scheduled passes. The
    /// pool's closures are `Fn + Sync`, so mutable per-worker state
    /// lives in thread-locals; scratch contents never influence results
    /// (every buffer is rebuilt per call), so reuse across passes and
    /// runs is safe by construction.
    static UNION_SCRATCH: RefCell<UnionScratch> = RefCell::new(UnionScratch::new());
    /// Per-worker sampler scratch, same reasoning: its compiled walk
    /// holds successor slots and, per node, branch values read from the
    /// memo, whose entries never change; it starts over under a new
    /// interner or memo lineage (`sampler.rs`).
    static SAMPLER_SCRATCH: RefCell<SamplerScratch> = RefCell::new(SamplerScratch::new());
}

// The complete registry of RNG-stream phase tags. Every derived stream
// in the engine mixes exactly one of these (xor'd with PHASE_SALT)
// into its seed; keeping the registry in one place is what guarantees
// two streams never collide. Do not reuse a number.

/// RNG-stream tag for per-cell count-pass draws (noise injection).
const PHASE_COUNT: u64 = 1;
/// RNG-stream tag for the sample pass.
const PHASE_SAMPLE: u64 = 2;
/// RNG-stream tag for frontier-group union estimations.
const PHASE_GROUP: u64 = 3;
/// RNG-stream tag for frontier-keyed sampler union estimations (used
/// by `sampler::sampler_union_rng`, D9).
pub(crate) const PHASE_SAMPLER_UNION: u64 = 4;
/// Salt for the per-run sampler union seed (the
/// sampler's frontier-keyed streams mix [`PHASE_SAMPLER_UNION`] on top
/// of it).
const PHASE_SAMPLER_SEED: u64 = 5;
/// Salt xor'd into every phase tag before mixing.
pub(crate) const PHASE_SALT: u64 = 0xA5A5_5A5A;

/// The engine's one executor: every `(level, state, phase)` cell
/// derives its own RNG stream from the master seed via SplitMix64
/// mixing, and each pass fans out over a persistent work-stealing
/// [`Pool`] (`engine/pool.rs`): workers are spawned once per
/// executor, parked between passes, and balance skewed levels by
/// stealing `steal_chunk`-sized chunks from each other's ranges. The
/// sample pass's cells share one level overlay of the memo, whose
/// sampler values are frontier-keyed and whose work is charged once
/// per frontier, so the output is
/// **bit-identical for any thread count and any schedule** —
/// `threads = 1` reproduces `threads = 8` exactly, which makes the
/// speedup honestly attributable to scheduling alone.
///
/// The pool handle is an [`Arc`](std::sync::Arc): a serving front-end
/// can hand many executors (one per session extension) the **same**
/// parked-worker set via [`Deterministic::with_pool`] instead of
/// spawning a fleet per session — which pool ran a pass is pure
/// scheduling, so sharing cannot change any output (D10/D13).
pub struct Deterministic {
    master_seed: u64,
    pool: std::sync::Arc<Pool>,
}

impl Deterministic {
    /// An executor drawing per-cell streams from `master_seed`, running
    /// on up to `threads` (≥ 1) worker threads. The pool's `threads − 1`
    /// OS workers are spawned here and live until the executor is
    /// dropped; `threads = 1` spawns nothing and runs every pass
    /// inline.
    pub fn new(master_seed: u64, threads: usize) -> Self {
        Deterministic::with_pool(master_seed, std::sync::Arc::new(Pool::new(threads.max(1))))
    }

    /// An executor running on a caller-shared [`Pool`] instead of spawning
    /// its own workers. The pool's worker count takes the place of the
    /// `threads` knob; since scheduling never reaches the output
    /// (module docs of `engine/pool.rs`), a run on a shared pool is
    /// bit-identical to the same seed on a private pool of any size.
    pub fn with_pool(master_seed: u64, pool: std::sync::Arc<Pool>) -> Self {
        Deterministic { master_seed, pool }
    }

    /// The configured thread cap.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Runs the count pass for one level's [`LevelPlan`]: one
    /// [`GroupOut`](super::GroupOut) per frontier group and one
    /// [`CountOut`](super::CountOut) per cell, both **in plan order**.
    ///
    /// Budget note: every pass runs to completion — cooperative mid-pass
    /// cancellation across workers would make the reported op totals
    /// depend on thread scheduling, breaking the bit-identity contract
    /// on the error path. The engine checks the budget between passes,
    /// so a blown budget costs at most one pass, not one level.
    pub(crate) fn count_pass(
        &self,
        ctx: &EngineCtx<'_>,
        plan: &LevelPlan,
        table: &crate::table::RunTable,
    ) -> CountPass {
        let seed = self.master_seed;
        let ell = plan.level();
        let chunk = ctx.params.steal_chunk;
        // Group RNG streams are keyed by the frontier's canonical tag —
        // independent of both scheduling and the member cells, so any
        // thread count (and batched vs unbatched) produces identical
        // estimates. Group cost is dominated by AppUnion trials, the
        // skewed part of the count pass, so worker ops are attributed
        // here; cell assembly is summation only.
        let indices: Vec<usize> = (0..plan.groups().len()).collect();
        let groups = self.pool.map_with_ops(
            &indices,
            chunk,
            |&gi| {
                let rng = group_rng(seed, plan.key(gi).rng_tag());
                UNION_SCRATCH.with(|s| {
                    run_group(ctx, table, ell, &plan.groups()[gi], &rng, &mut s.borrow_mut())
                })
            },
            |g| g.stats.membership_ops,
        );
        let estimates: Vec<ExtFloat> = groups.iter().map(|g| g.estimate).collect();
        let cell_indices: Vec<usize> = (0..plan.cells().len()).collect();
        let cells = self.pool.map(&cell_indices, chunk, |&i| {
            let q = plan.cells()[i];
            let mut rng = cell_rng(seed, ell, q, PHASE_COUNT);
            assemble_count_cell(ctx, ell, q, plan.cell_groups(i), &estimates, &mut rng)
        });
        CountPass { groups, cells }
    }

    /// Runs the sample pass over the live `cells` at level `ell`,
    /// returning one [`SampleOut`] per cell **in input order**. Every
    /// cell reads the memo's base and shares its level overlay for
    /// misses; the engine commits the overlay after the pass (DESIGN.md
    /// §2.2).
    pub(crate) fn sample_pass(
        &self,
        ctx: &EngineCtx<'_>,
        ell: usize,
        cells: &[StateId],
        table: &crate::table::RunTable,
        memo: &UnionMemo,
    ) -> Vec<SampleOut> {
        let seed = self.master_seed;
        self.pool.map_with_ops(
            cells,
            ctx.params.steal_chunk,
            |&q| {
                let mut rng = cell_rng(seed, ell, q, PHASE_SAMPLE);
                SAMPLER_SCRATCH
                    .with(|s| sample_cell(ctx, table, memo, ell, q, &mut rng, &mut s.borrow_mut()))
            },
            |out| out.stats.membership_ops,
        )
    }

    /// Drains the executor statistics (D10): the engine calls this
    /// once per run (a session once per extension) and stores the
    /// result in `RunStats::pool`.
    pub(crate) fn take_pool_stats(&self) -> PoolStats {
        self.pool.take_stats()
    }
}

/// The per-run seed of the sampler's frontier-keyed union streams
/// (DESIGN.md D9), derived from the master seed so it is independent
/// of thread count. Fresh runs and sessions both draw it from here.
pub(crate) fn sampler_union_seed(master_seed: u64) -> u64 {
    splitmix64(master_seed ^ splitmix64(PHASE_SAMPLER_SEED ^ PHASE_SALT))
}

/// Independent RNG stream for one `(level, state, phase)` cell.
pub(crate) fn cell_rng(master: u64, level: usize, q: StateId, phase: u64) -> SmallRng {
    let mixed = splitmix64(
        master ^ splitmix64((level as u64) << 32 | q as u64) ^ splitmix64(phase ^ PHASE_SALT),
    );
    SmallRng::seed_from_u64(mixed)
}

/// Independent RNG stream for one frontier group, keyed by the group's
/// canonical tag ([`MemoKey::rng_tag`](crate::table::MemoKey::rng_tag))
/// — the tag already mixes the level, so only the master seed and
/// phase are added here.
pub(crate) fn group_rng(master: u64, tag: u64) -> SmallRng {
    let mixed = splitmix64(master ^ splitmix64(tag) ^ splitmix64(PHASE_GROUP ^ PHASE_SALT));
    SmallRng::seed_from_u64(mixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn splitmix_streams_are_distinct() {
        // Adjacent cells must not share streams.
        let a = cell_rng(7, 1, 0, 1).random::<u64>();
        let b = cell_rng(7, 1, 1, 1).random::<u64>();
        let c = cell_rng(7, 2, 0, 1).random::<u64>();
        let d = cell_rng(7, 1, 0, 2).random::<u64>();
        let all = [a, b, c, d];
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn deterministic_clamps_thread_count() {
        let p = Deterministic::new(5, 0);
        assert_eq!(p.threads(), 1);
        assert_eq!(p.master_seed(), 5);
    }
}
