//! Execution policies: *how* the engine's two per-level passes run.
//!
//! The engine fixes the schedule (count pass over the level's frontier
//! groups then its cells, sample pass in state order) and the merge
//! discipline; a policy decides scheduling within a pass — which thread
//! runs which unit of work, and where each unit's randomness comes from.
//! Policies must return outputs in the same order as the input lists.
//!
//! Count-pass randomness is **frontier-keyed** for both policies: the
//! RNG stream feeding a group's union estimation is derived from the
//! group (its canonical [`MemoKey::rng_tag`] under `Deterministic`, one
//! sub-seed drawn per group in canonical order under `Serial`), never
//! from a member cell. That is what makes batched and unbatched count
//! passes bit-identical — see `engine/batch.rs`.

use super::{
    assemble_count_cell, run_group, sample_cell, CountPass, EngineCtx, SampleOut, ShareJob,
    ShareOut,
};
use crate::appunion::UnionScratch;
use crate::engine::memo::{MemoEntry, UnionMemo};
use crate::engine::pool::Pool;
use crate::engine::LevelPlan;
use crate::run_stats::{PoolStats, RunStats};
use crate::sampler::{estimate_frontier_union, SamplerScratch};
use crate::table::{splitmix64, MemoKey};
use fpras_automata::StateId;
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, Rng, RngExt, SeedableRng};
use std::cell::RefCell;

thread_local! {
    /// Per-worker `AppUnion` scratch for the pool-scheduled passes. The
    /// pool's closures are `Fn + Sync`, so mutable per-worker state
    /// lives in thread-locals; scratch contents never influence results
    /// (every buffer is rebuilt per call), so reuse across passes, runs
    /// and policies is safe by construction.
    static UNION_SCRATCH: RefCell<UnionScratch> = RefCell::new(UnionScratch::new());
    /// Per-worker sampler scratch, same reasoning: its compiled walk
    /// holds successor slots and, per node, only branch values read
    /// from the memo's committed base layer, which never change; it
    /// starts over under a new interner or memo lineage (`sampler.rs`).
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
/// Salt for [`Deterministic`]'s per-run sampler union seed (the
/// sampler's frontier-keyed streams mix [`PHASE_SAMPLER_UNION`] on top
/// of it).
const PHASE_SAMPLER_SEED: u64 = 5;
/// Salt xor'd into every phase tag before mixing.
pub(crate) const PHASE_SALT: u64 = 0xA5A5_5A5A;

/// How the per-cell work of one engine pass is executed.
///
/// `ops_remaining` is the membership-op budget left before the engine
/// aborts with `BudgetExceeded` (`None` = unbounded). A policy **may**
/// stop scheduling further cells once the ops accumulated in its
/// returned outputs exceed it, returning a truncated (prefix) output
/// list — the engine detects the overrun right after the merge, so
/// truncation can only make an already-doomed run fail faster, never
/// change a successful result.
pub trait ExecutionPolicy {
    /// Short label for diagnostics and experiment tables.
    fn name(&self) -> &'static str;

    /// The per-run seed of the sampler's frontier-keyed union streams
    /// (DESIGN.md D9). Called once by the engine before the level loop;
    /// `Serial` draws it from its caller RNG, `Deterministic` derives it
    /// from the master seed so it stays independent of thread count.
    fn sampler_union_seed(&mut self) -> u64;

    /// Runs the count pass for one level's [`LevelPlan`]: one
    /// [`GroupOut`](super::GroupOut) per frontier group and one
    /// [`CountOut`](super::CountOut) per cell, both **in plan order**.
    /// A pass that stops early on budget exhaustion returns a prefix of
    /// the groups and **no** cells (a cell needs all its groups).
    fn count_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        plan: &LevelPlan,
        table: &crate::table::RunTable,
        ops_remaining: Option<u64>,
    ) -> CountPass;

    /// Runs the sample pass over the live `cells` at level `ell`,
    /// returning one [`SampleOut`] per cell **in input order** (a
    /// prefix if the pass stops early on budget exhaustion). The policy
    /// owns the memo-update discipline for the pass (the engine only
    /// hands over the shared memo).
    fn sample_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        ell: usize,
        cells: &[StateId],
        table: &crate::table::RunTable,
        memo: &mut UnionMemo,
        ops_remaining: Option<u64>,
    ) -> Vec<SampleOut>;

    /// Runs the sample-pass frontier-sharing pre-pass (D9) over the
    /// engine-collected hot-frontier `jobs`, returning one [`ShareOut`]
    /// per job **in input order** (a prefix if the pass stops early on
    /// budget exhaustion). Estimates run on the frontier-keyed sampler
    /// streams, so scheduling cannot change the values — which is what
    /// lets `Deterministic` fan the pre-pass out over its pool.
    fn share_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        jobs: &[ShareJob],
        table: &crate::table::RunTable,
        ops_remaining: Option<u64>,
    ) -> Vec<ShareOut>;

    /// Drains the policy's executor statistics (D10). The engine calls
    /// this once per run and stores the result in `RunStats::pool`;
    /// policies without an executor report nothing.
    fn take_pool_stats(&mut self) -> PoolStats {
        PoolStats::default()
    }
}

/// True once `used` ops have exhausted an `ops_remaining` budget.
fn budget_spent(used: u64, ops_remaining: Option<u64>) -> bool {
    ops_remaining.is_some_and(|b| used > b)
}

/// Single-threaded execution with one caller-provided RNG threaded
/// through the cells in state order. The sample pass mutates the shared
/// memo directly, so later cells reuse earlier same-level insertions —
/// free extra hits, and with one stream there is no cross-cell
/// determinism to protect.
pub struct Serial<'r, R: Rng + ?Sized> {
    rng: &'r mut R,
}

impl<'r, R: Rng + ?Sized> Serial<'r, R> {
    /// Wraps the caller's RNG.
    pub fn new(rng: &'r mut R) -> Self {
        Serial { rng }
    }
}

impl<R: Rng + ?Sized> ExecutionPolicy for Serial<'_, R> {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn sampler_union_seed(&mut self) -> u64 {
        self.rng.random()
    }

    fn count_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        plan: &LevelPlan,
        table: &crate::table::RunTable,
        ops_remaining: Option<u64>,
    ) -> CountPass {
        let ell = plan.level();
        // One sub-seed per group, drawn in canonical order — the same
        // main-stream consumption whether batching is on or off, so the
        // two modes stay bit-identical through the later passes too.
        // Per-group budget granularity: stop as soon as the pass has
        // burned through the remaining op budget (the engine then
        // reports BudgetExceeded without paying for the rest of the
        // level).
        let mut used = 0u64;
        let mut scratch = UnionScratch::new();
        let mut groups = Vec::with_capacity(plan.groups().len());
        for group in plan.groups() {
            let rng = SmallRng::seed_from_u64(self.rng.random::<u64>());
            let out = run_group(ctx, table, ell, group, &rng, &mut scratch);
            used += out.stats.membership_ops;
            groups.push(out);
            if budget_spent(used, ops_remaining) {
                break;
            }
        }
        let cells = if groups.len() < plan.groups().len() {
            Vec::new() // truncated: the engine aborts right after the merge
        } else {
            let estimates: Vec<ExtFloat> = groups.iter().map(|g| g.estimate).collect();
            plan.cells()
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    assemble_count_cell(ctx, ell, q, plan.cell_groups(i), &estimates, self.rng)
                })
                .collect()
        };
        CountPass { groups, cells }
    }

    fn sample_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        ell: usize,
        cells: &[StateId],
        table: &crate::table::RunTable,
        memo: &mut UnionMemo,
        ops_remaining: Option<u64>,
    ) -> Vec<SampleOut> {
        // The thread-local scratch keeps its compiled walk from level to
        // level (and pass to pass) of the run, as under Deterministic.
        SAMPLER_SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            let mut used = 0u64;
            let mut outs = Vec::with_capacity(cells.len());
            for &q in cells {
                let out = sample_cell(ctx, table, memo, ell, q, self.rng, scratch);
                used += out.stats.membership_ops;
                outs.push(out);
                if budget_spent(used, ops_remaining) {
                    break;
                }
            }
            outs
        })
    }

    fn share_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        jobs: &[ShareJob],
        table: &crate::table::RunTable,
        ops_remaining: Option<u64>,
    ) -> Vec<ShareOut> {
        // Per-estimation budget granularity, like the other Serial
        // passes: stop scheduling as soon as the accumulated ops spend
        // the remaining budget. Estimates come from the frontier-keyed
        // sampler streams, not the caller RNG, so the main stream is
        // untouched here.
        let mut used = 0u64;
        let mut scratch = UnionScratch::new();
        let mut outs = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut stats = RunStats::default();
            let estimate = estimate_frontier_union(
                ctx.params,
                table,
                job.key,
                &job.frontier,
                ctx.sampler_seed,
                &mut scratch,
                &mut stats,
            );
            used += stats.membership_ops;
            outs.push(ShareOut { estimate, stats });
            if budget_spent(used, ops_remaining) {
                break;
            }
        }
        outs
    }
}

/// Deterministic multi-threaded execution: every `(level, state, phase)`
/// cell derives its own RNG stream from the master seed via SplitMix64
/// mixing, and each pass fans out over the policy's persistent
/// work-stealing [`Pool`] (`engine/pool.rs`): workers are spawned once
/// per policy, parked between passes, and balance skewed levels by
/// stealing `steal_chunk`-sized chunks from each other's ranges. The
/// sample pass gives every cell the level-start memo snapshot and
/// merges new entries back in a canonical order, so the output is
/// **bit-identical for any thread count and any schedule** —
/// `threads = 1` reproduces `threads = 8` exactly, which makes the
/// speedup honestly attributable to scheduling alone.
///
/// The pool handle is an [`Arc`](std::sync::Arc): a serving front-end
/// can hand many policies (one per session extension) the **same**
/// parked-worker set via [`Deterministic::with_pool`] instead of
/// spawning a fleet per session — which pool ran a pass is pure
/// scheduling, so sharing cannot change any output (D10/D13).
pub struct Deterministic {
    master_seed: u64,
    pool: std::sync::Arc<Pool>,
}

impl Deterministic {
    /// A policy drawing per-cell streams from `master_seed`, running on
    /// up to `threads` (≥ 1) worker threads. The pool's `threads − 1`
    /// OS workers are spawned here and live until the policy is
    /// dropped; `threads = 1` spawns nothing and runs every pass
    /// inline.
    pub fn new(master_seed: u64, threads: usize) -> Self {
        Deterministic::with_pool(master_seed, std::sync::Arc::new(Pool::new(threads.max(1))))
    }

    /// A policy running on a caller-shared [`Pool`] instead of spawning
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
}

impl ExecutionPolicy for Deterministic {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn sampler_union_seed(&mut self) -> u64 {
        splitmix64(self.master_seed ^ splitmix64(PHASE_SAMPLER_SEED ^ PHASE_SALT))
    }

    // Budget note: the Deterministic policy always completes its pass —
    // cooperative mid-pass cancellation across workers would make the
    // reported op totals depend on thread scheduling, breaking the
    // bit-identity contract on the error path. Pass granularity matches
    // the pre-engine parallel runner; the engine still aborts between
    // passes, so a blown budget costs at most one pass, not one level.
    fn count_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        plan: &LevelPlan,
        table: &crate::table::RunTable,
        _ops_remaining: Option<u64>,
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

    fn sample_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        ell: usize,
        cells: &[StateId],
        table: &crate::table::RunTable,
        memo: &mut UnionMemo,
        _ops_remaining: Option<u64>,
    ) -> Vec<SampleOut> {
        let seed = self.master_seed;
        // The engine committed before this pass, so every per-cell view
        // is an O(1) Arc clone of the level-start base layer — no cell
        // pays an O(memo) deep copy any more (DESIGN.md §2.2). The
        // entries a cell inserts live in its own thin overlay.
        let base_len = memo.base_len() as u64;
        let snapshot = memo.snapshot();
        let mut outs: Vec<(SampleOut, Vec<(MemoKey, MemoEntry)>)> = self.pool.map_with_ops(
            cells,
            ctx.params.steal_chunk,
            |&q| {
                let mut rng = cell_rng(seed, ell, q, PHASE_SAMPLE);
                let mut local_memo = snapshot.snapshot();
                let mut out = SAMPLER_SCRATCH.with(|s| {
                    sample_cell(ctx, table, &mut local_memo, ell, q, &mut rng, &mut s.borrow_mut())
                });
                let memo_new = local_memo.into_overlay();
                out.stats.memo.snapshots += 1;
                out.stats.memo.entries_shared += base_len;
                out.stats.memo.overlay_entries += memo_new.len() as u64;
                (out, memo_new)
            },
            |(out, _)| out.stats.membership_ops,
        );
        // HashMap iteration order is nondeterministic; sort each cell's
        // new entries so the first-wins merge is stable across runs and
        // thread counts. (With frontier-keyed sampler streams the values
        // are key-determined anyway; the canonical order keeps the memo
        // bit-stable even if that ever changes.) Sort by frontier
        // *content*, not id: ids are handed out in intern order, which
        // depends on worker scheduling once the sample pass interns
        // lazily.
        let mut results = Vec::with_capacity(outs.len());
        for (out, mut memo_new) in outs.drain(..) {
            memo_new.sort_by(|(a, _), (b, _)| {
                a.level()
                    .cmp(&b.level())
                    .then_with(|| ctx.interner.compare(a.frontier(), b.frontier()))
            });
            for (key, entry) in memo_new {
                memo.insert_entry_first_wins(key, entry);
            }
            results.push(out);
        }
        results
    }

    // The pre-pass shares the count/sample passes' granularity choice:
    // it always completes (cooperative mid-pass cancellation would make
    // error-path op totals depend on scheduling). Estimates are
    // frontier-keyed, so fanning them out cannot change any value a
    // lazily-estimating cell would have computed.
    fn share_pass(
        &mut self,
        ctx: &EngineCtx<'_>,
        jobs: &[ShareJob],
        table: &crate::table::RunTable,
        _ops_remaining: Option<u64>,
    ) -> Vec<ShareOut> {
        self.pool.map_with_ops(
            jobs,
            ctx.params.steal_chunk,
            |job| {
                let mut stats = RunStats::default();
                let estimate = UNION_SCRATCH.with(|s| {
                    estimate_frontier_union(
                        ctx.params,
                        table,
                        job.key,
                        &job.frontier,
                        ctx.sampler_seed,
                        &mut s.borrow_mut(),
                        &mut stats,
                    )
                });
                ShareOut { estimate, stats }
            },
            |out| out.stats.membership_ops,
        )
    }

    fn take_pool_stats(&mut self) -> PoolStats {
        self.pool.take_stats()
    }
}

/// Independent RNG stream for one `(level, state, phase)` cell.
pub(crate) fn cell_rng(master: u64, level: usize, q: StateId, phase: u64) -> SmallRng {
    let mixed = splitmix64(
        master ^ splitmix64((level as u64) << 32 | q as u64) ^ splitmix64(phase ^ PHASE_SALT),
    );
    SmallRng::seed_from_u64(mixed)
}

/// Independent RNG stream for one frontier group, keyed by the group's
/// canonical tag ([`MemoKey::rng_tag`]) — the tag already mixes the
/// level, so only the master seed and phase are added here.
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
        assert_eq!(p.name(), "deterministic");
    }
}
