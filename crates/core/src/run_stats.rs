//! Run instrumentation.
//!
//! The experiment harness reports more than wall time: sample counts per
//! state (the paper's headline measure, §1), membership-oracle operations
//! (the unit of the paper's complexity accounting, Theorem 1/3), sampler
//! rejection rates (Theorem 2(2)) and padding frequency. Every counter
//! lives here so the algorithms stay free of ad-hoc logging.

use crate::intern::InternStats;
use crate::obs::PhaseWall;
use std::time::Duration;

/// Counters for the batched union-estimation layer (engine `LevelPlan`).
///
/// The count pass groups `(cell, symbol)` pairs by their predecessor
/// frontier and runs `AppUnion` once per distinct group; these counters
/// record how much work that sharing saved. Invariant (checked in the
/// engine-policy tests): over a whole run,
/// `unions_run + unions_skipped == cells_processed × alphabet size` —
/// every pair is either estimated, answered by a groupmate's estimate,
/// or trivially empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Distinct non-empty predecessor frontiers formed across all count
    /// passes (one union estimation is due per group).
    pub groups_formed: u64,
    /// `(cell, symbol)` pairs that shared a group with an earlier pair
    /// and reused its estimate instead of re-running `AppUnion`
    /// (zero when batching is disabled).
    pub cells_deduped: u64,
    /// `AppUnion` executions performed by count passes.
    pub unions_run: u64,
    /// `(cell, symbol)` pairs that needed no execution of their own:
    /// deduplicated groupmates plus pairs with an empty frontier.
    pub unions_skipped: u64,
}

impl BatchStats {
    /// Fraction of non-trivial pairs answered by sharing.
    pub fn dedup_rate(&self) -> f64 {
        let pairs = self.unions_run + self.cells_deduped;
        if pairs == 0 {
            return 0.0;
        }
        self.cells_deduped as f64 / pairs as f64
    }

    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: &BatchStats) {
        self.groups_formed += other.groups_formed;
        self.cells_deduped += other.cells_deduped;
        self.unions_run += other.unions_run;
        self.unions_skipped += other.unions_skipped;
    }
}

/// Counters for the union memo (DESIGN.md §2.2): the sample pass's
/// cells share one level overlay, which the engine commits into the
/// base after the pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Level-overlay commits performed (one per processed level).
    pub commits: u64,
    /// Entries added to the memo's base: count seeds plus committed
    /// sampler entries.
    pub entries_promoted: u64,
    /// Distinct sampler entries the commits drained from the level
    /// overlay — one per frontier a pass's cells missed, at any thread
    /// count.
    pub overlay_entries: u64,
}

impl MemoStats {
    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: &MemoStats) {
        self.commits += other.commits;
        self.entries_promoted += other.entries_promoted;
        self.overlay_entries += other.overlay_entries;
    }
}

/// Counters of the removed sample-pass sharing pre-pass (DESIGN.md D9,
/// D18), kept so readers of the stat layout keep compiling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShareStats {
    /// Sampler union lookups answered by a pre-estimated memo entry.
    /// Always 0: no pass pre-estimates frontiers any more.
    pub preestimate_hits: u64,
}

impl ShareStats {
    /// Accumulates another pass's counters.
    pub fn merge(&mut self, other: &ShareStats) {
        self.preestimate_hits += other.preestimate_hits;
    }
}

/// Counters for the work-stealing executor (`engine/pool.rs`, D10).
///
/// Unlike every other stat block, these are **scheduling evidence**,
/// not part of the run's deterministic output: which worker ran how
/// many items and how many chunks were stolen depend on OS timing by
/// design. The run's *results* stay bit-identical for any thread count
/// (the executor's contract); these counters record how evenly the
/// work spread, which is exactly what the old static chunking could
/// not guarantee on skewed levels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Passes fanned out over the pool's workers.
    pub parallel_passes: u64,
    /// Passes that took the sequential cutoff (fewer items than
    /// `threads × 2`, the engine's claim chunk) and ran inline on the caller.
    pub sequential_passes: u64,
    /// Items executed across all parallel passes.
    pub parallel_items: u64,
    /// Items executed inline by sequential-cutoff passes.
    pub sequential_items: u64,
    /// Chunks a worker claimed from another worker's range.
    pub steals: u64,
    /// Items run per worker (index 0 = the calling thread), summed over
    /// all parallel passes.
    pub worker_items: Vec<u64>,
    /// Membership ops run per worker, summed over all parallel passes —
    /// the skew evidence: static chunking leaves these unbounded apart,
    /// stealing pulls them together.
    pub worker_ops: Vec<u64>,
    /// Sampler union estimates a worker computed and then lost to a
    /// same-level sibling that inserted the same frontier into the
    /// memo's level overlay first: duplicate work a race cost, charged
    /// nowhere else (the loser counts a memo hit).
    pub memo_races: u64,
}

impl PoolStats {
    /// Adds one pass's per-worker counters (resizing on first use).
    pub fn fold_workers(
        &mut self,
        items: impl IntoIterator<Item = u64>,
        ops: impl IntoIterator<Item = u64>,
    ) {
        for (w, v) in items.into_iter().enumerate() {
            if self.worker_items.len() <= w {
                self.worker_items.resize(w + 1, 0);
            }
            self.worker_items[w] = self.worker_items[w].saturating_add(v);
        }
        for (w, v) in ops.into_iter().enumerate() {
            if self.worker_ops.len() <= w {
                self.worker_ops.resize(w + 1, 0);
            }
            self.worker_ops[w] = self.worker_ops[w].saturating_add(v);
        }
    }

    /// Max/min per-worker op ratio over all parallel passes — the
    /// balance evidence. `None` when no parallel pass ran or ops were
    /// never attributed; infinity when some worker ran zero ops while
    /// another worked (possible when workers time-slice a single
    /// hardware thread: one worker can legally drain everything).
    pub fn ops_balance_ratio(&self) -> Option<f64> {
        let max = self.worker_ops.iter().copied().max()?;
        let min = self.worker_ops.iter().copied().min()?;
        if max == 0 {
            return None;
        }
        if min == 0 {
            return Some(f64::INFINITY);
        }
        Some(max as f64 / min as f64)
    }

    /// Accumulates another run's counters.
    pub fn merge(&mut self, other: &PoolStats) {
        self.parallel_passes += other.parallel_passes;
        self.sequential_passes += other.sequential_passes;
        self.parallel_items += other.parallel_items;
        self.sequential_items += other.sequential_items;
        self.steals += other.steals;
        self.memo_races += other.memo_races;
        self.fold_workers(other.worker_items.iter().copied(), other.worker_ops.iter().copied());
    }
}

/// Counters collected during one FPRAS run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Membership-oracle operations (Algorithm 1 line 9 equivalents) —
    /// the paper's unit of time complexity.
    pub membership_ops: u64,
    /// Sample-reach bit tests `AppUnion`'s tally actually ran: at most
    /// `min(c, |S_i|)` per set drawn `c` times, so at most
    /// `membership_ops` — the real work beside the paper's measure.
    pub union_bit_tests: u64,
    /// Total `AppUnion` invocations that ran trials (memo misses included,
    /// memo hits excluded).
    pub appunion_calls: u64,
    /// Sampler union lookups answered from the memo (D4).
    pub memo_hits: u64,
    /// Sampler union lookups that had to run `AppUnion`.
    pub memo_misses: u64,
    /// Calls to `sample()` (Algorithm 3 line 23).
    pub sample_calls: u64,
    /// Calls that returned a word.
    pub sample_success: u64,
    /// Failures with `φ > 1` at the base (Theorem 2's `Fail₁`).
    pub fail_phi_gt_one: u64,
    /// Failures of the final coin flip (`Fail₂`).
    pub fail_rejected: u64,
    /// Of [`fail_rejected`](RunStats::fail_rejected), the trials whose
    /// coin was settled at the start node, without walking: the coin is
    /// drawn first, and an exact bound on every continuation's `φ`
    /// proved tails (DESIGN.md D21). Exits depend only on the calling
    /// loop's own trials, so this is identical at every thread count.
    pub trials_unwalked: u64,
    /// Of [`sample_success`](RunStats::sample_success), the trials that
    /// walked without tracking `φ`: their coin, drawn first, was below
    /// an exact bound under which every path from the closed start node
    /// returns a word (DESIGN.md §2.5, D22). Like
    /// [`trials_unwalked`](RunStats::trials_unwalked), identical at
    /// every thread count.
    pub walks_sure: u64,
    /// Failures because every branch estimate was zero (possible only
    /// under noise injection or exhausted estimates).
    pub fail_dead_end: u64,
    /// Backward steps taken by sampler walks (one per level walked).
    pub walk_steps: u64,
    /// Walk nodes whose successor frontiers a sampler scratch had to
    /// derive and intern (walk-cache misses); every other step reused
    /// them. Per-scratch, so under a multi-worker pool it depends on
    /// which worker walked where — like the pool counters, evidence of
    /// work, not part of the output.
    pub walk_nodes_built: u64,
    /// Walk steps served by a compiled node record (a table hit): the
    /// step replayed the node's stored branch sizes and draw weights
    /// instead of probing the memo. Per-scratch like
    /// [`walk_nodes_built`](RunStats::walk_nodes_built), so under a
    /// multi-worker pool it depends on which worker walked where.
    pub walk_table_hits: u64,
    /// Cells whose sample set needed padding (Algorithm 3 lines 27–30).
    pub padded_cells: u64,
    /// Padding entries appended in total.
    pub padded_entries: u64,
    /// Genuine (non-padding) samples stored across all cells.
    pub samples_stored: u64,
    /// (state, level) cells processed by the DP.
    pub cells_processed: u64,
    /// Cells skipped as unreachable or dead (D6).
    pub cells_skipped: u64,
    /// Batched union-estimation counters (D8).
    pub batch: BatchStats,
    /// Union-memo counters (§2.2).
    pub memo: MemoStats,
    /// Sample-pass frontier-sharing counters (always 0, see
    /// [`ShareStats`]).
    pub share: ShareStats,
    /// Work-stealing executor counters (D10; scheduling evidence only —
    /// see [`PoolStats`]).
    pub pool: PoolStats,
    /// Frontier-interner counters (§2.5): distinct frontiers, hash-cons
    /// hits and arena footprint for the run's `FrontierInterner`.
    pub intern: InternStats,
    /// Level-loop wall time attributed to the plan/count/sample/
    /// merge phases (DESIGN.md D15). Sums level-wise within a run and
    /// block-wise under [`merge`](RunStats::merge), like every other
    /// stat block.
    pub phase: PhaseWall,
    /// Wall-clock duration of the run. Under [`merge`](RunStats::merge)
    /// this field **sums** — serial-equivalent time, not elapsed time:
    /// merging two sessions that ran concurrently reports more `wall`
    /// than a clock on the wall showed. Use
    /// [`wall_total`](RunStats::wall_total) /
    /// [`wall_longest`](RunStats::wall_longest) to pick the semantics
    /// explicitly when reporting aggregates.
    pub wall: Duration,
    /// Largest single merged `wall` contribution (equal to `wall` for
    /// an un-merged run). See [`wall_longest`](RunStats::wall_longest).
    pub wall_max: Duration,
}

impl RunStats {
    /// Observed rejection rate of `sample()`; Theorem 2(2) bounds it by
    /// `1 − 2/(3e²) ≈ 0.91` under paper parameters.
    pub fn rejection_rate(&self) -> f64 {
        if self.sample_calls == 0 {
            return 0.0;
        }
        1.0 - self.sample_success as f64 / self.sample_calls as f64
    }

    /// Walk steps per returned word: what one accepted sample cost the
    /// sampler's walks, rejected trials included.
    pub fn steps_per_word(&self) -> f64 {
        if self.sample_success == 0 {
            return 0.0;
        }
        self.walk_steps as f64 / self.sample_success as f64
    }

    /// Memo hit rate of the sampler's union lookups.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            return 0.0;
        }
        self.memo_hits as f64 / total as f64
    }

    /// Mean genuine samples stored per processed cell — the measured
    /// counterpart of the paper's "samples per state" (§1).
    pub fn samples_per_cell(&self) -> f64 {
        if self.cells_processed == 0 {
            return 0.0;
        }
        self.samples_stored as f64 / self.cells_processed as f64
    }

    /// Total wall across everything merged into these stats — the
    /// **sum** of each run's serial time, CPU-time-like. The right
    /// number for "how much work was done", and an over-count of
    /// elapsed time whenever the merged runs overlapped on the clock.
    pub fn wall_total(&self) -> Duration {
        self.wall
    }

    /// Longest single merged contribution — a lower bound on the
    /// elapsed wall-clock span of the merged runs, and the right
    /// number for "how long did this take" when sessions ran
    /// concurrently. The engine and session layer set `wall_max`
    /// whenever they set `wall`, so for an un-merged run the two
    /// accessors agree.
    pub fn wall_longest(&self) -> Duration {
        self.wall_max
    }

    /// Accumulates another run's counters (for aggregate reporting).
    ///
    /// `wall` sums (see the field docs for the summation contract) and
    /// `wall_max` tracks the largest single contribution, so both
    /// [`wall_total`](RunStats::wall_total) and
    /// [`wall_longest`](RunStats::wall_longest) stay meaningful after
    /// folding many sessions together. Counters saturate at `u64::MAX`
    /// instead of wrapping: a session whose parameters were derived for
    /// a huge length can run more ops than a `u64` counts.
    pub fn merge(&mut self, other: &RunStats) {
        self.membership_ops = self.membership_ops.saturating_add(other.membership_ops);
        self.union_bit_tests = self.union_bit_tests.saturating_add(other.union_bit_tests);
        self.appunion_calls = self.appunion_calls.saturating_add(other.appunion_calls);
        self.memo_hits = self.memo_hits.saturating_add(other.memo_hits);
        self.memo_misses = self.memo_misses.saturating_add(other.memo_misses);
        self.sample_calls = self.sample_calls.saturating_add(other.sample_calls);
        self.sample_success = self.sample_success.saturating_add(other.sample_success);
        self.fail_phi_gt_one = self.fail_phi_gt_one.saturating_add(other.fail_phi_gt_one);
        self.fail_rejected = self.fail_rejected.saturating_add(other.fail_rejected);
        self.trials_unwalked = self.trials_unwalked.saturating_add(other.trials_unwalked);
        self.walks_sure = self.walks_sure.saturating_add(other.walks_sure);
        self.fail_dead_end = self.fail_dead_end.saturating_add(other.fail_dead_end);
        self.walk_steps = self.walk_steps.saturating_add(other.walk_steps);
        self.walk_nodes_built = self.walk_nodes_built.saturating_add(other.walk_nodes_built);
        self.walk_table_hits = self.walk_table_hits.saturating_add(other.walk_table_hits);
        self.padded_cells = self.padded_cells.saturating_add(other.padded_cells);
        self.padded_entries = self.padded_entries.saturating_add(other.padded_entries);
        self.samples_stored = self.samples_stored.saturating_add(other.samples_stored);
        self.cells_processed = self.cells_processed.saturating_add(other.cells_processed);
        self.cells_skipped = self.cells_skipped.saturating_add(other.cells_skipped);
        self.batch.merge(&other.batch);
        self.memo.merge(&other.memo);
        self.share.merge(&other.share);
        self.pool.merge(&other.pool);
        self.intern.merge(&other.intern);
        self.phase.merge(&other.phase);
        self.wall += other.wall;
        self.wall_max = self.wall_max.max(other.wall_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_with_zero_denominators() {
        let s = RunStats::default();
        assert_eq!(s.rejection_rate(), 0.0);
        assert_eq!(s.memo_hit_rate(), 0.0);
        assert_eq!(s.samples_per_cell(), 0.0);
    }

    #[test]
    fn rejection_rate() {
        let s = RunStats { sample_calls: 10, sample_success: 3, ..Default::default() };
        assert!((s.rejection_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunStats {
            membership_ops: 5,
            union_bit_tests: 4,
            sample_calls: 2,
            ..Default::default()
        };
        let b = RunStats {
            membership_ops: 7,
            union_bit_tests: 3,
            sample_calls: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.membership_ops, 12);
        assert_eq!(a.union_bit_tests, 7);
        assert_eq!(a.sample_calls, 3);
    }

    #[test]
    fn merge_splits_wall_total_from_longest() {
        // Two "concurrent sessions": 30 ms and 50 ms of serial wall.
        let mk = |ms: u64| RunStats {
            wall: Duration::from_millis(ms),
            wall_max: Duration::from_millis(ms),
            ..Default::default()
        };
        let mut agg = RunStats::default();
        agg.merge(&mk(30));
        agg.merge(&mk(50));
        // Total is the serial-equivalent sum; longest is the single
        // largest contribution (a lower bound on elapsed time).
        assert_eq!(agg.wall_total(), Duration::from_millis(80));
        assert_eq!(agg.wall_longest(), Duration::from_millis(50));
        // An un-merged run reports the same value through both.
        let solo = mk(30);
        assert_eq!(solo.wall_total(), solo.wall_longest());
    }

    #[test]
    fn merge_accumulates_phase_wall() {
        let mk = |us: u64| RunStats {
            phase: PhaseWall {
                plan: Duration::from_micros(us),
                count: Duration::from_micros(2 * us),
                share: Duration::from_micros(3 * us),
                sample: Duration::from_micros(4 * us),
                merge: Duration::from_micros(5 * us),
            },
            ..Default::default()
        };
        let mut a = mk(1);
        a.merge(&mk(10));
        assert_eq!(a.phase.plan, Duration::from_micros(11));
        assert_eq!(a.phase.sample, Duration::from_micros(44));
        assert_eq!(a.phase.total(), Duration::from_micros(165));
    }

    #[test]
    fn memo_and_share_merge_accumulate() {
        let mut a = RunStats {
            memo: MemoStats { commits: 1, entries_promoted: 3, overlay_entries: 4 },
            share: ShareStats { preestimate_hits: 5 },
            pool: PoolStats { memo_races: 2, ..Default::default() },
            ..Default::default()
        };
        let b = RunStats {
            memo: MemoStats { commits: 2, entries_promoted: 1, overlay_entries: 1 },
            share: ShareStats { preestimate_hits: 2 },
            pool: PoolStats { memo_races: 1, ..Default::default() },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.memo.commits, 3);
        assert_eq!(a.memo.entries_promoted, 4);
        assert_eq!(a.memo.overlay_entries, 5);
        assert_eq!(a.share.preestimate_hits, 7);
        assert_eq!(a.pool.memo_races, 3);
    }

    #[test]
    fn pool_merge_and_balance_ratio() {
        let mut a = PoolStats {
            parallel_passes: 2,
            sequential_passes: 1,
            parallel_items: 20,
            sequential_items: 3,
            steals: 4,
            worker_items: vec![12, 8],
            worker_ops: vec![100, 50],
            memo_races: 0,
        };
        let b = PoolStats {
            parallel_passes: 1,
            sequential_passes: 0,
            parallel_items: 10,
            sequential_items: 0,
            steals: 1,
            worker_items: vec![4, 3, 3],
            worker_ops: vec![10, 20, 30],
            memo_races: 0,
        };
        a.merge(&b);
        assert_eq!(a.parallel_passes, 3);
        assert_eq!(a.sequential_passes, 1);
        assert_eq!(a.parallel_items, 30);
        assert_eq!(a.steals, 5);
        assert_eq!(a.worker_items, vec![16, 11, 3]);
        assert_eq!(a.worker_ops, vec![110, 70, 30]);
        assert!((a.ops_balance_ratio().unwrap() - 110.0 / 30.0).abs() < 1e-12);
        // Degenerate shapes.
        assert_eq!(PoolStats::default().ops_balance_ratio(), None);
        let idle = PoolStats { worker_ops: vec![0, 0], ..Default::default() };
        assert_eq!(idle.ops_balance_ratio(), None);
        let starved = PoolStats { worker_ops: vec![5, 0], ..Default::default() };
        assert_eq!(starved.ops_balance_ratio(), Some(f64::INFINITY));
    }

    #[test]
    fn batch_merge_and_dedup_rate() {
        let mut a = RunStats {
            batch: BatchStats {
                groups_formed: 2,
                cells_deduped: 1,
                unions_run: 2,
                unions_skipped: 2,
            },
            ..Default::default()
        };
        let b = RunStats {
            batch: BatchStats {
                groups_formed: 1,
                cells_deduped: 2,
                unions_run: 1,
                unions_skipped: 2,
            },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.batch.groups_formed, 3);
        assert_eq!(a.batch.cells_deduped, 3);
        assert_eq!(a.batch.unions_run, 3);
        assert_eq!(a.batch.unions_skipped, 4);
        assert!((a.batch.dedup_rate() - 0.5).abs() < 1e-12);
        assert_eq!(BatchStats::default().dedup_rate(), 0.0);
    }
}
