//! Algorithm 2: the backward almost-uniform sampler.
//!
//! `sample(ℓ, Pℓ, w, φ, β, η)` extends the suffix `w` backwards, one
//! symbol per level. At level `ℓ` with frontier `Pℓ` it estimates, for
//! every symbol `b`, the size of `⋃_{p ∈ P_bℓ⁻¹} L(p^{ℓ-1})` where
//! `P_b = ⋃_{p∈P} Pred(p, b)` (lines 9–11), picks `b` proportionally to
//! those estimates (line 13), divides the carried probability `φ` by the
//! branch probability and recurses. At the base it returns the built word
//! with probability `φ` (lines 4–6); `φ > 1` is the `Fail₁` event, a
//! tails coin is `Fail₂` (Theorem 2).
//!
//! The implementation is iterative (the recursion is a simple loop), uses
//! [`ExtFloat`] for `φ` (which starts near `1/N(qℓ)`, far below `f64`
//! range for large `n`), and optionally memoizes the union estimates per
//! `(level, frontier)` — see DESIGN.md D4 and the `memoize_unions` knob.
//! All working memory lives in a caller-owned `SamplerScratch` threaded
//! through every call.
//!
//! # Compiled walk
//!
//! The branches a walk step sees depend only on the step's *node* — the
//! level and the frontier, or the start cell `(ℓ, q)` on the first step
//! — never on the calling cell or the RNG. The scratch therefore
//! compiles the walk into a table of node records: each visited node
//! gets a slot in a flat array, and its record holds the node's `k`
//! successor **slots** (`step_back(P, b) ∩ reach(ℓ−1)`, interned at
//! `ℓ−1`, then given a slot of their own), so the next step indexes the
//! table instead of probing a map. Only a node the scratch has not
//! built runs the backward-step kernels and the interner.
//!
//! With memoization on, a node's branch sizes are a pure function of the
//! node once its cold step has run: every non-empty branch was then a
//! memo hit or a miss whose estimate went into the memo, and memo
//! entries are first-wins and never change (a sampler-tier value is
//! fixed by the frontier, D9). So the first step at a node stores, in
//! the node's branch table, the `k` branch sizes and their total, and,
//! in the node's slot row beside its successor slots, the integer draw
//! thresholds of the categorical draw's rescaled `f64` weights
//! ([`fill_thresholds`]). Every later step at that node (a *table hit*)
//! counts the node's non-empty branches as memo hits — what a cold step
//! would count now that every branch is in the memo — draws by
//! comparing one RNG word against the thresholds
//! ([`sample_thresholds`], which returns the cold step's
//! `sample_weights` index from the same word), and updates `φ` as
//! `φ · total / size[b]` — the cold step's expression, in its order. So
//! a table hit consumes the same RNG draws and produces the same bits
//! and counters as the cold step it would replace. Both arms carry `φ`
//! as an [`ExtFloatChain`], which defers [`ExtFloat`]'s per-operation
//! normalisation without moving a bit, and normalise it once for the
//! base case. The memo-off paper path never compiles, keeping its fresh
//! estimate per step.
//!
//! Records are keyed on the interner's process-unique `uid` (successor
//! ids mean nothing under another interner; built levels never change,
//! D11) and on the memo's lineage id ([`UnionMemo`]): a memo of another
//! lineage may lack or differ in the entries a record replays, while a
//! memo of one lineage only grows. Under any other key the table starts
//! over. See DESIGN.md §2.5 and D17.
//!
//! # Coin first (D21)
//!
//! The base case's coin `u` is independent of the walk, so every trial
//! draws it before its first step. A compiled node caches its bound
//! `hi`: the largest product of `total / size[b]` along its positive
//! branches down to level 0. Once the start node is *closed* — it and
//! its whole positive sub-DAG walked in this retry loop, hence compiled —
//! a trial whose coin is at least `φ₀ · hi` (with a margin that covers
//! both sides' rounding, `exit_bound`) would end in `FailCoin` on every
//! path, so it ends there without walking (`trials_unwalked`).
//!
//! Closure counts only what the loop itself walked: `sample_words`
//! opens an *epoch* on the scratch, every step stamps its node with it,
//! and a node stamped in an earlier epoch does not count. So whether a
//! trial exits depends on the loop's own trials, never on which cells
//! the worker's scratch ran before, and exits — like every other
//! counter that is part of the output — are identical at every thread
//! count. `sample_words` is the one retry loop: the engine's sample
//! pass, the generator and a session's `sample` all draw through it.
//!
//! # Sure success and the closed replay (D22)
//!
//! A closed node also caches `lo`, the smallest path product. When no
//! path can reach `Fail₁` (the exit threshold is at most 1), a coin
//! below `φ₀ · lo` (with the flipped margin, `sure_bound`) returns a word
//! on every path, so such a trial walks without carrying `φ` at all
//! (`walks_sure`). Every trial from a closed start node that does not
//! exit runs one replay loop, generic over whether it tracks `φ`: every
//! node a draw can reach is compiled and already stamped in this epoch,
//! so a step is one threshold draw and one successor lookup by slot, with
//! no build check, no compile and no stamp. The replay draws the same RNG
//! words, picks the same branches and adds the same counters as the walk
//! it replaces, so no bit moves.
//!
//! An accepted trial is handed to the caller as its `Trail`, the
//! symbols last first: the engine's sample pass simulates the reach set
//! it stores straight from it, and only the generator and a session's
//! `sample` build a [`Word`].
//!
//! # Frontier-keyed union randomness (D9)
//!
//! When memoization is on, the `AppUnion` randomness for a sampler-side
//! union estimate is derived from the **frontier key**
//! ([`MemoKey::rng_tag`] mixed with a per-run sampler seed), never from
//! the calling cell's stream — the same congruence trick the batched
//! count pass uses (DESIGN.md D8). Any cell that estimates a given
//! frontier therefore computes the *identical* value, so which of a
//! level's cells inserts an entry first cannot change a single output
//! bit. A sample pass's workers share one level overlay of the memo,
//! so each distinct frontier is estimated once per pass unless two
//! workers race on it; the insert that wins is charged the estimate's
//! work and its miss, and every other query counts as a hit, so run
//! totals do not depend on the schedule (a lost race's duplicate work
//! goes to the scheduling-only `PoolStats::memo_races`). With
//! memoization off (paper profile) every query draws fresh randomness
//! from the caller's stream, preserving the paper's
//! independent-estimates reading.

use crate::appunion::{app_union, frontier_inputs, UnionScratch};
use crate::engine::memo::UnionMemo;
use crate::engine::policy::{PHASE_SALT, PHASE_SAMPLER_UNION};
use crate::engine::substrate::LeveledSubstrate;
use crate::intern::{FrontierId, FrontierInterner};
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::table::{splitmix64, BuildKeyHasher, MemoKey, RunTable, SampleOutcome};
use fpras_automata::{StateId, StateSet, Word};
use fpras_numeric::{
    fill_thresholds, sample_extfloat_weights_with, sample_thresholds, ExtFloat, ExtFloatChain,
};
use rand::{rngs::SmallRng, Rng, RngExt, SeedableRng};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// The read-only context one sampler invocation runs against: the
/// resolved parameters, the run's leveled substrate (stepping kernels +
/// per-level reachability filter — D14), the run's frontier interner,
/// and the frontier-keyed union seed. Bundled so the deep call chain
/// (`sample_words` → `walk` → `union_size` → `app_union`) passes one
/// reference instead of five.
pub(crate) struct SamplerEnv<'a> {
    /// Resolved run parameters.
    pub params: &'a Params,
    /// The leveled-DAG substrate the run walks over.
    pub substrate: &'a dyn LeveledSubstrate,
    /// The run's frontier interner (memo keys, RNG tags).
    pub interner: &'a FrontierInterner,
    /// Seed of the frontier-keyed union streams (D9).
    pub sampler_seed: u64,
}

/// Reusable working memory for [`sample_words`]: the compiled walk, the
/// cold-path frontier buffers, the per-symbol branch sizes, the
/// reversed symbol trail, the categorical draw's rescale buffer, and the
/// nested `AppUnion` scratch. A fresh scratch is equivalent to a reused
/// one — the walk table changes how much work a step does, never its
/// result — so callers keep one per worker and a whole sample pass
/// allocates only for the nodes it builds.
#[derive(Clone)]
pub(crate) struct SamplerScratch {
    walk: WalkTable,
    /// The open epoch: one retry loop's trials. A walk step stamps its
    /// node with it, and only nodes stamped in the open epoch count
    /// towards a start node's closure. Never 0 once a loop has opened,
    /// so a stamp of 0 means "never stamped", and at most [`MAX_EPOCH`],
    /// so both of an epoch's stamps fit a `u32` ([`NodeRecord::stamp`]).
    epoch: u32,
    /// The closure search of the open epoch: its DFS stack of
    /// `(slot, level, next symbol)` frames.
    closing: Vec<(u32, u32, u32)>,
    /// The node `(slot, level)` the closure search stopped at, resumed
    /// once a walk has stamped and compiled it; `None` once the start
    /// node is closed, or when no search runs.
    blocker: Option<(u32, u32)>,
    /// Set of the node being built, or of a frontier whose union is
    /// estimated afresh.
    frontier: StateSet,
    /// One predecessor frontier of the node being built.
    branch: StateSet,
    branch_sizes: Vec<ExtFloat>,
    /// The current trial's symbols, last first: an accepted trial's
    /// [`Trail`].
    rev_syms: Vec<u8>,
    scaled: Vec<f64>,
    union: UnionScratch,
}

impl SamplerScratch {
    /// An empty scratch; bound to an interner and a memo on first
    /// [`sample_words`] call.
    pub(crate) fn new() -> Self {
        SamplerScratch {
            walk: WalkTable::default(),
            epoch: 0,
            closing: Vec::new(),
            blocker: None,
            frontier: StateSet::empty(0),
            branch: StateSet::empty(0),
            branch_sizes: Vec::new(),
            rev_syms: Vec::new(),
            scaled: Vec::new(),
            union: UnionScratch::new(),
        }
    }

    /// Readies the scratch for walks of width `k` under `interner` and
    /// `memo`: drops a walk table built under another interner or memo
    /// lineage, and sizes the set buffers to the interner's universe.
    fn bind(&mut self, interner: &FrontierInterner, memo: &UnionMemo, k: usize) {
        let key = (interner.uid(), memo.lineage(), k);
        if (self.walk.interner, self.walk.lineage, self.walk.k) != key {
            let (interner, lineage, k) = key;
            self.walk = WalkTable { interner, lineage, k, ..WalkTable::default() };
        }
        if self.frontier.universe() != interner.universe() {
            self.frontier = StateSet::empty(interner.universe());
            self.branch = StateSet::empty(interner.universe());
        }
    }

    /// Loads the set of the walk node `node` at level `ell` into
    /// `frontier`: `{q}` for a start cell, the interned frontier
    /// otherwise.
    fn load_node(&mut self, interner: &FrontierInterner, node: u64, ell: usize) {
        if node & START_NODE != 0 {
            self.frontier.clear();
            self.frontier.insert(node as u32 as usize);
        } else {
            interner.load(ell, FrontierId(node as u32), &mut self.frontier);
        }
    }

    /// Fills in the successor slots of the unbuilt node at `slot` (its
    /// first visit): the node's set stepped back by every symbol, cut to
    /// the states reachable at `ell − 1`, interned there and given a
    /// slot.
    #[cold]
    fn build(&mut self, env: &SamplerEnv<'_>, slot: usize, ell: usize, stats: &mut RunStats) {
        let k = self.walk.k;
        stats.walk_nodes_built += 1;
        self.load_node(env.interner, self.walk.records[slot].node, ell);
        for sym in 0..k {
            env.substrate.step_back_into(&self.frontier, sym as u8, &mut self.branch);
            self.branch.intersect_with(env.substrate.reachable(ell - 1));
            self.walk.succ[slot * k + sym] = if self.branch.is_empty() {
                EMPTY_BRANCH
            } else {
                let id = env.interner.intern(ell - 1, &self.branch).frontier();
                self.walk.slot(MemoKey::node_of((ell - 1) as u32, id))
            };
        }
    }

    /// Opens a new epoch whose closure search starts at the start node
    /// `(slot, level)`; above [`MAX_EXIT_LEVEL`] no search runs. On wrap
    /// every stamp is cleared, so no stamp of an old epoch can pass for
    /// one of the new.
    fn open_epoch(&mut self, slot: u32, level: usize) {
        self.epoch += 1;
        if self.epoch > MAX_EPOCH {
            self.walk.records.iter_mut().for_each(|r| r.stamp = 0);
            self.epoch = 1;
        }
        self.closing.clear();
        self.blocker = (level <= MAX_EXIT_LEVEL).then_some((slot, level as u32));
    }

    /// True iff the closure search is blocked at a node that a walk of
    /// this epoch has since stamped and compiled, so it can go on.
    #[inline]
    fn blocker_ready(&self) -> bool {
        self.blocker.is_some_and(|(slot, _)| self.walk.visited(slot, self.epoch))
    }

    /// Resumes the closure search (its blocker is ready): a depth-first
    /// pass over the start node's positive branches that closes each
    /// node once all its positive successors are closed, caching the
    /// node's bounds on its first closing. Returns the start node's
    /// bounds once it closes, or `None` after stopping at the next node
    /// this epoch has not visited (the new blocker). Each node is pushed
    /// at most once per epoch and each branch scanned once, so a whole
    /// epoch's search costs no more than the nodes its walks visited.
    fn resume_closure(&mut self) -> Option<Bounds> {
        let (epoch, k) = (self.epoch, self.walk.k);
        let (slot, ell) = self.blocker.take().expect("a blocked search");
        self.closing.push((slot, ell, 0));
        loop {
            let &mut (slot, ell, ref mut sym) = self.closing.last_mut().expect("a frame");
            let t = self.walk.records[slot as usize].table as usize;
            let mut pushed = None;
            while (*sym as usize) < k {
                let b = *sym as usize;
                *sym += 1;
                let child = self.walk.succ[slot as usize * k + b];
                if ell == 1
                    || self.walk.sizes[t * k + b].is_zero()
                    || self.walk.closed(child, epoch)
                {
                    continue; // level 0, a branch never drawn, or closed
                }
                if !self.walk.visited(child, epoch) {
                    self.blocker = Some((child, ell - 1));
                    return None;
                }
                pushed = Some((child, ell - 1, 0));
                break;
            }
            if let Some(frame) = pushed {
                self.closing.push(frame);
                continue;
            }
            let bounds = self.walk.close(slot, ell, epoch);
            self.closing.pop();
            if self.closing.is_empty() {
                return Some(bounds);
            }
        }
    }
}

/// Largest epoch before the counter wraps: its closed stamp
/// `2·MAX_EPOCH + 1` is `u32::MAX`.
const MAX_EPOCH: u32 = u32::MAX / 2;

/// Deepest start level at which a trial may exit before walking, or
/// succeed without tracking `φ`. The margins `1 ± 2⁻³⁰` of
/// [`exit_bound`] and [`sure_bound`] cover the roundings of a walk and
/// of its bounds up to here.
const MAX_EXIT_LEVEL: usize = 1 << 20;

/// A closed node's bounds on the `φ` factor `Π total/size[b]` a walk
/// from it collects down to level 0, where both are 1: `hi` the largest
/// over its paths of positive branches, `lo` the smallest. Zero until the
/// node first closes; a compiled row never changes under one walk-table
/// key, so neither do its bounds.
#[derive(Clone, Copy, Debug)]
struct Bounds {
    hi: ExtFloat,
    lo: ExtFloat,
}

/// The exit test's threshold for a trial with start probability `phi0`
/// from a closed start node with bound `hi`: a coin `u ≥` it proves the
/// walk would end in `FailCoin`.
///
/// Every walk from the node ends with `φ = φ₀ · Π total/size[b]` along
/// its path, and `hi` is that product's maximum over paths. Both are
/// rounded, with the same inputs: the walk rounds twice per step
/// ([`ExtFloatChain::mul_div`]; its renormalisations are exact) and once
/// more in the coin's `to_f64`; `hi` rounds twice per level, and this
/// function three times (the product, `to_f64`, the margin). So at start
/// level `ℓ` the walk's coin threshold is at most the exact product times
/// `(1 + 2⁻⁵³)^(2ℓ+1)`, and this threshold at least the exact maximum
/// times `(1 − 2⁻⁵³)^(2ℓ+3) · (1 + 2⁻³⁰)`. For `ℓ ≤ 2²⁰` the margin
/// outweighs the `4ℓ + 4 ≤ 2²² + 4` roundings, so `u ≥` threshold gives
/// `φ ≤ u < 1` (never `Fail₁`) and a tails coin on every path. A product
/// below `f64`'s normal range is raised to `f64::MIN_POSITIVE`: a
/// positive coin is at least `2⁻⁵³`, far above any such `φ`.
fn exit_bound(phi0: ExtFloat, hi: ExtFloat) -> f64 {
    ((phi0 * hi).to_f64() * EXIT_MARGIN).max(f64::MIN_POSITIVE)
}

/// [`exit_bound`]'s margin, `1 + 2⁻³⁰`.
const EXIT_MARGIN: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;

/// The sure test's threshold for a trial with start probability `phi0`
/// from a closed start node with bound `lo`, whose exit threshold is at
/// most 1: a coin `u <` it proves the walk would return a word.
///
/// [`exit_bound`]'s argument with the sign flipped. Every walk ends with
/// `φ` at least the exact path product times `(1 − 2⁻⁵³)^(2ℓ+1)`, and
/// this threshold is at most the exact minimum times
/// `(1 + 2⁻⁵³)^(2ℓ+3) · (1 − 2⁻³⁰)`; for `ℓ ≤ 2²⁰` the margin outweighs
/// the `4ℓ + 4` roundings, so `u <` threshold gives `u < φ` on every
/// path. An exit threshold of at most 1 rules out `Fail₁` (`φ` stays
/// below it on every path), so the trial returns a word whichever path
/// it draws. A threshold below `f64`'s normal range is 0 — no coin is
/// below it — so every `φ` it is compared with is normal and its
/// `to_f64` exact.
fn sure_bound(phi0: ExtFloat, lo: ExtFloat) -> f64 {
    let sure = (phi0 * lo).to_f64() * SURE_MARGIN;
    if sure >= f64::MIN_POSITIVE {
        sure
    } else {
        0.0
    }
}

/// [`sure_bound`]'s margin, `1 − 2⁻³⁰`.
const SURE_MARGIN: f64 = 1.0 - 1.0 / (1u64 << 30) as f64;

/// Successor slot of a branch whose predecessor frontier is empty.
const EMPTY_BRANCH: u32 = u32::MAX;

/// First successor slot of a node whose successors are not built yet.
const UNBUILT: u32 = u32::MAX - 1;

/// Branch-table index of a node that is not compiled.
const NO_TABLE: u32 = u32::MAX;

/// Walk-table key flag of a start cell `(ℓ, q)`. Frontier nodes use the
/// memo's packed `(level, id)` ([`MemoKey::node_of`]), whose bit 63 is
/// always clear, so the two kinds never collide — and start singletons
/// need not be interned.
const START_NODE: u64 = 1 << 63;

fn start_node(level: usize, q: StateId) -> u64 {
    START_NODE | (level as u64) << 32 | u64::from(q)
}

/// One walk node's record: its key and, once compiled, its branch table.
/// Its `k` successor slots and draw thresholds live at `slot·k` in
/// [`WalkTable::succ`] and [`WalkTable::thresholds`].
#[derive(Clone)]
struct NodeRecord {
    /// The node: a packed `(level, id)` or a [`START_NODE`] key.
    node: u64,
    /// Index into [`WalkTable::tables`], or [`NO_TABLE`].
    table: u32,
    /// `2·e` once a walk of epoch `e` stepped from this node, `2·e + 1`
    /// once the node closed in `e`; 0 for neither. Stamps only grow
    /// within an epoch, and every stamp of an earlier epoch is below
    /// `2·e`.
    stamp: u32,
}

/// A compiled node's step: what the cold step computed from the memo,
/// in the form a warm step replays, and the node's bounds. Its `k`
/// branch sizes live at `table·k` in [`WalkTable::sizes`]; its draw
/// thresholds sit in the node's slot row. The memo hits a replay counts
/// are the node's non-empty branches, read off its successor slots.
#[derive(Clone)]
struct BranchTable {
    /// Sum of the branch sizes, in the cold step's fold order.
    total: ExtFloat,
    /// The node's bounds, cached on its first closing.
    bounds: Bounds,
}

/// Per-scratch compiled walk — see the module docs. Memory per node:
/// one map entry (a `u64` key and a `u32` slot), a 16-byte record, `k`
/// `u32` successor slots and `k − 1` `u64` draw thresholds; a compiled
/// node adds a 48-byte branch table and `k` sizes (16 bytes).
#[derive(Clone, Default)]
struct WalkTable {
    /// [`FrontierInterner::uid`] of the interner the slots' ids belong
    /// to; 0 (no interner) until the first bind.
    interner: u64,
    /// Lineage id of the memo the branch tables were read from.
    lineage: u64,
    /// Alphabet width: successor, size and threshold rows are `k` long.
    k: usize,
    /// The last start cell looked up and its slot; key 0 (no start
    /// cell has it) until the first lookup. A cell's trials all start
    /// at one node, so this spares them the map probe.
    start: (u64, u32),
    /// Node key → slot.
    slots: HashMap<u64, u32, BuildKeyHasher>,
    /// Node records by slot.
    records: Vec<NodeRecord>,
    /// Successor slots, `k` per node in symbol order: [`EMPTY_BRANCH`]
    /// for an empty branch, all [`UNBUILT`] before the node's first
    /// visit.
    succ: Vec<u32>,
    /// Draw thresholds ([`fill_thresholds`]) of the cold step's rescaled
    /// weights, `k − 1` per node beside its successor slots (the last
    /// branch's is implicit), so a replayed step reads its draw and its
    /// successor by slot alone; zero until the node compiles.
    thresholds: Vec<u64>,
    /// Branch tables of the compiled nodes.
    tables: Vec<BranchTable>,
    /// Branch sizes, `k` per branch table.
    sizes: Vec<ExtFloat>,
}

impl WalkTable {
    /// The slot of `node`, adding an unbuilt record on first sight.
    fn slot(&mut self, node: u64) -> u32 {
        let WalkTable { slots, records, succ, thresholds, k, .. } = self;
        *slots.entry(node).or_insert_with(|| {
            let slot = u32::try_from(records.len())
                .ok()
                .filter(|&s| s < UNBUILT)
                .expect("walk table slot fits below the sentinels");
            records.push(NodeRecord { node, table: NO_TABLE, stamp: 0 });
            succ.resize(succ.len() + *k, UNBUILT);
            thresholds.resize(thresholds.len() + k.saturating_sub(1), 0);
            slot
        })
    }

    /// The slot of the start cell `node`, through the one-entry cache.
    fn start_slot(&mut self, node: u64) -> u32 {
        if self.start.0 != node {
            self.start = (node, self.slot(node));
        }
        self.start.1
    }

    /// Compiles the node at `slot` from its cold step.
    fn compile(&mut self, slot: usize, sizes: &[ExtFloat], weights: &[f64], t: BranchTable) {
        self.records[slot].table =
            u32::try_from(self.tables.len()).expect("branch table index fits u32");
        self.tables.push(t);
        self.sizes.extend_from_slice(sizes);
        fill_thresholds(weights, self.threshold_row_mut(slot));
    }

    /// The draw thresholds of the node at `slot`: `k − 1` of them, the
    /// last branch's (`2⁵³`, never reached) left implicit.
    #[inline]
    fn threshold_row(&self, slot: usize) -> &[u64] {
        let w = self.k.saturating_sub(1);
        &self.thresholds[slot * w..(slot + 1) * w]
    }

    fn threshold_row_mut(&mut self, slot: usize) -> &mut [u64] {
        let w = self.k.saturating_sub(1);
        &mut self.thresholds[slot * w..(slot + 1) * w]
    }

    /// One replayed step at the compiled node at `slot`: the cold step's
    /// draw, from its thresholds and one RNG word, and with `PHI` its
    /// `φ` update `φ · total / size[b]`. Returns the branch drawn.
    #[inline]
    fn replay_step<const PHI: bool, R: Rng + ?Sized>(
        &self,
        slot: usize,
        rng: &mut R,
        phi: &mut ExtFloatChain,
    ) -> usize {
        let choice = sample_thresholds(rng, self.threshold_row(slot));
        if PHI {
            let t = self.records[slot].table as usize;
            phi.mul_div(self.tables[t].total, self.sizes[t * self.k + choice]);
        }
        choice
    }

    /// Memo hits a replayed step at the node at `slot` counts: its
    /// non-empty branches, each a memo hit now.
    #[inline]
    fn hits(&self, slot: usize) -> u64 {
        let row = &self.succ[slot * self.k..(slot + 1) * self.k];
        row.iter().filter(|&&s| s != EMPTY_BRANCH).count() as u64
    }

    /// True iff a walk stepped from the node at `slot` in `epoch` and
    /// the node is compiled.
    #[inline]
    fn visited(&self, slot: u32, epoch: u32) -> bool {
        let r = &self.records[slot as usize];
        r.stamp >= 2 * epoch && r.table != NO_TABLE
    }

    /// True iff the node at `slot` is closed in `epoch`.
    fn closed(&self, slot: u32, epoch: u32) -> bool {
        self.records[slot as usize].stamp == 2 * epoch + 1
    }

    /// Closes the node at `slot` (level `ell`) in `epoch` — every
    /// positive successor is closed — and returns its bounds, computing
    /// and caching them on the node's first closing.
    fn close(&mut self, slot: u32, ell: u32, epoch: u32) -> Bounds {
        let k = self.k;
        let t = self.records[slot as usize].table as usize;
        if self.tables[t].bounds.hi.is_zero() {
            let total = self.tables[t].total;
            let (mut hi, mut lo) = (ExtFloat::ZERO, ExtFloat::ZERO);
            for b in 0..k {
                let size = self.sizes[t * k + b];
                if size.is_zero() {
                    continue;
                }
                let below = if ell == 1 {
                    Bounds { hi: ExtFloat::ONE, lo: ExtFloat::ONE }
                } else {
                    let child = self.records[self.succ[slot as usize * k + b] as usize].table;
                    self.tables[child as usize].bounds
                };
                let step = total / size;
                let (up, down) = (step * below.hi, step * below.lo);
                if up > hi {
                    hi = up;
                }
                if lo.is_zero() || down < lo {
                    lo = down;
                }
            }
            self.tables[t].bounds = Bounds { hi, lo };
        }
        self.records[slot as usize].stamp = 2 * epoch + 1;
        self.tables[t].bounds
    }
}

/// Independent RNG stream for one sampler union estimation, keyed by the
/// frontier's canonical tag and the run's sampler seed. A congruence:
/// equal frontiers (however assembled, in whichever cell) get identical
/// draws, so every cell that misses a frontier computes the
/// bit-identical value.
pub(crate) fn sampler_union_rng(sampler_seed: u64, tag: u64) -> SmallRng {
    let mixed =
        splitmix64(sampler_seed ^ splitmix64(tag) ^ splitmix64(PHASE_SAMPLER_UNION ^ PHASE_SALT));
    SmallRng::seed_from_u64(mixed)
}

/// Estimates `|⋃_{p ∈ F} L(p^level)|` for the interned frontier
/// `F = id`, consulting and filling the memo when enabled. Only a memo
/// miss or the paper path reads `F`'s states back (into `frontier`).
#[allow(clippy::too_many_arguments)]
fn union_size<R: Rng + ?Sized>(
    env: &SamplerEnv<'_>,
    table: &RunTable,
    memo: &UnionMemo,
    level: usize,
    id: FrontierId,
    rng: &mut R,
    frontier: &mut StateSet,
    scratch: &mut UnionScratch,
    stats: &mut RunStats,
) -> ExtFloat {
    let params = env.params;
    if params.memoize_unions {
        if let Some(value) = memo.get_node(MemoKey::node_of(level as u32, id)) {
            stats.memo_hits += 1;
            return value;
        }
        let key = env.interner.load(level, id, frontier);
        let inputs = frontier_inputs(table, level, frontier);
        let eps_sz = params.eps_sz_at_level(params.beta_count, level + 1);
        let mut union_rng = sampler_union_rng(env.sampler_seed, key.rng_tag());
        let mut work = RunStats::default();
        let est = app_union(
            params,
            params.beta_sample,
            params.delta_sample_inner(),
            eps_sz,
            &inputs,
            table.num_states(),
            &mut union_rng,
            scratch,
            &mut work,
        )
        .value;
        // The estimate is charged once per frontier, to the insert that
        // wins; a worker that lost the race counts a hit, as it would
        // have had it probed a moment later.
        if memo.insert_level(key, est) {
            stats.merge(&work);
            stats.memo_misses += 1;
        } else {
            stats.memo_hits += 1;
            stats.pool.memo_races += 1;
        }
        return est;
    }
    // Paper path (D4 off): a fresh estimate from the caller's stream on
    // every query — the paper's independent-draws reading.
    env.interner.load(level, id, frontier);
    let inputs = frontier_inputs(table, level, frontier);
    let eps_sz = params.eps_sz_at_level(params.beta_count, level + 1);
    app_union(
        params,
        params.beta_sample,
        params.delta_sample_inner(),
        eps_sz,
        &inputs,
        table.num_states(),
        rng,
        scratch,
        stats,
    )
    .value
}

/// The symbols of an accepted trial, last symbol first — the order the
/// backward walk draws them in. Borrowed from the scratch for the
/// duration of one [`sample_words`] callback.
#[derive(Clone, Copy)]
pub(crate) struct Trail<'a>(&'a [u8]);

impl<'a> Trail<'a> {
    /// The symbols, last first.
    pub(crate) fn rev_symbols(self) -> &'a [u8] {
        self.0
    }

    /// The word, in reading order.
    pub(crate) fn to_word(self) -> Word {
        Word::from_reversed(self.0.to_vec())
    }
}

/// Runs Algorithm 2's trials from the singleton frontier `{start}` at
/// `level` — the calls `sample(ℓ, {qℓ}, λ, γ₀, β, η)` of Algorithm 3
/// line 23 — until `on` breaks, a trial ends in `DeadEnd`, or `attempts`
/// trials ran. Every outcome goes to `on`, `DeadEnd` included; an
/// accepted trial hands over its [`Trail`], so a caller that needs only
/// the word's reach set never builds a [`Word`].
///
/// This is the one retry loop: the engine's sample pass, the generator
/// and a session's `sample` all draw through it. It opens one epoch on
/// the scratch, so which trials exit before walking depends only on the
/// loop's own trials, never on what the scratch ran before.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_words<R: Rng + ?Sized>(
    env: &SamplerEnv<'_>,
    table: &RunTable,
    memo: &UnionMemo,
    start: StateId,
    level: usize,
    attempts: usize,
    rng: &mut R,
    scratch: &mut SamplerScratch,
    stats: &mut RunStats,
    mut on: impl FnMut(SampleOutcome<Trail<'_>>) -> ControlFlow<()>,
) {
    let mut trials = Trials::open(env, table, memo, start, level, scratch);
    for _ in 0..attempts {
        let out = trials.next(env, table, memo, rng, scratch, stats);
        let dead = matches!(out, SampleOutcome::DeadEnd);
        if on(out.map_word(|()| Trail(&scratch.rev_syms))).is_break() || dead {
            break;
        }
    }
}

/// The first word of [`sample_words`]' trials: `None` when `attempts`
/// trials drew none or one ended in `DeadEnd`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_one<R: Rng + ?Sized>(
    env: &SamplerEnv<'_>,
    table: &RunTable,
    memo: &UnionMemo,
    start: StateId,
    level: usize,
    attempts: usize,
    rng: &mut R,
    scratch: &mut SamplerScratch,
    stats: &mut RunStats,
) -> Option<Word> {
    let mut word = None;
    sample_words(env, table, memo, start, level, attempts, rng, scratch, stats, |out| {
        if let SampleOutcome::Word(trail) = out {
            word = Some(trail.to_word());
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    word
}

/// One epoch of trials from one start cell.
struct Trials {
    /// The start node's slot.
    slot: usize,
    level: usize,
    /// `γ₀ = gamma_scale / N(qℓ)` (Algorithm 3 line 23); zero for a
    /// dead start cell.
    phi0: ExtFloat,
    /// True once the start node has closed in this epoch: every trial
    /// that walks then replays compiled, stamped nodes ([`replay`]).
    closed: bool,
    /// A coin at or above this ends the trial in `FailCoin` before it
    /// walks ([`exit_bound`]); infinite until the start node closes.
    exit_at: f64,
    /// A coin below this returns a word on every path, so the trial
    /// replays without tracking `φ` ([`sure_bound`]); zero until the
    /// start node closes, and while some path could end in `Fail₁`.
    sure_at: f64,
}

impl Trials {
    /// Binds `scratch` and opens its epoch for trials from `(start, level)`.
    fn open(
        env: &SamplerEnv<'_>,
        table: &RunTable,
        memo: &UnionMemo,
        start: StateId,
        level: usize,
        scratch: &mut SamplerScratch,
    ) -> Self {
        let n_start = table.cell(level, start as usize).n_est;
        let phi0 = if n_start.is_zero() {
            ExtFloat::ZERO
        } else {
            ExtFloat::from_f64(env.params.gamma_scale) / n_start
        };
        scratch.bind(env.interner, memo, env.substrate.width());
        let slot = scratch.walk.start_slot(start_node(level, start));
        scratch.open_epoch(slot, level);
        Trials {
            slot: slot as usize,
            level,
            phi0,
            closed: false,
            exit_at: f64::INFINITY,
            sure_at: 0.0,
        }
    }

    /// One trial: the coin first, then — unless the coin alone proves a
    /// tails outcome — the walk, or the replay once the start node has
    /// closed. The trial's symbols are left in the scratch's trail.
    fn next<R: Rng + ?Sized>(
        &mut self,
        env: &SamplerEnv<'_>,
        table: &RunTable,
        memo: &UnionMemo,
        rng: &mut R,
        scratch: &mut SamplerScratch,
        stats: &mut RunStats,
    ) -> SampleOutcome<()> {
        stats.sample_calls += 1;
        if self.phi0.is_zero() {
            stats.fail_dead_end += 1;
            return SampleOutcome::DeadEnd;
        }
        if scratch.blocker_ready() {
            if let Some(Bounds { hi, lo }) = scratch.resume_closure() {
                self.closed = true;
                self.exit_at = exit_bound(self.phi0, hi);
                if self.exit_at <= 1.0 {
                    self.sure_at = sure_bound(self.phi0, lo);
                }
            }
        }
        // The base case's coin (lines 4–6), drawn before the walk: it is
        // independent of the walk, so the joint law is unchanged.
        let u = rng.random_range(0.0..1.0);
        if u >= self.exit_at {
            stats.trials_unwalked += 1;
            stats.fail_rejected += 1;
            return SampleOutcome::FailCoin;
        }
        if !self.closed {
            return walk(
                env, table, memo, self.slot, self.level, self.phi0, u, rng, scratch, stats,
            );
        }
        let (walk, trail) = (&scratch.walk, &mut scratch.rev_syms);
        let (slot, level, phi0) = (self.slot, self.level, self.phi0);
        if u < self.sure_at {
            stats.walks_sure += 1;
            replay::<false, R>(walk, slot, level, phi0, u, rng, trail, stats)
        } else {
            replay::<true, R>(walk, slot, level, phi0, u, rng, trail, stats)
        }
    }
}

/// Walks one trial from the start node at `slot` (level `level`, start
/// probability `phi0`) down to level 0 and settles it against the coin
/// `u`. The scratch is bound; every step stamps its node with the
/// scratch's epoch.
#[allow(clippy::too_many_arguments)]
fn walk<R: Rng + ?Sized>(
    env: &SamplerEnv<'_>,
    table: &RunTable,
    memo: &UnionMemo,
    mut slot: usize,
    level: usize,
    phi0: ExtFloat,
    u: f64,
    rng: &mut R,
    scratch: &mut SamplerScratch,
    stats: &mut RunStats,
) -> SampleOutcome<()> {
    let k = scratch.walk.k;
    let visit = 2 * scratch.epoch;
    let mut phi = ExtFloatChain::new(phi0);
    scratch.rev_syms.clear();

    for ell in (1..=level).rev() {
        stats.walk_steps += 1;
        let at = slot * k;
        if scratch.walk.succ[at] == UNBUILT {
            scratch.build(env, slot, ell, stats);
        }
        let record = &mut scratch.walk.records[slot];
        record.stamp = record.stamp.max(visit);
        let choice = if record.table != NO_TABLE {
            // A table hit: the cold step's counters, draw and φ update,
            // replayed from the node's record.
            stats.walk_table_hits += 1;
            stats.memo_hits += scratch.walk.hits(slot);
            scratch.walk.replay_step::<true, R>(slot, rng, &mut phi)
        } else {
            // Lines 8–11: per-symbol predecessor frontiers and union sizes.
            scratch.branch_sizes.clear();
            for sym in 0..k {
                let next = scratch.walk.succ[at + sym];
                let sz = if next == EMPTY_BRANCH {
                    ExtFloat::ZERO
                } else {
                    let node = scratch.walk.records[next as usize].node;
                    union_size(
                        env,
                        table,
                        memo,
                        ell - 1,
                        FrontierId(node as u32),
                        rng,
                        &mut scratch.frontier,
                        &mut scratch.union,
                        stats,
                    )
                };
                scratch.branch_sizes.push(sz);
            }
            let total: ExtFloat = scratch.branch_sizes.iter().copied().sum();
            if total.is_zero() {
                stats.fail_dead_end += 1;
                return SampleOutcome::DeadEnd;
            }
            // Line 13: pick b with probability sz_b / Σ sz.
            let Some(choice) =
                sample_extfloat_weights_with(rng, &scratch.branch_sizes, &mut scratch.scaled)
            else {
                stats.fail_dead_end += 1;
                return SampleOutcome::DeadEnd;
            };
            // Line 16's recursive call carries φ / pr_b.
            phi.mul_div(total, scratch.branch_sizes[choice]);
            if env.params.memoize_unions {
                let zero = Bounds { hi: ExtFloat::ZERO, lo: ExtFloat::ZERO };
                let t = BranchTable { total, bounds: zero };
                scratch.walk.compile(slot, &scratch.branch_sizes, &scratch.scaled, t);
            }
            choice
        };
        scratch.rev_syms.push(choice as u8);
        slot = scratch.walk.succ[at + choice] as usize;
    }

    // Base case (lines 4–6). The frontier must contain the initial state:
    // every chosen branch had a positive union estimate, and level-0
    // estimates are positive only for the initial state.
    debug_assert!(
        {
            scratch.load_node(env.interner, scratch.walk.records[slot].node, 0);
            scratch.frontier.contains(env.substrate.initial())
        },
        "sampled path must lead back to the initial state"
    );
    settle(phi.value(), u, stats)
}

/// Replays one trial from the closed start node at `slot`: every node a
/// draw can reach is compiled and already stamped in this epoch, so a
/// step is one threshold draw and one successor lookup by slot, with no
/// build check, no compile and no stamp. With `PHI` the trial carries
/// `φ` exactly as [`walk`]'s table hits do and is settled against `u`;
/// without it the coin was below [`sure_bound`], so the trial returns a
/// word whatever path it draws. The draws, the trail and every counter
/// are the ones [`walk`] would produce; the step counters are added once.
#[allow(clippy::too_many_arguments)]
fn replay<const PHI: bool, R: Rng + ?Sized>(
    walk: &WalkTable,
    mut slot: usize,
    level: usize,
    phi0: ExtFloat,
    u: f64,
    rng: &mut R,
    trail: &mut Vec<u8>,
    stats: &mut RunStats,
) -> SampleOutcome<()> {
    let k = walk.k;
    let mut phi = ExtFloatChain::new(phi0);
    let mut hits = 0;
    trail.clear();
    for _ in 0..level {
        let choice = walk.replay_step::<PHI, R>(slot, rng, &mut phi);
        hits += walk.hits(slot);
        trail.push(choice as u8);
        slot = walk.succ[slot * k + choice] as usize;
    }
    stats.walk_steps += level as u64;
    stats.walk_table_hits += level as u64;
    stats.memo_hits += hits;
    if PHI {
        settle(phi.value(), u, stats)
    } else {
        stats.sample_success += 1;
        SampleOutcome::Word(())
    }
}

/// The base case (lines 4–6): a word iff `φ ≤ 1` and the coin `u` is
/// below `φ`.
fn settle(phi: ExtFloat, u: f64, stats: &mut RunStats) -> SampleOutcome<()> {
    if phi > ExtFloat::ONE {
        stats.fail_phi_gt_one += 1;
        return SampleOutcome::FailPhi;
    }
    if u < phi.to_f64() {
        stats.sample_success += 1;
        SampleOutcome::Word(())
    } else {
        stats.fail_rejected += 1;
        SampleOutcome::FailCoin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::FprasRun;
    use crate::engine::memo::MemoTier;
    use fpras_automata::{Alphabet, Nfa, NfaBuilder};
    use rand::{rngs::SmallRng, SeedableRng};

    /// `epochs` retry loops of `trials` trials each from `(start, level)`,
    /// every outcome kept.
    #[allow(clippy::too_many_arguments)]
    fn draws(
        env: &SamplerEnv<'_>,
        table: &RunTable,
        memo: &UnionMemo,
        start: StateId,
        level: usize,
        (epochs, trials): (usize, usize),
        rng: &mut SmallRng,
        scratch: &mut SamplerScratch,
        stats: &mut RunStats,
    ) -> Vec<SampleOutcome> {
        let mut outs = Vec::new();
        for _ in 0..epochs {
            sample_words(env, table, memo, start, level, trials, rng, scratch, stats, |out| {
                outs.push(out.map_word(Trail::to_word));
                ControlFlow::Continue(())
            });
        }
        outs
    }

    /// End-to-end sampler behaviour is exercised through `FprasRun` (the
    /// table must be populated level by level first); these tests focus on
    /// the per-call contract.
    fn all_words_nfa() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 1, q);
        b.build().unwrap()
    }

    #[test]
    fn sampled_words_are_in_language() {
        let nfa = all_words_nfa();
        let params = Params::practical(0.3, 0.1, 1, 6);
        let mut rng = SmallRng::seed_from_u64(5);
        let run = FprasRun::run(&nfa, 6, &params, &mut rng).unwrap();
        let (table, substrate) = run.parts_for_test();
        let interner = FrontierInterner::new(table.num_states());
        let env = SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
        let memo = UnionMemo::new();
        let mut scratch = SamplerScratch::new();
        let mut stats = RunStats::default();
        let mut successes = 0;
        let outs = draws(&env, table, &memo, 0, 6, (1, 200), &mut rng, &mut scratch, &mut stats);
        for out in outs {
            match out {
                SampleOutcome::Word(w) => {
                    assert_eq!(w.len(), 6);
                    successes += 1;
                }
                SampleOutcome::FailPhi => panic!("phi > 1 should not occur with accurate N"),
                _ => {}
            }
        }
        // Acceptance ≈ gamma_scale ≈ 0.245 when estimates are accurate.
        assert!(successes > 10, "successes {successes}");
        assert_eq!(stats.sample_calls, 200);
        assert_eq!(
            stats.sample_success
                + stats.fail_rejected
                + stats.fail_phi_gt_one
                + stats.fail_dead_end,
            200
        );
    }

    /// A scratch reused across two runs, each with its own interner that
    /// is created and then dropped, must draw exactly what fresh scratches
    /// draw. The second interner lives in the first one's slot — the same
    /// address — and mints different ids for the same frontiers, so a
    /// walk cache that kept the first run's ids would walk wrong
    /// branches: only the uid check tells the two interners apart.
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let nfa = fpras_automata::regex::compile_regex(
            "(0|1)*1(0|1)(0|1)(0|1)((00)*|(111)*)",
            &Alphabet::binary(),
        )
        .unwrap();
        let n = 10;
        let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
        let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
        let (table, substrate) = run.parts_for_test();
        let q_final = run.inner.as_ref().unwrap().q_final;
        let m = table.num_states();
        let draw = |interner: &FrontierInterner, scratch: &mut SamplerScratch| {
            let env = SamplerEnv { params: &params, substrate, interner, sampler_seed: 99 };
            let memo = UnionMemo::new();
            let mut rng = SmallRng::seed_from_u64(17);
            let mut stats = RunStats::default();
            let outs =
                draws(&env, table, &memo, q_final, n, (1, 1000), &mut rng, scratch, &mut stats);
            assert!(outs.iter().any(|o| matches!(o, SampleOutcome::Word(_))));
            assert!(stats.trials_unwalked > 0, "the draws must exit before walking");
            outs
        };
        // The second run's interner sees every singleton first, in
        // reverse, so its ids differ from the first run's.
        let shifted = || {
            let interner = FrontierInterner::new(m);
            for q in (0..m).rev() {
                interner.intern(0, &StateSet::singleton(m, q));
            }
            interner
        };

        let mut reused = SamplerScratch::new();
        let mut interner = FrontierInterner::new(m);
        let slot = std::ptr::addr_of!(interner);
        let first = draw(&interner, &mut reused);
        interner = shifted();
        assert_eq!(slot, std::ptr::addr_of!(interner), "the new interner reuses the slot");
        let second = draw(&interner, &mut reused);
        drop(interner);

        assert_eq!(first, draw(&FrontierInterner::new(m), &mut SamplerScratch::new()));
        assert_eq!(second, draw(&shifted(), &mut SamplerScratch::new()));
    }

    /// A scratch reused across two memos of one interner must draw
    /// exactly what fresh scratches draw, when the memos hold different
    /// values for the same `(level, frontier)` — here a
    /// `Count`-tier seed in one and a lazily estimated `Sampler`-tier
    /// value in the other. Both memos share the interner, so every
    /// successor slot is right for both; a walk table replaying the first
    /// memo's branch values under the second would draw from the wrong
    /// weights. Only the memo's lineage tells the two apart.
    #[test]
    fn reused_scratch_matches_fresh_scratch_across_memos() {
        let nfa = fpras_automata::regex::compile_regex(
            "(0|1)*1(0|1)(0|1)(0|1)((00)*|(111)*)",
            &Alphabet::binary(),
        )
        .unwrap();
        let n = 10;
        let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
        let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
        let (table, substrate) = run.parts_for_test();
        let q_final = run.inner.as_ref().unwrap().q_final;
        let m = table.num_states();
        let interner = FrontierInterner::new(m);
        let env = SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
        // Four epochs of 500 trials, the steps served by compiled records
        // and the trials that exited before walking.
        const EPOCHS: (usize, usize) = (4, 500);
        let draw = |memo: &UnionMemo, scratch: &mut SamplerScratch| {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut stats = RunStats::default();
            let outs = draws(&env, table, memo, q_final, n, EPOCHS, &mut rng, scratch, &mut stats);
            (outs, (stats.walk_table_hits, stats.trials_unwalked))
        };
        // A branch of the walk's first step: every draw queries it.
        let start = StateSet::singleton(m, q_final as usize);
        let mut branch = StateSet::empty(m);
        let key = (0..2u8)
            .find_map(|sym| {
                substrate.step_back_into(&start, sym, &mut branch);
                branch.intersect_with(substrate.reachable(n - 1));
                (!branch.is_empty()).then(|| interner.intern(n - 1, &branch))
            })
            .expect("the start cell has a non-empty branch");
        let mut seeded = UnionMemo::new();
        seeded.insert_first_wins(key, ExtFloat::from_u64(3), MemoTier::Count);
        let mut lazy = UnionMemo::new();
        for memo in [&mut seeded, &mut lazy] {
            draw(memo, &mut SamplerScratch::new());
            memo.commit(&interner);
        }
        let (a, b) = (seeded.get(&key).unwrap(), lazy.get(&key).unwrap());
        assert_eq!((a.tier, b.tier), (MemoTier::Count, MemoTier::Sampler));
        assert_ne!(a.value, b.value);

        let mut reused = SamplerScratch::new();
        let (from_seeded, (hits, _)) = draw(&seeded, &mut reused);
        assert!(hits > 0, "the first memo's draws must compile records");
        // The seeded branch's tiny size puts the bound above any coin, so
        // only the second memo's draws exit: a bound the first memo's
        // table cached must not leak into the second's.
        let (from_lazy, (_, unwalked)) = draw(&lazy, &mut reused);
        assert!(unwalked > 0, "the second memo's draws must exit before walking");
        let (again, _) = draw(&seeded, &mut reused);
        assert_ne!(from_seeded, from_lazy, "the memos differ, so must the draws");
        assert_eq!(from_seeded, draw(&seeded, &mut SamplerScratch::new()).0);
        assert_eq!(from_lazy, draw(&lazy, &mut SamplerScratch::new()).0);
        assert_eq!(again, from_seeded);

        // One epoch at a time from each memo, at the same start cell:
        // every loop rebinds the scratch, so neither the cached start slot
        // nor a cached bound may outlive the table it belongs to.
        let mut rngs = [SmallRng::seed_from_u64(17), SmallRng::seed_from_u64(17)];
        let mut stats = RunStats::default();
        let mut alternating = [Vec::new(), Vec::new()];
        for _ in 0..EPOCHS.0 {
            for (i, memo) in [&seeded, &lazy].into_iter().enumerate() {
                let (rng, scratch) = (&mut rngs[i], &mut reused);
                let one = (1, EPOCHS.1);
                alternating[i]
                    .extend(draws(&env, table, memo, q_final, n, one, rng, scratch, &mut stats));
            }
        }
        assert_eq!(alternating, [from_seeded, from_lazy]);
    }

    /// Any memo answer compiles — a base hit, a level-overlay hit, or a
    /// miss whose estimate just went into the overlay — because a memo
    /// never loses or changes an entry. Draws against a memo whose
    /// entries all sit in the overlay hit records and pay one miss per
    /// distinct frontier; the same draws after a commit, through a fresh
    /// scratch, hit on every probe and return the same outcomes.
    #[test]
    fn level_overlay_hits_compile() {
        let nfa =
            fpras_automata::regex::compile_regex("(0|1)*1(0|1)(0|1)", &Alphabet::binary()).unwrap();
        let n = 8;
        let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
        let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
        let (table, substrate) = run.parts_for_test();
        let q_final = run.inner.as_ref().unwrap().q_final;
        let interner = FrontierInterner::new(table.num_states());
        let env = SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
        let mut memo = UnionMemo::new();
        let draw = |memo: &UnionMemo, scratch: &mut SamplerScratch| {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut stats = RunStats::default();
            let outs = draws(&env, table, memo, q_final, n, (1, 64), &mut rng, scratch, &mut stats);
            (outs, stats)
        };
        let (cold_outs, cold) = draw(&memo, &mut SamplerScratch::new());
        assert!(memo.base_len() == 0 && memo.overlay_len() > 0);
        assert!(cold.walk_table_hits > 0, "overlay answers must compile records");
        assert_eq!(cold.memo_misses, memo.overlay_len() as u64, "one miss per frontier");
        memo.commit(&interner);
        let (warm_outs, warm) = draw(&memo, &mut SamplerScratch::new());
        assert_eq!(warm_outs, cold_outs);
        assert_eq!(warm.memo_misses, 0);
        assert_eq!(warm.memo_hits, cold.memo_hits + cold.memo_misses, "every probe hits now");
        assert_eq!(warm.membership_ops, 0);
    }

    /// The session form: a session keeps one scratch and one memo across
    /// `sample`, the extension a longer `sample` triggers, and the draws
    /// after it. Records compiled before the extension must still be
    /// right after it, so the kept session draws what a fresh session
    /// built straight to the final length draws.
    #[test]
    fn session_scratch_survives_extension() {
        use crate::service::{QuerySession, SessionPolicy};
        let nfa = fpras_automata::regex::compile_regex(
            "(0|1)*1(0|1)(0|1)(0|1)((00)*|(111)*)",
            &Alphabet::binary(),
        )
        .unwrap();
        let params = Params::for_session(0.3, 0.1, nfa.num_states(), 12);
        let policy = SessionPolicy::Deterministic { seed: 3, threads: 1 };
        let draw = |session: &mut QuerySession, n: usize, seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..24).map(|_| session.sample(n, &mut rng).unwrap()).collect::<Vec<_>>()
        };
        let mut kept = QuerySession::new(&nfa, params.clone(), policy.clone()).unwrap();
        draw(&mut kept, 8, 1);
        let hits_before = kept.query_run_stats().walk_table_hits;
        assert!(hits_before > 0, "the short draws must compile records");
        let got = draw(&mut kept, 12, 2);
        assert!(kept.query_run_stats().walk_table_hits > hits_before);

        let mut fresh = QuerySession::new(&nfa, params, policy).unwrap();
        fresh.estimate(12).unwrap();
        assert_eq!(got, draw(&mut fresh, 12, 2));
    }

    /// Small finished runs to draw from: a regex with a 2⁻⁸-deep branch
    /// structure, `contains 11`, and a dense random NFA.
    fn exit_fixtures() -> Vec<(Nfa, usize)> {
        let regex = fpras_automata::regex::compile_regex(
            "(0|1)*1(0|1)(0|1)(0|1)((00)*|(111)*)",
            &Alphabet::binary(),
        )
        .unwrap();
        let contains_11 =
            fpras_automata::regex::compile_regex("(0|1)*11(0|1)*", &Alphabet::binary()).unwrap();
        let dense = dense_nfa();
        vec![(regex, 10), (contains_11, 8), (dense, 7)]
    }

    /// A dense 12-state binary NFA (every state reaches every state on
    /// some symbol), built without the workloads crate.
    fn dense_nfa() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let qs: Vec<_> = (0..12).map(|_| b.add_state()).collect();
        b.set_initial(qs[0]);
        b.add_accepting(qs[11]);
        for (i, &p) in qs.iter().enumerate() {
            for (j, &q) in qs.iter().enumerate() {
                if (i * 7 + j * 3) % 5 < 2 {
                    b.add_transition(p, ((i + j) % 2) as u8, q);
                }
            }
        }
        b.build().unwrap()
    }

    /// Every path of a closed sub-DAG, walked with the walk's own
    /// arithmetic ([`ExtFloatChain`] from `φ₀`, then the coin's
    /// `to_f64`), stays at or below the exit threshold of the node's
    /// cached bound — and the bound is the paths' maximum, not a loose
    /// cap. Checked for the run's own `φ₀` and for a `φ₀` so small the
    /// product leaves `f64`'s normal range.
    #[test]
    fn every_path_product_is_within_the_exit_bound() {
        for (nfa, n) in exit_fixtures() {
            let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
            let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
            let (table, substrate) = run.parts_for_test();
            let q_final = run.inner.as_ref().unwrap().q_final;
            let interner = FrontierInterner::new(table.num_states());
            let env =
                SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
            let memo = UnionMemo::new();
            let mut scratch = SamplerScratch::new();
            let mut stats = RunStats::default();
            let mut rng = SmallRng::seed_from_u64(3);
            draws(&env, table, &memo, q_final, n, (1, 4000), &mut rng, &mut scratch, &mut stats);
            assert!(stats.trials_unwalked > 0, "the start node must close");

            let walk = &scratch.walk;
            let k = walk.k;
            let phi0 =
                ExtFloat::from_f64(params.gamma_scale) / table.cell(n, q_final as usize).n_est;
            let mut closed = 0;
            for slot in 0..walk.records.len() as u32 {
                if !walk.closed(slot, scratch.epoch) {
                    continue;
                }
                closed += 1;
                let level = ((walk.records[slot as usize].node >> 32) & 0x7fff_ffff) as usize;
                let hi = walk.tables[walk.records[slot as usize].table as usize].bounds.hi;
                for p in [phi0, ExtFloat::pow2(-1100)] {
                    // Depth-first over every positive path: (slot, level, φ).
                    let mut stack = vec![(slot, level, ExtFloatChain::new(p))];
                    let mut max = ExtFloat::ZERO;
                    while let Some((at, ell, phi)) = stack.pop() {
                        if ell == 0 {
                            let phi = phi.value();
                            assert!(phi.to_f64() <= exit_bound(p, hi), "a path exceeds the bound");
                            assert!(phi <= ExtFloat::ONE || exit_bound(p, hi) >= 1.0);
                            max = if phi > max { phi } else { max };
                            continue;
                        }
                        let t = walk.records[at as usize].table as usize;
                        for b in 0..k {
                            let size = walk.sizes[t * k + b];
                            if !size.is_zero() {
                                let mut next = phi;
                                next.mul_div(walk.tables[t].total, size);
                                stack.push((walk.succ[at as usize * k + b], ell - 1, next));
                            }
                        }
                    }
                    // The largest path reaches the bound up to rounding.
                    assert!(max.ratio(&(p * hi)) > 1.0 - 1e-12, "the bound is loose");
                }
            }
            assert!(closed > 1, "a closed sub-DAG has more than its start node");
        }
    }

    /// An exit only ever replaces a trial that would have ended in
    /// `FailCoin`: every trial that exits is replayed — same coin, same
    /// RNG stream after it — through the walk, on a scratch of its own,
    /// and must end in `FailCoin` there too. The exit consumes the coin
    /// and nothing else.
    #[test]
    fn every_exit_would_have_walked_to_fail_coin() {
        let mut exits = 0;
        for (nfa, n) in exit_fixtures() {
            let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
            let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
            let (table, substrate) = run.parts_for_test();
            let q_final = run.inner.as_ref().unwrap().q_final;
            let interner = FrontierInterner::new(table.num_states());
            let env =
                SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
            let memo = UnionMemo::new();
            let (mut scratch, mut replay) = (SamplerScratch::new(), SamplerScratch::new());
            let (mut stats, mut replay_stats) = (RunStats::default(), RunStats::default());
            for seed in 0..4 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut trials = Trials::open(&env, table, &memo, q_final, n, &mut scratch);
                replay.bind(&interner, &memo, substrate.width());
                let start = replay.walk.start_slot(start_node(n, q_final)) as usize;
                for _ in 0..2000 {
                    let before = rng.clone();
                    let unwalked = stats.trials_unwalked;
                    let out = trials.next(&env, table, &memo, &mut rng, &mut scratch, &mut stats);
                    if stats.trials_unwalked == unwalked {
                        continue;
                    }
                    exits += 1;
                    assert_eq!(out, SampleOutcome::FailCoin);
                    let mut probe = before;
                    let u = probe.random_range(0.0..1.0);
                    assert_eq!(probe.clone().next_u64(), rng.clone().next_u64(), "one coin");
                    let (phi0, ctx) = (trials.phi0, (&mut replay, &mut replay_stats));
                    let replayed =
                        walk(&env, table, &memo, start, n, phi0, u, &mut probe, ctx.0, ctx.1);
                    assert_eq!(replayed, SampleOutcome::FailCoin, "an exit hid a word");
                }
            }
            assert_eq!(replay_stats.memo_misses, 0, "exits skip no memo miss");
        }
        assert!(exits > 100, "only {exits} exits fired");
    }

    /// Every path of a closed sub-DAG, walked with the walk's own
    /// arithmetic, ends with its coin threshold `φ.to_f64()` strictly
    /// above the sure threshold of the node's cached `lo` — so a coin
    /// below that threshold is below every path's — and `lo` is the
    /// paths' minimum, not a loose floor. Checked for the run's own `φ₀`
    /// and for a `φ₀` so small that no coin is sure.
    #[test]
    fn every_path_product_is_above_the_sure_bound() {
        let mut sure_nodes = 0;
        for (nfa, n) in exit_fixtures() {
            let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
            let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
            let (table, substrate) = run.parts_for_test();
            let q_final = run.inner.as_ref().unwrap().q_final;
            let interner = FrontierInterner::new(table.num_states());
            let env =
                SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
            let memo = UnionMemo::new();
            let mut scratch = SamplerScratch::new();
            let mut stats = RunStats::default();
            let mut rng = SmallRng::seed_from_u64(3);
            draws(&env, table, &memo, q_final, n, (1, 4000), &mut rng, &mut scratch, &mut stats);
            assert!(stats.walks_sure > 0, "the start node must close with sure coins");

            let walk = &scratch.walk;
            let k = walk.k;
            let phi0 =
                ExtFloat::from_f64(params.gamma_scale) / table.cell(n, q_final as usize).n_est;
            for slot in 0..walk.records.len() as u32 {
                if !walk.closed(slot, scratch.epoch) {
                    continue;
                }
                let level = ((walk.records[slot as usize].node >> 32) & 0x7fff_ffff) as usize;
                let lo = walk.tables[walk.records[slot as usize].table as usize].bounds.lo;
                for p in [phi0, ExtFloat::pow2(-1100)] {
                    let sure = sure_bound(p, lo);
                    sure_nodes += usize::from(sure > 0.0);
                    // Depth-first over every positive path: (slot, level, φ).
                    let mut stack = vec![(slot, level, ExtFloatChain::new(p))];
                    let mut min = ExtFloat::ZERO;
                    while let Some((at, ell, phi)) = stack.pop() {
                        if ell == 0 {
                            let phi = phi.value();
                            assert!(
                                sure == 0.0 || sure < phi.to_f64(),
                                "a path is at or below the sure bound"
                            );
                            min = if min.is_zero() || phi < min { phi } else { min };
                            continue;
                        }
                        let t = walk.records[at as usize].table as usize;
                        for b in 0..k {
                            let size = walk.sizes[t * k + b];
                            if !size.is_zero() {
                                let mut next = phi;
                                next.mul_div(walk.tables[t].total, size);
                                stack.push((walk.succ[at as usize * k + b], ell - 1, next));
                            }
                        }
                    }
                    // The smallest path reaches the bound up to rounding.
                    assert!(min.ratio(&(p * lo)) < 1.0 + 1e-12, "the bound is loose");
                }
            }
        }
        assert!(sure_nodes > 10, "only {sure_nodes} closed nodes admit sure coins");
    }

    /// A closed start node's trials replay: every trial that does not
    /// exit, re-run from a clone of the scratch and of the RNG (same
    /// coin) through the general walk, gives the same outcome, trail,
    /// RNG state and counters — for the φ-free replays of sure coins and
    /// for the φ-tracking ones alike.
    #[test]
    fn sure_walk_matches_the_general_walk() {
        let (mut sure, mut tracked) = (0, 0);
        for (nfa, n) in exit_fixtures() {
            let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
            let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
            let (table, substrate) = run.parts_for_test();
            let q_final = run.inner.as_ref().unwrap().q_final;
            let interner = FrontierInterner::new(table.num_states());
            let env =
                SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
            let memo = UnionMemo::new();
            let mut scratch = SamplerScratch::new();
            let mut stats = RunStats::default();
            let replays = sure + tracked;
            for seed in 0..4 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut trials = Trials::open(&env, table, &memo, q_final, n, &mut scratch);
                for _ in 0..4000 {
                    if !trials.closed {
                        trials.next(&env, table, &memo, &mut rng, &mut scratch, &mut stats);
                        continue;
                    }
                    let (mut probe, mut twin) = (rng.clone(), scratch.clone());
                    let mut walked = stats.clone();
                    let out = trials.next(&env, table, &memo, &mut rng, &mut scratch, &mut stats);
                    if stats.trials_unwalked > walked.trials_unwalked {
                        continue; // an exit: `every_exit_would_have_walked_to_fail_coin`
                    }
                    let was_sure = stats.walks_sure > walked.walks_sure;
                    let u = probe.random_range(0.0..1.0);
                    walked.sample_calls += 1;
                    walked.walks_sure = stats.walks_sure;
                    let (slot, phi0) = (trials.slot, trials.phi0);
                    let again = walk(
                        &env,
                        table,
                        &memo,
                        slot,
                        n,
                        phi0,
                        u,
                        &mut probe,
                        &mut twin,
                        &mut walked,
                    );
                    assert_eq!(out, again, "outcome");
                    assert_eq!(scratch.rev_syms, twin.rev_syms, "trail");
                    assert_eq!(probe.next_u64(), rng.clone().next_u64(), "RNG state");
                    assert_eq!(stats, walked, "counters");
                    if was_sure {
                        assert_eq!(out, SampleOutcome::Word(()), "a sure coin must return a word");
                        sure += 1;
                    } else {
                        tracked += 1;
                    }
                }
            }
            assert!(sure + tracked - replays > 1_000, "{n}: {} replays", sure + tracked - replays);
        }
        assert!(sure + tracked > 10_000, "only {} replays", sure + tracked);
        assert!(sure > 1_000 && tracked > 1_000, "{sure} sure, {tracked} tracked replays");
    }

    /// An epoch counter that wraps clears every stamp: a scratch whose
    /// counter wraps on its next loop, and whose table holds an old
    /// epoch 1's stamps on the whole sub-DAG, draws what a fresh scratch
    /// draws — stale stamps would close the start node at once.
    #[test]
    fn epoch_wrap_clears_stamps() {
        let (nfa, n) = exit_fixtures().swap_remove(0);
        let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
        let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(5)).unwrap();
        let (table, substrate) = run.parts_for_test();
        let q_final = run.inner.as_ref().unwrap().q_final;
        let interner = FrontierInterner::new(table.num_states());
        let env = SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
        let memo = UnionMemo::new();
        let mut stats = RunStats::default();
        let mut old = SamplerScratch::new();
        let mut rng = SmallRng::seed_from_u64(1);
        draws(&env, table, &memo, q_final, n, (1, 4000), &mut rng, &mut old, &mut stats);
        assert!(stats.trials_unwalked > 0, "the old epoch must close its start node");
        old.epoch = MAX_EPOCH;
        let draw = |scratch: &mut SamplerScratch, stats: &mut RunStats| {
            let mut rng = SmallRng::seed_from_u64(2);
            draws(&env, table, &memo, q_final, n, (2, 300), &mut rng, scratch, stats)
        };
        let (mut fresh_stats, mut old_stats) = (RunStats::default(), RunStats::default());
        let fresh = draw(&mut SamplerScratch::new(), &mut fresh_stats);
        assert_eq!(draw(&mut old, &mut old_stats), fresh);
        assert_eq!(old.epoch, 2, "the counter wrapped");
        assert_eq!(old_stats.trials_unwalked, fresh_stats.trials_unwalked);
    }

    /// The per-node memory the module docs and DESIGN.md §2.5 quote: a
    /// 16-byte record per node, a 48-byte branch table per compiled node,
    /// per branch a 4-byte successor slot and (but the last) an 8-byte
    /// draw threshold in the slot rows, and a 16-byte size per branch in
    /// the table rows.
    #[test]
    fn walk_record_sizes_are_pinned() {
        fn row_bytes<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!(std::mem::size_of::<NodeRecord>(), 16);
        assert_eq!(std::mem::size_of::<BranchTable>(), 48);
        let walk = WalkTable::default();
        assert_eq!(row_bytes(&walk.succ), 4);
        assert_eq!(row_bytes(&walk.sizes), 16);
        assert_eq!(row_bytes(&walk.thresholds), 8);
    }

    #[test]
    fn dead_start_is_dead_end() {
        let nfa = all_words_nfa();
        let params = Params::practical(0.3, 0.1, 1, 4);
        let mut rng = SmallRng::seed_from_u64(6);
        let run = FprasRun::run(&nfa, 4, &params, &mut rng).unwrap();
        let (table, substrate) = run.parts_for_test();
        let interner = FrontierInterner::new(table.num_states());
        let env = SamplerEnv { params: &params, substrate, interner: &interner, sampler_seed: 99 };
        let memo = UnionMemo::new();
        let mut scratch = SamplerScratch::new();
        let mut stats = RunStats::default();
        // Level 2 cell exists, but ask from a table whose level-3 cells we
        // pretend are dead by sampling a state id that was never populated:
        // the all-words NFA has one state, so instead check a level with a
        // zero estimate via a fresh table.
        let empty_table = RunTable::new(1, 4).unwrap();
        let outs =
            draws(&env, &empty_table, &memo, 0, 4, (1, 10), &mut rng, &mut scratch, &mut stats);
        assert_eq!(outs, [SampleOutcome::DeadEnd], "a dead end ends the loop");
        let _ = table;
    }
}
