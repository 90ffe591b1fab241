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
//! node once they sit in the memo's committed base layer: base entries
//! are first-wins and never change. The first step at a node whose every
//! non-empty branch was a base hit also stores, in the node's record,
//! the `k` branch sizes, their total, the categorical draw's rescaled
//! `f64` weights and the number of memo hits the step counted. Every
//! later step at that node (a *table hit*) replays those counters,
//! draws from the stored weights through the same
//! `sample_weights` call, and updates `φ` as `φ · total / size[b]` —
//! the cold step's expression, in its order, since [`ExtFloat`]
//! normalises after every operation. So a table hit consumes the same
//! RNG draws and produces the same bits and counters as the cold step it
//! replaces. A branch served from the memo's overlay (not yet committed)
//! or estimated afresh keeps the node cold, so what a record holds never
//! depends on which worker inserted what; and the memo-off paper path
//! never compiles, keeping its fresh estimate per step.
//!
//! Records are keyed on the interner's process-unique `uid` (successor
//! ids mean nothing under another interner; built levels never change,
//! D11) and on the memo's lineage id ([`UnionMemo`]): a memo of another
//! lineage may lack or differ in the entries a record replays, while
//! every memo of one lineage reads one base layer that only grows. Under
//! any other key the table starts over. See DESIGN.md §2.5 and D17.
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
//! bit. With memoization off (paper profile) every query draws fresh
//! randomness from the caller's stream, preserving the paper's
//! independent-estimates reading.

use crate::appunion::{app_union, frontier_inputs, UnionScratch};
use crate::engine::memo::{MemoTier, UnionMemo};
use crate::engine::policy::{PHASE_SALT, PHASE_SAMPLER_UNION};
use crate::engine::substrate::LeveledSubstrate;
use crate::intern::{FrontierId, FrontierInterner};
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::table::{splitmix64, BuildKeyHasher, MemoKey, RunTable, SampleOutcome};
use fpras_automata::{StateId, StateSet, Word};
use fpras_numeric::{sample_extfloat_weights_with, sample_weights, ExtFloat};
use rand::{rngs::SmallRng, Rng, RngExt, SeedableRng};
use std::collections::HashMap;

/// The read-only context one sampler invocation runs against: the
/// resolved parameters, the run's leveled substrate (stepping kernels +
/// per-level reachability filter — D14), the run's frontier interner,
/// and the frontier-keyed union seed. Bundled so the deep call chain
/// (`sample_word` → `union_size` → `app_union`) passes one
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

/// Reusable working memory for [`sample_word`]: the compiled walk, the
/// cold-path frontier buffers, the per-symbol branch sizes, the
/// reversed symbol trail, the categorical draw's rescale buffer, and the
/// nested `AppUnion` scratch. A fresh scratch is equivalent to a reused
/// one — the walk table changes how much work a step does, never its
/// result — so callers keep one per worker and a whole sample pass
/// allocates only for the nodes it builds and the words it returns.
pub(crate) struct SamplerScratch {
    walk: WalkTable,
    /// Set of the node being built, or of a frontier whose union is
    /// estimated afresh.
    frontier: StateSet,
    /// One predecessor frontier of the node being built.
    branch: StateSet,
    branch_sizes: Vec<ExtFloat>,
    rev_syms: Vec<u8>,
    scaled: Vec<f64>,
    union: UnionScratch,
}

impl SamplerScratch {
    /// An empty scratch; bound to an interner and a memo on first
    /// `sample_word` call.
    pub(crate) fn new() -> Self {
        SamplerScratch {
            walk: WalkTable::default(),
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
}

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
/// Its `k` successor slots live at `slot·k` in [`WalkTable::succ`].
struct NodeRecord {
    /// The node: a packed `(level, id)` or a [`START_NODE`] key.
    node: u64,
    /// Index into [`WalkTable::tables`], or [`NO_TABLE`].
    table: u32,
}

/// A compiled node's step: what the cold step computed from the memo's
/// base layer, in the form a warm step replays. Its `k` branch sizes and
/// rescaled draw weights live at `table·k` in [`WalkTable::sizes`] and
/// [`WalkTable::weights`].
struct BranchTable {
    /// Sum of the branch sizes, in the cold step's fold order.
    total: ExtFloat,
    /// Memo hits the cold step counted (its non-empty branches).
    hits: u32,
}

/// Per-scratch compiled walk — see the module docs. Memory per node:
/// one map entry (a `u64` key and a `u32` slot), a 16-byte record and
/// `k` `u32` successor slots; a compiled node adds a 24-byte branch
/// table and `k` sizes (16 bytes) and weights (8 bytes).
#[derive(Default)]
struct WalkTable {
    /// [`FrontierInterner::uid`] of the interner the slots' ids belong
    /// to; 0 (no interner) until the first bind.
    interner: u64,
    /// Lineage id of the memo the branch tables were read from.
    lineage: u64,
    /// Alphabet width: successor, size and weight rows are `k` long.
    k: usize,
    /// Node key → slot.
    slots: HashMap<u64, u32, BuildKeyHasher>,
    /// Node records by slot.
    records: Vec<NodeRecord>,
    /// Successor slots, `k` per node in symbol order: [`EMPTY_BRANCH`]
    /// for an empty branch, all [`UNBUILT`] before the node's first
    /// visit.
    succ: Vec<u32>,
    /// Branch tables of the compiled nodes.
    tables: Vec<BranchTable>,
    /// Branch sizes, `k` per branch table.
    sizes: Vec<ExtFloat>,
    /// Rescaled draw weights, `k` per branch table.
    weights: Vec<f64>,
}

impl WalkTable {
    /// The slot of `node`, adding an unbuilt record on first sight.
    fn slot(&mut self, node: u64) -> u32 {
        let WalkTable { slots, records, succ, k, .. } = self;
        *slots.entry(node).or_insert_with(|| {
            let slot = u32::try_from(records.len())
                .ok()
                .filter(|&s| s < UNBUILT)
                .expect("walk table slot fits below the sentinels");
            records.push(NodeRecord { node, table: NO_TABLE });
            succ.resize(succ.len() + *k, UNBUILT);
            slot
        })
    }

    /// Compiles the node at `slot` from a cold step whose every
    /// non-empty branch was a base-layer hit.
    fn compile(&mut self, slot: usize, sizes: &[ExtFloat], weights: &[f64], t: BranchTable) {
        self.records[slot].table =
            u32::try_from(self.tables.len()).expect("branch table index fits u32");
        self.tables.push(t);
        self.sizes.extend_from_slice(sizes);
        self.weights.extend_from_slice(weights);
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
/// Also returns whether the memo's committed base layer served it —
/// the only answer a walk record may replay.
#[allow(clippy::too_many_arguments)]
fn union_size<R: Rng + ?Sized>(
    env: &SamplerEnv<'_>,
    table: &RunTable,
    memo: &mut UnionMemo,
    level: usize,
    id: FrontierId,
    rng: &mut R,
    frontier: &mut StateSet,
    scratch: &mut UnionScratch,
    stats: &mut RunStats,
) -> (ExtFloat, bool) {
    let params = env.params;
    if params.memoize_unions {
        if let Some((entry, committed)) = memo.get_node(MemoKey::node_of(level as u32, id)) {
            stats.memo_hits += 1;
            return (entry.value, committed);
        }
        stats.memo_misses += 1;
        let key = env.interner.load(level, id, frontier);
        let inputs = frontier_inputs(table, level, frontier);
        let eps_sz = params.eps_sz_at_level(params.beta_count, level + 1);
        let mut union_rng = sampler_union_rng(env.sampler_seed, key.rng_tag());
        let est = app_union(
            params,
            params.beta_sample,
            params.delta_sample_inner(),
            eps_sz,
            &inputs,
            table.num_states(),
            &mut union_rng,
            scratch,
            stats,
        )
        .value;
        memo.insert_first_wins(key, est, MemoTier::Sampler);
        return (est, false);
    }
    // Paper path (D4 off): a fresh estimate from the caller's stream on
    // every query — the paper's independent-draws reading.
    env.interner.load(level, id, frontier);
    let inputs = frontier_inputs(table, level, frontier);
    let eps_sz = params.eps_sz_at_level(params.beta_count, level + 1);
    let est = app_union(
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
    .value;
    (est, false)
}

/// Runs one trial of Algorithm 2 from the singleton frontier `{start}` at
/// `level`, i.e. the call `sample(ℓ, {qℓ}, λ, γ₀, β, η)` of Algorithm 3
/// line 23.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_word<R: Rng + ?Sized>(
    env: &SamplerEnv<'_>,
    table: &RunTable,
    memo: &mut UnionMemo,
    start: StateId,
    level: usize,
    rng: &mut R,
    scratch: &mut SamplerScratch,
    stats: &mut RunStats,
) -> SampleOutcome {
    stats.sample_calls += 1;
    let n_start = table.cell(level, start as usize).n_est;
    if n_start.is_zero() {
        stats.fail_dead_end += 1;
        return SampleOutcome::DeadEnd;
    }
    // γ₀ = gamma_scale / N(qℓ) (Algorithm 3 line 23).
    let mut phi = ExtFloat::from_f64(env.params.gamma_scale) / n_start;

    let k = env.substrate.width();
    scratch.bind(env.interner, memo, k);
    scratch.rev_syms.clear();
    let mut slot = scratch.walk.slot(start_node(level, start)) as usize;

    for ell in (1..=level).rev() {
        stats.walk_steps += 1;
        let at = slot * k;
        if scratch.walk.succ[at] == UNBUILT {
            scratch.build(env, slot, ell, stats);
        }
        let compiled = scratch.walk.records[slot].table;
        let choice = if compiled != NO_TABLE {
            // A table hit: the cold step's counters, draw and φ update,
            // replayed from the node's record.
            let walk = &scratch.walk;
            let t = &walk.tables[compiled as usize];
            let rows = compiled as usize * k..(compiled as usize + 1) * k;
            stats.walk_table_hits += 1;
            stats.memo_hits += u64::from(t.hits);
            let Some(choice) = sample_weights(rng, &walk.weights[rows.clone()]) else {
                stats.fail_dead_end += 1;
                return SampleOutcome::DeadEnd;
            };
            phi = phi * t.total / walk.sizes[rows][choice];
            choice
        } else {
            // Lines 8–11: per-symbol predecessor frontiers and union sizes.
            let mut compile = Some(BranchTable { total: ExtFloat::ZERO, hits: 0 });
            scratch.branch_sizes.clear();
            for sym in 0..k {
                let next = scratch.walk.succ[at + sym];
                let sz = if next == EMPTY_BRANCH {
                    ExtFloat::ZERO
                } else {
                    let node = scratch.walk.records[next as usize].node;
                    let (sz, from_base) = union_size(
                        env,
                        table,
                        memo,
                        ell - 1,
                        FrontierId(node as u32),
                        rng,
                        &mut scratch.frontier,
                        &mut scratch.union,
                        stats,
                    );
                    match &mut compile {
                        Some(t) if from_base => t.hits += 1,
                        _ => compile = None,
                    }
                    sz
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
            phi = phi * total / scratch.branch_sizes[choice];
            if let Some(t) = compile {
                let t = BranchTable { total, ..t };
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
    if phi > ExtFloat::ONE {
        stats.fail_phi_gt_one += 1;
        return SampleOutcome::FailPhi;
    }
    if rng.random_range(0.0..1.0) < phi.to_f64() {
        stats.sample_success += 1;
        // The one allocation of a successful trial: the returned word
        // must own its symbols.
        SampleOutcome::Word(Word::from_reversed(scratch.rev_syms.clone()))
    } else {
        stats.fail_rejected += 1;
        SampleOutcome::FailCoin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::FprasRun;
    use fpras_automata::{Alphabet, Nfa, NfaBuilder};
    use rand::{rngs::SmallRng, SeedableRng};

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
        let mut memo = UnionMemo::new();
        let mut scratch = SamplerScratch::new();
        let mut stats = RunStats::default();
        let mut successes = 0;
        for _ in 0..200 {
            match sample_word(&env, table, &mut memo, 0, 6, &mut rng, &mut scratch, &mut stats) {
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
            let mut memo = UnionMemo::new();
            let mut rng = SmallRng::seed_from_u64(17);
            let mut stats = RunStats::default();
            let outs: Vec<SampleOutcome> = (0..64)
                .map(|_| {
                    sample_word(&env, table, &mut memo, q_final, n, &mut rng, scratch, &mut stats)
                })
                .collect();
            assert!(outs.iter().any(|o| matches!(o, SampleOutcome::Word(_))));
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
    /// exactly what fresh scratches draw, when the memos' committed bases
    /// hold different values for the same `(level, frontier)` — here a
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
        // 64 draws and the steps served by compiled records.
        let draw = |memo: &mut UnionMemo, scratch: &mut SamplerScratch| {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut stats = RunStats::default();
            let outs: Vec<SampleOutcome> = (0..64)
                .map(|_| sample_word(&env, table, memo, q_final, n, &mut rng, scratch, &mut stats))
                .collect();
            (outs, stats.walk_table_hits)
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
            memo.commit();
        }
        let (a, b) = (seeded.get(&key).unwrap(), lazy.get(&key).unwrap());
        assert_eq!((a.tier, b.tier), (MemoTier::Count, MemoTier::Sampler));
        assert_ne!(a.value, b.value);

        let mut reused = SamplerScratch::new();
        let (from_seeded, hits) = draw(&mut seeded.snapshot(), &mut reused);
        assert!(hits > 0, "the first memo's draws must compile records");
        let (from_lazy, _) = draw(&mut lazy.snapshot(), &mut reused);
        let (again, _) = draw(&mut seeded.snapshot(), &mut reused);
        assert_ne!(from_seeded, from_lazy, "the bases differ, so must the draws");
        assert_eq!(from_seeded, draw(&mut seeded.snapshot(), &mut SamplerScratch::new()).0);
        assert_eq!(from_lazy, draw(&mut lazy.snapshot(), &mut SamplerScratch::new()).0);
        assert_eq!(again, from_seeded);
    }

    /// Only committed base entries compile: an overlay entry may be
    /// missing from the next cell's snapshot, where the uncompiled walk
    /// would miss and pay for an estimate. Draws against a memo whose
    /// entries all sit in the overlay therefore never hit a record, and
    /// the same draws after a commit do.
    #[test]
    fn only_base_entries_compile() {
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
        let mut scratch = SamplerScratch::new();
        let mut draw = |memo: &mut UnionMemo| {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut stats = RunStats::default();
            for _ in 0..64 {
                sample_word(&env, table, memo, q_final, n, &mut rng, &mut scratch, &mut stats);
            }
            stats
        };
        let cold = draw(&mut memo);
        assert!(cold.memo_hits > 0 && memo.base_len() == 0);
        assert_eq!(cold.walk_table_hits, 0, "overlay hits compiled a record");
        memo.commit();
        let warm = draw(&mut memo);
        assert!(warm.walk_table_hits > 0);
        assert_eq!(warm.memo_hits, cold.memo_hits + cold.memo_misses, "every probe hits now");
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

    /// The per-node memory the module docs and DESIGN.md §2.5 quote: a
    /// 16-byte record per node, a 24-byte branch table per compiled node
    /// (plus `k` successor slots, sizes and weights in the flat rows).
    #[test]
    fn walk_record_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<NodeRecord>(), 16);
        assert_eq!(std::mem::size_of::<BranchTable>(), 24);
        assert_eq!(std::mem::size_of::<ExtFloat>(), 16);
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
        let mut memo = UnionMemo::new();
        let mut scratch = SamplerScratch::new();
        let mut stats = RunStats::default();
        // Level 2 cell exists, but ask from a table whose level-3 cells we
        // pretend are dead by sampling a state id that was never populated:
        // the all-words NFA has one state, so instead check a level with a
        // zero estimate via a fresh table.
        let empty_table = RunTable::new(1, 4);
        let out =
            sample_word(&env, &empty_table, &mut memo, 0, 4, &mut rng, &mut scratch, &mut stats);
        assert_eq!(out, SampleOutcome::DeadEnd);
        let _ = table;
    }
}
