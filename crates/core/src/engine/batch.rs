//! The batched union-estimation layer (DESIGN.md D8).
//!
//! Algorithm 3's count pass estimates, for every `(cell q, symbol b)`
//! pair at level `ℓ`, the size of `⋃_{p ∈ Pred(q,b)} L(p^{ℓ-1})`. The
//! estimate depends only on the *predecessor frontier* — the set
//! `Pred(q, b) ∩ reach(ℓ-1)` — and within a level many pairs share one:
//! dense automata collapse onto the full frontier, counter-like automata
//! reuse each singleton twice (once per symbol direction), and level 1
//! always has exactly one non-empty frontier (`{q_init}`). De Colnet &
//! Meel ("Towards practical FPRAS for #NFA: exploiting the power of
//! dependence") observe that sharing work across these dependent union
//! estimates is the main practical lever on top of the PODS 2024
//! algorithm; this module is that lever.
//!
//! [`LevelPlan::build`] walks the level's cells once, canonicalizes each
//! pair's frontier into a [`MemoKey`], and groups pairs with equal keys.
//! The count pass then runs `AppUnion` once per distinct group (see
//! `run_group` in the parent module) and fans the estimate back out to
//! every member pair.
//!
//! # Why batching never changes the output
//!
//! The RNG stream feeding a group's `AppUnion` call is derived from the
//! group, not from the member cell: the executor seeds it from
//! `(master_seed, MemoKey::rng_tag)`. Two pairs with equal frontiers therefore receive *identical* draws
//! whether the estimation runs once or once-per-pair — so
//! `Params::batch_unions` toggles how often the arithmetic is repeated,
//! never what it computes, and the batched/unbatched property tests can
//! demand bit-for-bit agreement. The price is honesty about dependence:
//! shared-frontier pairs get fully correlated (equal) estimates, which
//! the per-level `(β, η)` accounting tolerates — each *distinct* union
//! is still estimated to within `(1 ± β)` with probability `1 − η`, and
//! `N(qℓ)` sums such terms (see DESIGN.md D8 for the full argument).

use super::EngineCtx;
use crate::table::{BuildKeyHasher, MemoKey};
use fpras_automata::{StateId, StateSet};
use std::collections::HashMap;

/// One distinct predecessor frontier at a level, shared by `members`
/// `(cell, symbol)` pairs.
#[derive(Debug, Clone)]
pub struct FrontierGroup {
    /// The frontier `Pred(q, b) ∩ reach(ℓ-1)` (non-empty by
    /// construction; empty pairs never form groups).
    pub frontier: StateSet,
    /// Number of `(cell, symbol)` pairs mapped to this group (≥ 1).
    pub members: u32,
}

/// The batching plan for one level's count pass: the distinct frontier
/// groups in canonical (first-seen, state-then-symbol) order, plus the
/// per-cell map back from symbols to groups.
#[derive(Debug)]
pub struct LevelPlan {
    level: usize,
    cells: Vec<StateId>,
    groups: Vec<FrontierGroup>,
    /// Canonical key per group, computed once during `build` (keys are
    /// re-read twice per group per level on the hot path: memo seeding
    /// and `Deterministic` RNG derivation).
    keys: Vec<MemoKey>,
    /// `cell_groups[i][b]` = index into `groups` for cell `cells[i]` and
    /// symbol `b`, or `None` when the pair's frontier is empty.
    cell_groups: Vec<Vec<Option<usize>>>,
    empty_pairs: u64,
}

impl LevelPlan {
    /// Groups the level's `(cell, symbol)` pairs by canonical frontier
    /// key. Deterministic: cells arrive in state order and symbols are
    /// scanned in order, so group indices are reproducible regardless of
    /// how the later pass is scheduled.
    pub fn build(ctx: &EngineCtx<'_>, ell: usize, cells: &[StateId]) -> LevelPlan {
        let mut groups: Vec<FrontierGroup> = Vec::new();
        let mut keys: Vec<MemoKey> = Vec::new();
        let mut index: HashMap<MemoKey, usize, BuildKeyHasher> = HashMap::default();
        let mut cell_groups = Vec::with_capacity(cells.len());
        let mut empty_pairs = 0u64;
        // One probe buffer for the whole scan; only frontiers that found
        // a new group are materialized (cloned into it).
        let mut frontier = StateSet::empty(ctx.m);
        for &q in cells {
            let mut per_sym = Vec::with_capacity(ctx.k as usize);
            for sym in 0..ctx.k {
                ctx.substrate.pred_of_cell_into(q, sym, &mut frontier);
                frontier.intersect_with(ctx.substrate.reachable(ell - 1));
                if frontier.is_empty() {
                    empty_pairs += 1;
                    per_sym.push(None);
                    continue;
                }
                let key = ctx.interner.intern(ell - 1, &frontier);
                let gi = *index.entry(key).or_insert_with(|| {
                    groups.push(FrontierGroup { frontier: frontier.clone(), members: 0 });
                    keys.push(key);
                    groups.len() - 1
                });
                groups[gi].members += 1;
                per_sym.push(Some(gi));
            }
            cell_groups.push(per_sym);
        }
        LevelPlan { level: ell, cells: cells.to_vec(), groups, keys, cell_groups, empty_pairs }
    }

    /// The level this plan was built for.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The level's useful cells, in state order.
    pub fn cells(&self) -> &[StateId] {
        &self.cells
    }

    /// The distinct frontier groups in canonical order.
    pub fn groups(&self) -> &[FrontierGroup] {
        &self.groups
    }

    /// Per-symbol group indices for the `i`-th cell of [`Self::cells`].
    pub fn cell_groups(&self, i: usize) -> &[Option<usize>] {
        &self.cell_groups[i]
    }

    /// The memo key for group `gi` — also the sampler-memo key its
    /// estimate is seeded under. Keys are `Copy` integer pairs, so
    /// this returns by value.
    pub fn key(&self, gi: usize) -> MemoKey {
        self.keys[gi]
    }

    /// `(cell, symbol)` pairs that share a group with an earlier pair.
    pub fn deduped_pairs(&self) -> u64 {
        self.groups.iter().map(|g| u64::from(g.members) - 1).sum()
    }

    /// `(cell, symbol)` pairs with an empty frontier (no estimation due).
    pub fn empty_pairs(&self) -> u64 {
        self.empty_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::substrate::NfaSubstrate;
    use crate::intern::FrontierInterner;
    use crate::params::Params;
    use fpras_automata::{ops, Alphabet, Nfa, NfaBuilder};

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

    fn ctx_parts(nfa: &Nfa, n: usize) -> (NfaSubstrate, FrontierInterner) {
        let trimmed = ops::trim(nfa).expect("non-empty");
        let normalized = ops::with_single_accepting(&trimmed);
        let q_final = normalized.accepting().iter().next().expect("accepting state") as StateId;
        let interner = FrontierInterner::new(normalized.num_states());
        (NfaSubstrate::new(normalized, q_final, n), interner)
    }

    #[test]
    fn level_one_has_one_group() {
        // Predecessor frontiers at level 1 live inside reach(0) = {init},
        // so every non-empty pair collapses onto the same singleton.
        let nfa = contains_11();
        let n = 6;
        let (substrate, interner) = ctx_parts(&nfa, n);
        use crate::engine::substrate::LeveledSubstrate;
        let m = substrate.universe();
        let params = Params::practical(0.3, 0.1, m, n);
        let ctx = EngineCtx {
            params: &params,
            substrate: &substrate,
            interner: &interner,
            m,
            k: 2,
            sampler_seed: 99,
        };
        let cells: Vec<StateId> =
            (0..m as StateId).filter(|&q| substrate.reachable(1).contains(q as usize)).collect();
        let plan = LevelPlan::build(&ctx, 1, &cells);
        assert_eq!(plan.groups().len(), 1);
        assert_eq!(plan.level(), 1);
        let pairs: u64 = plan.groups().iter().map(|g| u64::from(g.members)).sum();
        assert_eq!(pairs + plan.empty_pairs(), cells.len() as u64 * 2);
        assert_eq!(plan.deduped_pairs(), pairs - 1);
    }

    #[test]
    fn groups_are_canonical_and_cover_all_pairs() {
        let nfa = contains_11();
        let n = 8;
        let (substrate, interner) = ctx_parts(&nfa, n);
        use crate::engine::substrate::LeveledSubstrate;
        let m = substrate.universe();
        let params = Params::practical(0.3, 0.1, m, n);
        let ctx = EngineCtx {
            params: &params,
            substrate: &substrate,
            interner: &interner,
            m,
            k: 2,
            sampler_seed: 99,
        };
        // A deep level where reach() is full: q0 on 0/1 and q1 on 1 all
        // see {q0}; q2 sees {q1, q2} on 1 and {q2} on 0 → 3 groups.
        let cells: Vec<StateId> = (0..3).collect();
        let plan = LevelPlan::build(&ctx, 5, &cells);
        assert_eq!(plan.groups().len(), 3);
        assert_eq!(plan.deduped_pairs(), 2);
        assert_eq!(plan.empty_pairs(), 1); // q1 on symbol 0
                                           // Every Some() index is in range and keys are pairwise distinct.
        let keys: Vec<_> = (0..plan.groups().len()).map(|gi| plan.key(gi)).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        for i in 0..cells.len() {
            for gi in plan.cell_groups(i).iter().flatten() {
                assert!(*gi < plan.groups().len());
            }
        }
        // Identical input → identical plan (canonical order).
        let again = LevelPlan::build(&ctx, 5, &cells);
        for gi in 0..plan.groups().len() {
            assert_eq!(plan.key(gi), again.key(gi));
            assert_eq!(plan.groups()[gi].members, again.groups()[gi].members);
        }
    }
}
