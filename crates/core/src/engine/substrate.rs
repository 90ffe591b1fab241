//! The leveled-DAG substrate abstraction (DESIGN.md D14).
//!
//! Algorithm 3 never needed an NFA — it needs a *leveled DAG*: cells
//! arranged in levels `0..=n`, a distinguished source cell at level 0, a
//! per-`(cell, symbol)` canonical predecessor frontier one level down,
//! and an alphabet width. The unrolled NFA (Fig. 1, line 1) is one such
//! structure; Meel et al.'s nROBP FPRAS (arXiv 2406.16515) and the
//! #CFG/#DNNF results (arXiv 2406.18224) run the identical
//! count/sample machinery on others. [`LeveledSubstrate`] is that
//! contract: everything the engine (`run_level`, `LevelPlan` batching),
//! the sampler, and the witness-padding step read
//! about the input goes through this trait, so the whole pipeline is
//! generic over the substrate.
//!
//! # The bit-identity obligation
//!
//! All estimation randomness downstream is keyed on frontier *content*
//! (interned `MemoKey::rng_tag`s — DESIGN.md D8/D9), so a substrate
//! implementation pins the engine's output bits through the *sets* it
//! returns: two implementations that produce identical
//! `reachable`/`pred_of_cell_into`/`step_back_into` contents produce
//! bit-identical runs. [`NfaSubstrate`] therefore reproduces exactly
//! the sets the engine built before the trait existed (the golden-stream
//! fixtures in `tests/golden_streams.rs` enforce this), and the raw
//! backward step deliberately stays *unfiltered* — the engine performs
//! the `∩ reachable(ℓ-1)` intersection itself, exactly where it always
//! did, so set contents and op accounting are unchanged.

use crate::error::FprasError;
use fpras_automata::{Nfa, StateSet, StepMasks, Unrolling, Word};

/// A leveled DAG the engine can count and sample over.
///
/// Implementations are consumed through `&dyn LeveledSubstrate` on the
/// engine hot path; every method is either a per-level set lookup or a
/// chunky word-parallel kernel, so dynamic dispatch is noise next to the
/// set arithmetic behind it. `Send + Sync` because the `Deterministic`
/// policy fans passes out over its work-stealing pool.
pub trait LeveledSubstrate: Send + Sync {
    /// Short substrate label for diagnostics and trace events
    /// (`"nfa"` / `"robp"`). Purely observational — nothing on the DP
    /// path reads it.
    fn kind(&self) -> &'static str {
        "substrate"
    }

    /// Size of the cell universe (the `m` of the run): cell ids are
    /// `0..universe()` and every [`StateSet`] exchanged with the engine
    /// ranges over it.
    fn universe(&self) -> usize;

    /// Alphabet width `k`: symbols are `0..width()`.
    fn width(&self) -> usize;

    /// The source cell at level 0 (the DP's `N = 1` seed).
    fn initial(&self) -> usize;

    /// The accepting cell whose level-`n` estimate answers the query.
    fn final_cell(&self) -> u32;

    /// Highest level the per-level views currently cover.
    fn horizon(&self) -> usize;

    /// Grows the per-level views to cover `0..=n` (no-op when already
    /// covered), or fails when they cannot be reserved. Substrates with
    /// an intrinsic depth (an nROBP reads each variable once, so its
    /// level count is fixed) may refuse larger horizons by panicking;
    /// callers gate on [`Self::horizon`] first.
    fn ensure_horizon(&mut self, n: usize) -> Result<(), FprasError>;

    /// Cells at `level` reachable from the source — `L(c^ℓ) ≠ ∅`.
    fn reachable(&self, level: usize) -> &StateSet;

    /// Cells at `level` that can still reach [`Self::final_cell`] within
    /// the current horizon. Only consulted under `Params::trim_dead`
    /// (horizon-dependent; sessions reject that knob).
    fn alive(&self, level: usize) -> &StateSet;

    /// Writes the raw predecessor set `Pred(q, sym)` of one cell into
    /// `out` (cleared first). The engine intersects with
    /// `reachable(level - 1)` itself when building a [`super::LevelPlan`].
    fn pred_of_cell_into(&self, q: u32, sym: u8, out: &mut StateSet);

    /// Writes the raw backward step `⋃_{c ∈ of} Pred(c, sym)` into `out`
    /// (cleared first) — Algorithm 2 line 9. Unfiltered: the sampler
    /// intersects with the reachable set itself.
    fn step_back_into(&self, of: &StateSet, sym: u8, out: &mut StateSet);

    /// A deterministic word of length `level` in `L(q^level)`, or `None`
    /// when the cell is unreachable — Algorithm 3's padding witness
    /// (lines 27–30). Repeated calls must return the same word.
    fn witness(&self, q: u32, level: usize) -> Option<Word>;

    /// Cells reachable from the source via `word` — the membership
    /// oracle's per-word value (§4.3).
    fn reach(&self, word: &Word) -> StateSet;

    /// [`Self::reach`] of the word whose symbols `rev` holds last first —
    /// an accepted sampler trial's trail — written into `out` without
    /// building the word. `spare` is a second set over the universe; the
    /// two may trade buffers.
    fn reach_trail_into(&self, rev: &[u8], out: &mut StateSet, spare: &mut StateSet);
}

/// The original substrate: a normalized NFA (trimmed, single accepting
/// state) with its [`Unrolling`] reachability views and [`StepMasks`]
/// stepping arenas.
pub struct NfaSubstrate {
    pub(crate) nfa: Nfa,
    pub(crate) unroll: Unrolling,
    pub(crate) masks: StepMasks,
    q_final: u32,
}

impl NfaSubstrate {
    /// Wraps a *normalized* automaton (trimmed, one accepting state)
    /// with views covering levels `0..=n`; fails when they cannot be
    /// reserved.
    pub fn new(nfa: Nfa, q_final: u32, n: usize) -> Result<Self, FprasError> {
        let unroll = Unrolling::new(&nfa, n)?;
        let masks = StepMasks::new(&nfa);
        Ok(NfaSubstrate { nfa, unroll, masks, q_final })
    }
}

impl LeveledSubstrate for NfaSubstrate {
    fn kind(&self) -> &'static str {
        "nfa"
    }

    fn universe(&self) -> usize {
        self.nfa.num_states()
    }

    fn width(&self) -> usize {
        self.nfa.alphabet().size()
    }

    fn initial(&self) -> usize {
        self.nfa.initial() as usize
    }

    fn final_cell(&self) -> u32 {
        self.q_final
    }

    fn horizon(&self) -> usize {
        self.unroll.horizon()
    }

    fn ensure_horizon(&mut self, n: usize) -> Result<(), FprasError> {
        Ok(self.unroll.extend_to(&self.nfa, n)?)
    }

    fn reachable(&self, level: usize) -> &StateSet {
        self.unroll.reachable(level)
    }

    fn alive(&self, level: usize) -> &StateSet {
        self.unroll.alive(level)
    }

    fn pred_of_cell_into(&self, q: u32, sym: u8, out: &mut StateSet) {
        out.clear();
        out.union_with_words(self.masks.pred_row(sym, q as usize));
    }

    fn step_back_into(&self, of: &StateSet, sym: u8, out: &mut StateSet) {
        self.masks.step_back_into(of, sym, out);
    }

    fn witness(&self, q: u32, level: usize) -> Option<Word> {
        self.unroll.witness(&self.nfa, q, level)
    }

    fn reach(&self, word: &Word) -> StateSet {
        self.masks.reach(word)
    }

    fn reach_trail_into(&self, rev: &[u8], out: &mut StateSet, spare: &mut StateSet) {
        self.masks.reach_trail_into(rev, out, spare);
    }
}

/// The nROBP substrate: a non-deterministic read-once branching program
/// ([`fpras_automata::robp::Robp`]) is already a leveled DAG — every
/// node sits at exactly one level, edges advance one level, the source
/// is the sole level-0 node and the sink the sole accepting node at
/// level `depth` — so the per-level views are plain per-level
/// reachable/co-reachable node sets, no unrolling fixpoint required.
/// The stepping kernels reuse the same symbol-major [`StepMasks`]
/// arenas, built over the program's node graph.
pub struct RobpSubstrate {
    /// The program's node graph viewed as an automaton (nodes = states);
    /// only its predecessor lists are consulted (witness search).
    graph: Nfa,
    masks: StepMasks,
    /// `reach_sets[ℓ]` = nodes at level `ℓ` reachable from the source.
    reach_sets: Vec<StateSet>,
    /// `alive_sets[ℓ]` = nodes at level `ℓ` with a path to the sink. In
    /// a leveled DAG every path from level `ℓ` to the sink has exactly
    /// `depth − ℓ` steps, so "alive within the horizon" and "alive at
    /// all" coincide.
    alive_sets: Vec<StateSet>,
    depth: usize,
    sink: u32,
}

impl RobpSubstrate {
    /// Builds the substrate views of one program; fails, like
    /// [`NfaSubstrate::new`], when the `depth + 1` sets per family cannot
    /// be reserved. Both families are reserved before any set is built.
    pub fn new(robp: &fpras_automata::robp::Robp) -> Result<Self, FprasError> {
        let depth = robp.depth();
        let (mut reach_sets, mut alive_rev) = (Vec::new(), Vec::new());
        for sets in [&mut reach_sets, &mut alive_rev] {
            sets.try_reserve_exact(depth.saturating_add(1))
                .map_err(|_| FprasError::HorizonTooLarge { n: depth })?;
        }
        let graph = robp.to_nfa();
        let masks = StepMasks::new(&graph);
        let m = graph.num_states();
        let k = graph.alphabet().size() as u8;
        // Forward closure, one level per step: nodes are level-unique,
        // so the frontier at step ℓ is exactly the level-ℓ reach set.
        reach_sets.push(StateSet::singleton(m, graph.initial() as usize));
        for _ in 0..depth {
            let prev = reach_sets.last().expect("level 0 seeded");
            let mut cur = StateSet::empty(m);
            let mut step = StateSet::empty(m);
            for sym in 0..k {
                masks.step_into(prev, sym, &mut step);
                cur.union_with(&step);
            }
            reach_sets.push(cur);
        }
        // Backward closure from the sink, mirrored.
        alive_rev.push(StateSet::singleton(m, robp.sink() as usize));
        for _ in 0..depth {
            let prev = alive_rev.last().expect("sink level seeded");
            let mut cur = StateSet::empty(m);
            let mut step = StateSet::empty(m);
            for sym in 0..k {
                masks.step_back_into(prev, sym, &mut step);
                cur.union_with(&step);
            }
            alive_rev.push(cur);
        }
        alive_rev.reverse();
        Ok(RobpSubstrate {
            graph,
            masks,
            reach_sets,
            alive_sets: alive_rev,
            depth,
            sink: robp.sink(),
        })
    }

    /// The program's intrinsic level count.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl LeveledSubstrate for RobpSubstrate {
    fn kind(&self) -> &'static str {
        "robp"
    }

    fn universe(&self) -> usize {
        self.graph.num_states()
    }

    fn width(&self) -> usize {
        self.graph.alphabet().size()
    }

    fn initial(&self) -> usize {
        self.graph.initial() as usize
    }

    fn final_cell(&self) -> u32 {
        self.sink
    }

    fn horizon(&self) -> usize {
        self.depth
    }

    fn ensure_horizon(&mut self, n: usize) -> Result<(), FprasError> {
        assert!(
            n <= self.depth,
            "an nROBP reads each variable once: horizon {n} exceeds its depth {}",
            self.depth
        );
        Ok(())
    }

    fn reachable(&self, level: usize) -> &StateSet {
        &self.reach_sets[level]
    }

    fn alive(&self, level: usize) -> &StateSet {
        &self.alive_sets[level]
    }

    fn pred_of_cell_into(&self, q: u32, sym: u8, out: &mut StateSet) {
        out.clear();
        out.union_with_words(self.masks.pred_row(sym, q as usize));
    }

    fn step_back_into(&self, of: &StateSet, sym: u8, out: &mut StateSet) {
        self.masks.step_back_into(of, sym, out);
    }

    fn witness(&self, q: u32, level: usize) -> Option<Word> {
        // Greedy smallest-symbol / smallest-predecessor backward walk —
        // the same canonical choice `Unrolling::witness` makes, against
        // the program's per-level reach sets.
        if !self.reach_sets[level].contains(q as usize) {
            return None;
        }
        let k = self.width() as u8;
        let mut rev_syms = Vec::with_capacity(level);
        let mut cur = q;
        for ell in (1..=level).rev() {
            let prev_reach = &self.reach_sets[ell - 1];
            let mut found = false;
            'sym: for sym in 0..k {
                for &p in self.graph.predecessors(cur, sym) {
                    if prev_reach.contains(p as usize) {
                        rev_syms.push(sym);
                        cur = p;
                        found = true;
                        break 'sym;
                    }
                }
            }
            if !found {
                debug_assert!(found, "reachable node must have a reachable predecessor");
                return None;
            }
        }
        Some(Word::from_reversed(rev_syms))
    }

    fn reach(&self, word: &Word) -> StateSet {
        self.masks.reach(word)
    }

    fn reach_trail_into(&self, rev: &[u8], out: &mut StateSet, spare: &mut StateSet) {
        self.masks.reach_trail_into(rev, out, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_workloads::{random_robp, RandomRobpConfig};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, RngExt, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// On the nROBP substrate — one node per cell, so wide programs
        /// pass one word — the trail kernel is `reach` of the word the
        /// trail spells, for trails of the program's depth and shorter.
        #[test]
        fn robp_trail_reach_matches_word_reach(
            depth in 1usize..=12,
            width in 1usize..=12,
            alphabet in 2usize..=3,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let config = RandomRobpConfig { depth, width, alphabet, density: 1.5, accepting: 1 };
            let substrate = RobpSubstrate::new(&random_robp(&config, &mut rng)).unwrap();
            let m = substrate.universe();
            let (mut out, mut spare) = (StateSet::full(m), StateSet::full(m));
            for _ in 0..8 {
                let len = rng.random_range(0..=depth);
                let rev: Vec<u8> = (0..len).map(|_| rng.random_range(0..alphabet) as u8).collect();
                substrate.reach_trail_into(&rev, &mut out, &mut spare);
                prop_assert_eq!(&out, &substrate.reach(&Word::from_reversed(rev)));
            }
        }
    }
}
