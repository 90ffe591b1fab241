//! Level structure of the unrolled automaton `A_unroll`.
//!
//! The template algorithm (Fig. 1, line 1) unrolls `A` into an acyclic
//! graph with `n+1` levels, the `ℓ`-th holding a copy `qℓ` of every state.
//! Materializing `m·(n+1)` states is unnecessary: every query the FPRAS
//! makes about `A_unroll` is answered by two families of per-level state
//! sets,
//!
//! * `reach(ℓ)` — states `q` with `L(qℓ) ≠ ∅` (some length-`ℓ` word
//!   reaches `q` from the initial state), and
//! * `alive(ℓ)` — states that can still reach the accepting state in the
//!   remaining `n-ℓ` steps,
//!
//! plus deterministic *witness words* for the padding step of Algorithm 3
//! (lines 27–30: "let `w_qℓ` be some word in `L(qℓ)`").

use crate::nfa::{Nfa, StateId};
use crate::stateset::StateSet;
use crate::word::Word;

/// A horizon whose per-level views cannot be reserved: `n + 1` sets
/// overflow the address space, or the allocator refused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HorizonTooLarge {
    /// The horizon asked for.
    pub n: usize,
}

impl std::fmt::Display for HorizonTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "length {} needs more memory than can be reserved", self.n)
    }
}

impl std::error::Error for HorizonTooLarge {}

/// Per-level reachability view of `A_unroll` for a fixed horizon `n`.
#[derive(Clone, Debug)]
pub struct Unrolling {
    n: usize,
    /// `reach[ℓ]` = states with a length-`ℓ` path from the initial state.
    reach: Vec<StateSet>,
    /// `dist[d]` = states with a length-`d` path to an accepting state,
    /// so `alive(ℓ) = dist[n-ℓ]`. Indexing by *distance* instead of by
    /// level makes both families prefix-stable under horizon growth:
    /// [`Unrolling::extend_to`] only appends, it never recomputes.
    dist: Vec<StateSet>,
}

impl Unrolling {
    /// Computes both families in `O(n·|Δ|)`; fails, without touching
    /// the memory, when the `n + 1` sets per family cannot be reserved.
    pub fn new(nfa: &Nfa, n: usize) -> Result<Self, HorizonTooLarge> {
        let mut u = Unrolling {
            n: 0,
            reach: vec![StateSet::singleton(nfa.num_states(), nfa.initial() as usize)],
            dist: vec![nfa.accepting().clone()],
        };
        u.extend_to(nfa, n)?;
        Ok(u)
    }

    /// The horizon `n`.
    pub fn horizon(&self) -> usize {
        self.n
    }

    /// Extends the view to a larger horizon `n` in place (no-op when the
    /// horizon is already `≥ n`), in `O((n − old) · |Δ|)`.
    ///
    /// Both families are stored horizon-independently — `reach` is the
    /// forward closure from the initial state, `dist` the backward
    /// closure from the accepting set, indexed by distance — so
    /// extension appends the missing entries and keeps every existing
    /// set verbatim. Only the *interpretation* of `alive(ℓ)` (distance
    /// `n − ℓ`) shifts with the horizon, which is why incremental
    /// engine runs (`QuerySession`, DESIGN.md D11) must not consult it.
    ///
    /// Both families are reserved up front, fallibly: a horizon whose
    /// sets cannot be reserved fails here, before any set is computed,
    /// and leaves the view as it was.
    pub fn extend_to(&mut self, nfa: &Nfa, n: usize) -> Result<(), HorizonTooLarge> {
        if n <= self.n {
            return Ok(());
        }
        let len = n.checked_add(1).ok_or(HorizonTooLarge { n })?;
        let reserved = [&mut self.reach, &mut self.dist]
            .into_iter()
            .try_for_each(|sets| sets.try_reserve_exact(len - sets.len()));
        if reserved.is_err() {
            self.reach.shrink_to_fit();
            self.dist.shrink_to_fit();
            return Err(HorizonTooLarge { n });
        }
        let m = nfa.num_states();
        let k = nfa.alphabet().size() as u8;
        let closure = |sets: &mut Vec<StateSet>, step: &dyn Fn(&StateSet, u8) -> StateSet| {
            while sets.len() <= n {
                let prev = sets.last().expect("families always hold index 0");
                let mut cur = StateSet::empty(m);
                for sym in 0..k {
                    cur.union_with(&step(prev, sym));
                }
                sets.push(cur);
            }
        };
        closure(&mut self.reach, &|set, sym| nfa.step(set, sym));
        closure(&mut self.dist, &|set, sym| nfa.step_back(set, sym));
        self.n = n;
        Ok(())
    }

    /// States `q` with `L(qℓ) ≠ ∅`.
    pub fn reachable(&self, level: usize) -> &StateSet {
        &self.reach[level]
    }

    /// States that can reach the accepting set in exactly `n - ℓ` steps.
    pub fn alive(&self, level: usize) -> &StateSet {
        &self.dist[self.n - level]
    }

    /// True iff `qℓ` is both reachable and alive — i.e. the state copy
    /// participates in some accepting length-`n` run.
    pub fn useful(&self, q: StateId, level: usize) -> bool {
        self.reach[level].contains(q as usize) && self.alive(level).contains(q as usize)
    }

    /// True iff `L(A_n)` is non-empty.
    pub fn language_nonempty(&self) -> bool {
        let mut last = self.reach[self.n].clone();
        last.intersect_with(self.alive(self.n));
        !last.is_empty()
    }

    /// A deterministic word of length `level` in `L(qℓ)`, or `None` if
    /// `L(qℓ) = ∅`.
    ///
    /// Used for the padding step (Algorithm 3 lines 27–30). The word is
    /// built backwards, greedily taking the smallest symbol (and then the
    /// smallest predecessor) available at each level, so repeated calls
    /// return the same word.
    pub fn witness(&self, nfa: &Nfa, q: StateId, level: usize) -> Option<Word> {
        if !self.reach[level].contains(q as usize) {
            return None;
        }
        let k = nfa.alphabet().size() as u8;
        let mut rev_syms = Vec::with_capacity(level);
        let mut cur = q;
        for ell in (1..=level).rev() {
            let prev_reach = &self.reach[ell - 1];
            let mut found = false;
            'sym: for sym in 0..k {
                for &p in nfa.predecessors(cur, sym) {
                    if prev_reach.contains(p as usize) {
                        rev_syms.push(sym);
                        cur = p;
                        found = true;
                        break 'sym;
                    }
                }
            }
            debug_assert!(found, "reachable state must have a reachable predecessor");
            if !found {
                return None;
            }
        }
        Some(Word::from_reversed(rev_syms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::nfa::NfaBuilder;

    /// Accepts words containing "11".
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
    fn reach_levels() {
        let nfa = contains_11();
        let u = Unrolling::new(&nfa, 4).unwrap();
        assert_eq!(u.reachable(0).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(u.reachable(1).iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(u.reachable(2).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(u.reachable(4).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn alive_levels() {
        let nfa = contains_11();
        let u = Unrolling::new(&nfa, 3).unwrap();
        // At level 3 only the accepting state is alive.
        assert_eq!(u.alive(3).iter().collect::<Vec<_>>(), vec![2]);
        // At level 2: states that reach q2 in one step: q1 (via 1), q2 (loops).
        assert_eq!(u.alive(2).iter().collect::<Vec<_>>(), vec![1, 2]);
        // At level 0 everything can still make it.
        assert_eq!(u.alive(0).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn useful_combines_both() {
        let nfa = contains_11();
        let u = Unrolling::new(&nfa, 2).unwrap();
        // n=2: only "11" is accepted. q1 at level 1 is reachable and alive.
        assert!(u.useful(1, 1));
        // q0 at level 2 is reachable but dead (cannot accept in 0 steps).
        assert!(!u.useful(0, 2));
        assert!(u.language_nonempty());
    }

    #[test]
    fn empty_slice_detected() {
        let nfa = contains_11();
        // n=1: no length-1 word contains "11".
        let u = Unrolling::new(&nfa, 1).unwrap();
        assert!(!u.language_nonempty());
    }

    #[test]
    fn witness_is_valid_and_deterministic() {
        let nfa = contains_11();
        let u = Unrolling::new(&nfa, 5).unwrap();
        for level in 0..=5usize {
            for q in 0..3u32 {
                match u.witness(&nfa, q, level) {
                    Some(w) => {
                        assert_eq!(w.len(), level);
                        assert!(
                            nfa.reach(&w).contains(q as usize),
                            "witness {w:?} must reach q{q}"
                        );
                        // Determinism.
                        assert_eq!(u.witness(&nfa, q, level), Some(w));
                    }
                    None => {
                        assert!(!u.reachable(level).contains(q as usize));
                    }
                }
            }
        }
    }

    #[test]
    fn witness_smallest_symbol_first() {
        let nfa = contains_11();
        let u = Unrolling::new(&nfa, 3).unwrap();
        // Witness for q0 at level 3 should be all zeros (greedy smallest).
        let w = u.witness(&nfa, 0, 3).unwrap();
        assert_eq!(w.symbols(), &[0, 0, 0]);
        // Witness for q2 at level 2 must be "11" (only option).
        let w = u.witness(&nfa, 2, 2).unwrap();
        assert_eq!(w.symbols(), &[1, 1]);
    }

    #[test]
    fn extend_to_matches_fresh_unrolling() {
        let nfa = contains_11();
        // Grow 0 → 3 → 7 and compare against fresh views at each stop:
        // reach must be extended in place (prefix-stable), alive must be
        // recomputed for the new horizon.
        let mut grown = Unrolling::new(&nfa, 0).unwrap();
        for horizon in [3usize, 7] {
            grown.extend_to(&nfa, horizon).unwrap();
            let fresh = Unrolling::new(&nfa, horizon).unwrap();
            assert_eq!(grown.horizon(), horizon);
            for ell in 0..=horizon {
                assert_eq!(
                    grown.reachable(ell).iter().collect::<Vec<_>>(),
                    fresh.reachable(ell).iter().collect::<Vec<_>>(),
                    "reach at {ell}/{horizon}"
                );
                assert_eq!(
                    grown.alive(ell).iter().collect::<Vec<_>>(),
                    fresh.alive(ell).iter().collect::<Vec<_>>(),
                    "alive at {ell}/{horizon}"
                );
                for q in 0..3u32 {
                    assert_eq!(
                        grown.witness(&nfa, q, ell),
                        fresh.witness(&nfa, q, ell),
                        "witness at ({q}, {ell})"
                    );
                }
            }
            assert_eq!(grown.language_nonempty(), fresh.language_nonempty());
        }
        // Shrinking is a no-op.
        grown.extend_to(&nfa, 2).unwrap();
        assert_eq!(grown.horizon(), 7);
    }

    #[test]
    fn witness_level_zero() {
        let nfa = contains_11();
        let u = Unrolling::new(&nfa, 2).unwrap();
        assert_eq!(u.witness(&nfa, 0, 0), Some(Word::empty()));
        assert_eq!(u.witness(&nfa, 1, 0), None);
    }

    /// A horizon whose sets cannot be reserved fails in the size
    /// computation, before any memory is touched, and leaves a grown
    /// view as it was.
    #[test]
    fn oversized_horizon_is_an_error() {
        let nfa = contains_11();
        for n in [1usize << 60, usize::MAX] {
            assert_eq!(Unrolling::new(&nfa, n).unwrap_err(), HorizonTooLarge { n });
        }
        let mut u = Unrolling::new(&nfa, 4).unwrap();
        assert_eq!(u.extend_to(&nfa, 1 << 60), Err(HorizonTooLarge { n: 1 << 60 }));
        assert_eq!(u.horizon(), 4);
        assert_eq!(u.reachable(4).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
