//! Polynomial-delay enumeration of `L(A_n)`.
//!
//! The lineage of the FPRAS (Arenas–Croquevielle–Jayaram–Riveros) treats
//! three problems together: *enumeration*, *counting* and *uniform
//! generation*. Counting and generation are the FPRAS's job; this module
//! completes the trilogy with a lazy, lexicographic enumerator whose
//! delay between consecutive words is `O(n·m²/64)`.
//!
//! The idea is the standard one: extend prefixes left-to-right, pruning a
//! branch as soon as its reachable state set cannot hit an accepting
//! state within the remaining steps (the `alive` sets of
//! [`crate::unroll::Unrolling`]). Every maintained prefix is therefore
//! completable, so each emitted word costs at most `n` extensions.

use crate::nfa::Nfa;
use crate::stateset::StateSet;
use crate::unroll::{HorizonTooLarge, Unrolling};
use crate::word::Word;

/// Lazy lexicographic iterator over `L(A_n)`.
pub struct Enumerator<'a> {
    nfa: &'a Nfa,
    unroll: Unrolling,
    n: usize,
    /// DFS stack of viable prefixes; empty once exhausted.
    stack: Vec<Frame>,
}

struct Frame {
    prefix: Vec<u8>,
    reach: StateSet,
    /// Next symbol to try at this frame.
    next_sym: u8,
}

impl<'a> Enumerator<'a> {
    /// Builds an enumerator for words of length exactly `n`; fails when
    /// the unrolling's per-level views for `n` cannot be reserved.
    pub fn new(nfa: &'a Nfa, n: usize) -> Result<Self, HorizonTooLarge> {
        let unroll = Unrolling::new(nfa, n)?;
        let root_reach = StateSet::singleton(nfa.num_states(), nfa.initial() as usize);
        let mut stack = Vec::new();
        // Root is viable only if the language slice is non-empty.
        if unroll.language_nonempty() {
            stack.push(Frame { prefix: Vec::new(), reach: root_reach, next_sym: 0 });
        }
        Ok(Enumerator { nfa, unroll, n, stack })
    }

    /// A viability check: can `reach` (after `depth` symbols) still reach
    /// acceptance in `n - depth` steps?
    fn viable(&self, reach: &StateSet, depth: usize) -> bool {
        reach.intersects(self.unroll.alive(depth))
    }
}

impl Iterator for Enumerator<'_> {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        let k = self.nfa.alphabet().size() as u8;
        loop {
            // Split borrows: inspect the top frame, then decide.
            let (depth, sym, reach_step) = {
                let top = self.stack.last_mut()?;
                let depth = top.prefix.len();
                if depth == self.n {
                    let word = Word::from_symbols(top.prefix.clone());
                    self.stack.pop();
                    return Some(word);
                }
                if top.next_sym >= k {
                    self.stack.pop();
                    continue;
                }
                let sym = top.next_sym;
                top.next_sym += 1;
                (depth, sym, self.nfa.step(&top.reach, sym))
            };
            if reach_step.is_empty() || !self.viable(&reach_step, depth + 1) {
                continue; // pruned: this prefix cannot be completed
            }
            let mut prefix = self.stack.last().expect("frame exists").prefix.clone();
            prefix.push(sym);
            self.stack.push(Frame { prefix, reach: reach_step, next_sym: 0 });
        }
    }
}

/// Convenience: collects `L(A_n)` up to `limit` words (in lexicographic
/// order). `None` in the limit collects everything. Fails like
/// [`Enumerator::new`].
pub fn enumerate_slice(
    nfa: &Nfa,
    n: usize,
    limit: Option<usize>,
) -> Result<Vec<Word>, HorizonTooLarge> {
    let it = Enumerator::new(nfa, n)?;
    Ok(match limit {
        Some(cap) => it.take(cap).collect(),
        None => it.collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::exact::count_exact;
    use crate::nfa::NfaBuilder;
    use proptest::prelude::*;

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
    fn enumerates_exactly_the_language() {
        let nfa = contains_11();
        for n in 0..=9usize {
            let words = enumerate_slice(&nfa, n, None).unwrap();
            let expected = count_exact(&nfa, n).unwrap().to_u64().unwrap() as usize;
            assert_eq!(words.len(), expected, "n={n}");
            for w in &words {
                assert!(nfa.accepts(w), "{w:?}");
            }
        }
    }

    #[test]
    fn lexicographic_order_no_duplicates() {
        let nfa = contains_11();
        let words = enumerate_slice(&nfa, 8, None).unwrap();
        for pair in words.windows(2) {
            assert!(pair[0] < pair[1], "{:?} !< {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn limit_respected() {
        let nfa = contains_11();
        let words = enumerate_slice(&nfa, 10, Some(5)).unwrap();
        assert_eq!(words.len(), 5);
    }

    #[test]
    fn empty_slice_yields_nothing() {
        let nfa = contains_11();
        assert!(enumerate_slice(&nfa, 1, None).unwrap().is_empty());
        assert!(enumerate_slice(&nfa, 0, None).unwrap().is_empty());
    }

    #[test]
    fn lambda_enumerated_when_accepted() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        let nfa = b.build().unwrap();
        let words = enumerate_slice(&nfa, 0, None).unwrap();
        assert_eq!(words, vec![Word::empty()]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Enumeration agrees with brute force on random small NFAs.
        #[test]
        fn matches_brute_force(
            edges in proptest::collection::vec((0u32..5, 0u8..2, 0u32..5), 1..18),
            accepting in 0u32..5,
            n in 0usize..7,
        ) {
            let mut b = NfaBuilder::new(Alphabet::binary());
            b.add_states(5);
            b.set_initial(0);
            b.add_accepting(accepting);
            for &(f, s, t) in &edges {
                b.add_transition(f, s, t);
            }
            let nfa = b.build().unwrap();
            let enumerated = enumerate_slice(&nfa, n, None).unwrap();
            let brute: Vec<Word> = (0..(1u64 << n))
                .map(|idx| Word::from_index(idx, n, 2))
                .filter(|w| nfa.accepts(w))
                .collect();
            prop_assert_eq!(enumerated, brute);
        }
    }

    /// A length whose views cannot be reserved is an error, not a panic.
    #[test]
    fn oversized_length_is_an_error() {
        let nfa = contains_11();
        let n = 1usize << 60;
        assert_eq!(enumerate_slice(&nfa, n, Some(1)).unwrap_err(), HorizonTooLarge { n });
    }
}
