//! Bitset state sets.
//!
//! Everything hot in the FPRAS works on sets of NFA states: the sampler
//! carries the frontier `Pℓ` (Algorithm 2), the membership oracle stores
//! the reachable-state set of every sampled word (§4.3 of the paper), and
//! `AppUnion` tests "does `reach(σ)` hit any of the first `i` predecessor
//! states" (Algorithm 1, line 9). A packed `u64` bitset makes the oracle
//! query a handful of word-wide AND/OR operations.

use std::fmt;

/// A set of states over a fixed universe `0..universe`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct StateSet {
    universe: u32,
    words: Vec<u64>,
}

impl StateSet {
    /// The empty set over a universe of `universe` states.
    pub fn empty(universe: usize) -> Self {
        StateSet { universe: universe as u32, words: vec![0; universe.div_ceil(64)] }
    }

    /// The singleton `{state}`.
    pub fn singleton(universe: usize, state: usize) -> Self {
        let mut s = Self::empty(universe);
        s.insert(state);
        s
    }

    /// The full set `{0, …, universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim_tail();
        s
    }

    /// Builds from an iterator of state ids.
    pub fn from_iter(universe: usize, states: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(universe);
        for q in states {
            s.insert(q);
        }
        s
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Inserts a state.
    ///
    /// # Panics
    /// Panics (in debug builds) if `state` is outside the universe.
    #[inline]
    pub fn insert(&mut self, state: usize) {
        debug_assert!(
            state < self.universe as usize,
            "state {state} outside universe {}",
            self.universe
        );
        self.words[state / 64] |= 1u64 << (state % 64);
    }

    /// Removes a state.
    #[inline]
    pub fn remove(&mut self, state: usize) {
        debug_assert!(state < self.universe as usize);
        self.words[state / 64] &= !(1u64 << (state % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, state: usize) -> bool {
        debug_assert!(state < self.universe as usize);
        self.words[state / 64] & (1u64 << (state % 64)) != 0
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    #[inline]
    pub fn intersect_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference `self \ other`.
    pub fn subtract(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True iff the sets share a state — the oracle's hot query.
    #[inline]
    pub fn intersects(&self, other: &StateSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset_of(&self, other: &StateSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Clears the set.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Iterates over member states in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| BitIter { word: w, base: i * 64 })
    }

    /// The raw words, for hashing into map keys.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The raw words, for kernels that compute a whole set at once
    /// ([`crate::StepMasks`]'s byte tables). Callers keep bits at and
    /// above the universe clear.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// In-place union with a raw word slice (an arena row covering the
    /// same universe). The kernel form of [`StateSet::union_with`]: the
    /// flat-arena callers ([`crate::StepMasks`], the interner) keep rows
    /// as bare `&[u64]` and must not materialize a `StateSet` per row.
    #[inline]
    pub fn union_with_words(&mut self, row: &[u64]) {
        debug_assert_eq!(self.words.len(), row.len());
        for (a, b) in self.words.iter_mut().zip(row) {
            *a |= b;
        }
    }

    /// True iff the set shares a state with a raw word slice over the
    /// same universe — [`StateSet::intersects`] against an arena row.
    #[inline]
    pub fn intersects_words(&self, row: &[u64]) -> bool {
        debug_assert_eq!(self.words.len(), row.len());
        self.words.iter().zip(row).any(|(a, b)| a & b != 0)
    }

    /// Copies `other`'s members into `self` without allocating (both
    /// sets must range over the same universe). `clone_from` would also
    /// avoid the allocation, but only when the capacities already match;
    /// this form asserts the invariant the hot loops rely on.
    #[inline]
    pub fn copy_from(&mut self, other: &StateSet) {
        debug_assert_eq!(self.universe, other.universe);
        self.words.copy_from_slice(&other.words);
    }

    fn trim_tail(&mut self) {
        let extra = self.words.len() * 64 - self.universe as usize;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, q) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_and_full() {
        let e = StateSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = StateSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(69));
        assert!(!f.is_empty());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = StateSet::empty(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_in_order() {
        let s = StateSet::from_iter(200, [150, 3, 64, 3]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 150]);
    }

    #[test]
    fn set_algebra() {
        let a = StateSet::from_iter(10, [1, 2, 3]);
        let b = StateSet::from_iter(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(a.intersects(&b));
        assert!(!StateSet::from_iter(10, [7]).intersects(&b));
        assert!(i.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn full_trims_tail_bits() {
        // Universe 65: the second word must only have its lowest bit set,
        // otherwise len() overcounts.
        let f = StateSet::full(65);
        assert_eq!(f.len(), 65);
        assert_eq!(f.iter().max(), Some(64));
    }

    #[test]
    fn singleton() {
        let s = StateSet::singleton(128, 127);
        assert_eq!(s.len(), 1);
        assert!(s.contains(127));
    }

    #[test]
    fn word_slice_kernels_match_set_ops() {
        let a = StateSet::from_iter(130, [1, 64, 129]);
        let b = StateSet::from_iter(130, [64, 65]);
        let mut u = a.clone();
        u.union_with_words(b.words());
        let mut expect = a.clone();
        expect.union_with(&b);
        assert_eq!(u, expect);
        assert_eq!(a.intersects_words(b.words()), a.intersects(&b));
        assert!(!a.intersects_words(StateSet::from_iter(130, [2, 66]).words()));
        let mut c = StateSet::full(130);
        c.copy_from(&a);
        assert_eq!(c, a);
    }

    proptest! {
        #[test]
        fn matches_btreeset(
            xs in proptest::collection::vec(0usize..150, 0..50),
            ys in proptest::collection::vec(0usize..150, 0..50),
        ) {
            let a = StateSet::from_iter(150, xs.iter().copied());
            let b = StateSet::from_iter(150, ys.iter().copied());
            let sa: BTreeSet<usize> = xs.iter().copied().collect();
            let sb: BTreeSet<usize> = ys.iter().copied().collect();

            prop_assert_eq!(a.len(), sa.len());
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), sa.iter().copied().collect::<Vec<_>>());

            let mut u = a.clone();
            u.union_with(&b);
            prop_assert_eq!(u.iter().collect::<Vec<_>>(), sa.union(&sb).copied().collect::<Vec<_>>());

            let mut i = a.clone();
            i.intersect_with(&b);
            prop_assert_eq!(i.iter().collect::<Vec<_>>(), sa.intersection(&sb).copied().collect::<Vec<_>>());

            let mut d = a.clone();
            d.subtract(&b);
            prop_assert_eq!(d.iter().collect::<Vec<_>>(), sa.difference(&sb).copied().collect::<Vec<_>>());

            prop_assert_eq!(a.intersects(&b), !sa.is_disjoint(&sb));
            prop_assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb));
        }
    }
}
