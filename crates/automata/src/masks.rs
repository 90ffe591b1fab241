//! Precomputed transition masks for fast set-valued stepping.
//!
//! The paper's complexity analysis (§4.3) amortizes membership-oracle
//! calls by precomputing, for every sampled string `w`, the set of states
//! reachable via `w`; subsequent oracle queries are then `O(1)`. This
//! module supplies the machinery: one bitset row per `(symbol, state)`
//! holding its successors (resp. predecessors), so a set-valued step is a
//! word-wide OR per member state instead of a pointer chase per
//! transition.
//!
//! The rows live in two flat **symbol-major word arenas** (`succ_words`,
//! `pred_words`), not a `Vec<Vec<StateSet>>`: the row for `(sym, q)`
//! starts at `(sym·m + q)·stride` where `stride = ⌈m/64⌉`. One
//! contiguous allocation per direction keeps the per-member ORs on
//! cache-adjacent memory and lets the engine borrow raw rows
//! (`pred_row`) without constructing sets. The in-place kernels
//! [`StepMasks::step_into`] / [`StepMasks::step_back_into`] write into a
//! caller-owned output set, so the sampler's per-symbol inner loop
//! allocates nothing; [`StepMasks::step`] / [`StepMasks::step_back`]
//! remain as allocating conveniences.
//!
//! # Byte tables (`m ≤ 64`)
//!
//! When the whole universe fits one word, a row-OR per member state is
//! still a loop over the set's bits. For those automata the masks also
//! keep, per symbol and direction, a byte-indexed table: entry
//! `(sym, j, b)` is the union of the rows of the states `8j + i` for the
//! bits `i` set in the byte `b`. A step is then `⌈m/8⌉` lookups and ORs,
//! whatever the set's size — the classic bit-parallel NFA simulation
//! (Navarro & Raffinot, *Flexible Pattern Matching in Strings*, 2002).
//! The tables hold the same unions the rows do, so every kernel returns
//! the same set either way. Footprint: `⌈m/8⌉·256` words per symbol and
//! direction ([`StepMasks::byte_table_words`]); `m > 64` keeps the row
//! arenas only.

use crate::alphabet::Symbol;
use crate::nfa::Nfa;
use crate::stateset::StateSet;
use crate::word::Word;

/// Bit-parallel stepping tables for one NFA, backed by flat word arenas.
#[derive(Clone, Debug)]
pub struct StepMasks {
    universe: usize,
    /// Words per row: `⌈universe/64⌉`.
    stride: usize,
    /// Alphabet size.
    k: usize,
    /// Successor rows, symbol-major: row `(sym, q)` at `(sym·m + q)·stride`.
    succ_words: Vec<u64>,
    /// Predecessor rows, same layout.
    pred_words: Vec<u64>,
    /// Bytes per word-sized set, `⌈m/8⌉`, when `m ≤ 64`; 0 otherwise
    /// (no byte tables).
    bytes: usize,
    /// Successor byte tables, symbol-major: entry `(sym, j, b)` at
    /// `(sym·bytes + j)·256 + b`.
    succ_bytes: Vec<u64>,
    /// Predecessor byte tables, same layout.
    pred_bytes: Vec<u64>,
    initial: usize,
    accepting: StateSet,
}

impl StepMasks {
    /// Builds the tables; `O(k·m²/64)` space.
    pub fn new(nfa: &Nfa) -> Self {
        let m = nfa.num_states();
        let k = nfa.alphabet().size();
        let stride = m.div_ceil(64);
        let mut succ_words = vec![0u64; k * m * stride];
        let mut pred_words = vec![0u64; k * m * stride];
        for sym in 0..k as u8 {
            for q in 0..m as u32 {
                let at = (sym as usize * m + q as usize) * stride;
                for &t in nfa.successors(q, sym) {
                    succ_words[at + t as usize / 64] |= 1u64 << (t % 64);
                }
                for &t in nfa.predecessors(q, sym) {
                    pred_words[at + t as usize / 64] |= 1u64 << (t % 64);
                }
            }
        }
        let bytes = if m <= 64 { m.div_ceil(8) } else { 0 };
        let succ_bytes = byte_tables(&succ_words, m, k, bytes);
        let pred_bytes = byte_tables(&pred_words, m, k, bytes);
        StepMasks {
            universe: m,
            stride,
            k,
            succ_words,
            pred_words,
            bytes,
            succ_bytes,
            pred_bytes,
            initial: nfa.initial() as usize,
            accepting: nfa.accepting().clone(),
        }
    }

    /// Words held by the byte tables, both directions: `⌈m/8⌉·256·k·2`
    /// for `m ≤ 64`, 0 otherwise.
    pub fn byte_table_words(&self) -> usize {
        self.succ_bytes.len() + self.pred_bytes.len()
    }

    /// Size of the state universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Alphabet size the tables were built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The NFA's initial state.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The arena row of `q`'s predecessors on `sym`, as raw words.
    #[inline]
    pub fn pred_row(&self, sym: Symbol, q: usize) -> &[u64] {
        let at = (sym as usize * self.universe + q) * self.stride;
        &self.pred_words[at..at + self.stride]
    }

    /// One forward step from `from` on `sym`, written into `out`
    /// (cleared first). `out` must range over the same universe.
    #[inline]
    pub fn step_into(&self, from: &StateSet, sym: Symbol, out: &mut StateSet) {
        if self.bytes > 0 {
            out.words_mut()[0] = self.byte_step(&self.succ_bytes, sym, from.words()[0]);
            return;
        }
        out.clear();
        let base = sym as usize * self.universe * self.stride;
        for q in from.iter() {
            let at = base + q * self.stride;
            out.union_with_words(&self.succ_words[at..at + self.stride]);
        }
    }

    /// One backward step from `of` on `sym`, written into `out`
    /// (cleared first): `P_b = ⋃_{p∈P} Pred(p, b)`, Algorithm 2 line 9.
    #[inline]
    pub fn step_back_into(&self, of: &StateSet, sym: Symbol, out: &mut StateSet) {
        if self.bytes > 0 {
            out.words_mut()[0] = self.byte_step(&self.pred_bytes, sym, of.words()[0]);
            return;
        }
        out.clear();
        let base = sym as usize * self.universe * self.stride;
        for q in of.iter() {
            let at = base + q * self.stride;
            out.union_with_words(&self.pred_words[at..at + self.stride]);
        }
    }

    /// One step of the word-sized set `set` on `sym` through a byte
    /// table (`m ≤ 64` only): one lookup and OR per byte of the set.
    #[inline]
    fn byte_step(&self, table: &[u64], sym: Symbol, set: u64) -> u64 {
        let at = sym as usize * self.bytes * 256;
        let table = &table[at..at + self.bytes * 256];
        let mut out = 0;
        for (j, entries) in table.chunks_exact(256).enumerate() {
            out |= entries[(set >> (8 * j)) as u8 as usize];
        }
        out
    }

    /// The word-sized set reached from `set` via the symbols `syms`
    /// (`m ≤ 64` only): the whole walk in one register.
    #[inline]
    fn byte_reach<'a>(&self, mut set: u64, syms: impl Iterator<Item = &'a Symbol>) -> u64 {
        for &sym in syms {
            set = self.byte_step(&self.succ_bytes, sym, set);
        }
        set
    }

    /// One forward step from `from` on `sym` (allocating convenience).
    #[inline]
    pub fn step(&self, from: &StateSet, sym: Symbol) -> StateSet {
        let mut out = StateSet::empty(self.universe);
        self.step_into(from, sym, &mut out);
        out
    }

    /// One backward step from `of` on `sym` (allocating convenience).
    #[inline]
    pub fn step_back(&self, of: &StateSet, sym: Symbol) -> StateSet {
        let mut out = StateSet::empty(self.universe);
        self.step_back_into(of, sym, &mut out);
        out
    }

    /// States reachable from the initial state via `word` — the value the
    /// membership oracle stores per sampled string.
    pub fn reach(&self, word: &Word) -> StateSet {
        let mut start = StateSet::singleton(self.universe, self.initial);
        if self.bytes > 0 {
            start.words_mut()[0] = self.byte_reach(start.words()[0], word.symbols().iter());
            return start;
        }
        self.reach_from(&start, word)
    }

    /// [`StepMasks::reach`] of the word whose symbols `rev` holds last
    /// first — the order the backward sampler draws them in — written
    /// into `out`, with no [`Word`] built. `spare` is the other half of
    /// the double buffer when `m > 64`; the two sets may trade buffers.
    /// Both must range over this universe.
    pub fn reach_trail_into(&self, rev: &[Symbol], out: &mut StateSet, spare: &mut StateSet) {
        debug_assert_eq!(out.universe(), self.universe, "reach set of another universe");
        debug_assert_eq!(spare.universe(), self.universe, "reach set of another universe");
        if self.bytes > 0 {
            out.words_mut()[0] = self.byte_reach(1 << self.initial, rev.iter().rev());
            return;
        }
        out.clear();
        out.insert(self.initial);
        for &sym in rev.iter().rev() {
            self.step_into(out, sym, spare);
            std::mem::swap(out, spare);
        }
    }

    /// States reachable via `word` starting from an arbitrary set.
    pub fn reach_from(&self, start: &StateSet, word: &Word) -> StateSet {
        let mut cur = start.clone();
        if self.bytes > 0 {
            cur.words_mut()[0] = self.byte_reach(start.words()[0], word.symbols().iter());
            return cur;
        }
        // Double-buffered: two sets for the whole walk, not one per step.
        let mut next = StateSet::empty(self.universe);
        for &sym in word.symbols() {
            self.step_into(&cur, sym, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// True iff `word ∈ L(A)`.
    pub fn accepts(&self, word: &Word) -> bool {
        self.reach(word).intersects(&self.accepting)
    }
}

/// Byte tables over the row arena `rows` (layout of
/// `StepMasks::succ_words`, one word per row since `m ≤ 64`): entry
/// `(sym, j, b)` is the OR of the rows of states `8j + i` for the bits
/// `i` of `b`, built from the entry with `b`'s lowest bit cleared. Empty
/// when `bytes` is 0.
fn byte_tables(rows: &[u64], m: usize, k: usize, bytes: usize) -> Vec<u64> {
    let mut tables = vec![0u64; k * bytes * 256];
    for sym in 0..k {
        for j in 0..bytes {
            let at = (sym * bytes + j) * 256;
            for b in 1..256usize {
                let q = 8 * j + b.trailing_zeros() as usize;
                let row = if q < m { rows[sym * m + q] } else { 0 };
                tables[at + b] = tables[at + (b & (b - 1))] | row;
            }
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
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
    fn matches_nfa_step() {
        let nfa = contains_11();
        let masks = StepMasks::new(&nfa);
        for bits in 0u32..8 {
            let set = StateSet::from_iter(3, (0..3).filter(|&q| bits & (1 << q) != 0));
            for sym in 0..2u8 {
                assert_eq!(masks.step(&set, sym), nfa.step(&set, sym));
                assert_eq!(masks.step_back(&set, sym), nfa.step_back(&set, sym));
            }
        }
    }

    #[test]
    fn into_kernels_match_and_clear_stale_bits() {
        let nfa = contains_11();
        let masks = StepMasks::new(&nfa);
        let set = StateSet::from_iter(3, [0, 1]);
        // Pre-fill the output with garbage: step_into must clear it.
        let mut out = StateSet::full(3);
        masks.step_into(&set, 1, &mut out);
        assert_eq!(out, nfa.step(&set, 1));
        let mut back = StateSet::full(3);
        masks.step_back_into(&set, 1, &mut back);
        assert_eq!(back, nfa.step_back(&set, 1));
    }

    #[test]
    fn pred_row_matches_step_back_of_singleton() {
        let nfa = contains_11();
        let masks = StepMasks::new(&nfa);
        for sym in 0..2u8 {
            for q in 0..3usize {
                let single = StateSet::singleton(3, q);
                assert_eq!(
                    masks.step_back(&single, sym).words(),
                    masks.pred_row(sym, q),
                    "sym {sym} q {q}"
                );
            }
        }
    }

    #[test]
    fn accepts_matches_nfa() {
        let nfa = contains_11();
        let masks = StepMasks::new(&nfa);
        for n in 0..6usize {
            for idx in 0..(1u64 << n) {
                let w = Word::from_index(idx, n, 2);
                assert_eq!(masks.accepts(&w), nfa.accepts(&w), "word {w:?}");
            }
        }
    }

    #[test]
    fn reach_from_composes() {
        let nfa = contains_11();
        let masks = StepMasks::new(&nfa);
        let w1 = Word::from_symbols(vec![1]);
        let w2 = Word::from_symbols(vec![1, 0]);
        let mid = masks.reach(&w1);
        let full = masks.reach_from(&mid, &w2);
        assert_eq!(full, masks.reach(&w1.concat(&w2)));
    }

    #[test]
    fn byte_table_footprint_is_pinned() {
        for (m, k) in [(1, 2), (3, 2), (8, 2), (9, 3), (25, 2), (48, 2), (64, 4)] {
            let masks = StepMasks::new(&random_nfa(m, k, 0));
            assert_eq!(masks.byte_table_words(), m.div_ceil(8) * 256 * k * 2, "m {m} k {k}");
        }
        // Past one word the row arenas are the only tables.
        assert_eq!(StepMasks::new(&random_nfa(65, 2, 0)).byte_table_words(), 0);
    }

    /// A random NFA over `m` states and `k` symbols, about two edges per
    /// state and symbol.
    fn random_nfa(m: usize, k: usize, seed: u64) -> Nfa {
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = NfaBuilder::new(Alphabet::of_size(k));
        b.add_states(m);
        b.set_initial(rng.random_range(0..m) as u32);
        b.add_accepting(rng.random_range(0..m) as u32);
        for _ in 0..2 * m * k {
            let sym = rng.random_range(0..k) as u8;
            b.add_transition(rng.random_range(0..m) as u32, sym, rng.random_range(0..m) as u32);
        }
        b.build().unwrap()
    }

    /// The row-OR step every kernel computed before the byte tables:
    /// the union of `rows`' rows of `set`'s members on `sym`.
    fn row_or(masks: &StepMasks, rows: &[u64], set: &StateSet, sym: Symbol) -> StateSet {
        let mut out = StateSet::empty(masks.universe);
        for q in set.iter() {
            let at = (sym as usize * masks.universe + q) * masks.stride;
            out.union_with_words(&rows[at..at + masks.stride]);
        }
        out
    }

    /// Checks all five set kernels against the row-OR reference on `nfa`
    /// from random sets and words drawn from `seed`; the sampler's trail
    /// kernel reads each word reversed, into buffers that start full.
    fn check_kernels_match_rows(nfa: &Nfa, seed: u64) {
        use rand::{rngs::SmallRng, RngExt, SeedableRng};
        let masks = StepMasks::new(nfa);
        let (m, k) = (masks.universe, masks.k);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut trail_out, mut spare) = (StateSet::full(m), StateSet::full(m));
        for _ in 0..8 {
            let set = StateSet::from_iter(m, (0..m).filter(|_| rng.random_bool(0.3)));
            for sym in 0..k as u8 {
                // Output buffers start full of garbage the kernels must clear.
                let mut out = StateSet::full(m);
                masks.step_into(&set, sym, &mut out);
                assert_eq!(out.words(), row_or(&masks, &masks.succ_words, &set, sym).words());
                let mut back = StateSet::full(m);
                masks.step_back_into(&set, sym, &mut back);
                assert_eq!(back.words(), row_or(&masks, &masks.pred_words, &set, sym).words());
            }
            let len = rng.random_range(0..12);
            let word = Word::from_symbols((0..len).map(|_| rng.random_range(0..k) as u8).collect());
            let mut expect = set.clone();
            for &sym in word.symbols() {
                expect = row_or(&masks, &masks.succ_words, &expect, sym);
            }
            assert_eq!(masks.reach_from(&set, &word).words(), expect.words());
            let mut expect = StateSet::singleton(m, masks.initial);
            for &sym in word.symbols() {
                expect = row_or(&masks, &masks.succ_words, &expect, sym);
            }
            assert_eq!(masks.reach(&word).words(), expect.words());
            let rev: Vec<Symbol> = word.symbols().iter().rev().copied().collect();
            masks.reach_trail_into(&rev, &mut trail_out, &mut spare);
            assert_eq!(trail_out.words(), expect.words());
        }
    }

    proptest! {
        /// Byte-table kernels (`m ≤ 64`) are the row-OR kernels, word
        /// for word, for every universe size up to one word.
        #[test]
        fn byte_kernels_match_row_or(m in 1usize..=64, k in 2usize..=4, seed in any::<u64>()) {
            check_kernels_match_rows(&random_nfa(m, k, seed), seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Past one word the kernels fall back to the row arenas, which
        /// must agree with the same reference.
        #[test]
        fn row_fallback_kernels_match_row_or(
            m in 65usize..=130,
            k in 2usize..=4,
            seed in any::<u64>(),
        ) {
            check_kernels_match_rows(&random_nfa(m, k, seed), seed);
        }
    }

    proptest! {
        #[test]
        fn random_nfa_step_equivalence(
            edges in proptest::collection::vec((0u32..6, 0u8..2, 0u32..6), 1..30),
            set_bits in 0u64..64,
        ) {
            let mut b = NfaBuilder::new(Alphabet::binary());
            b.add_states(6);
            b.set_initial(0);
            b.add_accepting(5);
            for &(f, s, t) in &edges {
                b.add_transition(f, s, t);
            }
            let nfa = b.build().unwrap();
            let masks = StepMasks::new(&nfa);
            let set = StateSet::from_iter(6, (0..6).filter(|&q| set_bits & (1 << q) != 0));
            for sym in 0..2u8 {
                prop_assert_eq!(masks.step(&set, sym), nfa.step(&set, sym));
                prop_assert_eq!(masks.step_back(&set, sym), nfa.step_back(&set, sym));
            }
        }
    }
}
