//! Per-(state, level) sample storage — the paper's `S(qℓ)`.
//!
//! The union oracle (paper §4.3) needs one thing of each stored sample
//! `σ`: its *reachable-state set* `reach(σ)`, because `σ ∈ L(pℓ)` iff
//! `p ∈ reach(σ)`. A set therefore stores each sample's reach set once,
//! as one row of a flat `u64` matrix (`⌈m/64⌉` words per row), and not
//! the word itself. Genuine samples come first, in draw order.
//!
//! Padding (Algorithm 3 lines 27–30) repeats one fixed witness word; its
//! reach set is stored once, as one last row with a repetition count.
//! A set built by the sample pass holds at most `ns` rows (`ns` genuine
//! samples, or fewer plus the pad row), and the pass sizes it for
//! exactly that.

use fpras_automata::StateSet;

/// The multiset `S(qℓ)`: the reach rows of the genuine samples followed
/// by logical padding.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    /// Reach rows, `stride` words each: the genuine samples, then the
    /// pad row when `pad_count > 0`.
    rows: Vec<u64>,
    /// Words per row (`⌈m/64⌉`); 0 only for a set that never held a row.
    stride: usize,
    /// Genuine (non-padding) samples.
    genuine: usize,
    /// Repetitions of the pad row.
    pad_count: usize,
}

impl SampleSet {
    /// The empty set (used for states with `L(qℓ) = ∅`).
    pub fn empty() -> Self {
        SampleSet::default()
    }

    /// An empty set over a `universe`-state automaton with room for
    /// exactly `rows` rows — the sample pass asks for `ns`.
    pub fn with_capacity(universe: usize, rows: usize) -> Self {
        let stride = universe.div_ceil(64);
        SampleSet { rows: Vec::with_capacity(rows * stride), stride, ..SampleSet::default() }
    }

    /// A set consisting of one reach set repeated `count` times — the
    /// shape of the base case `S(I⁰) = (λ, λ, …)` and of pure-padding sets.
    pub fn repeated(reach: &StateSet, count: usize) -> Self {
        let mut set = SampleSet::with_capacity(reach.universe(), 1);
        set.pad(reach, count);
        set
    }

    /// Appends one genuine sample's reach set.
    pub fn push(&mut self, reach: &StateSet) {
        assert_eq!(self.pad_count, 0, "cannot append after padding");
        self.push_row(reach);
        self.genuine += 1;
    }

    /// Pads with `extra` repetitions of `reach` (Algorithm 3 lines 27–30).
    pub fn pad(&mut self, reach: &StateSet, extra: usize) {
        assert_eq!(self.pad_count, 0, "pad may be applied once");
        if extra > 0 {
            self.push_row(reach);
            self.pad_count = extra;
        }
    }

    fn push_row(&mut self, reach: &StateSet) {
        if self.rows.is_empty() && self.stride == 0 {
            self.stride = reach.universe().div_ceil(64);
        }
        assert_eq!(reach.words().len(), self.stride, "reach set of another universe");
        self.rows.extend_from_slice(reach.words());
    }

    /// Number of genuine (non-padding) samples.
    pub fn genuine_len(&self) -> usize {
        self.genuine
    }

    /// Total logical length including padding — the paper's `|S(qℓ)|`.
    pub fn len(&self) -> usize {
        self.genuine + self.pad_count
    }

    /// True iff no samples at all are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Words per row: `⌈m/64⌉`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Rows the set holds room for without reallocating.
    pub fn row_capacity(&self) -> usize {
        self.rows.capacity().checked_div(self.stride).unwrap_or(0)
    }

    /// Rows actually stored: the genuine rows plus the one pad row.
    pub fn stored_rows(&self) -> usize {
        self.rows.len().checked_div(self.stride).unwrap_or(0)
    }

    /// The reach row of logical position `idx`: genuine rows first, then
    /// the pad row for every padding position.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`, in every build.
    #[inline]
    pub fn row(&self, idx: usize) -> &[u64] {
        assert!(idx < self.len(), "sample index {idx} out of bounds {}", self.len());
        let r = idx.min(self.genuine);
        &self.rows[r * self.stride..(r + 1) * self.stride]
    }

    /// How many of the `taken` positions `cursor, cursor + 1, …` — taken
    /// cyclically, so `taken` may exceed `len()` — hold a row disjoint
    /// from `mask`: Algorithm 1 line 9's tally for one set. Each list
    /// position is tested at most once — the window past the last full
    /// cycle, then the rest of the cycle only if a full cycle was
    /// taken — over at most four contiguous row ranges; the pad run
    /// costs one test.
    ///
    /// # Panics
    /// Panics if `taken > 0` and `cursor >= len()` or `mask` is not one
    /// row wide.
    pub fn count_disjoint(&self, cursor: usize, taken: usize, mask: &[u64]) -> u64 {
        if taken == 0 {
            return 0;
        }
        let len = self.len();
        assert!(cursor < len, "cursor {cursor} out of bounds {len}");
        assert_eq!(mask.len(), self.stride, "mask of another universe");
        let (cycles, partial) = (taken / len, taken % len);
        let window = self.disjoint_cyclic(cursor, partial, mask);
        let rest = if cycles > 0 {
            self.disjoint_cyclic((cursor + partial) % len, len - partial, mask)
        } else {
            0
        };
        cycles as u64 * (window + rest) + window
    }

    /// Disjoint rows among the `count ≤ len()` positions from `start`,
    /// wrapping once past the end.
    fn disjoint_cyclic(&self, start: usize, count: usize, mask: &[u64]) -> u64 {
        let end = start + count;
        let len = self.len();
        if end <= len {
            self.disjoint_in(start, end, mask)
        } else {
            self.disjoint_in(start, len, mask) + self.disjoint_in(0, end - len, mask)
        }
    }

    /// Disjoint rows among the positions `[from, to)`: a contiguous scan
    /// of the genuine rows, and the pad run counted by multiplication.
    fn disjoint_in(&self, from: usize, to: usize, mask: &[u64]) -> u64 {
        let split = to.min(self.genuine);
        let mut count = 0u64;
        if from < split {
            let rows = &self.rows[from * self.stride..split * self.stride];
            count += if let [word] = *mask {
                rows.iter().filter(|&&r| r & word == 0).count() as u64
            } else {
                rows.chunks_exact(self.stride)
                    .filter(|row| row.iter().zip(mask).all(|(r, m)| r & m == 0))
                    .count() as u64
            };
        }
        let pads = to.saturating_sub(from.max(self.genuine));
        if pads > 0 {
            let pad = &self.rows[self.genuine * self.stride..(self.genuine + 1) * self.stride];
            count += pads as u64 * u64::from(pad.iter().zip(mask).all(|(r, m)| r & m == 0));
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reach(bit: usize) -> StateSet {
        StateSet::singleton(4, bit)
    }

    #[test]
    fn empty_set() {
        let s = SampleSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.genuine_len(), 0);
        assert_eq!(s.count_disjoint(0, 0, &[]), 0);
    }

    #[test]
    fn push_then_get() {
        let mut s = SampleSet::empty();
        s.push(&reach(0));
        s.push(&reach(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[0b01]);
        assert_eq!(s.row(1), &[0b10]);
    }

    #[test]
    fn padding_is_logical() {
        let mut s = SampleSet::empty();
        s.push(&reach(0));
        s.pad(&reach(1), 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.genuine_len(), 1);
        for i in 1..4 {
            assert_eq!(s.row(i), &[0b10]);
        }
        assert_eq!(s.stored_rows(), 2, "the pad row is stored once");
    }

    #[test]
    fn repeated_base_case() {
        let s = SampleSet::repeated(&StateSet::singleton(4, 0), 100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.genuine_len(), 0);
        assert_eq!(s.row(99), &[0b1]);
        assert_eq!(s.stored_rows(), 1);
    }

    /// The pad row answers positions `genuine..len()` only: an index
    /// past the end panics in release builds too, padded or not.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let empty = std::panic::catch_unwind(|| SampleSet::empty().row(0).to_vec());
        assert!(empty.is_err(), "index 0 of an empty set must panic");
        let mut s = SampleSet::empty();
        s.push(&reach(0));
        s.pad(&reach(1), 2);
        assert_eq!(s.row(2), &[0b10]);
        let _ = s.row(3);
    }

    /// What one sample costs: `stride` words per genuine row, one pad row
    /// for all padding, and a 48-byte header per set.
    #[test]
    fn rows_are_stride_words_per_sample_plus_one_pad_row() {
        assert_eq!(std::mem::size_of::<SampleSet>(), 48);
        for (m, stride) in [(48, 1), (100, 2)] {
            let mut s = SampleSet::with_capacity(m, 10);
            assert_eq!((s.stride(), s.row_capacity()), (stride, 10));
            for q in 0..7 {
                s.push(&StateSet::singleton(m, q * 13 % m));
            }
            s.pad(&StateSet::full(m), 3);
            assert_eq!((s.len(), s.genuine_len(), s.stored_rows()), (10, 7, 8));
            assert_eq!(s.row_capacity(), 10, "no reallocation within ns rows");
        }
    }

    /// The tally over a window with a wrap, a full-cycle count and the pad run.
    #[test]
    fn count_disjoint_wraps_and_multiplies_the_pad_run() {
        let mut s = SampleSet::empty();
        for bit in [0, 1, 2, 1] {
            s.push(&reach(bit));
        }
        s.pad(&reach(3), 2);
        let mask = [0b0001];
        // Positions 4, 5 (pad), 0 (hit), 1: three disjoint.
        assert_eq!(s.count_disjoint(4, 4, &mask), 3);
        // Two cycles of 5 disjoint, then positions 2, 3.
        assert_eq!(s.count_disjoint(2, 14, &mask), 12);
        assert_eq!(s.count_disjoint(5, 0, &mask), 0);
    }
}
