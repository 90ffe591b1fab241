//! The dynamic-programming table of Algorithm 3.
//!
//! One [`Cell`] per `(state q, level ℓ)` pair holds the count estimate
//! `N(qℓ)` and the sample multiset `S(qℓ)`. The sampler's union memo
//! (DESIGN.md D4) lives alongside — keyed by the [`MemoKey`] defined
//! here, stored in the leveled copy-on-write
//! [`UnionMemo`](crate::engine::memo::UnionMemo), seeded by the count
//! phase and the sharing pre-pass, and extended lazily during sampling
//! (DESIGN.md §2.2).

use crate::intern::FrontierId;
use crate::sample_set::SampleSet;
use fpras_automata::Word;
use fpras_numeric::ExtFloat;

/// State of one `(q, ℓ)` cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The estimate `N(qℓ) ≈ |L(qℓ)|` (zero for unreachable/dead cells).
    pub n_est: ExtFloat,
    /// The sample multiset `S(qℓ)`.
    pub samples: SampleSet,
}

/// The `(n+1) × m` table of cells.
#[derive(Debug)]
pub struct RunTable {
    m: usize,
    cells: Vec<Cell>,
}

impl RunTable {
    /// Creates an all-zero table for `m` states and levels `0..=n`.
    pub fn new(m: usize, n: usize) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(m * (n + 1), || Cell {
            n_est: ExtFloat::ZERO,
            samples: SampleSet::empty(),
        });
        RunTable { m, cells }
    }

    /// Read access to `(q, ℓ)`.
    #[inline]
    pub fn cell(&self, level: usize, q: usize) -> &Cell {
        &self.cells[level * self.m + q]
    }

    /// Write access to `(q, ℓ)`.
    #[inline]
    pub fn cell_mut(&mut self, level: usize, q: usize) -> &mut Cell {
        &mut self.cells[level * self.m + q]
    }

    /// Number of states per level.
    pub fn num_states(&self) -> usize {
        self.m
    }

    /// Highest level the table has room for (the `n` of `0..=n`).
    pub fn max_level(&self) -> usize {
        self.cells.len() / self.m - 1
    }

    /// Extends the table with zeroed cells up to level `n` (no-op when
    /// it already reaches that far). Existing cells are untouched, so a
    /// checkpointed run can grow its horizon in place
    /// ([`QuerySession`](crate::service::QuerySession), DESIGN.md D11).
    pub fn grow(&mut self, n: usize) {
        if n > self.max_level() {
            self.cells.resize_with(self.m * (n + 1), || Cell {
                n_est: ExtFloat::ZERO,
                samples: SampleSet::empty(),
            });
        }
    }
}

/// Memo key: the level of the predecessor sets plus the interned
/// frontier id, with the frontier's canonical RNG tag cached inside.
///
/// This is also the canonical *sharing* key of the batched
/// union-estimation layer (DESIGN.md D8): every `(cell, symbol)` pair
/// whose predecessor frontier produces the same `MemoKey` shares one
/// `AppUnion` execution, one memo entry, and — via [`MemoKey::rng_tag`]
/// — one RNG stream, which is what makes batched and unbatched count
/// passes bit-identical.
///
/// Keys are built only by the interner —
/// [`FrontierInterner::intern`](crate::intern::FrontierInterner::intern),
/// which hash-conses the frontier's bitset words into a dense
/// [`FrontierId`] (equal content ⇔ equal id, per interner) and computes
/// the tag once at intern time, or `FrontierInterner::load` for an id
/// it already minted. The key itself is a `Copy` pair of integers, the
/// packed `(level, id)` node and the tag: map probes hash one integer
/// instead of re-walking a boxed word slice, and constructing a key
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct MemoKey {
    /// `(level << 32) | frontier id` — the key's whole identity (see
    /// [`MemoKey::node`]).
    node: u64,
    /// Cached canonical tag of `(level, frontier content)` — derived
    /// data, excluded from equality and hashing.
    tag: u64,
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
    }
}

impl Eq for MemoKey {}

impl std::hash::Hash for MemoKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Exactly `u64::hash` of the node, which is what lets maps keyed
        // by `MemoKey` be probed by the bare node (`Borrow<u64>`).
        state.write_u64(self.node);
    }
}

impl std::borrow::Borrow<u64> for MemoKey {
    fn borrow(&self) -> &u64 {
        &self.node
    }
}

/// SplitMix64 finalizer: the one mixer behind every derived RNG stream
/// (the executor's per-cell and per-group seeds, the sampler's
/// frontier-keyed union streams, DESIGN.md D9) and the interner's tag
/// fold. It lives in the key layer so that layer needs nothing from
/// the executor.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl MemoKey {
    /// Assembles a key from interner-produced parts. Only the interner
    /// calls this; going through it is what guarantees the id/content
    /// bijection the `Eq`/`Hash` impls rely on.
    pub(crate) fn from_parts(level: u32, frontier: FrontierId, tag: u64) -> Self {
        MemoKey { node: MemoKey::node_of(level, frontier), tag }
    }

    /// The packed `(level, frontier)` identity of a key, without its
    /// tag: what a memo probe hashes and compares. Levels stay below
    /// `2³¹`, so bit 63 is free for callers that key other nodes in the
    /// same space (the sampler's compiled walk).
    pub(crate) fn node_of(level: u32, frontier: FrontierId) -> u64 {
        (u64::from(level) << 32) | u64::from(frontier.0)
    }

    /// This key's packed `(level, frontier)` identity
    /// ([`MemoKey::node_of`]).
    pub(crate) fn node(&self) -> u64 {
        self.node
    }

    /// Level `ℓ` of the sets `L(pℓ)` being unioned.
    pub fn level(&self) -> u32 {
        (self.node >> 32) as u32
    }

    /// The interned id of the frontier's content.
    pub fn frontier(&self) -> FrontierId {
        FrontierId(self.node as u32)
    }

    /// The 64-bit canonical tag of `(level, frontier)`, used to derive
    /// the union-estimation RNG stream for this frontier. A congruence
    /// by construction: equal frontiers (however assembled) have equal
    /// raw bitset words, hence equal tags — see
    /// [`frontier_tag`](crate::intern) for the fold, which skips
    /// trailing zero words so the tag is independent of the bitset's
    /// allocated width. Computed once at intern time and cached here.
    pub fn rng_tag(&self) -> u64 {
        self.tag
    }
}

/// A `std::hash::Hasher` specialized for the integer keys of the hot
/// maps (memo layers, level-plan index, share-pass dedup): one
/// SplitMix64 round per written word, no byte-buffer state. `MemoKey`
/// hashes itself as a single `u64`, so a probe is one mix instead of
/// SipHash over a boxed slice.
#[derive(Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys (unused on the hot path).
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

/// `BuildHasher` plugging [`KeyHasher`] into `HashMap`/`HashSet`.
pub(crate) type BuildKeyHasher = std::hash::BuildHasherDefault<KeyHasher>;

/// Outcome of one `sample()` invocation (Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub enum SampleOutcome {
    /// A word was produced.
    Word(Word),
    /// `φ > 1` at the base — Theorem 2's `Fail₁`.
    FailPhi,
    /// The final acceptance coin came up tails — `Fail₂`.
    FailCoin,
    /// Every branch estimate was zero; no word can be emitted from here.
    DeadEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_automata::StateSet;

    #[test]
    fn fresh_table_is_zero() {
        let t = RunTable::new(3, 2);
        for level in 0..=2 {
            for q in 0..3 {
                assert!(t.cell(level, q).n_est.is_zero());
                assert!(t.cell(level, q).samples.is_empty());
            }
        }
        assert_eq!(t.num_states(), 3);
    }

    #[test]
    fn cell_addressing_is_disjoint() {
        let mut t = RunTable::new(2, 2);
        t.cell_mut(1, 0).n_est = ExtFloat::from_u64(7);
        t.cell_mut(0, 1).n_est = ExtFloat::from_u64(9);
        assert_eq!(t.cell(1, 0).n_est.to_f64(), 7.0);
        assert_eq!(t.cell(0, 1).n_est.to_f64(), 9.0);
        assert!(t.cell(1, 1).n_est.is_zero());
    }

    #[test]
    fn grow_extends_with_zeroes_and_keeps_cells() {
        let mut t = RunTable::new(2, 1);
        assert_eq!(t.max_level(), 1);
        t.cell_mut(1, 1).n_est = ExtFloat::from_u64(5);
        t.grow(3);
        assert_eq!(t.max_level(), 3);
        assert_eq!(t.cell(1, 1).n_est.to_f64(), 5.0);
        for level in 2..=3 {
            for q in 0..2 {
                assert!(t.cell(level, q).n_est.is_zero());
                assert!(t.cell(level, q).samples.is_empty());
            }
        }
        // Shrinking is a no-op.
        t.grow(0);
        assert_eq!(t.max_level(), 3);
    }

    #[test]
    fn memo_key_equality() {
        let interner = crate::intern::FrontierInterner::new(100);
        let a = StateSet::from_iter(100, [3, 64]);
        let b = StateSet::from_iter(100, [3, 64]);
        let c = StateSet::from_iter(100, [3]);
        assert_eq!(interner.intern(2, &a), interner.intern(2, &b));
        assert_ne!(interner.intern(2, &a), interner.intern(3, &b));
        assert_ne!(interner.intern(2, &a), interner.intern(2, &c));
    }

    #[test]
    fn rng_tag_is_a_congruence() {
        // Equal frontiers → equal tags, independent of universe width
        // (separate interners, since each is fixed-universe).
        let narrow = crate::intern::FrontierInterner::new(100);
        let wide = crate::intern::FrontierInterner::new(200);
        let a = StateSet::from_iter(100, [3, 64]);
        let b = StateSet::from_iter(200, [3, 64]);
        assert_eq!(narrow.intern(2, &a).rng_tag(), wide.intern(2, &b).rng_tag());
        // Different level or frontier → (almost surely) different tags.
        assert_ne!(narrow.intern(2, &a).rng_tag(), narrow.intern(3, &a).rng_tag());
        let c = StateSet::from_iter(100, [3]);
        assert_ne!(narrow.intern(2, &a).rng_tag(), narrow.intern(2, &c).rng_tag());
    }

    #[test]
    fn key_hasher_mixes_integers() {
        use std::hash::{BuildHasher, Hash};
        let build = BuildKeyHasher::default();
        let interner = crate::intern::FrontierInterner::new(64);
        let a = interner.intern(1, &StateSet::from_iter(64, [5]));
        let b = interner.intern(2, &StateSet::from_iter(64, [5]));
        let hash = |k: &MemoKey| {
            let mut h = build.build_hasher();
            k.hash(&mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(hash(&a), hash(&a));
        assert_ne!(hash(&a), hash(&b));
    }
}
