//! The union memo (DESIGN.md §2.2, D9).
//!
//! The sampler's union memo maps `(level, frontier)` [`MemoKey`]s to
//! estimated union sizes, in two layers:
//!
//! * the **base** — every entry of the levels finished so far plus the
//!   count seeds of the level being built, read without a lock and
//!   written only between passes (`&mut self`);
//! * the **level overlay** — one map, behind one [`Mutex`], that every
//!   worker of a sample pass shares. It is probed only on a base miss,
//!   takes the pass's sampler misses first-wins
//!   (`UnionMemo::insert_level`), and [`UnionMemo::commit`] drains it
//!   into the base in canonical content order when the pass ends.
//!
//! Every entry carries a [`MemoTier`] recording which phase produced
//! it; insertion is strictly **first-wins** (the engine inserts
//! count-phase seeds before any sampler entry of their level, so the
//! tier order doubles as the precision order, DESIGN.md D4). A
//! sampler-tier value is fixed by `(sampler_seed, level, frontier)`
//! (D9), so which worker's insert wins cannot change it.
//!
//! # Lineage
//!
//! An entry, once in either layer, stays in the memo with its value, so
//! the sampler may compile a walk node's branch values once and replay
//! them (`sampler.rs`, DESIGN.md D17). That is sound only against the
//! memo the values were read from. Each memo therefore carries a
//! process-unique **lineage** id, minted by [`UnionMemo::new`] and by
//! `clone` (a copy may gain other entries from there) and by nothing
//! else: the memo of one lineage only grows.

use crate::intern::FrontierInterner;
use crate::table::{BuildKeyHasher, MemoKey};
use fpras_numeric::ExtFloat;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Source of [`UnionMemo`] lineage ids; 0 is never handed out.
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

fn mint_lineage() -> u64 {
    NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed)
}

/// Which phase produced a memo entry (first-wins precedence order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoTier {
    /// Seeded from a count-pass frontier group — the high-precision
    /// tier (`β_count`, DESIGN.md D4).
    Count,
    /// Inserted lazily by the sampler on a memo miss.
    Sampler,
}

/// One memoized union estimate plus its provenance tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoEntry {
    /// The estimated size of `⋃_{p ∈ frontier} L(p^level)`.
    pub value: ExtFloat,
    /// Which phase produced the estimate.
    pub tier: MemoTier,
}

type Layer<V> = HashMap<MemoKey, V, BuildKeyHasher>;

/// Memoized union sizes for the sampler: a base layer plus the level
/// overlay a sample pass's workers share (see the module docs).
///
/// All mutation is **first-wins**: no insert overwrites a key present
/// in either layer, which is the whole memo discipline (count seeds
/// outrank sampler insertions purely by insertion order).
#[derive(Debug)]
pub struct UnionMemo {
    /// Entries of the finished passes.
    base: Layer<MemoEntry>,
    /// Sampler-tier entries of the running sample pass.
    overlay: Mutex<Layer<ExtFloat>>,
    /// Lineage id (see the module docs).
    lineage: u64,
}

impl Default for UnionMemo {
    fn default() -> Self {
        UnionMemo::new()
    }
}

impl Clone for UnionMemo {
    /// A deep copy in a fresh lineage: the copy and the original may
    /// gain different entries from here on.
    fn clone(&self) -> Self {
        UnionMemo {
            base: self.base.clone(),
            overlay: Mutex::new(self.overlay().clone()),
            lineage: mint_lineage(),
        }
    }
}

impl UnionMemo {
    /// An empty memo in a fresh lineage.
    pub fn new() -> Self {
        UnionMemo { base: HashMap::default(), overlay: Mutex::default(), lineage: mint_lineage() }
    }

    fn overlay(&self) -> MutexGuard<'_, Layer<ExtFloat>> {
        self.overlay.lock().expect("memo overlay lock poisoned")
    }

    /// The memo's lineage id — see the module docs. Two calls that see
    /// the same id see one memo, possibly grown in between.
    pub(crate) fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Looks up `key` in either layer.
    pub fn get(&self, key: &MemoKey) -> Option<MemoEntry> {
        self.base.get(key).copied().or_else(|| {
            self.overlay().get(key).map(|&value| MemoEntry { value, tier: MemoTier::Sampler })
        })
    }

    /// The value under a key's packed `(level, frontier)` node
    /// ([`MemoKey::node_of`]) — a probe that needs no RNG tag, so the
    /// sampler's compiled walk can look entries up from bare frontier
    /// ids. The base answers nearly every probe without a lock; only a
    /// base miss takes the overlay's.
    #[inline]
    pub(crate) fn get_node(&self, node: u64) -> Option<ExtFloat> {
        match self.base.get(&node) {
            Some(entry) => Some(entry.value),
            None => self.overlay().get(&node).copied(),
        }
    }

    /// True iff either layer holds `key`.
    pub fn contains_key(&self, key: &MemoKey) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `(key → value)` into the base unless the key already
    /// exists in either layer (first-wins). Returns whether the entry
    /// was inserted.
    pub fn insert_first_wins(&mut self, key: MemoKey, value: ExtFloat, tier: MemoTier) -> bool {
        if self.overlay.get_mut().expect("memo overlay lock poisoned").contains_key(&key) {
            return false;
        }
        match self.base.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(MemoEntry { value, tier });
                true
            }
        }
    }

    /// A sampler miss's first-wins insert into the level overlay, from
    /// any worker. Returns whether this insert won; a loser's value was
    /// computed for nothing (it equals the winner's, D9). The caller
    /// has seen `key` miss the base, which no worker writes during a
    /// pass.
    pub(crate) fn insert_level(&self, key: MemoKey, value: ExtFloat) -> bool {
        debug_assert!(!self.base.contains_key(&key), "a base entry never misses");
        match self.overlay().entry(key) {
            std::collections::hash_map::Entry::Occupied(won) => {
                debug_assert_eq!(*won.get(), value, "sampler values are frontier-keyed");
                false
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(value);
                true
            }
        }
    }

    /// Drains the level overlay into the base, in canonical content
    /// order — by level, then by frontier content
    /// ([`FrontierInterner::compare`]), never by the schedule-dependent
    /// id — and returns the number of entries moved. The engine calls
    /// this once per sample pass, after the pass.
    pub fn commit(&mut self, interner: &FrontierInterner) -> usize {
        let overlay = self.overlay.get_mut().expect("memo overlay lock poisoned");
        let mut drained: Vec<(MemoKey, ExtFloat)> = overlay.drain().collect();
        interner.sort_canonical(&mut drained);
        let moved = drained.len();
        for (key, value) in drained {
            // Disjoint by construction (`insert_level` callers missed the
            // base); `or_insert` keeps the drain first-wins regardless.
            self.base.entry(key).or_insert(MemoEntry { value, tier: MemoTier::Sampler });
        }
        moved
    }

    /// Entries in the base layer.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Entries in the level overlay.
    pub fn overlay_len(&self) -> usize {
        self.overlay().len()
    }

    /// Total distinct keys across both layers.
    pub fn len(&self) -> usize {
        // Layers are disjoint by construction (first-wins insertion).
        self.base.len() + self.overlay_len()
    }

    /// True iff the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_automata::StateSet;
    use std::sync::OnceLock;

    /// Tests share one interner so equal member lists map to equal keys
    /// across separate `key()` calls, as they would within one run.
    fn interner() -> &'static FrontierInterner {
        static INTERNER: OnceLock<FrontierInterner> = OnceLock::new();
        INTERNER.get_or_init(|| FrontierInterner::new(16))
    }

    fn key(level: usize, members: &[usize]) -> MemoKey {
        interner().intern(level, &StateSet::from_iter(16, members.iter().copied()))
    }

    #[test]
    fn memo_round_trip() {
        let mut memo = UnionMemo::new();
        assert!(memo.is_empty());
        assert!(memo.insert_first_wins(key(1, &[1, 2]), ExtFloat::from_u64(42), MemoTier::Count));
        let e = memo.get(&key(1, &[1, 2])).unwrap();
        assert_eq!(e.value.to_f64(), 42.0);
        assert_eq!(e.tier, MemoTier::Count);
        assert!(!memo.is_empty());
    }

    #[test]
    fn first_wins_across_layers() {
        let mut memo = UnionMemo::new();
        assert!(memo.insert_first_wins(key(1, &[3]), ExtFloat::from_u64(7), MemoTier::Count));
        // Same key in the base: refused.
        assert!(!memo.insert_first_wins(key(1, &[3]), ExtFloat::from_u64(9), MemoTier::Sampler));
        assert_eq!(memo.get(&key(1, &[3])).unwrap().value.to_f64(), 7.0);
        assert_eq!(memo.get(&key(1, &[3])).unwrap().tier, MemoTier::Count);
        // A key in the level overlay: a seed is refused too, before and
        // after the commit.
        assert!(memo.insert_level(key(2, &[3]), ExtFloat::from_u64(5)));
        assert!(!memo.insert_first_wins(key(2, &[3]), ExtFloat::from_u64(9), MemoTier::Count));
        memo.commit(interner());
        assert!(!memo.insert_first_wins(key(2, &[3]), ExtFloat::from_u64(9), MemoTier::Count));
        assert_eq!(memo.get(&key(2, &[3])).unwrap().tier, MemoTier::Sampler);
    }

    #[test]
    fn commit_moves_overlay_to_base() {
        let mut memo = UnionMemo::new();
        memo.insert_first_wins(key(1, &[1]), ExtFloat::ONE, MemoTier::Count);
        memo.insert_level(key(2, &[2]), ExtFloat::ONE);
        memo.insert_level(key(0, &[2, 5]), ExtFloat::ONE);
        assert_eq!((memo.base_len(), memo.overlay_len()), (1, 2));
        assert_eq!(memo.commit(interner()), 2);
        assert_eq!((memo.base_len(), memo.overlay_len()), (3, 0));
        assert_eq!(memo.commit(interner()), 0);
        assert_eq!(memo.len(), 3);
    }

    /// The level overlay is one map for every worker: the first insert
    /// of a key wins, every later one — from any thread — loses, and
    /// every reader sees the winner.
    #[test]
    fn level_overlay_is_shared_first_wins() {
        let memo = UnionMemo::new();
        let k = key(3, &[7, 8]);
        let start = std::sync::Barrier::new(4);
        let wins: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        usize::from(memo.insert_level(k, ExtFloat::from_u64(4)))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(wins, 1, "exactly one insert wins");
        assert_eq!(
            memo.get_node(MemoKey::node_of(k.level(), k.frontier())).map(|v| v.to_f64()),
            Some(4.0)
        );
        let e = memo.get(&k).unwrap();
        assert_eq!((e.value.to_f64(), e.tier), (4.0, MemoTier::Sampler));
    }

    #[test]
    fn lineage_follows_the_base_layer() {
        let mut memo = UnionMemo::new();
        assert_ne!(memo.lineage(), UnionMemo::new().lineage());
        assert_ne!(memo.lineage(), memo.clone().lineage(), "a clone may gain other entries");
        let id = memo.lineage();
        // Seeds, overlay inserts and commits only grow the memo: the
        // lineage stays.
        memo.insert_first_wins(key(1, &[6]), ExtFloat::ONE, MemoTier::Count);
        memo.insert_level(key(2, &[6]), ExtFloat::ONE);
        memo.commit(interner());
        assert_eq!(memo.lineage(), id);
        let copy = memo.clone();
        assert!(copy.contains_key(&key(1, &[6])) && copy.contains_key(&key(2, &[6])));
    }

    #[test]
    fn overlay_shadows_nothing_but_reads_fall_through() {
        let mut memo = UnionMemo::new();
        memo.insert_first_wins(key(3, &[4, 5]), ExtFloat::from_u64(11), MemoTier::Count);
        memo.insert_level(key(4, &[4, 5]), ExtFloat::from_u64(13));
        assert_eq!(memo.get(&key(3, &[4, 5])).unwrap().value.to_f64(), 11.0);
        assert_eq!(memo.get(&key(4, &[4, 5])).unwrap().value.to_f64(), 13.0);
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&key(5, &[4, 5])).is_none());
    }
}
