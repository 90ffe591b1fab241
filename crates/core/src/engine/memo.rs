//! The leveled copy-on-write union memo (DESIGN.md §2.2, D9).
//!
//! The sampler's union memo maps `(level, frontier)` [`MemoKey`]s to
//! estimated union sizes. Until PR 3 it was a flat `HashMap` and the
//! `Deterministic` policy's sample pass *cloned the whole map once per
//! cell* to give every cell an isolated level-start view — an
//! O(cells × memo) allocation wall on large `m`. This module replaces
//! the flat map with a two-layer structure:
//!
//! * an **immutable base layer** behind an [`Arc`] — the level-start
//!   snapshot every same-level cell may read but nobody mutates;
//! * a thin **overlay** of entries inserted since the last
//!   [`UnionMemo::commit`] — the only part that is ever copied or
//!   merged.
//!
//! Taking a per-cell view is now [`UnionMemo::snapshot`]: an `Arc`
//! clone plus an empty overlay, O(1) instead of O(memo). Extracting a
//! cell's insertions for the canonical merge is
//! [`UnionMemo::into_overlay`], O(overlay). The engine calls
//! [`UnionMemo::commit`] once per level (after seeding the count-pass
//! estimates and the shared sampler pre-estimates) to fold the overlay
//! into the base, so the base is the single level-start layer the whole
//! sample pass shares. See DESIGN.md §2.2 for the full lifecycle
//! diagram.
//!
//! Every entry carries a [`MemoTier`] recording which phase produced
//! it; the merge discipline is strictly **first-wins** (the engine
//! inserts count-phase seeds before shared pre-estimates before
//! sampler insertions, so the tier order doubles as the precision
//! order, DESIGN.md D4).
//!
//! # Lineage
//!
//! A committed base entry never changes, so the sampler may compile a
//! walk node's base-layer branch values once and replay them
//! (`sampler.rs`, DESIGN.md D17). That is sound only against memos
//! whose base layers agree. Each memo therefore carries a process-unique
//! **lineage** id. [`UnionMemo::new`] and `clone` mint a fresh one;
//! [`UnionMemo::snapshot`] keeps it, since a snapshot's base *is* its
//! parent's. A commit into a base that a live snapshot still shares
//! mints a fresh id, since the two bases diverge from there. So all
//! live memos of one lineage share one base, and that base only grows:
//! an entry a record read from it is there, unchanged, for every later
//! call under the same id.

use crate::table::{BuildKeyHasher, MemoKey};
use fpras_numeric::ExtFloat;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// Seeded by the engine's sample-pass frontier-sharing pre-pass
    /// (`share_sampler_frontiers`, DESIGN.md D9) at sampler precision.
    Shared,
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

/// Memoized union sizes for the sampler, as a leveled copy-on-write
/// structure: an immutable shared base layer plus a thin overlay.
///
/// All mutation is **first-wins**: [`UnionMemo::insert_first_wins`]
/// refuses to overwrite an existing key in either layer, which is the
/// whole memo discipline (count seeds outrank shared pre-estimates
/// outrank sampler insertions purely by insertion order).
#[derive(Debug)]
pub struct UnionMemo {
    /// The committed, immutable level-start layer (shared by snapshots).
    base: Arc<HashMap<MemoKey, MemoEntry, BuildKeyHasher>>,
    /// Entries inserted since the last [`UnionMemo::commit`].
    overlay: HashMap<MemoKey, MemoEntry, BuildKeyHasher>,
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
    /// commit different values from here on.
    fn clone(&self) -> Self {
        UnionMemo {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            lineage: mint_lineage(),
        }
    }
}

impl UnionMemo {
    /// An empty memo in a fresh lineage.
    pub fn new() -> Self {
        UnionMemo { base: Arc::default(), overlay: HashMap::default(), lineage: mint_lineage() }
    }

    /// The memo's lineage id — see the module docs. Two calls that see
    /// the same id see one base layer, possibly grown in between.
    pub(crate) fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Looks up `key` in either layer.
    pub fn get(&self, key: &MemoKey) -> Option<MemoEntry> {
        self.get_node(key.node()).map(|(entry, _)| entry)
    }

    /// [`UnionMemo::get`] by a key's packed `(level, frontier)` node
    /// ([`MemoKey::node_of`]) — a probe that needs no RNG tag, so the
    /// sampler's compiled walk can look entries up from bare frontier
    /// ids — also telling whether the entry sits in the committed base
    /// layer (`true`) or the overlay. Only base entries may be compiled
    /// into a sampler walk record. The layers are disjoint, so probing
    /// the base first (where a sample pass finds nearly every entry)
    /// answers exactly what the overlay-first order would, in one probe
    /// instead of two.
    #[inline]
    pub(crate) fn get_node(&self, node: u64) -> Option<(MemoEntry, bool)> {
        match self.base.get(&node) {
            Some(entry) => Some((*entry, true)),
            None => self.overlay.get(&node).map(|entry| (*entry, false)),
        }
    }

    /// True iff either layer holds `key`.
    pub fn contains_key(&self, key: &MemoKey) -> bool {
        self.overlay.contains_key(key) || self.base.contains_key(key)
    }

    /// Inserts `(key → value)` unless the key already exists in either
    /// layer (first-wins). Returns whether the entry was inserted.
    pub fn insert_first_wins(&mut self, key: MemoKey, value: ExtFloat, tier: MemoTier) -> bool {
        self.insert_entry_first_wins(key, MemoEntry { value, tier })
    }

    /// First-wins insertion of a pre-built entry (used by the canonical
    /// overlay merge, which must preserve the producing tier).
    pub fn insert_entry_first_wins(&mut self, key: MemoKey, entry: MemoEntry) -> bool {
        if self.base.contains_key(&key) {
            return false;
        }
        match self.overlay.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(entry);
                true
            }
        }
    }

    /// Folds the overlay into the base layer, making the base the new
    /// level-start snapshot. O(overlay) when the base `Arc` is uniquely
    /// held (the engine calls this between passes, when no snapshot is
    /// alive); a surviving snapshot forces one full copy-on-write clone
    /// instead of corrupting it. Returns the number of entries promoted.
    pub fn commit(&mut self) -> usize {
        if self.overlay.is_empty() {
            return 0;
        }
        let promoted = self.overlay.len();
        if Arc::strong_count(&self.base) > 1 {
            // A live snapshot keeps the old base; the two diverge now.
            self.lineage = mint_lineage();
        }
        let base = Arc::make_mut(&mut self.base);
        for (key, entry) in self.overlay.drain() {
            // Disjoint by construction (first-wins insertion checks the
            // base); `or_insert` keeps commit first-wins regardless.
            base.entry(key).or_insert(entry);
        }
        promoted
    }

    /// An O(1) level-start view: shares the base layer, starts an empty
    /// overlay. The caller should [`UnionMemo::commit`] first so the
    /// view includes every seeded entry (debug-asserted).
    pub fn snapshot(&self) -> UnionMemo {
        debug_assert!(
            self.overlay.is_empty(),
            "snapshot of an uncommitted memo would miss {} overlay entries",
            self.overlay.len()
        );
        UnionMemo {
            base: Arc::clone(&self.base),
            overlay: HashMap::default(),
            lineage: self.lineage,
        }
    }

    /// Consumes the memo and returns its overlay — exactly the entries
    /// inserted since the snapshot it was built from. O(overlay); the
    /// shared base is untouched.
    pub fn into_overlay(self) -> Vec<(MemoKey, MemoEntry)> {
        self.overlay.into_iter().collect()
    }

    /// Entries in the committed base layer.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Entries in the uncommitted overlay.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Total distinct keys across both layers.
    pub fn len(&self) -> usize {
        // Layers are disjoint by construction (first-wins insertion).
        self.base.len() + self.overlay.len()
    }

    /// True iff the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::FrontierInterner;
    use fpras_automata::StateSet;
    use std::sync::OnceLock;

    /// Tests share one interner so equal member lists map to equal keys
    /// across separate `key()` calls, as they would within one run.
    fn key(level: usize, members: &[usize]) -> MemoKey {
        static INTERNER: OnceLock<FrontierInterner> = OnceLock::new();
        INTERNER
            .get_or_init(|| FrontierInterner::new(16))
            .intern(level, &StateSet::from_iter(16, members.iter().copied()))
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
        // Same key in the overlay: refused.
        assert!(!memo.insert_first_wins(key(1, &[3]), ExtFloat::from_u64(9), MemoTier::Sampler));
        memo.commit();
        // Same key now in the base: still refused.
        assert!(!memo.insert_first_wins(key(1, &[3]), ExtFloat::from_u64(9), MemoTier::Sampler));
        assert_eq!(memo.get(&key(1, &[3])).unwrap().value.to_f64(), 7.0);
        assert_eq!(memo.get(&key(1, &[3])).unwrap().tier, MemoTier::Count);
    }

    #[test]
    fn commit_moves_overlay_to_base() {
        let mut memo = UnionMemo::new();
        memo.insert_first_wins(key(1, &[1]), ExtFloat::ONE, MemoTier::Count);
        memo.insert_first_wins(key(2, &[2]), ExtFloat::ONE, MemoTier::Shared);
        assert_eq!((memo.base_len(), memo.overlay_len()), (0, 2));
        assert_eq!(memo.commit(), 2);
        assert_eq!((memo.base_len(), memo.overlay_len()), (2, 0));
        assert_eq!(memo.commit(), 0);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn snapshot_is_isolated_and_cheap() {
        let mut memo = UnionMemo::new();
        memo.insert_first_wins(key(1, &[1]), ExtFloat::from_u64(5), MemoTier::Count);
        memo.commit();
        let mut snap = memo.snapshot();
        // The snapshot sees the base…
        assert_eq!(snap.get(&key(1, &[1])).unwrap().value.to_f64(), 5.0);
        // …and its own insertions stay in its overlay, invisible to the
        // shared memo.
        assert!(snap.insert_first_wins(key(0, &[2]), ExtFloat::from_u64(6), MemoTier::Sampler));
        assert!(!memo.contains_key(&key(0, &[2])));
        let news = snap.into_overlay();
        assert_eq!(news.len(), 1);
        assert_eq!(news[0].0, key(0, &[2]));
        // Committing with a live snapshot would CoW-clone; here the
        // snapshot is gone, so commit stays O(overlay).
        memo.insert_first_wins(key(0, &[3]), ExtFloat::ONE, MemoTier::Sampler);
        assert_eq!(memo.commit(), 1);
        assert_eq!(memo.base_len(), 2);
    }

    #[test]
    fn lineage_follows_the_base_layer() {
        let mut memo = UnionMemo::new();
        assert_ne!(memo.lineage(), UnionMemo::new().lineage());
        assert_ne!(memo.lineage(), memo.clone().lineage(), "a clone may commit other values");
        memo.insert_first_wins(key(1, &[6]), ExtFloat::ONE, MemoTier::Count);
        let id = memo.lineage();
        memo.commit();
        assert_eq!(memo.lineage(), id, "an unshared commit only grows the base");
        let snap = memo.snapshot();
        assert_eq!(snap.lineage(), id, "a snapshot shares the base");
        // A commit under a live snapshot splits the two bases.
        memo.insert_first_wins(key(2, &[6]), ExtFloat::ONE, MemoTier::Sampler);
        memo.commit();
        assert_ne!(memo.lineage(), snap.lineage());
        assert!(!snap.contains_key(&key(2, &[6])));
    }

    #[test]
    fn overlay_shadows_nothing_but_reads_fall_through() {
        let mut memo = UnionMemo::new();
        memo.insert_first_wins(key(3, &[4, 5]), ExtFloat::from_u64(11), MemoTier::Count);
        memo.commit();
        memo.insert_first_wins(key(4, &[4, 5]), ExtFloat::from_u64(13), MemoTier::Sampler);
        assert_eq!(memo.get(&key(3, &[4, 5])).unwrap().value.to_f64(), 11.0);
        assert_eq!(memo.get(&key(4, &[4, 5])).unwrap().value.to_f64(), 13.0);
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&key(5, &[4, 5])).is_none());
    }
}
