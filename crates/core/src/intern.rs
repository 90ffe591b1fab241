//! Per-run frontier interning: hash-consed state sets behind dense ids.
//!
//! Every layer of the union-estimation hot path keys work by a frontier
//! set: the batched count pass groups `(cell, symbol)` pairs by their
//! predecessor frontier (DESIGN.md D8), the sampler memoizes union
//! estimates per `(level, frontier)` (D4), and the sharing pre-pass
//! dedups hot frontiers (D9). Before this module each of those keys
//! carried its own `Box<[u64]>` copy of the frontier's bitset words —
//! one heap allocation per key construction, and a full word-slice walk
//! on every hash-map probe.
//!
//! The [`FrontierInterner`] replaces that with hash-consing: each
//! *distinct* frontier is stored once, in a single contiguous word
//! arena (CSR-style: the words of id `i` live at
//! `arena[i·stride .. (i+1)·stride]`), and every key holds only a dense
//! [`FrontierId`]. Interning the same content again is a read-locked
//! index probe returning the existing id. The frontier's canonical RNG
//! tag ([`MemoKey::rng_tag`]) is computed *at intern time* and carried
//! inside the returned key, so the memo maps never touch frontier words
//! again — a [`MemoKey`] is a `Copy` integer pair.
//!
//! # Ids are schedule-dependent; keys are not
//!
//! Within one interner, equal content always yields the equal id (the
//! whole point), so id-keyed maps behave exactly like the old
//! content-keyed maps. The *numeric value* of an id, however, depends
//! on first-intern order, and the `Deterministic` sample pass interns
//! lazily from worker threads — so ids must never leak into anything
//! output-visible that is ordered by id value. The one consumer that
//! needs a schedule-independent order (the sample pass's canonical
//! overlay merge) orders by interned *content* via
//! [`FrontierInterner::compare`]. RNG streams are keyed by the content
//! tag, never the id, so every stream of PRs 2–5 is preserved
//! bit-for-bit.

use crate::table::{splitmix64, MemoKey};
use fpras_automata::StateSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Dense id of one interned frontier within its [`FrontierInterner`].
///
/// Equal frontier content ⇔ equal id (per interner). Ids are assigned
/// in first-intern order, which under the executor's lazy
/// sampler interning is schedule-dependent — compare frontiers by
/// content ([`FrontierInterner::compare`]) wherever order matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrontierId(pub(crate) u32);

impl FrontierId {
    /// The id as an array index into per-frontier side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Snapshot of an interner's counters, surfaced through
/// [`RunStats`](crate::run_stats::RunStats) and the `--stats`/bench
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct frontiers stored in the arena.
    pub distinct_frontiers: u64,
    /// Intern calls answered by an existing entry — each one is a
    /// frontier-key construction that allocated nothing.
    pub intern_hits: u64,
    /// Bytes held by the word arena.
    pub arena_bytes: u64,
}

impl InternStats {
    /// Accumulates another interner's counters (aggregate reporting).
    pub fn merge(&mut self, other: &InternStats) {
        self.distinct_frontiers += other.distinct_frontiers;
        self.intern_hits += other.intern_hits;
        self.arena_bytes += other.arena_bytes;
    }
}

/// The canonical `(level, frontier)` RNG tag (see [`MemoKey::rng_tag`]).
/// A congruence by construction: equal frontiers have equal raw bitset
/// words, hence equal tags; trailing zero words are skipped so the tag
/// is independent of the bitset's allocated width. This exact fold is
/// what keys every frontier-derived RNG stream (D8/D9) — changing it is
/// a stream break (see `tests/golden_streams.rs`).
pub(crate) fn frontier_tag(level: u32, words: &[u64]) -> u64 {
    let mut acc = splitmix64(0x5DE5_C0DE ^ u64::from(level));
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            acc = splitmix64(acc ^ w.wrapping_add(splitmix64(i as u64)));
        }
    }
    acc
}

/// Level-free content hash used only to bucket the interner's index
/// (candidates are confirmed by word comparison, so collisions cost a
/// compare, never correctness).
fn content_hash(words: &[u64]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15;
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            acc = splitmix64(acc ^ w.wrapping_add(splitmix64(i as u64)));
        }
    }
    acc
}

#[derive(Debug, Default)]
struct InternerInner {
    /// One flat word arena: id `i`'s words at `[i·stride, (i+1)·stride)`.
    arena: Vec<u64>,
    /// Content hash → candidate ids (confirmed by word comparison).
    index: HashMap<u64, Vec<u32>>,
    /// Next id to assign (= number of distinct frontiers).
    next: u32,
}

/// Hash-consing interner for the frontiers of one run (or one session).
///
/// Thread-safe: lookups take a read lock (the hot path — most interns
/// after the first level are hits), insertions upgrade to a write lock
/// with a re-check. All frontiers must range over the interner's fixed
/// `universe`.
#[derive(Debug)]
pub struct FrontierInterner {
    /// Process-unique instance id (see [`FrontierInterner::uid`]).
    uid: u64,
    universe: usize,
    /// Words per frontier: `⌈universe/64⌉`.
    stride: usize,
    hits: AtomicU64,
    inner: RwLock<InternerInner>,
}

impl FrontierInterner {
    /// An empty interner for frontiers over `0..universe`.
    pub fn new(universe: usize) -> Self {
        static NEXT_UID: AtomicU64 = AtomicU64::new(1);
        FrontierInterner {
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
            universe,
            stride: universe.div_ceil(64),
            hits: AtomicU64::new(0),
            inner: RwLock::new(InternerInner::default()),
        }
    }

    /// Process-unique instance id, never 0. Caches of [`FrontierId`]s
    /// outside the interner (the sampler's compiled walk) record it to
    /// tell whose ids they hold: an address could be reused by the next
    /// interner, a uid is never handed out twice.
    pub(crate) fn uid(&self) -> u64 {
        self.uid
    }

    /// The state universe the interner was built for.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Interns `frontier` at `level`, returning the `Copy` memo key —
    /// dense id plus the cached canonical RNG tag. Equal content always
    /// maps to the equal id; a repeat intern allocates nothing.
    pub fn intern(&self, level: usize, frontier: &StateSet) -> MemoKey {
        debug_assert_eq!(
            frontier.universe(),
            self.universe,
            "frontier universe does not match the interner's"
        );
        let words = frontier.words();
        let hash = content_hash(words);
        let tag = frontier_tag(level as u32, words);
        {
            let inner = self.inner.read().expect("interner lock poisoned");
            if let Some(id) = Self::find(&inner, hash, words, self.stride) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return MemoKey::from_parts(level as u32, FrontierId(id), tag);
            }
        }
        let mut inner = self.inner.write().expect("interner lock poisoned");
        // Re-check: another thread may have interned it while we waited.
        if let Some(id) = Self::find(&inner, hash, words, self.stride) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return MemoKey::from_parts(level as u32, FrontierId(id), tag);
        }
        let id = inner.next;
        inner.next += 1;
        inner.arena.extend_from_slice(words);
        inner.index.entry(hash).or_default().push(id);
        MemoKey::from_parts(level as u32, FrontierId(id), tag)
    }

    fn find(inner: &InternerInner, hash: u64, words: &[u64], stride: usize) -> Option<u32> {
        inner.index.get(&hash)?.iter().copied().find(|&id| {
            let at = id as usize * stride;
            &inner.arena[at..at + stride] == words
        })
    }

    /// Runs `f` on the raw arena words of `id` (held under the read
    /// lock — the arena may move on insertion, so the slice cannot
    /// escape).
    pub fn with_words<R>(&self, id: FrontierId, f: impl FnOnce(&[u64]) -> R) -> R {
        let inner = self.inner.read().expect("interner lock poisoned");
        let at = id.index() * self.stride;
        f(&inner.arena[at..at + self.stride])
    }

    /// Copies the content of `id` into `into` and returns its memo key
    /// at `level` (tag computed from the arena words, one read lock, no
    /// index probe). The way back from a bare id to a set and a key, for
    /// the sampler's cold paths.
    pub(crate) fn load(&self, level: usize, id: FrontierId, into: &mut StateSet) -> MemoKey {
        debug_assert_eq!(into.universe(), self.universe, "buffer universe mismatch");
        self.with_words(id, |words| {
            into.clear();
            into.union_with_words(words);
            MemoKey::from_parts(level as u32, id, frontier_tag(level as u32, words))
        })
    }

    /// Schedule-independent total order on interned frontiers:
    /// lexicographic comparison of their arena words (equal only for
    /// equal ids, since equal content shares one id). This is the order
    /// the `Deterministic` sample pass merges overlays in — id values
    /// depend on first-intern order, content does not.
    pub fn compare(&self, a: FrontierId, b: FrontierId) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        let inner = self.inner.read().expect("interner lock poisoned");
        let (ai, bi) = (a.index() * self.stride, b.index() * self.stride);
        inner.arena[ai..ai + self.stride].cmp(&inner.arena[bi..bi + self.stride])
    }

    /// Current counters (distinct frontiers, hits, arena footprint).
    pub fn stats(&self) -> InternStats {
        let inner = self.inner.read().expect("interner lock poisoned");
        InternStats {
            distinct_frontiers: u64::from(inner.next),
            intern_hits: self.hits.load(Ordering::Relaxed),
            arena_bytes: (inner.arena.len() * std::mem::size_of::<u64>()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_shares_one_id() {
        let interner = FrontierInterner::new(100);
        let a = StateSet::from_iter(100, [3, 64]);
        let b = StateSet::from_iter(100, [3, 64]);
        let c = StateSet::from_iter(100, [3]);
        let ka = interner.intern(2, &a);
        let kb = interner.intern(2, &b);
        let kc = interner.intern(2, &c);
        assert_eq!(ka, kb);
        assert_eq!(ka.frontier(), kb.frontier());
        assert_ne!(ka.frontier(), kc.frontier());
        assert_ne!(ka, kc);
        // Same content at another level: same id, different key and tag.
        let ka3 = interner.intern(3, &a);
        assert_eq!(ka.frontier(), ka3.frontier());
        assert_ne!(ka, ka3);
        assert_ne!(ka.rng_tag(), ka3.rng_tag());
        let s = interner.stats();
        assert_eq!(s.distinct_frontiers, 2);
        assert_eq!(s.intern_hits, 2); // b and the level-3 repeat of a
        assert_eq!(s.arena_bytes, 2 * 2 * 8); // two frontiers × two words
    }

    #[test]
    fn tag_is_width_independent() {
        // The tag skips zero words, so interners over different
        // universes give the same streams to the same frontier — the
        // congruence the golden-stream fixtures pin.
        let narrow = FrontierInterner::new(100);
        let wide = FrontierInterner::new(200);
        let a = StateSet::from_iter(100, [3, 64]);
        let b = StateSet::from_iter(200, [3, 64]);
        assert_eq!(narrow.intern(2, &a).rng_tag(), wide.intern(2, &b).rng_tag());
        assert_ne!(narrow.intern(2, &a).rng_tag(), narrow.intern(3, &a).rng_tag());
    }

    #[test]
    fn compare_orders_by_content() {
        let interner = FrontierInterner::new(70);
        // Intern in an order that disagrees with content (word) order:
        // {65} is words [0, 2], {0} is words [1, 0] — lexicographically
        // [0, 2] < [1, 0] even though id({65}) was assigned first.
        let a = interner.intern(1, &StateSet::from_iter(70, [65])).frontier();
        let b = interner.intern(1, &StateSet::from_iter(70, [0])).frontier();
        assert_eq!(interner.compare(a, b), std::cmp::Ordering::Less);
        assert_eq!(interner.compare(b, a), std::cmp::Ordering::Greater);
        assert_eq!(interner.compare(a, a), std::cmp::Ordering::Equal);
        interner.with_words(a, |w| assert_eq!(w, &[0, 2][..]));
        interner.with_words(b, |w| assert_eq!(w, &[1, 0][..]));
        // The order is id-independent: a fresh interner seeing the same
        // contents in the opposite intern order agrees.
        let again = FrontierInterner::new(70);
        let b2 = again.intern(1, &StateSet::from_iter(70, [0])).frontier();
        let a2 = again.intern(1, &StateSet::from_iter(70, [65])).frontier();
        assert_eq!(again.compare(a2, b2), std::cmp::Ordering::Less);
    }

    #[test]
    fn concurrent_interning_converges() {
        let interner = FrontierInterner::new(64);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let interner = &interner;
                scope.spawn(move || {
                    for i in 0..50usize {
                        let set = StateSet::from_iter(64, [(i + t) % 17, i % 11]);
                        let key = interner.intern(1, &set);
                        // Every thread must observe the same id for the
                        // same content.
                        assert_eq!(key, interner.intern(1, &set));
                    }
                });
            }
        });
        let stats = interner.stats();
        assert!(stats.distinct_frontiers > 0);
        assert!(stats.intern_hits > 0);
        // All distinct contents got distinct ids.
        let n = stats.distinct_frontiers;
        let mut contents = std::collections::HashSet::new();
        for id in 0..n as u32 {
            interner.with_words(FrontierId(id), |w| contents.insert(w.to_vec()));
        }
        assert_eq!(contents.len() as u64, n);
    }
}
