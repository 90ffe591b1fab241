//! Property tests for the work-stealing executor (D10).
//!
//! Three families of properties:
//!
//! * **Pool ≡ static split** — on random item counts, thread counts and
//!   chunk sizes, `Pool::map` must reproduce the sequential map and the
//!   old `chunked_map` static split (kept here as the reference
//!   implementation) exactly, order and values. Any divergence means an
//!   index was claimed twice, dropped, or written to the wrong slot.
//! * **The chunk size is invisible** — engine-shaped passes (each item
//!   draws from its own item-keyed RNG stream, with skewed cost) must
//!   produce identical output at every chunk size: the chunk moves work
//!   between workers and flips the sequential cutoff, neither of which
//!   may touch any stream. (Whole-run invariance across thread counts
//!   is `engine_policies.rs`'s.)
//! * **Accounting closes** — every item of every pass is attributed to
//!   exactly one worker (or the sequential path); steals never exceed
//!   chunk claims.

use fpras_core::Pool;
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};

/// The pre-D10 static split, verbatim semantics: cut the items into
/// `threads` equal chunks, map each chunk on its own scoped thread,
/// concatenate in order. The executor must be output-equivalent to this
/// for every input.
fn static_chunked_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks_out: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let f = &f;
                s.spawn(move || c.iter().map(f).collect::<Vec<U>>())
            })
            .collect();
        chunks_out = handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();
    });
    chunks_out.into_iter().flatten().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pool_matches_sequential_and_static_split(
        len in 0usize..600,
        threads in 1usize..9,
        chunk in 1usize..17,
        salt in 0u64..1000,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|i| i ^ salt).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left((x % 63) as u32);
        let expected: Vec<u64> = items.iter().map(f).collect();
        let reference = static_chunked_map(&items, threads, f);
        prop_assert_eq!(&reference, &expected, "static split is order-preserving");
        let pool = Pool::new(threads);
        let out = pool.map(&items, chunk, f);
        prop_assert_eq!(&out, &expected, "pool output (t={}, c={})", threads, chunk);
        // Accounting closes: every item ran exactly once, on the pool
        // or on the sequential path.
        let stats = pool.take_stats();
        prop_assert_eq!(
            stats.parallel_items + stats.sequential_items,
            len as u64,
            "item accounting"
        );
        prop_assert_eq!(
            stats.worker_items.iter().sum::<u64>(),
            stats.parallel_items,
            "worker attribution"
        );
        // The cutoff contract: a pass smaller than threads × chunk must
        // not have woken the pool.
        if len < threads * chunk {
            prop_assert_eq!(stats.parallel_passes, 0);
        }
    }

    #[test]
    fn pool_reuse_across_passes_stays_correct(
        lens in proptest::collection::vec(0usize..200, 1..6),
        threads in 2usize..6,
    ) {
        // One persistent pool, several differently-sized passes — the
        // park/wake/generation machinery must never mix passes up.
        let pool = Pool::new(threads);
        for (round, len) in lens.iter().enumerate() {
            let items: Vec<u64> = (0..*len as u64).collect();
            let r = round as u64;
            let out = pool.map(&items, 2, |&x| x * 31 + r);
            prop_assert_eq!(out, items.iter().map(|&x| x * 31 + r).collect::<Vec<_>>());
        }
    }

    #[test]
    fn steal_chunk_is_invisible_in_the_output(
        len in 1usize..400,
        threads in 2usize..6,
        chunk in 1usize..9,
        seed in 0u64..500,
    ) {
        // Engine-shaped items: each draws from its own item-keyed RNG
        // stream (like a cell's) and does a skewed amount of work.
        let items: Vec<u64> = (0..len as u64).collect();
        let job = |&i: &u64| {
            let mut rng = SmallRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let draws = 1 + (i % 7) * (i % 3) * 8;
            (0..draws).fold(0u64, |acc, _| acc.rotate_left(5) ^ rng.random::<u64>())
        };
        let expected: Vec<u64> = items.iter().map(job).collect();
        let pool = Pool::new(threads);
        for c in [1, 2, chunk, 1_000_000] {
            let out = pool.map_with_ops(&items, c, job, |_| 1);
            prop_assert_eq!(&out, &expected, "chunk {} (t={}, seed {})", c, threads, seed);
            let stats = pool.take_stats();
            prop_assert_eq!(
                stats.worker_ops.iter().sum::<u64>(),
                stats.parallel_items,
                "ops attribution at chunk {}", c
            );
            // An extreme chunk forces the sequential cutoff.
            if c == 1_000_000 {
                prop_assert_eq!(stats.parallel_passes, 0, "a huge chunk must sequentialize");
            }
        }
    }
}
