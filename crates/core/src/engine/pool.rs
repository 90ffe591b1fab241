//! The deterministic work-stealing executor (DESIGN.md §2.3, D10).
//!
//! Before this module the `Deterministic` policy fanned each pass out
//! with a *static* chunked split (`chunked_map`): the item list was cut
//! into `threads` equal slices and one fresh scoped thread was spawned
//! per slice, per pass — roughly `2n` spawn/join rounds per run. Two
//! costs made `threads = 8` indistinguishable from `threads = 1` on
//! real instances:
//!
//! * **Skew.** Per-item cost in the sample pass varies by orders of
//!   magnitude (a cell's sampler walks depend on its frontier
//!   structure), so equal-*count* slices are wildly unequal-*work*
//!   slices: the pass ends when the unluckiest slice does.
//! * **Spawn overhead.** A fresh `thread::scope` per pass pays thread
//!   creation for every level twice, which on thin levels exceeds the
//!   work being split.
//!
//! [`Pool`] replaces both. Workers are spawned **once** for the
//! lifetime of the owning policy and parked on a condvar between
//! passes. A pass publishes one type-erased job; every worker (the
//! caller participates as worker 0) claims items through per-worker
//! **atomic range cursors** in chunks of `steal_chunk`, and a worker
//! whose own range is drained *steals* chunks from the other ranges
//! until the whole item list is exhausted. Results are written into a
//! pre-sized output slab by input index, so the output order — and
//! therefore the engine's merge order — is exactly the input order no
//! matter which worker ran which item.
//!
//! # Why stealing cannot change the output
//!
//! Every RNG stream the engine consumes is keyed by *what* is being
//! computed — `(level, state, phase)` for cells, the canonical frontier
//! tag for groups and sampler unions — never by *where or when* it runs
//! (see `engine/policy.rs`). A work item is thus a pure function of its
//! index, the slab write is index-addressed, and scheduling (thread
//! count, chunk size, steal order) is invisible in the result. The
//! pool inherits the executor's bit-identity contract
//! for free; `proptest_pool.rs` locks it down against the sequential
//! map and the old static split.
//!
//! What scheduling *is* allowed to vary is the [`PoolStats`] evidence:
//! which worker ran how many items/ops and how many chunks were stolen
//! depend on timing by design — they are diagnostics, never inputs.
//!
//! # Sequential cutoff
//!
//! Levels with fewer items than `threads × steal_chunk` skip the pool
//! entirely and run inline on the caller (`sequential_passes` counts
//! them): waking and re-parking a fleet of workers costs more than a
//! handful of cells, and the old code paid exactly that tax by spawning
//! threads for every pass regardless of size.

use crate::run_stats::PoolStats;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One pass's worth of shared scheduling state.
///
/// The item closure is type-erased to `run`; its borrow is only valid
/// while [`Pool::map_with_ops`] is on the caller's stack. Safety rests
/// on one invariant: *the closure is only invoked for a successfully
/// claimed chunk, and the caller does not return until every item is
/// done* — a late-waking worker finds all cursors exhausted, claims
/// nothing, and therefore never touches the (by then dangling)
/// reference. The `JobCore` itself is `Arc`'d, so the cursors a late
/// worker probes stay alive for as long as any worker can see the job.
struct JobCore {
    /// Static per-worker ranges (the same split `chunked_map` used).
    ranges: Vec<Range<usize>>,
    /// Claim cursor per range; claims are `fetch_add(chunk)`.
    cursors: Vec<AtomicUsize>,
    /// Items claimed per `fetch_add` (the engine passes a constant 2).
    chunk: usize,
    /// Total item count of the pass.
    total: usize,
    /// Type-erased item runner: computes item `i`, writes its output
    /// into the slab, returns the membership ops to attribute to the
    /// executing worker.
    run: &'static (dyn Fn(usize) -> u64 + Sync),
    /// Items completed so far (mutex-guarded so the caller's wait
    /// cannot miss the final wakeup).
    done: Mutex<usize>,
    /// Signalled when `done` reaches `total`.
    done_cv: Condvar,
    /// Items run per worker (index 0 = the calling thread).
    worker_items: Vec<AtomicU64>,
    /// Ops (as reported by `run`) per worker.
    worker_ops: Vec<AtomicU64>,
    /// Chunks claimed from a range other than the claimant's own.
    steals: AtomicU64,
    /// Set when any item panicked; the caller re-panics after the pass.
    panicked: AtomicBool,
}

// SAFETY: `run` is the only non-Send/Sync field (a `&'static dyn Fn`
// forged from a caller-stack borrow). The invariant documented on
// `JobCore` confines every call to the lifetime of `map_with_ops`, and
// all other fields are atomics or mutex-guarded.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Claims up to `chunk` items from range `r`. Returns the claimed
    /// index range, or `None` when the range is exhausted.
    fn claim(&self, r: usize) -> Option<Range<usize>> {
        let end = self.ranges[r].end;
        let start = self.cursors[r].fetch_add(self.chunk, Ordering::Relaxed);
        if start >= end {
            return None;
        }
        Some(start..end.min(start + self.chunk))
    }

    /// Runs the claimed `items`, attributing them to worker `w`.
    fn run_chunk(&self, w: usize, items: Range<usize>) {
        let count = items.len() as u64;
        let mut ops = 0u64;
        for i in items {
            // A panicking item must not wedge the pool: record it, keep
            // the done-count moving, and let the caller re-raise.
            match catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                Ok(o) => ops += o,
                Err(_) => self.panicked.store(true, Ordering::Relaxed),
            }
        }
        self.worker_items[w].fetch_add(count, Ordering::Relaxed);
        self.worker_ops[w].fetch_add(ops, Ordering::Relaxed);
        let mut done = self.done.lock().expect("pool done lock");
        *done += count as usize;
        if *done >= self.total {
            self.done_cv.notify_all();
        }
    }

    /// Worker `w`'s whole pass: drain the own range, then steal chunks
    /// from the other ranges until everything is exhausted.
    fn work(&self, w: usize) {
        while let Some(items) = self.claim(w) {
            self.run_chunk(w, items);
        }
        let workers = self.ranges.len();
        // Cyclic victim scan starting after w; repeat until a full
        // sweep finds every range dry (a single sweep is not enough —
        // a victim's range can still be refilled from our perspective
        // by... nothing, ranges never grow, but a chunk claimed from
        // victim A may outlast the first probe of victim B, so keep
        // sweeping while any claim succeeded).
        loop {
            let mut claimed_any = false;
            for off in 1..workers {
                let victim = (w + off) % workers;
                while let Some(items) = self.claim(victim) {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    claimed_any = true;
                    self.run_chunk(w, items);
                }
            }
            if !claimed_any {
                return;
            }
        }
    }
}

/// Wake-up state shared between the caller and the parked workers.
struct PoolState {
    /// Bumped once per published pass.
    job_gen: u64,
    /// The current pass, if any.
    job: Option<Arc<JobCore>>,
    /// Set by `Drop`; workers exit on observing it.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
    /// Cumulative executor statistics, folded in caller-side after each
    /// pass (workers only ever touch per-pass `JobCore` counters).
    stats: Mutex<PoolStats>,
}

/// A persistent deterministic work-stealing executor.
///
/// `Pool::new(threads, …)` spawns `threads − 1` OS workers (the caller
/// is always worker 0) that park between passes; dropping the pool
/// shuts them down. See the module docs for the scheduling discipline
/// and the determinism argument.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

/// The most workers any input boundary accepts (`nfa-count --threads`,
/// a serve `open … --threads` line). Every worker past the caller is one
/// OS thread, so the cap bounds what one untrusted line can spawn. A
/// constant, not a knob: output never depends on the thread count.
pub const MAX_THREADS: usize = 64;

/// Output slab: each cell is written exactly once, by the worker that
/// claimed its index.
struct Slab<U>(Vec<UnsafeCell<MaybeUninit<U>>>);

// SAFETY: disjoint index ownership — a cell is only written by the
// worker whose claim covered it, and only read by the caller after the
// pass's done-barrier.
unsafe impl<U: Send> Sync for Slab<U> {}

impl<U> Slab<U> {
    /// Writes slot `i`.
    ///
    /// # Safety
    /// `i` must be exclusively owned by the caller (a claimed index).
    unsafe fn write(&self, i: usize, value: U) {
        unsafe { (*self.0[i].get()).write(value) };
    }
}

impl Pool {
    /// A pool running on up to `threads` (≥ 1) workers, the caller
    /// included — `threads = 1` spawns nothing and every pass runs
    /// inline.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { job_gen: 0, job: None, shutdown: false }),
            wake: Condvar::new(),
            stats: Mutex::new(PoolStats::default()),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_main(&shared, w))
            })
            .collect();
        Pool { shared, handles, threads }
    }

    /// The worker count (caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, outputs in input order, without op
    /// accounting. See [`Pool::map_with_ops`].
    pub fn map<T, U, F>(&self, items: &[T], steal_chunk: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_with_ops(items, steal_chunk, f, |_| 0)
    }

    /// Maps `f` over `items` on the pool, returning outputs **in input
    /// order**; `ops_of` extracts each output's membership-op count so
    /// [`PoolStats::worker_ops`] records the skew evidence. `f` must be
    /// a pure function of its item (no cross-item state) — that is what
    /// makes the result independent of scheduling.
    ///
    /// Passes smaller than `threads × steal_chunk` (and every pass on a
    /// single-thread pool) run inline on the caller without waking the
    /// workers.
    pub fn map_with_ops<T, U, F, G>(
        &self,
        items: &[T],
        steal_chunk: usize,
        f: F,
        ops_of: G,
    ) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
        G: Fn(&U) -> u64 + Sync,
    {
        let chunk = steal_chunk.max(1);
        if self.threads <= 1 || items.len() < self.threads * chunk {
            let out: Vec<U> = items.iter().map(&f).collect();
            let mut stats = self.shared.stats.lock().expect("pool stats lock");
            stats.sequential_passes += 1;
            stats.sequential_items += items.len() as u64;
            return out;
        }

        let len = items.len();
        let slab: Slab<U> =
            Slab((0..len).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect());
        let slab_ref = &slab;
        let runner = |i: usize| -> u64 {
            let u = f(&items[i]);
            let ops = ops_of(&u);
            // SAFETY: index `i` was claimed by exactly one worker.
            unsafe { slab_ref.write(i, u) };
            ops
        };
        let runner_ref: &(dyn Fn(usize) -> u64 + Sync) = &runner;
        // SAFETY: forged 'static lifetime; validity is guaranteed by the
        // done-barrier below (see `JobCore` docs).
        let runner_static: &'static (dyn Fn(usize) -> u64 + Sync) =
            unsafe { std::mem::transmute(runner_ref) };

        // The same deterministic split the old static chunking used; the
        // cursors just let any worker continue any range.
        let per = len.div_ceil(self.threads);
        let ranges: Vec<Range<usize>> =
            (0..self.threads).map(|w| (w * per).min(len)..((w + 1) * per).min(len)).collect();
        let cursors = ranges.iter().map(|r| AtomicUsize::new(r.start)).collect();
        let core = Arc::new(JobCore {
            cursors,
            ranges,
            chunk,
            total: len,
            run: runner_static,
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            worker_items: (0..self.threads).map(|_| AtomicU64::new(0)).collect(),
            worker_ops: (0..self.threads).map(|_| AtomicU64::new(0)).collect(),
            steals: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        });

        // Publish the pass and wake the fleet.
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.job_gen += 1;
            state.job = Some(Arc::clone(&core));
            self.shared.wake.notify_all();
        }

        // The caller is worker 0.
        core.work(0);

        // Barrier: every item done (late-waking workers may still be
        // probing cursors afterwards, but can no longer claim anything,
        // so the forged closure reference is never called again).
        {
            let mut done = core.done.lock().expect("pool done lock");
            while *done < core.total {
                done = core.done_cv.wait(done).expect("pool done wait");
            }
        }
        if core.panicked.load(Ordering::Relaxed) {
            panic!("pool worker panicked");
        }

        // Fold the pass's evidence into the cumulative stats.
        {
            let mut stats = self.shared.stats.lock().expect("pool stats lock");
            stats.parallel_passes += 1;
            stats.parallel_items += len as u64;
            stats.steals += core.steals.load(Ordering::Relaxed);
            stats.fold_workers(
                core.worker_items.iter().map(|a| a.load(Ordering::Relaxed)),
                core.worker_ops.iter().map(|a| a.load(Ordering::Relaxed)),
            );
        }

        // SAFETY: `done == total` and the panic flag is clear, so every
        // slab cell was initialized exactly once.
        slab.0.into_iter().map(|c| unsafe { c.into_inner().assume_init() }).collect()
    }

    /// Snapshot-and-reset of the cumulative executor statistics (the
    /// engine drains them once per run into `RunStats::pool`).
    pub fn take_stats(&self) -> PoolStats {
        std::mem::take(&mut self.shared.stats.lock().expect("pool stats lock"))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.shutdown = true;
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            // A worker can only panic after flagging the pass; the pass
            // already re-raised, so propagate quietly here.
            let _ = h.join();
        }
    }
}

/// A parked worker's life: wait for a new job generation, run the pass,
/// park again.
fn worker_main(shared: &PoolShared, w: usize) {
    let mut seen_gen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if state.shutdown {
                    return;
                }
                if state.job_gen != seen_gen {
                    seen_gen = state.job_gen;
                    break state.job.as_ref().map(Arc::clone);
                }
                state = shared.wake.wait(state).expect("pool wake wait");
            }
        };
        if let Some(core) = job {
            core.work(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn outputs_in_input_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..257).collect();
        for chunk in [1usize, 2, 16] {
            let out = pool.map(&items, chunk, |&x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>(), "chunk {chunk}");
        }
    }

    #[test]
    fn sequential_cutoff_skips_the_pool() {
        let pool = Pool::new(8);
        // 7 items < 8 × 2: must run inline.
        let out = pool.map(&[1u64, 2, 3, 4, 5, 6, 7], 2, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4, 5, 6, 7, 8]);
        let stats = pool.take_stats();
        assert_eq!(stats.parallel_passes, 0);
        assert_eq!(stats.sequential_passes, 1);
        assert_eq!(stats.sequential_items, 7);
        assert!(stats.worker_items.is_empty());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let items: Vec<u64> = (0..100).collect();
        let out = pool.map(&items, 2, |&x| x * x);
        assert_eq!(out[99], 99 * 99);
        let stats = pool.take_stats();
        assert_eq!(stats.parallel_passes, 0);
        assert_eq!(stats.sequential_passes, 1);
    }

    #[test]
    fn worker_accounting_covers_every_item() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map_with_ops(&items, 4, |&x| x, |&u| u);
        assert_eq!(out.len(), 1000);
        let stats = pool.take_stats();
        assert_eq!(stats.parallel_passes, 1);
        assert_eq!(stats.parallel_items, 1000);
        assert_eq!(stats.worker_items.iter().sum::<u64>(), 1000);
        // Σ ops = Σ 0..1000.
        assert_eq!(stats.worker_ops.iter().sum::<u64>(), 999 * 1000 / 2);
    }

    /// The pathological-skew scenario from the ISSUE: one item costs
    /// ~1000× the rest. Items *sleep* (instead of spinning) so workers
    /// genuinely overlap even on a single hardware thread, which makes
    /// the assertions hardware-independent: while worker 0 is stuck on
    /// the heavy head item, the other workers must drain its range —
    /// steals > 0 — and the per-worker op totals must come out within a
    /// small factor of each other, where the old static split pinned
    /// all 600 trailing light items (plus the heavy one) on worker 0's
    /// slice no matter what.
    #[test]
    fn pathological_skew_forces_steals_and_balance() {
        let threads = 4;
        let pool = Pool::new(threads);
        // Item 0: 60 "ops" (ms); items 1..=600: 1 op each. Static split
        // would give worker 0 ops 60 + 150 vs 150 for the rest — and
        // with the heavy item first, wall time = worker 0's whole slice.
        let items: Vec<u64> = std::iter::once(60u64).chain(std::iter::repeat_n(1, 600)).collect();
        let out = pool.map_with_ops(
            &items,
            2,
            |&cost| {
                std::thread::sleep(Duration::from_millis(cost));
                cost
            },
            |&u| u,
        );
        assert_eq!(out.len(), 601);
        let stats = pool.take_stats();
        assert!(stats.steals > 0, "skewed pass must steal: {stats:?}");
        assert_eq!(stats.worker_items.iter().sum::<u64>(), 601);
        // Ideal balance is 660/4 = 165 ops per worker; stealing must
        // keep every worker within a 3× envelope of every other (the
        // static split sat at 210 vs 150 with the *entire wall time*
        // serialized behind worker 0's slice).
        let ratio = stats.ops_balance_ratio().expect("parallel pass ran");
        assert!(ratio < 3.0, "worker-ops ratio {ratio} too skewed: {stats:?}");
    }

    #[test]
    fn pool_survives_many_passes() {
        // Park/wake cycling: many small parallel passes in sequence.
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..64).collect();
        for round in 0..50u64 {
            let out = pool.map(&items, 2, |&x| x + round);
            assert_eq!(out[63], 63 + round);
        }
        let stats = pool.take_stats();
        assert_eq!(stats.parallel_passes, 50);
        assert_eq!(stats.parallel_items, 50 * 64);
    }

    #[test]
    fn item_panic_propagates_without_wedging() {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..100).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, 1, |&x| {
                assert!(x != 50, "boom");
                x
            })
        }));
        assert!(result.is_err(), "item panic must propagate");
        // The pool must still be usable afterwards.
        let out = pool.map(&items, 1, |&x| x);
        assert_eq!(out.len(), 100);
    }
}
