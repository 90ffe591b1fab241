//! The memo lifecycle, made visible.
//!
//! ```text
//! cargo run --release --example memo_sharing
//! ```
//!
//! Walks the `contains11` fixture (`examples/data/contains11.nfa`)
//! through the engine at one thread and at four, and prints the
//! `RunStats` counters of the leveled copy-on-write memo (DESIGN.md
//! §2.2):
//!
//! * `memo.snapshots` / `memo.entries_shared` — every sampled cell took
//!   an O(1) snapshot of the level-start base layer; `entries_shared`
//!   is the entry-clone volume the old flat memo would have paid.
//! * `memo.overlay_entries` — the only thing still copied per cell: the
//!   thin overlay of entries the cell inserted itself.
//!
//! Sampler union randomness is frontier-keyed (D9), so two cells that
//! miss the same frontier compute the same value, and the canonical
//! merge makes the memo independent of which worker ran which cell. The
//! two runs are therefore **bit-identical**, counters included, which
//! this example asserts.

use fpras_automata::parse;
use fpras_core::{run_parallel, Params, RunStats};

const FIXTURE: &str = include_str!("data/contains11.nfa");

fn print_run(label: &str, stats: &RunStats) {
    println!("{label}");
    println!("  membership ops            {:>10}", stats.membership_ops);
    println!("  sampler memo hits/misses  {:>10} / {}", stats.memo_hits, stats.memo_misses);
    println!("  memo commits              {:>10}", stats.memo.commits);
    println!("  memo entries promoted     {:>10}", stats.memo.entries_promoted);
    println!("  memo snapshots (CoW)      {:>10}", stats.memo.snapshots);
    println!("  memo entries shared       {:>10}", stats.memo.entries_shared);
    println!("  memo overlay entries      {:>10}", stats.memo.overlay_entries);
}

fn main() {
    let nfa = parse::from_text(FIXTURE).expect("shipped fixture parses");
    let (n, eps, delta, seed) = (24, 0.2, 0.05, 42);
    println!("contains11 fixture: {} states, n = {n}, ε = {eps}, δ = {delta}\n", nfa.num_states());

    let params = Params::practical(eps, delta, nfa.num_states(), n);
    let one = run_parallel(&nfa, n, &params, seed, 1).expect("one-thread run");
    let four = run_parallel(&nfa, n, &params, seed, 4).expect("four-thread run");

    print_run("threads = 1:", one.stats());
    println!();
    print_run("threads = 4:", four.stats());

    // The contract this example exists to demonstrate: scheduling never
    // reaches the output. Same seed → same estimate and same memo
    // traffic, bit for bit.
    assert_eq!(
        one.estimate().to_f64(),
        four.estimate().to_f64(),
        "the thread count must never change the estimate"
    );
    assert_eq!(one.stats().membership_ops, four.stats().membership_ops);
    assert_eq!(one.stats().memo_misses, four.stats().memo_misses);
    assert!(one.stats().memo_hits > 0, "the sampler must hit the memo on contains11");

    println!(
        "\nestimate |L(A_{n})| ≈ {} (identical in both runs)\n\
         entry clones avoided by the CoW memo: {} (flat-memo volume), \
         only {} overlay entries copied",
        one.estimate(),
        one.stats().memo.entries_shared,
        one.stats().memo.overlay_entries,
    );
}
