//! The memo lifecycle, made visible.
//!
//! ```text
//! cargo run --release --example memo_sharing
//! ```
//!
//! Walks the `contains11` fixture (`examples/data/contains11.nfa`)
//! through the engine at one thread and at four, and prints the
//! `RunStats` counters of the union memo (DESIGN.md §2.2):
//!
//! * `memo_misses` / `memo.overlay_entries` — the cells of a sample
//!   pass share one level overlay, so each distinct frontier they miss
//!   is estimated and charged once per pass: the two counters agree.
//! * `pool.memo_races` — estimates a worker computed and then lost to a
//!   sibling that inserted the same frontier first; scheduling evidence,
//!   zero at one thread.
//!
//! Sampler union randomness is frontier-keyed (D9), so two cells that
//! miss the same frontier compute the same value, and whichever insert
//! wins, the memo holds that value. The two runs are therefore
//! **bit-identical**, counters included, which this example asserts.

use fpras_automata::parse;
use fpras_core::{run_parallel, Params, RunStats};

const FIXTURE: &str = include_str!("data/contains11.nfa");

fn print_run(label: &str, stats: &RunStats) {
    println!("{label}");
    println!("  membership ops            {:>10}", stats.membership_ops);
    println!("  sampler memo hits/misses  {:>10} / {}", stats.memo_hits, stats.memo_misses);
    println!("  memo commits              {:>10}", stats.memo.commits);
    println!("  memo entries promoted     {:>10}", stats.memo.entries_promoted);
    println!("  memo overlay entries      {:>10}", stats.memo.overlay_entries);
    println!("  memo races (scheduling)   {:>10}", stats.pool.memo_races);
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
    assert_eq!(one.stats().memo_misses, one.stats().memo.overlay_entries);
    assert!(one.stats().memo_hits > 0, "the sampler must hit the memo on contains11");

    println!(
        "\nestimate |L(A_{n})| ≈ {} (identical in both runs)\n\
         {} sampler frontiers estimated once each, {} duplicate estimates lost to races",
        one.estimate(),
        one.stats().memo.overlay_entries,
        four.stats().pool.memo_races,
    );
}
