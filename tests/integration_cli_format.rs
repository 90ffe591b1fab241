//! The shipped `.nfa` and `.robp` text formats: the example files must
//! parse, count correctly, and round-trip — this is the CLI's input
//! contract.

use fpras_automata::exact::count_exact;
use fpras_automata::parse::{from_text, to_text};
use fpras_core::estimate_count;

mod common;
use common::{EXAMPLE_NFA as EXAMPLE, EXAMPLE_ROBP};

#[test]
fn shipped_example_parses_and_counts() {
    let nfa = from_text(EXAMPLE).expect("shipped example must parse");
    assert_eq!(nfa.num_states(), 3);
    // Known value: 880 words of length 10 contain "11".
    assert_eq!(count_exact(&nfa, 10).unwrap().to_u64(), Some(880));
    let est = estimate_count(&nfa, 10, 0.3, 0.1, 3).unwrap().estimate;
    assert!((est.to_f64() - 880.0).abs() / 880.0 < 0.3);
}

#[test]
fn shipped_example_round_trips() {
    let nfa = from_text(EXAMPLE).unwrap();
    let text = to_text(&nfa);
    assert_eq!(from_text(&text).unwrap(), nfa);
}

#[test]
fn shipped_robp_example_parses_counts_and_round_trips() {
    let robp = fpras_automata::robp::from_text(EXAMPLE_ROBP).expect("shipped program must parse");
    assert_eq!((robp.num_nodes(), robp.depth()), (4, 2));
    // Exactly `00` and `11` are accepted.
    assert_eq!(count_exact(&robp.to_nfa(), 2).unwrap().to_u64(), Some(2));
    let text = fpras_automata::robp::to_text(&robp);
    assert_eq!(fpras_automata::robp::from_text(&text).unwrap(), robp);
}
