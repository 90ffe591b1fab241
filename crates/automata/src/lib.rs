//! Automata substrate for the #NFA FPRAS.
//!
//! The paper (*"A faster FPRAS for #NFA"*, PODS 2024) takes as input a
//! non-deterministic finite automaton `A = (Q, I, Δ, F)` over a fixed
//! alphabet and a word length `n` in unary, and estimates `|L(A_n)|` — the
//! number of length-`n` words accepted. This crate provides everything the
//! FPRAS (and its baselines, tests and benchmarks) needs from the automata
//! side:
//!
//! * [`Nfa`] — the automaton type, with a builder, validation, and
//!   precomputed predecessor lists (`Pred(q, b)` in the paper's notation);
//! * [`StateSet`] + [`masks::StepMasks`] — bitset state sets and
//!   per-(symbol, state) transition masks, implementing the paper's
//!   amortized `O(1)` membership oracle (§4.3);
//! * [`unroll::Unrolling`] — per-level reachable/alive state sets of the
//!   unrolled DAG `A_unroll` (Fig. 1, line 1) plus deterministic witness
//!   words for the padding step (Algorithm 3, lines 27–30);
//! * [`regex`] — a regex compiler (parser → Thompson ε-NFA →
//!   ε-elimination) for realistic workloads;
//! * [`dfa`] — subset construction and DFA counting;
//! * [`exact`] — ground-truth `#NFA` via level-wise determinization DP
//!   (exact for every NFA, exponential in `m` in the worst case);
//! * [`exact_sample`] — exact uniform sampling from `L(A_n)`, the
//!   reference distribution for the uniformity experiments;
//! * [`levenshtein`] — edit-distance neighbourhood automata for the
//!   approximate-matching workloads.

pub mod alphabet;
pub mod dfa;
pub mod dot;
pub mod enumerate;
pub mod exact;
pub mod exact_sample;
pub mod levenshtein;
pub mod masks;
pub mod nfa;
pub mod ops;
pub mod parse;
pub mod regex;
pub mod robp;
pub mod simulation;
pub mod stateset;
pub mod unroll;
pub mod word;

/// Most states an automaton read from untrusted text may have: the
/// `states` count of the `.nfa` format ([`parse::from_text`]) and the
/// Thompson states of a regex pattern ([`regex::MAX_COMPILED_STATES`]).
/// Without it a one-line file such as `states 9999999999` asks the
/// builder for hundreds of gigabytes and the allocator aborts the process.
pub const MAX_INPUT_STATES: usize = 4096;

pub use alphabet::Alphabet;
pub use dfa::Dfa;
pub use enumerate::{enumerate_slice, Enumerator};
pub use exact::{count_exact, slice_counts, ExactError};
pub use exact_sample::ExactSampler;
pub use levenshtein::{edit_distance, levenshtein_nfa};
pub use masks::StepMasks;
pub use nfa::{Nfa, NfaBuilder, StateId};
pub use robp::{Robp, RobpBuilder};
pub use simulation::{
    backward_simulation, forward_simulation, quotient_backward, quotient_forward, reduce,
};
pub use stateset::StateSet;
pub use unroll::{HorizonTooLarge, Unrolling};
pub use word::Word;
