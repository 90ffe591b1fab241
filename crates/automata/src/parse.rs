//! Plain-text NFA serialization.
//!
//! A line-based format for shipping automata into the CLI and tests:
//!
//! ```text
//! # words containing "11"
//! alphabet 01
//! states 3
//! initial 0
//! accepting 2
//! trans 0 0 0
//! trans 0 1 0
//! trans 0 1 1
//! trans 1 1 2
//! trans 2 0 2
//! trans 2 1 2
//! ```
//!
//! `alphabet` lists single-character symbol names in id order; `trans`
//! lines are `FROM SYMBOL_CHAR TO`. Blank lines and `#` comments are
//! ignored. [`to_text`] and [`from_text`] round-trip. A `states` count
//! above [`MAX_INPUT_STATES`] is refused before anything is allocated.

use crate::alphabet::Alphabet;
use crate::nfa::{Nfa, NfaBuilder};
use crate::MAX_INPUT_STATES;
use std::fmt;

/// Parse errors with line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNfaError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseNfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNfaError {}

/// Writes an automaton in the text format.
pub fn to_text(nfa: &Nfa) -> String {
    let mut out = String::new();
    out.push_str("alphabet ");
    for sym in nfa.alphabet().symbols() {
        out.push(nfa.alphabet().name(sym));
    }
    out.push('\n');
    out.push_str(&format!("states {}\n", nfa.num_states()));
    out.push_str(&format!("initial {}\n", nfa.initial()));
    for q in nfa.accepting().iter() {
        out.push_str(&format!("accepting {q}\n"));
    }
    for (from, sym, to) in nfa.transitions() {
        out.push_str(&format!("trans {from} {} {to}\n", nfa.alphabet().name(sym)));
    }
    out
}

/// Parses the text format.
pub fn from_text(text: &str) -> Result<Nfa, ParseNfaError> {
    let err = |line: usize, message: String| ParseNfaError { line, message };
    let mut alphabet: Option<Alphabet> = None;
    let mut builder: Option<NfaBuilder> = None;
    let mut pending: Vec<(usize, String)> = Vec::new(); // lines before `states`

    let handle_line = |lineno: usize,
                       fields: &[&str],
                       alphabet: &mut Option<Alphabet>,
                       builder: &mut Option<NfaBuilder>|
     -> Result<(), ParseNfaError> {
        match fields[0] {
            "alphabet" => {
                if fields.len() != 2 {
                    return Err(err(lineno, "alphabet needs one token of symbol names".into()));
                }
                *alphabet = Some(Alphabet::with_names(fields[1].chars().collect()));
                Ok(())
            }
            "states" => {
                let a = alphabet
                    .clone()
                    .ok_or_else(|| err(lineno, "alphabet must precede states".into()))?;
                let count: usize = fields
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "states needs a count".into()))?;
                if count > MAX_INPUT_STATES {
                    return Err(err(
                        lineno,
                        format!("{count} states is above the limit of {MAX_INPUT_STATES}"),
                    ));
                }
                let mut b = NfaBuilder::new(a);
                b.add_states(count);
                *builder = Some(b);
                Ok(())
            }
            "initial" | "accepting" | "trans" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "states must precede this line".into()))?;
                let a = alphabet.as_ref().expect("alphabet set before builder");
                match fields[0] {
                    "initial" => {
                        let q: u32 = fields
                            .get(1)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err(lineno, "initial needs a state id".into()))?;
                        if (q as usize) >= b.num_states() {
                            return Err(err(lineno, format!("initial state {q} out of range")));
                        }
                        b.set_initial(q);
                    }
                    "accepting" => {
                        let q: u32 = fields
                            .get(1)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err(lineno, "accepting needs a state id".into()))?;
                        if (q as usize) >= b.num_states() {
                            return Err(err(lineno, format!("accepting state {q} out of range")));
                        }
                        b.add_accepting(q);
                    }
                    _ => {
                        if fields.len() != 4 {
                            return Err(err(lineno, "trans needs FROM SYM TO".into()));
                        }
                        let from: u32 = fields[1]
                            .parse()
                            .map_err(|_| err(lineno, format!("bad state id {:?}", fields[1])))?;
                        let to: u32 = fields[3]
                            .parse()
                            .map_err(|_| err(lineno, format!("bad state id {:?}", fields[3])))?;
                        let sym_char = fields[2]
                            .chars()
                            .next()
                            .filter(|_| fields[2].chars().count() == 1)
                            .ok_or_else(|| err(lineno, "symbol must be one character".into()))?;
                        let sym = a.symbol(sym_char).ok_or_else(|| {
                            err(lineno, format!("symbol {sym_char:?} not in alphabet"))
                        })?;
                        if (from as usize) >= b.num_states() || (to as usize) >= b.num_states() {
                            return Err(err(lineno, "transition endpoint out of range".into()));
                        }
                        b.add_transition(from, sym, to);
                    }
                }
                Ok(())
            }
            other => Err(err(lineno, format!("unknown directive {other:?}"))),
        }
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        // `states` may only appear once; directives before it other than
        // alphabet are deferred errors for clarity.
        if fields[0] != "alphabet" && fields[0] != "states" && builder.is_none() {
            pending.push((lineno, line.to_string()));
            continue;
        }
        handle_line(lineno, &fields, &mut alphabet, &mut builder)?;
        if builder.is_some() && !pending.is_empty() {
            let (lineno, _) = pending[0];
            return Err(err(lineno, "directive appears before `states`".into()));
        }
    }
    let builder = builder.ok_or_else(|| err(0, "missing `states` directive".into()))?;
    builder.build().map_err(|e| err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Word;
    use proptest::prelude::*;

    const SAMPLE: &str = "\
# words containing 11
alphabet 01
states 3
initial 0
accepting 2
trans 0 0 0
trans 0 1 0
trans 0 1 1
trans 1 1 2
trans 2 0 2
trans 2 1 2
";

    #[test]
    fn parse_and_accept() {
        let nfa = from_text(SAMPLE).unwrap();
        assert_eq!(nfa.num_states(), 3);
        assert!(nfa.accepts(&Word::parse("011", nfa.alphabet()).unwrap()));
        assert!(!nfa.accepts(&Word::parse("010", nfa.alphabet()).unwrap()));
    }

    #[test]
    fn round_trip() {
        let nfa = from_text(SAMPLE).unwrap();
        let text = to_text(&nfa);
        let again = from_text(&text).unwrap();
        assert_eq!(nfa, again);
    }

    #[test]
    fn error_reporting() {
        let bad = "alphabet 01\nstates 2\ninitial 5\n";
        let e = from_text(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("out of range"));

        let bad = "alphabet 01\nstates 1\ninitial 0\naccepting 0\ntrans 0 x 0\n";
        let e = from_text(bad).unwrap_err();
        assert!(e.message.contains("not in alphabet"));

        assert!(from_text("").is_err());
        assert!(from_text("states 1\n").is_err(), "alphabet must come first");
    }

    /// The cap itself parses; one more, or a count no allocator could
    /// serve, is a parse error on the `states` line, not an abort.
    #[test]
    fn states_count_is_capped() {
        let text = |count: usize| format!("alphabet 01\nstates {count}\ninitial 0\naccepting 0\n");
        let nfa = from_text(&text(MAX_INPUT_STATES)).unwrap();
        assert_eq!(nfa.num_states(), MAX_INPUT_STATES);
        for count in [MAX_INPUT_STATES + 1, 9_999_999_999] {
            let e = from_text(&text(count)).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains("above the limit"), "{e}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# hi\nalphabet ab\n\nstates 1\ninitial 0 # inline\naccepting 0\n";
        let nfa = from_text(text).unwrap();
        assert_eq!(nfa.alphabet().size(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// to_text ∘ from_text is the identity on random automata.
        #[test]
        fn random_nfa_round_trip(
            m in 1usize..12,
            k in 1usize..4,
            edges in proptest::collection::vec((0u32..12, 0u8..4, 0u32..12), 0..40),
            initial in 0u32..12,
            accepting in proptest::collection::vec(0u32..12, 1..4),
        ) {
            let mut b = crate::nfa::NfaBuilder::new(Alphabet::of_size(k));
            b.add_states(m);
            b.set_initial(initial % m as u32);
            for &q in &accepting {
                b.add_accepting(q % m as u32);
            }
            for &(f, s, t) in &edges {
                if (s as usize) < k {
                    b.add_transition(f % m as u32, s, t % m as u32);
                }
            }
            let nfa = b.build().unwrap();
            let text = to_text(&nfa);
            let back = from_text(&text).unwrap();
            prop_assert_eq!(nfa, back);
        }
    }
}
