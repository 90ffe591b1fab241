//! Regular expressions compiled to NFAs.
//!
//! Realistic #NFA instances come from query languages: SPARQL property
//! paths and RPQs compile regexes into NFAs (paper §1, "Counting Answers
//! to Regular Path Queries"). This module supplies a small but complete
//! pipeline: a hand-rolled recursive-descent parser, a Thompson ε-NFA
//! construction, ε-elimination and trimming. Supported syntax:
//!
//! ```text
//! alt     := concat ('|' concat)*
//! concat  := rep*
//! rep     := atom ('*' | '+' | '?' | '{m}' | '{m,n}')*
//! atom    := symbol | '.' | '[' chars ']' | '[^' chars ']' | '(' alt ')'
//! ```
//!
//! Symbols are single characters drawn from the target [`Alphabet`].

use crate::alphabet::{Alphabet, Symbol};
use crate::nfa::{Nfa, NfaBuilder, StateId};
use crate::ops;
use std::fmt;

/// Regular-expression abstract syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex {
    /// Matches only the empty word λ.
    Empty,
    /// Matches a single symbol.
    Symbol(Symbol),
    /// Matches any one of a set of symbols (`[abc]`, `[^a]`, `.`).
    Class(Vec<Symbol>),
    /// Concatenation.
    Concat(Vec<Regex>),
    /// Alternation.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more.
    Plus(Box<Regex>),
    /// Zero or one.
    Opt(Box<Regex>),
    /// Bounded repetition `{lo}` / `{lo,hi}`.
    Repeat(Box<Regex>, usize, usize),
}

/// Parse / compile errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte offset of the error in the pattern.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for RegexError {}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    alphabet: &'a Alphabet,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, RegexError> {
        Err(RegexError { position: self.pos, message: message.into() })
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_alt(&mut self) -> Result<Regex, RegexError> {
        let mut arms = vec![self.parse_concat()?];
        while self.eat('|') {
            arms.push(self.parse_concat()?);
        }
        Ok(if arms.len() == 1 { arms.pop().unwrap() } else { Regex::Alt(arms) })
    }

    fn parse_concat(&mut self) -> Result<Regex, RegexError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.parse_rep()?);
        }
        Ok(match parts.len() {
            0 => Regex::Empty,
            1 => parts.pop().unwrap(),
            _ => Regex::Concat(parts),
        })
    }

    fn parse_rep(&mut self) -> Result<Regex, RegexError> {
        let mut atom = self.parse_atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    atom = Regex::Star(Box::new(atom));
                }
                Some('+') => {
                    self.pos += 1;
                    atom = Regex::Plus(Box::new(atom));
                }
                Some('?') => {
                    self.pos += 1;
                    atom = Regex::Opt(Box::new(atom));
                }
                Some('{') => {
                    self.pos += 1;
                    let lo = self.parse_number()?;
                    let hi = if self.eat(',') { self.parse_number()? } else { lo };
                    if !self.eat('}') {
                        return self.err("expected '}'");
                    }
                    if hi < lo {
                        return self.err(format!("invalid repetition {{{lo},{hi}}}"));
                    }
                    atom = Regex::Repeat(Box::new(atom), lo, hi);
                }
                _ => break,
            }
        }
        Ok(atom)
    }

    fn parse_number(&mut self) -> Result<usize, RegexError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected number");
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse().map_err(|_| RegexError { position: start, message: "number too large".into() })
    }

    fn parse_atom(&mut self) -> Result<Regex, RegexError> {
        match self.peek() {
            None => self.err("unexpected end of pattern"),
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_alt()?;
                if !self.eat(')') {
                    return self.err("expected ')'");
                }
                Ok(inner)
            }
            Some('.') => {
                self.pos += 1;
                Ok(Regex::Class(self.alphabet.symbols().collect()))
            }
            Some('[') => {
                self.pos += 1;
                let negate = self.eat('^');
                let mut listed = Vec::new();
                loop {
                    match self.bump() {
                        None => return self.err("unterminated class"),
                        Some(']') => break,
                        Some(c) => match self.alphabet.symbol(c) {
                            Some(s) => listed.push(s),
                            None => return self.err(format!("symbol {c:?} not in alphabet")),
                        },
                    }
                }
                let class: Vec<Symbol> = if negate {
                    self.alphabet.symbols().filter(|s| !listed.contains(s)).collect()
                } else {
                    listed
                };
                if class.is_empty() {
                    return self.err("empty character class");
                }
                Ok(Regex::Class(class))
            }
            Some(c @ ('*' | '+' | '?' | '{' | '}' | ']' | ')' | '|')) => {
                self.err(format!("unexpected {c:?}"))
            }
            Some(c) => {
                self.pos += 1;
                match self.alphabet.symbol(c) {
                    Some(s) => Ok(Regex::Symbol(s)),
                    None => self.err(format!("symbol {c:?} not in alphabet")),
                }
            }
        }
    }
}

/// Most ε-NFA states [`compile_regex`] builds for one pattern. The
/// Thompson construction unfolds every bounded repetition, so without a
/// cap a short pattern such as `0{99999999999}` asks for unbounded time
/// and memory; ε-elimination also keeps one closure per state, which
/// can grow quadratically in the state count. The same cap as the
/// `.nfa` format's `states` count.
pub const MAX_COMPILED_STATES: usize = crate::MAX_INPUT_STATES;

impl Regex {
    /// Parses a pattern over the given alphabet.
    pub fn parse(pattern: &str, alphabet: &Alphabet) -> Result<Regex, RegexError> {
        let mut p = Parser { chars: pattern.chars().collect(), pos: 0, alphabet };
        let re = p.parse_alt()?;
        if p.pos != p.chars.len() {
            return p.err("trailing input");
        }
        Ok(re)
    }

    /// Renders the AST back to pattern syntax over the given alphabet.
    ///
    /// Parsing the result yields an equivalent AST (`parse ∘ to_pattern`
    /// preserves the language; the tree shape may differ through
    /// flattening of nested concatenations/alternations).
    pub fn to_pattern(&self, alphabet: &Alphabet) -> String {
        // Precedence levels: alt(0) < concat(1) < repetition(2) < atom(3).
        fn go(re: &Regex, alphabet: &Alphabet, out: &mut String, parent_prec: u8) {
            let prec = match re {
                Regex::Alt(_) => 0,
                Regex::Concat(_) => 1,
                Regex::Star(_) | Regex::Plus(_) | Regex::Opt(_) | Regex::Repeat(..) => 2,
                Regex::Empty | Regex::Symbol(_) | Regex::Class(_) => 3,
            };
            let need_parens = prec < parent_prec || matches!(re, Regex::Empty) && parent_prec > 0;
            if need_parens {
                out.push('(');
            }
            match re {
                Regex::Empty => {}
                Regex::Symbol(s) => out.push(alphabet.name(*s)),
                Regex::Class(syms) => {
                    if syms.len() == alphabet.size() {
                        out.push('.');
                    } else {
                        out.push('[');
                        for &s in syms {
                            out.push(alphabet.name(s));
                        }
                        out.push(']');
                    }
                }
                Regex::Concat(parts) => {
                    for p in parts {
                        go(p, alphabet, out, 1);
                    }
                }
                Regex::Alt(arms) => {
                    for (i, a) in arms.iter().enumerate() {
                        if i > 0 {
                            out.push('|');
                        }
                        go(a, alphabet, out, 0);
                    }
                }
                Regex::Star(inner) => {
                    go(inner, alphabet, out, 3);
                    out.push('*');
                }
                Regex::Plus(inner) => {
                    go(inner, alphabet, out, 3);
                    out.push('+');
                }
                Regex::Opt(inner) => {
                    go(inner, alphabet, out, 3);
                    out.push('?');
                }
                Regex::Repeat(inner, lo, hi) => {
                    go(inner, alphabet, out, 3);
                    if lo == hi {
                        out.push_str(&format!("{{{lo}}}"));
                    } else {
                        out.push_str(&format!("{{{lo},{hi}}}"));
                    }
                }
            }
            if need_parens {
                out.push(')');
            }
        }
        let mut out = String::new();
        go(self, alphabet, &mut out, 0);
        out
    }

    /// Reference matcher used to validate the compiled NFA in tests:
    /// straightforward recursive semantics, exponential in the worst case.
    pub fn matches(&self, word: &[Symbol]) -> bool {
        match self {
            Regex::Empty => word.is_empty(),
            Regex::Symbol(s) => word == [*s],
            Regex::Class(cs) => word.len() == 1 && cs.contains(&word[0]),
            Regex::Concat(parts) => matches_seq(parts, word),
            Regex::Alt(arms) => arms.iter().any(|a| a.matches(word)),
            Regex::Star(inner) => {
                word.is_empty()
                    || (1..=word.len())
                        .any(|k| inner.matches(&word[..k]) && self.matches(&word[k..]))
            }
            Regex::Plus(inner) => (1..=word.len()).any(|k| {
                inner.matches(&word[..k]) && Regex::Star(inner.clone()).matches(&word[k..])
            }),
            Regex::Opt(inner) => word.is_empty() || inner.matches(word),
            Regex::Repeat(inner, lo, hi) => {
                fn rep(inner: &Regex, count_min: usize, count_max: usize, word: &[Symbol]) -> bool {
                    if count_min == 0 && word.is_empty() {
                        return true;
                    }
                    if count_max == 0 {
                        return word.is_empty() && count_min == 0;
                    }
                    let start = if count_min == 0 { 0 } else { 1 };
                    if count_min == 0 && word.is_empty() {
                        return true;
                    }
                    for k in start.max(1)..=word.len().max(1) {
                        if k > word.len() {
                            break;
                        }
                        if inner.matches(&word[..k])
                            && rep(inner, count_min.saturating_sub(1), count_max - 1, &word[k..])
                        {
                            return true;
                        }
                    }
                    // Inner may also match λ.
                    if inner.matches(&[]) && count_min > 0 {
                        return rep(inner, count_min - 1, count_max - 1, word);
                    }
                    count_min == 0 && word.is_empty()
                }
                rep(inner, *lo, *hi, word)
            }
        }
    }

    /// The number of ε-NFA states the Thompson construction creates for
    /// this tree, saturating at `usize::MAX`. Computed from the tree
    /// alone, so an oversized repetition is rejected before any of it
    /// is unfolded.
    pub fn compiled_states(&self) -> usize {
        let sum = |base: usize, items: &[Regex]| {
            items.iter().fold(base, |n, r| n.saturating_add(r.compiled_states()))
        };
        match self {
            Regex::Empty => 1,
            Regex::Symbol(_) | Regex::Class(_) => 2,
            Regex::Concat(parts) => sum(1, parts),
            Regex::Alt(arms) => sum(2, arms),
            Regex::Star(inner) | Regex::Opt(inner) => inner.compiled_states().saturating_add(2),
            Regex::Plus(inner) => inner.compiled_states().saturating_add(1),
            Regex::Repeat(inner, _, hi) => {
                inner.compiled_states().saturating_mul(*hi).saturating_add(2)
            }
        }
    }

    /// Compiles to a trimmed NFA via Thompson construction and
    /// ε-elimination.
    ///
    /// Returns `None` when the language is empty of useful states — which
    /// cannot happen for syntactically valid patterns, so the public
    /// [`compile_regex`] unwraps it.
    fn compile(&self, alphabet: &Alphabet) -> Option<Nfa> {
        let mut eps = EpsNfa::new();
        let (start, end) = eps.insert(self);
        eps.to_nfa(alphabet, start, end)
    }
}

fn matches_seq(parts: &[Regex], word: &[Symbol]) -> bool {
    match parts {
        [] => word.is_empty(),
        [first, rest @ ..] => {
            (0..=word.len()).any(|k| first.matches(&word[..k]) && matches_seq(rest, &word[k..]))
        }
    }
}

/// Compiles a pattern directly to a trimmed [`Nfa`].
///
/// The resulting automaton accepts exactly the pattern's language, except
/// that an NFA cannot represent the *totally* empty language without a
/// dummy accepting state — patterns always match something, so this does
/// not arise from parsing.
///
/// Fails without building anything when the pattern needs more than
/// [`MAX_COMPILED_STATES`] ε-NFA states.
pub fn compile_regex(pattern: &str, alphabet: &Alphabet) -> Result<Nfa, RegexError> {
    let re = Regex::parse(pattern, alphabet)?;
    let states = re.compiled_states();
    if states > MAX_COMPILED_STATES {
        let size = if states == usize::MAX { "too many".to_string() } else { states.to_string() };
        return Err(RegexError {
            position: 0,
            message: format!(
                "pattern compiles to {size} states, above the limit of {MAX_COMPILED_STATES}"
            ),
        });
    }
    re.compile(alphabet)
        .ok_or(RegexError { position: 0, message: "pattern denotes the empty language".into() })
}

/// Thompson ε-NFA under construction.
struct EpsNfa {
    num_states: usize,
    eps: Vec<(usize, usize)>,
    trans: Vec<(usize, Symbol, usize)>,
}

impl EpsNfa {
    fn new() -> Self {
        EpsNfa { num_states: 0, eps: Vec::new(), trans: Vec::new() }
    }

    fn fresh(&mut self) -> usize {
        self.num_states += 1;
        self.num_states - 1
    }

    /// Inserts the fragment for `re`, returning `(start, end)`.
    fn insert(&mut self, re: &Regex) -> (usize, usize) {
        match re {
            Regex::Empty => {
                let s = self.fresh();
                (s, s)
            }
            Regex::Symbol(sym) => {
                let s = self.fresh();
                let e = self.fresh();
                self.trans.push((s, *sym, e));
                (s, e)
            }
            Regex::Class(syms) => {
                let s = self.fresh();
                let e = self.fresh();
                for &sym in syms {
                    self.trans.push((s, sym, e));
                }
                (s, e)
            }
            Regex::Concat(parts) => {
                let s = self.fresh();
                let mut cur = s;
                for p in parts {
                    let (ps, pe) = self.insert(p);
                    self.eps.push((cur, ps));
                    cur = pe;
                }
                (s, cur)
            }
            Regex::Alt(arms) => {
                let s = self.fresh();
                let e = self.fresh();
                for a in arms {
                    let (as_, ae) = self.insert(a);
                    self.eps.push((s, as_));
                    self.eps.push((ae, e));
                }
                (s, e)
            }
            Regex::Star(inner) => {
                let s = self.fresh();
                let e = self.fresh();
                let (is, ie) = self.insert(inner);
                self.eps.push((s, e));
                self.eps.push((s, is));
                self.eps.push((ie, is));
                self.eps.push((ie, e));
                (s, e)
            }
            Regex::Plus(inner) => {
                let (is, ie) = self.insert(inner);
                let e = self.fresh();
                self.eps.push((ie, is));
                self.eps.push((ie, e));
                (is, e)
            }
            Regex::Opt(inner) => {
                let s = self.fresh();
                let e = self.fresh();
                let (is, ie) = self.insert(inner);
                self.eps.push((s, is));
                self.eps.push((ie, e));
                self.eps.push((s, e));
                (s, e)
            }
            Regex::Repeat(inner, lo, hi) => {
                // Unfold: lo mandatory copies then (hi - lo) optional ones.
                let s = self.fresh();
                let mut cur = s;
                for _ in 0..*lo {
                    let (is, ie) = self.insert(inner);
                    self.eps.push((cur, is));
                    cur = ie;
                }
                let e = self.fresh();
                for _ in *lo..*hi {
                    let (is, ie) = self.insert(inner);
                    self.eps.push((cur, is));
                    self.eps.push((cur, e)); // skip remaining copies
                    cur = ie;
                }
                self.eps.push((cur, e));
                (s, e)
            }
        }
    }

    /// ε-closure of one state.
    fn closure(&self, adj: &[Vec<usize>], q: usize) -> Vec<usize> {
        let mut seen = vec![false; self.num_states];
        let mut stack = vec![q];
        seen[q] = true;
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            out.push(v);
            for &t in &adj[v] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        out
    }

    /// Eliminates ε-transitions and trims.
    fn to_nfa(&self, alphabet: &Alphabet, start: usize, end: usize) -> Option<Nfa> {
        let mut adj = vec![Vec::new(); self.num_states];
        for &(a, b) in &self.eps {
            adj[a].push(b);
        }
        let mut out = vec![Vec::new(); self.num_states];
        for &(f, sym, t) in &self.trans {
            out[f].push((sym, t));
        }

        let mut b = NfaBuilder::new(alphabet.clone());
        b.add_states(self.num_states);
        b.set_initial(start as StateId);
        // One closure at a time: all of them at once can take memory
        // quadratic in the state count.
        for q in 0..self.num_states {
            let closure = self.closure(&adj, q);
            // q accepting iff end ∈ closure(q).
            if closure.contains(&end) {
                b.add_accepting(q as StateId);
            }
            // q --sym--> r  iff  ∃ p ∈ closure(q) with (p, sym, r) ∈ Δ.
            for &p in &closure {
                for &(sym, t) in &out[p] {
                    b.add_transition(q as StateId, sym, t as StateId);
                }
            }
        }
        let nfa = b.build().ok()?;
        ops::trim(&nfa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_exact;
    use crate::word::Word;
    use proptest::prelude::*;

    fn check_pattern(pattern: &str, max_len: usize) {
        let alphabet = Alphabet::binary();
        let re = Regex::parse(pattern, &alphabet).unwrap();
        let nfa = compile_regex(pattern, &alphabet).unwrap();
        for n in 0..=max_len {
            for idx in 0..(2u64.pow(n as u32)) {
                let w = Word::from_index(idx, n, 2);
                assert_eq!(
                    nfa.accepts(&w),
                    re.matches(w.symbols()),
                    "pattern {pattern:?}, word {w:?}"
                );
            }
        }
    }

    #[test]
    fn literal() {
        check_pattern("0110", 5);
    }

    #[test]
    fn alternation() {
        check_pattern("01|10|11", 4);
    }

    #[test]
    fn star_and_plus() {
        check_pattern("0*1+", 6);
        check_pattern("(01)*", 6);
    }

    #[test]
    fn optional() {
        check_pattern("1?0?1", 4);
    }

    #[test]
    fn dot_and_classes() {
        check_pattern(".1.", 4);
        check_pattern("[01]1[1]", 4);
        check_pattern("[^0]*", 5);
    }

    #[test]
    fn bounded_repetition() {
        check_pattern("1{3}", 5);
        check_pattern("(0|1){2,4}", 5);
        check_pattern("0{0,2}1", 4);
    }

    #[test]
    fn nested() {
        check_pattern("((0|1)0)*1?", 6);
        check_pattern("(0*|1*)(01)+", 6);
    }

    #[test]
    fn empty_pattern_matches_lambda() {
        let alphabet = Alphabet::binary();
        let nfa = compile_regex("", &alphabet).unwrap();
        assert!(nfa.accepts(&Word::empty()));
        assert_eq!(count_exact(&nfa, 0).unwrap().to_u64(), Some(1));
        assert_eq!(count_exact(&nfa, 1).unwrap().to_u64(), Some(0));
    }

    #[test]
    fn count_via_regex() {
        // Words of length 8 starting with 1: 2^7 = 128.
        let alphabet = Alphabet::binary();
        let nfa = compile_regex("1(0|1)*", &alphabet).unwrap();
        assert_eq!(count_exact(&nfa, 8).unwrap().to_u64(), Some(128));
    }

    #[test]
    fn larger_alphabet() {
        let alphabet = Alphabet::of_size(3);
        let nfa = compile_regex("a(b|c)*a", &alphabet).unwrap();
        let w = Word::parse("abcba", &alphabet).unwrap();
        assert!(nfa.accepts(&w));
        assert!(!nfa.accepts(&Word::parse("abc", &alphabet).unwrap()));
    }

    #[test]
    fn parse_errors() {
        let a = Alphabet::binary();
        assert!(Regex::parse("(01", &a).is_err());
        assert!(Regex::parse("01)", &a).is_err());
        assert!(Regex::parse("*", &a).is_err());
        assert!(Regex::parse("[2]", &a).is_err());
        assert!(Regex::parse("[", &a).is_err());
        assert!(Regex::parse("1{3,1}", &a).is_err());
        assert!(Regex::parse("x", &a).is_err());
        assert!(Regex::parse("[^01]", &a).is_err()); // empty class
    }

    #[test]
    fn compiled_states_counts_the_construction() {
        let a = Alphabet::binary();
        for pattern in [
            "",
            "0",
            ".",
            "[01]1",
            "01|10|11",
            "0*1+",
            "(01)*",
            "1?0?1",
            "1{3}",
            "(0|1){2,4}",
            "0{0,2}1",
            "((0|1)0)*1?",
            "(0*|1*)(01)+",
            "(0?){5}",
            "((0|1){2}){3,4}",
        ] {
            let re = Regex::parse(pattern, &a).unwrap();
            let mut eps = EpsNfa::new();
            eps.insert(&re);
            assert_eq!(re.compiled_states(), eps.num_states, "pattern {pattern:?}");
        }
    }

    /// A repetition above the state cap is rejected from the parse tree,
    /// before any unfolding: no hang, no allocation proportional to it.
    #[test]
    fn huge_repetition_fails_fast() {
        let a = Alphabet::binary();
        for pattern in [
            "0{99999}",
            "0{99999999999}",
            "(0{1000}){1000}",
            "((0|1){99999}){99999}{99999}",
            "1(0{3000}|1)",
        ] {
            let err = compile_regex(pattern, &a).unwrap_err();
            assert!(err.to_string().contains("limit"), "pattern {pattern:?}: {err}");
        }
        let err = compile_regex("0{99999999999}{99999999999}", &a).unwrap_err();
        assert!(err.message.contains("too many"), "{err}");
        // Just under the cap still compiles, including the shape whose
        // ε-closures are quadratic in its size.
        let widest = format!("(0?){{{}}}", (MAX_COMPILED_STATES - 2) / 4);
        assert!(Regex::parse(&widest, &a).unwrap().compiled_states() <= MAX_COMPILED_STATES);
        let nfa = compile_regex(&widest, &a).unwrap();
        assert_eq!(count_exact(&nfa, 3).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn error_reports_position() {
        let a = Alphabet::binary();
        let err = Regex::parse("01x1", &a).unwrap_err();
        assert_eq!(err.position, 3); // pos advanced past 'x'
        assert!(err.to_string().contains("not in alphabet"));
    }

    #[test]
    fn to_pattern_round_trips_named_cases() {
        let a = Alphabet::binary();
        for pattern in [
            "0110",
            "01|10|11",
            "0*1+",
            "(01)*",
            "1?0?1",
            ".1.",
            "[01]1[1]",
            "[^0]*",
            "1{3}",
            "(0|1){2,4}",
            "((0|1)0)*1?",
            "(0*|1*)(01)+",
            "",
        ] {
            let re = Regex::parse(pattern, &a).unwrap();
            let rendered = re.to_pattern(&a);
            let reparsed = Regex::parse(&rendered, &a).unwrap_or_else(|e| {
                panic!("{pattern:?} rendered to unparseable {rendered:?}: {e}")
            });
            for n in 0..=5usize {
                for idx in 0..(1u64 << n) {
                    let w = Word::from_index(idx, n, 2);
                    assert_eq!(
                        re.matches(w.symbols()),
                        reparsed.matches(w.symbols()),
                        "pattern {pattern:?} -> {rendered:?}, word {w:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `parse ∘ to_pattern` preserves the language on generated ASTs.
        #[test]
        fn to_pattern_round_trip_random(seed in 0u64..5000) {
            // Deterministic small AST generator driven by the seed.
            fn gen(mut state: u64, depth: u8) -> (Regex, u64) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pick = (state >> 33) % if depth == 0 { 3 } else { 8 };
                match pick {
                    0 => (Regex::Symbol(((state >> 7) % 2) as u8), state),
                    1 => (Regex::Class(vec![0, 1]), state),
                    2 => (Regex::Empty, state),
                    3 => {
                        let (a, s2) = gen(state, depth - 1);
                        let (b, s3) = gen(s2, depth - 1);
                        (Regex::Concat(vec![a, b]), s3)
                    }
                    4 => {
                        let (a, s2) = gen(state, depth - 1);
                        let (b, s3) = gen(s2, depth - 1);
                        (Regex::Alt(vec![a, b]), s3)
                    }
                    5 => {
                        let (a, s2) = gen(state, depth - 1);
                        (Regex::Star(Box::new(a)), s2)
                    }
                    6 => {
                        let (a, s2) = gen(state, depth - 1);
                        (Regex::Opt(Box::new(a)), s2)
                    }
                    _ => {
                        let (a, s2) = gen(state, depth - 1);
                        (Regex::Repeat(Box::new(a), 1, 2), s2)
                    }
                }
            }
            let alphabet = Alphabet::binary();
            let (re, _) = gen(seed, 3);
            let rendered = re.to_pattern(&alphabet);
            let reparsed = Regex::parse(&rendered, &alphabet)
                .unwrap_or_else(|e| panic!("unparseable {rendered:?}: {e}"));
            for n in 0..=4usize {
                for idx in 0..(1u64 << n) {
                    let w = Word::from_index(idx, n, 2);
                    prop_assert_eq!(
                        re.matches(w.symbols()),
                        reparsed.matches(w.symbols()),
                        "{:?} -> {:?}, word {:?}", re, rendered, w
                    );
                }
            }
        }

        #[test]
        fn random_patterns_compile_consistently(seed in 0u64..2000) {
            // A tiny pattern generator over a fixed template set keeps the
            // property test fast while covering operator interactions.
            let templates = [
                "0", "1", "0*", "1+", "(01)*", "0|1", "(0|1)*1", "1?0",
                "1{2}", "(0|11)+", "[01]{1,3}", "0*1*", "((0|1)(0|1))*",
            ];
            let a = templates[(seed as usize) % templates.len()];
            let b = templates[(seed as usize / 13) % templates.len()];
            let pattern = format!("{a}{b}");
            let alphabet = Alphabet::binary();
            let re = Regex::parse(&pattern, &alphabet).unwrap();
            let nfa = compile_regex(&pattern, &alphabet).unwrap();
            for n in 0..=5usize {
                for idx in 0..(1u64 << n) {
                    let w = Word::from_index(idx, n, 2);
                    prop_assert_eq!(nfa.accepts(&w), re.matches(w.symbols()));
                }
            }
        }
    }
}
