//! Non-deterministic read-once branching programs (nROBPs).
//!
//! An nROBP over an alphabet Σ is a leveled DAG: every node sits at
//! exactly one level `0..=depth`, a single *source* node at level 0,
//! edges labelled with symbols advance exactly one level, and a node at
//! level `depth` accepts. A length-`depth` word is accepted when some
//! edge path spelling it runs from the source to an accepting node —
//! each of the `depth` "variables" is read exactly once, in order.
//! Meel, Chakraborty and Mathur's FPRAS for #nROBP (arXiv 2406.16515)
//! runs the same level-synchronous count/sample machinery as the #NFA
//! FPRAS on this structure; this module provides the program type the
//! engine's `RobpSubstrate` front-end consumes.
//!
//! Internally the node graph is stored as an [`Nfa`] (nodes = states,
//! the sink = the single accepting state), which makes every exact
//! counter in this crate a free oracle: `L(robp) = L(to_nfa())_depth`
//! because in a leveled DAG every accepted word has length exactly
//! `depth`. [`RobpBuilder::build`] normalizes multiple accepting nodes
//! into one *sink* by edge redirection, mirroring the NFA pipeline's
//! single-accepting normalization.
//!
//! The text format ([`to_text`] / [`from_text`]) mirrors the NFA one:
//!
//! ```text
//! # parity of two bits
//! alphabet 01
//! depth 2
//! levels 0 1 1 2
//! source 0
//! accepting 3
//! edge 0 0 1
//! edge 0 1 2
//! edge 1 1 3
//! edge 2 0 3
//! ```

use crate::alphabet::{Alphabet, Symbol};
use crate::nfa::{Nfa, NfaBuilder, StateId};
use crate::word::Word;
use std::fmt;

/// A node identifier, dense in `0..robp.num_nodes()`.
pub type NodeId = u32;

/// An immutable nROBP; construct through [`RobpBuilder`] or
/// [`Robp::from_nfa`].
#[derive(Clone, PartialEq, Eq)]
pub struct Robp {
    /// The node graph as an automaton: initial = source, accepting =
    /// `{sink}`. Every edge advances one level (builder invariant).
    graph: Nfa,
    /// `levels[node]` — the level each node sits at.
    levels: Vec<u32>,
    depth: usize,
    sink: NodeId,
}

impl Robp {
    /// The alphabet Σ.
    pub fn alphabet(&self) -> &Alphabet {
        self.graph.alphabet()
    }

    /// Number of nodes in the DAG.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_states()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_transitions()
    }

    /// The number of levels read — every accepted word has this length.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The source node (level 0).
    pub fn source(&self) -> NodeId {
        self.graph.initial()
    }

    /// The sink: the single accepting node, at level [`Robp::depth`].
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The level of `node`.
    pub fn level_of(&self, node: NodeId) -> usize {
        self.levels[node as usize] as usize
    }

    /// True iff `word` is accepted (requires `word.len() == depth`).
    pub fn accepts(&self, word: &Word) -> bool {
        word.len() == self.depth && self.graph.accepts(word)
    }

    /// The node graph as an automaton. Because all paths are leveled,
    /// `L(robp) = L(to_nfa())` restricted to length `depth` — so every
    /// exact #NFA counter doubles as an exact #nROBP counter.
    pub fn to_nfa(&self) -> Nfa {
        self.graph.clone()
    }

    /// Borrows the node graph ([`Robp::to_nfa`] without the clone) —
    /// for read-only walks such as session-cache fingerprinting.
    pub fn graph(&self) -> &Nfa {
        &self.graph
    }

    /// Encodes the length-`n` slice of an NFA's language as an nROBP:
    /// one node per `(state, level)` pair with the state reachable at
    /// that level, edges following the NFA's transitions one level down.
    /// `L(robp) = L(nfa)_n` exactly. Fails when `n = 0` (an nROBP reads
    /// at least one variable) or the slice is empty (no accepting node).
    pub fn from_nfa(nfa: &Nfa, n: usize) -> Result<Robp, RobpBuildError> {
        if n == 0 {
            return Err(RobpBuildError::ZeroDepth);
        }
        // Forward reach sets, one level per step (no fixpoint needed).
        let mut reach = Vec::with_capacity(n + 1);
        reach.push(crate::stateset::StateSet::singleton(nfa.num_states(), nfa.initial() as usize));
        for _ in 0..n {
            let prev = reach.last().expect("level 0 seeded");
            let mut cur = crate::stateset::StateSet::empty(nfa.num_states());
            for sym in nfa.alphabet().symbols() {
                cur.union_with(&nfa.step(prev, sym));
            }
            reach.push(cur);
        }
        let mut b = RobpBuilder::new(nfa.alphabet().clone(), n);
        // Dense node ids per (level, state).
        let mut ids: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(n + 1);
        for (ell, set) in reach.iter().enumerate() {
            let mut row = vec![None; nfa.num_states()];
            for q in set.iter() {
                row[q] = Some(b.add_node(ell));
            }
            ids.push(row);
        }
        b.set_source(ids[0][nfa.initial() as usize].expect("source is reachable"));
        let mut any_accepting = false;
        for q in reach[n].iter() {
            if nfa.is_accepting(q as StateId) {
                b.add_accepting(ids[n][q].expect("node exists for reachable state"));
                any_accepting = true;
            }
        }
        if !any_accepting {
            return Err(RobpBuildError::NoAcceptingNodes);
        }
        for ell in 0..n {
            for q in reach[ell].iter() {
                let from = ids[ell][q].expect("node exists");
                for sym in nfa.alphabet().symbols() {
                    for &t in nfa.successors(q as StateId, sym) {
                        if let Some(to) = ids[ell + 1][t as usize] {
                            b.add_edge(from, sym, to);
                        }
                    }
                }
            }
        }
        b.build()
    }
}

impl fmt::Debug for Robp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Robp(nodes={}, edges={}, depth={}, source={}, sink={})",
            self.num_nodes(),
            self.num_edges(),
            self.depth,
            self.source(),
            self.sink
        )?;
        for (from, sym, to) in self.graph.transitions() {
            writeln!(
                f,
                "  {from}@{} --{}--> {to}@{}",
                self.levels[from as usize],
                self.alphabet().name(sym),
                self.levels[to as usize]
            )?;
        }
        Ok(())
    }
}

/// Errors from [`RobpBuilder::build`] and [`Robp::from_nfa`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RobpBuildError {
    /// `depth = 0` — an nROBP reads at least one variable.
    ZeroDepth,
    /// The program has no nodes.
    NoNodes,
    /// No source node was declared at level 0.
    NoSource,
    /// No accepting node was declared at level `depth`.
    NoAcceptingNodes,
}

impl fmt::Display for RobpBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobpBuildError::ZeroDepth => write!(f, "nROBP depth must be at least 1"),
            RobpBuildError::NoNodes => write!(f, "nROBP must have at least one node"),
            RobpBuildError::NoSource => write!(f, "nROBP must declare a source node at level 0"),
            RobpBuildError::NoAcceptingNodes => {
                write!(f, "nROBP must have an accepting node at its last level")
            }
        }
    }
}

impl std::error::Error for RobpBuildError {}

/// Incremental nROBP constructor.
///
/// Structural misuse (out-of-range nodes, edges that do not advance one
/// level, accepting nodes off the last level) panics, like
/// [`NfaBuilder`]; emptiness conditions are [`RobpBuildError`]s.
///
/// ```
/// use fpras_automata::robp::RobpBuilder;
/// use fpras_automata::{Alphabet, Word};
///
/// // Two-bit odd parity.
/// let mut b = RobpBuilder::new(Alphabet::binary(), 2);
/// let s = b.add_node(0);
/// let even = b.add_node(1);
/// let odd = b.add_node(1);
/// let acc = b.add_node(2);
/// b.set_source(s);
/// b.add_accepting(acc);
/// b.add_edge(s, 0, even);
/// b.add_edge(s, 1, odd);
/// b.add_edge(even, 1, acc);
/// b.add_edge(odd, 0, acc);
/// let robp = b.build().unwrap();
/// assert!(robp.accepts(&Word::parse("01", robp.alphabet()).unwrap()));
/// assert!(!robp.accepts(&Word::parse("11", robp.alphabet()).unwrap()));
/// ```
#[derive(Clone, Debug)]
pub struct RobpBuilder {
    alphabet: Alphabet,
    depth: usize,
    levels: Vec<u32>,
    source: Option<NodeId>,
    accepting: Vec<NodeId>,
    edges: Vec<(NodeId, Symbol, NodeId)>,
}

impl RobpBuilder {
    /// Starts an empty program of `depth` levels over `alphabet`.
    /// `depth = 0` is rejected at [`RobpBuilder::build`] time.
    pub fn new(alphabet: Alphabet, depth: usize) -> Self {
        RobpBuilder {
            alphabet,
            depth,
            levels: Vec::new(),
            source: None,
            accepting: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds one node at `level`, returning its id.
    ///
    /// # Panics
    /// Panics if `level > depth`.
    pub fn add_node(&mut self, level: usize) -> NodeId {
        assert!(level <= self.depth, "node level {level} exceeds depth {}", self.depth);
        let id = self.levels.len() as NodeId;
        self.levels.push(level as u32);
        id
    }

    /// Current number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.levels.len()
    }

    /// Declares the source node.
    ///
    /// # Panics
    /// Panics if the node does not exist or is not at level 0.
    pub fn set_source(&mut self, node: NodeId) {
        assert!((node as usize) < self.levels.len(), "source node {node} does not exist");
        assert_eq!(self.levels[node as usize], 0, "source node {node} must be at level 0");
        self.source = Some(node);
    }

    /// Marks a node accepting.
    ///
    /// # Panics
    /// Panics if the node does not exist or is not at level `depth`.
    pub fn add_accepting(&mut self, node: NodeId) {
        assert!((node as usize) < self.levels.len(), "accepting node {node} does not exist");
        assert_eq!(
            self.levels[node as usize] as usize, self.depth,
            "accepting node {node} must be at the last level"
        );
        self.accepting.push(node);
    }

    /// Adds an edge; duplicates are deduplicated at build time.
    ///
    /// # Panics
    /// Panics if either node or the symbol does not exist, or the edge
    /// does not advance exactly one level.
    pub fn add_edge(&mut self, from: NodeId, sym: Symbol, to: NodeId) {
        assert!((from as usize) < self.levels.len(), "source node {from} does not exist");
        assert!((to as usize) < self.levels.len(), "target node {to} does not exist");
        assert!((sym as usize) < self.alphabet.size(), "symbol {sym} outside alphabet");
        assert_eq!(
            self.levels[to as usize],
            self.levels[from as usize] + 1,
            "edge {from} -> {to} must advance exactly one level"
        );
        self.edges.push((from, sym, to));
    }

    /// Finalizes the program, normalizing multiple accepting nodes into
    /// one sink: edges into any accepting node are duplicated onto the
    /// smallest one, which becomes the single sink (accepting-merge —
    /// the level structure makes this language-preserving because no
    /// accepting node has outgoing edges within the horizon).
    pub fn build(self) -> Result<Robp, RobpBuildError> {
        if self.depth == 0 {
            return Err(RobpBuildError::ZeroDepth);
        }
        if self.levels.is_empty() {
            return Err(RobpBuildError::NoNodes);
        }
        let source = match self.source {
            Some(s) => s,
            None => match self.levels.iter().position(|&l| l == 0) {
                Some(i) => i as NodeId,
                None => return Err(RobpBuildError::NoSource),
            },
        };
        if self.accepting.is_empty() {
            return Err(RobpBuildError::NoAcceptingNodes);
        }
        let sink = *self.accepting.iter().min().expect("non-empty accepting");
        let is_accepting = |node: NodeId| self.accepting.contains(&node);
        let mut b = NfaBuilder::new(self.alphabet.clone());
        b.add_states(self.levels.len());
        b.set_initial(source);
        b.add_accepting(sink);
        for &(from, sym, to) in &self.edges {
            b.add_transition(from, sym, to);
            if to != sink && is_accepting(to) {
                b.add_transition(from, sym, sink);
            }
        }
        let graph = b.build().expect("nodes and sink present");
        Ok(Robp { graph, levels: self.levels, depth: self.depth, sink })
    }
}

/// Parse errors with line numbers (same shape as
/// [`crate::parse::ParseNfaError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRobpError {
    /// 1-based line of the offending input (0 for end-of-input errors).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseRobpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseRobpError {}

/// Writes a program in the text format (see the module docs).
pub fn to_text(robp: &Robp) -> String {
    let mut out = String::new();
    out.push_str("alphabet ");
    for sym in robp.alphabet().symbols() {
        out.push(robp.alphabet().name(sym));
    }
    out.push('\n');
    out.push_str(&format!("depth {}\n", robp.depth()));
    out.push_str("levels");
    for node in 0..robp.num_nodes() {
        out.push_str(&format!(" {}", robp.level_of(node as NodeId)));
    }
    out.push('\n');
    out.push_str(&format!("source {}\n", robp.source()));
    out.push_str(&format!("accepting {}\n", robp.sink()));
    for (from, sym, to) in robp.graph.transitions() {
        out.push_str(&format!("edge {from} {} {to}\n", robp.alphabet().name(sym)));
    }
    out
}

/// Parses the text format. `alphabet`, `depth` and `levels` must come
/// (in that order) before `source`/`accepting`/`edge` lines; blank
/// lines and `#` comments are ignored.
pub fn from_text(text: &str) -> Result<Robp, ParseRobpError> {
    let err = |line: usize, message: String| ParseRobpError { line, message };
    let mut alphabet: Option<Alphabet> = None;
    let mut depth: Option<usize> = None;
    let mut builder: Option<RobpBuilder> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[0] {
            "alphabet" => {
                if fields.len() != 2 {
                    return Err(err(lineno, "alphabet needs one token of symbol names".into()));
                }
                alphabet = Some(Alphabet::with_names(fields[1].chars().collect()));
            }
            "depth" => {
                let d: usize = fields
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(lineno, "depth needs a count".into()))?;
                depth = Some(d);
            }
            "levels" => {
                let a = alphabet
                    .clone()
                    .ok_or_else(|| err(lineno, "alphabet must precede levels".into()))?;
                let d = depth.ok_or_else(|| err(lineno, "depth must precede levels".into()))?;
                let mut b = RobpBuilder::new(a, d);
                for f in &fields[1..] {
                    let level: usize =
                        f.parse().map_err(|_| err(lineno, format!("bad level {f:?}")))?;
                    if level > d {
                        return Err(err(lineno, format!("level {level} exceeds depth {d}")));
                    }
                    b.add_node(level);
                }
                builder = Some(b);
            }
            "source" | "accepting" | "edge" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "levels must precede this line".into()))?;
                let a = alphabet.as_ref().expect("alphabet set before builder");
                match fields[0] {
                    "source" => {
                        let node: NodeId = fields
                            .get(1)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err(lineno, "source needs a node id".into()))?;
                        if (node as usize) >= b.num_nodes() {
                            return Err(err(lineno, format!("source node {node} out of range")));
                        }
                        if b.levels[node as usize] != 0 {
                            return Err(err(
                                lineno,
                                format!("source node {node} must be at level 0"),
                            ));
                        }
                        b.set_source(node);
                    }
                    "accepting" => {
                        let node: NodeId = fields
                            .get(1)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err(lineno, "accepting needs a node id".into()))?;
                        if (node as usize) >= b.num_nodes() {
                            return Err(err(lineno, format!("accepting node {node} out of range")));
                        }
                        if b.levels[node as usize] as usize != b.depth {
                            return Err(err(
                                lineno,
                                format!("accepting node {node} must be at the last level"),
                            ));
                        }
                        b.add_accepting(node);
                    }
                    _ => {
                        if fields.len() != 4 {
                            return Err(err(lineno, "edge needs FROM SYM TO".into()));
                        }
                        let from: NodeId = fields[1]
                            .parse()
                            .map_err(|_| err(lineno, format!("bad node id {:?}", fields[1])))?;
                        let to: NodeId = fields[3]
                            .parse()
                            .map_err(|_| err(lineno, format!("bad node id {:?}", fields[3])))?;
                        let sym_char = fields[2]
                            .chars()
                            .next()
                            .filter(|_| fields[2].chars().count() == 1)
                            .ok_or_else(|| err(lineno, "symbol must be one character".into()))?;
                        let sym = a.symbol(sym_char).ok_or_else(|| {
                            err(lineno, format!("symbol {sym_char:?} not in alphabet"))
                        })?;
                        if (from as usize) >= b.num_nodes() || (to as usize) >= b.num_nodes() {
                            return Err(err(lineno, "edge endpoint out of range".into()));
                        }
                        if b.levels[to as usize] != b.levels[from as usize] + 1 {
                            return Err(err(
                                lineno,
                                format!("edge {from} -> {to} must advance exactly one level"),
                            ));
                        }
                        b.add_edge(from, sym, to);
                    }
                }
            }
            other => return Err(err(lineno, format!("unknown directive {other:?}"))),
        }
    }
    let builder = builder.ok_or_else(|| err(0, "missing `levels` directive".into()))?;
    builder.build().map_err(|e| err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_exact;
    use crate::word::Word;

    /// NFA accepting words containing "11" (3 states, nondeterministic).
    fn contains_11() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q2);
        b.add_transition(q0, 0, q0);
        b.add_transition(q0, 1, q0);
        b.add_transition(q0, 1, q1);
        b.add_transition(q1, 1, q2);
        b.add_transition(q2, 0, q2);
        b.add_transition(q2, 1, q2);
        b.build().unwrap()
    }

    /// Two-bit odd parity: accepts "01" and "10".
    fn parity2() -> Robp {
        let mut b = RobpBuilder::new(Alphabet::binary(), 2);
        let s = b.add_node(0);
        let even = b.add_node(1);
        let odd = b.add_node(1);
        let acc = b.add_node(2);
        b.set_source(s);
        b.add_accepting(acc);
        b.add_edge(s, 0, even);
        b.add_edge(s, 1, odd);
        b.add_edge(even, 1, acc);
        b.add_edge(odd, 0, acc);
        b.build().unwrap()
    }

    #[test]
    fn build_validation() {
        assert_eq!(
            RobpBuilder::new(Alphabet::binary(), 0).build().unwrap_err(),
            RobpBuildError::ZeroDepth
        );
        assert_eq!(
            RobpBuilder::new(Alphabet::binary(), 2).build().unwrap_err(),
            RobpBuildError::NoNodes
        );
        let mut b = RobpBuilder::new(Alphabet::binary(), 2);
        b.add_node(1);
        assert_eq!(b.clone().build().unwrap_err(), RobpBuildError::NoSource);
        b.add_node(0);
        assert_eq!(b.build().unwrap_err(), RobpBuildError::NoAcceptingNodes);
    }

    #[test]
    #[should_panic(expected = "advance exactly one level")]
    fn skipping_edge_panics() {
        let mut b = RobpBuilder::new(Alphabet::binary(), 2);
        let s = b.add_node(0);
        let acc = b.add_node(2);
        b.add_edge(s, 0, acc);
    }

    #[test]
    #[should_panic(expected = "must be at the last level")]
    fn mid_level_accepting_panics() {
        let mut b = RobpBuilder::new(Alphabet::binary(), 2);
        b.add_node(0);
        let mid = b.add_node(1);
        b.add_accepting(mid);
    }

    #[test]
    fn parity_accepts_exactly_odd_words() {
        let robp = parity2();
        let a = robp.alphabet().clone();
        assert!(robp.accepts(&Word::parse("01", &a).unwrap()));
        assert!(robp.accepts(&Word::parse("10", &a).unwrap()));
        assert!(!robp.accepts(&Word::parse("00", &a).unwrap()));
        assert!(!robp.accepts(&Word::parse("11", &a).unwrap()));
        assert!(!robp.accepts(&Word::parse("010", &a).unwrap()), "wrong length");
        assert!(!robp.accepts(&Word::empty()));
    }

    #[test]
    fn to_nfa_makes_exact_counters_free() {
        let robp = parity2();
        let nfa = robp.to_nfa();
        assert_eq!(count_exact(&nfa, robp.depth()).unwrap().to_u64(), Some(2));
    }

    #[test]
    fn multiple_accepting_nodes_merge_into_sink() {
        let mut b = RobpBuilder::new(Alphabet::binary(), 1);
        let s = b.add_node(0);
        let a1 = b.add_node(1);
        let a2 = b.add_node(1);
        b.set_source(s);
        b.add_accepting(a1);
        b.add_accepting(a2);
        b.add_edge(s, 0, a1);
        b.add_edge(s, 1, a2);
        let robp = b.build().unwrap();
        assert_eq!(robp.sink(), a1, "smallest accepting node becomes the sink");
        let a = robp.alphabet().clone();
        assert!(robp.accepts(&Word::parse("0", &a).unwrap()));
        assert!(robp.accepts(&Word::parse("1", &a).unwrap()));
        assert_eq!(count_exact(&robp.to_nfa(), 1).unwrap().to_u64(), Some(2));
    }

    #[test]
    fn source_defaults_to_first_level_zero_node() {
        let mut b = RobpBuilder::new(Alphabet::binary(), 1);
        let s = b.add_node(0);
        let acc = b.add_node(1);
        b.add_accepting(acc);
        b.add_edge(s, 1, acc);
        let robp = b.build().unwrap();
        assert_eq!(robp.source(), s);
    }

    #[test]
    fn from_nfa_encodes_the_slice_exactly() {
        let nfa = contains_11();
        for n in 2..=6 {
            let robp = Robp::from_nfa(&nfa, n).unwrap();
            assert_eq!(robp.depth(), n);
            // Levels partition the nodes and edges advance one level.
            for (from, _, to) in robp.graph.transitions() {
                assert_eq!(robp.level_of(to), robp.level_of(from) + 1);
            }
            let expected = count_exact(&nfa, n).unwrap();
            let got = count_exact(&robp.to_nfa(), n).unwrap();
            assert_eq!(got, expected, "n = {n}");
            // Spot-check membership agreement on every length-n word.
            for idx in 0..(1u64 << n) {
                let w = Word::from_index(idx, n, 2);
                assert_eq!(robp.accepts(&w), nfa.accepts(&w), "n = {n}, idx = {idx}");
            }
        }
    }

    #[test]
    fn from_nfa_rejects_degenerates() {
        let nfa = contains_11();
        assert_eq!(Robp::from_nfa(&nfa, 0).unwrap_err(), RobpBuildError::ZeroDepth);
        // No length-1 word contains "11" → empty slice.
        assert_eq!(Robp::from_nfa(&nfa, 1).unwrap_err(), RobpBuildError::NoAcceptingNodes);
    }

    #[test]
    fn text_round_trip() {
        let robp = parity2();
        let text = to_text(&robp);
        let again = from_text(&text).unwrap();
        assert_eq!(robp, again);

        let nfa = contains_11();
        let robp = Robp::from_nfa(&nfa, 5).unwrap();
        let again = from_text(&to_text(&robp)).unwrap();
        assert_eq!(robp, again);
    }

    #[test]
    fn parse_error_reporting() {
        let e = from_text("alphabet 01\nlevels 0 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("depth must precede"));

        let e = from_text("alphabet 01\ndepth 1\nlevels 0 5\n").unwrap_err();
        assert!(e.message.contains("exceeds depth"));

        let e = from_text("alphabet 01\ndepth 1\nlevels 0 1\nedge 0 x 1\n").unwrap_err();
        assert!(e.message.contains("not in alphabet"));

        let e = from_text("alphabet 01\ndepth 2\nlevels 0 1 2\nedge 0 0 2\n").unwrap_err();
        assert!(e.message.contains("advance exactly one level"));

        assert!(from_text("").is_err());
    }

    /// `accepting` on a node below the last level is a parse error on
    /// its line, not a builder panic.
    #[test]
    fn accepting_off_last_level_is_a_parse_error() {
        let e = from_text("alphabet 01\ndepth 2\nlevels 0 1\naccepting 1\n").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("must be at the last level"), "{e}");
    }

    /// `source` on a node off level 0 is a parse error on its line.
    #[test]
    fn source_off_level_zero_is_a_parse_error() {
        let e = from_text("alphabet 01\ndepth 2\nlevels 0 1 2\nsource 2\n").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("must be at level 0"), "{e}");
    }
}
