//! The query-session service layer: serve many `(A, n)` queries from
//! one process, reusing finished DP levels across related lengths.
//!
//! The FPRAS builds its `(N, S)` table level by level, and level `ℓ`
//! reads only levels `< ℓ` — so a run to length `n` already contains
//! the answer to every length `≤ n`, and can *continue* to `n' > n`
//! without starting over (the observation de Colnet & Meel's "Towards
//! practical FPRAS for #NFA" builds its reuse on). This module turns
//! that into a serving architecture:
//!
//! * [`QuerySession`] — compiles an automaton once and owns a
//!   **checkpointable** engine run: the level loop can pause after
//!   level `k` and resume to `k' > k`, carrying the
//!   [`UnionMemo`](crate::engine::UnionMemo), the sketch table, and the
//!   per-run sampler seed. `estimate(n)` / `estimate_range(a..=b)` /
//!   `sample(n)` answer from finished levels when they can and extend
//!   the run when they must.
//! * [`ServiceRegistry`] — an LRU cache of sessions keyed by automaton
//!   fingerprint × [`Params::fingerprint`](crate::Params::fingerprint) × [`SessionPolicy`], so a
//!   stream of mixed-automaton queries turns into session cache hits.
//! * [`Server`] — the one serve data path: named tenants over one
//!   registry, quota admission, level ledgers, recycle notices and a
//!   server-wide sample stream, driven one request line at a time
//!   ([`serve_stream`] is the `BufRead → Server → Write` loop behind
//!   `nfa-count serve`).
//! * [`SessionStats`] / [`ServiceStats`] — levels built vs. reused and
//!   session churn, the amortization evidence the bench layer records.
//!
//! # The bit-identity invariant (DESIGN.md D11)
//!
//! The load-bearing correctness claim: after **any** interleaving of
//! smaller and larger queries, `session.estimate(n)` is **bit-identical**
//! to a fresh [`run_parallel`](crate::engine::run_parallel) at `n`
//! under the same seed. Three properties make it hold:
//!
//! 1. per-level work is a function of `(Params, level, table, memo)`
//!    alone — the horizon-dependent inputs were pinned into
//!    [`Params::n_hint`](crate::Params::n_hint) (sampler δ split, noise probability), and the
//!    one remaining horizon-dependent knob, `Params::trim_dead`, is
//!    rejected at session construction ([`Params::for_session`](crate::Params::for_session) turns
//!    it off);
//! 2. all estimation randomness is frontier/level-keyed (D8/D9/D10), so
//!    resuming at level `k + 1` derives exactly the streams a fresh run
//!    would;
//! 3. sampling queries draw from a **caller-provided** RNG and insert
//!    only frontier-keyed (hence value-congruent) memo entries, so
//!    serving a query cannot perturb a later extension.
//!
//! `proptest_service.rs` enforces the invariant at threads 1/2/8 over
//! random automata and random query orders.

mod quota;
mod registry;
mod server;
mod session;

pub use quota::{AdmissionController, QuotaConfig, QuotaDenied, QuotaStats};
pub use registry::{nfa_fingerprint, robp_fingerprint, ServiceRegistry, ServiceStats, SessionKey};
pub use server::{
    load_automaton, parse_flag_value, parse_threads, serve_stream, Query, Reply, ServeError,
    Server, ServerConfig, SessionSpec, StreamError,
};
pub use session::{QuerySession, SessionStats};

use fpras_automata::robp::Robp;
use fpras_automata::Nfa;

/// What a session is compiled from: one of the engine's two leveled
/// substrates (DESIGN.md D14). Every service entry point that needs an
/// input takes `impl Into<Source>`, so `&Nfa` and `&Robp` both pass
/// straight through one constructor, one key and one registry lookup.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// A word automaton: sessions answer `|L(A_n)|` for every `n`.
    Nfa(&'a Nfa),
    /// A non-deterministic read-once branching program: sessions answer
    /// its assignment count at `n = depth`.
    Robp(&'a Robp),
}

impl<'a> From<&'a Nfa> for Source<'a> {
    fn from(nfa: &'a Nfa) -> Self {
        Source::Nfa(nfa)
    }
}

impl<'a> From<&'a Robp> for Source<'a> {
    fn from(robp: &'a Robp) -> Self {
        Source::Robp(robp)
    }
}

impl Source<'_> {
    /// The structural fingerprint of the input: [`nfa_fingerprint`] or
    /// [`robp_fingerprint`], whose disjoint seed constants partition
    /// the [`SessionKey`] space between the substrates.
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            Source::Nfa(nfa) => nfa_fingerprint(nfa),
            Source::Robp(robp) => robp_fingerprint(robp),
        }
    }
}

/// How a [`QuerySession`] executes and seeds its engine run.
///
/// The session-owned configuration of the engine's one executor,
/// [`Deterministic`](crate::engine::Deterministic): a session outlives
/// many queries and derives all of its randomness from the master seed.
/// The policy is part of the [`ServiceRegistry`] cache key — sessions
/// with different seeds never alias. It stays an enum with one variant
/// so callers that name `SessionPolicy::Deterministic` keep compiling.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SessionPolicy {
    /// The engine's `Deterministic` executor: per-cell streams derived
    /// from `seed`, passes fanned out over `threads` workers.
    /// Bit-identical output for every `threads ≥ 1`.
    Deterministic {
        /// Master seed for the derived per-cell streams.
        seed: u64,
        /// Worker-thread cap (`≥ 1`; clamped up from 0).
        threads: usize,
    },
}

impl SessionPolicy {
    /// Short label for diagnostics and experiment tables.
    pub fn label(&self) -> String {
        let SessionPolicy::Deterministic { threads, .. } = self;
        format!("deterministic×{threads}")
    }

    /// The canonical form used everywhere the policy *means* something
    /// (session construction, [`SessionKey`] hashing): `Deterministic`
    /// thread counts are clamped to `≥ 1`, exactly as the engine clamps
    /// them — so `threads: 0` and `threads: 1`, which behave
    /// identically, share one cache entry instead of compiling two
    /// sessions.
    pub fn normalized(&self) -> SessionPolicy {
        let SessionPolicy::Deterministic { seed, threads } = *self;
        SessionPolicy::Deterministic { seed, threads: threads.max(1) }
    }
}
