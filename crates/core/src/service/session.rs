//! A checkpointable engine run serving `(A, n)` queries incrementally.

use crate::engine::policy::sampler_union_seed;
use crate::engine::{
    normalize_for_run, run_level, seed_level_zero, Deterministic, EngineCtx, LeveledSubstrate,
    NfaSubstrate, Pool, RobpSubstrate, UnionMemo,
};
use crate::error::FprasError;
use crate::generator::DEFAULT_RETRY_LIMIT;
use crate::intern::FrontierInterner;
use crate::obs::LatencyHistogram;
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::sampler::{sample_word, SamplerEnv, SamplerScratch};
use crate::service::{SessionPolicy, Source};
use crate::table::{RunTable, SampleOutcome};
use fpras_automata::{StateId, Word};
use fpras_numeric::ExtFloat;
use rand::Rng;
use std::sync::Arc;

/// Per-session query accounting: the amortization evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered (`estimate`, `estimate_range`, and `sample`
    /// each count one).
    pub queries_served: u64,
    /// `estimate`/`estimate_range` queries among them.
    pub estimate_queries: u64,
    /// `sample` queries among them.
    pub sample_queries: u64,
    /// DP levels built by this session (each level is built exactly
    /// once, however many queries touch it).
    pub levels_built: u64,
    /// Levels a query needed that were already built — the work a
    /// fresh-run-per-query deployment would have paid again.
    pub levels_reused: u64,
    /// Per-query latency distribution (answered queries only; refused
    /// and failed queries record nothing, like the counters above).
    /// Log-bucketed so registry aggregation is a lossless merge — see
    /// [`LatencyHistogram`].
    pub latency: LatencyHistogram,
}

impl SessionStats {
    /// Accumulates another session's counters (for registry aggregates).
    pub fn merge(&mut self, other: &SessionStats) {
        self.queries_served += other.queries_served;
        self.estimate_queries += other.estimate_queries;
        self.sample_queries += other.sample_queries;
        self.levels_built += other.levels_built;
        self.levels_reused += other.levels_reused;
        self.latency.merge(&other.latency);
    }

    /// Fraction of query-needed levels answered from the checkpoint.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.levels_built + self.levels_reused;
        if total == 0 {
            return 0.0;
        }
        self.levels_reused as f64 / total as f64
    }
}

/// The `session:` summary line that `nfa-count query` and `serve` print
/// (no trailing newline), plus a `latency:` line once a query was
/// answered. Latency quantiles are bucket upper edges (see
/// [`LatencyHistogram`]): conservative, mergeable across sessions
/// without raw samples.
impl std::fmt::Display for SessionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "session: queries={} levels_built={} levels_reused={} reuse_rate={:.3}",
            self.queries_served,
            self.levels_built,
            self.levels_reused,
            self.reuse_rate()
        )?;
        if let (Some(p50), Some(p99)) = (self.latency.quantile(0.5), self.latency.quantile(0.99)) {
            write!(f, "\nlatency: count={} p50_us<={p50} p99_us<={p99}", self.latency.count())?;
        }
        Ok(())
    }
}

/// The live state of a non-degenerate session: the leveled substrate
/// (D14) and the checkpointed engine run (everything `engine::run_level`
/// needs to continue where the last query stopped).
struct SessionInner {
    substrate: Box<dyn LeveledSubstrate>,
    /// The session-lifetime frontier interner: ids stay stable across
    /// extensions, so memo keys minted at level `k` keep working when a
    /// later query extends the run (the bit-identity invariant only
    /// needs the *tags*, which are content-keyed either way).
    interner: FrontierInterner,
    table: RunTable,
    memo: UnionMemo,
    sampler_seed: u64,
    q_final: StateId,
    /// Reusable sampler buffers for `sample` queries.
    scratch: SamplerScratch,
    /// Levels `1..=built` are finished (level 0 is seeded at creation).
    built: usize,
}

/// One automaton, compiled once, serving `estimate`/`sample` queries at
/// many lengths from a single checkpointable engine run.
///
/// See the [module docs](crate::service) for the architecture and the
/// bit-identity invariant (DESIGN.md D11) that makes incremental
/// extension safe. Construction rejects parameters whose per-level work
/// would depend on the run horizon (`trim_dead`; use
/// [`Params::for_session`]).
///
/// ```
/// use fpras_automata::{Alphabet, NfaBuilder};
/// use fpras_core::service::{QuerySession, SessionPolicy};
/// use fpras_core::Params;
///
/// let mut b = NfaBuilder::new(Alphabet::binary());
/// let q = b.add_state();
/// b.set_initial(q);
/// b.add_accepting(q);
/// b.add_transition(q, 0, q);
/// b.add_transition(q, 1, q);
/// let nfa = b.build().unwrap();
///
/// let params = Params::for_session(0.3, 0.1, 1, 16);
/// let policy = SessionPolicy::Deterministic { seed: 7, threads: 2 };
/// let mut session = QuerySession::new(&nfa, params, policy).unwrap();
/// let e8 = session.estimate(8).unwrap(); // builds levels 1..=8
/// let e4 = session.estimate(4).unwrap(); // served from the checkpoint
/// let e12 = session.estimate(12).unwrap(); // extends 9..=12 only
/// assert!((e8.to_f64() - 256.0).abs() / 256.0 < 0.3);
/// assert!((e4.to_f64() - 16.0).abs() / 16.0 < 0.3);
/// assert!((e12.to_f64() - 4096.0).abs() / 4096.0 < 0.3);
/// assert_eq!(session.stats().levels_built, 12);
/// assert_eq!(session.stats().levels_reused, 12); // 4 + 8
/// ```
pub struct QuerySession {
    params: Params,
    /// The normalized policy. The executor holds no evolving state at
    /// all (everything derives from the master seed), so the session
    /// stores only this configuration and spawns the worker pool per
    /// *extension*: an idle cached session pins zero OS threads (a
    /// registry full of multi-threaded sessions would otherwise park
    /// `capacity × (threads − 1)` workers), and the respawn cost is
    /// dwarfed by the level building it serves. Output is identical
    /// either way — scheduling never reaches it (D10).
    policy: SessionPolicy,
    /// Set via [`QuerySession::with_shared_pool`]: every extension
    /// borrows this one caller-owned parked-worker set instead of
    /// spawning its own, so N concurrent sessions multiplex onto a
    /// single worker fleet (D13). Idle sessions still pin zero threads
    /// of their own — the shared workers belong to the pool's owner.
    shared_pool: Option<Arc<Pool>>,
    /// `λ ∈ L(A)` of the *original* automaton (length-0 queries are
    /// answered directly, like the engine's `n = 0` path).
    accepts_lambda: bool,
    /// `None` when trimming removed every state: all positive-length
    /// slices are empty and every estimate is zero.
    inner: Option<SessionInner>,
    stats: SessionStats,
    run_stats: RunStats,
    /// Counters of the work done *serving* `sample` queries, kept apart
    /// from [`QuerySession::run_stats`] so serving never spends the
    /// level-building `max_membership_ops` budget — a busy session must
    /// not abort an extension a fresh run would complete (D11).
    query_stats: RunStats,
    /// A budget abort leaves the current level half-built; the session
    /// refuses further queries instead of serving from a torn table.
    poisoned: bool,
}

impl QuerySession {
    /// Compiles `source` into a fresh session under `params` and
    /// `policy`: an automaton (`&Nfa`) or an nROBP (`&Robp`, DESIGN.md
    /// D14), both through the one checkpointed run machinery. For a
    /// program, `estimate(n)` answers `|L(P)_n|`: the assignment count
    /// at `n = depth` and zero at every other length (a read-once
    /// program accepts only full assignments).
    ///
    /// Validates `params` ([`Params::validate`], the one shared checker)
    /// and additionally rejects `trim_dead`: which cells level `ℓ`
    /// processes must not depend on how far the run has been extended,
    /// or resumed sessions could not be bit-identical to fresh runs. A
    /// program also gets a depth guard: it reads each variable once, so
    /// its level views stop at `robp.depth()`, and `params.n_hint` must
    /// not exceed it. A source that accepts nothing at any positive
    /// length (fully trimmed automaton, empty program) is served
    /// degenerately.
    pub fn new<'a>(
        source: impl Into<Source<'a>>,
        params: Params,
        policy: SessionPolicy,
    ) -> Result<Self, FprasError> {
        params.validate()?;
        if params.trim_dead {
            return Err(FprasError::InvalidParams(
                "trim_dead prunes cells by distance-to-accepting at a fixed horizon, which an \
                 incrementally extended session does not have; build session params with \
                 Params::for_session (or set trim_dead = false)"
                    .into(),
            ));
        }
        let (accepts_lambda, substrate): (bool, Option<Box<dyn LeveledSubstrate>>) =
            match source.into() {
                Source::Nfa(nfa) => (
                    nfa.is_accepting(nfa.initial()),
                    normalize_for_run(nfa).map(|(normalized, q_final)| {
                        Box::new(NfaSubstrate::new(normalized, q_final, 0)) as _
                    }),
                ),
                Source::Robp(robp) => {
                    if params.n_hint > robp.depth() {
                        return Err(FprasError::InvalidParams(format!(
                            "session derivation length (n_hint = {}) exceeds the program depth \
                             {}: an nROBP reads each variable once, so no longer query could \
                             ever be served",
                            params.n_hint,
                            robp.depth()
                        )));
                    }
                    let substrate = RobpSubstrate::new(robp);
                    (false, substrate.language_nonempty().then(|| Box::new(substrate) as _))
                }
            };
        let policy = policy.normalized();
        let SessionPolicy::Deterministic { seed, .. } = policy;
        let inner = substrate.map(|substrate| {
            let m = substrate.universe();
            let mut table = RunTable::new(m, 0);
            seed_level_zero(&mut table, &*substrate, &params);
            SessionInner {
                interner: FrontierInterner::new(m),
                table,
                memo: UnionMemo::new(),
                sampler_seed: sampler_union_seed(seed),
                q_final: substrate.final_cell(),
                scratch: SamplerScratch::new(),
                built: 0,
                substrate,
            }
        });
        Ok(QuerySession {
            params,
            policy,
            shared_pool: None,
            accepts_lambda,
            inner,
            stats: SessionStats::default(),
            run_stats: RunStats::default(),
            query_stats: RunStats::default(),
            poisoned: false,
        })
    }

    /// The parameters the session runs under.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The policy the session was created with.
    pub fn policy(&self) -> &SessionPolicy {
        &self.policy
    }

    /// Query accounting (levels built vs. reused, queries served).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Cumulative engine counters of the session's *level building* —
    /// the work a fresh run at `levels_built()` would also pay, and the
    /// only ops counted against `Params::max_membership_ops`.
    pub fn run_stats(&self) -> &RunStats {
        &self.run_stats
    }

    /// Cumulative counters of the work done serving `sample` queries,
    /// tracked apart from [`QuerySession::run_stats`] so serving cannot
    /// spend the build budget (see the field docs).
    pub fn query_run_stats(&self) -> &RunStats {
        &self.query_stats
    }

    /// True once a budget abort has left the current level half-built;
    /// every further query fails fast ([`ServiceRegistry`](crate::service::ServiceRegistry) recycles
    /// such sessions on the next lookup).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The fail-fast guard every public query runs first.
    fn check_poisoned(&self) -> Result<(), FprasError> {
        if self.poisoned {
            return Err(FprasError::InvalidParams(
                "session poisoned by an earlier budget abort; create a new session".into(),
            ));
        }
        Ok(())
    }

    /// Refuses queries beyond the length the session's parameters were
    /// derived for: the error-budget splits are pinned to
    /// `Params::n_hint`, so serving longer would silently loosen the
    /// promised `(ε, δ)` — the same guard the engine applies to fresh
    /// runs. Build session params for the largest length you serve
    /// ([`Params::for_session`]'s `n`).
    fn check_horizon(&self, n: usize) -> Result<(), FprasError> {
        if n > self.params.n_hint {
            return Err(FprasError::InvalidParams(format!(
                "query length {n} exceeds the session's derivation length \
                 (n_hint = {}); open a session with larger params",
                self.params.n_hint
            )));
        }
        Ok(())
    }

    /// Highest finished level — queries `≤` this are free.
    pub fn levels_built(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.built)
    }

    /// Attaches a shared work-stealing [`Pool`]: every later extension
    /// borrows the caller's parked-worker set instead of spawning its
    /// own fleet, so many sessions multiplex onto one executor (D13 —
    /// the [`ServiceRegistry`](crate::service::ServiceRegistry) does
    /// this for every session it compiles at more than one thread).
    /// Scheduling never reaches the output (D10), so answers are
    /// bit-identical to a session with a private pool of any size. The
    /// extension's pass counters
    /// are still drained into this session's `run_stats` right after
    /// each extension, so per-session attribution survives sharing as
    /// long as sessions extend one at a time (the line-protocol serve
    /// loop is sequential by construction).
    pub fn with_shared_pool(mut self, pool: Arc<Pool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// Replaces the session's *level-building* membership-op budget
    /// (`Params::max_membership_ops`, compared against the cumulative
    /// [`QuerySession::run_stats`] ops). The budget is a resource cap,
    /// never an input: it can only turn a completing run into a
    /// [`FprasError::BudgetExceeded`] abort, not change a served value,
    /// so adjusting it between queries preserves the D11 bit-identity
    /// invariant. Serving front-ends use it to impose a **per-query**
    /// cap: set `run_stats().membership_ops + per_query_allowance`
    /// before each query (see `service::quota`). Note the budget field
    /// is part of [`Params::fingerprint`], so registry callers should
    /// keep looking sessions up under the key of the *construction*
    /// params rather than re-fingerprinting mutated ones.
    pub fn set_build_ops_budget(&mut self, max_ops: Option<u64>) {
        self.params.max_membership_ops = max_ops;
    }

    /// Extends the checkpointed run so levels `1..=n` are finished.
    ///
    /// Runs `engine::run_level` — the same function a fresh run loops
    /// over — for each missing level, with the session-owned policy and
    /// cumulative stats. On a budget abort the session is poisoned (the
    /// offending level is half-built) and every later query fails fast.
    fn ensure_built(&mut self, n: usize) -> Result<(), FprasError> {
        self.check_poisoned()?;
        let Some(inner) = self.inner.as_mut() else {
            return Ok(());
        };
        if n <= inner.built {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let SessionInner { substrate, interner, table, memo, sampler_seed, built, .. } = inner;
        substrate.ensure_horizon(n);
        table.grow(n);
        let ctx = EngineCtx {
            params: &self.params,
            substrate: &**substrate,
            interner,
            m: substrate.universe(),
            k: substrate.width() as u8,
            sampler_seed: *sampler_seed,
        };
        crate::obs::emit_with(|| crate::obs::TraceEvent::RunStart {
            substrate: substrate.kind(),
            policy: "deterministic",
            n,
            from_level: *built + 1,
        });
        // Workers live only for this extension unless a serving
        // front-end attached a shared pool (see the `policy` field
        // docs); output is pool-instance independent.
        let SessionPolicy::Deterministic { seed, threads } = self.policy;
        let exec = match &self.shared_pool {
            Some(pool) => Deterministic::with_pool(seed, Arc::clone(pool)),
            None => Deterministic::new(seed, threads),
        };
        let mut result = Ok(());
        for ell in *built + 1..=n {
            if let Err(e) = run_level(&ctx, table, memo, &mut self.run_stats, ell, &exec) {
                result = Err(e);
                break;
            }
            *built = ell;
        }
        // Executor evidence (D10), drained once per extension like a
        // fresh run drains it once per run.
        self.run_stats.pool.merge(&exec.take_pool_stats());
        // Snapshot (not merge): the interner is cumulative over the
        // session's whole life, so the latest reading is the total.
        self.run_stats.intern = interner.stats();
        let wall = start.elapsed();
        self.run_stats.wall += wall;
        // The session's cumulative build wall is one merged contribution
        // when the registry folds sessions together (wall_longest).
        self.run_stats.wall_max = self.run_stats.wall;
        crate::obs::emit_with(|| crate::obs::TraceEvent::RunEnd {
            ops: self.run_stats.membership_ops,
            wall_us: wall.as_micros() as u64,
        });
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    /// Records one *answered* query that needed levels `1..=n`, of
    /// which `1..=have` were already checkpointed when it arrived.
    ///
    /// Called only after the work succeeded — a failed or refused query
    /// must not fabricate amortization evidence (these counters feed
    /// `--stats`, [`ServiceRegistry::session_totals`], and the
    /// `BENCH_counter.json` query-trace rows).
    fn account_query(&mut self, n: usize, have: usize, estimate: bool) {
        // Degenerate sessions have nothing to build or reuse.
        if self.inner.is_some() {
            self.stats.levels_reused += n.min(have) as u64;
            self.stats.levels_built += n.saturating_sub(have) as u64;
        }
        self.stats.queries_served += 1;
        if estimate {
            self.stats.estimate_queries += 1;
        } else {
            self.stats.sample_queries += 1;
        }
    }

    /// Estimates `|L(A_n)|`, building only the levels no earlier query
    /// has finished. Bit-identical to a fresh engine run at `n` under
    /// the session's seed and policy (DESIGN.md D11).
    pub fn estimate(&mut self, n: usize) -> Result<ExtFloat, FprasError> {
        self.check_poisoned()?;
        self.check_horizon(n)?;
        let qstart = std::time::Instant::now();
        let have = self.levels_built();
        if n == 0 {
            self.account_query(0, have, true);
            self.stats.latency.record_duration(qstart.elapsed());
            return Ok(if self.accepts_lambda { ExtFloat::ONE } else { ExtFloat::ZERO });
        }
        self.ensure_built(n)?;
        self.account_query(n, have, true);
        self.stats.latency.record_duration(qstart.elapsed());
        let Some(inner) = self.inner.as_ref() else {
            return Ok(ExtFloat::ZERO);
        };
        Ok(inner.table.cell(n, inner.q_final as usize).n_est)
    }

    /// Estimates every slice `|L(A_ℓ)|` for `ℓ ∈ a..=b` from the one
    /// checkpointed run (one extension to `b`, then table reads).
    pub fn estimate_range(
        &mut self,
        range: std::ops::RangeInclusive<usize>,
    ) -> Result<Vec<ExtFloat>, FprasError> {
        self.check_poisoned()?;
        let (a, b) = (*range.start(), *range.end());
        if a > b {
            return Ok(Vec::new());
        }
        self.check_horizon(b)?;
        let qstart = std::time::Instant::now();
        let have = self.levels_built();
        self.ensure_built(b)?;
        self.account_query(b, have, true);
        self.stats.latency.record_duration(qstart.elapsed());
        Ok((a..=b)
            .map(|ell| {
                if ell == 0 {
                    if self.accepts_lambda {
                        ExtFloat::ONE
                    } else {
                        ExtFloat::ZERO
                    }
                } else {
                    self.inner
                        .as_ref()
                        .map_or(ExtFloat::ZERO, |i| i.table.cell(ell, i.q_final as usize).n_est)
                }
            })
            .collect())
    }

    /// Draws one almost-uniform word from `L(A_n)`, extending the run
    /// first when needed. Randomness comes from the **caller's** RNG —
    /// never the session's level-building stream — so serving samples
    /// cannot perturb a later extension (D11); the frontier-keyed memo
    /// entries a draw inserts hold exactly the values an in-run
    /// estimate would compute, so they are safe to keep. The drawing
    /// work is counted in [`QuerySession::query_run_stats`], not
    /// against the level-building op budget.
    ///
    /// Returns `None` when the slice is empty or every retry failed
    /// (same contract as [`crate::UniformGenerator::generate`]).
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
    ) -> Result<Option<Word>, FprasError> {
        self.check_poisoned()?;
        self.check_horizon(n)?;
        let qstart = std::time::Instant::now();
        let have = self.levels_built();
        if n == 0 {
            self.account_query(0, have, false);
            self.stats.latency.record_duration(qstart.elapsed());
            return Ok(if self.accepts_lambda { Some(Word::empty()) } else { None });
        }
        self.ensure_built(n)?;
        self.account_query(n, have, false);
        let Some(inner) = self.inner.as_mut() else {
            self.stats.latency.record_duration(qstart.elapsed());
            return Ok(None);
        };
        let start = std::time::Instant::now();
        let mut out = Ok(None);
        let env = SamplerEnv {
            params: &self.params,
            substrate: &*inner.substrate,
            interner: &inner.interner,
            sampler_seed: inner.sampler_seed,
        };
        for _ in 0..DEFAULT_RETRY_LIMIT {
            match sample_word(
                &env,
                &inner.table,
                &inner.memo,
                inner.q_final,
                n,
                rng,
                &mut inner.scratch,
                &mut self.query_stats,
            ) {
                SampleOutcome::Word(w) => {
                    out = Ok(Some(w));
                    break;
                }
                SampleOutcome::DeadEnd => break,
                SampleOutcome::FailPhi | SampleOutcome::FailCoin => {}
            }
        }
        self.query_stats.wall += start.elapsed();
        self.query_stats.wall_max = self.query_stats.wall;
        self.stats.latency.record_duration(qstart.elapsed());
        out
    }

    /// True iff the length-`n` slice is empty — a `sample(n)` that
    /// returned `None` on a **non**-empty slice merely exhausted its
    /// retries (Theorem 2's `⊥` outcomes) and is worth retrying, which
    /// is a different situation than an empty slice that can never
    /// yield a word. Extends the run like [`QuerySession::estimate`]
    /// (without counting a query).
    pub fn slice_is_empty(&mut self, n: usize) -> Result<bool, FprasError> {
        self.check_poisoned()?;
        self.check_horizon(n)?;
        if n == 0 {
            return Ok(!self.accepts_lambda);
        }
        self.ensure_built(n)?;
        let Some(inner) = self.inner.as_ref() else {
            return Ok(true);
        };
        Ok(inner.table.cell(n, inner.q_final as usize).n_est.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::FprasRun;
    use crate::engine::run_parallel;
    use fpras_automata::exact::count_exact;
    use fpras_automata::robp::Robp;
    use fpras_automata::{Alphabet, Nfa, NfaBuilder};
    use rand::{rngs::SmallRng, RngExt, SeedableRng};

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

    #[test]
    fn trim_dead_rejected() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 8);
        assert!(params.trim_dead);
        let err = QuerySession::new(&nfa, params, one_thread(1));
        assert!(matches!(err, Err(FprasError::InvalidParams(_))));
    }

    #[test]
    fn invalid_params_rejected() {
        let nfa = contains_11();
        let mut params = Params::for_session(0.3, 0.1, 3, 8);
        params.eps = 2.0;
        let err = QuerySession::new(&nfa, params, one_thread(1));
        assert!(matches!(err, Err(FprasError::InvalidParams(_))));
    }

    /// The single-threaded session policy at `seed`.
    fn one_thread(seed: u64) -> SessionPolicy {
        SessionPolicy::Deterministic { seed, threads: 1 }
    }

    /// The session policy a fresh `FprasRun::run` with a caller RNG
    /// seeded `rng_seed` runs under: the master seed it draws first.
    fn seeded_by_rng(rng_seed: u64) -> SessionPolicy {
        one_thread(SmallRng::seed_from_u64(rng_seed).random())
    }

    #[test]
    fn incremental_matches_fresh_serial_bitwise() {
        // The single-threaded, caller-RNG entry point is a fresh run at
        // the master seed it draws, so a session at that seed answers
        // it bit for bit.
        let nfa = contains_11();
        let params = Params::for_session(0.3, 0.1, 3, 12);
        let mut session = QuerySession::new(&nfa, params.clone(), seeded_by_rng(9)).unwrap();
        // Mixed query order: extend, slice back, extend again.
        for n in [5usize, 3, 9, 7, 12, 9] {
            let got = session.estimate(n).unwrap();
            let mut rng = SmallRng::seed_from_u64(9);
            let fresh = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
            assert_eq!(got, fresh.estimate(), "n = {n}");
        }
    }

    #[test]
    fn incremental_matches_fresh_deterministic_bitwise() {
        let nfa = contains_11();
        let params = Params::for_session(0.3, 0.1, 3, 12);
        for threads in [1usize, 2, 8] {
            let mut session = QuerySession::new(
                &nfa,
                params.clone(),
                SessionPolicy::Deterministic { seed: 4, threads },
            )
            .unwrap();
            for n in [6usize, 2, 11, 6] {
                let got = session.estimate(n).unwrap();
                let fresh = run_parallel(&nfa, n, &params, 4, threads).unwrap();
                assert_eq!(got, fresh.estimate(), "threads = {threads}, n = {n}");
            }
        }
    }

    #[test]
    fn interleaved_sampling_does_not_perturb_extension() {
        // Sampling consumes caller randomness and inserts only
        // frontier-keyed memo entries, so an extension after thousands
        // of draws must still be bit-identical to a fresh run (D11,
        // property 3).
        let nfa = contains_11();
        let params = Params::for_session(0.3, 0.1, 3, 12);
        let mut session = QuerySession::new(&nfa, params.clone(), seeded_by_rng(2)).unwrap();
        session.estimate(6).unwrap();
        let mut caller = SmallRng::seed_from_u64(1234);
        for _ in 0..50 {
            if let Some(w) = session.sample(6, &mut caller).unwrap() {
                assert_eq!(w.len(), 6);
                assert!(nfa.accepts(&w));
            }
        }
        let got = session.estimate(12).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let fresh = FprasRun::run(&nfa, 12, &params, &mut rng).unwrap();
        assert_eq!(got, fresh.estimate());
    }

    #[test]
    fn estimate_range_and_accuracy() {
        let nfa = contains_11();
        let params = Params::for_session(0.25, 0.1, 3, 10);
        let mut session =
            QuerySession::new(&nfa, params, SessionPolicy::Deterministic { seed: 3, threads: 2 })
                .unwrap();
        let slices = session.estimate_range(0..=10).unwrap();
        assert_eq!(slices.len(), 11);
        assert!(slices[0].is_zero());
        assert!(slices[1].is_zero());
        for (ell, slice) in slices.iter().enumerate().skip(2) {
            let exact = count_exact(&nfa, ell).unwrap().to_f64();
            let err = (slice.to_f64() - exact).abs() / exact;
            assert!(err < 0.4, "level {ell}: err {err}");
        }
        // One query, ten levels built, nothing reused yet.
        assert_eq!(session.stats().queries_served, 1);
        assert_eq!(session.stats().levels_built, 10);
        assert_eq!(session.stats().levels_reused, 0);
        // A second, narrower range reuses everything.
        session.estimate_range(4..=8).unwrap();
        assert_eq!(session.stats().levels_reused, 8);
        assert!(session.stats().reuse_rate() > 0.0);
    }

    #[test]
    fn lambda_and_empty_slices() {
        let nfa = contains_11();
        let params = Params::for_session(0.3, 0.1, 3, 4);
        let mut session = QuerySession::new(&nfa, params, one_thread(5)).unwrap();
        assert!(session.estimate(0).unwrap().is_zero(), "λ ∉ L");
        assert!(session.estimate(1).unwrap().is_zero(), "no length-1 word contains 11");
        assert_eq!(session.sample(1, &mut SmallRng::seed_from_u64(0)).unwrap(), None);
        assert_eq!(session.sample(0, &mut SmallRng::seed_from_u64(0)).unwrap(), None);
    }

    #[test]
    fn degenerate_automaton_serves_zeroes() {
        // Unreachable accepting state ⇒ trim removes everything.
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q1);
        b.add_transition(q0, 0, q0);
        let nfa = b.build().unwrap();
        let params = Params::for_session(0.3, 0.1, 1, 4);
        let mut session = QuerySession::new(&nfa, params, one_thread(5)).unwrap();
        assert!(session.estimate(3).unwrap().is_zero());
        assert_eq!(session.sample(3, &mut SmallRng::seed_from_u64(0)).unwrap(), None);
        assert_eq!(session.levels_built(), 0);
        assert_eq!(session.stats().levels_built, 0);
    }

    #[test]
    fn budget_abort_poisons_session() {
        let nfa = contains_11();
        let mut params = Params::for_session(0.3, 0.1, 3, 8);
        params.max_membership_ops = Some(10);
        let mut session = QuerySession::new(&nfa, params, one_thread(1)).unwrap();
        assert!(matches!(session.estimate(8), Err(FprasError::BudgetExceeded { .. })));
        assert!(session.is_poisoned());
        // Poisoned: every query surface refuses, including the n = 0
        // early paths that never touch the table.
        assert!(session.estimate(1).is_err());
        assert!(session.estimate(0).is_err());
        assert!(session.estimate_range(0..=0).is_err());
        assert!(session.sample(0, &mut SmallRng::seed_from_u64(0)).is_err());
        // Failed and refused queries must not fabricate amortization
        // evidence — the stats feed --stats and the bench rows.
        assert_eq!(session.stats(), &SessionStats::default());
    }

    #[test]
    fn queries_beyond_the_derivation_length_are_refused() {
        // The error-budget splits are pinned to n_hint; serving longer
        // would silently loosen (ε, δ), so the session (like the
        // engine) refuses loudly — and a refused query must not touch
        // the stats.
        let nfa = contains_11();
        let params = Params::for_session(0.3, 0.1, 3, 6);
        let mut session = QuerySession::new(&nfa, params.clone(), one_thread(1)).unwrap();
        assert!(matches!(session.estimate(7), Err(FprasError::InvalidParams(_))));
        assert!(session.estimate_range(0..=7).is_err());
        assert!(session.sample(7, &mut SmallRng::seed_from_u64(0)).is_err());
        assert_eq!(session.stats(), &SessionStats::default());
        session.estimate(6).unwrap();
        // The engine applies the same guard to fresh runs.
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            FprasRun::run(&nfa, 7, &params, &mut rng),
            Err(FprasError::InvalidParams(_))
        ));
    }

    #[test]
    fn sampling_does_not_spend_the_build_budget() {
        // Serving work is accounted in query_run_stats, never against
        // max_membership_ops: a budget that admits the build must keep
        // admitting extensions no matter how many samples were served.
        let nfa = contains_11();
        let mut params = Params::for_session(0.3, 0.1, 3, 8);
        // Probe the unbudgeted build cost of all 8 levels.
        let full_build = {
            let mut s = QuerySession::new(&nfa, params.clone(), one_thread(3)).unwrap();
            s.estimate(8).unwrap();
            s.run_stats().membership_ops
        };
        params.max_membership_ops = Some(full_build);
        let mut session = QuerySession::new(&nfa, params, one_thread(3)).unwrap();
        session.estimate(4).unwrap();
        let build_ops = session.run_stats().membership_ops;
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..30 {
            session.sample(4, &mut rng).unwrap();
        }
        assert_eq!(session.run_stats().membership_ops, build_ops, "serving must not build");
        assert!(session.query_run_stats().sample_calls >= 30);
        // The extension still fits the budget, exactly like a fresh run.
        session.estimate(8).unwrap();
        assert!(!session.is_poisoned());
        assert!(session.run_stats().membership_ops <= full_build);
    }

    /// A depth-4 program encoding `contains_11`'s length-4 slice, so
    /// the exact count is known (8 words of length 4 contain `11`).
    fn robp_contains_11() -> fpras_automata::robp::Robp {
        Robp::from_nfa(&contains_11(), 4).unwrap()
    }

    #[test]
    fn robp_session_matches_fresh_robp_run_bitwise() {
        let robp = robp_contains_11();
        let params = Params::for_session(0.3, 0.1, robp.num_nodes(), 4);
        let mut session = QuerySession::new(&robp, params.clone(), seeded_by_rng(9)).unwrap();
        // Partial-depth query first: the later full-depth query resumes
        // from the checkpoint and must still equal a fresh run.
        assert!(session.estimate(2).unwrap().is_zero(), "no sink at level 2");
        let got = session.estimate(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let fresh = FprasRun::run_robp(&robp, &params, &mut rng).unwrap();
        assert_eq!(got, fresh.estimate());
        let exact = count_exact(&robp.to_nfa(), 4).unwrap().to_f64();
        assert!((got.to_f64() - exact).abs() / exact < 0.3);
        // Sampled assignments are genuine members of the language.
        let mut caller = SmallRng::seed_from_u64(5);
        let mut drawn = 0;
        for _ in 0..20 {
            if let Some(w) = session.sample(4, &mut caller).unwrap() {
                assert!(robp.accepts(&w));
                drawn += 1;
            }
        }
        assert!(drawn > 0);
    }

    #[test]
    fn robp_session_rejects_horizons_beyond_depth() {
        let robp = robp_contains_11();
        // n_hint exceeding the program depth can never be served.
        let params = Params::for_session(0.3, 0.1, robp.num_nodes(), 5);
        let err = QuerySession::new(&robp, params, one_thread(1));
        assert!(matches!(err, Err(FprasError::InvalidParams(_))));
        // At the depth itself, queries past n_hint are refused like any
        // session (and λ is never accepted).
        let params = Params::for_session(0.3, 0.1, robp.num_nodes(), 4);
        let mut session = QuerySession::new(&robp, params, one_thread(1)).unwrap();
        assert!(session.estimate(5).is_err());
        assert!(session.estimate(0).unwrap().is_zero());
    }

    #[test]
    fn robp_session_deterministic_matches_serial_policy_surface() {
        // The thread count is scheduling-only on every substrate: a
        // Deterministic robp session at any thread count answers
        // exactly like a fresh Deterministic run.
        let robp = robp_contains_11();
        let params = Params::for_session(0.3, 0.1, robp.num_nodes(), 4);
        for threads in [1usize, 2, 8] {
            let mut session = QuerySession::new(
                &robp,
                params.clone(),
                SessionPolicy::Deterministic { seed: 4, threads },
            )
            .unwrap();
            let got = session.estimate(4).unwrap();
            let fresh = crate::engine::run_robp_parallel(&robp, &params, 4, threads).unwrap();
            assert_eq!(got, fresh.estimate(), "threads = {threads}");
        }
    }

    #[test]
    fn sampled_words_are_valid_and_stats_accumulate() {
        let nfa = contains_11();
        let params = Params::for_session(0.3, 0.1, 3, 8);
        let mut session =
            QuerySession::new(&nfa, params, SessionPolicy::Deterministic { seed: 6, threads: 2 })
                .unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut drawn = 0;
        for _ in 0..20 {
            if let Some(w) = session.sample(8, &mut rng).unwrap() {
                assert_eq!(w.len(), 8);
                assert!(nfa.accepts(&w));
                drawn += 1;
            }
        }
        assert!(drawn > 0);
        assert_eq!(session.stats().sample_queries, 20);
        assert_eq!(session.stats().levels_built, 8);
        assert_eq!(session.stats().levels_reused, 8 * 19);
        assert!(session.run_stats().membership_ops > 0);
    }
}
