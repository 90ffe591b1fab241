//! The serve core: named tenants multiplexed over one registry, driven
//! one request line at a time (see [`Server`]).

use crate::error::FprasError;
use crate::obs::{self, JsonlSink, PromText, TraceEvent};
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::service::{
    AdmissionController, QuerySession, QuotaConfig, QuotaDenied, QuotaStats, ServiceRegistry,
    SessionKey, SessionPolicy,
};
use crate::MAX_THREADS;
use fpras_automata::{parse, regex, Alphabet, Nfa, Word};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};
use std::fmt;
use std::io::{self, BufRead, Write};
use std::ops::ControlFlow;
use std::str::SplitWhitespace;

/// Most words one `sample N COUNT` line may ask for. Each line is
/// answered in full before the next is read, so an unbounded `COUNT`
/// would stream words forever and starve every other tenant.
const MAX_SAMPLES_PER_LINE: usize = 4096;

/// Live sessions the registry holds when `max_sessions` is unset:
/// enough for small multi-tenant scripts, bounded so a runaway client
/// cannot pin unbounded memory (evicted sessions rebuild on demand —
/// eviction is not rejection).
const DEFAULT_REGISTRY_CAPACITY: usize = 8;

/// Parses `flag`'s value, naming the flag and the offending token in
/// the error — the one flag-value check of the argv parsers and the
/// `open` line.
pub fn parse_flag_value<T: std::str::FromStr>(flag: &str, raw: Option<&str>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("missing value for {flag}"))?;
    raw.parse::<T>().map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

/// Parses a `--threads` value and bounds it to `1..=MAX_THREADS`: every
/// worker past the first is an OS thread, so each input boundary (argv
/// flags and `open` lines) refuses counts outside that range.
pub fn parse_threads(raw: Option<&str>) -> Result<usize, String> {
    let threads: usize = parse_flag_value("--threads", raw)?;
    if (1..=MAX_THREADS).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!("--threads must be between 1 and {MAX_THREADS}, got {threads}"))
    }
}

/// Loads an automaton from a binary-alphabet regex or a `.nfa` file —
/// exactly one of the two. Every failure (including both or neither
/// source) is an `Err` the caller renders as a usage error or an
/// `error:` line.
pub fn load_automaton(regex_pattern: Option<&str>, file: Option<&str>) -> Result<Nfa, String> {
    match (regex_pattern, file) {
        (Some(pattern), None) => regex::compile_regex(pattern, &Alphabet::binary())
            .map_err(|e| format!("cannot compile regex: {e}")),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        (Some(_), Some(_)) => Err("--regex and --file are mutually exclusive".to_string()),
        (None, None) => Err("an automaton source (--regex or --file) is required".to_string()),
    }
}

/// The settings a session is built with (`nfa-count serve`/`query`
/// flags). A [`ServerConfig`]'s spec is both the default of every
/// `open` and its ceiling: a tenant may ask for a smaller `max_n` or a
/// looser `eps`/`delta`, never for more work.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Target relative error ε.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Master seed of the session.
    pub seed: u64,
    /// Worker threads of the session (`1..=MAX_THREADS`).
    pub threads: usize,
    /// Largest length the session's parameters are derived for; longer
    /// queries are refused.
    pub max_n: usize,
}

impl Default for SessionSpec {
    /// The `nfa-count` defaults: ε = 0.2, δ = 0.05, seed 42, one
    /// thread, lengths up to 64.
    fn default() -> Self {
        SessionSpec { eps: 0.2, delta: 0.05, seed: 42, threads: 1, max_n: 64 }
    }
}

impl SessionSpec {
    /// The session parameters for `nfa` under this spec.
    pub fn params(&self, nfa: &Nfa) -> Params {
        Params::for_session(self.eps, self.delta, nfa.num_states(), self.max_n)
    }

    /// The session policy under this spec.
    pub fn policy(&self) -> SessionPolicy {
        SessionPolicy::Deterministic { seed: self.seed, threads: self.threads }
    }

    /// Refuses a spec that asks for more work than `ceiling` allows.
    /// The cost of a session grows with `max_n` and with `1/ε²` and
    /// `log(1/δ)`, so one `open` past the server's own settings could
    /// hold the line loop for minutes and starve every other tenant.
    fn check_within(&self, ceiling: &SessionSpec) -> Result<(), String> {
        if self.max_n > ceiling.max_n {
            return Err(format!(
                "--max-n {} is above this server's --max-n {}",
                self.max_n, ceiling.max_n
            ));
        }
        for (flag, asked, limit) in
            [("--eps", self.eps, ceiling.eps), ("--delta", self.delta, ceiling.delta)]
        {
            if asked.is_nan() || asked < limit {
                return Err(format!("{flag} {asked} is below this server's {flag} {limit}"));
            }
        }
        Ok(())
    }
}

/// How a [`Server`] is set up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerConfig {
    /// Default and ceiling of every tenant's settings.
    pub spec: SessionSpec,
    /// Per-tenant quotas; `max_sessions` also sizes the registry.
    pub quota: QuotaConfig,
}

/// A data request: the part of the protocol that reaches a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `estimate N`: one slice count.
    Estimate(usize),
    /// `range A B`: every slice count of `A..=B` (`A ≤ B`).
    Range(usize, usize),
    /// `sample N COUNT`: `COUNT` words of `L(A_N)` from the server's
    /// sample stream.
    Sample(usize, usize),
}

impl Query {
    /// The largest level the query needs — what the level quota prices.
    fn horizon(&self) -> usize {
        match *self {
            Query::Estimate(n) | Query::Sample(n, _) => n,
            Query::Range(_, b) => b,
        }
    }
}

/// One piece of a query's answer, handed to the caller as it is
/// produced. `Display` renders the protocol line (without newline).
#[derive(Debug)]
pub enum Reply<'a> {
    /// The tenant's previous session died to a budget abort and was
    /// recycled; the query is served by the fresh replacement.
    Recycled,
    /// `|L(A_n)| ≈ value`.
    Estimate(usize, ExtFloat),
    /// A word drawn from `L(A_n)`.
    Word {
        /// The length.
        n: usize,
        /// The drawn word.
        word: &'a Word,
        /// The tenant's alphabet, to print the word with.
        alphabet: &'a Alphabet,
    },
    /// The slice `L(A_n)` is empty; the batch stops here.
    EmptySlice(usize),
    /// A draw exhausted its retries on a non-empty slice (transient).
    RetriesExhausted(usize),
}

impl fmt::Display for Reply<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Recycled => write!(f, "error: session recycled after budget abort"),
            Reply::Estimate(n, est) => write!(f, "estimate {n} = {est} (log2 {:.3})", est.log2()),
            Reply::Word { n, word, alphabet } => {
                write!(f, "sample {n} = {}", word.display(alphabet))
            }
            Reply::EmptySlice(n) => write!(f, "sample {n} = (empty slice)"),
            Reply::RetriesExhausted(n) => write!(f, "sample {n} = (retries exhausted)"),
        }
    }
}

/// Why a request was answered with an `error:` line (or, for
/// [`ServeError::Io`], could not be answered at all).
#[derive(Debug)]
pub enum ServeError {
    /// A malformed or misplaced request; the text is the message.
    Usage(String),
    /// Admission control turned the request away.
    Denied(QuotaDenied),
    /// The session could not be built or the query failed.
    Engine(FprasError),
    /// Writing the response failed.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Usage(msg) => f.write_str(msg),
            ServeError::Denied(d) => d.fmt(f),
            ServeError::Engine(e) => e.fmt(f),
            ServeError::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<String> for ServeError {
    fn from(msg: String) -> Self {
        ServeError::Usage(msg)
    }
}

impl From<&str> for ServeError {
    fn from(msg: &str) -> Self {
        ServeError::Usage(msg.to_string())
    }
}

impl From<FprasError> for ServeError {
    fn from(e: FprasError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One open named session. The session itself lives in the registry
/// (looked up by `key` per query, so a poisoned one is recycled); the
/// tenant carries what must outlive recycles: the construction inputs
/// and the level-quota ledger.
struct Tenant {
    name: String,
    nfa: Nfa,
    params: Params,
    policy: SessionPolicy,
    key: SessionKey,
    /// Cumulative DP levels this tenant has built, across every
    /// incarnation of its session — the `max_total_levels` ledger.
    levels_ledger: u64,
}

/// The multi-tenant serve state machine behind `nfa-count serve`.
///
/// It owns the whole serve data path — the registry (one shared
/// worker pool per thread count, D13), the [`AdmissionController`], the
/// tenants with their level ledgers, the recycle notice after a budget
/// abort, and the server-wide sample stream. Two entry points share it:
///
/// * the **line** entry point, [`Server::handle_line`]: one request line
///   in, exactly one response out (one or more complete lines; a
///   `sample N COUNT` batch streams word by word into the caller's
///   writer). [`serve_stream`] loops it over a `BufRead`, which is all
///   `nfa-count serve` does with stdin;
/// * the **typed** pair, [`Server::open`] / [`Server::query`], which the
///   line entry point parses into and which in-process callers (the
///   bench load harness) call directly.
///
/// Query latency has one definition across both: the `QuerySession`
/// call, recorded in [`SessionStats::latency`](crate::service::SessionStats::latency).
/// Lookup, admission and denied queries are not part of it.
///
/// ```
/// use fpras_core::service::{Server, ServerConfig};
///
/// let mut server = Server::new(ServerConfig::default());
/// let mut out = Vec::new();
/// for line in ["open a --regex 1*", "estimate 3", "bogus"] {
///     server.handle_line(line.as_bytes(), &mut out).unwrap();
/// }
/// let out = String::from_utf8(out).unwrap();
/// let lines: Vec<&str> = out.lines().collect();
/// assert!(lines[0].starts_with("opened a (2 states"));
/// assert!(lines[1].starts_with("estimate 3 = 1 "));
/// assert_eq!(lines[2], "error: unknown command \"bogus\"");
/// ```
pub struct Server {
    /// Default and ceiling of every tenant's settings.
    spec: SessionSpec,
    registry: ServiceRegistry,
    admission: AdmissionController,
    tenants: Vec<Tenant>,
    /// The tenant data requests go to (`open` and `use` select).
    current: Option<usize>,
    /// The serve-process sample stream: one RNG for every tenant, so
    /// sample outputs depend on the whole command history (sessions own
    /// their *build* randomness; D11 is about estimates, not about which
    /// witness a shared server stream draws next).
    sample_rng: SmallRng,
}

impl Server {
    /// A server with no tenants.
    pub fn new(config: ServerConfig) -> Self {
        let capacity = config.quota.max_sessions.unwrap_or(DEFAULT_REGISTRY_CAPACITY);
        Server {
            sample_rng: SmallRng::seed_from_u64(config.spec.seed ^ 0x05A3_F1E5),
            spec: config.spec,
            registry: ServiceRegistry::new(capacity),
            admission: AdmissionController::new(config.quota),
            tenants: Vec::new(),
            current: None,
        }
    }

    /// The session cache (live sessions, churn and query totals).
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// Admission denials and budget aborts so far.
    pub fn quota_stats(&self) -> &QuotaStats {
        self.admission.stats()
    }

    /// The engine counters of every live session, level building and
    /// sample serving merged. Folding sessions sums their walls
    /// (serial-equivalent time); `wall_longest` keeps the largest single
    /// session's wall.
    pub fn run_stats(&self) -> RunStats {
        let mut merged = RunStats::default();
        for session in self.registry.sessions() {
            merged.merge(session.run_stats());
            merged.merge(session.query_run_stats());
        }
        merged
    }

    /// Opens tenant `name` over `nfa` under `spec` and selects it:
    /// refuses a duplicate name or a spec above the server's ceiling,
    /// runs session admission, and compiles the session eagerly so
    /// parameter errors surface here, not on the first query. Returns
    /// the `opened …` response line.
    pub fn open(&mut self, name: &str, nfa: Nfa, spec: SessionSpec) -> Result<String, ServeError> {
        self.open_with(name, spec, || Ok(nfa))
    }

    /// [`Server::open`] with the automaton load deferred until every
    /// check that needs no automaton has passed, so a refused `open`
    /// line never parses a file or compiles a regex.
    fn open_with(
        &mut self,
        name: &str,
        spec: SessionSpec,
        load: impl FnOnce() -> Result<Nfa, String>,
    ) -> Result<String, ServeError> {
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(
                format!("session {name:?} already open (select it with: use {name})").into()
            );
        }
        spec.check_within(&self.spec)?;
        self.admission.admit_session(self.tenants.len()).map_err(|d| denied(name, d))?;
        let nfa = load()?;
        let params = spec.params(&nfa);
        let policy = spec.policy();
        let key = SessionKey::new(&nfa, &params, &policy);
        self.registry.session_with_key_recycled(key.clone(), &nfa, &params, &policy)?;
        let line = format!(
            "opened {name} ({} states, {} transitions, {})",
            nfa.num_states(),
            nfa.num_transitions(),
            policy.label()
        );
        obs::emit_with(|| TraceEvent::SessionOpen { tenant: name.to_string() });
        self.tenants.push(Tenant {
            name: name.to_string(),
            nfa,
            params,
            policy,
            key,
            levels_ledger: 0,
        });
        self.current = Some(self.tenants.len() - 1);
        Ok(line)
    }

    /// Answers `query` for tenant `name`, handing each piece of the
    /// answer to `reply` as it is produced. Runs level admission (a
    /// denial does no work), installs the per-query op budget, and
    /// books the levels built on the tenant's ledger. A budget abort
    /// poisons the session; the next query recycles it and starts with
    /// [`Reply::Recycled`].
    pub fn query(
        &mut self,
        name: &str,
        query: Query,
        reply: &mut dyn FnMut(Reply<'_>) -> io::Result<()>,
    ) -> Result<(), ServeError> {
        let i = self.tenant_index(name).ok_or("no such session")?;
        self.query_tenant(i, query, reply)
    }

    fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    fn query_tenant(
        &mut self,
        i: usize,
        query: Query,
        reply: &mut dyn FnMut(Reply<'_>) -> io::Result<()>,
    ) -> Result<(), ServeError> {
        let Server { registry, admission, tenants, sample_rng, .. } = self;
        let tenant = &mut tenants[i];
        let (session, recycled) = registry.session_with_key_recycled(
            tenant.key.clone(),
            &tenant.nfa,
            &tenant.params,
            &tenant.policy,
        )?;
        let built_before = session.levels_built();
        let needed = query.horizon().saturating_sub(built_before) as u64;
        admission
            .admit_levels(tenant.levels_ledger, needed)
            .map_err(|d| denied(&tenant.name, d))?;
        session
            .set_build_ops_budget(admission.per_query_ops_cap(session.run_stats().membership_ops));
        if recycled {
            reply(Reply::Recycled)?;
            obs::emit_with(|| TraceEvent::SessionRecycle { tenant: tenant.name.clone() });
        }
        let result = answer(session, query, tenant.nfa.alphabet(), sample_rng, reply);
        tenant.levels_ledger += (session.levels_built() - built_before) as u64;
        if let Err(ServeError::Engine(FprasError::BudgetExceeded { .. })) = result {
            if admission.config().max_query_ops.is_some() {
                admission.record_budget_abort();
            }
        }
        result
    }

    /// The line entry point: answers one request line into `out` —
    /// exactly one response (one or more complete lines) per non-blank
    /// line, nothing for a blank one. Bad lines, quota denials and
    /// failed queries answer `error: …`; only a failed write is an
    /// `Err`. Returns `Break` on `quit`/`exit`.
    pub fn handle_line(&mut self, line: &[u8], out: &mut dyn Write) -> io::Result<ControlFlow<()>> {
        let Ok(line) = std::str::from_utf8(line) else {
            writeln!(out, "error: line is not valid UTF-8")?;
            return Ok(ControlFlow::Continue(()));
        };
        let mut words = line.split_whitespace();
        let Some(cmd) = words.next() else {
            return Ok(ControlFlow::Continue(()));
        };
        let result = match cmd {
            "quit" | "exit" => return Ok(ControlFlow::Break(())),
            "open" => self.open_line(&mut words, out),
            "use" => self.use_line(words.next(), out),
            "close" => self.close_line(words.next(), out),
            "metrics" => write!(out, "{}", self.metrics()).map_err(ServeError::Io),
            "trace" => trace_line(words.next(), words.next(), out),
            "stats" => self.write_stats(out).map_err(ServeError::Io),
            _ => parse_query(cmd, &mut words).and_then(|query| {
                let i = self
                    .current
                    .ok_or("no session selected (open NAME --regex P, or: use NAME)")?;
                self.query_tenant(i, query, &mut |r| writeln!(out, "{r}"))
            }),
        };
        match result {
            Ok(()) => {}
            Err(ServeError::Io(e)) => return Err(e),
            Err(e) => writeln!(out, "error: {e}")?,
        }
        Ok(ControlFlow::Continue(()))
    }

    /// `open NAME (--regex P | --file F) [--seed S] [--threads T]
    /// [--eps E] [--delta D] [--max-n N]`, starting from the server's
    /// spec.
    fn open_line(
        &mut self,
        words: &mut SplitWhitespace,
        out: &mut dyn Write,
    ) -> Result<(), ServeError> {
        let name = match words.next() {
            Some(name) if !name.starts_with("--") => name,
            _ => return Err("usage: open NAME (--regex P | --file F) [flags]".into()),
        };
        let mut spec = self.spec.clone();
        let (mut regex, mut file) = (None, None);
        while let Some(flag) = words.next() {
            match flag {
                "--regex" => regex = Some(parse_flag_value::<String>(flag, words.next())?),
                "--file" => file = Some(parse_flag_value::<String>(flag, words.next())?),
                "--eps" => spec.eps = parse_flag_value(flag, words.next())?,
                "--delta" => spec.delta = parse_flag_value(flag, words.next())?,
                "--seed" => spec.seed = parse_flag_value(flag, words.next())?,
                "--threads" => spec.threads = parse_threads(words.next())?,
                "--max-n" => spec.max_n = parse_flag_value(flag, words.next())?,
                other => return Err(format!("unknown open flag {other:?}").into()),
            }
        }
        if regex.is_none() && file.is_none() {
            return Err("open requires --regex or --file".into());
        }
        let line =
            self.open_with(name, spec, || load_automaton(regex.as_deref(), file.as_deref()))?;
        writeln!(out, "{line}")?;
        Ok(())
    }

    fn use_line(&mut self, name: Option<&str>, out: &mut dyn Write) -> Result<(), ServeError> {
        let i = name.and_then(|n| self.tenant_index(n)).ok_or("no such session (open it first)")?;
        self.current = Some(i);
        writeln!(out, "using {}", self.tenants[i].name)?;
        Ok(())
    }

    fn close_line(&mut self, name: Option<&str>, out: &mut dyn Write) -> Result<(), ServeError> {
        let i = name.and_then(|n| self.tenant_index(n)).ok_or("no such session")?;
        let tenant = self.tenants.remove(i);
        // Re-point `current` at the tenant it selected (indices
        // shifted), or clear it.
        self.current = match self.current {
            Some(c) if c == i => None,
            Some(c) if c > i => Some(c - 1),
            other => other,
        };
        writeln!(out, "closed {}", tenant.name)?;
        Ok(())
    }

    /// The `stats` response: the query summary over every session the
    /// registry ever owned, then one `server:` line of churn counters.
    fn write_stats(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{}", self.registry.session_totals())?;
        let r = self.registry.stats();
        writeln!(
            out,
            "server: tenants={} sessions_created={} session_hits={} sessions_recycled={} \
             pools_created={} pool_workers_spawned={} quota_rejections={}",
            self.tenants.len(),
            r.sessions_created,
            r.session_hits,
            r.sessions_recycled,
            r.pools_created,
            r.pool_workers_spawned,
            self.admission.stats().quota_rejections()
        )
    }

    /// The `metrics` response: a Prometheus text-format snapshot of the
    /// registry, admission and latency surfaces. Counters are cumulative
    /// over the process (evicted sessions included — the registry folds
    /// their stats into `session_totals`).
    fn metrics(&self) -> String {
        let totals = self.registry.session_totals();
        let r = self.registry.stats();
        let mut prom = PromText::new();
        prom.gauge(
            "fpras_open_tenants",
            "Named serve sessions currently open.",
            self.tenants.len() as f64,
        )
        .counter(
            "fpras_sessions_created_total",
            "Sessions compiled from scratch (registry misses).",
            r.sessions_created,
        )
        .counter("fpras_session_hits_total", "Queries routed to a cached session.", r.session_hits)
        .counter(
            "fpras_sessions_evicted_total",
            "Sessions evicted by the LRU policy.",
            r.sessions_evicted,
        )
        .counter(
            "fpras_sessions_recycled_total",
            "Poisoned sessions replaced by a fresh compile.",
            r.sessions_recycled,
        )
        .counter(
            "fpras_pool_workers_spawned_total",
            "OS worker threads spawned across shared pools.",
            r.pool_workers_spawned,
        )
        .counter(
            "fpras_queries_served_total",
            "Queries answered across every session the registry ever owned.",
            totals.queries_served,
        )
        .counter(
            "fpras_levels_built_total",
            "DP levels built across sessions.",
            totals.levels_built,
        )
        .counter(
            "fpras_levels_reused_total",
            "Query-needed levels answered from a checkpoint.",
            totals.levels_reused,
        )
        .counter(
            "fpras_quota_rejections_total",
            "Opens and queries denied by the admission controller.",
            self.admission.stats().quota_rejections(),
        )
        .histogram(
            "fpras_query_latency_us",
            "Per-query serve latency in microseconds.",
            &totals.latency,
        );
        prom.render()
    }
}

/// Reports an admission denial on the trace and turns it into the
/// request's error.
fn denied(tenant: &str, d: QuotaDenied) -> ServeError {
    obs::emit_with(|| TraceEvent::QuotaDenied {
        tenant: tenant.to_string(),
        reason: d.to_string(),
    });
    ServeError::Denied(d)
}

/// Runs an admitted query on its session. A failure mid-batch keeps the
/// replies already handed out and stops the batch.
fn answer(
    session: &mut QuerySession,
    query: Query,
    alphabet: &Alphabet,
    rng: &mut SmallRng,
    reply: &mut dyn FnMut(Reply<'_>) -> io::Result<()>,
) -> Result<(), ServeError> {
    match query {
        Query::Estimate(n) => reply(Reply::Estimate(n, session.estimate(n)?))?,
        Query::Range(a, b) => {
            for (ell, est) in (a..=b).zip(session.estimate_range(a..=b)?) {
                reply(Reply::Estimate(ell, est))?;
            }
        }
        Query::Sample(n, count) => {
            for _ in 0..count {
                match session.sample(n, rng)? {
                    Some(word) => reply(Reply::Word { n, word: &word, alphabet })?,
                    // None is ambiguous: an empty slice can never yield
                    // a word (stop), exhausted retries are transient
                    // (keep drawing).
                    None if session.slice_is_empty(n)? => {
                        reply(Reply::EmptySlice(n))?;
                        break;
                    }
                    None => reply(Reply::RetriesExhausted(n))?,
                }
            }
        }
    }
    Ok(())
}

/// Parses a data request (`estimate`, `range`, `sample`); any other
/// command is unknown.
fn parse_query(cmd: &str, words: &mut SplitWhitespace) -> Result<Query, ServeError> {
    let parse_n = |w: Option<&str>| w.and_then(|s| s.parse::<usize>().ok());
    match cmd {
        "estimate" => parse_n(words.next()).map(Query::Estimate).ok_or("usage: estimate N".into()),
        "range" => match (parse_n(words.next()), parse_n(words.next())) {
            (Some(a), Some(b)) if a <= b => Ok(Query::Range(a, b)),
            _ => Err("usage: range A B (A <= B)".into()),
        },
        "sample" => {
            let n = parse_n(words.next()).ok_or("usage: sample N [COUNT]")?;
            // A zero or unparseable count is a usage error, not one
            // silent draw.
            let count = match words.next() {
                None => 1,
                Some(raw) => parse_n(Some(raw))
                    .filter(|c| (1..=MAX_SAMPLES_PER_LINE).contains(c))
                    .ok_or_else(|| {
                        format!(
                            "usage: sample N [COUNT] (COUNT must be a positive integer, at most \
                             {MAX_SAMPLES_PER_LINE})"
                        )
                    })?,
            };
            Ok(Query::Sample(n, count))
        }
        other => Err(format!("unknown command {other:?}").into()),
    }
}

/// `trace on FILE | trace off`: installs or removes the process trace
/// sink. Replacing an active sink flushes and closes it first.
fn trace_line(
    arg: Option<&str>,
    path: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), ServeError> {
    match (arg, path) {
        (Some("on"), Some(path)) => {
            let sink = JsonlSink::create(path)
                .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
            obs::install_sink(Box::new(sink));
            writeln!(out, "trace on ({path})")?;
        }
        (Some("off"), None) => {
            obs::take_sink();
            writeln!(out, "trace off")?;
        }
        _ => return Err("usage: trace on FILE | trace off".into()),
    }
    Ok(())
}

/// Why [`serve_stream`] stopped before a clean end of input.
#[derive(Debug)]
pub enum StreamError {
    /// Reading a request failed — an I/O error, not an end of input.
    Read(io::Error),
    /// Writing a response failed.
    Write(io::Error),
}

/// Serves `input` line by line until end of input, `quit`, or an I/O
/// failure: each line goes through [`Server::handle_line`] (lines are
/// read as bytes, so a non-UTF-8 line is one `error:` reply, not the
/// end of the stream) and `out` is flushed after every response. On
/// the way out it closes any trace file a `trace on` left open and
/// writes the query summary — also after a read error, so the work
/// served before it is still reported.
pub fn serve_stream(
    server: &mut Server,
    mut input: impl BufRead,
    mut out: impl Write,
) -> Result<(), StreamError> {
    let mut line = Vec::new();
    let mut result = Ok(());
    loop {
        line.clear();
        match input.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                result = Err(StreamError::Read(e));
                break;
            }
        }
        match server.handle_line(&line, &mut out).and_then(|flow| out.flush().map(|()| flow)) {
            Ok(ControlFlow::Continue(())) => {}
            Ok(ControlFlow::Break(())) => break,
            Err(e) => {
                obs::take_sink();
                return Err(StreamError::Write(e));
            }
        }
    }
    obs::take_sink();
    writeln!(out, "{}", server.registry.session_totals())
        .and_then(|()| out.flush())
        .map_err(StreamError::Write)?;
    result
}
