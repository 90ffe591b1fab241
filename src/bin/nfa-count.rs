//! `nfa-count` — command-line approximate #NFA.
//!
//! ```text
//! nfa-count --regex '(0|10)*1?' -n 40            # count regex matches
//! nfa-count --file machine.nfa -n 64 --eps 0.1   # count an NFA's slice
//! nfa-count --regex '1(0|1)*' -n 24 --sample 5   # also sample witnesses
//! nfa-count --regex '0*' -n 12 --exact           # cross-check vs exact
//! nfa-count --regex '0*1' -n 20 --method bdd     # exact via BDD
//! nfa-count --regex '1*' -n 8 --enumerate 10     # list the first words
//! nfa-count --file machine.nfa -n 8 --dot        # emit Graphviz and exit
//! nfa-count query --regex '1(0|1)*' --lengths 8,4,12   # one session, many lengths
//! echo 'estimate 16' | nfa-count serve --regex '1*'    # stdin query loop
//! printf 'open a --regex 1*\nestimate 8\n' | nfa-count serve  # multi-session
//! nfa-count robp --file prog.robp --exact              # count an nROBP's assignments
//! ```
//!
//! Methods: `fpras` (default, Algorithm 3 through the level-synchronous
//! engine on `--threads T` workers, 1 to `MAX_THREADS`, with output
//! independent of `T`),
//! `path-is` (unbiased path importance sampling), `dp` (exact
//! determinization DP), `bdd` (exact BDD model counting). `parallel` is
//! accepted as a deprecated alias for `fpras` with multi-threading. The
//! NFA file format is documented in `fpras_automata::parse`.
//!
//! The `robp` subcommand runs the same engine over the other leveled
//! substrate (DESIGN.md D14): a non-deterministic read-once branching
//! program in the text format of `fpras_automata::robp`, whose depth
//! fixes the query length (every accepted assignment reads all
//! variables).
//!
//! The `query` subcommand answers many lengths from **one**
//! `fpras_core::service::QuerySession` (levels built once, reused by
//! every related query; answers bit-identical to fresh runs — DESIGN.md
//! D11). The `serve` subcommand is the multi-session server front-end:
//! a line protocol where `open NAME --regex P | use NAME | close NAME`
//! manage named sessions multiplexed over one `ServiceRegistry` (all
//! sessions of one thread count share ONE worker pool — D13), and
//! `--max-sessions/--max-total-levels/--max-query-ops` impose
//! per-tenant quotas that degrade to `error:` lines, never process
//! exit.

use fpras_automata::exact::count_exact;
use fpras_automata::{dot, enumerate_slice, parse, regex, Alphabet, Nfa};
use fpras_baselines::path_importance_sampling;
use fpras_core::service::{
    AdmissionController, QuerySession, QuotaConfig, ServiceRegistry, SessionKey, SessionPolicy,
    SessionStats,
};
use fpras_core::{
    run_parallel, run_robp_parallel, FprasError, JsonlSink, Params, PromText, RunStats, TraceEvent,
    UniformGenerator, MAX_THREADS,
};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};

struct Args {
    regex: Option<String>,
    file: Option<String>,
    n: usize,
    eps: f64,
    delta: f64,
    seed: u64,
    sample: usize,
    exact: bool,
    method: Method,
    threads: Option<usize>,
    enumerate: usize,
    dot: bool,
    stats: bool,
    no_batch: bool,
    steal_chunk: Option<usize>,
    trace_out: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Method {
    Fpras,
    PathIs,
    ExactDp,
    ExactBdd,
}

fn usage() -> ! {
    eprintln!(
        "usage: nfa-count (--regex PATTERN | --file PATH) -n LENGTH\n\
         \t[--method fpras|path-is|dp|bdd] [--threads T=1]\n\
         \t[--eps E=0.2] [--delta D=0.05] [--seed S=42] [--sample K]\n\
         \t[--enumerate K] [--exact] [--dot] [--stats] [--no-batch]\n\
         \t[--steal-chunk C=2] [--trace-out FILE]\n\
         \n\
         --threads runs the FPRAS engine on T workers, 1 to {MAX_THREADS}\n\
         (output depends only on --seed, never on T). --no-batch\n\
         disables batched union estimation (same output, more work;\n\
         for benchmarking).\n\
         --steal-chunk sets the work-stealing executor's claim\n\
         granularity (scheduling-only: any value is bit-identical).\n\
         --stats prints the full run counters, including the batching,\n\
         memo, executor, and phase-wall numbers.\n\
         --trace-out streams structured run events (level passes, memo\n\
         commits, pool summaries) to FILE as JSON lines; tracing is\n\
         observation-only and never changes an estimate bit."
    );
    std::process::exit(2)
}

/// Parses `flag`'s value, naming the flag and the offending token in
/// the error. The one flag-value validation path shared by
/// `parse_args`, `parse_service_args`, and the serve `open` command
/// (previously copy-pasted `parse().unwrap_or_else(..)` per parser).
fn parse_value<T: std::str::FromStr>(flag: &str, raw: Option<&str>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("missing value for {flag}"))?;
    raw.parse::<T>().map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

/// Parses a `--threads` value and bounds it to `1..=MAX_THREADS`: every
/// worker past the first is an OS thread, so each input boundary (argv
/// flags and serve `open` lines) refuses counts outside that range.
fn parse_threads(raw: Option<&str>) -> Result<usize, String> {
    let threads: usize = parse_value("--threads", raw)?;
    if (1..=MAX_THREADS).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!("--threads must be between 1 and {MAX_THREADS}, got {threads}"))
    }
}

/// [`parse_threads`] for the argv parsers: reports the error on stderr
/// and returns `None`, like [`parse_value_or_report`].
fn parse_threads_or_report(raw: &str) -> Option<usize> {
    parse_threads(Some(raw)).map_err(|e| eprintln!("{e}")).ok()
}

/// [`parse_value`] for the argv parsers: reports the error on stderr
/// and returns `None` so the caller can exit through its own usage
/// text.
fn parse_value_or_report<T: std::str::FromStr>(flag: &str, raw: &str) -> Option<T> {
    match parse_value(flag, Some(raw)) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("{e}");
            None
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        regex: None,
        file: None,
        n: usize::MAX,
        eps: 0.2,
        delta: 0.05,
        seed: 42,
        sample: 0,
        exact: false,
        method: Method::Fpras,
        threads: None,
        enumerate: 0,
        dot: false,
        stats: false,
        no_batch: false,
        steal_chunk: None,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--regex" => args.regex = Some(value(&mut i)),
            "--file" => args.file = Some(value(&mut i)),
            "-n" | "--length" => {
                args.n = parse_value_or_report("-n", &value(&mut i)).unwrap_or_else(|| usage())
            }
            "--eps" => {
                args.eps = parse_value_or_report("--eps", &value(&mut i)).unwrap_or_else(|| usage())
            }
            "--delta" => {
                args.delta =
                    parse_value_or_report("--delta", &value(&mut i)).unwrap_or_else(|| usage())
            }
            "--seed" => {
                args.seed =
                    parse_value_or_report("--seed", &value(&mut i)).unwrap_or_else(|| usage())
            }
            "--sample" => {
                args.sample =
                    parse_value_or_report("--sample", &value(&mut i)).unwrap_or_else(|| usage())
            }
            "--threads" => {
                args.threads =
                    Some(parse_threads_or_report(&value(&mut i)).unwrap_or_else(|| usage()))
            }
            "--enumerate" => {
                args.enumerate =
                    parse_value_or_report("--enumerate", &value(&mut i)).unwrap_or_else(|| usage())
            }
            "--exact" => args.exact = true,
            "--dot" => args.dot = true,
            "--stats" => args.stats = true,
            "--no-batch" => args.no_batch = true,
            "--steal-chunk" => {
                args.steal_chunk = Some(
                    parse_value_or_report("--steal-chunk", &value(&mut i))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace-out" => args.trace_out = Some(value(&mut i)),
            "--method" => {
                args.method = match value(&mut i).as_str() {
                    "fpras" => Method::Fpras,
                    "parallel" => {
                        // Deprecated alias: same engine on four
                        // workers; honor an explicit --threads if given.
                        eprintln!(
                            "note: --method parallel is deprecated; use \
                             --method fpras --threads T"
                        );
                        if args.threads.is_none() {
                            args.threads = Some(4);
                        }
                        Method::Fpras
                    }
                    "path-is" => Method::PathIs,
                    "dp" => Method::ExactDp,
                    "bdd" => Method::ExactBdd,
                    other => {
                        eprintln!("unknown method {other:?}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
        i += 1;
    }
    if args.n == usize::MAX || (args.regex.is_none() == args.file.is_none()) {
        usage();
    }
    if args.method != Method::Fpras
        && (args.stats || args.no_batch || args.steal_chunk.is_some() || args.trace_out.is_some())
    {
        eprintln!("--stats, --no-batch, --steal-chunk and --trace-out require --method fpras");
        usage();
    }
    args
}

/// Loads the automaton from `--regex` or `--file`. Every failure —
/// including the caller passing neither source, which the old code
/// turned into an `expect("validated")` panic waiting for the
/// validation paths to drift — is an `Err` the caller renders as a
/// usage error or a serve-loop `error:` line.
fn load_automaton(regex_pattern: Option<&str>, file: Option<&str>) -> Result<Nfa, String> {
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

/// [`load_automaton`] for the one-shot paths: any failure is a usage
/// error (exit 2).
fn load_automaton_or_exit(regex_pattern: Option<&str>, file: Option<&str>) -> Nfa {
    load_automaton(regex_pattern, file).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn report_estimate(n: usize, estimate: ExtFloat) {
    println!("estimate |L(A_{n})| ≈ {estimate}");
    println!("  log2 ≈ {:.3}", estimate.log2());
}

/// `--stats`: the full run counters, one per line (machine-greppable).
fn report_stats(s: &RunStats) {
    println!("stats:");
    println!("  membership ops       {}", s.membership_ops);
    println!("  appunion calls       {}", s.appunion_calls);
    println!("  union bit tests      {}", s.union_bit_tests);
    println!("  memo hit rate        {:.4}", s.memo_hit_rate());
    println!("  sample calls         {}", s.sample_calls);
    println!("  rejection rate       {:.4}", s.rejection_rate());
    println!("  samples per cell     {:.2}", s.samples_per_cell());
    println!("  cells processed      {}", s.cells_processed);
    println!("  cells skipped        {}", s.cells_skipped);
    println!("  padded cells         {}", s.padded_cells);
    println!("  batch groups formed  {}", s.batch.groups_formed);
    println!("  batch cells deduped  {}", s.batch.cells_deduped);
    println!("  batch unions run     {}", s.batch.unions_run);
    println!("  batch unions skipped {}", s.batch.unions_skipped);
    println!("  batch dedup rate     {:.4}", s.batch.dedup_rate());
    println!("  memo commits         {}", s.memo.commits);
    println!("  memo promoted        {}", s.memo.entries_promoted);
    println!("  memo snapshots       {}", s.memo.snapshots);
    println!("  memo entries shared  {}", s.memo.entries_shared);
    println!("  memo overlay entries {}", s.memo.overlay_entries);
    println!("  pool parallel passes {}", s.pool.parallel_passes);
    println!("  pool parallel items  {}", s.pool.parallel_items);
    println!("  pool sequential pass {}", s.pool.sequential_passes);
    println!("  pool sequential item {}", s.pool.sequential_items);
    println!("  pool steals          {}", s.pool.steals);
    println!("  pool worker items    {:?}", s.pool.worker_items);
    println!("  pool worker ops      {:?}", s.pool.worker_ops);
    println!("  intern distinct      {}", s.intern.distinct_frontiers);
    println!("  intern hits          {}", s.intern.intern_hits);
    println!("  intern arena bytes   {}", s.intern.arena_bytes);
    println!("  walk steps           {}", s.walk_steps);
    println!("  walk nodes built     {}", s.walk_nodes_built);
    println!("  walk table hits      {}", s.walk_table_hits);
    match s.pool.ops_balance_ratio() {
        Some(r) => println!("  pool ops balance     {r:.3}"),
        None => println!("  pool ops balance     n/a"),
    }
    println!("  phase plan           {:?}", s.phase.plan);
    println!("  phase count          {:?}", s.phase.count);
    println!("  phase sample         {:?}", s.phase.sample);
    println!("  phase merge          {:?}", s.phase.merge);
    println!("  wall total           {:?}", s.wall_total());
    println!("  wall longest         {:?}", s.wall_longest());
}

/// Shared flags of the `serve`/`query` subcommands.
struct ServiceArgs {
    regex: Option<String>,
    file: Option<String>,
    eps: f64,
    delta: f64,
    seed: u64,
    threads: usize,
    /// Largest length the session's parameters are derived for
    /// (`query` raises it to the largest requested length).
    max_n: usize,
    lengths: Vec<usize>,
    stats: bool,
    /// `serve` quota: simultaneously open named sessions.
    max_sessions: Option<usize>,
    /// `serve` quota: cumulative DP levels per tenant (survives
    /// session recycles).
    max_total_levels: Option<u64>,
    /// `serve` quota: membership-op budget per query (a tripped budget
    /// aborts the query and the session is recycled on next use).
    max_query_ops: Option<u64>,
}

fn service_usage(cmd: &str) -> ! {
    eprintln!(
        "usage: nfa-count {cmd} {}\n\
         \t{}[--eps E=0.2] [--delta D=0.05] [--seed S=42]\n\
         \t[--threads T=1] [--max-n N=64] [--stats]{}\n\
         \n\
         One QuerySession serves every length: levels are built once and\n\
         reused by later queries; answers are bit-identical to a fresh\n\
         run at the same length under the same --seed and --threads.\n\
         --max-n sizes the error-budget split and is a hard cap: lengths\n\
         above it are refused (`query` raises it to max(--lengths)\n\
         automatically).{}",
        if cmd == "serve" {
            "[--regex PATTERN | --file PATH]"
        } else {
            "(--regex PATTERN | --file PATH)"
        },
        if cmd == "query" { "--lengths N1,N2,… " } else { "" },
        if cmd == "serve" {
            "\n\t[--max-sessions K] [--max-total-levels L] [--max-query-ops B]"
        } else {
            ""
        },
        if cmd == "serve" {
            "\n\nserve reads commands from stdin, one per line:\n\
             \topen NAME (--regex P | --file F) [--seed S] [--threads T]\n\
             \t          [--eps E] [--delta D] [--max-n N]\n\
             \tuse NAME | close NAME\n\
             \testimate N | range A B | sample N [COUNT] | stats | quit\n\
             \tmetrics            (Prometheus text exposition snapshot)\n\
             \ttrace on FILE | trace off   (JSONL run-event tracing)\n\
             Named sessions multiplex onto one registry and one shared\n\
             worker pool; --regex/--file at startup opens session\n\
             \"default\". Bad lines and quota denials answer with one\n\
             `error: …` line each — the process never exits on them."
        } else {
            ""
        }
    );
    std::process::exit(2)
}

fn parse_service_args(cmd: &str, argv: &[String]) -> ServiceArgs {
    let mut args = ServiceArgs {
        regex: None,
        file: None,
        eps: 0.2,
        delta: 0.05,
        seed: 42,
        threads: 1,
        max_n: 64,
        lengths: Vec::new(),
        stats: false,
        max_sessions: None,
        max_total_levels: None,
        max_query_ops: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| service_usage(cmd))
    };
    // The same parse-and-report helper the top-level parser uses: one
    // numeric-validation path, two usage texts.
    macro_rules! num {
        ($flag:literal, $i:expr) => {
            parse_value_or_report($flag, &value($i)).unwrap_or_else(|| service_usage(cmd))
        };
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--regex" => args.regex = Some(value(&mut i)),
            "--file" => args.file = Some(value(&mut i)),
            "--eps" => args.eps = num!("--eps", &mut i),
            "--delta" => args.delta = num!("--delta", &mut i),
            "--seed" => args.seed = num!("--seed", &mut i),
            "--threads" => {
                args.threads =
                    parse_threads_or_report(&value(&mut i)).unwrap_or_else(|| service_usage(cmd))
            }
            "--max-n" => args.max_n = num!("--max-n", &mut i),
            "--stats" => args.stats = true,
            "--max-sessions" if cmd == "serve" => {
                args.max_sessions = Some(num!("--max-sessions", &mut i))
            }
            "--max-total-levels" if cmd == "serve" => {
                args.max_total_levels = Some(num!("--max-total-levels", &mut i))
            }
            "--max-query-ops" if cmd == "serve" => {
                args.max_query_ops = Some(num!("--max-query-ops", &mut i))
            }
            "--lengths" if cmd == "query" => {
                args.lengths = value(&mut i)
                    .split(',')
                    .map(|s| {
                        parse_value_or_report("--lengths", s.trim())
                            .unwrap_or_else(|| service_usage(cmd))
                    })
                    .collect();
            }
            "--help" | "-h" => service_usage(cmd),
            other => {
                eprintln!("unknown argument {other:?}");
                service_usage(cmd)
            }
        }
        i += 1;
    }
    // `query` needs exactly one automaton source up front; `serve` can
    // start empty (sessions are opened over the protocol) but still
    // rejects contradictory sources.
    let both = args.regex.is_some() && args.file.is_some();
    let neither = args.regex.is_none() && args.file.is_none();
    if both || (neither && cmd != "serve") {
        service_usage(cmd);
    }
    if cmd == "query" && args.lengths.is_empty() {
        eprintln!("query requires --lengths");
        service_usage(cmd);
    }
    args
}

/// Builds the session for a `serve`/`query` invocation. Parameter
/// checking is [`QuerySession::new`]'s job (the one shared
/// [`Params::validate`] path); this only maps its error to a usage
/// exit, before any level is built.
fn open_session(args: &ServiceArgs, nfa: &Nfa) -> QuerySession {
    let params = Params::for_session(args.eps, args.delta, nfa.num_states(), args.max_n);
    let policy = SessionPolicy::Deterministic { seed: args.seed, threads: args.threads };
    match QuerySession::new(nfa, params, policy) {
        Ok(session) => session,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn print_session_summary(s: &SessionStats) {
    println!(
        "session: queries={} levels_built={} levels_reused={} reuse_rate={:.3}",
        s.queries_served,
        s.levels_built,
        s.levels_reused,
        s.reuse_rate()
    );
    // Latency quantiles are bucket upper edges (see LatencyHistogram):
    // conservative, mergeable across sessions without raw samples.
    if let (Some(p50), Some(p99)) = (s.latency.quantile(0.5), s.latency.quantile(0.99)) {
        println!("latency: count={} p50_us<={p50} p99_us<={p99}", s.latency.count());
    }
}

/// The `query` exit report: the reuse summary and, under `--stats`, the
/// build counters merged with the sample-serving work (tracked apart so
/// serving never spends the build budget).
fn finish_session(session: &QuerySession, stats: bool) {
    print_session_summary(session.stats());
    if stats {
        let mut merged = session.run_stats().clone();
        merged.merge(session.query_run_stats());
        report_stats(&merged);
    }
}

/// `nfa-count query`: one session answers a list of lengths in order.
fn query_main(argv: &[String]) {
    let mut args = parse_service_args("query", argv);
    args.max_n = args.max_n.max(args.lengths.iter().copied().max().unwrap_or(0));
    let nfa = load_automaton_or_exit(args.regex.as_deref(), args.file.as_deref());
    let mut session = open_session(&args, &nfa);
    for &n in &args.lengths {
        match session.estimate(n) {
            Ok(est) => println!("estimate |L(A_{n})| ≈ {est} (log2 ≈ {:.3})", est.log2()),
            Err(e) => {
                eprintln!("query n={n} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    finish_session(&session, args.stats);
}

/// Live sessions a serve process holds open when `--max-sessions` is
/// unset: enough for small multi-tenant scripts, bounded so a runaway
/// client cannot pin unbounded memory (evicted sessions rebuild on
/// demand — eviction is not rejection).
const DEFAULT_REGISTRY_CAPACITY: usize = 8;

/// Most words one serve `sample N COUNT` line may ask for. Each line is
/// answered in full before the next is read, so an unbounded `COUNT`
/// would stream words forever and starve every other tenant.
const MAX_SAMPLES_PER_LINE: usize = 4096;

/// Per-tenant construction inputs for one named serve session.
#[derive(Clone)]
struct TenantSpec {
    regex: Option<String>,
    file: Option<String>,
    eps: f64,
    delta: f64,
    seed: u64,
    threads: usize,
    max_n: usize,
}

/// One open named session of the serve loop. The session itself lives
/// in the [`ServiceRegistry`] (looked up by `key` per query, so a
/// poisoned one is recycled); the tenant carries what must outlive
/// recycles — the construction inputs and the level-quota ledger.
struct Tenant {
    name: String,
    nfa: Nfa,
    params: Params,
    policy: SessionPolicy,
    key: SessionKey,
    /// Cumulative DP levels this tenant has built, across every
    /// incarnation of its session — the `--max-total-levels` ledger.
    levels_ledger: u64,
}

/// Parses the tokens after `open NAME`, starting from the server-wide
/// defaults. Errors become one `error:` line; they never exit.
fn parse_open_spec(
    defaults: &TenantSpec,
    words: &mut std::str::SplitWhitespace,
) -> Result<TenantSpec, String> {
    let mut spec = TenantSpec { regex: None, file: None, ..defaults.clone() };
    while let Some(flag) = words.next() {
        match flag {
            "--regex" => {
                spec.regex = Some(words.next().ok_or("missing value for --regex")?.to_string())
            }
            "--file" => {
                spec.file = Some(words.next().ok_or("missing value for --file")?.to_string())
            }
            "--eps" => spec.eps = parse_value(flag, words.next())?,
            "--delta" => spec.delta = parse_value(flag, words.next())?,
            "--seed" => spec.seed = parse_value(flag, words.next())?,
            "--threads" => spec.threads = parse_threads(words.next())?,
            "--max-n" => spec.max_n = parse_value(flag, words.next())?,
            other => return Err(format!("unknown open flag {other:?}")),
        }
    }
    if spec.regex.is_none() && spec.file.is_none() {
        return Err("open requires --regex or --file".to_string());
    }
    Ok(spec)
}

/// Opens a named session: admission check, automaton load, and an
/// eager registry compile (so parameter errors surface on the `open`
/// line, not the first query). Returns the `opened …` response line.
fn open_tenant(
    name: &str,
    spec: &TenantSpec,
    registry: &mut ServiceRegistry,
    admission: &mut AdmissionController,
    tenants: &mut Vec<Tenant>,
) -> Result<String, String> {
    if tenants.iter().any(|t| t.name == name) {
        return Err(format!("session {name:?} already open (select it with: use {name})"));
    }
    admission.admit_session(tenants.len()).map_err(|d| {
        fpras_core::obs::emit_with(|| TraceEvent::QuotaDenied {
            tenant: name.to_string(),
            reason: d.to_string(),
        });
        d.to_string()
    })?;
    let nfa = load_automaton(spec.regex.as_deref(), spec.file.as_deref())?;
    let params = Params::for_session(spec.eps, spec.delta, nfa.num_states(), spec.max_n);
    let policy = SessionPolicy::Deterministic { seed: spec.seed, threads: spec.threads };
    let key = SessionKey::new(&nfa, &params, &policy);
    registry.session_with_key(key.clone(), &nfa, &params, &policy).map_err(|e| e.to_string())?;
    let line = format!(
        "opened {name} ({} states, {} transitions, {})",
        nfa.num_states(),
        nfa.num_transitions(),
        policy.label()
    );
    fpras_core::obs::emit_with(|| TraceEvent::SessionOpen { tenant: name.to_string() });
    tenants.push(Tenant { name: name.to_string(), nfa, params, policy, key, levels_ledger: 0 });
    Ok(line)
}

/// Pre-query admission for one tenant: looks the session up (recycling
/// a poisoned predecessor — the returned flag), denies it if extending
/// to `horizon` would blow the tenant's level ledger, and installs the
/// per-query op budget. Quota denials do no work: they are checked
/// before any level is built.
fn admit_query<'r>(
    registry: &'r mut ServiceRegistry,
    admission: &mut AdmissionController,
    tenant: &Tenant,
    horizon: usize,
) -> Result<(&'r mut QuerySession, bool), String> {
    let (session, recycled) = registry
        .session_with_key_recycled(tenant.key.clone(), &tenant.nfa, &tenant.params, &tenant.policy)
        .map_err(|e| e.to_string())?;
    let needed = horizon.saturating_sub(session.levels_built()) as u64;
    admission.admit_levels(tenant.levels_ledger, needed).map_err(|d| {
        fpras_core::obs::emit_with(|| TraceEvent::QuotaDenied {
            tenant: tenant.name.clone(),
            reason: d.to_string(),
        });
        d.to_string()
    })?;
    let cap = admission.per_query_ops_cap(session.run_stats().membership_ops);
    session.set_build_ops_budget(cap);
    Ok((session, recycled))
}

/// The serve `metrics` response: a Prometheus text-format snapshot of
/// the registry, admission, and latency surfaces. Counters are
/// cumulative over the process (evicted sessions included — the
/// registry folds their stats into `session_totals`).
fn render_metrics(
    tenants: usize,
    registry: &ServiceRegistry,
    admission: &AdmissionController,
) -> String {
    let totals = registry.session_totals();
    let r = registry.stats();
    let mut prom = PromText::new();
    prom.gauge("fpras_open_tenants", "Named serve sessions currently open.", tenants as f64)
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
            admission.stats().quota_rejections(),
        )
        .histogram(
            "fpras_query_latency_us",
            "Per-query serve latency in microseconds.",
            &totals.latency,
        );
    prom.render()
}

/// A parsed data-path serve command (the ones that hit a session).
enum Query {
    Estimate(usize),
    Range(usize, usize),
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

/// `nfa-count serve`: a line-protocol server multiplexing named
/// sessions over one [`ServiceRegistry`] (one shared worker pool for
/// every Deterministic session) with quota-governed admission. Returns
/// the process exit code: 0 on clean EOF or `quit`, 1 when stdin
/// failed mid-stream (an I/O error is not an end of input).
fn serve_main(argv: &[String]) -> i32 {
    let args = parse_service_args("serve", argv);
    let mut admission = AdmissionController::new(QuotaConfig {
        max_sessions: args.max_sessions,
        max_total_levels: args.max_total_levels,
        max_query_ops: args.max_query_ops,
    });
    let mut registry = ServiceRegistry::new(args.max_sessions.unwrap_or(DEFAULT_REGISTRY_CAPACITY));
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut current: Option<usize> = None;
    let defaults = TenantSpec {
        regex: None,
        file: None,
        eps: args.eps,
        delta: args.delta,
        seed: args.seed,
        threads: args.threads,
        max_n: args.max_n,
    };
    // The serve-process sample stream: one RNG for every tenant, so
    // sample outputs depend on the whole command history (sessions own
    // their *build* randomness; D11 is about estimates, not about which
    // witness a shared server stream draws next).
    let mut sample_rng = SmallRng::seed_from_u64(args.seed ^ 0x05A3_F1E5);

    // Back-compat: `serve --regex P` behaves like the old one-session
    // loop — session "default" is opened and selected. Startup failures
    // are still process-fatal (exit 2): no client is listening yet, so
    // an `error:` line would vanish into a broken pipeline.
    if args.regex.is_some() || args.file.is_some() {
        let spec =
            TenantSpec { regex: args.regex.clone(), file: args.file.clone(), ..defaults.clone() };
        match open_tenant("default", &spec, &mut registry, &mut admission, &mut tenants) {
            Ok(_) => current = Some(0),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }

    eprintln!(
        "serving (open NAME --regex P | use NAME | close NAME | estimate N | \
         range A B | sample N [COUNT] | stats | metrics | trace on FILE | \
         trace off | quit)"
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut io_error: Option<std::io::Error> = None;
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break, // clean EOF
            Ok(_) => {}
            Err(e) => {
                // An I/O failure is not an end of input: report it and
                // exit nonzero so pipelines can tell the two apart.
                io_error = Some(e);
                break;
            }
        }
        let mut words = line.split_whitespace();
        let Some(cmd) = words.next() else { continue };
        let parse_n = |w: Option<&str>| w.and_then(|s| s.parse::<usize>().ok());

        // Control commands first — they never touch a session's levels.
        let query = match cmd {
            "open" => {
                match words.next() {
                    Some(name) if !name.starts_with("--") => {
                        match parse_open_spec(&defaults, &mut words).and_then(|spec| {
                            open_tenant(name, &spec, &mut registry, &mut admission, &mut tenants)
                        }) {
                            Ok(response) => {
                                current = Some(tenants.len() - 1);
                                println!("{response}");
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    _ => println!("error: usage: open NAME (--regex P | --file F) [flags]"),
                }
                continue;
            }
            "use" => {
                match words.next().and_then(|n| tenants.iter().position(|t| t.name == n)) {
                    Some(i) => {
                        current = Some(i);
                        println!("using {}", tenants[i].name);
                    }
                    None => println!("error: no such session (open it first)"),
                }
                continue;
            }
            "close" => {
                match words.next().and_then(|n| tenants.iter().position(|t| t.name == n)) {
                    Some(i) => {
                        let t = tenants.remove(i);
                        // Re-point `current` at the tenant it selected
                        // (indices shifted), or clear it.
                        current = match current {
                            Some(c) if c == i => None,
                            Some(c) if c > i => Some(c - 1),
                            other => other,
                        };
                        println!("closed {}", t.name);
                    }
                    None => println!("error: no such session"),
                }
                continue;
            }
            "metrics" => {
                print!("{}", render_metrics(tenants.len(), &registry, &admission));
                continue;
            }
            "trace" => {
                match (words.next(), words.next()) {
                    (Some("on"), Some(path)) => {
                        match JsonlSink::create(path) {
                            Ok(sink) => {
                                // Replacing an active sink flushes and
                                // closes it first.
                                fpras_core::obs::install_sink(Box::new(sink));
                                println!("trace on ({path})");
                            }
                            Err(e) => println!("error: cannot open trace file {path}: {e}"),
                        }
                    }
                    (Some("off"), None) => {
                        fpras_core::obs::take_sink();
                        println!("trace off");
                    }
                    _ => println!("error: usage: trace on FILE | trace off"),
                }
                continue;
            }
            "stats" => {
                print_session_summary(&registry.session_totals());
                let r = registry.stats();
                let q = admission.stats();
                println!(
                    "server: tenants={} sessions_created={} session_hits={} \
                     sessions_recycled={} pools_created={} pool_workers_spawned={} \
                     quota_rejections={}",
                    tenants.len(),
                    r.sessions_created,
                    r.session_hits,
                    r.sessions_recycled,
                    r.pools_created,
                    r.pool_workers_spawned,
                    q.quota_rejections()
                );
                continue;
            }
            "quit" | "exit" => break,
            "estimate" => match parse_n(words.next()) {
                Some(n) => Query::Estimate(n),
                None => {
                    println!("error: usage: estimate N");
                    continue;
                }
            },
            "range" => match (parse_n(words.next()), parse_n(words.next())) {
                (Some(a), Some(b)) if a <= b => Query::Range(a, b),
                _ => {
                    println!("error: usage: range A B (A <= B)");
                    continue;
                }
            },
            "sample" => match parse_n(words.next()) {
                Some(n) => {
                    // A zero or unparseable count is a usage error, not
                    // one silent draw (the old loop clamped `sample N 0`
                    // to 1 via `.unwrap_or(1).max(1)`).
                    let count = match words.next() {
                        None => 1,
                        Some(raw) => match raw.parse::<usize>() {
                            Ok(c) if (1..=MAX_SAMPLES_PER_LINE).contains(&c) => c,
                            _ => {
                                println!(
                                    "error: usage: sample N [COUNT] \
                                     (COUNT must be a positive integer, at most {MAX_SAMPLES_PER_LINE})"
                                );
                                continue;
                            }
                        },
                    };
                    Query::Sample(n, count)
                }
                None => {
                    println!("error: usage: sample N [COUNT]");
                    continue;
                }
            },
            other => {
                println!("error: unknown command {other:?}");
                continue;
            }
        };

        // Data path: admission, then the query, then ledger upkeep.
        let Some(cur) = current else {
            println!("error: no session selected (open NAME --regex P, or: use NAME)");
            continue;
        };
        match admit_query(&mut registry, &mut admission, &tenants[cur], query.horizon()) {
            Err(e) => println!("error: {e}"),
            Ok((session, recycled)) => {
                if recycled {
                    // The predecessor died to a budget abort; this is
                    // its one obituary line — the query below is served
                    // by the fresh replacement.
                    println!("error: session recycled after budget abort");
                    let tenant = tenants[cur].name.clone();
                    fpras_core::obs::emit_with(|| TraceEvent::SessionRecycle { tenant });
                }
                let built_before = session.levels_built();
                let mut budget_abort = false;
                let on_err = |e: &FprasError, aborted: &mut bool| {
                    *aborted |= matches!(e, FprasError::BudgetExceeded { .. });
                    println!("error: {e}");
                };
                match query {
                    Query::Estimate(n) => match session.estimate(n) {
                        Ok(est) => println!("estimate {n} = {est} (log2 {:.3})", est.log2()),
                        Err(e) => on_err(&e, &mut budget_abort),
                    },
                    Query::Range(a, b) => match session.estimate_range(a..=b) {
                        Ok(slices) => {
                            for (ell, est) in (a..=b).zip(slices) {
                                println!("estimate {ell} = {est} (log2 {:.3})", est.log2());
                            }
                        }
                        Err(e) => on_err(&e, &mut budget_abort),
                    },
                    Query::Sample(n, count) => {
                        let alphabet = tenants[cur].nfa.alphabet();
                        for _ in 0..count {
                            match session.sample(n, &mut sample_rng) {
                                Ok(Some(w)) => println!("sample {n} = {}", w.display(alphabet)),
                                // None is ambiguous: an empty slice can
                                // never yield a word (stop), exhausted
                                // retries are transient (keep drawing).
                                Ok(None) => match session.slice_is_empty(n) {
                                    Ok(true) => {
                                        println!("sample {n} = (empty slice)");
                                        break;
                                    }
                                    Ok(false) => println!("sample {n} = (retries exhausted)"),
                                    Err(e) => {
                                        on_err(&e, &mut budget_abort);
                                        break;
                                    }
                                },
                                Err(e) => {
                                    on_err(&e, &mut budget_abort);
                                    break;
                                }
                            }
                        }
                    }
                }
                let built_delta = (session.levels_built() - built_before) as u64;
                tenants[cur].levels_ledger += built_delta;
                if budget_abort && admission.config().max_query_ops.is_some() {
                    admission.record_budget_abort();
                }
            }
        }
    }

    // Flush and close any trace file a `trace on` left active.
    fpras_core::obs::take_sink();
    print_session_summary(&registry.session_totals());
    if args.stats {
        // Folding live sessions sums their walls (serial-equivalent
        // time); wall_longest in the report keeps the largest single
        // session's wall visible next to the total.
        let mut merged = RunStats::default();
        for session in registry.sessions() {
            merged.merge(session.run_stats());
            merged.merge(session.query_run_stats());
        }
        report_stats(&merged);
    }
    match io_error {
        Some(e) => {
            eprintln!("stdin read error: {e}");
            1
        }
        None => 0,
    }
}

fn robp_usage() -> ! {
    eprintln!(
        "usage: nfa-count robp --file PATH\n\
         \t[--eps E=0.2] [--delta D=0.05] [--seed S=42] [--threads T=1]\n\
         \t[--sample K] [--exact] [--stats]\n\
         \n\
         Counts the accepted assignments of a non-deterministic\n\
         read-once branching program (text format: see\n\
         fpras_automata::robp) with the same level-synchronous FPRAS\n\
         engine, run over the program's leveled DAG directly. The\n\
         program's depth fixes the word length; --threads sets the\n\
         worker count (1 to {MAX_THREADS}) exactly as the top-level\n\
         command does, with output independent of T."
    );
    std::process::exit(2)
}

/// `nfa-count robp`: the one-shot counter for the nROBP substrate.
fn robp_main(argv: &[String]) {
    let mut file: Option<String> = None;
    let (mut eps, mut delta, mut seed) = (0.2f64, 0.05f64, 42u64);
    let mut threads = 1usize;
    let mut sample = 0usize;
    let (mut exact, mut stats) = (false, false);
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| robp_usage())
    };
    macro_rules! num {
        ($flag:literal, $i:expr) => {
            parse_value_or_report($flag, &value($i)).unwrap_or_else(|| robp_usage())
        };
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--file" => file = Some(value(&mut i)),
            "--eps" => eps = num!("--eps", &mut i),
            "--delta" => delta = num!("--delta", &mut i),
            "--seed" => seed = num!("--seed", &mut i),
            "--threads" => {
                threads = parse_threads_or_report(&value(&mut i)).unwrap_or_else(|| robp_usage())
            }
            "--sample" => sample = num!("--sample", &mut i),
            "--exact" => exact = true,
            "--stats" => stats = true,
            "--help" | "-h" => robp_usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                robp_usage()
            }
        }
        i += 1;
    }
    let Some(path) = file else { robp_usage() };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let robp = fpras_automata::robp::from_text(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    let n = robp.depth();
    eprintln!(
        "program: {} nodes, {} edges, depth {n}, alphabet {:?}",
        robp.num_nodes(),
        robp.num_edges(),
        robp.alphabet()
    );

    let params = Params::practical(eps, delta, robp.num_nodes(), n);
    if let Err(e) = params.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let run = match run_robp_parallel(&robp, &params, seed, threads) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("FPRAS failed: {e}");
            std::process::exit(1);
        }
    };
    println!("estimate |L(P)| ≈ {}", run.estimate());
    println!("  log2 ≈ {:.3}", run.estimate().log2());
    eprintln!(
        "  (deterministic×{threads} policy, {} membership ops, {:.1} samples/cell, {:?})",
        run.stats().membership_ops,
        run.stats().samples_per_cell(),
        run.stats().wall
    );
    if stats {
        report_stats(run.stats());
    }

    if exact {
        // The node graph doubles as the exact oracle: in a leveled DAG
        // every accepted word has length exactly `depth`.
        match count_exact(&robp.to_nfa(), n) {
            Ok(exact_count) => {
                let exact_f = exact_count.to_f64();
                let rel = if exact_f == 0.0 {
                    if run.estimate().is_zero() {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (run.estimate().to_f64() - exact_f).abs() / exact_f
                };
                println!("exact    |L(P)| = {exact_count}");
                println!("  relative error {rel:.5} (target ε = {eps})");
            }
            Err(e) => eprintln!("exact counter unavailable: {e}"),
        }
    }

    if sample > 0 {
        let alphabet = robp.alphabet().clone();
        let mut generator = UniformGenerator::new(run);
        let mut rng = SmallRng::seed_from_u64(seed);
        println!("samples:");
        for _ in 0..sample {
            match generator.generate(&mut rng) {
                Some(w) => println!("  {}", w.display(&alphabet)),
                None => {
                    println!("  (the program accepts nothing)");
                    break;
                }
            }
        }
    }
}

fn main() {
    // Subcommand dispatch: `serve` and `query` are the service surface,
    // `robp` the branching-program substrate; anything else is the
    // classic one-shot CLI.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => std::process::exit(serve_main(&argv[1..])),
        Some("query") => return query_main(&argv[1..]),
        Some("robp") => return robp_main(&argv[1..]),
        _ => {}
    }

    let args = parse_args();
    if let Some(path) = &args.trace_out {
        match JsonlSink::create(path) {
            Ok(sink) => {
                fpras_core::obs::install_sink(Box::new(sink));
            }
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let nfa = load_automaton_or_exit(args.regex.as_deref(), args.file.as_deref());
    eprintln!(
        "automaton: {} states, {} transitions, alphabet {:?}",
        nfa.num_states(),
        nfa.num_transitions(),
        nfa.alphabet()
    );

    if args.dot {
        print!("{}", dot::to_dot(&nfa));
        return;
    }

    if args.enumerate > 0 {
        let words = enumerate_slice(&nfa, args.n, Some(args.enumerate));
        println!("first {} word(s) of L(A_{}):", words.len(), args.n);
        for w in &words {
            println!("  {}", w.display(nfa.alphabet()));
        }
    }

    let mut rng = SmallRng::seed_from_u64(args.seed);
    // The FPRAS variants keep their run for sampling; other methods don't.
    let mut fpras_run: Option<fpras_core::FprasRun> = None;
    match args.method {
        Method::Fpras => {
            let mut params = Params::practical(args.eps, args.delta, nfa.num_states(), args.n);
            if args.no_batch {
                params.batch_unions = false;
            }
            if let Some(chunk) = args.steal_chunk {
                params.steal_chunk = chunk;
            }
            // One checker for every surface (engine, sessions, CLI):
            // fail fast with a clean message instead of a mid-run error.
            if let Err(e) = params.validate() {
                eprintln!("{e}");
                std::process::exit(2);
            }
            // Bit-identical for every thread count.
            let threads = args.threads.unwrap_or(1);
            let run = match run_parallel(&nfa, args.n, &params, args.seed, threads) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("FPRAS failed: {e}");
                    std::process::exit(1);
                }
            };
            report_estimate(args.n, run.estimate());
            eprintln!(
                "  (deterministic×{threads} policy, {} membership ops, {:.1} samples/cell, {:?})",
                run.stats().membership_ops,
                run.stats().samples_per_cell(),
                run.stats().wall
            );
            if args.stats {
                report_stats(run.stats());
            }
            fpras_run = Some(run);
        }
        Method::PathIs => {
            // Trial budget chosen like naive MC's: Chernoff at density 1.
            let trials = ((3.0 * (2.0 / args.delta).ln()) / (args.eps * args.eps)).ceil() as u64;
            match path_importance_sampling(&nfa, args.n, trials.max(100), &mut rng) {
                Some(r) => {
                    report_estimate(args.n, r.estimate);
                    eprintln!(
                        "  ({} trials, rel. std. error {:.4}, max ambiguity {:.0})",
                        r.trials, r.rel_std_error, r.max_ambiguity
                    );
                    if r.rel_std_error > args.eps / 2.0 {
                        eprintln!(
                            "  warning: high variance — the instance is ambiguous; \
                             prefer --method fpras"
                        );
                    }
                }
                None => report_estimate(args.n, ExtFloat::ZERO),
            }
        }
        Method::ExactDp => match count_exact(&nfa, args.n) {
            Ok(c) => println!("exact |L(A_{})| = {c}", args.n),
            Err(e) => {
                eprintln!("exact DP failed: {e}");
                std::process::exit(1);
            }
        },
        Method::ExactBdd => match fpras_bdd::compile_slice(&nfa, args.n) {
            Ok(compiled) => {
                println!("exact |L(A_{})| = {}", args.n, compiled.count());
                eprintln!("  ({} BDD nodes)", compiled.bdd.num_nodes());
            }
            Err(e) => {
                eprintln!("BDD compilation failed: {e}");
                std::process::exit(1);
            }
        },
    }

    if args.exact {
        if let Some(run) = &fpras_run {
            match count_exact(&nfa, args.n) {
                Ok(exact) => {
                    let rel = if exact.is_zero() {
                        if run.estimate().is_zero() {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        (run.estimate().to_f64() - exact.to_f64()).abs() / exact.to_f64()
                    };
                    println!("exact    |L(A_{})| = {exact}", args.n);
                    println!("  relative error {rel:.5} (target ε = {})", args.eps);
                }
                Err(e) => eprintln!("exact counter unavailable: {e}"),
            }
        }
    }

    if args.sample > 0 {
        if let Some(run) = fpras_run {
            let mut generator = UniformGenerator::new(run);
            println!("samples:");
            for _ in 0..args.sample {
                match generator.generate(&mut rng) {
                    Some(w) => println!("  {}", w.display(nfa.alphabet())),
                    None => {
                        println!("  (language slice is empty)");
                        break;
                    }
                }
            }
        } else {
            eprintln!("--sample requires --method fpras");
        }
    }
    // Flush and close the --trace-out sink (the process would otherwise
    // exit without draining the buffered writer).
    fpras_core::obs::take_sink();
}
