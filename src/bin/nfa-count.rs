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
//! D11). The `serve` subcommand is the stdin front-end of
//! `fpras_core::service::Server`: a line protocol where `open NAME
//! --regex P | use NAME | close NAME` manage named sessions multiplexed
//! over one registry (all sessions of one thread count share ONE worker
//! pool — D13), and `--max-sessions/--max-total-levels/--max-query-ops`
//! impose per-tenant quotas that degrade to `error:` lines, never
//! process exit.

use fpras_automata::exact::count_exact;
use fpras_automata::{dot, enumerate_slice, Nfa};
use fpras_baselines::path_importance_sampling;
use fpras_core::service::{
    load_automaton, parse_flag_value, parse_threads, serve_stream, QuerySession, QuotaConfig,
    ServeError, Server, ServerConfig, SessionSpec, StreamError,
};
use fpras_core::{
    run_parallel, run_robp_parallel, JsonlSink, Params, RunStats, UniformGenerator, MAX_THREADS,
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
         \t[--trace-out FILE]\n\
         \n\
         --threads runs the FPRAS engine on T workers, 1 to {MAX_THREADS}\n\
         (output depends only on --seed, never on T). --no-batch\n\
         disables batched union estimation (same output, more work;\n\
         for benchmarking).\n\
         --stats prints the full run counters, including the batching,\n\
         memo, executor, and phase-wall numbers.\n\
         --trace-out streams structured run events (level passes, memo\n\
         commits, pool summaries) to FILE as JSON lines; tracing is\n\
         observation-only and never changes an estimate bit."
    );
    std::process::exit(2)
}

/// [`parse_threads`] for the argv parsers: reports the error on stderr
/// and returns `None`, like [`parse_value_or_report`].
fn parse_threads_or_report(raw: &str) -> Option<usize> {
    parse_threads(Some(raw)).map_err(|e| eprintln!("{e}")).ok()
}

/// [`parse_flag_value`] for the argv parsers: reports the error on
/// stderr and returns `None` so the caller can exit through its own
/// usage text.
fn parse_value_or_report<T: std::str::FromStr>(flag: &str, raw: &str) -> Option<T> {
    match parse_flag_value(flag, Some(raw)) {
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
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    macro_rules! num {
        ($flag:literal, $i:expr) => {
            parse_value_or_report($flag, &value($i)).unwrap_or_else(|| usage())
        };
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--regex" => args.regex = Some(value(&mut i)),
            "--file" => args.file = Some(value(&mut i)),
            "-n" | "--length" => args.n = num!("-n", &mut i),
            "--eps" => args.eps = num!("--eps", &mut i),
            "--delta" => args.delta = num!("--delta", &mut i),
            "--seed" => args.seed = num!("--seed", &mut i),
            "--sample" => args.sample = num!("--sample", &mut i),
            "--threads" => {
                args.threads =
                    Some(parse_threads_or_report(&value(&mut i)).unwrap_or_else(|| usage()))
            }
            "--enumerate" => args.enumerate = num!("--enumerate", &mut i),
            "--exact" => args.exact = true,
            "--dot" => args.dot = true,
            "--stats" => args.stats = true,
            "--no-batch" => args.no_batch = true,
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
    if args.method != Method::Fpras && (args.stats || args.no_batch || args.trace_out.is_some()) {
        eprintln!("--stats, --no-batch and --trace-out require --method fpras");
        usage();
    }
    args
}

/// [`load_automaton`] for the one-shot paths: any failure is a usage
/// error (exit 2).
fn load_automaton_or_exit(regex_pattern: Option<&str>, file: Option<&str>) -> Nfa {
    load_automaton(regex_pattern, file).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// `|estimate − exact| / exact` for `--exact`, with 0/0 = 0 and x/0 = ∞.
fn relative_error(estimate: ExtFloat, exact: f64) -> f64 {
    if exact == 0.0 {
        if estimate.is_zero() {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate.to_f64() - exact).abs() / exact
    }
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
    println!("  memo overlay entries {}", s.memo.overlay_entries);
    println!("  pool parallel passes {}", s.pool.parallel_passes);
    println!("  pool parallel items  {}", s.pool.parallel_items);
    println!("  pool sequential pass {}", s.pool.sequential_passes);
    println!("  pool sequential item {}", s.pool.sequential_items);
    println!("  pool steals          {}", s.pool.steals);
    println!("  pool memo races      {}", s.pool.memo_races);
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
    /// The session settings (`serve`: every tenant's default and
    /// ceiling; `query` raises `max_n` to the largest requested length).
    spec: SessionSpec,
    lengths: Vec<usize>,
    stats: bool,
    /// `serve` quotas: `--max-sessions`, `--max-total-levels`,
    /// `--max-query-ops`.
    quota: QuotaConfig,
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
             \"default\". The server's --max-n, --eps and --delta are the\n\
             ceiling of every `open`: a larger --max-n or a smaller --eps\n\
             or --delta is refused. Bad lines (including lines that are\n\
             not valid UTF-8) and quota denials answer with one\n\
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
        spec: SessionSpec::default(),
        lengths: Vec::new(),
        stats: false,
        quota: QuotaConfig::default(),
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
            "--eps" => args.spec.eps = num!("--eps", &mut i),
            "--delta" => args.spec.delta = num!("--delta", &mut i),
            "--seed" => args.spec.seed = num!("--seed", &mut i),
            "--threads" => {
                args.spec.threads =
                    parse_threads_or_report(&value(&mut i)).unwrap_or_else(|| service_usage(cmd))
            }
            "--max-n" => args.spec.max_n = num!("--max-n", &mut i),
            "--stats" => args.stats = true,
            "--max-sessions" if cmd == "serve" => {
                args.quota.max_sessions = Some(num!("--max-sessions", &mut i))
            }
            "--max-total-levels" if cmd == "serve" => {
                args.quota.max_total_levels = Some(num!("--max-total-levels", &mut i))
            }
            "--max-query-ops" if cmd == "serve" => {
                args.quota.max_query_ops = Some(num!("--max-query-ops", &mut i))
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

/// `nfa-count query`: one session answers a list of lengths in order.
/// Parameter checking is [`QuerySession::new`]'s job (the one shared
/// [`Params::validate`] path); a failure is a usage exit, before any
/// level is built. The exit report is the reuse summary and, under
/// `--stats`, the build counters merged with the sample-serving work
/// (tracked apart so serving never spends the build budget).
fn query_main(argv: &[String]) {
    let mut args = parse_service_args("query", argv);
    args.spec.max_n = args.spec.max_n.max(args.lengths.iter().copied().max().unwrap_or(0));
    let nfa = load_automaton_or_exit(args.regex.as_deref(), args.file.as_deref());
    let mut session = QuerySession::new(&nfa, args.spec.params(&nfa), args.spec.policy())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    for &n in &args.lengths {
        match session.estimate(n) {
            Ok(est) => println!("estimate |L(A_{n})| ≈ {est} (log2 ≈ {:.3})", est.log2()),
            Err(e) => {
                eprintln!("query n={n} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", session.stats());
    if args.stats {
        let mut merged = session.run_stats().clone();
        merged.merge(session.query_run_stats());
        report_stats(&merged);
    }
}

/// `nfa-count serve`: stdin → [`Server`] → stdout. Returns the process
/// exit code: 0 on clean EOF or `quit`, 1 when stdin or stdout failed
/// mid-stream (an I/O error is not an end of input), 2 when the
/// startup `default` session cannot be opened — no client is listening
/// yet, so an `error:` line would vanish into a broken pipeline.
fn serve_main(argv: &[String]) -> i32 {
    let args = parse_service_args("serve", argv);
    let mut server = Server::new(ServerConfig { spec: args.spec.clone(), quota: args.quota });
    if args.regex.is_some() || args.file.is_some() {
        let opened = load_automaton(args.regex.as_deref(), args.file.as_deref())
            .map_err(ServeError::Usage)
            .and_then(|nfa| server.open("default", nfa, args.spec.clone()));
        if let Err(e) = opened {
            eprintln!("{e}");
            return 2;
        }
    }
    eprintln!(
        "serving (open NAME --regex P | use NAME | close NAME | estimate N | \
         range A B | sample N [COUNT] | stats | metrics | trace on FILE | \
         trace off | quit)"
    );
    let result = serve_stream(&mut server, std::io::stdin().lock(), std::io::stdout().lock());
    if args.stats {
        report_stats(&server.run_stats());
    }
    match result {
        Ok(()) => 0,
        Err(StreamError::Read(e)) => {
            eprintln!("stdin read error: {e}");
            1
        }
        Err(StreamError::Write(e)) => {
            eprintln!("stdout write error: {e}");
            1
        }
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
                let rel = relative_error(run.estimate(), exact_count.to_f64());
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
                    let rel = relative_error(run.estimate(), exact.to_f64());
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
