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
//! nfa-count robp --file prog.robp --exact              # count an nROBP's assignments
//! nfa-count query --regex '1(0|1)*' --lengths 8,4,12   # one session, many lengths
//! echo 'estimate 16' | nfa-count serve --regex '1*'    # stdin query loop
//! printf 'open a --regex 1*\nestimate 8\n' | nfa-count serve  # multi-session
//! ```
//!
//! One front end serves the four commands. One argv loop parses every
//! command; each command takes its own set of flags (any other is an
//! `unknown argument` usage error, exit 2) and keeps its own usage text.
//! The flags they share — `--regex --file --eps --delta --seed --threads
//! --max-n` — go through `fpras_core::service::SessionArgs::apply`, the
//! same function the serve `open` line uses, so each has one parser and
//! one error message.
//!
//! Methods: `fpras` (default, Algorithm 3 through the level-synchronous
//! engine on `--threads T` workers, 1 to `MAX_THREADS`, with output
//! independent of `T`), `path-is` (unbiased path importance sampling),
//! `dp` (exact determinization DP), `bdd` (exact BDD model counting).
//! The NFA file format is documented in `fpras_automata::parse`.
//!
//! The `robp` subcommand runs the default command's FPRAS count path
//! over the other leveled substrate (DESIGN.md D14): a non-deterministic
//! read-once branching program in the text format of
//! `fpras_automata::robp`, whose depth fixes the query length (every
//! accepted assignment reads all variables). Only the counted set's
//! label (`L(A_n)` or `L(P)`) and the empty-slice note differ.
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
use fpras_automata::{dot, enumerate_slice, robp};
use fpras_baselines::path_importance_sampling;
use fpras_core::service::{
    parse_flag_value, serve_stream, QuerySession, QuotaConfig, ServeError, Server, ServerConfig,
    SessionArgs, Source, StreamError,
};
use fpras_core::{
    run_parallel, run_robp_parallel, JsonlSink, Params, RunStats, UniformGenerator, MAX_THREADS,
};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, SeedableRng};
use std::fmt::Display;

/// The commands: `Count` is the default one-shot counter, the others
/// are named by the first argument.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Count,
    Robp,
    Query,
    Serve,
}

#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum Method {
    #[default]
    Fpras,
    PathIs,
    ExactDp,
    ExactBdd,
}

/// Every command's flags; each command reads the ones it takes.
#[derive(Default)]
struct Args {
    /// `--regex --file --eps --delta --seed --threads --max-n`.
    session: SessionArgs,
    n: Option<usize>,
    sample: usize,
    enumerate: usize,
    exact: bool,
    dot: bool,
    stats: bool,
    no_batch: bool,
    trace_out: Option<String>,
    method: Method,
    /// `query --lengths`.
    lengths: Vec<usize>,
    /// `serve` quotas: `--max-sessions`, `--max-total-levels`,
    /// `--max-query-ops`.
    quota: QuotaConfig,
}

impl Command {
    /// True iff this command takes `flag`.
    fn takes(self, flag: &str) -> bool {
        const SHARED: &[&str] = &["--file", "--eps", "--delta", "--seed", "--threads", "--stats"];
        let own: &[&str] = match self {
            Command::Count => &[
                "--regex",
                "-n",
                "--length",
                "--sample",
                "--enumerate",
                "--exact",
                "--dot",
                "--no-batch",
                "--trace-out",
                "--method",
            ],
            Command::Robp => &["--sample", "--exact"],
            Command::Query => &["--regex", "--max-n", "--lengths"],
            Command::Serve => {
                &["--regex", "--max-n", "--max-sessions", "--max-total-levels", "--max-query-ops"]
            }
        };
        SHARED.contains(&flag) || own.contains(&flag)
    }

    /// Prints this command's usage text and exits 2.
    fn usage(self) -> ! {
        match self {
            Command::Count => eprintln!(
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
            ),
            Command::Robp => eprintln!(
                "usage: nfa-count robp --file PATH\n\
                 \t[--eps E=0.2] [--delta D=0.05] [--seed S=42] [--threads T=1]\n\
                 \t[--sample K] [--exact] [--stats]\n\
                 \n\
                 Counts the accepted assignments of a non-deterministic\n\
                 read-once branching program (text format: see\n\
                 fpras_automata::robp) on the default command's FPRAS count\n\
                 path, run over the program's leveled DAG directly. The\n\
                 program's depth fixes the word length; --threads sets the\n\
                 worker count (1 to {MAX_THREADS}) exactly as the default\n\
                 command does, with output independent of T."
            ),
            Command::Query | Command::Serve => {
                let serve = self == Command::Serve;
                eprintln!(
                    "usage: nfa-count {} {}\n\
                     \t{}[--eps E=0.2] [--delta D=0.05] [--seed S=42]\n\
                     \t[--threads T=1] [--max-n N=64] [--stats]{}\n\
                     \n\
                     One QuerySession serves every length: levels are built once and\n\
                     reused by later queries; answers are bit-identical to a fresh\n\
                     run at the same length under the same --seed and --threads.\n\
                     --max-n sizes the error-budget split and is a hard cap: lengths\n\
                     above it are refused (`query` raises it to max(--lengths)\n\
                     automatically). It may not exceed {MAX_SESSION_N}.{}",
                    if serve { "serve" } else { "query" },
                    if serve {
                        "[--regex PATTERN | --file PATH]"
                    } else {
                        "(--regex PATTERN | --file PATH)"
                    },
                    if serve { "" } else { "--lengths N1,N2,… " },
                    if serve {
                        "\n\t[--max-sessions K] [--max-total-levels L] [--max-query-ops B]"
                    } else {
                        ""
                    },
                    if serve {
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
                )
            }
        }
        std::process::exit(2)
    }
}

impl Args {
    /// Applies one flag of `cmd`, taking its value from `words` when it
    /// has one. `Err` is the one-line message for a flag `cmd` does not
    /// take or a missing or bad value.
    fn apply<'a>(
        &mut self,
        cmd: Command,
        flag: &str,
        words: &mut impl Iterator<Item = &'a str>,
    ) -> Result<(), String> {
        if !cmd.takes(flag) {
            return Err(format!("unknown argument {flag:?}"));
        }
        match flag {
            "--exact" => self.exact = true,
            "--dot" => self.dot = true,
            "--stats" => self.stats = true,
            "--no-batch" => self.no_batch = true,
            _ => {
                let value = words.next();
                if self.session.apply(flag, value)? {
                    return Ok(());
                }
                match flag {
                    "-n" | "--length" => self.n = Some(parse_flag_value("-n", value)?),
                    "--sample" => self.sample = parse_flag_value(flag, value)?,
                    "--enumerate" => self.enumerate = parse_flag_value(flag, value)?,
                    "--trace-out" => self.trace_out = Some(parse_flag_value(flag, value)?),
                    "--method" => {
                        self.method = match parse_flag_value::<String>(flag, value)?.as_str() {
                            "fpras" => Method::Fpras,
                            "path-is" => Method::PathIs,
                            "dp" => Method::ExactDp,
                            "bdd" => Method::ExactBdd,
                            other => return Err(format!("unknown method {other:?}")),
                        }
                    }
                    "--lengths" => {
                        self.lengths = parse_flag_value::<String>(flag, value)?
                            .split(',')
                            .map(|s| parse_flag_value(flag, Some(s.trim())))
                            .collect::<Result<_, _>>()?
                    }
                    "--max-sessions" => {
                        self.quota.max_sessions = Some(parse_flag_value(flag, value)?)
                    }
                    "--max-total-levels" => {
                        self.quota.max_total_levels = Some(parse_flag_value(flag, value)?)
                    }
                    "--max-query-ops" => {
                        self.quota.max_query_ops = Some(parse_flag_value(flag, value)?)
                    }
                    _ => return Err(format!("unknown argument {flag:?}")),
                }
            }
        }
        Ok(())
    }

    /// True iff exactly one of `--regex`/`--file` was given.
    fn one_source(&self) -> bool {
        self.session.regex.is_some() != self.session.file.is_some()
    }
}

/// The one argv loop: parses `argv` as `cmd`'s flags. `--help`, a flag
/// `cmd` does not take, or a missing or bad value prints `cmd`'s usage
/// and exits 2.
fn parse_args(cmd: Command, argv: &[String]) -> Args {
    let mut args = Args::default();
    let mut words = argv.iter().map(String::as_str);
    while let Some(flag) = words.next() {
        if matches!(flag, "--help" | "-h") {
            cmd.usage();
        }
        if let Err(e) = args.apply(cmd, flag, &mut words) {
            eprintln!("{e}");
            cmd.usage();
        }
    }
    args
}

/// Prints `msg` on stderr and exits with `code`.
fn exit_with(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
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

fn report_estimate(label: &str, estimate: ExtFloat) {
    println!("estimate |{label}| ≈ {estimate}");
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
    println!("  trials unwalked      {}", s.trials_unwalked);
    println!("  walks sure           {}", s.walks_sure);
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
    println!("  steps per word       {:.2}", s.steps_per_word());
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

/// The FPRAS count path of both one-shot commands: Algorithm 3 over the
/// NFA's length-`n` slice or the nROBP's assignments (`n` = its depth),
/// then the estimate, the `--stats` counters, the `--exact` cross-check
/// and the `--sample` witnesses. `label` names the counted set
/// (`L(A_n)` or `L(P)`); `empty` is the note printed when it has no
/// word. A parameter error exits 2, a failed run 1.
fn fpras_count(args: &Args, source: Source<'_>, n: usize, label: &str, empty: &str) {
    let spec = &args.session.spec;
    let (cells, alphabet) = match source {
        Source::Nfa(nfa) => (nfa.num_states(), nfa.alphabet()),
        Source::Robp(robp) => (robp.num_nodes(), robp.alphabet()),
    };
    let mut params = Params::practical(spec.eps, spec.delta, cells, n);
    if args.no_batch {
        params.batch_unions = false;
    }
    // One checker for every surface (engine, sessions, CLI): fail fast
    // with a clean message instead of a mid-run error.
    if let Err(e) = params.validate() {
        exit_with(2, e);
    }
    // Bit-identical for every thread count.
    let run = match source {
        Source::Nfa(nfa) => run_parallel(nfa, n, &params, spec.seed, spec.threads),
        Source::Robp(robp) => run_robp_parallel(robp, &params, spec.seed, spec.threads),
    }
    .unwrap_or_else(|e| exit_with(1, format!("FPRAS failed: {e}")));
    report_estimate(label, run.estimate());
    eprintln!(
        "  (deterministic×{} policy, {} membership ops, {:.1} samples/cell, {:?})",
        spec.threads,
        run.stats().membership_ops,
        run.stats().samples_per_cell(),
        run.stats().wall
    );
    if args.stats {
        report_stats(run.stats());
    }

    if args.exact {
        // An nROBP's node graph doubles as its exact oracle: in a leveled
        // DAG every accepted word has length exactly `depth`.
        let exact = match source {
            Source::Nfa(nfa) => count_exact(nfa, n),
            Source::Robp(robp) => count_exact(&robp.to_nfa(), n),
        };
        match exact {
            Ok(exact) => {
                let rel = relative_error(run.estimate(), exact.to_f64());
                println!("exact    |{label}| = {exact}");
                println!("  relative error {rel:.5} (target ε = {})", spec.eps);
            }
            Err(e) => eprintln!("exact counter unavailable: {e}"),
        }
    }

    if args.sample > 0 {
        let mut generator = UniformGenerator::new(run);
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        println!("samples:");
        for _ in 0..args.sample {
            match generator.generate(&mut rng) {
                Some(w) => println!("  {}", w.display(alphabet)),
                None => {
                    println!("  ({empty})");
                    break;
                }
            }
        }
    }
}

/// The default command: one length of one automaton, by `--method`.
fn count_nfa(args: &Args) {
    let (Some(n), true) = (args.n, args.one_source()) else { Command::Count.usage() };
    if args.method != Method::Fpras && (args.stats || args.no_batch || args.trace_out.is_some()) {
        eprintln!("--stats, --no-batch and --trace-out require --method fpras");
        Command::Count.usage();
    }
    if let Some(path) = &args.trace_out {
        let sink = JsonlSink::create(path)
            .unwrap_or_else(|e| exit_with(2, format!("cannot open trace file {path}: {e}")));
        fpras_core::obs::install_sink(Box::new(sink));
    }
    let nfa = args.session.load().unwrap_or_else(|e| exit_with(2, e));
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
        let words = enumerate_slice(&nfa, n, Some(args.enumerate))
            .unwrap_or_else(|e| exit_with(1, format!("enumeration failed: {e}")));
        println!("first {} word(s) of L(A_{n}):", words.len());
        for w in &words {
            println!("  {}", w.display(nfa.alphabet()));
        }
    }

    let label = format!("L(A_{n})");
    let (eps, delta) = (args.session.spec.eps, args.session.spec.delta);
    match args.method {
        Method::Fpras => {
            fpras_count(args, Source::Nfa(&nfa), n, &label, "language slice is empty");
        }
        Method::PathIs => {
            // Trial budget chosen like naive MC's: Chernoff at density 1.
            let trials = ((3.0 * (2.0 / delta).ln()) / (eps * eps)).ceil() as u64;
            let mut rng = SmallRng::seed_from_u64(args.session.spec.seed);
            match path_importance_sampling(&nfa, n, trials.max(100), &mut rng) {
                Some(r) => {
                    report_estimate(&label, r.estimate);
                    eprintln!(
                        "  ({} trials, rel. std. error {:.4}, max ambiguity {:.0})",
                        r.trials, r.rel_std_error, r.max_ambiguity
                    );
                    if r.rel_std_error > eps / 2.0 {
                        eprintln!(
                            "  warning: high variance — the instance is ambiguous; \
                             prefer --method fpras"
                        );
                    }
                }
                None => report_estimate(&label, ExtFloat::ZERO),
            }
        }
        Method::ExactDp => match count_exact(&nfa, n) {
            Ok(c) => println!("exact |{label}| = {c}"),
            Err(e) => exit_with(1, format!("exact DP failed: {e}")),
        },
        Method::ExactBdd => match fpras_bdd::compile_slice(&nfa, n) {
            Ok(compiled) => {
                println!("exact |{label}| = {}", compiled.count());
                eprintln!("  ({} BDD nodes)", compiled.bdd.num_nodes());
            }
            Err(e) => exit_with(1, format!("BDD compilation failed: {e}")),
        },
    }
    if args.method != Method::Fpras && args.sample > 0 {
        eprintln!("--sample requires --method fpras");
    }
    // Flush and close the --trace-out sink (the process would otherwise
    // exit without draining the buffered writer).
    fpras_core::obs::take_sink();
}

/// `nfa-count robp`: the default command's count path over an nROBP.
/// An unreadable or malformed program exits 2, like an NFA file.
fn count_robp(args: &Args) {
    let Some(path) = &args.session.file else { Command::Robp.usage() };
    let robp = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| robp::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}")))
        .unwrap_or_else(|e| exit_with(2, e));
    eprintln!(
        "program: {} nodes, {} edges, depth {}, alphabet {:?}",
        robp.num_nodes(),
        robp.num_edges(),
        robp.depth(),
        robp.alphabet()
    );
    fpras_count(args, Source::Robp(&robp), robp.depth(), "L(P)", "the program accepts nothing");
}

/// The largest `--max-n` that `serve` and `query` accept. A session
/// derives its parameters from its `max_n`: the per-level accuracy
/// `ε/(2√max_n)` and sample sets of about `max_n/ε²` words, so its work
/// per level grows with `max_n` — at `2⁶⁰` a length-3 query ran more
/// membership ops than a `u64` counts. A larger value is a usage error.
const MAX_SESSION_N: usize = 4096;

/// Exits 2 with one error line when `max_n` is above [`MAX_SESSION_N`].
fn check_max_n(max_n: usize) {
    if max_n > MAX_SESSION_N {
        exit_with(
            2,
            format!(
                "--max-n {max_n} is above {MAX_SESSION_N}, the largest length a session serves"
            ),
        );
    }
}

/// `nfa-count query`: one session answers a list of lengths in order.
/// Parameter checking is [`QuerySession::new`]'s job (the one shared
/// [`Params::validate`] path); a failure is a usage exit, before any
/// level is built. The exit report is the reuse summary and, under
/// `--stats`, the build counters merged with the sample-serving work
/// (tracked apart so serving never spends the build budget).
fn query_main(mut args: Args) {
    if !args.one_source() {
        Command::Query.usage();
    }
    if args.lengths.is_empty() {
        eprintln!("query requires --lengths");
        Command::Query.usage();
    }
    let spec = &mut args.session.spec;
    spec.max_n = spec.max_n.max(args.lengths.iter().copied().max().unwrap_or(0));
    check_max_n(spec.max_n);
    let nfa = args.session.load().unwrap_or_else(|e| exit_with(2, e));
    let spec = &args.session.spec;
    let mut session = QuerySession::new(&nfa, spec.params(&nfa), spec.policy())
        .unwrap_or_else(|e| exit_with(2, e));
    for &n in &args.lengths {
        match session.estimate(n) {
            Ok(est) => println!("estimate |L(A_{n})| ≈ {est} (log2 ≈ {:.3})", est.log2()),
            Err(e) => exit_with(1, format!("query n={n} failed: {e}")),
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
fn serve_main(args: Args) -> i32 {
    if args.session.regex.is_some() && args.session.file.is_some() {
        Command::Serve.usage();
    }
    let spec = args.session.spec.clone();
    check_max_n(spec.max_n);
    let mut server = Server::new(ServerConfig { spec: spec.clone(), quota: args.quota });
    if args.session.regex.is_some() || args.session.file.is_some() {
        let opened = args
            .session
            .load()
            .map_err(ServeError::Usage)
            .and_then(|nfa| server.open("default", nfa, spec));
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

fn main() {
    // The first argument names the command (`serve` and `query` are the
    // service surface, `robp` the branching-program substrate); anything
    // else is the default one-shot counter.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, flags) = match argv.first().map(String::as_str) {
        Some("robp") => (Command::Robp, &argv[1..]),
        Some("query") => (Command::Query, &argv[1..]),
        Some("serve") => (Command::Serve, &argv[1..]),
        _ => (Command::Count, &argv[..]),
    };
    let args = parse_args(cmd, flags);
    match cmd {
        Command::Count => count_nfa(&args),
        Command::Robp => count_robp(&args),
        Command::Query => query_main(args),
        Command::Serve => std::process::exit(serve_main(args)),
    }
}
