//! End-to-end tests of the observability surface (D15): `--trace-out`
//! on the one-shot CLI, serve `trace on|off` and `metrics`, the
//! `--stats` phase-wall breakdown — and the hard invariant that none of
//! it moves a single estimate bit.

mod common;
use common::{assert_well_formed_json_object, run, run_with_stdin};
use fpras_automata::regex::compile_regex;
use fpras_automata::Alphabet;
use fpras_core::obs::{install_sink, take_sink, TraceEvent, TraceSink};
use fpras_core::service::{QuerySession, SessionPolicy};
use fpras_core::{run_parallel, Params};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A unique path under the cargo tmp dir (tests run concurrently).
fn tmp_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn trace_out_writes_schema_conformant_jsonl() {
    let path = tmp_path("trace-out-basic.jsonl");
    let path_str = path.to_str().expect("utf-8 tmp path");
    let (stdout, stderr, ok) = run(&[
        "--regex",
        "(0|1)*11(0|1)*",
        "-n",
        "8",
        "--seed",
        "7",
        "--threads",
        "2",
        "--trace-out",
        path_str,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate |L(A_8)|"), "{stdout}");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(!trace.is_empty(), "trace file is empty");
    for line in trace.lines() {
        assert!(line.starts_with("{\"ev\": \""), "no ev discriminator: {line}");
        assert_well_formed_json_object(line);
    }
    // The documented event vocabulary for a Deterministic run: start,
    // per-level phase passes, memo commits, a pool summary, end.
    for needle in
        ["\"ev\": \"run_start\"", "\"ev\": \"pass\"", "\"ev\": \"run_end\"", "\"phase\": \"count\""]
    {
        assert!(trace.contains(needle), "missing {needle} in:\n{trace}");
    }
    assert!(trace.contains("\"substrate\": \"nfa\""), "{trace}");
    assert!(trace.contains("\"policy\": \"deterministic\""), "{trace}");
}

#[test]
fn trace_out_never_changes_estimate_bits() {
    let args = ["--regex", "(0|1)*11(0|1)*", "-n", "9", "--seed", "41", "--threads", "2"];
    let (silent, _, ok) = run(&args);
    assert!(ok);
    let path = tmp_path("trace-out-bits.jsonl");
    let mut traced_args = args.to_vec();
    let path_str = path.to_str().expect("utf-8 tmp path").to_owned();
    traced_args.extend_from_slice(&["--trace-out", &path_str]);
    let (traced, stderr, ok) = run(&traced_args);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(silent, traced, "tracing must be invisible in the answer");
    assert!(path.exists(), "trace file written");
}

#[test]
fn trace_out_requires_fpras_method() {
    let path = tmp_path("trace-out-dp.jsonl");
    let (_, stderr, ok) = run(&[
        "--regex",
        "1*",
        "-n",
        "4",
        "--method",
        "dp",
        "--trace-out",
        path.to_str().expect("utf-8 tmp path"),
    ]);
    assert!(!ok);
    assert!(stderr.contains("--trace-out require"), "{stderr}");
}

#[test]
fn stats_reports_phase_wall_breakdown() {
    let (stdout, stderr, ok) =
        run(&["--regex", "(0|1)*11(0|1)*", "-n", "8", "--seed", "7", "--stats"]);
    assert!(ok, "stderr: {stderr}");
    for needle in
        ["phase plan", "phase count", "phase sample", "phase merge", "wall total", "wall longest"]
    {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

#[test]
fn serve_trace_on_off_produces_parseable_jsonl() {
    let path = tmp_path("serve-trace.jsonl");
    let path_str = path.to_str().expect("utf-8 tmp path");
    let input =
        format!("trace on {path_str}\nestimate 6\nrange 3 5\ntrace off\nestimate 4\nquit\n");
    let (stdout, stderr, ok) =
        run_with_stdin(&["serve", "--regex", "(0|1)*11(0|1)*", "--seed", "5"], &input);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains(&format!("trace on ({path_str})")), "{stdout}");
    assert!(stdout.contains("trace off"), "{stdout}");
    assert!(stdout.contains("estimate 6 = "), "{stdout}");
    let trace = std::fs::read_to_string(&path).expect("trace file written");
    assert!(!trace.is_empty(), "trace file is empty");
    for line in trace.lines() {
        assert!(line.starts_with("{\"ev\": \""), "no ev discriminator: {line}");
        assert_well_formed_json_object(line);
    }
    // The traced window covers the estimate-6 build and the range
    // queries; the post-`trace off` query must not have appended.
    assert!(trace.contains("\"ev\": \"run_start\""), "{trace}");
    assert!(trace.contains("\"n\": 6"), "{trace}");
    assert!(!trace.contains("\"n\": 4"), "events after `trace off`:\n{trace}");
}

#[test]
fn serve_trace_bad_usage_is_one_error_line() {
    let input = "trace\ntrace on\ntrace purple\ntrace on /nonexistent-dir/x/t.jsonl\nquit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve", "--regex", "1*"], input);
    assert!(ok, "stderr: {stderr}");
    let usage = stdout.lines().filter(|l| *l == "error: usage: trace on FILE | trace off").count();
    assert_eq!(usage, 3, "{stdout}");
    assert!(
        stdout.contains("error: cannot open trace file /nonexistent-dir/x/t.jsonl"),
        "{stdout}"
    );
}

#[test]
fn serve_metrics_emits_prometheus_text() {
    let input = "estimate 6\nestimate 6\nestimate 4\nmetrics\nquit\n";
    let (stdout, stderr, ok) =
        run_with_stdin(&["serve", "--regex", "(0|1)*11(0|1)*", "--seed", "5"], input);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("# TYPE fpras_queries_served_total counter"), "{stdout}");
    assert!(stdout.contains("fpras_queries_served_total 3"), "{stdout}");
    assert!(stdout.contains("fpras_open_tenants 1"), "{stdout}");
    assert!(stdout.contains("fpras_levels_built_total 6"), "{stdout}");
    assert!(stdout.contains("# TYPE fpras_query_latency_us histogram"), "{stdout}");
    assert!(stdout.contains("fpras_query_latency_us_bucket{le=\"+Inf\"} 3"), "{stdout}");
    assert!(stdout.contains("fpras_query_latency_us_count 3"), "{stdout}");
    // Cumulative `le` buckets are monotone nondecreasing.
    let mut last = 0u64;
    for line in stdout.lines().filter(|l| l.starts_with("fpras_query_latency_us_bucket{le=\"")) {
        let v: u64 = line.rsplit(' ').next().expect("value").parse().expect("count");
        assert!(v >= last, "non-monotone bucket line: {line}");
        last = v;
    }
    // The session summary still prints the histogram-backed line.
    assert!(stdout.contains("latency: count=3"), "{stdout}");
    // `walks sure` reads the same in `metrics` as in a `query --stats`
    // run of the same session settings.
    let sure = |text: &str, key: &str| -> u64 {
        let line = text.lines().find(|l| l.trim_start().starts_with(key)).expect(key);
        line.rsplit(' ').next().expect("value").parse().expect("count")
    };
    let served = sure(&stdout, "fpras_walks_sure_total ");
    let (query, stderr, ok) =
        run(&["query", "--regex", "(0|1)*11(0|1)*", "--seed", "5", "--lengths", "6", "--stats"]);
    assert!(ok, "stderr: {stderr}");
    assert!(served > 0, "{stdout}");
    assert_eq!(served, sure(&query, "walks sure"), "{query}");
}

#[test]
fn serve_metrics_counts_quota_rejections() {
    let input = "estimate 4\nestimate 20\nmetrics\nquit\n";
    let (stdout, stderr, ok) =
        run_with_stdin(&["serve", "--regex", "1*", "--max-total-levels", "6"], input);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("fpras_quota_rejections_total 1"), "{stdout}");
    assert!(stdout.contains("fpras_queries_served_total 1"), "{stdout}");
}

/// A sink sharing its event log with the test that installed it.
struct SharedSink(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceSink for SharedSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.0.lock().expect("shared sink lock").push(event.clone());
    }
}

/// The trace events `body` emits, with wall times zeroed. This is the
/// only test in this binary that emits in-process, so the process-global
/// sink sees no other test's events.
fn trace_of(body: impl FnOnce()) -> Vec<TraceEvent> {
    let log = Arc::new(Mutex::new(Vec::new()));
    install_sink(Box::new(SharedSink(Arc::clone(&log))));
    body();
    drop(take_sink());
    let events = std::mem::take(&mut *log.lock().expect("shared sink lock"));
    events
        .into_iter()
        .map(|event| match event {
            TraceEvent::RunEnd { ops, .. } => TraceEvent::RunEnd { ops, wall_us: 0 },
            TraceEvent::Pass { level, phase, items, walk_table_hits, .. } => {
                TraceEvent::Pass { level, phase, items, wall_us: 0, walk_table_hits }
            }
            other => other,
        })
        .collect()
}

/// A fresh run at `n` and a new session's first `estimate(n)` build the
/// same checkpointed run, so they trace the same events with the same
/// fields apart from walls — the session's extension included
/// `pool_summary`.
#[test]
fn fresh_run_and_first_session_extension_trace_alike() {
    let nfa = compile_regex("(0|1)*11(0|1)*", &Alphabet::binary()).expect("regex compiles");
    let n = 8;
    let params = Params::for_session(0.3, 0.1, nfa.num_states(), n);
    let fresh = trace_of(|| {
        run_parallel(&nfa, n, &params, 7, 1).expect("fresh run");
    });
    let policy = SessionPolicy::Deterministic { seed: 7, threads: 1 };
    let mut session = QuerySession::new(&nfa, params.clone(), policy).expect("session");
    let extended = trace_of(|| {
        session.estimate(n).expect("first estimate");
    });
    assert_eq!(fresh, extended);
    assert!(matches!(fresh.first(), Some(TraceEvent::RunStart { n: 8, from_level: 1, .. })));
    assert!(matches!(fresh.last(), Some(TraceEvent::RunEnd { .. })));
    let summaries = fresh.iter().filter(|e| matches!(e, TraceEvent::PoolSummary { .. })).count();
    assert_eq!(summaries, 1, "{fresh:?}");
}
