//! End-to-end tests of the `nfa-count serve`/`query` service surface:
//! one session answering many lengths, reuse accounting, the stdin
//! query loop, and the centralized parameter validation.

mod common;
use common::{run, run_with_stdin, run_with_stdin_bytes, run_with_stdin_file, write_fixture};

fn estimate_line<'a>(stdout: &'a str, needle: &str) -> &'a str {
    stdout.lines().find(|l| l.contains(needle)).unwrap_or_else(|| panic!("no {needle}: {stdout}"))
}

#[test]
fn query_serves_lengths_from_one_session() {
    let (stdout, stderr, ok) = run(&[
        "query",
        "--regex",
        "1(0|1)*",
        "--lengths",
        "8,4,12,8",
        "--seed",
        "9",
        "--threads",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    // Deterministic language: |L(A_n)| = 2^{n-1} exactly for this toy.
    assert!(stdout.contains("estimate |L(A_8)|"), "{stdout}");
    assert!(stdout.contains("estimate |L(A_4)|"), "{stdout}");
    assert!(stdout.contains("estimate |L(A_12)|"), "{stdout}");
    // 12 levels built once; 8 + 4 + 8 reused by the other queries.
    assert!(stdout.contains("queries=4"), "{stdout}");
    assert!(stdout.contains("levels_built=12"), "{stdout}");
    assert!(stdout.contains("levels_reused=20"), "{stdout}");
}

#[test]
fn query_answers_do_not_depend_on_query_order() {
    // The session invariant (D11) surfaced through the CLI: asking for
    // n = 10 after a smaller length returns the byte-identical line a
    // lone n = 10 query produces (same seed, same policy).
    let base = ["query", "--regex", "(0|1)*11(0|1)*", "--seed", "4", "--max-n", "10"];
    let lone = {
        let mut a = base.to_vec();
        a.extend_from_slice(&["--lengths", "10"]);
        run(&a)
    };
    let mixed = {
        let mut a = base.to_vec();
        a.extend_from_slice(&["--lengths", "3,7,10"]);
        run(&a)
    };
    assert!(lone.2 && mixed.2, "{} {}", lone.1, mixed.1);
    assert_eq!(
        estimate_line(&lone.0, "|L(A_10)|"),
        estimate_line(&mixed.0, "|L(A_10)|"),
        "extension must be bit-identical to a fresh run"
    );
    // And the Deterministic policy is thread-count independent too.
    let threaded = {
        let mut a = base.to_vec();
        a.extend_from_slice(&["--lengths", "3,7,10", "--threads", "1"]);
        run(&a)
    };
    let threaded4 = {
        let mut a = base.to_vec();
        a.extend_from_slice(&["--lengths", "3,7,10", "--threads", "4"]);
        run(&a)
    };
    assert!(threaded.2 && threaded4.2);
    assert_eq!(
        estimate_line(&threaded.0, "|L(A_10)|"),
        estimate_line(&threaded4.0, "|L(A_10)|"),
        "thread count must not change session answers"
    );
}

#[test]
fn serve_loop_answers_stdin_queries() {
    let input = "estimate 6\nrange 4 6\nsample 6 2\nbogus\nstats\nquit\n";
    let (stdout, stderr, ok) =
        run_with_stdin(&["serve", "--regex", "(0|1)*11(0|1)*", "--seed", "5"], input);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate 6 = "), "{stdout}");
    assert!(stdout.contains("estimate 4 = "), "{stdout}");
    assert!(stdout.contains("estimate 5 = "), "{stdout}");
    assert!(stdout.contains("sample 6 = "), "{stdout}");
    assert!(stdout.contains("error: unknown command"), "{stdout}");
    assert!(stdout.contains("levels_built=6"), "{stdout}");
    // Sampled words come from L(A_6): length 6, containing "11".
    for line in stdout.lines().filter(|l| l.starts_with("sample 6 = ")) {
        let word = line.rsplit(' ').next().unwrap();
        assert_eq!(word.len(), 6, "{line}");
        assert!(word.contains("11"), "{line}");
    }
    // `range` reuses the levels `estimate 6` built: only reuse grows.
    assert!(stdout.contains("levels_reused="), "{stdout}");
}

#[test]
fn serve_handles_eof_without_quit() {
    let (stdout, _, ok) =
        run_with_stdin(&["serve", "--regex", "1*", "--seed", "1"], "estimate 3\n");
    assert!(ok);
    assert!(stdout.contains("estimate 3 = 1"), "{stdout}");
    assert!(stdout.contains("session: queries=1"), "{stdout}");
}

#[test]
fn invalid_params_rejected_by_all_surfaces() {
    // The one Params::validate() checker answers for the legacy CLI,
    // the service subcommands, and QuerySession::new alike.
    let (_, stderr, ok) = run(&["--regex", "1*", "-n", "4", "--eps", "3.0"]);
    assert!(!ok);
    assert!(stderr.contains("invalid parameters"), "{stderr}");
    let (_, stderr2, ok2) = run(&["query", "--regex", "1*", "--lengths", "4", "--eps", "0.0"]);
    assert!(!ok2);
    assert!(stderr2.contains("invalid parameters"), "{stderr2}");
    let (_, stderr3, ok3) = run_with_stdin(&["serve", "--regex", "1*", "--delta", "2.0"], "");
    assert!(!ok3);
    assert!(stderr3.contains("invalid parameters"), "{stderr3}");
}

/// `serve` and `query` refuse a `--max-n` above the largest length a
/// session serves (4096) — `query` also when `--lengths` raises it there
/// — with one error line and exit 2, before any level is built; 4096
/// itself is accepted.
#[test]
fn max_n_above_the_ceiling_is_a_usage_error() {
    let code = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nfa-count"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("binary runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for args in [
        &["serve", "--max-n", "4097"][..],
        &["serve", "--regex", "1*", "--max-n", "1152921504606846976"],
        &["query", "--regex", "1*", "--lengths", "4", "--max-n", "4097"],
        &["query", "--regex", "1*", "--lengths", "4,5000"],
    ] {
        let (status, stderr) = code(args);
        assert_eq!(status, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("is above 4096"), "{args:?}: {stderr}");
    }
    let (status, stderr) = code(&["serve", "--max-n", "4096"]);
    assert_eq!(status, Some(0), "{stderr}");
}

#[test]
fn query_requires_lengths() {
    let (_, stderr, ok) = run(&["query", "--regex", "1*"]);
    assert!(!ok);
    assert!(stderr.contains("--lengths"), "{stderr}");
}

#[test]
fn serve_multiplexes_named_sessions_bit_identically() {
    // Two named Deterministic sessions interleave over one registry
    // (and one shared pool); each answer must equal the byte-identical
    // line a dedicated single-session serve produces for that tenant.
    let input = "open a --regex 1(0|1)*\nopen b --regex (0|1)*11(0|1)*\n\
                 use a\nestimate 8\nuse b\nestimate 8\nuse a\nestimate 8\nstats\nquit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve", "--threads", "2"], input);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("opened a (4 states"), "{stdout}");
    assert!(stdout.contains("opened b (7 states"), "{stdout}");
    assert!(stdout.contains("using a"), "{stdout}");
    // One shared worker set for both sessions, not per-session spawns.
    assert!(stdout.contains("pools_created=1"), "{stdout}");
    assert!(stdout.contains("pool_workers_spawned=1"), "{stdout}");
    // The third query is a pure reuse hit: totals show 16 built (8+8)
    // and 8 reused.
    assert!(stdout.contains("levels_built=16"), "{stdout}");
    assert!(stdout.contains("levels_reused=8"), "{stdout}");
    let answers: Vec<&str> = stdout.lines().filter(|l| l.starts_with("estimate 8 = ")).collect();
    assert_eq!(answers.len(), 3, "{stdout}");
    assert_eq!(answers[0], answers[2], "reuse must be bit-identical");
    // Per-tenant answers equal fresh single-session serves (same seed,
    // same policy) — multiplexing is invisible to the values.
    for (pattern, line) in [("1(0|1)*", answers[0]), ("(0|1)*11(0|1)*", answers[1])] {
        let (solo, _, solo_ok) =
            run_with_stdin(&["serve", "--regex", pattern, "--threads", "2"], "estimate 8\nquit\n");
        assert!(solo_ok);
        assert_eq!(estimate_line(&solo, "estimate 8 = "), line, "tenant {pattern}");
    }
}

#[test]
fn serve_refuses_oversized_regex_and_keeps_serving() {
    let input = "open big --regex 0{99999999999}\nopen a --regex 1*\nestimate 3\nquit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve"], input);
    assert!(ok, "stderr: {stderr}");
    let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(errors.len(), 1, "{stdout}");
    assert!(errors[0].contains("above the limit"), "{stdout}");
    assert!(stdout.contains("estimate 3 = 1"), "{stdout}");
}

#[test]
fn serve_refuses_oversized_nfa_file_and_keeps_serving() {
    let big = write_fixture("serve-huge.nfa", "alphabet 01\nstates 9999999999\n");
    let input = format!(
        "open big --file {}\nopen a --regex 1*\nestimate 3\nquit\n",
        big.to_str().expect("utf-8 path")
    );
    let (stdout, stderr, ok) = run_with_stdin(&["serve"], &input);
    assert!(ok, "stderr: {stderr}");
    let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(errors.len(), 1, "{stdout}");
    assert!(errors[0].contains("above the limit of 4096"), "{stdout}");
    assert!(stdout.contains("estimate 3 = 1"), "{stdout}");
}

#[test]
fn serve_refuses_unbounded_threads_and_keeps_serving() {
    // One `open` line used to spawn one OS thread per requested worker
    // (and cache the pool): out-of-range counts now answer one `error:`
    // line before anything is spawned, and the server keeps serving.
    let input = "open big --regex (0|1)*11(0|1)* --threads 100000\n\
                 open none --regex 1* --threads 0\n\
                 open a --regex 1* --threads 2\n\
                 estimate 3\n\
                 quit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve"], input);
    assert!(ok, "stderr: {stderr}");
    let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(errors.len(), 2, "{stdout}");
    for e in &errors {
        assert!(e.contains("--threads must be between 1 and 64"), "{e}");
    }
    assert!(stdout.contains("opened a (2 states"), "{stdout}");
    assert!(stdout.contains("estimate 3 = 1"), "{stdout}");
}

#[test]
fn serve_caps_words_per_sample_line() {
    let input = "open a --regex 1*\nsample 3 4097\nsample 8 999999999999\nsample 3 4096\nquit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve"], input);
    assert!(ok, "stderr: {stderr}");
    let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(errors.len(), 2, "{stdout}");
    for e in &errors {
        assert!(e.contains("error: usage: sample N [COUNT]"), "{e}");
        assert!(e.contains("at most 4096"), "{e}");
    }
    // The cap itself is served in full, and nothing of the refused lines.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("sample 3 = ")).count(), 4096, "{stdout}");
    assert!(!stdout.contains("sample 8 = "), "{stdout}");
}

#[test]
fn serve_answers_every_bad_line_with_one_error() {
    // Malformed input of every stripe: each bad line gets exactly one
    // `error:` response and the process survives to answer the good
    // ones and exit cleanly.
    let input = "estimate 4\n\
                 open a\n\
                 open a --regex (0|1\n\
                 open a --regex 1* --file x.nfa\n\
                 open a --regex 1* --eps huge\n\
                 open a --regex 1*\n\
                 open a --regex 1*\n\
                 use nobody\n\
                 close nobody\n\
                 estimate\n\
                 estimate twelve\n\
                 range 5 2\n\
                 sample 3 0\n\
                 sample 3 -1\n\
                 sample\n\
                 frobnicate\n\
                 estimate 3\n\
                 quit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve"], input);
    assert!(ok, "stderr: {stderr}");
    let errors = stdout.lines().filter(|l| l.starts_with("error: ")).count();
    assert_eq!(errors, 15, "one error per bad line:\n{stdout}");
    assert!(stdout.contains("error: no session selected"), "{stdout}");
    assert!(stdout.contains("error: open requires --regex or --file"), "{stdout}");
    assert!(stdout.contains("error: cannot compile regex"), "{stdout}");
    assert!(stdout.contains("error: --regex and --file are mutually exclusive"), "{stdout}");
    assert!(stdout.contains("error: invalid value \"huge\" for --eps"), "{stdout}");
    assert!(stdout.contains("error: session \"a\" already open"), "{stdout}");
    assert!(stdout.contains("error: no such session"), "{stdout}");
    assert!(stdout.contains("error: usage: estimate N"), "{stdout}");
    assert!(stdout.contains("error: usage: range A B"), "{stdout}");
    assert!(stdout.contains("COUNT must be a positive integer"), "{stdout}");
    assert!(stdout.contains("error: usage: sample N [COUNT]"), "{stdout}");
    assert!(stdout.contains("error: unknown command \"frobnicate\""), "{stdout}");
    // The good lines still answered.
    assert!(stdout.contains("opened a (2 states"), "{stdout}");
    assert!(stdout.contains("estimate 3 = 1"), "{stdout}");
}

#[test]
fn serve_recovers_from_budget_abort_by_recycling() {
    // estimate 12 blows the per-query op budget (poisoning the
    // session); the next query gets exactly one recycle notice and is
    // then served by the fresh replacement — the key is never bricked.
    let input = "estimate 12\nestimate 2\nestimate 2\nstats\nquit\n";
    let (stdout, stderr, ok) = run_with_stdin(
        &[
            "serve",
            "--regex",
            "(0|1)*11(0|1)*",
            "--eps",
            "0.5",
            "--delta",
            "0.2",
            "--max-n",
            "12",
            "--max-query-ops",
            "300000",
        ],
        input,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("error: membership-operation budget exceeded"), "{stdout}");
    let recycles =
        stdout.lines().filter(|l| *l == "error: session recycled after budget abort").count();
    assert_eq!(recycles, 1, "exactly one recycle notice:\n{stdout}");
    // Both follow-up queries answered (|L(A_2)| = 1 for this regex).
    let answered = stdout.lines().filter(|l| l.starts_with("estimate 2 = 1")).count();
    assert_eq!(answered, 2, "{stdout}");
    assert!(stdout.contains("sessions_recycled=1"), "{stdout}");
    assert!(stdout.contains("quota_rejections=1"), "{stdout}");
}

#[test]
fn serve_enforces_session_and_level_quotas() {
    let input = "open a --regex 1*\n\
                 open b --regex 0*\n\
                 estimate 4\n\
                 estimate 20\n\
                 estimate 4\n\
                 stats\nquit\n";
    let (stdout, stderr, ok) =
        run_with_stdin(&["serve", "--max-sessions", "1", "--max-total-levels", "6"], input);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("error: session quota exceeded (1 open, limit 1)"), "{stdout}");
    assert!(
        stdout.contains("error: level quota exceeded (4 built + 16 needed > limit 6)"),
        "{stdout}"
    );
    // Denial does no work and poisons nothing: the repeat of the
    // admitted length is a pure reuse hit.
    let served = stdout.lines().filter(|l| l.starts_with("estimate 4 = ")).count();
    assert_eq!(served, 2, "{stdout}");
    assert!(stdout.contains("quota_rejections=2"), "{stdout}");
    assert!(stdout.contains("levels_built=4 levels_reused=4"), "{stdout}");
}

#[test]
fn serve_distinguishes_stdin_error_from_eof() {
    // Stdin opened on a directory makes every read fail (EISDIR): that
    // is an I/O error, not an end of input — reported on stderr,
    // nonzero exit (clean EOF stays exit 0, covered by
    // serve_handles_eof_without_quit). That the work served before a
    // read error is still summarized is pinned in-process, by
    // `proptest_server.rs::stream_read_error_still_summarizes`.
    let dir = std::fs::File::open(env!("CARGO_TARGET_TMPDIR")).expect("directory opens");
    let (_, stderr, ok) = run_with_stdin_file(&["serve", "--regex", "1*"], dir);
    assert!(!ok, "an I/O error must not look like a clean exit");
    assert!(stderr.contains("stdin read error"), "{stderr}");
}

#[test]
fn serve_answers_a_non_utf8_line_and_keeps_serving() {
    // A line that is not valid UTF-8 is one bad request, not the end
    // of the input: one `error:` line, then the next line is served.
    let (stdout, stderr, ok) =
        run_with_stdin_bytes(&["serve"], b"open a --regex 1*\n\xffestimate 3\nestimate 3\n");
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("opened a "), "{stdout}");
    assert_eq!(lines[1], "error: line is not valid UTF-8", "{stdout}");
    assert!(lines[2].starts_with("estimate 3 = 1 "), "{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("error:")).count(), 1, "{stdout}");
}

#[test]
fn serve_answers_an_over_long_line_and_keeps_serving() {
    // A 1 MiB line is one bad request: one `error:` line, its bytes
    // skipped unbuffered, then the next line is served.
    let mut input = b"open a --regex 1*\n".to_vec();
    input.extend(std::iter::repeat_n(b'x', 1 << 20));
    input.extend_from_slice(b"\nestimate 3\n");
    let (stdout, stderr, ok) = run_with_stdin_bytes(&["serve"], &input);
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("opened a "), "{stdout}");
    assert_eq!(lines[1], "error: line too long", "{stdout}");
    assert!(lines[2].starts_with("estimate 3 = 1 "), "{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("error:")).count(), 1, "{stdout}");
}

#[test]
fn serve_open_cannot_exceed_the_server_settings() {
    // The server's own --max-n/--eps/--delta are the ceiling of every
    // `open`: one line asking for more work is refused before any
    // automaton is loaded, and the server keeps serving.
    let input = "open a --regex 1* --max-n 400\n\
                 open b --regex (0|1)*1(0|1)(0|1) --eps 0.05\n\
                 open c --regex 1* --delta 0.01\n\
                 open d --file /nonexistent.nfa --max-n 65\n\
                 open e --regex 1* --max-n 16 --eps 0.3 --delta 0.1\n\
                 estimate 3\nquit\n";
    let (stdout, stderr, ok) = run_with_stdin(&["serve"], input);
    assert!(ok, "stderr: {stderr}");
    let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("error: ")).collect();
    assert_eq!(
        errors,
        [
            "error: --max-n 400 is above this server's --max-n 64",
            "error: --eps 0.05 is below this server's --eps 0.2",
            "error: --delta 0.01 is below this server's --delta 0.05",
            "error: --max-n 65 is above this server's --max-n 64",
        ],
        "{stdout}"
    );
    assert!(stdout.contains("opened e (2 states"), "{stdout}");
    assert!(stdout.contains("estimate 3 = 1"), "{stdout}");
}
