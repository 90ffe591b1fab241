//! End-to-end tests of the `nfa-count` binary: every method flag, the
//! enumerate/dot modes, and the error paths, driven through the real
//! executable (`CARGO_BIN_EXE_nfa-count`).

mod common;
use common::{run, run_with_stdin, write_fixture, EXAMPLE_ROBP_PATH as PARITY_ROBP};

#[test]
fn robp_subcommand_counts_samples_and_crosschecks() {
    let file = PARITY_ROBP;
    let args = ["robp", "--file", file, "--exact", "--sample", "3", "--seed", "5"];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate |L(P)|"), "{stdout}");
    assert!(stdout.contains("exact    |L(P)| = 2"), "{stdout}");
    // Every sample is one of the two accepted words.
    for line in stdout.lines().skip_while(|l| !l.starts_with("samples:")).skip(1) {
        let word = line.trim();
        assert!(word == "00" || word == "11", "bad sample {word:?}: {stdout}");
    }
    // Threaded run agrees on this tiny deterministic program's estimate.
    let (t_stdout, t_stderr, t_ok) =
        run(&["robp", "--file", file, "--threads", "2", "--seed", "5"]);
    assert!(t_ok, "stderr: {t_stderr}");
    assert!(t_stdout.contains("estimate |L(P)|"), "{t_stdout}");
}

#[test]
fn robp_subcommand_rejects_missing_and_bad_input() {
    let (code, stderr) = exit_code(&["robp"]);
    assert_eq!(code, Some(2), "robp without --file is a usage error: {stderr}");
    assert!(stderr.contains("--file"), "{stderr}");
    // An unreadable program is a usage error, like an unreadable `.nfa`.
    let (code, stderr) = exit_code(&["robp", "--file", "no-such-program.robp"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("cannot read no-such-program.robp"), "{stderr}");
    let bad = write_fixture("bad.robp", "alphabet 01\ndepth 1\nlevels 0 9\n");
    let (_, _, ok) = run(&["robp", "--file", bad.to_str().unwrap()]);
    assert!(!ok, "malformed program must fail");
    // A mislevelled `accepting` is a parse error (exit 2), not a panic.
    let bad = write_fixture("mislevelled.robp", "alphabet 01\ndepth 2\nlevels 0 1\naccepting 1\n");
    let (code, stderr) = exit_code(&["robp", "--file", bad.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("must be at the last level"), "{stderr}");
}

/// Exit code and stderr of one `nfa-count` run (`None` if a signal
/// ended it).
fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nfa-count"))
        .args(args)
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A length whose per-level views cannot be reserved is one error line
/// and exit 1, not a panic: `-n 2⁶⁰` used to die with `capacity
/// overflow` (exit 101). It fails in the size computation, so the test
/// allocates nothing.
#[test]
fn oversized_length_is_an_error_not_a_panic() {
    for extra in [&[][..], &["--enumerate", "1"]] {
        let mut args = vec!["--regex", "0|1", "-n", "1152921504606846976"];
        args.extend_from_slice(extra);
        let (code, stderr) = exit_code(&args);
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("length 1152921504606846976 needs more memory than can be reserved"),
            "{extra:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
}

/// An nROBP whose per-level views cannot be reserved is one error line
/// and exit 1, like an NFA length: this six-line program used to abort
/// the process (exit 134) on a 128 GiB allocation. The run is capped at
/// 4 GB of address space, so the reservation fails on any host.
#[test]
fn oversized_robp_is_an_error_not_an_abort() {
    let path = write_fixture(
        "deep.robp",
        "alphabet 01\ndepth 4294967295\nlevels 0 1 4294967295\nsource 0\naccepting 2\nedge 0 0 1\n",
    );
    let out = std::process::Command::new("sh")
        .args(["-c", "ulimit -v 4000000 && exec \"$0\" \"$@\""])
        .args([env!("CARGO_BIN_EXE_nfa-count"), "robp", "--file", path.to_str().unwrap()])
        .output()
        .expect("sh runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("length 4294967295 needs more memory than can be reserved"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A `states` count above the cap is refused as a usage error before
/// anything is allocated; `states 9999999999` used to abort the process
/// on a 240 GB allocation.
#[test]
fn oversized_nfa_file_is_a_usage_error() {
    for (name, count) in [("cap-plus-one.nfa", "4097"), ("huge.nfa", "9999999999")] {
        let path = write_fixture(name, &format!("alphabet 01\nstates {count}\n"));
        let (code, stderr) = exit_code(&["--file", path.to_str().unwrap(), "-n", "4"]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains("above the limit of 4096"), "{name}: {stderr}");
    }
}

#[test]
fn fpras_count_with_exact_crosscheck() {
    let (stdout, stderr, ok) = run(&["--regex", "1(0|1)*", "-n", "12", "--exact", "--seed", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate |L(A_12)|"), "{stdout}");
    // Exactly half of all length-12 words start with 1.
    assert!(stdout.contains("exact    |L(A_12)| = 2048"), "{stdout}");
}

#[test]
fn stats_flag_reports_batching_counters() {
    let args = ["--regex", "(0|1)*11(0|1)*", "-n", "10", "--stats", "--seed", "7"];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("batch groups formed"), "{stdout}");
    assert!(stdout.contains("batch cells deduped"), "{stdout}");
    let grab = |key: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with(key))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in {stdout}"))
    };
    assert!(grab("batch cells deduped") > 0, "dedup must fire on contains-11");
    // The memo layer (D9) reports through the same surface: one level
    // overlay commit per level, and no races at one thread.
    assert_eq!(grab("memo commits"), 10, "{stdout}");
    assert!(stdout.contains("memo overlay entries"), "{stdout}");
    assert_eq!(grab("pool memo races"), 0, "one worker cannot race");
    // --no-batch: same estimate line, zero dedup, more unions run.
    let mut unbatched_args = args.to_vec();
    unbatched_args.push("--no-batch");
    let (stdout2, _, ok2) = run(&unbatched_args);
    assert!(ok2);
    let estimate = |s: &str| s.lines().find(|l| l.starts_with("estimate")).map(String::from);
    assert_eq!(estimate(&stdout), estimate(&stdout2), "batching must not change the estimate");
    assert!(stdout2.contains("batch cells deduped  0"), "{stdout2}");
    // The executor layer (D10) reports through the same surface; the
    // default one-thread run never wakes a worker.
    assert!(stdout.contains("pool parallel passes"), "{stdout}");
    assert!(stdout.contains("pool steals"), "{stdout}");
    assert_eq!(grab("pool parallel passes"), 0, "one thread has no workers to wake");
}

#[test]
fn stats_and_no_batch_are_fpras_only() {
    for flags in [&["--stats"][..], &["--no-batch"][..]] {
        let mut args = vec!["--regex", "1*", "-n", "8", "--method", "dp"];
        args.extend_from_slice(flags);
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "{flags:?} with --method dp must be a usage error");
        assert!(stderr.contains("require --method fpras"), "{stderr}");
    }
}

#[test]
fn bdd_method_is_exact() {
    let (stdout, _, ok) = run(&["--regex", "1(0|1)*", "-n", "16", "--method", "bdd"]);
    assert!(ok);
    assert!(stdout.contains("exact |L(A_16)| = 32768"), "{stdout}");
}

#[test]
fn dp_method_is_exact() {
    let (stdout, _, ok) = run(&["--regex", "(0|1)*", "-n", "10", "--method", "dp"]);
    assert!(ok);
    assert!(stdout.contains("exact |L(A_10)| = 1024"), "{stdout}");
}

#[test]
fn path_is_method_reports_variance() {
    let (stdout, stderr, ok) =
        run(&["--regex", "1(0|1)*", "-n", "10", "--method", "path-is", "--seed", "5"]);
    assert!(ok);
    assert!(stdout.contains("estimate |L(A_10)|"), "{stdout}");
    assert!(stderr.contains("rel. std. error"), "{stderr}");
}

#[test]
fn threaded_fpras_samples() {
    let (stdout, _, ok) = run(&[
        "--regex",
        "1(0|1)*",
        "-n",
        "10",
        "--method",
        "fpras",
        "--threads",
        "2",
        "--sample",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("samples:"), "{stdout}");
    // Each sampled line is a 10-symbol binary word starting with 1.
    let words: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.contains("samples:"))
        .skip(1)
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(words.len(), 3);
    for w in words {
        assert_eq!(w.len(), 10, "{w}");
        assert!(w.starts_with('1'), "{w}");
    }
}

#[test]
fn thread_count_does_not_change_cli_output() {
    // stdout must depend only on the seed, never on the worker count —
    // including the default, which runs one worker.
    let base = ["--regex", "1(0|1)*1", "-n", "12", "--method", "fpras", "--seed", "13"];
    let with = |threads: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(threads);
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "stderr: {stderr}");
        stdout
    };
    let one = with(&["--threads", "1"]);
    assert_eq!(one, with(&[]));
    assert_eq!(one, with(&["--threads", "2"]));
    assert_eq!(one, with(&["--threads", "8"]));
}

#[test]
fn threads_outside_one_to_max_are_usage_errors() {
    // Every worker past the first is an OS thread: each `--threads`
    // flag refuses 0 and anything above the cap before spawning one.
    let count = ["--regex", "1(0|1)*", "-n", "8"];
    let robp = ["robp", "--file", PARITY_ROBP];
    let query = ["query", "--regex", "1*", "--lengths", "3"];
    let serve = ["serve"];
    for base in [&count[..], &robp[..], &query[..], &serve[..]] {
        for threads in ["0", "100000"] {
            let mut args = base.to_vec();
            args.extend_from_slice(&["--threads", threads]);
            let (code, stderr) = exit_code(&args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("--threads must be between 1 and 64"), "{args:?}: {stderr}");
        }
    }
}

/// Every command parses the shared flags through one function, so a bad
/// value gets one message everywhere: on its own stderr line with exit 2
/// on argv, as one `error:` line on a serve `open` line.
#[test]
fn shared_flags_have_one_message_on_every_surface() {
    let count = ["--regex", "1(0|1)*", "-n", "8"];
    let robp = ["robp", "--file", PARITY_ROBP];
    let query = ["query", "--regex", "1*", "--lengths", "3"];
    let serve = ["serve"];
    for (flag, value, message) in [
        ("--eps", "huge", "invalid value \"huge\" for --eps"),
        ("--seed", "-1", "invalid value \"-1\" for --seed"),
        ("--delta", "x", "invalid value \"x\" for --delta"),
        ("--threads", "0", "--threads must be between 1 and 64, got 0"),
    ] {
        for base in [&count[..], &robp[..], &query[..], &serve[..]] {
            let mut args = base.to_vec();
            args.extend_from_slice(&[flag, value]);
            let (code, stderr) = exit_code(&args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.lines().any(|l| l == message), "{args:?}: {stderr}");
        }
        let line = format!("open a --regex 1* {flag} {value}\n");
        let (stdout, stderr, ok) = run_with_stdin(&["serve"], &line);
        assert!(ok, "{stderr}");
        let errors: Vec<&str> = stdout.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors, [format!("error: {message}")], "{stdout}");
    }
    // A flag missing its value names the flag on every surface.
    let (code, stderr) = exit_code(&["robp", "--file", PARITY_ROBP, "--eps"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.lines().any(|l| l == "missing value for --eps"), "{stderr}");
    let (stdout, _, _) = run_with_stdin(&["serve"], "open a --regex 1* --eps\n");
    assert!(stdout.lines().any(|l| l == "error: missing value for --eps"), "{stdout}");
}

/// Each command takes its own flags: one that it does not take is an
/// `unknown argument` usage error, even when another command takes it.
#[test]
fn flags_a_command_does_not_take_are_unknown_arguments() {
    let robp = ["robp", "--file", PARITY_ROBP];
    let query = ["query", "--regex", "1*", "--lengths", "3"];
    let count = ["--regex", "1*", "-n", "3"];
    for (base, extra) in [
        (&robp[..], &["-n", "4"][..]),
        (&robp[..], &["--regex", "1*"][..]),
        (&robp[..], &["--max-n", "8"][..]),
        (&query[..], &["--dot"][..]),
        (&query[..], &["--max-sessions", "2"][..]),
        (&count[..], &["--max-n", "8"][..]),
        (&count[..], &["--lengths", "3"][..]),
        (&["serve"][..], &["--sample", "3"][..]),
    ] {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        let (code, stderr) = exit_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let unknown = format!("unknown argument {:?}", extra[0]);
        assert!(stderr.lines().any(|l| l == unknown), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: nfa-count"), "{args:?}: {stderr}");
    }
}

#[test]
fn enumerate_lists_words() {
    let (stdout, _, ok) = run(&["--regex", "1*", "-n", "4", "--enumerate", "5", "--method", "dp"]);
    assert!(ok);
    assert!(stdout.contains("first 1 word(s)"), "{stdout}");
    assert!(stdout.contains("1111"), "{stdout}");
}

#[test]
fn dot_export_is_graphviz() {
    let (stdout, _, ok) = run(&["--regex", "01", "-n", "2", "--dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"), "{stdout}");
}

#[test]
fn bad_usage_fails_fast() {
    let (_, stderr, ok) = run(&["--regex", "1*"]); // missing -n
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    // `parallel`, once a deprecated alias of `fpras`, is gone too.
    for method in ["quantum", "parallel"] {
        let (code, stderr) = exit_code(&["--regex", "1*", "-n", "4", "--method", method]);
        assert_eq!(code, Some(2), "{method}: {stderr}");
        assert!(stderr.contains(&format!("unknown method {method:?}")), "{stderr}");
    }

    let (_, stderr, ok) = run(&["--regex", "((", "-n", "4"]);
    assert!(!ok);
    assert!(stderr.contains("cannot compile regex"), "{stderr}");

    // A repetition too large to unfold is refused before it is built.
    for pattern in ["0{99999}", "0{99999999999}"] {
        let (_, stderr, ok) = run(&["--regex", pattern, "-n", "2"]);
        assert!(!ok);
        assert!(stderr.contains("above the limit"), "{pattern}: {stderr}");
    }
}
