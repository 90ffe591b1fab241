//! Helpers shared by the end-to-end integration suites.
//!
//! Each `tests/*.rs` file is its own crate, so without this module every
//! suite grew a private copy of the binary-driving and fixture-loading
//! glue. Declare it with `mod common;` — unused items per suite are
//! expected (each binary compiles the whole module).
#![allow(dead_code)]

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The shipped example automaton (`examples/data/contains11.nfa`), the
/// canonical text-format fixture.
pub const EXAMPLE_NFA: &str = include_str!("../../examples/data/contains11.nfa");

/// Path of the shipped example nROBP (`examples/data/parity.robp`),
/// the `nfa-count robp` input fixture.
pub const EXAMPLE_ROBP_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/parity.robp");

/// The shipped example nROBP's text.
pub const EXAMPLE_ROBP: &str = include_str!("../../examples/data/parity.robp");

/// Runs the `nfa-count` binary to completion and returns
/// `(stdout, stderr, success)`.
pub fn run(args: &[&str]) -> (String, String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_nfa-count")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// [`run`] with a UTF-8 stdin payload (the `serve` query loop).
pub fn run_with_stdin(args: &[&str], input: &str) -> (String, String, bool) {
    run_with_stdin_bytes(args, input.as_bytes())
}

/// [`run`] with raw stdin bytes — for driving the loop with payloads
/// that are deliberately not valid UTF-8.
pub fn run_with_stdin_bytes(args: &[&str], input: &[u8]) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nfa-count"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child.stdin.as_mut().expect("stdin piped").write_all(input).expect("stdin write");
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// [`run`] with stdin read from `stdin` (a file, or a directory to
/// make every read fail).
pub fn run_with_stdin_file(args: &[&str], stdin: std::fs::File) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_nfa-count"))
        .args(args)
        .stdin(stdin)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Minimal structural validator for the hand-rolled JSON emitters
/// (trace events, bench rows): the line must be exactly one object with
/// balanced braces/brackets outside string literals and every string
/// terminated. Not a parser — enough to catch the classic hand-rolled
/// failures (unescaped quote, missing brace, truncated line).
pub fn assert_well_formed_json_object(line: &str) {
    assert!(line.starts_with('{'), "not a JSON object: {line}");
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = line.chars();
    for c in chars.by_ref() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "close before open in: {line}");
        if depth == 0 {
            break; // the top-level object just closed
        }
    }
    assert!(!in_string, "unterminated string in: {line}");
    assert_eq!(depth, 0, "unbalanced braces in: {line}");
    assert!(chars.as_str().trim().is_empty(), "trailing junk after object in: {line}");
}

/// Writes `contents` to a uniquely named fixture file under the cargo
/// target tmp dir and returns its path — for `--file` flags. The name
/// must be unique per call site; tests run concurrently.
pub fn write_fixture(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("fixture write");
    path
}
