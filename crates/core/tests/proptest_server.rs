//! Property and pin tests for the serve core (`service::Server`).
//!
//! * **Fuzz** — random mixes of protocol lines (open/use/close/estimate/
//!   range/sample/metrics/stats/trace/quit), bad tokens and raw bytes go
//!   through [`Server::handle_line`] under random quotas. Every
//!   non-blank line must get exactly one response (blank lines none),
//!   nothing may panic, and every `estimate N = …` line must equal the
//!   same-formatted answer of a direct [`QuerySession`] built with that
//!   tenant's params and policy (D11: history never changes a value).
//! * **Pins** — the `open` ceiling, the non-UTF-8 reply, and the
//!   summary written after a mid-stream read error.

use fpras_automata::{Nfa, Word};
use fpras_core::service::{
    load_automaton, serve_stream, QuerySession, QuotaConfig, Reply, Server, ServerConfig,
    SessionSpec, StreamError,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::ops::ControlFlow;

/// Regexes tenants open: small, so debug-mode estimates stay fast; the
/// last one does not compile.
const PATTERNS: [&str; 6] = ["1*", "(0|1)*1", "0(0|1)*", "(0|10)*1?", "(0|1)*11(0|1)*", "(0|1"];
const NAMES: [&str; 3] = ["a", "b", "c"];
/// Tokens that are not valid requests or arguments.
const JUNK: [&str; 8] =
    ["", "frobnicate", "--regex", "-1", "99999999999999999999", "0x10", "é", "\t"];

/// The server's own settings: the default and ceiling of every `open`.
fn server_spec(seed: u64) -> SessionSpec {
    SessionSpec { eps: 0.3, delta: 0.1, seed, threads: 1, max_n: 8 }
}

/// One generated request line, plus (for `open`) the spec and pattern
/// the model needs if the server accepts it.
fn gen_line(rng: &mut SmallRng, spec: &SessionSpec) -> (Vec<u8>, Option<(SessionSpec, usize)>) {
    let name = NAMES[rng.random_range(0..NAMES.len())];
    let n = rng.random_range(0..11usize);
    let junk = JUNK[rng.random_range(0..JUNK.len())];
    let text = match rng.random_range(0..18u32) {
        0..=3 => {
            let pattern = rng.random_range(0..PATTERNS.len());
            let mut tenant = spec.clone();
            let mut line = format!("open {name} --regex {}", PATTERNS[pattern]);
            if rng.random_bool(0.5) {
                tenant.max_n = rng.random_range(1..10usize); // 9 is above the ceiling
                line += &format!(" --max-n {}", tenant.max_n);
            }
            if rng.random_bool(0.3) {
                tenant.eps = [0.25, 0.3, 0.45][rng.random_range(0..3usize)];
                line += &format!(" --eps {}", tenant.eps);
            }
            if rng.random_bool(0.5) {
                tenant.seed = rng.random_range(10..14u64);
                line += &format!(" --seed {}", tenant.seed);
            }
            if rng.random_bool(0.2) {
                tenant.threads = rng.random_range(1..3usize);
                line += &format!(" --threads {}", tenant.threads);
            }
            if rng.random_bool(0.1) {
                line += &format!(" {junk}");
            }
            return (line.into_bytes(), Some((tenant, pattern)));
        }
        4 => format!("use {name}"),
        5 => format!("close {name}"),
        6..=9 => format!("estimate {n}"),
        10 => format!("range {} {n}", rng.random_range(0..11usize)),
        11 => format!("sample {n} {}", rng.random_range(0..5usize)),
        12 => ["metrics", "stats", "quit", "trace off", "trace", "trace on"]
            [rng.random_range(0..6usize)]
        .to_string(),
        13 => format!(
            "{} {junk}",
            ["estimate", "range", "sample", "use", "open"][rng.random_range(0..5usize)]
        ),
        14 => junk.to_string(),
        15 => " \t ".to_string(),
        _ => {
            let len = rng.random_range(0..12usize);
            let bytes: Vec<u8> = (0..len)
                .map(|_| [b'1', b' ', b'e', 0xff, 0xc3, 0x80, 0x00][rng.random_range(0..7usize)])
                .collect();
            return (bytes, None);
        }
    };
    (text.into_bytes(), None)
}

/// What the model knows about an open tenant.
struct Model {
    nfa: Nfa,
    direct: QuerySession,
}

fn response_lines(out: &[u8]) -> Vec<String> {
    let text = String::from_utf8(out.to_vec()).expect("responses are UTF-8");
    assert!(text.is_empty() || text.ends_with('\n'), "partial line in {text:?}");
    text.lines().map(String::from).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_line_gets_one_response_and_estimates_match_direct_sessions(
        case_seed in 0u64..1_000_000,
        lines in 10usize..60,
        quota_kind in 0u32..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let spec = server_spec(rng.random_range(0..4u64));
        let quota = match quota_kind {
            0 => QuotaConfig::default(),
            1 => QuotaConfig { max_sessions: Some(2), ..QuotaConfig::default() },
            2 => QuotaConfig { max_total_levels: Some(10), ..QuotaConfig::default() },
            _ => QuotaConfig { max_query_ops: Some(20_000), ..QuotaConfig::default() },
        };
        let mut server = Server::new(ServerConfig { spec: spec.clone(), quota });
        let mut tenants: HashMap<String, Model> = HashMap::new();
        let mut current: Option<String> = None;
        for _ in 0..lines {
            let (line, open) = gen_line(&mut rng, &spec);
            let mut out = Vec::new();
            let flow = server.handle_line(&line, &mut out).expect("writes into a Vec never fail");
            let replies = response_lines(&out);
            let text = std::str::from_utf8(&line).ok();
            let blank = text.is_some_and(|t| t.trim().is_empty());
            let first = text.and_then(|t| t.split_whitespace().next());
            if blank {
                prop_assert!(replies.is_empty(), "blank line answered: {:?}", replies);
                continue;
            }
            if matches!(first, Some("quit" | "exit")) {
                prop_assert_eq!(flow, ControlFlow::Break(()));
                prop_assert!(replies.is_empty(), "quit answered: {:?}", replies);
                continue;
            }
            prop_assert_eq!(flow, ControlFlow::Continue(()));
            prop_assert!(!replies.is_empty(), "no response to {:?}", String::from_utf8_lossy(&line));
            let multi_line = matches!(first, Some("range" | "sample" | "metrics" | "stats"));
            let notice = replies[0] == "error: session recycled after budget abort";
            let body = if notice { &replies[1..] } else { &replies[..] };
            if !multi_line {
                prop_assert_eq!(body.len(), 1, "one line for {:?}: {:?}", first, replies);
            }

            // Track selection from the server's own answers.
            let reply = &replies[0];
            if let (Some(name), Some((tenant, pattern))) =
                (reply.strip_prefix("opened ").and_then(|r| r.split(' ').next()), open)
            {
                let nfa = load_automaton(Some(PATTERNS[pattern]), None).expect("it opened");
                let direct =
                    QuerySession::new(&nfa, tenant.params(&nfa), tenant.policy()).expect("valid");
                tenants.insert(name.to_string(), Model { nfa, direct });
                current = Some(name.to_string());
            } else if let Some(name) = reply.strip_prefix("using ") {
                current = Some(name.to_string());
            } else if let Some(name) = reply.strip_prefix("closed ") {
                tenants.remove(name);
                if current.as_deref() == Some(name) {
                    current = None;
                }
            }

            for est_line in body.iter().filter(|l| l.starts_with("estimate ")) {
                let n: usize = est_line["estimate ".len()..]
                    .split(' ')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("estimate N = …");
                let model = tenants
                    .get_mut(current.as_deref().expect("an estimate needs a selected tenant"))
                    .expect("selected tenant is modelled");
                let expected = Reply::Estimate(n, model.direct.estimate(n).unwrap()).to_string();
                prop_assert_eq!(est_line, &expected, "tenant {:?}", current);
            }
            for word_line in body.iter().filter(|l| l.starts_with("sample ")) {
                let model = &tenants[current.as_deref().expect("selected")];
                let word = word_line.split(" = ").nth(1).expect("sample N = …");
                if !word.starts_with('(') {
                    let w = if word == "λ" {
                        Word::empty()
                    } else {
                        Word::parse(word, model.nfa.alphabet()).expect("a binary word")
                    };
                    prop_assert!(model.nfa.accepts(&w), "{} not in the language", word_line);
                }
            }
        }
    }
}

#[test]
fn open_above_the_server_ceiling_is_refused_before_loading() {
    let mut server = Server::new(ServerConfig::default());
    let mut out = Vec::new();
    for line in [
        "open a --regex 1* --max-n 400",
        "open a --regex (0|1)*1(0|1)(0|1) --eps 0.05",
        "open a --regex 1* --delta 0.01",
        "open a --regex 1* --eps NaN",
        // The file does not exist: the ceiling answers first.
        "open a --file /nonexistent/huge.nfa --max-n 65",
        "open a --regex 1* --max-n 64 --eps 0.2 --delta 0.05",
        "estimate 3",
    ] {
        let flow = server.handle_line(line.as_bytes(), &mut out).unwrap();
        assert_eq!(flow, ControlFlow::Continue(()));
    }
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines[..5],
        [
            "error: --max-n 400 is above this server's --max-n 64",
            "error: --eps 0.05 is below this server's --eps 0.2",
            "error: --delta 0.01 is below this server's --delta 0.05",
            "error: --eps NaN is below this server's --eps 0.2",
            "error: --max-n 65 is above this server's --max-n 64",
        ],
        "{out}"
    );
    assert!(lines[5].starts_with("opened a (2 states"), "{out}");
    assert!(lines[6].starts_with("estimate 3 = 1 "), "{out}");
    assert_eq!(lines.len(), 7, "{out}");
    // The typed entry point enforces the same ceiling.
    let nfa = load_automaton(Some("1*"), None).unwrap();
    let above = SessionSpec { max_n: 65, ..SessionSpec::default() };
    let err = server.open("b", nfa, above).unwrap_err();
    assert_eq!(err.to_string(), "--max-n 65 is above this server's --max-n 64");
    assert_eq!(server.registry().stats().sessions_created, 1, "refusals compile nothing");
}

#[test]
fn non_utf8_line_is_one_error_and_the_stream_goes_on() {
    let mut server = Server::new(ServerConfig::default());
    let mut out = Vec::new();
    let input: &[u8] = b"open a --regex 1*\n\xffestimate 3\nestimate 3\n";
    serve_stream(&mut server, input, &mut out).expect("clean end of input");
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].starts_with("opened a "), "{out}");
    assert_eq!(lines[1], "error: line is not valid UTF-8", "{out}");
    assert!(lines[2].starts_with("estimate 3 = 1 "), "{out}");
    assert!(lines[3].starts_with("session: queries=1 "), "{out}");
}

/// A reader whose every read fails.
struct Broken;

impl Read for Broken {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("the pipe broke"))
    }
}

#[test]
fn stream_read_error_still_summarizes() {
    // A read error is not an end of input: serve_stream reports it, but
    // the work served before it is still answered and summarized.
    let mut server = Server::new(ServerConfig::default());
    let nfa = load_automaton(Some("1*"), None).unwrap();
    server.open("default", nfa, SessionSpec::default()).unwrap();
    let input = BufReader::new((&b"estimate 3\n"[..]).chain(Broken));
    let mut out = Vec::new();
    let err = serve_stream(&mut server, input, &mut out).unwrap_err();
    assert!(matches!(err, StreamError::Read(_)), "{err:?}");
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("estimate 3 = 1"), "{out}");
    assert!(out.contains("session: queries=1"), "{out}");
}
