//! Golden-stream regression fixtures.
//!
//! The engine's whole bit-identity discipline (batched ≡ unbatched,
//! thread-count invariance, session ≡ fresh) is anchored to concrete
//! RNG streams: per-cell SplitMix64 streams and frontier-keyed union
//! streams, all derived from one master seed. A representation refactor
//! (say, interning frontiers or reordering a loop) can silently shift
//! one of those streams and still pass every *statistical* test — the
//! estimates stay accurate, they are just different numbers.
//!
//! These fixtures pin the exact output bits of a small `(nfa, params,
//! seed)` matrix at threads 1/2/8. Any change to them is a *stream
//! break* and needs an explicit decision, not a rerecord-and-move-on.
//! The `GOLDEN` and `GOLDEN_ROBP` tables were last recorded when
//! `AppUnion` began drawing its per-set trial counts as one multinomial
//! instead of `t` categorical draws (DESIGN.md D16): the estimator's law
//! is unchanged, but every union estimate, sampled word and op count
//! moved with the new draws. The relational invariants (threads,
//! batching, sessions, tracing) passed unchanged across that break.
//!
//! The caller-RNG entry points (`FprasRun::run`, `FprasRun::run_robp`)
//! draw one master seed and run the engine at one thread (DESIGN.md
//! D18); `engine_policies::serial_api_and_threads_1_share_the_engine`
//! pins that, so these tables keep no separate rows for them. The
//! sampler fixtures that go through `FprasRun::run` (`regex25-run`,
//! `regex25-generate`, and the two memo-off rows) were re-recorded once
//! when that entry point moved onto the engine's one executor.
//!
//! To rerecord after an intentional stream change:
//! `GOLDEN_RECORD=1 cargo test --test golden_streams -- --nocapture`
//! and paste the printed table over `GOLDEN`.
//!
//! Estimates here stay far inside `f64` range (n ≤ 10, k = 2), so
//! `estimate.to_f64().to_bits()` is an exact fingerprint.

use fpras_automata::robp::Robp;
use fpras_core::{run_parallel, run_robp_parallel, FprasRun, JsonlSink, Params};
use fpras_workloads::{families, random_robp, RandomRobpConfig};
use rand::{rngs::SmallRng, SeedableRng};

/// The fixture matrix: automaton constructor, label, and word length.
fn matrix() -> Vec<(&'static str, fpras_automata::Nfa, usize)> {
    vec![
        ("contains-11", families::contains_substring(&[1, 1]), 10),
        ("contains-101", families::contains_substring(&[1, 0, 1]), 9),
        ("ones-mod-3", families::ones_mod_k(3), 9),
        ("4th-from-end", families::kth_symbol_from_end(4), 8),
    ]
}

/// One pinned observation: family label, seed, policy label, exact bits
/// of the final estimate as `f64`.
const GOLDEN: &[(&str, u64, &str, u64)] = &[
    ("contains-11", 7, "det", 4650530302229222004),
    ("contains-11", 99, "det", 4650905736607774919),
    ("contains-101", 7, "det", 4644424692501905706),
    ("contains-101", 99, "det", 4644177995967973863),
    ("ones-mod-3", 7, "det", 4640185359819341824),
    ("ones-mod-3", 99, "det", 4640185359819341824),
    ("4th-from-end", 7, "det", 4638707616191610880),
    ("4th-from-end", 99, "det", 4638707616191610880),
];

fn det_run(nfa: &fpras_automata::Nfa, n: usize, seed: u64, threads: usize) -> FprasRun {
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    run_parallel(nfa, n, &params, seed, threads).unwrap()
}

fn bits(run: &FprasRun) -> u64 {
    run.estimate().to_f64().to_bits()
}

fn det_estimate(nfa: &fpras_automata::Nfa, n: usize, seed: u64, threads: usize) -> u64 {
    bits(&det_run(nfa, n, seed, threads))
}

#[test]
fn golden_streams_match_pinned_bits() {
    let record = std::env::var("GOLDEN_RECORD").is_ok();
    let mut observed: Vec<(String, u64, &'static str, u64)> = Vec::new();
    for (label, nfa, n) in matrix() {
        for seed in [7u64, 99] {
            let t1 = det_estimate(&nfa, n, seed, 1);
            let t2 = det_estimate(&nfa, n, seed, 2);
            let t8 = det_estimate(&nfa, n, seed, 8);
            assert_eq!(t1, t2, "{label} seed {seed}: threads 1 vs 2 diverge");
            assert_eq!(t1, t8, "{label} seed {seed}: threads 1 vs 8 diverge");
            observed.push((label.to_string(), seed, "det", t1));
        }
    }
    if record {
        println!("const GOLDEN: &[(&str, u64, &str, u64)] = &[");
        for (label, seed, policy, bits) in &observed {
            println!("    (\"{label}\", {seed}, \"{policy}\", {bits}),");
        }
        println!("];");
        return;
    }
    assert_eq!(observed.len(), GOLDEN.len(), "fixture matrix drifted from the pinned table");
    for ((label, seed, policy, bits), (g_label, g_seed, g_policy, g_bits)) in
        observed.iter().zip(GOLDEN)
    {
        assert_eq!((label.as_str(), *seed, *policy), (*g_label, *g_seed, *g_policy));
        assert_eq!(
            bits, g_bits,
            "{label} seed {seed} policy {policy}: estimate bits shifted \
             ({bits} vs pinned {g_bits}) — an RNG stream moved"
        );
    }
}

/// The observability invariant as a golden-stream test (D15): rerunning
/// the pinned NFA matrix with a live trace sink and stats collection
/// enabled must reproduce the exact pinned bits. Tracing reads the
/// computation — if enabling it shifts even one estimate bit, an RNG
/// stream was touched from an observability hook. The work counters
/// must not move either: `walk_steps` and `AppUnion`'s tally bit tests
/// are part of the output at every thread count, and so are
/// `walk_nodes_built` and `walk_table_hits` at one thread (at two
/// threads they depend on which worker walked where).
#[test]
fn golden_streams_survive_tracing() {
    if std::env::var("GOLDEN_RECORD").is_ok() {
        return; // recording runs own the table; nothing to rerecord here
    }
    // (one-thread walk steps, nodes built and table hits, two-thread
    // walk steps, one- and two-thread union bit tests) per row.
    let walks = |serial: &FprasRun, det: &FprasRun| {
        let (s, d) = (serial.stats(), det.stats());
        assert!(s.walk_nodes_built > 0 && s.walk_nodes_built < s.walk_steps, "no walk reuse");
        assert!(d.walk_nodes_built > 0 && d.walk_nodes_built < d.walk_steps, "no walk reuse");
        assert!(s.union_bit_tests > 0 && s.union_bit_tests <= s.membership_ops);
        assert!(d.union_bit_tests > 0 && d.union_bit_tests <= d.membership_ops);
        assert!(s.walk_table_hits > 0 && s.walk_table_hits < s.walk_steps, "no compiled steps");
        (
            s.walk_steps,
            s.walk_nodes_built,
            s.walk_table_hits,
            d.walk_steps,
            s.union_bit_tests,
            d.union_bit_tests,
        )
    };
    let mut untraced = Vec::new();
    for (_, nfa, n) in matrix() {
        for seed in [7u64, 99] {
            untraced.push(walks(&det_run(&nfa, n, seed, 1), &det_run(&nfa, n, seed, 2)));
        }
    }
    let path =
        std::env::temp_dir().join(format!("fpras-golden-trace-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    fpras_core::obs::install_sink(Box::new(JsonlSink::create(path_str).expect("trace file")));
    let mut observed: Vec<(String, u64, &'static str, u64)> = Vec::new();
    let mut traced = Vec::new();
    for (label, nfa, n) in matrix() {
        for seed in [7u64, 99] {
            let serial = det_run(&nfa, n, seed, 1);
            let det = det_run(&nfa, n, seed, 2);
            observed.push((label.to_string(), seed, "det", bits(&serial)));
            observed.push((label.to_string(), seed, "det", bits(&det)));
            traced.push(walks(&serial, &det));
        }
    }
    fpras_core::obs::take_sink();
    let pinned = GOLDEN.iter().flat_map(|row| [row, row]);
    for ((label, seed, policy, bits), (.., g_bits)) in observed.iter().zip(pinned) {
        assert_eq!(
            bits, g_bits,
            "{label} seed {seed} policy {policy}: tracing shifted the estimate bits"
        );
    }
    assert_eq!(traced, untraced, "tracing moved the walk or union bit-test counters");
    // And the trace itself is non-empty, line-delimited JSON objects.
    let trace = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    assert!(!trace.is_empty(), "sink saw no events");
    for line in trace.lines() {
        assert!(line.starts_with("{\"ev\": \""), "not a trace object: {line}");
        assert!(line.ends_with('}'), "unterminated object: {line}");
    }
}

/// The nROBP fixture matrix: two seeded random programs spanning shape
/// parameters and one robp-encoded NFA slice. These streams were first
/// recorded when the `RobpSubstrate` front-end shipped (re-recorded at
/// the multinomial break, see the module doc); they pin the substrate's
/// set contents (reach sets, predecessor frontiers) the same
/// way the NFA table pins the unrolling's.
fn robp_matrix() -> Vec<(&'static str, Robp)> {
    vec![
        (
            "robp-rand-8x4",
            random_robp(&RandomRobpConfig::default(), &mut SmallRng::seed_from_u64(3)),
        ),
        (
            "robp-rand-6x3-k3",
            random_robp(
                &RandomRobpConfig { depth: 6, width: 3, alphabet: 3, density: 2.0, accepting: 2 },
                &mut SmallRng::seed_from_u64(11),
            ),
        ),
        ("robp-contains-11", Robp::from_nfa(&families::contains_substring(&[1, 1]), 8).unwrap()),
    ]
}

/// Pinned nROBP observations, same shape as [`GOLDEN`].
const GOLDEN_ROBP: &[(&str, u64, &str, u64)] = &[
    ("robp-rand-8x4", 7, "det", 4641034886560060887),
    ("robp-rand-8x4", 99, "det", 4640982381162429259),
    ("robp-rand-6x3-k3", 7, "det", 4649922371316266843),
    ("robp-rand-6x3-k3", 99, "det", 4649437058744498280),
    ("robp-contains-11", 7, "det", 4641371499197305340),
    ("robp-contains-11", 99, "det", 4641485106729098562),
];

fn det_robp_estimate(robp: &Robp, seed: u64, threads: usize) -> u64 {
    let params = Params::practical(0.3, 0.1, robp.num_nodes(), robp.depth());
    run_robp_parallel(robp, &params, seed, threads).unwrap().estimate().to_f64().to_bits()
}

#[test]
fn robp_golden_streams_match_pinned_bits() {
    let record = std::env::var("GOLDEN_RECORD").is_ok();
    let mut observed: Vec<(String, u64, &'static str, u64)> = Vec::new();
    for (label, robp) in robp_matrix() {
        for seed in [7u64, 99] {
            let t1 = det_robp_estimate(&robp, seed, 1);
            let t2 = det_robp_estimate(&robp, seed, 2);
            let t8 = det_robp_estimate(&robp, seed, 8);
            assert_eq!(t1, t2, "{label} seed {seed}: threads 1 vs 2 diverge");
            assert_eq!(t1, t8, "{label} seed {seed}: threads 1 vs 8 diverge");
            observed.push((label.to_string(), seed, "det", t1));
        }
    }
    if record {
        println!("const GOLDEN_ROBP: &[(&str, u64, &str, u64)] = &[");
        for (label, seed, policy, bits) in &observed {
            println!("    (\"{label}\", {seed}, \"{policy}\", {bits}),");
        }
        println!("];");
        return;
    }
    assert_eq!(observed.len(), GOLDEN_ROBP.len(), "fixture matrix drifted from the pinned table");
    for ((label, seed, policy, bits), (g_label, g_seed, g_policy, g_bits)) in
        observed.iter().zip(GOLDEN_ROBP)
    {
        assert_eq!((label.as_str(), *seed, *policy), (*g_label, *g_seed, *g_policy));
        assert_eq!(
            bits, g_bits,
            "{label} seed {seed} policy {policy}: estimate bits shifted \
             ({bits} vs pinned {g_bits}) — an RNG stream moved"
        );
    }
}

/// The 25-state re-anchor regex of ROADMAP.md: 75 distinct sampler
/// frontiers, heavy walk reuse. Small enough at `n = 14` for the test
/// suite, deep enough that every sampler walk revisits its frontiers.
const REGEX25: &str = "(0|1)*1(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)((00)*|(111)*)";
/// Word length of the regex fixtures.
const REGEX25_N: usize = 14;
/// Words drawn per sampler fixture.
const WORDS: usize = 16;

fn regex25() -> fpras_automata::Nfa {
    fpras_automata::regex::compile_regex(REGEX25, &fpras_automata::Alphabet::binary()).unwrap()
}

/// The paper path of the sampler: practical constants with the union
/// memo off, so every walk step runs a fresh `AppUnion` from the
/// caller's stream.
fn memo_off_params(m: usize, n: usize) -> Params {
    Params { memoize_unions: false, ..Params::practical(0.3, 0.1, m, n) }.into_custom()
}

fn word_bits(w: &fpras_automata::Word) -> String {
    w.symbols().iter().map(|&s| char::from(b'0' + s)).collect()
}

/// Pinned run observations: label, exact estimate bits, membership ops.
/// First recorded before the sampler's walk cache existed, which
/// reproduced every bit and every op; re-recorded at the multinomial
/// break, and the `FprasRun::run` rows once more when that entry point
/// moved onto the engine's one executor (see the module doc).
const GOLDEN_RUNS: &[(&str, u64, u64)] = &[
    ("regex25-run", 4666611626289171686, 4366868),
    ("regex25-det", 4666637746481825248, 4366868),
    ("contains-101-memo-off", 4644446470810859334, 42449993),
];

/// Pinned sampler outputs: label and the first [`WORDS`] words drawn.
const GOLDEN_WORDS: &[(&str, [&str; WORDS])] = &[
    (
        "regex25-generate",
        [
            "00010100101111",
            "00011110001101",
            "01010110111001",
            "10010111000001",
            "10110101000110",
            "00011111100011",
            "11010010011000",
            "11101000111111",
            "01111000101000",
            "10110111001000",
            "10100101100111",
            "10100111100110",
            "01101011111111",
            "10110111100111",
            "01111000001100",
            "01101101101101",
        ],
    ),
    (
        "regex25-session",
        [
            "10110100001100",
            "11010100010100",
            "10010000010100",
            "11100101000000",
            "11010101000000",
            "10111101011111",
            "11111101110101",
            "11111010100000",
            "01000110101110",
            "00111011101000",
            "01011010001000",
            "10101110000101",
            "01000100000100",
            "11100101101111",
            "10111011011111",
            "01101101001001",
        ],
    ),
    (
        "contains-101-memo-off-generate",
        [
            "101001010",
            "001010000",
            "101000011",
            "100110101",
            "001101010",
            "011011111",
            "101100000",
            "010111000",
            "110101100",
            "100101010",
            "011010110",
            "010111110",
            "110111011",
            "101000110",
            "001001101",
            "110110110",
        ],
    ),
];

/// Runs every [`GOLDEN_RUNS`] configuration.
fn observe_runs() -> Vec<(&'static str, u64, u64)> {
    let nfa = regex25();
    let n = REGEX25_N;
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    let mut out = Vec::new();
    let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(7)).unwrap();
    out.push(("regex25-run", run.estimate().to_f64().to_bits(), run.stats().membership_ops));
    let t1 = run_parallel(&nfa, n, &params, 7, 1).unwrap();
    let t2 = run_parallel(&nfa, n, &params, 7, 2).unwrap();
    assert_eq!(t1.estimate().to_f64().to_bits(), t2.estimate().to_f64().to_bits());
    assert_eq!(t1.stats().membership_ops, t2.stats().membership_ops);
    out.push(("regex25-det", t1.estimate().to_f64().to_bits(), t1.stats().membership_ops));
    let c101 = families::contains_substring(&[1, 0, 1]);
    let paper = memo_off_params(c101.num_states(), 9);
    let run = FprasRun::run(&c101, 9, &paper, &mut SmallRng::seed_from_u64(7)).unwrap();
    out.push((
        "contains-101-memo-off",
        run.estimate().to_f64().to_bits(),
        run.stats().membership_ops,
    ));
    out
}

/// Draws every [`GOLDEN_WORDS`] sequence.
fn observe_words() -> Vec<(&'static str, Vec<String>)> {
    use fpras_core::service::{QuerySession, SessionPolicy};
    use fpras_core::UniformGenerator;
    let nfa = regex25();
    let n = REGEX25_N;
    let draw = |generator: &mut UniformGenerator, seed: u64| -> Vec<String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..WORDS).map(|_| word_bits(&generator.generate(&mut rng).expect("a word"))).collect()
    };
    let mut out = Vec::new();
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    let run = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(7)).unwrap();
    out.push(("regex25-generate", draw(&mut UniformGenerator::new(run), 11)));
    let session_params = Params::for_session(0.3, 0.1, nfa.num_states(), n);
    let policy = SessionPolicy::Deterministic { seed: 7, threads: 2 };
    let mut session = QuerySession::new(&nfa, session_params, policy).unwrap();
    let mut rng = SmallRng::seed_from_u64(13);
    let words = (0..WORDS)
        .map(|_| word_bits(&session.sample(n, &mut rng).unwrap().expect("a word")))
        .collect();
    out.push(("regex25-session", words));
    let c101 = families::contains_substring(&[1, 0, 1]);
    let paper = memo_off_params(c101.num_states(), 9);
    let run = FprasRun::run(&c101, 9, &paper, &mut SmallRng::seed_from_u64(7)).unwrap();
    out.push(("contains-101-memo-off-generate", draw(&mut UniformGenerator::new(run), 11)));
    out
}

/// The sampler's own output, pinned: final estimates and membership
/// ops of the 25-state regex (through `FprasRun::run`, and
/// `run_parallel` at threads 1/2) and of one memo-off row, plus the first words drawn by
/// `UniformGenerator::generate` and `QuerySession::sample`. The
/// estimate table above cannot see the sampler on two of its four
/// families (their estimates are exact for every seed); these rows
/// can.
#[test]
fn sampler_streams_match_pinned_words() {
    let runs = observe_runs();
    let words = observe_words();
    if std::env::var("GOLDEN_RECORD").is_ok() {
        println!("const GOLDEN_RUNS: &[(&str, u64, u64)] = &[");
        for (label, bits, ops) in &runs {
            println!("    (\"{label}\", {bits}, {ops}),");
        }
        println!("];");
        println!("const GOLDEN_WORDS: &[(&str, [&str; WORDS])] = &[");
        for (label, ws) in &words {
            println!("    (\"{label}\", [");
            for w in ws {
                println!("        \"{w}\",");
            }
            println!("    ]),");
        }
        println!("];");
        return;
    }
    assert_eq!(runs.len(), GOLDEN_RUNS.len(), "run fixtures drifted from the pinned table");
    for ((label, bits, ops), (g_label, g_bits, g_ops)) in runs.iter().zip(GOLDEN_RUNS) {
        assert_eq!(label, g_label);
        assert_eq!(bits, g_bits, "{label}: estimate bits shifted — an RNG stream moved");
        assert_eq!(ops, g_ops, "{label}: membership ops changed");
    }
    assert_eq!(words.len(), GOLDEN_WORDS.len(), "word fixtures drifted from the pinned table");
    for ((label, ws), (g_label, g_ws)) in words.iter().zip(GOLDEN_WORDS) {
        assert_eq!(label, g_label);
        assert_eq!(ws, g_ws, "{label}: sampled words shifted — a sampler stream moved");
    }
}
