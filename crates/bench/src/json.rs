//! Machine-readable benchmark output.
//!
//! `experiments --json [PATH]` writes a `BENCH_counter.json` so later
//! PRs have a perf trajectory to compare against: one record per
//! `(instance, method, threads)` cell with wall time and the estimate.
//! The FPRAS rows include an `fpras(unbatched)` control — same seed,
//! bit-identical estimate, batched union estimation (D8) disabled — so
//! the batching layer's savings (`ops`, `cells_deduped`) are recorded
//! in every trajectory snapshot, next to the run's `appunion_calls`.
//! The encoder is hand-rolled (the workspace vendors no serde) and the
//! schema is deliberately flat — downstream tooling should need nothing
//! beyond a JSON array of objects.

use fpras_baselines::{run_counter, CounterKind};
use fpras_workloads::{families, random_nfa, RandomNfaConfig};
use rand::{rngs::SmallRng, SeedableRng};

/// Default output path for [`write_counter_json`].
pub const DEFAULT_JSON_PATH: &str = "BENCH_counter.json";

/// One `(instance, method, threads)` measurement.
#[derive(Debug, Clone)]
pub struct CounterMeasurement {
    /// Instance label (`family/n=…`).
    pub instance: String,
    /// Counter label from [`CounterKind::label`].
    pub method: String,
    /// Engine worker threads (≥ 1; non-engine methods report 0).
    pub threads: usize,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// The (estimated or exact) count as `f64`.
    pub estimate: f64,
    /// `log2` of the estimate (stable even when the count overflows
    /// `f64`; negative infinity for zero).
    pub estimate_log2: f64,
    /// Membership/word operations attributed to the run.
    pub ops: u64,
    /// `(cell, symbol)` pairs deduplicated by batched union estimation.
    pub cells_deduped: u64,
    /// `AppUnion` calls that ran trials (zero for exact and baseline
    /// rows) — like `ops`, identical at every thread count.
    pub appunion_calls: u64,
    /// Chunks the work-stealing executor moved between workers (D10;
    /// zero for exact and single-thread rows — scheduling evidence,
    /// varies run to run by design).
    pub pool_steals: u64,
    /// Distinct frontiers hash-consed by the run's interner (§2.5;
    /// zero for exact and baseline rows).
    pub distinct_frontiers: u64,
    /// Frontier-key constructions answered by an existing interned
    /// entry — the allocations the pre-interner hot path paid per key
    /// (zero for exact and baseline rows).
    pub intern_hits: u64,
    /// Wall time attributed to the engine's per-level phases
    /// (plan/count/share/sample/merge — D15; all-zero for exact and
    /// baseline rows). Emitted as five flat `phase_*_s` columns.
    pub phase: fpras_core::PhaseWall,
    /// Parallel efficiency `wall₁ / (wallₜ · t)` against the same
    /// instance's `fpras(ours)` `threads = 1` row (1.0 = ideal linear
    /// scaling; `None` for control and exact rows). Interpret
    /// together with `host_cpus`: a 1-CPU recorder is physically capped
    /// at `1/t`.
    pub parallel_efficiency: Option<f64>,
    /// Hardware threads available on the recording host
    /// (`std::thread::available_parallelism`) — the honest ceiling for
    /// the efficiency column.
    pub host_cpus: usize,
    /// Queries answered by this row (1 for plain single-run rows; the
    /// trace length for query-trace rows).
    pub queries_served: u64,
    /// DP levels answered from an existing session checkpoint instead
    /// of being rebuilt (query-trace session rows only; zero for
    /// single-run rows and the fresh-per-query control).
    pub levels_reused: u64,
    /// Amortized microseconds per query (`None` for single-run rows —
    /// the per-query framing only means something over a trace).
    pub us_per_query: Option<f64>,
    /// Median per-query latency in microseconds (load-harness rows
    /// only; `None` elsewhere). Unlike `us_per_query` this is a real
    /// per-query distribution statistic, not an amortized mean.
    pub p50_us: Option<f64>,
    /// 99th-percentile per-query latency in microseconds (load-harness
    /// rows only). The tail the mean hides: cold builds and extensions
    /// land here, reuse hits land at p50.
    pub p99_us: Option<f64>,
    /// Queries and opens turned away or aborted by the admission
    /// controller (level-quota denials + per-query budget aborts; zero
    /// for unquota'd rows).
    pub quota_rejections: u64,
    /// `levels_reused / (levels_built + levels_reused)` over the row's
    /// whole trace (`None` for single-run rows).
    pub reuse_rate: Option<f64>,
}

/// Hardware threads on the recording host.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured row (efficiency is filled in per instance afterwards).
fn measure(
    instance: &str,
    kind: &CounterKind,
    nfa: &fpras_automata::Nfa,
    n: usize,
    eps: f64,
    seed: u64,
) -> CounterMeasurement {
    let threads = match kind {
        CounterKind::Fpras { threads, .. } | CounterKind::RobpFpras { threads, .. } => *threads,
        _ => 0,
    };
    let r = run_counter(kind, nfa, n, eps, 0.1, seed).expect("counter run");
    CounterMeasurement {
        instance: instance.to_string(),
        method: kind.label().to_string(),
        threads,
        wall_seconds: r.wall.as_secs_f64(),
        estimate: r.estimate.to_f64(),
        estimate_log2: r.estimate.log2(),
        ops: r.ops,
        cells_deduped: r.cells_deduped,
        appunion_calls: r.appunion_calls,
        pool_steals: r.pool_steals,
        distinct_frontiers: r.distinct_frontiers,
        intern_hits: r.intern_hits,
        phase: r.phase,
        parallel_efficiency: None,
        host_cpus: host_cpus(),
        queries_served: 1,
        levels_reused: 0,
        us_per_query: None,
        p50_us: None,
        p99_us: None,
        quota_rejections: 0,
        reuse_rate: None,
    }
}

/// The query-trace bench family: one mixed-length stream over two
/// automata, served once through a [`ServiceRegistry`] (one session per
/// automaton, levels reused across related lengths) and once by the
/// fresh-run-per-query control (what a stateless deployment pays).
/// Both modes answer every query with the **same** Deterministic seed,
/// so their per-query estimates are bit-identical — the session rows
/// differ only in `wall`/`ops`/`levels_reused`, which is exactly the
/// amortization evidence. Single-threaded on purpose: the recording
/// host has 1 CPU, so the honest claim is level reuse, not thread
/// scaling.
fn service_trace_rows(quick: bool, seed: u64) -> Vec<CounterMeasurement> {
    use fpras_core::service::{ServiceRegistry, SessionPolicy};
    use fpras_core::{run_parallel, Params};
    use fpras_workloads::{query_trace, QueryTraceConfig};
    use std::time::Instant;

    let (queries, max_len) = if quick { (16, 10) } else { (40, 14) };
    let automata = [families::contains_substring(&[1, 1]), families::ones_mod_k(4)];
    let config = QueryTraceConfig {
        queries,
        automata: automata.len(),
        min_len: 4,
        max_len,
        repeat_bias: 0.6,
        hot_automaton_bias: 0.0,
    };
    let trace = query_trace(&config, &mut SmallRng::seed_from_u64(seed ^ 0x7ACE));
    let params: Vec<Params> = automata
        .iter()
        .map(|nfa| Params::for_session(0.25, 0.1, nfa.num_states(), max_len))
        .collect();
    let policy = SessionPolicy::Deterministic { seed, threads: 1 };
    let instance = format!("query-trace/q={queries}");

    // Session mode: one registry, one session per automaton. Keys are
    // precomputed so the serving loop never re-hashes an automaton.
    let keys: Vec<_> = automata
        .iter()
        .zip(&params)
        .map(|(nfa, p)| fpras_core::service::SessionKey::new(nfa, p, &policy))
        .collect();
    let mut registry = ServiceRegistry::new(automata.len());
    let start = Instant::now();
    let mut last = fpras_numeric::ExtFloat::ZERO;
    for q in &trace {
        let (session, _) = registry
            .session_with_key_recycled(
                keys[q.automaton].clone(),
                &automata[q.automaton],
                &params[q.automaton],
                &policy,
            )
            .expect("session params are valid by construction");
        last = session.estimate(q.len).expect("trace runs without a budget");
    }
    let session_wall = start.elapsed();
    let totals = registry.session_totals();
    let mut session_ops = 0;
    let mut session_phase = fpras_core::PhaseWall::default();
    for stats in registry.sessions().map(|s| s.run_stats()) {
        session_ops += stats.membership_ops;
        session_phase.merge(&stats.phase);
    }
    let session_row = CounterMeasurement {
        instance: instance.clone(),
        method: "session(trace)".into(),
        threads: 1,
        wall_seconds: session_wall.as_secs_f64(),
        estimate: last.to_f64(),
        estimate_log2: last.log2(),
        ops: session_ops,
        cells_deduped: 0,
        appunion_calls: 0,
        pool_steals: 0,
        distinct_frontiers: 0,
        intern_hits: 0,
        phase: session_phase,
        parallel_efficiency: None,
        host_cpus: host_cpus(),
        queries_served: totals.queries_served,
        levels_reused: totals.levels_reused,
        us_per_query: Some(session_wall.as_secs_f64() * 1e6 / queries as f64),
        p50_us: None,
        p99_us: None,
        quota_rejections: 0,
        reuse_rate: Some(totals.reuse_rate()),
    };

    // Control: a fresh engine run per query, same seed and params — the
    // estimates match the session rows bit for bit (D11); only the work
    // differs.
    let start = Instant::now();
    let mut control_ops = 0;
    let mut control_phase = fpras_core::PhaseWall::default();
    let mut last_control = fpras_numeric::ExtFloat::ZERO;
    for q in &trace {
        let run = run_parallel(&automata[q.automaton], q.len, &params[q.automaton], seed, 1)
            .expect("control run");
        control_ops += run.stats().membership_ops;
        control_phase.merge(&run.stats().phase);
        last_control = run.estimate();
    }
    let control_wall = start.elapsed();
    assert_eq!(
        last.to_f64(),
        last_control.to_f64(),
        "session and fresh-per-query answers must be bit-identical (D11)"
    );
    let control_row = CounterMeasurement {
        instance,
        method: "fresh-per-query".into(),
        threads: 1,
        wall_seconds: control_wall.as_secs_f64(),
        estimate: last_control.to_f64(),
        estimate_log2: last_control.log2(),
        ops: control_ops,
        cells_deduped: 0,
        appunion_calls: 0,
        pool_steals: 0,
        distinct_frontiers: 0,
        intern_hits: 0,
        phase: control_phase,
        parallel_efficiency: None,
        host_cpus: host_cpus(),
        queries_served: queries as u64,
        levels_reused: 0,
        us_per_query: Some(control_wall.as_secs_f64() * 1e6 / queries as f64),
        p50_us: None,
        p99_us: None,
        quota_rejections: 0,
        reuse_rate: Some(0.0),
    };
    vec![session_row, control_row]
}

/// Fills `parallel_efficiency` for every `fpras(ours)` row with
/// `threads ≥ 1`, relative to the same instance's `threads = 1` row:
/// `wall₁ / (wallₜ · t)`.
fn fill_parallel_efficiency(rows: &mut [CounterMeasurement]) {
    let baselines: Vec<(String, f64)> = rows
        .iter()
        .filter(|m| m.method == "fpras(ours)" && m.threads == 1)
        .map(|m| (m.instance.clone(), m.wall_seconds))
        .collect();
    for m in rows.iter_mut() {
        if m.method != "fpras(ours)" || m.threads < 1 {
            continue;
        }
        if let Some((_, wall1)) = baselines.iter().find(|(i, _)| *i == m.instance) {
            if m.wall_seconds > 0.0 {
                m.parallel_efficiency = Some(wall1 / (m.wall_seconds * m.threads as f64));
            }
        }
    }
}

/// Runs the counter matrix the JSON report records: three small
/// instance families × the FPRAS engine at several thread counts (plus
/// unbatched controls) × the exact DP as ground truth, and two
/// **large skewed instances** where the sample pass is hot — a wide
/// dense random NFA (the work-stealing pool engages on every level) and
/// a deeply unrolled automaton (3 live cells per level: the
/// sequential-fallback cutoff keeps thread overhead at zero) — at
/// threads 1/2/4/8 with a `parallel_efficiency` column. `quick` shrinks
/// instance sizes for smoke passes.
pub fn counter_matrix(quick: bool, seed: u64) -> Vec<CounterMeasurement> {
    let n = if quick { 10 } else { 14 };
    let instances = [
        ("contains-11", families::contains_substring(&[1, 1])),
        ("ones-mod-4", families::ones_mod_k(4)),
        ("div-by-5", families::divisible_by(5)),
    ];
    // The `batch = false` rows are the unbatched controls (bit-identical
    // estimates, strictly more ops, zero dedup).
    let fpras_settings = [(1usize, true), (2, true), (4, true), (8, true), (1, false), (4, false)];
    let mut out = Vec::new();
    for (name, nfa) in &instances {
        let instance = format!("{name}/n={n}");
        for &(threads, batch) in &fpras_settings {
            let kind = CounterKind::Fpras { threads, batch };
            out.push(measure(&instance, &kind, nfa, n, 0.25, seed));
        }
        out.push(measure(&instance, &CounterKind::ExactDp, nfa, n, 0.25, seed));
    }

    // nROBP substrate rows (D14): two of the small instances re-encoded
    // as read-once branching programs (`Robp::from_nfa`, which preserves
    // the language slice — so the base instance's `exact-dp` row above
    // is their ground truth too) and counted by the same engine over the
    // `RobpSubstrate`. Statistically comparable to the fpras rows, not
    // bit-identical: the program's node universe differs from the NFA's
    // state universe, so the frontier-keyed streams differ.
    let robp_settings = [(1usize, true), (4, true), (1, false)];
    for (name, nfa) in instances.iter().take(2) {
        let instance = format!("robp-{name}/n={n}");
        for &(threads, batch) in &robp_settings {
            let kind = CounterKind::RobpFpras { threads, batch };
            out.push(measure(&instance, &kind, nfa, n, 0.25, seed));
        }
    }

    // Large skewed instances (D10): the n = 14 fixtures above finish in
    // ~0.1 s — spawn overhead and skew are invisible there. These are
    // sized so the per-level passes carry real work.
    let (dense_m, dense_n, unroll_n) = if quick { (24, 12, 20) } else { (48, 20, 64) };
    let dense = random_nfa(
        &RandomNfaConfig { states: dense_m, alphabet: 2, density: 2.5, accepting: 2 },
        &mut SmallRng::seed_from_u64(seed ^ 0xD10),
    );
    let large: [(String, fpras_automata::Nfa, usize, f64); 2] = [
        (format!("dense-random-{dense_m}/n={dense_n}"), dense, dense_n, 0.4),
        (
            format!("unrolled-contains-11/n={unroll_n}"),
            families::unrolled(&families::contains_substring(&[1, 1]), unroll_n),
            unroll_n,
            0.3,
        ),
    ];
    for (instance, nfa, n, eps) in &large {
        // One discarded warmup run per instance: the first run on a
        // fresh working-set shape pays allocator/cache warmup that
        // would otherwise inflate every later row's efficiency against
        // the t = 1 baseline.
        let warmup = CounterKind::Fpras { threads: 1, batch: true };
        let _ = run_counter(&warmup, nfa, *n, *eps, 0.1, seed);
        for threads in [1usize, 2, 4, 8] {
            let kind = CounterKind::Fpras { threads, batch: true };
            out.push(measure(instance, &kind, nfa, *n, *eps, seed));
        }
        out.push(measure(instance, &CounterKind::ExactDp, nfa, *n, *eps, seed));
    }

    fill_parallel_efficiency(&mut out);

    // Query-trace family (service layer): amortized per-query cost with
    // level reuse vs. the fresh-run-per-query control.
    out.extend(service_trace_rows(quick, seed));
    // Load harness (serving front-end): p50/p99 latency, reuse rate,
    // and quota shedding over a large mixed-tenant trace.
    out.extend(crate::load::load_harness_rows(quick, seed));
    out
}

/// Renders the measurements as a pretty-printed JSON array.
pub fn to_json(measurements: &[CounterMeasurement]) -> String {
    let mut s = String::from("[\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str("  {");
        s.push_str(&format!("\"instance\": {}, ", quote(&m.instance)));
        s.push_str(&format!("\"method\": {}, ", quote(&m.method)));
        s.push_str(&format!("\"threads\": {}, ", m.threads));
        s.push_str(&format!("\"wall_seconds\": {}, ", number(m.wall_seconds)));
        s.push_str(&format!("\"estimate\": {}, ", number(m.estimate)));
        s.push_str(&format!("\"estimate_log2\": {}, ", number(m.estimate_log2)));
        s.push_str(&format!("\"ops\": {}, ", m.ops));
        s.push_str(&format!("\"cells_deduped\": {}, ", m.cells_deduped));
        s.push_str(&format!("\"appunion_calls\": {}, ", m.appunion_calls));
        s.push_str(&format!("\"pool_steals\": {}, ", m.pool_steals));
        s.push_str(&format!("\"distinct_frontiers\": {}, ", m.distinct_frontiers));
        s.push_str(&format!("\"intern_hits\": {}, ", m.intern_hits));
        s.push_str(&format!("\"phase_plan_s\": {}, ", number(m.phase.plan.as_secs_f64())));
        s.push_str(&format!("\"phase_count_s\": {}, ", number(m.phase.count.as_secs_f64())));
        s.push_str(&format!("\"phase_sample_s\": {}, ", number(m.phase.sample.as_secs_f64())));
        s.push_str(&format!("\"phase_merge_s\": {}, ", number(m.phase.merge.as_secs_f64())));
        s.push_str(&format!(
            "\"parallel_efficiency\": {}, ",
            m.parallel_efficiency.map_or("null".to_string(), number)
        ));
        s.push_str(&format!("\"host_cpus\": {}, ", m.host_cpus));
        s.push_str(&format!("\"queries_served\": {}, ", m.queries_served));
        s.push_str(&format!("\"levels_reused\": {}, ", m.levels_reused));
        s.push_str(&format!(
            "\"us_per_query\": {}, ",
            m.us_per_query.map_or("null".to_string(), number)
        ));
        s.push_str(&format!("\"p50_us\": {}, ", m.p50_us.map_or("null".to_string(), number)));
        s.push_str(&format!("\"p99_us\": {}, ", m.p99_us.map_or("null".to_string(), number)));
        s.push_str(&format!("\"quota_rejections\": {}, ", m.quota_rejections));
        s.push_str(&format!("\"reuse_rate\": {}", m.reuse_rate.map_or("null".to_string(), number)));
        s.push('}');
        if i + 1 < measurements.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// CI guard for the work-stealing executor's scaling (D10): runs the
/// wide dense fixture at `threads = 1` and `threads = 4` and fails when
/// the 4-thread wall time is not below **0.9×** the single-thread wall
/// (loose on purpose: it exists to catch a regression back to flat
/// scaling, not to certify an efficiency figure). Estimates must also
/// stay bit-identical across the two runs.
///
/// On hosts without real parallelism (< 2 hardware threads) the wall
/// comparison is physically vacuous — four time-sliced workers cannot
/// beat one — so the check reports a skip (`Ok` with a message) and the
/// bit-identity comparison still runs.
pub fn scaling_smoke(quick: bool, seed: u64) -> Result<String, String> {
    let (m, n, eps) = if quick { (24, 10, 0.4) } else { (48, 16, 0.4) };
    let nfa = random_nfa(
        &RandomNfaConfig { states: m, alphabet: 2, density: 2.5, accepting: 2 },
        &mut SmallRng::seed_from_u64(seed ^ 0xD10),
    );
    let run = |threads: usize| {
        let kind = CounterKind::Fpras { threads, batch: true };
        run_counter(&kind, &nfa, n, eps, 0.1, seed).expect("scaling fixture run")
    };
    // Discarded warmup, like `counter_matrix`: the first run on a fresh
    // working-set shape pays allocator/cache warmup, and a cold t = 1
    // baseline would bias the guard toward false-passing (an inflated
    // w1 can hide a regression to flat scaling).
    let _ = run(1);
    let one = run(1);
    let four = run(4);
    if one.estimate != four.estimate {
        return Err(format!(
            "threads=1 and threads=4 estimates differ: {} vs {}",
            one.estimate.to_f64(),
            four.estimate.to_f64()
        ));
    }
    let (w1, w4) = (one.wall.as_secs_f64(), four.wall.as_secs_f64());
    let cpus = host_cpus();
    let summary = format!(
        "dense-random-{m}/n={n}: wall t=1 {w1:.3}s, t=4 {w4:.3}s \
         (ratio {:.3}, host cpus {cpus}, steals {})",
        w4 / w1,
        four.pool_steals
    );
    if cpus < 2 {
        return Ok(format!("SKIP wall check (single-CPU host): {summary}"));
    }
    if w4 < 0.9 * w1 {
        Ok(summary)
    } else {
        Err(format!("threads=4 must beat 0.9× threads=1: {summary}"))
    }
}

/// Runs the matrix and writes it to `path` (or [`DEFAULT_JSON_PATH`]).
/// Returns the resolved path.
pub fn write_counter_json(path: Option<&str>, quick: bool, seed: u64) -> std::io::Result<String> {
    let path = path.unwrap_or(DEFAULT_JSON_PATH).to_string();
    let measurements = counter_matrix(quick, seed);
    std::fs::write(&path, to_json(&measurements))?;
    Ok(path)
}

/// The columns [`check_counter_json`] compares: exact, and identical at
/// every thread count and on every host. Wall-clock columns are not
/// compared, nor is `intern_hits` at `threads ≥ 2` (which worker
/// interns a frontier first depends on the schedule); at one thread it
/// is exact, so it is compared there.
pub const CHECKED_COLUMNS: &[&str] = &[
    "estimate",
    "ops",
    "appunion_calls",
    "cells_deduped",
    "distinct_frontiers",
    "levels_reused",
    "queries_served",
    "quota_rejections",
];

/// Regenerates the counter matrix and compares it with the committed
/// document at `path` on [`CHECKED_COLUMNS`]: same rows, keyed by
/// `(instance, method, threads)`, and the same value text in every
/// checked column. Returns a one-line summary, or every drift found.
pub fn check_counter_json(path: &str, quick: bool, seed: u64) -> Result<String, String> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let want = parse_rows(&committed).map_err(|e| format!("{path}: {e}"))?;
    let got = parse_rows(&to_json(&counter_matrix(quick, seed))).expect("to_json is parseable");
    let drifts = compare_rows(&want, &got);
    if drifts.is_empty() {
        Ok(format!("{} rows match {path} on {}", got.len(), CHECKED_COLUMNS.join(", ")))
    } else {
        Err(drifts.join("\n"))
    }
}

/// One row of a counter-matrix document: each column's name and the
/// raw text of its value.
type RawRow = Vec<(String, String)>;

/// The raw value text of `column` in `row`.
fn column<'r>(row: &'r RawRow, column: &str) -> Option<&'r str> {
    row.iter().find(|(name, _)| name == column).map(|(_, value)| value.as_str())
}

/// Every difference between the committed rows `want` and the
/// regenerated rows `got` on the checked columns.
fn compare_rows(want: &[RawRow], got: &[RawRow]) -> Vec<String> {
    let key = |row: &RawRow| {
        ["instance", "method", "threads"].map(|c| column(row, c).unwrap_or("?").to_string())
    };
    let mut drifts = Vec::new();
    if want.len() != got.len() {
        drifts.push(format!("{} rows committed, {} regenerated", want.len(), got.len()));
    }
    for row in got {
        let k = key(row);
        let Some(committed) = want.iter().find(|w| key(w) == k) else {
            drifts.push(format!("{k:?}: no committed row"));
            continue;
        };
        let single = column(row, "threads").is_some_and(|t| t == "0" || t == "1");
        let columns = CHECKED_COLUMNS.iter().chain(single.then_some(&"intern_hits"));
        for &c in columns {
            let (w, g) = (column(committed, c), column(row, c));
            if w != g {
                drifts.push(format!("{k:?} {c}: committed {w:?}, regenerated {g:?}"));
            }
        }
    }
    drifts
}

/// Reads a document [`to_json`] writes: a JSON array of flat objects
/// whose values are strings, numbers or `null`. String values keep
/// their quotes and escapes, so equal text means equal value.
fn parse_rows(doc: &str) -> Result<Vec<RawRow>, String> {
    let bytes = doc.as_bytes();
    let mut at = 0;
    let skip_ws = |at: &mut usize| {
        while bytes.get(*at).is_some_and(u8::is_ascii_whitespace) {
            *at += 1;
        }
    };
    let expect = |at: &mut usize, want: u8| {
        skip_ws(at);
        if bytes.get(*at) == Some(&want) {
            *at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {at}", want as char))
        }
    };
    // A quoted string from `at`, returned with its quotes.
    let string = |at: &mut usize| -> Result<String, String> {
        expect(at, b'"')?;
        let start = *at - 1;
        while let Some(&b) = bytes.get(*at) {
            *at += 1;
            match b {
                b'\\' => *at += 1,
                b'"' => return Ok(doc[start..*at].to_string()),
                _ => {}
            }
        }
        Err("unterminated string".into())
    };
    let mut rows = Vec::new();
    expect(&mut at, b'[')?;
    skip_ws(&mut at);
    if bytes.get(at) == Some(&b']') {
        return Ok(rows);
    }
    loop {
        expect(&mut at, b'{')?;
        let mut row = RawRow::new();
        loop {
            let name = string(&mut at)?;
            expect(&mut at, b':')?;
            skip_ws(&mut at);
            let value = if bytes.get(at) == Some(&b'"') {
                string(&mut at)?
            } else {
                let start = at;
                while bytes.get(at).is_some_and(|b| !matches!(b, b',' | b'}')) {
                    at += 1;
                }
                doc[start..at].trim().to_string()
            };
            row.push((name.trim_matches('"').to_string(), value));
            skip_ws(&mut at);
            match bytes.get(at) {
                Some(b',') => at += 1,
                Some(b'}') => {
                    at += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {at}")),
            }
        }
        rows.push(row);
        skip_ws(&mut at);
        match bytes.get(at) {
            Some(b',') => at += 1,
            Some(b']') => return Ok(rows),
            _ => return Err(format!("expected ',' or ']' at byte {at}")),
        }
    }
}

/// JSON string escaping (the subset our labels can contain).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON numbers; infinities/NaN (possible for `log2(0)`) become
/// `null` to keep the document valid.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rows: an engine row with every optional column set, and an
    /// exact row with none.
    fn sample_rows() -> Vec<CounterMeasurement> {
        vec![
            CounterMeasurement {
                instance: "i/n=4".into(),
                method: "fpras(ours)".into(),
                threads: 2,
                wall_seconds: 0.25,
                estimate: 12.0,
                estimate_log2: 12f64.log2(),
                ops: 99,
                cells_deduped: 7,
                appunion_calls: 120,
                pool_steals: 5,
                distinct_frontiers: 11,
                intern_hits: 42,
                phase: fpras_core::PhaseWall {
                    plan: std::time::Duration::from_millis(5),
                    count: std::time::Duration::from_millis(125),
                    share: std::time::Duration::from_millis(10),
                    sample: std::time::Duration::from_millis(80),
                    merge: std::time::Duration::from_millis(30),
                },
                parallel_efficiency: Some(0.5),
                host_cpus: 4,
                queries_served: 12,
                levels_reused: 30,
                us_per_query: Some(125.5),
                p50_us: Some(6.25),
                p99_us: Some(980.0),
                quota_rejections: 17,
                reuse_rate: Some(0.625),
            },
            CounterMeasurement {
                instance: "empty \"quoted\"".into(),
                method: "exact-dp".into(),
                threads: 0,
                wall_seconds: 0.0,
                estimate: 0.0,
                estimate_log2: f64::NEG_INFINITY,
                ops: 0,
                cells_deduped: 0,
                appunion_calls: 0,
                pool_steals: 0,
                distinct_frontiers: 0,
                intern_hits: 0,
                phase: fpras_core::PhaseWall::default(),
                parallel_efficiency: None,
                host_cpus: 4,
                queries_served: 1,
                levels_reused: 0,
                us_per_query: None,
                p50_us: None,
                p99_us: None,
                quota_rejections: 0,
                reuse_rate: None,
            },
        ]
    }

    #[test]
    fn json_document_is_well_formed() {
        let ms = sample_rows();
        let doc = to_json(&ms);
        assert!(doc.starts_with("[\n"));
        assert!(doc.ends_with("]\n"));
        assert!(doc.contains("\"threads\": 2"));
        assert!(doc.contains("\"cells_deduped\": 7"));
        assert!(doc.contains("\"appunion_calls\": 120"));
        assert!(doc.contains("\"pool_steals\": 5"));
        assert!(doc.contains("\"distinct_frontiers\": 11"));
        assert!(doc.contains("\"intern_hits\": 42"));
        assert!(doc.contains("\"phase_plan_s\": 0.005"));
        assert!(doc.contains("\"phase_count_s\": 0.125"));
        assert!(doc.contains("\"phase_sample_s\": 0.08"));
        assert!(doc.contains("\"phase_merge_s\": 0.03"));
        assert!(doc.contains("\"phase_count_s\": 0,"), "all-zero phase for exact rows");
        assert!(doc.contains("\"parallel_efficiency\": 0.5"));
        assert!(doc.contains("\"parallel_efficiency\": null"));
        assert!(doc.contains("\"host_cpus\": 4"));
        assert!(doc.contains("\"queries_served\": 12"));
        assert!(doc.contains("\"levels_reused\": 30"));
        assert!(doc.contains("\"us_per_query\": 125.5"));
        assert!(doc.contains("\"us_per_query\": null"));
        assert!(doc.contains("\"p50_us\": 6.25"));
        assert!(doc.contains("\"p50_us\": null"));
        assert!(doc.contains("\"p99_us\": 980"));
        assert!(doc.contains("\"quota_rejections\": 17"));
        assert!(doc.contains("\"reuse_rate\": 0.625"));
        assert!(doc.contains("\"reuse_rate\": null"));
        assert!(doc.contains("\\\"quoted\\\""));
        // log2(0) must not produce invalid JSON.
        assert!(doc.contains("\"estimate_log2\": null"));
        assert_eq!(doc.matches('{').count(), 2);
        assert_eq!(doc.matches('}').count(), 2);
    }

    /// The check reads back what `to_json` writes, and flags a drift in
    /// a checked column, a missing row, and `intern_hits` at one thread,
    /// but not wall columns or `intern_hits` at two threads.
    #[test]
    fn check_flags_exact_drift_only() {
        let ms = sample_rows();
        let rows = parse_rows(&to_json(&ms)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(column(&rows[0], "instance"), Some("\"i/n=4\""));
        assert_eq!(column(&rows[1], "instance"), Some("\"empty \\\"quoted\\\"\""));
        assert_eq!(column(&rows[1], "estimate_log2"), Some("null"));
        assert!(compare_rows(&rows, &rows).is_empty());
        let drifted = |edit: fn(&mut Vec<CounterMeasurement>)| {
            let mut changed = sample_rows();
            edit(&mut changed);
            compare_rows(&rows, &parse_rows(&to_json(&changed)).unwrap())
        };
        assert!(drifted(|m| m[0].wall_seconds = 9.0).is_empty(), "wall is not compared");
        assert!(drifted(|m| m[0].intern_hits += 1).is_empty(), "threads 2: not compared");
        assert_eq!(drifted(|m| m[1].intern_hits += 1).len(), 1, "threads 0: compared");
        assert_eq!(drifted(|m| m[0].ops += 1).len(), 1);
        assert_eq!(drifted(|m| m[0].estimate = 12.5).len(), 1);
        assert_eq!(drifted(|m| m[1].quota_rejections = 3).len(), 1);
        assert_eq!(drifted(|m| m.truncate(1)).len(), 1, "a missing row");
        assert!(parse_rows("[{\"a\": 1,]").is_err());
        assert_eq!(parse_rows("[]").unwrap().len(), 0);
    }

    #[test]
    fn matrix_covers_methods_and_threads() {
        let ms = counter_matrix(true, 7);
        // 3 small instances × (6 fpras settings + 1 exact) + 2
        // robp-encoded instances × 3 robp settings + 2 large instances
        // × (4 thread counts + 1 exact) + 2 query-trace rows + 2
        // load-harness rows.
        assert_eq!(ms.len(), 41);
        // Load harness: latency distribution recorded, reuse nonzero,
        // and only the quota'd row sheds queries.
        let load = ms.iter().find(|m| m.method == "session(load)").expect("load row");
        let quotad = ms.iter().find(|m| m.method == "session(load+quota)").expect("load+quota row");
        assert!(load.p50_us.is_some() && load.p99_us.is_some());
        assert!(load.levels_reused > 0 && load.quota_rejections == 0);
        assert!(quotad.quota_rejections > 0, "tight ledger must show rejections");
        // Query-trace family: the session row must show real level
        // reuse and beat the fresh-run-per-query control on amortized
        // per-query cost — reuse is a strict work reduction, so this
        // holds even on a single-CPU recorder.
        let session = ms.iter().find(|m| m.method == "session(trace)").expect("session row");
        let control = ms.iter().find(|m| m.method == "fresh-per-query").expect("control row");
        assert_eq!(session.instance, control.instance);
        assert_eq!(session.queries_served, control.queries_served);
        assert!(session.levels_reused > 0, "trace must reuse levels");
        assert_eq!(control.levels_reused, 0);
        assert_eq!(session.estimate, control.estimate, "answers must be bit-identical (D11)");
        assert!(session.ops < control.ops, "reuse must save membership ops");
        let (s_us, c_us) =
            (session.us_per_query.expect("amortized"), control.us_per_query.expect("amortized"));
        assert!(s_us < c_us, "session {s_us} µs/query must beat control {c_us} µs/query");
        assert!(ms.iter().any(|m| m.method == "exact-dp"));
        assert!(ms.iter().any(|m| m.threads == 8));
        // Interner evidence (§2.5): the dense-random family re-keys the
        // same frontiers constantly, so its FPRAS rows must show both
        // distinct frontiers and repeat-intern hits.
        let dense = ms
            .iter()
            .find(|m| m.instance.starts_with("dense-random-") && m.method == "fpras(ours)")
            .expect("dense fpras row");
        assert!(dense.distinct_frontiers > 0, "interner must store frontiers");
        assert!(dense.intern_hits > 0, "dense-random must re-intern frontiers");
        // Phase attribution (D15): engine rows carry a nonzero phase
        // breakdown that never exceeds the row's total wall.
        assert!(dense.phase.total() > std::time::Duration::ZERO, "phase wall must accrue");
        assert!(dense.phase.total().as_secs_f64() <= dense.wall_seconds, "phases ⊆ wall");
        assert!(ms.iter().any(|m| m.method == "fpras(unbatched)"));
        // The large skewed instances are present, thread-identical, and
        // carry the efficiency column on every threads ≥ 1 row.
        for prefix in ["dense-random-", "unrolled-contains-11"] {
            let rows: Vec<_> = ms.iter().filter(|m| m.instance.starts_with(prefix)).collect();
            assert_eq!(rows.len(), 5, "{prefix}");
            let dets: Vec<f64> =
                rows.iter().filter(|m| m.threads >= 1).map(|m| m.estimate).collect();
            assert_eq!(dets.len(), 4, "{prefix}");
            assert!(dets.windows(2).all(|w| w[0] == w[1]), "{prefix}: {dets:?}");
            for m in rows.iter().filter(|m| m.method == "fpras(ours)") {
                assert!(m.parallel_efficiency.is_some(), "{prefix} t={}", m.threads);
            }
            // Against exact ground truth (the ε band of the large rows).
            let exact = rows.iter().find(|m| m.method == "exact-dp").expect("exact row").estimate;
            for m in rows.iter().filter(|m| m.method != "exact-dp") {
                let err = (m.estimate - exact).abs() / exact;
                assert!(err < 0.5, "{prefix} t={}: err {err}", m.threads);
            }
        }
        // One executor: identical estimates for threads 1/2/4/8,
        // batched or not (batching shares work, never changes output).
        for (name, _) in [("contains-11", ()), ("ones-mod-4", ()), ("div-by-5", ())] {
            let dets: Vec<f64> = ms
                .iter()
                .filter(|m| m.instance.starts_with(name) && m.threads >= 1)
                .map(|m| m.estimate)
                .collect();
            assert!(dets.windows(2).all(|w| w[0] == w[1]), "{name}: {dets:?}");
            // The unbatched control re-runs shared estimations: same
            // estimate, strictly more membership ops on these fixtures.
            let batched = ms
                .iter()
                .find(|m| {
                    m.instance.starts_with(name) && m.method == "fpras(ours)" && m.threads == 1
                })
                .expect("batched one-thread row");
            let unbatched = ms
                .iter()
                .find(|m| {
                    m.instance.starts_with(name) && m.method == "fpras(unbatched)" && m.threads == 1
                })
                .expect("unbatched one-thread row");
            assert_eq!(batched.estimate, unbatched.estimate, "{name}");
            assert!(batched.cells_deduped > 0, "{name}: dedup must fire");
            assert_eq!(unbatched.cells_deduped, 0, "{name}");
            assert!(batched.ops < unbatched.ops, "{name}: batching must save ops");
        }
        // nROBP substrate family (D14): the robp-encoded slices are the
        // same languages, so the base instance's exact row is their
        // ground truth; labels are the robp ones, the batch knob is
        // work-only (bit-identical estimate), and a threads ≥ 1 row is
        // present.
        for name in ["contains-11", "ones-mod-4"] {
            let exact = ms
                .iter()
                .find(|m| m.instance.starts_with(name) && m.method == "exact-dp")
                .expect("exact row")
                .estimate;
            let rows: Vec<_> =
                ms.iter().filter(|m| m.instance.starts_with(&format!("robp-{name}"))).collect();
            assert_eq!(rows.len(), 3, "robp-{name}");
            for m in &rows {
                let err = (m.estimate - exact).abs() / exact;
                assert!(err < 0.25, "robp-{name} t={}: err {err}", m.threads);
            }
            let ours = rows
                .iter()
                .find(|m| m.method == "robp(ours)" && m.threads == 1)
                .expect("robp one-thread row");
            let unbatched =
                rows.iter().find(|m| m.method == "robp(unbatched)").expect("robp unbatched row");
            assert_eq!(ours.estimate, unbatched.estimate, "robp-{name}: batch knob is work-only");
            assert!(ours.ops <= unbatched.ops, "robp-{name}: batching must not add ops");
            assert!(rows.iter().any(|m| m.threads == 4), "robp-{name}");
        }
        // And every FPRAS estimate is within the ε band of exact.
        for (name, _) in [("contains-11", ()), ("ones-mod-4", ()), ("div-by-5", ())] {
            let exact = ms
                .iter()
                .find(|m| m.instance.starts_with(name) && m.method == "exact-dp")
                .expect("exact row")
                .estimate;
            for m in ms.iter().filter(|m| m.instance.starts_with(name) && m.method != "exact-dp") {
                let err = (m.estimate - exact).abs() / exact;
                assert!(err < 0.25, "{name} t={}: err {err}", m.threads);
            }
        }
    }
}
