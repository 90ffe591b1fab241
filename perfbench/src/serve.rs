//! The serve-mix workload: one `nfa-count serve --threads 1` process and
//! one closed-loop client that sends a line and waits for its reply.
//!
//! A round spawns the server, opens and warms every tenant (the set-up),
//! then sends the seeded request stream and quits. Every round does the
//! same work, so latencies pool across rounds. Client and server are
//! pinned to one CPU: whether they share a CPU otherwise moved the
//! median round trip by about a quarter between processes.
//!
//! Its timings are not scaled by the host probe (`host.rs`): they are
//! mostly pipe round trips, which the probe does not track (in one set
//! of runs the probe sped up by a fifth while request latency held).

use crate::layers::Layers;
use crate::proc::{first_allowed_cpu, pin_to, Proc};
use crate::stats::{median, quantile, Report};
use crate::workloads::{
    check_estimate, check_word, serve_stream, tenants, Query, Tenant, DELTA, MAX_LEN, SAMPLE_K,
    SERVE_EPS, WARM_LEN,
};
use crate::Ctx;
use fpras_core::service::{
    AdmissionController, QuotaConfig, ServiceRegistry, SessionKey, SessionPolicy,
};
use fpras_core::{Params, RunStats};
use rand::{rngs::SmallRng, SeedableRng};
use std::io::Write;
use std::time::{Duration, Instant};

/// What one round through the real binary measured.
struct Round {
    setup_s: f64,
    rss_mb: Option<f64>,
    /// Per-request latency (µs), every request of the stream.
    request_us: Vec<f64>,
    /// Per-request latency (µs) of the `sample N K` requests.
    sample_us: Vec<f64>,
    stream_wall: Duration,
}

/// The line of one data request, as the client sends it.
fn request_line(q: &Query) -> String {
    match *q {
        Query::Estimate { n, .. } => format!("estimate {n}"),
        Query::Sample { n, .. } => format!("sample {n} {SAMPLE_K}"),
    }
}

/// Parses `estimate N = X (log2 Y)` for length `n`.
fn parse_estimate(line: &str, n: usize) -> Option<f64> {
    let rest = line.strip_prefix(&format!("estimate {n} = "))?;
    rest.split_once(" (log2").and_then(|(v, _)| v.parse().ok())
}

/// Sends `line` and reads one reply line, checked by `check`.
fn ask(
    p: &mut Proc,
    line: &str,
    report: &mut Report,
    check: impl FnOnce(&str) -> Result<(), String>,
) -> Result<Instant, String> {
    p.send(line)?;
    let (reply, at) = p.next_line()?.ok_or("server closed its output")?;
    report.check(check(reply));
    Ok(at)
}

fn check_reply(t: &Tenant, n: usize, reply: &str) -> Result<(), String> {
    match parse_estimate(reply, n) {
        Some(est) => check_estimate(&format!("{} n={n}", t.name), est, t.exact[n], SERVE_EPS),
        None => Err(format!("{} estimate {n}: {reply:?}", t.name)),
    }
}

fn open_line(t: &Tenant) -> String {
    format!("open {} --regex {} --max-n {MAX_LEN} --eps {SERVE_EPS}", t.name, t.pattern)
}

fn round(
    ctx: &Ctx,
    tenants: &[Tenant],
    stream: &[Query],
    report: &mut Report,
) -> Result<Round, String> {
    let start = Instant::now();
    let args = ["serve", "--threads", "1", "--seed", &ctx.seed.to_string()].map(String::from);
    let mut p = Proc::spawn(&ctx.nfa_count, &args, true, true)?;
    for t in tenants {
        let opened = format!("opened {} ", t.name);
        ask(&mut p, &open_line(t), report, |r| {
            r.starts_with(&opened).then_some(()).ok_or(format!("open {}: {r:?}", t.name))
        })?;
        ask(&mut p, &format!("estimate {WARM_LEN}"), report, |r| check_reply(t, WARM_LEN, r))?;
    }
    let setup_s = start.elapsed().as_secs_f64();

    let (mut request_us, mut sample_us) = (Vec::new(), Vec::new());
    let mut current = tenants.len() - 1;
    let stream_start = Instant::now();
    for q in stream {
        let (Query::Estimate { tenant, n } | Query::Sample { tenant, n }) = *q;
        let t = &tenants[tenant];
        if tenant != current {
            let sent = Instant::now();
            let using = format!("using {}", t.name);
            let at = ask(&mut p, &format!("use {}", t.name), report, |r| {
                (r == using).then_some(()).ok_or(format!("use {}: {r:?}", t.name))
            })?;
            request_us.push((at - sent).as_secs_f64() * 1e6);
            current = tenant;
        }
        let sent = Instant::now();
        let done = match q {
            Query::Estimate { .. } => {
                ask(&mut p, &request_line(q), report, |r| check_reply(t, n, r))?
            }
            Query::Sample { .. } => {
                p.send(&request_line(q))?;
                let prefix = format!("sample {n} = ");
                let mut last = sent;
                for _ in 0..SAMPLE_K {
                    let (reply, at) = p.next_line()?.ok_or("server closed its output")?;
                    last = at;
                    // The server stops a batch early only on an error or
                    // an empty slice, and neither should happen here.
                    let word = reply.strip_prefix(&prefix).filter(|w| !w.starts_with('('));
                    let stop = reply.starts_with("error:") || reply.ends_with("(empty slice)");
                    report.check(match word {
                        Some(w) => check_word(&t.nfa, n, w),
                        None => Err(format!("{} sample {n}: {reply:?}", t.name)),
                    });
                    if stop {
                        break;
                    }
                }
                sample_us.push((last - sent).as_secs_f64() * 1e6);
                last
            }
        };
        request_us.push((done - sent).as_secs_f64() * 1e6);
    }
    let stream_wall = stream_start.elapsed();
    p.send("quit")?;
    let (code, rss_mb) = p.finish()?;
    report.check((code == Some(0)).then_some(()).ok_or(format!("serve exited with {code:?}")));
    report.check(rss_mb.map(|_| ()).ok_or("peak RSS not measurable".into()));
    Ok(Round { setup_s, rss_mb, request_us, sample_us, stream_wall })
}

/// Rounds through the real binary until `until` has passed (at least one).
fn rounds(ctx: &Ctx, until: Duration, report: &mut Report) -> Result<Vec<Round>, String> {
    pin_to(first_allowed_cpu()?)?;
    let tenants = tenants()?;
    let stream = serve_stream(ctx.seed, tenants.len());
    let mut out = Vec::new();
    while out.is_empty() || ctx.start.elapsed() < until {
        out.push(round(ctx, &tenants, &stream, report)?);
    }
    Ok(out)
}

/// The timed run.
pub fn measure(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let rounds = rounds(ctx, ctx.seconds, report)?;
    let requests: Vec<f64> = rounds.iter().flat_map(|r| r.request_us.iter().copied()).collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = rounds.iter().filter_map(|r| r.rss_mb).collect();
    report.push("request_p50_ms", median(&requests) / 1e3, "ms", requests.len());
    report.push("setup_s", median(&setups), "s", setups.len());
    report.push("peak_rss_mb", median(&rss), "MiB", rss.len());
    Ok(())
}

/// One span of the in-process replay: a request, or a layer call it made.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// One replay's spans, held in memory; the last replay's are written
/// out when the run ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Opens a span named `name` under `parent`; returns its id.
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos();
    }

    fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// What one in-process replay round left behind.
struct Replay {
    spans: Spans,
    levels_built: u64,
    reuse_rate: f64,
    engine: RunStats,
}

/// Replays one round's line stream in-process through the calls the
/// serve loop makes: registry lookup and level admission, then the
/// session query. Spans go under one request span per line.
fn replay(
    ctx: &Ctx,
    tenants: &[Tenant],
    stream: &[Query],
    report: &mut Report,
) -> Result<Replay, String> {
    let mut spans = Spans { epoch: Instant::now(), spans: Vec::new() };
    let policy = SessionPolicy::Deterministic { seed: ctx.seed, threads: 1 };
    let setup: Vec<_> = tenants
        .iter()
        .map(|t| {
            let params = Params::for_session(SERVE_EPS, DELTA, t.nfa.num_states(), MAX_LEN);
            (SessionKey::new(&t.nfa, &params, &policy), params)
        })
        .collect();
    // The serve loop's registry capacity, quota-free admission and
    // sample stream.
    let mut registry = ServiceRegistry::new(8);
    let mut admission = AdmissionController::new(QuotaConfig::default());
    let mut ledgers = vec![0u64; tenants.len()];
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x05A3_F1E5);

    let warm = (0..tenants.len()).map(|t| Query::Estimate { tenant: t, n: WARM_LEN });
    for q in warm.chain(stream.iter().copied()) {
        let (Query::Estimate { tenant, n } | Query::Sample { tenant, n }) = q;
        let (t, (key, params)) = (&tenants[tenant], &setup[tenant]);
        let request = spans.begin("request", None);
        let lookup = spans.begin("lookup", Some(request));
        let (session, _) = registry
            .session_with_key_recycled(key.clone(), &t.nfa, params, &policy)
            .map_err(|e| e.to_string())?;
        let before = session.levels_built();
        let needed = n.saturating_sub(before) as u64;
        admission.admit_levels(ledgers[tenant], needed).map_err(|e| e.to_string())?;
        session
            .set_build_ops_budget(admission.per_query_ops_cap(session.run_stats().membership_ops));
        spans.end(lookup);
        match q {
            Query::Estimate { .. } => {
                let span =
                    spans.begin(if n <= before { "estimate_hit" } else { "extend" }, Some(request));
                let est = session.estimate(n).map_err(|e| e.to_string())?;
                spans.end(span);
                report.check(check_estimate(t.name, est.to_f64(), t.exact[n], SERVE_EPS));
            }
            Query::Sample { .. } => {
                let batch = spans.begin("sample", Some(request));
                for _ in 0..SAMPLE_K {
                    let span = spans.begin("sample_word", Some(batch));
                    let word = session.sample(n, &mut rng);
                    spans.end(span);
                    report.check(match word {
                        Ok(Some(w)) if w.len() == n && t.nfa.accepts(&w) => Ok(()),
                        other => Err(format!("{} sample {n}: {other:?}", t.name)),
                    });
                }
                spans.end(batch);
            }
        }
        ledgers[tenant] += (session.levels_built() - before) as u64;
        spans.end(request);
    }
    let totals = registry.session_totals();
    let mut engine = RunStats::default();
    for session in registry.sessions() {
        engine.merge(session.run_stats());
        engine.merge(session.query_run_stats());
    }
    Ok(Replay { spans, levels_built: totals.levels_built, reuse_rate: totals.reuse_rate(), engine })
}

/// The traced run: rounds through the binary for the first half of the
/// time (the client-side view), then in-process replays of the same
/// stream for the rest (the per-layer view).
pub fn trace(ctx: &Ctx, report: &mut Report) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let served = rounds(ctx, ctx.seconds / 2, report)?;
    let requests: Vec<f64> = served.iter().flat_map(|r| r.request_us.iter().copied()).collect();
    let stream_s: f64 = served.iter().map(|r| r.stream_wall.as_secs_f64()).sum();
    layers.request_p50_us = median(&requests);
    layers.request_p99_us = quantile(&requests, 0.99);
    let samples: Vec<f64> = served.iter().flat_map(|r| r.sample_us.iter().copied()).collect();
    layers.sample_p50_us = median(&samples);
    layers.serve_qps = requests.len() as f64 / stream_s;

    let tenants = tenants()?;
    let stream = serve_stream(ctx.seed, tenants.len());
    let mut replays = Vec::new();
    while replays.is_empty() || ctx.start.elapsed() < ctx.seconds {
        replays.push(replay(ctx, &tenants, &stream, report)?);
    }
    let last = replays.last().expect("at least one replay");
    last.spans.write(&ctx.work_dir.join("serve-spans.jsonl"))?;
    let us = |name| replays.iter().flat_map(|r| r.spans.us(name)).collect::<Vec<_>>();

    layers.counters_from(&last.engine);
    let p = &last.engine.phase;
    layers.phase_s = [p.plan, p.count, p.share, p.sample, p.merge].map(|d| d.as_secs_f64());
    layers.run_wall_s = last.engine.wall_total().as_secs_f64();
    layers.levels_built = last.levels_built as f64;
    layers.reuse_rate = last.reuse_rate;
    let extend_s = |r: &Replay| r.spans.us("extend").iter().sum::<f64>() / 1e6;
    layers.extend_s = median(&replays.iter().map(extend_s).collect::<Vec<_>>());
    layers.lookup_us = median(&us("lookup"));
    layers.estimate_hit_us = median(&us("estimate_hit"));
    layers.sample_us = median(&us("sample"));
    layers.generate_us = median(&us("sample_word"));
    layers.samples = replays.len();
    Ok(layers)
}
