//! The one-shot count workloads: `nfa-count SOURCE -n N` from spawn to
//! exit, with the estimate and every sampled word checked.

use crate::host::HostSpeed;
use crate::layers::Layers;
use crate::proc::Proc;
use crate::stats::{median, Report};
use crate::workloads::{check_estimate, check_word, CountSpec, DELTA};
use crate::Ctx;
use fpras_core::{run_parallel, Params, UniformGenerator};
use rand::{rngs::SmallRng, SeedableRng};
use std::time::{Duration, Instant};

/// `--dot` spawns per count run. Each one times the set-up a count pays
/// before counting (process start, automaton load and compile), so
/// several per run give `setup_s` a steady median.
const SETUP_SPAWNS: usize = 4;

/// `generate` calls timed on the finished in-process run.
const GENERATE_CALLS: usize = 2000;

/// Workers of the in-process run. Its output and counters do not depend
/// on the thread count, but at 2 the work-stealing pool runs parallel
/// passes, so the `pool` layer is measured here: a timed `--threads 2`
/// workload spread 6–17 % over ten runs on a 2-vCPU host, too much to
/// gate.
const POOL_THREADS: usize = 2;

/// What one count run printed and cost.
struct CountRun {
    wall: Duration,
    estimate: f64,
    words: Vec<String>,
    rss_mb: Option<f64>,
    /// The `--stats` membership-op count, when asked for.
    membership_ops: Option<u64>,
}

/// Runs `nfa-count` once with `extra` flags.
fn spawn_count(ctx: &Ctx, spec: &CountSpec, extra: &[&str]) -> Result<CountRun, String> {
    let mut args = spec.args(ctx.seed);
    args.extend(extra.iter().map(|s| s.to_string()));
    let start = Instant::now();
    let mut p = Proc::spawn(&ctx.nfa_count, &args, false, true)?;
    let (mut estimate, mut membership_ops, mut in_samples) = (None, None, false);
    let mut words = Vec::new();
    while let Some((line, _)) = p.next_line()? {
        if let Some((_, v)) = line.strip_prefix("estimate |L(A_").and_then(|l| l.split_once("≈ "))
        {
            estimate = v.trim().parse::<f64>().ok();
        } else if let Some(v) = line.strip_prefix("  membership ops") {
            membership_ops = v.trim().parse().ok();
        } else if line == "samples:" {
            in_samples = true;
        } else if in_samples {
            words.push(line.trim().to_string());
        }
    }
    let (code, rss_mb) = p.finish()?;
    let wall = start.elapsed();
    if code != Some(0) {
        return Err(format!("nfa-count exited with {code:?}"));
    }
    Ok(CountRun {
        wall,
        estimate: estimate.ok_or("no estimate line")?,
        words,
        rss_mb,
        membership_ops,
    })
}

/// [`spawn_count`], with the estimate and every sampled word checked.
/// `None` when the run failed.
fn count_once(
    ctx: &Ctx,
    spec: &CountSpec,
    extra: &[&str],
    report: &mut Report,
) -> Option<CountRun> {
    let run = match spawn_count(ctx, spec, extra) {
        Ok(run) => run,
        Err(e) => {
            report.check(Err(e));
            return None;
        }
    };
    report.check(check_estimate("count", run.estimate, spec.exact, spec.eps));
    for w in &run.words {
        report.check(check_word(&spec.nfa, spec.n, w));
    }
    if run.words.len() != spec.sample_k {
        report.check(Err(format!("{} of {} sampled words", run.words.len(), spec.sample_k)));
        return None;
    }
    Some(run)
}

/// Times `nfa-count SOURCE -n N --dot`: start, load and compile, exit.
fn setup_once(ctx: &Ctx, spec: &CountSpec, report: &mut Report) -> Option<Duration> {
    let mut args = spec.source.args();
    args.extend(["-n".to_string(), spec.n.to_string(), "--dot".to_string()]);
    let start = Instant::now();
    let outcome = Proc::spawn(&ctx.nfa_count, &args, false, false).and_then(Proc::finish).and_then(
        |(code, _)| match code {
            Some(0) => Ok(()),
            _ => Err(format!("nfa-count --dot exited with {code:?}")),
        },
    );
    let wall = start.elapsed();
    let ok = outcome.is_ok();
    report.check(outcome);
    ok.then_some(wall)
}

/// The timed run: count runs back to back until the time is up.
pub fn measure(ctx: &Ctx, spec: &CountSpec, report: &mut Report) -> Result<(), String> {
    let (mut walls, mut rss, mut setups) = (vec![], vec![], vec![]);
    let mut host = HostSpeed::default();
    while walls.is_empty() || ctx.start.elapsed() < ctx.seconds {
        // Two probes per run: one probe's time varies by a quarter from
        // run to run, their median over a whole run much less.
        host.probe();
        host.probe();
        setups.extend((0..SETUP_SPAWNS).filter_map(|_| setup_once(ctx, spec, report)));
        let Some(run) = count_once(ctx, spec, &[], report) else { break };
        walls.push(run.wall.as_secs_f64() * 1e3);
        report.check(run.rss_mb.map(|mb| rss.push(mb)).ok_or("peak RSS not measurable".into()));
    }
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let f = host.factor();
    report.push("request_p50_ms", median(&walls) * f, "ms", walls.len());
    report.push("setup_s", median(&setups) * f, "s", setups.len());
    report.push("peak_rss_mb", median(&rss), "MiB", rss.len());
    report.host = Some(host);
    Ok(())
}

/// Pulls `"key": value` out of one flat trace JSON object.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Phase walls and run wall (s) from one `--trace-out` file.
fn trace_walls(path: &std::path::Path) -> Result<([f64; 5], f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mut phases, mut run_wall) = ([0.0; 5], 0.0);
    for line in text.lines() {
        let us = |k| json_field(line, k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 1e6;
        match json_field(line, "ev") {
            Some("pass") => {
                let phase = json_field(line, "phase").unwrap_or("");
                let at =
                    ["plan", "count", "share", "sample", "merge"].iter().position(|p| *p == phase);
                phases[at.ok_or(format!("unknown phase {phase:?}"))?] += us("wall_us");
            }
            Some("run_end") => run_wall += us("wall_us"),
            _ => {}
        }
    }
    Ok((phases, run_wall))
}

/// The traced run: the workload once in-process for the counters and
/// the generator timing, then `--stats --trace-out` runs of the binary
/// for the phase walls until the time is up.
pub fn trace(ctx: &Ctx, spec: &CountSpec, report: &mut Report) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let params = Params::practical(spec.eps, DELTA, spec.nfa.num_states(), spec.n);
    let run = run_parallel(&spec.nfa, spec.n, &params, ctx.seed, POOL_THREADS)
        .map_err(|e| format!("in-process run: {e}"))?;
    layers.counters_from(run.stats());
    layers.pool_sample_s = run.stats().phase.sample.as_secs_f64();
    let ops = run.stats().membership_ops;

    let mut generator = UniformGenerator::new(run);
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut gen_us = Vec::with_capacity(GENERATE_CALLS);
    for _ in 0..GENERATE_CALLS {
        let start = Instant::now();
        let word = generator.generate(&mut rng);
        gen_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.check(match word {
            Some(w) if w.len() == spec.n && spec.nfa.accepts(&w) => Ok(()),
            other => Err(format!("generate returned {other:?}")),
        });
    }
    layers.generate_us = median(&gen_us);

    let trace_path = ctx.work_dir.join("count-trace.jsonl");
    let trace_arg = trace_path.to_str().ok_or("work dir is not UTF-8")?;
    let (mut phase_runs, mut walls) = (vec![], vec![]);
    while walls.is_empty() || ctx.start.elapsed() < ctx.seconds {
        let Some(run) = count_once(ctx, spec, &["--stats", "--trace-out", trace_arg], report)
        else {
            break;
        };
        // The binary and the library must do the same work for a seed.
        report.check(match run.membership_ops {
            Some(cli) if cli == ops => Ok(()),
            cli => Err(format!("nfa-count made {cli:?} membership ops, library {ops}")),
        });
        let (phases, wall) = trace_walls(&trace_path)?;
        phase_runs.push(phases);
        walls.push(wall);
    }
    for (i, slot) in layers.phase_s.iter_mut().enumerate() {
        *slot = median(&phase_runs.iter().map(|p| p[i]).collect::<Vec<_>>());
    }
    layers.run_wall_s = median(&walls);
    layers.samples = walls.len();
    Ok(layers)
}
