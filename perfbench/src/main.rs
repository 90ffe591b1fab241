//! perfbench — the repository's benchmark. README.md in this directory
//! defines the workloads and metrics.
//!
//! ```text
//! perfbench --nfa-count BIN --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. `run.sh` builds everything and
//! supplies the first two flags.

mod count;
mod host;
mod layers;
mod proc;
mod serve;
mod stats;
mod workloads;

use stats::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order README.md lists them.
const WORKLOADS: [&str; 3] = ["count-regex28", "count-dense48", "serve-mix"];

/// What every part of a run needs.
pub struct Ctx {
    pub nfa_count: PathBuf,
    pub work_dir: PathBuf,
    pub seed: u64,
    /// Measuring stops starting new work once this much time has passed
    /// since `start`.
    pub seconds: Duration,
    pub start: Instant,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --nfa-count BIN --work-dir DIR --workload NAME --seed N \
         --seconds S --trace 0|1\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

/// The host fingerprint printed beside every result, so numbers from
/// different machines are never compared.
fn host_line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Ceiling at the parent directory: outside a checkout with its own
    // .git this reports "unknown" rather than an enclosing repository.
    let cwd = std::env::current_dir().unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = cpu.replace('"', "'");
    format!("host: {{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"seed\": {seed}, \"commit\": \"{commit}\"}}")
}

fn run(ctx: &Ctx, workload: &str, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    if workload == "serve-mix" {
        if trace {
            serve::trace(ctx, &mut report)?.report(&mut report);
        } else {
            serve::measure(ctx, &mut report)?;
        }
        return Ok(report);
    }
    let spec = workloads::count_spec(workload, &ctx.work_dir)?
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    if trace {
        count::trace(ctx, &spec, &mut report)?.report(&mut report);
    } else {
        count::measure(ctx, &spec, &mut report)?;
    }
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--spawn") {
        proc::spawn_main(&argv[1..]);
    }
    let (mut nfa_count, mut work_dir, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--nfa-count" => nfa_count = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(nfa_count), Some(work_dir), Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (nfa_count, work_dir, workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    // Before any workload pins itself to one CPU.
    let fingerprint = host_line(seed);
    let ctx = Ctx {
        nfa_count,
        work_dir,
        seed,
        seconds: Duration::from_secs(seconds),
        start: Instant::now(),
    };
    let report = match run(&ctx, &workload, trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            std::process::exit(1);
        }
    };
    println!("{fingerprint}");
    if let Some(host) = &report.host {
        println!(
            "host speed: probe median {:.6} s over {} probes; timings scaled by {:.6}",
            host.median_s(),
            host.count(),
            host.factor()
        );
    }
    println!("workload {workload}: {} failed of {} attempted", report.failed, report.attempted);
    for why in &report.failures {
        println!("  failed: {why}");
    }
    for m in &report.metrics {
        println!("  {:<26} {:>16.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!("{}", report.to_json());
}
