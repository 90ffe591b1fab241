//! Regenerates the EXPERIMENTS.md tables.
//!
//! Usage:
//! ```text
//! experiments [--quick] [--json [PATH]] [--check FILE] [--scaling-smoke] [e1 e2 … | all]
//! ```
//! With no selector, runs the full suite. `--quick` shrinks trial counts
//! for smoke testing; EXPERIMENTS.md numbers come from the default mode.
//! `--json` additionally writes the machine-readable counter matrix
//! (`BENCH_counter.json` unless a path follows the flag) and skips the
//! Markdown suite when no experiment selector is given alongside it.
//! `--check FILE` regenerates the counter matrix and compares its exact,
//! thread-invariant columns (`fpras_bench::json::CHECKED_COLUMNS`)
//! against the committed `FILE`, exiting nonzero on any drift; wall
//! columns are not compared.
//! `--scaling-smoke` runs only the work-stealing scaling guard (D10):
//! one wide fixture at `threads = 1` vs `threads = 4`, exiting nonzero
//! when multi-threading has regressed to flat scaling (skipped on
//! single-CPU hosts, where the comparison is physically vacuous).

use fpras_bench::registry;
use std::time::Instant;

/// True for arguments that select experiments (`e<digits>` or `all`),
/// as opposed to a `--json` path operand like `estimates.json`.
fn is_selector(arg: &str) -> bool {
    arg == "all"
        || (arg.len() > 1 && arg.starts_with('e') && arg[1..].chars().all(|c| c.is_ascii_digit()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut json: Option<Option<String>> = None;
    let mut scaling = false;
    let mut check: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {}
            "--scaling-smoke" => scaling = true,
            "--check" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--check needs a FILE");
                    std::process::exit(2);
                };
                check = Some(path.clone());
                i += 1;
            }
            "--json" => {
                // Optional path operand: the next arg, unless it is a
                // flag or an experiment selector.
                let path =
                    args.get(i + 1).filter(|a| !a.starts_with("--") && !is_selector(a)).cloned();
                if path.is_some() {
                    i += 1;
                }
                json = Some(path);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }

    if scaling {
        match fpras_bench::scaling_smoke(quick, 42) {
            Ok(msg) => {
                println!("scaling smoke: {msg}");
                return;
            }
            Err(msg) => {
                eprintln!("scaling smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &check {
        match fpras_bench::check_counter_json(path, quick, 42) {
            Ok(msg) => {
                println!("counter check: {msg}");
                return;
            }
            Err(drifts) => {
                eprintln!("counter check FAILED against {path}:\n{drifts}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &json {
        match fpras_bench::write_counter_json(path.as_deref(), quick, 42) {
            Ok(resolved) => eprintln!("wrote counter matrix to {resolved}"),
            Err(e) => {
                eprintln!("cannot write counter JSON: {e}");
                std::process::exit(1);
            }
        }
        if selected.is_empty() {
            return;
        }
    }

    let run_all = selected.is_empty() || selected.iter().any(|s| s == "all");

    let suite = registry();
    let chosen: Vec<_> =
        suite.iter().filter(|e| run_all || selected.iter().any(|s| s == e.id)).collect();
    if chosen.is_empty() {
        eprintln!(
            "unknown experiment selector; available: {}",
            suite.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }

    println!("# Experiment run ({} mode)\n", if quick { "quick" } else { "full" });
    let total = Instant::now();
    for e in chosen {
        let start = Instant::now();
        let output = (e.run)(quick);
        println!("{output}");
        println!("\n_{} finished in {:.1?}_\n", e.id, start.elapsed());
    }
    println!("\n_Total: {:.1?}_", total.elapsed());
}
