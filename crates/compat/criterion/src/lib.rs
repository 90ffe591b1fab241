//! Vendored, dependency-free subset of the `criterion` crate API.
//!
//! The build environment has no network access to crates.io, so this
//! workspace ships the slice of `criterion` its benches use: benchmark
//! groups, `bench_function` / `bench_with_input`, [`BenchmarkId`], and
//! the `criterion_group!` / `criterion_main!` macros.
//!
//! As upstream, the first command-line argument that is not a flag is
//! a filter: `cargo bench --bench kernels -- reach` runs only the
//! benchmarks whose `group/id` name contains `reach`.
//!
//! Measurement is intentionally simple — per benchmark it runs a short
//! warm-up, then `sample_size` timed samples, and prints min / mean /
//! max wall time per iteration. There are no statistics, plots, or
//! baselines; the experiment harness (`fpras-bench --bin experiments`)
//! is the source of recorded numbers.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { name: format!("{}/{}", function_name.into(), parameter) }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { name: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine` over the configured number of samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // One untimed warm-up iteration.
        let _ = routine();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let out = routine();
            self.samples.push(start.elapsed());
            drop(out);
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        if self.criterion.selects(&full) {
            run_one(&full, self.sample_size, f);
        }
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: impl Display, input: &I, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        if self.criterion.selects(&full) {
            run_one(&full, self.sample_size, |b| f(b, input));
        }
        self
    }

    /// Ends the group (formatting separator only).
    pub fn finish(&mut self) {
        eprintln!();
    }
}

fn run_one<F: FnOnce(&mut Bencher)>(name: &str, sample_size: usize, f: F) {
    let mut b = Bencher { samples: Vec::new(), sample_size };
    f(&mut b);
    if b.samples.is_empty() {
        eprintln!("{name}: no samples (closure never called iter)");
        return;
    }
    let min = b.samples.iter().min().expect("non-empty");
    let max = b.samples.iter().max().expect("non-empty");
    let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    eprintln!(
        "{name}: min {min:.2?} / mean {mean:.2?} / max {max:.2?} over {} samples",
        b.samples.len()
    );
}

/// Top-level benchmark context.
#[derive(Default)]
pub struct Criterion {
    default_sample_size: usize,
    /// Only benchmarks whose full name contains this run.
    filter: Option<String>,
}

/// The benchmark filter on a bench binary's command line (program name
/// excluded): its first argument that is not a flag. Cargo passes
/// `--bench` itself, so flags are skipped.
fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

impl Criterion {
    /// Reads the benchmark filter from the process's command line.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from_args(std::env::args().skip(1));
        self
    }

    /// True iff the benchmark named `name` passes the filter.
    fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|filter| name.contains(filter))
    }

    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = if self.default_sample_size == 0 { 10 } else { self.default_sample_size };
        BenchmarkGroup { criterion: self, name: name.into(), sample_size }
    }

    /// Sets the default sample size for subsequent groups.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.default_sample_size = n.max(1);
        self
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let sample_size = if self.default_sample_size == 0 { 10 } else { self.default_sample_size };
        let name = id.to_string();
        if self.selects(&name) {
            run_one(&name, sample_size, f);
        }
        self
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_closures() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let mut calls = 0;
        group.bench_function("f", |b| b.iter(|| calls += 1));
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
        group.bench_with_input(BenchmarkId::new("h", 7), &7, |b, &x| b.iter(|| assert_eq!(x, 7)));
        group.finish();
    }

    #[test]
    fn filter_is_the_first_non_flag_argument() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_from_args(args(&["--bench", "reach"])), Some("reach".into()));
        assert_eq!(filter_from_args(args(&["--bench"])), None);
        assert_eq!(filter_from_args(args(&[])), None);
        let c = Criterion { filter: Some("reach".into()), ..Criterion::default() };
        assert!(c.selects("reach/m=48"));
        assert!(c.selects("sampler/reach_trail"));
        assert!(!c.selects("sampler_walk/n=28"));
        assert!(Criterion::default().selects("sampler_walk/n=28"));
    }

    #[test]
    fn filtered_out_benchmarks_never_run() {
        let mut c = Criterion { filter: Some("keep".into()), ..Criterion::default() };
        let mut group = c.benchmark_group("g");
        let (mut kept, mut skipped) = (0, 0);
        group.bench_function("keep", |b| b.iter(|| kept += 1));
        group.bench_function("skip", |b| b.iter(|| skipped += 1));
        group.finish();
        assert!(kept > 0);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter(0.5).to_string(), "0.5");
    }
}
