//! Benchmark and experiment harness.
//!
//! Reproduces every quantitative claim of *"A faster FPRAS for #NFA"* as
//! a measured experiment (the paper is a theory paper — its "tables" are
//! the complexity claims of §1 and Theorems 1–3; DESIGN.md §4 maps each
//! claim to an experiment ID).
//!
//! * `cargo run --release -p fpras-bench --bin experiments` regenerates
//!   the EXPERIMENTS.md tables (`--quick` for a fast smoke pass,
//!   `e<N>` to run a single experiment);
//! * `cargo bench` runs the Criterion micro/meso benchmarks.

pub mod experiments;
pub mod json;
pub mod load;
pub mod table;

pub use experiments::{registry, Experiment};
pub use json::{
    check_counter_json, scaling_smoke, write_counter_json, CounterMeasurement, DEFAULT_JSON_PATH,
};
pub use load::load_harness_rows;
