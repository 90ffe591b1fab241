//! Criterion benches for the interned-frontier hot-path kernels (§2.5):
//! intern lookup, the `StepMasks` step kernels and a word's forward
//! simulation (`reach`), the `AppUnion` prefix-mask build shape, the
//! full trial loop with a reused [`UnionScratch`], and warm sampler
//! walks (compiled-record replays, categorical draws). These are the
//! pieces the count/sample passes execute millions of times per
//! run; `cargo bench --bench kernels` tracks their per-call cost so a
//! regression to per-key allocation shows up as a step change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpras_automata::regex::compile_regex;
use fpras_automata::{Alphabet, StateSet, StepMasks, Word};
use fpras_core::sample_set::SampleSet;
use fpras_core::{
    app_union, FprasRun, FrontierInterner, Params, QuerySession, RunStats, SessionPolicy,
    UniformGenerator, UnionScratch, UnionSetInput,
};
use fpras_numeric::ExtFloat;
use fpras_workloads::{random_nfa, RandomNfaConfig};
use rand::{rngs::SmallRng, RngExt, SeedableRng};

/// Distinct pseudo-random frontiers over `universe` states.
fn frontiers(universe: usize, count: usize, seed: u64) -> Vec<StateSet> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            StateSet::from_iter(universe, (0..universe).filter(|_| rng.random_range(0..4u8) == 0))
        })
        .collect()
}

/// Intern-hit lookup: the per-key cost every memo probe and plan build
/// pays after a frontier's first appearance.
fn bench_intern(c: &mut Criterion) {
    let mut group = c.benchmark_group("intern_lookup");
    for universe in [48usize, 192] {
        let sets = frontiers(universe, 64, 21);
        let interner = FrontierInterner::new(universe);
        for s in &sets {
            interner.intern(3, s); // warm: every bench probe is a hit
        }
        group.bench_with_input(BenchmarkId::from_parameter(universe), &universe, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let key = interner.intern(3, &sets[i % sets.len()]);
                i += 1;
                key.rng_tag()
            });
        });
    }
    group.finish();
}

/// Forward/backward step on the flat predecessor-mask arena — the
/// inner kernel of `LevelPlan::build` and the sampler's branch loop.
fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_into");
    for states in [48usize, 192] {
        let nfa = random_nfa(
            &RandomNfaConfig { states, alphabet: 2, density: 2.5, accepting: 2 },
            &mut SmallRng::seed_from_u64(7),
        );
        let masks = StepMasks::new(&nfa);
        let from = StateSet::from_iter(states, (0..states).step_by(3));
        let mut out = StateSet::empty(states);
        group.bench_with_input(BenchmarkId::new("forward", states), &states, |b, _| {
            b.iter(|| {
                masks.step_into(&from, 1, &mut out);
                out.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("backward", states), &states, |b, _| {
            b.iter(|| {
                masks.step_back_into(&from, 1, &mut out);
                out.len()
            });
        });
    }
    group.finish();
}

/// One accepted word's forward simulation — the reach set the sample
/// pass stores with every sampled word (§4.3) — in the shapes of the two
/// count workloads: the 25-state regex at `n = 28` and a dense 48-state
/// NFA at `n = 10`. Both fit one word, so this is the byte-table path:
/// `⌈m/8⌉` lookups per symbol. `reach` simulates a built [`Word`];
/// `reach_trail` is what the sample pass runs, the same simulation
/// straight from the sampler's reversed symbol trail into a reused set.
fn bench_reach(c: &mut Criterion) {
    let mut group = c.benchmark_group("reach");
    let regex = compile_regex(REGEX25, &Alphabet::binary()).expect("regex compiles");
    let dense = random_nfa(
        &RandomNfaConfig { states: 48, alphabet: 2, density: 2.5, accepting: 2 },
        &mut SmallRng::seed_from_u64(7),
    );
    for (nfa, n) in [(regex, 28usize), (dense, 10)] {
        let masks = StepMasks::new(&nfa);
        let mut rng = SmallRng::seed_from_u64(13);
        let words: Vec<Word> =
            (0..64).map(|_| Word::from_index(rng.random_range(0..1u64 << n), n, 2)).collect();
        let label = format!("m={}/n={n}", nfa.num_states());
        group.bench_with_input(BenchmarkId::from_parameter(label), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let reach = masks.reach(&words[i % words.len()]);
                i += 1;
                reach.len()
            });
        });
        let trails: Vec<Vec<u8>> =
            words.iter().map(|w| w.symbols().iter().rev().copied().collect()).collect();
        let m = nfa.num_states();
        let (mut out, mut spare) = (StateSet::empty(m), StateSet::empty(m));
        let label = format!("trail/m={m}/n={n}");
        group.bench_with_input(BenchmarkId::from_parameter(label), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                masks.reach_trail_into(&trails[i % trails.len()], &mut out, &mut spare);
                i += 1;
                out.len()
            });
        });
    }
    group.finish();
}

/// The `AppUnion` prefix-mask build shape: one flat `k × stride` word
/// buffer where block `i` is the union of sets `0..i` — block `i`
/// copies block `i − 1` and sets one bit (no per-set allocation).
fn bench_prefix_masks(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_mask_build");
    for (k, universe) in [(8usize, 64usize), (32, 256)] {
        let stride = universe.div_ceil(64);
        let states: Vec<usize> = (0..k).map(|i| (i * 37) % universe).collect();
        let mut prefix: Vec<u64> = Vec::new();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k={k}/m={universe}")),
            &k,
            |b, _| {
                b.iter(|| {
                    prefix.clear();
                    prefix.resize(k * stride, 0);
                    for i in 1..k {
                        let (done, rest) = prefix.split_at_mut(i * stride);
                        rest[..stride].copy_from_slice(&done[(i - 1) * stride..]);
                        let p = states[i - 1];
                        rest[p / 64] |= 1u64 << (p % 64);
                    }
                    prefix[k * stride - 1]
                });
            },
        );
    }
    group.finish();
}

/// One full `AppUnion` call with a reused scratch — the cost of every
/// count-pass union and sampler memo miss — in the shape of the dense
/// 48-state workload: `k` frontier states out of 48 and 63 samples per
/// list. At ε = 0.15 the calls run 2.3 k, 7.8 k and 18.7 k trials (the
/// workload averages ~12 k per call over 16 sets), drawn as `k` per-set
/// counts, so the time is mostly the tally's bit tests.
fn bench_appunion_trials(c: &mut Criterion) {
    const UNIVERSE: usize = 48;
    const SAMPLES: usize = 63;
    let mut group = c.benchmark_group("appunion_trial_loop");
    group.sample_size(50);
    let params = Params::practical(0.2, 0.05, UNIVERSE, 8);
    for k in [4usize, 16, 40] {
        let mut rng = SmallRng::seed_from_u64(31 + k as u64);
        let lists: Vec<SampleSet> = (0..k)
            .map(|_| {
                let mut s = SampleSet::empty();
                for _ in 0..SAMPLES {
                    // The word index draw keeps the bench's stream as it was.
                    let _ = rng.random_range(0..1024u64);
                    let reach = (0..UNIVERSE).filter(|_| rng.random_range(0..8u8) == 0);
                    s.push(&StateSet::from_iter(UNIVERSE, reach));
                }
                s
            })
            .collect();
        let inputs: Vec<UnionSetInput<'_>> = lists
            .iter()
            .enumerate()
            .map(|(i, s)| UnionSetInput {
                samples: s,
                size_est: ExtFloat::from_u64(rng.random_range(50..400u64)),
                state: (i * UNIVERSE / k) as u32,
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, _| {
            let mut rng = SmallRng::seed_from_u64(11);
            let mut scratch = UnionScratch::new();
            b.iter(|| {
                let mut stats = RunStats::default();
                app_union(
                    &params,
                    0.15,
                    0.05,
                    0.0,
                    &inputs,
                    UNIVERSE,
                    &mut rng,
                    &mut scratch,
                    &mut stats,
                )
                .value
            });
        });
    }
    group.finish();
}

/// The 25-state regex of ROADMAP.md's count workload (75 distinct
/// frontiers at `n = 28`).
const REGEX25: &str = "(0|1)*1(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)((00)*|(111)*)";

/// Warm sampler walks on the 25-state regex at `n = 28`:
///
/// * `generator` — one `UniformGenerator::generate` call (up to its
///   retries) after a warm-up: nodes built, the memo filled; the steps
///   whose branches the run's last sample pass left in the memo's
///   overlay stay uncompiled.
/// * `base_hits` — one `QuerySession::sample` call at `n = 28` on a
///   session built to `n = 30`, so every entry the walk reads was
///   committed by a later level: after the warm-up every step is a
///   compiled-record replay (checked below), the per-step cost of the
///   sample pass.
fn bench_sampler_walk(c: &mut Criterion) {
    let nfa = compile_regex(REGEX25, &Alphabet::binary()).expect("regex compiles");
    let mut group = c.benchmark_group("sampler_walk");
    let params = Params::practical(0.3, 0.05, nfa.num_states(), 28);
    let run = FprasRun::run(&nfa, 28, &params, &mut SmallRng::seed_from_u64(1)).expect("run");
    let mut generator = UniformGenerator::new(run);
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..64 {
        generator.generate(&mut rng); // warm: walk nodes built, memo filled
    }
    group.bench_function("generator", |b| b.iter(|| generator.generate(&mut rng)));

    let params = Params::for_session(0.3, 0.05, nfa.num_states(), 30);
    let policy = SessionPolicy::Deterministic { seed: 1, threads: 1 };
    let mut session = QuerySession::new(&nfa, params, policy).expect("session");
    session.estimate(30).expect("build");
    for _ in 0..64 {
        session.sample(28, &mut rng).expect("sample"); // warm: records compiled
    }
    let before = session.query_run_stats().clone();
    for _ in 0..64 {
        session.sample(28, &mut rng).expect("sample");
    }
    let after = session.query_run_stats();
    let steps = after.walk_steps - before.walk_steps;
    let hits = after.walk_table_hits - before.walk_table_hits;
    assert!(hits * 100 >= steps * 99, "only {hits} of {steps} warm steps were table hits");
    group.bench_function("base_hits", |b| b.iter(|| session.sample(28, &mut rng)));
    group.finish();
}

criterion_group!(
    benches,
    bench_intern,
    bench_step,
    bench_reach,
    bench_prefix_masks,
    bench_appunion_trials,
    bench_sampler_walk
);
criterion_main!(benches);
