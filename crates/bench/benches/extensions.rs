//! Criterion benches for the extension components: BDD compilation and
//! model counting (E13's timing counterpart), path-importance sampling
//! (E12), and the level-parallel runner across thread counts (E14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpras_baselines::path_importance_sampling;
use fpras_bdd::{compile_slice, model_count, sample_word};
use fpras_core::{run_parallel, Params};
use fpras_workloads::{ambiguous, families};
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;

fn bench_bdd(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd");
    group.sample_size(20);
    // Compile + count on a structured language at growing n.
    let nfa = families::contains_substring(&[1, 0, 1]);
    for n in [16usize, 32, 64] {
        group.bench_with_input(BenchmarkId::new("compile_count_101", n), &n, |b, &n| {
            b.iter(|| {
                let compiled = compile_slice(black_box(&nfa), n).unwrap();
                model_count(&compiled.bdd, compiled.root)
            });
        });
    }
    // Where the BDD shines: fixed-position language with huge DFA.
    let fixed = families::kth_symbol_from_end(16);
    group.bench_function("compile_count_kth16", |b| {
        b.iter(|| {
            let compiled = compile_slice(black_box(&fixed), 32).unwrap();
            model_count(&compiled.bdd, compiled.root)
        });
    });
    // Uniform word sampling from a compiled slice.
    let compiled = compile_slice(&nfa, 24).unwrap();
    group.bench_function("sample_word_101_n24", |b| {
        let mut rng = SmallRng::seed_from_u64(30);
        b.iter(|| sample_word(black_box(&compiled), &mut rng).unwrap());
    });
    group.finish();
}

fn bench_path_is(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_is");
    group.sample_size(20);
    let unambiguous = families::ones_mod_k(4);
    group.bench_function("unambiguous_1k_trials", |b| {
        let mut rng = SmallRng::seed_from_u64(31);
        b.iter(|| path_importance_sampling(black_box(&unambiguous), 16, 1000, &mut rng).unwrap());
    });
    let ambiguous = ambiguous::redundant_copies(8);
    group.bench_function("ambiguous_1k_trials", |b| {
        let mut rng = SmallRng::seed_from_u64(32);
        b.iter(|| path_importance_sampling(black_box(&ambiguous), 16, 1000, &mut rng).unwrap());
    });
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_runner");
    group.sample_size(10);
    let nfa = families::halves_differ(7);
    let n = 14;
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            b.iter(|| run_parallel(black_box(&nfa), n, &params, 33, t).unwrap().estimate());
        });
    }
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_reduce");
    group.sample_size(20);
    for copies in [4usize, 16] {
        let nfa = ambiguous::redundant_copies(copies);
        group.bench_with_input(BenchmarkId::new("redundant", copies), &copies, |b, _| {
            b.iter(|| fpras_automata::simulation::reduce(black_box(&nfa)).num_states());
        });
    }
    group.finish();
}

fn bench_spanner(c: &mut Criterion) {
    use fpras_automata::{Alphabet, Word};
    use fpras_spanner::{compile_spanner, count_answers_exact, VSetBuilder};
    let mut group = c.benchmark_group("spanner");
    group.sample_size(20);
    // .* ⊢x 1+ x⊣ .* — single-variable run extractor.
    let vset = {
        let mut b = VSetBuilder::new(Alphabet::binary(), 1);
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.set_initial(s[0]);
        b.add_accepting(s[3]);
        for sym in [0, 1] {
            b.read(s[0], sym, s[0]);
            b.read(s[3], sym, s[3]);
        }
        b.open(s[0], 0, s[1]);
        b.read(s[1], 1, s[2]);
        b.read(s[2], 1, s[2]);
        b.close(s[2], 0, s[3]);
        b.build().unwrap()
    };
    for len in [16usize, 32] {
        let doc = Word::from_symbols((0..len).map(|i| u8::from(i % 3 != 0)).collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::new("compile", len), &len, |b, _| {
            b.iter(|| compile_spanner(black_box(&vset), black_box(&doc)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("count_exact", len), &len, |b, _| {
            b.iter(|| count_answers_exact(black_box(&vset), black_box(&doc)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bdd,
    bench_path_is,
    bench_parallel,
    bench_simulation,
    bench_spanner
);
criterion_main!(benches);
