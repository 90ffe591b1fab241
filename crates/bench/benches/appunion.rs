//! Criterion benches for `AppUnion` (E10's timing counterpart) and the
//! almost-uniform generator (E7's timing counterpart).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpras_automata::StateSet;
use fpras_core::sample_set::SampleSet;
use fpras_core::{
    app_union, FprasRun, Params, RunStats, UniformGenerator, UnionScratch, UnionSetInput,
};
use fpras_numeric::ExtFloat;
use fpras_workloads::families;
use rand::{rngs::SmallRng, RngExt, SeedableRng};

fn synthetic_sets(k: usize, samples: usize, seed: u64) -> Vec<(SampleSet, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k)
        .map(|i| {
            let mut s = SampleSet::empty();
            for _ in 0..samples {
                let w = rng.random_range(0..4096u64);
                s.push(&StateSet::from_iter(k, [i, (i + w as usize) % k]));
            }
            (s, 4096)
        })
        .collect()
}

fn bench_appunion(c: &mut Criterion) {
    let mut group = c.benchmark_group("appunion");
    for eps in [0.3f64, 0.1] {
        let sets = synthetic_sets(8, 4000, 10);
        let params = Params::practical(0.2, 0.05, 8, 8);
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            let mut rng = SmallRng::seed_from_u64(11);
            let mut scratch = UnionScratch::new();
            b.iter(|| {
                let inputs: Vec<UnionSetInput<'_>> = sets
                    .iter()
                    .enumerate()
                    .map(|(i, (s, sz))| UnionSetInput {
                        samples: s,
                        size_est: ExtFloat::from_u64(*sz),
                        state: i as u32,
                    })
                    .collect();
                let mut stats = RunStats::default();
                app_union(&params, eps, 0.05, 0.0, &inputs, 8, &mut rng, &mut scratch, &mut stats)
                    .value
            });
        });
    }
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("generator");
    group.sample_size(20);
    let nfa = families::contains_substring(&[1, 1]);
    for n in [8usize, 16] {
        let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
        let mut rng = SmallRng::seed_from_u64(12);
        let run = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
        let mut generator = UniformGenerator::new(run);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| generator.generate(&mut rng));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_appunion, bench_generator);
criterion_main!(benches);
