//! The workloads: which automata, lengths and request streams each one
//! runs, and the exact answers outputs are checked against. README.md
//! says why each workload exists.

use fpras_automata::{parse, regex, Alphabet, Nfa};
use fpras_workloads::random::{random_nfa, RandomNfaConfig};
use fpras_workloads::{query_trace, QueryTraceConfig};
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::path::Path;

/// The ROADMAP's 25-state re-anchor instance.
pub const REGEX25: &str = "(0|1)*1(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)((00)*|(111)*)";

/// `random_nfa` generator seed of the dense 48-state instance. It is
/// fixed: across generator seeds 1–6 membership ops ranged 106–146 M,
/// a spread that would swamp any change under test. `--seed` varies
/// the run's RNG seed instead.
const DENSE48_GENERATOR_SEED: u64 = 1;

/// The `δ` every run uses (`nfa-count`'s default).
pub const DELTA: f64 = 0.05;

/// Where `nfa-count` reads its automaton from.
pub enum Source {
    Regex(&'static str),
    File(String),
}

impl Source {
    pub fn args(&self) -> Vec<String> {
        match self {
            Source::Regex(p) => vec!["--regex".into(), p.to_string()],
            Source::File(f) => vec!["--file".into(), f.clone()],
        }
    }
}

/// A one-shot count workload: `nfa-count SOURCE -n N --eps E --threads 1`.
pub struct CountSpec {
    pub source: Source,
    /// The automaton exactly as `nfa-count` loads it.
    pub nfa: Nfa,
    pub n: usize,
    /// `|L(A_n)|` by the exact DP.
    pub exact: f64,
    pub eps: f64,
    /// Words each run samples with `--sample`.
    pub sample_k: usize,
}

impl CountSpec {
    /// Arguments of one count run with run seed `seed`.
    pub fn args(&self, seed: u64) -> Vec<String> {
        let mut a = self.source.args();
        for (flag, v) in [
            ("-n", self.n.to_string()),
            ("--eps", self.eps.to_string()),
            ("--threads", "1".to_string()),
            ("--seed", seed.to_string()),
            ("--sample", self.sample_k.to_string()),
        ] {
            a.push(flag.into());
            a.push(v);
        }
        a
    }
}

fn exact_count(nfa: &Nfa, n: usize) -> Result<f64, String> {
    fpras_automata::count_exact(nfa, n).map(|c| c.to_f64()).map_err(|e| format!("exact DP: {e}"))
}

pub fn count_spec(workload: &str, work_dir: &Path) -> Result<Option<CountSpec>, String> {
    Ok(Some(match workload {
        "count-regex28" => {
            let nfa =
                regex::compile_regex(REGEX25, &Alphabet::binary()).map_err(|e| e.to_string())?;
            let exact = exact_count(&nfa, 28)?;
            let source = Source::Regex(REGEX25);
            CountSpec { source, nfa, n: 28, exact, eps: 0.3, sample_k: 100 }
        }
        "count-dense48" => {
            let config = RandomNfaConfig { states: 48, alphabet: 2, density: 2.5, accepting: 1 };
            let generated =
                random_nfa(&config, &mut SmallRng::seed_from_u64(DENSE48_GENERATOR_SEED));
            let text = parse::to_text(&generated);
            let path = work_dir.join("dense48.nfa");
            std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            let nfa = parse::from_text(&text).map_err(|e| e.to_string())?;
            let path = path.to_str().ok_or("work dir is not UTF-8")?.to_string();
            let exact = exact_count(&nfa, 10)?;
            let source = Source::File(path);
            CountSpec { source, nfa, n: 10, exact, eps: 0.4, sample_k: 100 }
        }
        _ => return Ok(None),
    }))
}

/// One serve tenant: a name, a regex, and its per-length exact counts.
pub struct Tenant {
    pub name: &'static str,
    pub pattern: &'static str,
    pub nfa: Nfa,
    /// `exact[ℓ]` = `|L(A_ℓ)|` for `ℓ ≤ MAX_LEN`.
    pub exact: Vec<f64>,
}

/// `ε` of every serve tenant.
pub const SERVE_EPS: f64 = 0.3;
/// Every tenant is warmed to this length during set-up.
pub const WARM_LEN: usize = 12;
/// Longest length the stream asks for (and each tenant's `--max-n`).
pub const MAX_LEN: usize = 16;
/// Shortest length the stream asks for; every tenant's slice is
/// non-empty from here on, so every sample request can succeed.
const MIN_LEN: usize = 9;
/// Trace queries per round.
const QUERIES: usize = 6000;
/// Share of trace queries sent as `sample N K` instead of `estimate N`.
const SAMPLE_SHARE: f64 = 0.1;
/// Words per sample request.
pub const SAMPLE_K: usize = 16;

pub fn tenants() -> Result<Vec<Tenant>, String> {
    [("hot", REGEX25), ("c11", "(0|1)*11(0|1)*"), ("nc11", "(0|10)*1?")]
        .into_iter()
        .map(|(name, pattern)| {
            let nfa =
                regex::compile_regex(pattern, &Alphabet::binary()).map_err(|e| e.to_string())?;
            let exact = fpras_automata::exact::slice_counts(&nfa, MAX_LEN)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|c| c.to_f64())
                .collect();
            Ok(Tenant { name, pattern, nfa, exact })
        })
        .collect()
}

/// One data request of the serve stream.
#[derive(Clone, Copy)]
pub enum Query {
    Estimate { tenant: usize, n: usize },
    Sample { tenant: usize, n: usize },
}

/// The seeded request stream: a `query_trace` with repeat and
/// hot-tenant locality, a tenth of it turned into sample requests.
pub fn serve_stream(seed: u64, tenants: usize) -> Vec<Query> {
    let config = QueryTraceConfig {
        queries: QUERIES,
        automata: tenants,
        min_len: MIN_LEN,
        max_len: MAX_LEN,
        repeat_bias: 0.8,
        hot_automaton_bias: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let trace = query_trace(&config, &mut rng);
    trace
        .into_iter()
        .map(|q| {
            if rng.random_range(0.0..1.0) < SAMPLE_SHARE {
                Query::Sample { tenant: q.automaton, n: q.len }
            } else {
                Query::Estimate { tenant: q.automaton, n: q.len }
            }
        })
        .collect()
}

/// Checks an estimate against the exact count within `(1 ± eps)`.
pub fn check_estimate(what: &str, estimate: f64, exact: f64, eps: f64) -> Result<(), String> {
    let ok = if exact == 0.0 { estimate == 0.0 } else { (estimate - exact).abs() <= eps * exact };
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: estimate {estimate} outside (1±{eps}) of exact {exact}"))
    }
}

/// Checks that `word` has length `n` and is accepted by `nfa`.
pub fn check_word(nfa: &Nfa, n: usize, word: &str) -> Result<(), String> {
    match fpras_automata::Word::parse(word, nfa.alphabet()) {
        Some(w) if w.len() == n && nfa.accepts(&w) => Ok(()),
        _ => Err(format!("sampled word {word:?} is not in L(A_{n})")),
    }
}
