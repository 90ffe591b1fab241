//! Replayable mixed-tenant load harness: the serve-loop workload as a
//! measured experiment.
//!
//! Drives a large [`query_trace`] (10⁵ queries at full size, with
//! repeat-bias *and* hot-tenant locality) through the serve core
//! `nfa-count serve` runs — a [`Server`] with one tenant per automaton,
//! called through its typed `open`/`query` pair — and records what a
//! latency SLO actually cares about: the p50/p99 per-query distribution
//! (not just the amortized mean), the reuse rate, and how many queries
//! the quota machinery turned away. Two rows land in
//! `BENCH_counter.json`:
//!
//! * `session(load)` — unlimited quotas: every query served, reuse does
//!   the heavy lifting (p50 is a cache hit, p99 is a cold extension);
//! * `session(load+quota)` — a tight `max_total_levels` ledger: the
//!   same trace with admission control visibly shedding the over-limit
//!   tail (`quota_rejections > 0`) while admitted queries still answer
//!   bit-identically.
//!
//! Latency is the serve layer's one definition: the `QuerySession` call
//! ([`SessionStats::latency`](fpras_core::SessionStats::latency)), so
//! lookup, admission and denied queries are not in the p50/p99 columns.
//!
//! Wall-clock claims are single-threaded on purpose and the row carries
//! `host_cpus` — on the 1-CPU recording host the honest story is
//! latency distribution and reuse, not thread scaling (the CI
//! scaling-smoke job owns that claim, gated on `available_parallelism`).

use crate::json::CounterMeasurement;
use fpras_core::service::{
    Query, QuotaConfig, Reply, ServeError, Server, ServerConfig, SessionSpec,
};
use fpras_core::FprasError;
use fpras_workloads::{families, query_trace, QueryTraceConfig};
use rand::{rngs::SmallRng, SeedableRng};
use std::time::Instant;

/// Hardware threads on the recording host.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One serve pass over the trace: tenant `t<i>` per automaton, every
/// query through [`Server::query`] (admission, op budget, ledger and
/// recycle are the server's).
fn run_load(
    trace: &[fpras_workloads::TraceQuery],
    automata: &[fpras_automata::Nfa],
    spec: &SessionSpec,
    quota: QuotaConfig,
    instance: &str,
    method: &str,
) -> CounterMeasurement {
    let mut server = Server::new(ServerConfig { spec: spec.clone(), quota });
    let names: Vec<String> = (0..automata.len()).map(|i| format!("t{i}")).collect();
    for (name, nfa) in names.iter().zip(automata) {
        server
            .open(name, nfa.clone(), spec.clone())
            .expect("load params are valid by construction");
    }
    let mut last = fpras_numeric::ExtFloat::ZERO;
    let start = Instant::now();
    for q in trace {
        let mut keep = |r: Reply<'_>| {
            if let Reply::Estimate(_, est) = r {
                last = est;
            }
            Ok(())
        };
        match server.query(&names[q.automaton], Query::Estimate(q.len), &mut keep) {
            // Denials and budget aborts are what the quota row measures.
            Ok(()) | Err(ServeError::Denied(_)) => {}
            Err(ServeError::Engine(FprasError::BudgetExceeded { .. })) => {}
            Err(e) => panic!("load query failed: {e}"),
        }
    }
    let wall = start.elapsed();
    let totals = server.registry().session_totals();
    let engine = server.run_stats();
    CounterMeasurement {
        instance: instance.to_string(),
        method: method.to_string(),
        threads: spec.threads,
        wall_seconds: wall.as_secs_f64(),
        estimate: last.to_f64(),
        estimate_log2: last.log2(),
        ops: engine.membership_ops,
        cells_deduped: 0,
        appunion_calls: 0,
        pool_steals: 0,
        distinct_frontiers: 0,
        intern_hits: 0,
        phase: engine.phase,
        parallel_efficiency: None,
        host_cpus: host_cpus(),
        queries_served: totals.queries_served,
        levels_reused: totals.levels_reused,
        us_per_query: Some(wall.as_secs_f64() * 1e6 / trace.len() as f64),
        p50_us: totals.latency.quantile(0.5).map(|us| us as f64),
        p99_us: totals.latency.quantile(0.99).map(|us| us as f64),
        quota_rejections: server.quota_stats().quota_rejections(),
        reuse_rate: Some(totals.reuse_rate()),
    }
}

/// The two load-harness rows for `BENCH_counter.json`. `quick` shrinks
/// the trace (2 000 queries instead of 100 000) for smoke passes.
pub fn load_harness_rows(quick: bool, seed: u64) -> Vec<CounterMeasurement> {
    let (queries, max_len) = if quick { (2_000, 10) } else { (100_000, 14) };
    let automata =
        [families::contains_substring(&[1, 1]), families::ones_mod_k(4), families::divisible_by(5)];
    let config = QueryTraceConfig {
        queries,
        automata: automata.len(),
        min_len: 4,
        max_len,
        repeat_bias: 0.6,
        hot_automaton_bias: 0.5,
    };
    let trace = query_trace(&config, &mut SmallRng::seed_from_u64(seed ^ 0x10AD));
    let spec = SessionSpec { eps: 0.25, delta: 0.1, seed, threads: 1, max_n: max_len };
    let instance = format!("load-harness/q={queries}");
    let unlimited =
        run_load(&trace, &automata, &spec, QuotaConfig::default(), &instance, "session(load)");
    // The quota row caps each tenant's cumulative level ledger below
    // the trace's max length: queries above the built horizon are shed
    // once the ledger fills, everything at or below keeps being served
    // from reuse.
    let quota =
        QuotaConfig { max_total_levels: Some(max_len as u64 - 4), ..QuotaConfig::default() };
    let quota_row = run_load(&trace, &automata, &spec, quota, &instance, "session(load+quota)");
    vec![unlimited, quota_row]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpras_core::LatencyHistogram;

    /// The histogram quantiles that replaced the hand-rolled
    /// nearest-rank sort must stay within one power-of-2 bucket of the
    /// exact statistic — that is the bound the refreshed
    /// `BENCH_counter.json` latency columns are held to.
    #[test]
    fn histogram_quantiles_within_one_bucket_of_nearest_rank() {
        let samples: Vec<u64> = vec![3, 3, 5, 9, 17, 17, 33, 65, 129, 900];
        let mut hist = LatencyHistogram::default();
        for &s in &samples {
            hist.record(s);
        }
        for q in [0.5, 0.99] {
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let edge = hist.quantile(q).expect("non-empty");
            // The containing bucket's upper edge: at least the exact
            // value, and less than one doubling above it.
            assert!(edge >= exact, "q={q}: edge {edge} < exact {exact}");
            assert!(edge < 2 * (exact + 1), "q={q}: edge {edge} ≥ 2·({exact}+1)");
            assert!((edge + 1).is_power_of_two(), "edges are 2^k - 1, got {edge}");
        }
    }

    #[test]
    fn load_rows_record_latency_reuse_and_rejections() {
        let rows = load_harness_rows(true, 11);
        assert_eq!(rows.len(), 2);
        let (free, capped) = (&rows[0], &rows[1]);
        assert_eq!(free.method, "session(load)");
        assert_eq!(capped.method, "session(load+quota)");
        // Unlimited: everything served, heavy reuse, zero rejections.
        assert_eq!(free.queries_served, 2_000);
        assert_eq!(free.quota_rejections, 0);
        assert!(free.levels_reused > 0, "locality must produce reuse");
        assert!(free.reuse_rate.expect("trace row") > 0.5, "{:?}", free.reuse_rate);
        // The tail is the cold builds; the median is a reuse hit. Both
        // quantiles are histogram bucket upper edges (2^k − 1 µs).
        let (p50, p99) = (free.p50_us.expect("p50"), free.p99_us.expect("p99"));
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        for v in [p50, p99] {
            assert!((v as u64 + 1).is_power_of_two(), "not a bucket edge: {v}");
        }
        // Quota'd: over-ledger queries shed, the rest still served —
        // and denial is free, so served answers agree with the
        // unlimited run (same seed ⇒ same levels ⇒ same estimates).
        assert!(capped.quota_rejections > 0, "tight ledger must reject");
        assert!(capped.queries_served < free.queries_served);
        assert!(capped.queries_served > 0, "quota must shed the tail, not the trace");
        assert!(capped.levels_reused > 0);
    }
}
