//! Replayable mixed-tenant load harness: the serve-loop workload as a
//! measured experiment.
//!
//! Drives a large [`query_trace`] (10⁵ queries at full size, with
//! repeat-bias *and* hot-tenant locality) through the same machinery
//! `nfa-count serve` uses — a [`ServiceRegistry`] plus an
//! [`AdmissionController`] with per-tenant level ledgers — and records
//! what a latency SLO actually cares about: the p50/p99 per-query
//! distribution (not just the amortized mean), the reuse rate, and how
//! many queries the quota machinery turned away. Two rows land in
//! `BENCH_counter.json`:
//!
//! * `session(load)` — unlimited quotas: every query served, reuse does
//!   the heavy lifting (p50 is a cache hit, p99 is a cold extension);
//! * `session(load+quota)` — a tight `max_total_levels` ledger: the
//!   same trace with admission control visibly shedding the over-limit
//!   tail (`quota_rejections > 0`) while admitted queries still answer
//!   bit-identically.
//!
//! Wall-clock claims are single-threaded on purpose and the row carries
//! `host_cpus` — on the 1-CPU recording host the honest story is
//! latency distribution and reuse, not thread scaling (the CI
//! scaling-smoke job owns that claim, gated on `available_parallelism`).

use crate::json::CounterMeasurement;
use fpras_core::service::{
    AdmissionController, QuotaConfig, ServiceRegistry, SessionKey, SessionPolicy,
};
use fpras_core::{FprasError, LatencyHistogram, Params, PhaseWall};
use fpras_workloads::{families, query_trace, QueryTraceConfig};
use rand::{rngs::SmallRng, SeedableRng};
use std::time::Instant;

/// Hardware threads on the recording host.
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One serve-equivalent pass over the trace: per-query admission
/// (ledger precheck + op-budget install), per-query latency, recycle on
/// poison — the `nfa-count serve` data path without the line protocol.
fn run_load(
    trace: &[fpras_workloads::TraceQuery],
    automata: &[fpras_automata::Nfa],
    params: &[Params],
    policy: &SessionPolicy,
    quota: QuotaConfig,
    instance: &str,
    method: &str,
) -> CounterMeasurement {
    let keys: Vec<SessionKey> =
        automata.iter().zip(params).map(|(nfa, p)| SessionKey::new(nfa, p, policy)).collect();
    let mut registry = ServiceRegistry::new(automata.len());
    let mut admission = AdmissionController::new(quota);
    let mut ledgers = vec![0u64; automata.len()];
    // The per-query distribution lives in a mergeable log-bucketed
    // histogram (the same type the serve layer aggregates per tenant) —
    // no raw-sample vector, no end-of-run sort. Quantiles come out as
    // bucket upper edges: within one power-of-2 bucket of the exact
    // nearest-rank statistic.
    let mut latency = LatencyHistogram::default();
    let mut last = fpras_numeric::ExtFloat::ZERO;
    let start = Instant::now();
    for q in trace {
        let t0 = Instant::now();
        let (session, _recycled) = registry
            .session_with_key_recycled(
                keys[q.automaton].clone(),
                &automata[q.automaton],
                &params[q.automaton],
                policy,
            )
            .expect("load params are valid by construction");
        let needed = q.len.saturating_sub(session.levels_built()) as u64;
        if admission.admit_levels(ledgers[q.automaton], needed).is_err() {
            latency.record_duration(t0.elapsed());
            continue;
        }
        session
            .set_build_ops_budget(admission.per_query_ops_cap(session.run_stats().membership_ops));
        let built_before = session.levels_built();
        match session.estimate(q.len) {
            Ok(est) => last = est,
            Err(FprasError::BudgetExceeded { .. }) => admission.record_budget_abort(),
            Err(e) => panic!("load query failed: {e}"),
        }
        ledgers[q.automaton] += (session.levels_built() - built_before) as u64;
        latency.record_duration(t0.elapsed());
    }
    let wall = start.elapsed();
    let totals = registry.session_totals();
    let ops: u64 = registry.sessions().map(|s| s.run_stats().membership_ops).sum();
    let mut phase = PhaseWall::default();
    for s in registry.sessions() {
        phase.merge(&s.run_stats().phase);
    }
    CounterMeasurement {
        instance: instance.to_string(),
        method: method.to_string(),
        threads: {
            let SessionPolicy::Deterministic { threads, .. } = *policy;
            threads
        },
        wall_seconds: wall.as_secs_f64(),
        estimate: last.to_f64(),
        estimate_log2: last.log2(),
        ops,
        cells_deduped: 0,
        memo_entries_shared: 0,
        pool_steals: 0,
        distinct_frontiers: 0,
        intern_hits: 0,
        phase,
        parallel_efficiency: None,
        host_cpus: host_cpus(),
        queries_served: totals.queries_served,
        levels_reused: totals.levels_reused,
        us_per_query: Some(wall.as_secs_f64() * 1e6 / trace.len() as f64),
        p50_us: latency.quantile(0.5).map(|us| us as f64),
        p99_us: latency.quantile(0.99).map(|us| us as f64),
        quota_rejections: admission.stats().quota_rejections(),
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
    let params: Vec<Params> = automata
        .iter()
        .map(|nfa| Params::for_session(0.25, 0.1, nfa.num_states(), max_len))
        .collect();
    let policy = SessionPolicy::Deterministic { seed, threads: 1 };
    let instance = format!("load-harness/q={queries}");
    let unlimited = run_load(
        &trace,
        &automata,
        &params,
        &policy,
        QuotaConfig::default(),
        &instance,
        "session(load)",
    );
    // The quota row caps each tenant's cumulative level ledger below
    // the trace's max length: queries above the built horizon are shed
    // once the ledger fills, everything at or below keeps being served
    // from reuse.
    let quota =
        QuotaConfig { max_total_levels: Some(max_len as u64 - 4), ..QuotaConfig::default() };
    let quota_row =
        run_load(&trace, &automata, &params, &policy, quota, &instance, "session(load+quota)");
    vec![unlimited, quota_row]
}

#[cfg(test)]
mod tests {
    use super::*;

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
