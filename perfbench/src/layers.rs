//! The per-layer metrics of a traced run. Every workload reports the
//! same list; a layer the workload does not exercise reads 0.

use crate::stats::{ratio, Report};
use fpras_core::RunStats;

#[derive(Default)]
pub struct Layers {
    /// Traced repetitions behind the timings.
    pub samples: usize,
    /// Wall of the plan, count, share, sample and merge phases (s).
    pub phase_s: [f64; 5],
    /// Wall of the engine runs the phases belong to (s).
    pub run_wall_s: f64,
    pub membership_ops: f64,
    pub appunion_calls: f64,
    pub groups_formed: f64,
    pub dedup_rate: f64,
    pub sampler_calls: f64,
    pub rejection_rate: f64,
    pub generate_us: f64,
    pub intern_hits: f64,
    pub intern_distinct: f64,
    pub memo_hit_rate: f64,
    pub memo_overlay_entries: f64,
    pub preestimate_hits: f64,
    pub parallel_passes: f64,
    pub steals: f64,
    pub ops_balance: f64,
    /// Sample-phase wall of a run on the pool's workers (s).
    pub pool_sample_s: f64,
    pub lookup_us: f64,
    pub estimate_hit_us: f64,
    pub sample_us: f64,
    pub extend_s: f64,
    pub levels_built: f64,
    pub reuse_rate: f64,
    pub request_p50_us: f64,
    pub request_p99_us: f64,
    pub sample_p50_us: f64,
    pub serve_qps: f64,
}

impl Layers {
    /// Copies the engine counters of `s`; the phase walls come from the
    /// caller, which times them from the trace.
    pub fn counters_from(&mut self, s: &RunStats) {
        self.membership_ops = s.membership_ops as f64;
        self.appunion_calls = s.appunion_calls as f64;
        self.groups_formed = s.batch.groups_formed as f64;
        self.dedup_rate = s.batch.dedup_rate();
        self.sampler_calls = s.sample_calls as f64;
        self.rejection_rate = s.rejection_rate();
        self.intern_hits = s.intern.intern_hits as f64;
        self.intern_distinct = s.intern.distinct_frontiers as f64;
        self.memo_hit_rate = s.memo_hit_rate();
        self.memo_overlay_entries = s.memo.overlay_entries as f64;
        self.preestimate_hits = s.share.preestimate_hits as f64;
        self.parallel_passes = s.pool.parallel_passes as f64;
        self.steals = s.pool.steals as f64;
        // min/max of per-worker ops: 1 is even, 0 is one worker doing
        // everything or no parallel pass at all.
        let max = s.pool.worker_ops.iter().copied().max().unwrap_or(0);
        let min = s.pool.worker_ops.iter().copied().min().unwrap_or(0);
        self.ops_balance = ratio(min as f64, max as f64);
    }

    pub fn report(&self, r: &mut Report) {
        let n = self.samples;
        let names = [
            "engine.phase_plan_s",
            "engine.phase_count_s",
            "engine.phase_share_s",
            "engine.phase_sample_s",
            "engine.phase_merge_s",
        ];
        for (name, v) in names.into_iter().zip(self.phase_s) {
            r.push(name, v, "s", n);
        }
        let phase_sum: f64 = self.phase_s.iter().sum();
        r.push("engine.run_wall_s", self.run_wall_s, "s", n);
        r.push("engine.phase_coverage", ratio(phase_sum, self.run_wall_s), "ratio", n);
        r.push("engine.membership_ops", self.membership_ops, "count", 1);
        r.push("engine.ns_per_op", 1e9 * ratio(self.run_wall_s, self.membership_ops), "ns", n);
        r.push("appunion.calls", self.appunion_calls, "count", 1);
        r.push("batch.groups_formed", self.groups_formed, "count", 1);
        r.push("batch.dedup_rate", self.dedup_rate, "ratio", 1);
        r.push("sampler.calls", self.sampler_calls, "count", 1);
        r.push("sampler.rejection_rate", self.rejection_rate, "ratio", 1);
        let ns_per_call = 1e9 * ratio(self.phase_s[3], self.sampler_calls);
        r.push("sampler.ns_per_call", ns_per_call, "ns", n);
        r.push("sampler.generate_us", self.generate_us, "us", n);
        r.push("intern.hits", self.intern_hits, "count", 1);
        r.push("intern.distinct", self.intern_distinct, "count", 1);
        r.push("intern.hits_per_op", ratio(self.intern_hits, self.membership_ops), "ratio", 1);
        r.push("memo.hit_rate", self.memo_hit_rate, "ratio", 1);
        r.push("memo.overlay_entries", self.memo_overlay_entries, "count", 1);
        r.push("share.preestimate_hits", self.preestimate_hits, "count", 1);
        r.push("pool.parallel_passes", self.parallel_passes, "count", 1);
        r.push("pool.steals", self.steals, "count", 1);
        r.push("pool.ops_balance", self.ops_balance, "ratio", 1);
        r.push("pool.phase_sample_s", self.pool_sample_s, "s", 1);
        r.push("service.lookup_us", self.lookup_us, "us", n);
        r.push("service.estimate_hit_us", self.estimate_hit_us, "us", n);
        r.push("service.sample_us", self.sample_us, "us", n);
        r.push("service.extend_s", self.extend_s, "s", n);
        r.push("service.levels_built", self.levels_built, "count", 1);
        r.push("service.reuse_rate", self.reuse_rate, "ratio", 1);
        // The line protocol's share of a request: what the client waits
        // beyond the in-process lookup and estimate hit.
        let protocol_us = if self.request_p50_us > 0.0 {
            self.request_p50_us - self.lookup_us - self.estimate_hit_us
        } else {
            0.0
        };
        r.push("cli.protocol_us", protocol_us, "us", n);
        r.push("cli.request_p50_us", self.request_p50_us, "us", n);
        r.push("cli.request_p99_us", self.request_p99_us, "us", n);
        r.push("cli.sample_p50_us", self.sample_p50_us, "us", n);
        r.push("cli.serve_qps", self.serve_qps, "1/s", n);
    }
}
