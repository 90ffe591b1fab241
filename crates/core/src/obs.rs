//! Observability: phase-attributed wall time, mergeable latency
//! histograms, a structured trace sink, and Prometheus-style text
//! exposition (DESIGN.md D15).
//!
//! The paper's complexity story is accounted in membership ops and the
//! engine counts those exhaustively — this module adds the *time* side:
//!
//! * [`PhaseWall`] — the level loop's wall time attributed to its
//!   phases (plan / count / sample / merge), a block on
//!   [`RunStats`](crate::RunStats) like the op counters.
//! * [`LatencyHistogram`] — an allocation-free, `Copy`, mergeable
//!   log-bucketed histogram (power-of-2 microsecond buckets). One
//!   quantile implementation shared by the serve layer and the bench
//!   harness.
//! * [`TraceSink`] / [`TraceEvent`] — structured JSONL tracing of
//!   run/level/pass boundaries, memo commits, pool passes, and serve
//!   events, behind a process-global sink that costs one relaxed atomic
//!   load when disabled.
//! * [`PromText`] — a tiny builder for Prometheus text exposition
//!   (counters, gauges, histogram buckets), used by the serve
//!   `metrics` command.
//!
//! # The invariant
//!
//! Nothing here may touch an RNG stream or an estimate. Phase timing
//! reads clocks, histograms count durations, and trace emission
//! observes already-computed statistics — none of it feeds back into
//! the DP. The golden-stream fixtures run with tracing and histograms
//! enabled to enforce exactly that.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Phase-attributed wall time
// ---------------------------------------------------------------------------

/// Wall time of an engine run attributed to the level loop's phases.
///
/// Every level of the DP runs the same four steps (see
/// `engine::run_level`): build the [`LevelPlan`](crate::LevelPlan)
/// (*plan*), run the batched count pass (*count*), run the sample pass
/// (*sample*), and merge outputs back into the table/memo/stats
/// (*merge*, which includes the memo commit). The fifth field, *share*,
/// timed the removed sampler-frontier pre-pass and is always zero. The durations here are sums over all
/// levels of a run; [`merge`](PhaseWall::merge) sums block-wise like
/// every other stats block, so session extensions and retired-run
/// folding accumulate naturally.
///
/// Phase time is attribution, not a second clock: `total()` is close
/// to — but intentionally not asserted equal to — `RunStats::wall`,
/// which also covers normalization and level-0 seeding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseWall {
    /// Building the level's frontier-grouped [`LevelPlan`](crate::LevelPlan).
    pub plan: Duration,
    /// The batched count pass (`Deterministic::count_pass`).
    pub count: Duration,
    /// The removed sampler-frontier share pre-pass: always zero, kept
    /// so readers of the phase layout keep compiling.
    pub share: Duration,
    /// The sample pass (`Deterministic::sample_pass`).
    pub sample: Duration,
    /// Output merging: table writes, stats folding, memo seeding and
    /// the end-of-level memo commit.
    pub merge: Duration,
}

impl PhaseWall {
    /// Accumulates another block (field-wise sum, like the op counters).
    pub fn merge(&mut self, other: &PhaseWall) {
        self.plan += other.plan;
        self.count += other.count;
        self.share += other.share;
        self.sample += other.sample;
        self.merge += other.merge;
    }

    /// Sum of all attributed phases.
    pub fn total(&self) -> Duration {
        self.plan + self.count + self.share + self.sample + self.merge
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Number of power-of-2 buckets in a [`LatencyHistogram`].
///
/// Bucket `i < 31` covers `[2^i, 2^(i+1))` µs (bucket 0 covers
/// `[0, 2)`); the top bucket absorbs everything from `2^31` µs
/// (≈ 36 minutes) up — far beyond any per-query latency this engine
/// can produce without tripping a budget first.
pub const LATENCY_BUCKETS: usize = 32;

/// An allocation-free, mergeable, log-bucketed latency histogram.
///
/// Fixed power-of-2 microsecond buckets ([`LATENCY_BUCKETS`] of them),
/// so `record` is a `leading_zeros` and an increment — no allocation,
/// no sort — and [`merge`](LatencyHistogram::merge) is an element-wise
/// add, which makes per-session histograms foldable into per-registry
/// ones exactly like the counter blocks ([`SessionStats`](crate::SessionStats)
/// carries one). [`quantile`](LatencyHistogram::quantile) is
/// nearest-rank over the buckets and returns the containing bucket's
/// inclusive upper edge, so any quantile is within one bucket (a
/// factor of 2) of the exact order statistic — the bench harness
/// asserts that bound against its old exact-sort implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// The bucket index holding `micros`.
    #[inline]
    fn bucket(micros: u64) -> usize {
        if micros < 2 {
            0
        } else {
            ((63 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Inclusive upper edge of bucket `i` in microseconds (the top
    /// bucket is open-ended and reports its lower edge — saturation,
    /// not an invented ceiling).
    #[inline]
    fn upper_edge(i: usize) -> u64 {
        if i + 1 >= LATENCY_BUCKETS {
            1 << (LATENCY_BUCKETS - 1)
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one observation of `micros` microseconds.
    #[inline]
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::bucket(micros)] += 1;
    }

    /// Records one observation from a [`Duration`].
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Element-wise sum — associative and commutative, so histograms
    /// fold across sessions/tenants in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, b| a.saturating_add(*b))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`): the inclusive upper
    /// edge of the bucket containing the `⌈q·count⌉`-th smallest
    /// observation, in microseconds. `None` when empty. Below the
    /// open-ended top bucket the result brackets the exact order
    /// statistic within its power-of-2 bucket —
    /// `exact ≤ quantile(q) < 2·(exact + 1)` — and in the top bucket
    /// it saturates to the bucket's lower edge.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return Some(Self::upper_edge(i));
            }
        }
        Some(Self::upper_edge(LATENCY_BUCKETS - 1))
    }

    /// Iterates `(inclusive_upper_edge_us, count)` for the non-empty
    /// prefix view of the histogram — the exposition order Prometheus
    /// `_bucket` lines use (cumulative sums are applied by the
    /// renderer).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(i, &c)| (Self::upper_edge(i), c))
    }
}

// ---------------------------------------------------------------------------
// Trace events and sinks
// ---------------------------------------------------------------------------

/// One structured trace event (serialized as a single JSONL object).
///
/// Every variant maps to a `{"ev": "...", ...}` object; the schema
/// table lives in DESIGN.md D15. Fields are already-computed
/// observations — emitting an event never touches an RNG stream or an
/// estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An engine run (or session extension) started.
    RunStart {
        /// `"nfa"` or `"robp"`.
        substrate: &'static str,
        /// Execution policy label (`"serial"` / `"deterministic"`).
        policy: &'static str,
        /// Target level (word length) of this run segment.
        n: usize,
        /// First level this segment builds (1 for fresh runs, `k + 1`
        /// for a session extension past checkpoint `k`).
        from_level: usize,
    },
    /// The run segment finished.
    RunEnd {
        /// Membership ops attributed to the whole run so far.
        ops: u64,
        /// Wall time of this segment in microseconds.
        wall_us: u64,
    },
    /// One pass of one level finished.
    Pass {
        /// DP level.
        level: usize,
        /// `"plan"`, `"count"`, `"sample"`, or `"merge"`.
        phase: &'static str,
        /// Work items the pass covered (groups or cells).
        items: u64,
        /// Pass wall time in microseconds.
        wall_us: u64,
        /// Sampler walk steps served by a compiled node record
        /// ([`crate::RunStats::walk_table_hits`]); 0 outside the sample
        /// phase. Scheduling evidence at `threads > 1`.
        walk_table_hits: u64,
    },
    /// The end-of-level memo commit ran.
    MemoCommit {
        /// DP level.
        level: usize,
        /// Overlay entries promoted into the base layer by this commit.
        promoted: u64,
    },
    /// Run-end summary of the work-stealing executor's passes
    /// (Deterministic policy only; omitted when no pool engaged).
    PoolSummary {
        /// Passes fanned out over the pool's workers.
        parallel_passes: u64,
        /// Passes that took the sequential cutoff.
        sequential_passes: u64,
        /// Items executed across all parallel passes.
        items: u64,
        /// Chunks stolen across workers.
        steals: u64,
    },
    /// A serve session was opened (or created via the registry).
    SessionOpen {
        /// Tenant / session name.
        tenant: String,
    },
    /// A poisoned serve session was recycled after a budget abort.
    SessionRecycle {
        /// Tenant / session name.
        tenant: String,
    },
    /// The admission controller denied a query or open.
    QuotaDenied {
        /// Tenant / session name the denial applied to.
        tenant: String,
        /// Human-readable denial reason.
        reason: String,
    },
}

/// Minimal JSON string escaping for trace payloads.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::RunStart { substrate, policy, n, from_level } => format!(
                "{{\"ev\": \"run_start\", \"substrate\": \"{substrate}\", \
                 \"policy\": \"{policy}\", \"n\": {n}, \"from_level\": {from_level}}}"
            ),
            TraceEvent::RunEnd { ops, wall_us } => {
                format!("{{\"ev\": \"run_end\", \"ops\": {ops}, \"wall_us\": {wall_us}}}")
            }
            TraceEvent::Pass { level, phase, items, wall_us, walk_table_hits } => format!(
                "{{\"ev\": \"pass\", \"level\": {level}, \"phase\": \"{phase}\", \
                 \"items\": {items}, \"wall_us\": {wall_us}, \
                 \"walk_table_hits\": {walk_table_hits}}}"
            ),
            TraceEvent::MemoCommit { level, promoted } => {
                format!("{{\"ev\": \"memo_commit\", \"level\": {level}, \"promoted\": {promoted}}}")
            }
            TraceEvent::PoolSummary { parallel_passes, sequential_passes, items, steals } => {
                format!(
                    "{{\"ev\": \"pool_summary\", \"parallel_passes\": {parallel_passes}, \
                     \"sequential_passes\": {sequential_passes}, \"items\": {items}, \
                     \"steals\": {steals}}}"
                )
            }
            TraceEvent::SessionOpen { tenant } => {
                format!("{{\"ev\": \"session_open\", \"tenant\": \"{}\"}}", json_escape(tenant))
            }
            TraceEvent::SessionRecycle { tenant } => {
                format!("{{\"ev\": \"session_recycle\", \"tenant\": \"{}\"}}", json_escape(tenant))
            }
            TraceEvent::QuotaDenied { tenant, reason } => format!(
                "{{\"ev\": \"quota_denied\", \"tenant\": \"{}\", \"reason\": \"{}\"}}",
                json_escape(tenant),
                json_escape(reason)
            ),
        }
    }
}

/// Destination for structured trace events.
///
/// Implementations must not panic on emission: tracing is an observer
/// and a full disk must never take an estimate down with it (the
/// bundled [`JsonlSink`] drops write errors after reporting the first
/// one to stderr).
pub trait TraceSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &TraceEvent);
    /// Flushes buffered output (called on uninstall; default no-op).
    fn flush(&mut self) {}
}

/// A [`TraceSink`] writing one JSON object per line to a buffered
/// writer — the `--trace-out FILE` / serve `trace on FILE` sink.
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: std::io::BufWriter<W>,
    write_failed: bool,
}

impl JsonlSink<std::fs::File> {
    /// Opens (truncating) `path` for JSONL trace output.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wraps any writer in a buffered JSONL sink.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer: std::io::BufWriter::new(writer), write_failed: false }
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        if self.write_failed {
            return;
        }
        if writeln!(self.writer, "{}", event.to_json()).is_err() {
            self.write_failed = true;
            eprintln!("trace: write failed; tracing disabled for this sink");
        }
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// A [`TraceSink`] collecting events in memory — for tests and
/// embedders that post-process events in-process.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The events received so far, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Fast-path flag: `true` while a sink is installed.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
/// The process-global sink (engine and serve layers emit through it so
/// no bit-identity-sensitive API grows an observability parameter).
static TRACE_SINK: Mutex<Option<Box<dyn TraceSink>>> = Mutex::new(None);

/// Installs `sink` as the process-global trace sink, returning the
/// previously installed one (flushed) if any.
pub fn install_sink(sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
    let mut guard = TRACE_SINK.lock().expect("trace sink lock");
    let old = guard.replace(sink);
    TRACE_ENABLED.store(true, Ordering::Release);
    old.map(|mut s| {
        s.flush();
        s
    })
}

/// Uninstalls the global sink (flushing it first). Returns it so tests
/// can inspect a [`MemorySink`]'s events; callers that only want to
/// stop tracing can drop the result.
pub fn take_sink() -> Option<Box<dyn TraceSink>> {
    let mut guard = TRACE_SINK.lock().expect("trace sink lock");
    TRACE_ENABLED.store(false, Ordering::Release);
    guard.take().map(|mut s| {
        s.flush();
        s
    })
}

/// True while a trace sink is installed. One relaxed atomic load —
/// the entire cost of disabled tracing.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Emits the event built by `f` to the installed sink, if any. The
/// closure only runs when tracing is enabled, so event construction
/// (allocation, formatting) is never paid on the disabled path.
#[inline]
pub fn emit_with<F: FnOnce() -> TraceEvent>(f: F) {
    if !trace_enabled() {
        return;
    }
    let event = f();
    if let Ok(mut guard) = TRACE_SINK.lock() {
        if let Some(sink) = guard.as_mut() {
            sink.emit(&event);
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Builder for Prometheus text-format exposition — the serve `metrics`
/// command's output. Deliberately tiny: `# TYPE` lines, counters,
/// gauges, and cumulative `_bucket`/`_count` lines rendered from a
/// [`LatencyHistogram`]; no labels beyond `le`.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition document.
    pub fn new() -> Self {
        PromText::default()
    }

    /// Appends a counter metric.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} counter");
        let _ = writeln!(self.out, "{name} {value}");
        self
    }

    /// Appends a gauge metric.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} gauge");
        let _ = writeln!(self.out, "{name} {value}");
        self
    }

    /// Appends a histogram metric: cumulative `le` buckets (microsecond
    /// upper edges, then `+Inf`) and a `_count` line.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &LatencyHistogram) -> &mut Self {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} histogram");
        // Only occupied buckets get their own line (32 mostly-empty
        // lines would drown a line protocol); the cumulative counts
        // stay monotone and the +Inf line always closes the series.
        let mut cumulative = 0u64;
        for (edge, count) in hist.buckets() {
            cumulative = cumulative.saturating_add(count);
            if count > 0 {
                let _ = writeln!(self.out, "{name}_bucket{{le=\"{edge}\"}} {cumulative}");
            }
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(self.out, "{name}_count {}", hist.count());
        self
    }

    /// The rendered exposition text.
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_wall_merges_field_wise() {
        let mut a = PhaseWall {
            plan: Duration::from_micros(1),
            count: Duration::from_micros(2),
            share: Duration::from_micros(3),
            sample: Duration::from_micros(4),
            merge: Duration::from_micros(5),
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.plan, Duration::from_micros(2));
        assert_eq!(a.sample, Duration::from_micros(8));
        assert_eq!(a.total(), Duration::from_micros(30));
    }

    #[test]
    fn histogram_quantile_within_one_bucket_of_exact() {
        // For any recorded sample set, the nearest-rank quantile out of
        // the histogram brackets the exact order statistic within its
        // power-of-2 bucket: exact ≤ q < 2·(exact + 1).
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        let mut h = LatencyHistogram::default();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = h.quantile(q).expect("non-empty");
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            assert!(got < 2 * (exact + 1), "q={q}: {got} ≥ 2·({exact}+1)");
        }
    }

    #[test]
    fn histogram_saturates_at_top_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        h.record(1 << 40);
        h.record(1 << (LATENCY_BUCKETS - 1));
        assert_eq!(h.count(), 3);
        // All three land in the open-ended top bucket, whose reported
        // edge is its lower bound (saturation, not an invented value).
        assert_eq!(h.quantile(1.0), Some(1 << (LATENCY_BUCKETS - 1)));
        let (top_edge, top_count) = h.buckets().last().expect("fixed buckets");
        assert_eq!(top_edge, 1 << (LATENCY_BUCKETS - 1));
        assert_eq!(top_count, 3);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        // Bucket 0 covers [0, 2): its inclusive upper edge is 1.
        assert_eq!(h.quantile(1.0), Some(1));
    }

    #[test]
    fn histogram_merge_is_add() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(3);
        b.record(3);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(0.5), Some(3));
    }

    #[test]
    fn trace_events_render_as_json_objects() {
        let events = [
            TraceEvent::RunStart { substrate: "nfa", policy: "serial", n: 8, from_level: 1 },
            TraceEvent::RunEnd { ops: 42, wall_us: 7 },
            TraceEvent::Pass {
                level: 3,
                phase: "sample",
                items: 5,
                wall_us: 11,
                walk_table_hits: 40,
            },
            TraceEvent::MemoCommit { level: 3, promoted: 2 },
            TraceEvent::PoolSummary {
                parallel_passes: 2,
                sequential_passes: 1,
                items: 9,
                steals: 1,
            },
            TraceEvent::SessionOpen { tenant: "a\"b".into() },
            TraceEvent::SessionRecycle { tenant: "t".into() },
            TraceEvent::QuotaDenied { tenant: "t".into(), reason: "line\nbreak".into() },
        ];
        for e in &events {
            let j = e.to_json();
            assert!(j.starts_with("{\"ev\": \""), "{j}");
            assert!(j.ends_with('}'), "{j}");
            // Escapes applied: no raw quotes/newlines survive inside values.
            assert!(!j.contains('\n'), "{j}");
        }
        assert!(events[5].to_json().contains("a\\\"b"));
        assert!(events[2].to_json().contains("\"walk_table_hits\": 40"));
    }

    /// A sink sharing its event log with the test that installed it
    /// (the global hook only hands back a `Box<dyn TraceSink>`).
    struct SharedSink(std::sync::Arc<Mutex<Vec<TraceEvent>>>);

    impl TraceSink for SharedSink {
        fn emit(&mut self, event: &TraceEvent) {
            self.0.lock().expect("shared sink lock").push(event.clone());
        }
    }

    #[test]
    fn shared_sink_receives_through_global_hook() {
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        install_sink(Box::new(SharedSink(log.clone())));
        assert!(trace_enabled());
        emit_with(|| TraceEvent::RunEnd { ops: 1, wall_us: 2 });
        drop(take_sink().expect("installed above"));
        assert!(!trace_enabled());
        // Concurrent tests may interleave their own events; ours must
        // be present regardless.
        let events = log.lock().expect("shared sink lock");
        assert!(events.contains(&TraceEvent::RunEnd { ops: 1, wall_us: 2 }));
    }

    #[test]
    fn prom_text_renders_counters_gauges_histograms() {
        let mut h = LatencyHistogram::default();
        h.record(3);
        h.record(300);
        let mut p = PromText::new();
        p.counter("fpras_queries_total", "Queries served.", 2)
            .gauge("fpras_tenants", "Open sessions.", 1.0)
            .histogram("fpras_query_latency_us", "Per-query latency.", &h);
        let text = p.render();
        assert!(text.contains("# TYPE fpras_queries_total counter"));
        assert!(text.contains("fpras_queries_total 2"));
        assert!(text.contains("# TYPE fpras_tenants gauge"));
        assert!(text.contains("# TYPE fpras_query_latency_us histogram"));
        assert!(text.contains("fpras_query_latency_us_bucket{le=\"3\"} 1"));
        assert!(text.contains("fpras_query_latency_us_bucket{le=\"511\"} 2"));
        assert!(text.contains("fpras_query_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fpras_query_latency_us_count 2"));
    }
}
