//! Server-side observability.
//!
//! Lock-free counters plus a log-scale latency histogram per command,
//! cheap enough to record on every request. `ADMIN STATS` renders a
//! snapshot as a `Value` object so any client can read it without a
//! separate metrics endpoint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mmdb_protocol::Request;
use mmdb_types::Value;

/// Commands tracked individually. Indexes into `Metrics::commands`.
/// Kept in sync with `Request::command_label`.
pub const COMMAND_LABELS: [&str; 13] = [
    "hello", "ping", "query", "sql", "explain", "begin", "commit", "abort", "op", "ddl", "admin",
    "replica", "subscribe",
];

fn command_index(label: &str) -> usize {
    COMMAND_LABELS.iter().position(|l| *l == label).unwrap_or(0)
}

/// Data models with per-model operation counters. Indexes into
/// [`Metrics::model_ops`].
pub const MODEL_LABELS: [&str; 5] = ["document", "kv", "relational", "graph", "rdf"];

fn model_index(label: &str) -> Option<usize> {
    MODEL_LABELS.iter().position(|l| *l == label)
}

/// Power-of-two microsecond buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` µs; the last bucket is open-ended (≥ ~134 s).
const BUCKETS: usize = 28;

/// A log₂-bucketed latency histogram.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Largest observation seen per bucket: lets percentiles report an
    /// actual observation instead of the bucket's power-of-two upper
    /// bound, which overshoots by up to 2× in mid-range buckets.
    bucket_max: [AtomicU64; BUCKETS],
    /// Smallest observation seen per bucket (0 = none yet): together
    /// with the running max this brackets the bucket's population, so
    /// mid-bucket percentiles can rank-interpolate inside `[min, max]`
    /// instead of pessimistically reporting the max.
    bucket_min: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.bucket_max[idx].fetch_max(micros.max(1), Ordering::Relaxed);
        // fetch_min can't express "0 means empty", so CAS the sentinel.
        let clamped = micros.max(1);
        let mut cur = self.bucket_min[idx].load(Ordering::Relaxed);
        while cur == 0 || clamped < cur {
            match self.bucket_min[idx].compare_exchange_weak(
                cur,
                clamped,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The largest observation, exactly. 0 when empty.
    pub fn max_micros(&self) -> u64 {
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Approximate percentile in microseconds. The `q`-quantile rank is
    /// located in its bucket, then linearly interpolated between that
    /// bucket's running minimum and maximum by rank position — so a
    /// bucket holding `[70,…,70,100]` reports p50 ≈ 86 rather than the
    /// pessimistic 100. Single-occupant (or degenerate) buckets report
    /// their running max exactly, and everything clamps to the exact
    /// global maximum, which keeps the open-ended top bucket from
    /// reporting its 2²⁸ µs (~268 s) bound. 0 when empty.
    pub fn percentile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let max = self.max_micros();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if seen + n < rank {
                seen += n;
                continue;
            }
            let bucket_max = self.bucket_max[i].load(Ordering::Relaxed);
            let bucket_min = self.bucket_min[i].load(Ordering::Relaxed);
            // max == 0 only in a transient count/max race: fall back to
            // the bucket's upper bound rather than reporting zero.
            let bound = if bucket_max == 0 { 1u64 << (i + 1) } else { bucket_max };
            // 1-based rank within this bucket's population of `n`.
            let rank_in = rank - seen;
            let est = if bucket_min == 0 || bucket_min >= bound || n <= 1 {
                bound
            } else {
                bucket_min + (bound - bucket_min) * (rank_in - 1) / (n - 1)
            };
            return est.min(max);
        }
        // Unreachable: `rank <= total` and the buckets sum to `total`,
        // so the loop always returns. Report the max rather than a
        // fabricated bucket bound if the counts ever race.
        max
    }

    fn mean_micros(&self) -> u64 {
        self.total_micros.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    fn to_value(&self) -> Value {
        Value::object([
            ("count", Value::int(self.count() as i64)),
            ("mean_us", Value::int(self.mean_micros() as i64)),
            ("p50_us", Value::int(self.percentile_micros(0.50) as i64)),
            ("p95_us", Value::int(self.percentile_micros(0.95) as i64)),
            ("p99_us", Value::int(self.percentile_micros(0.99) as i64)),
        ])
    }
}

/// A current-value gauge with a high-water mark. Updates are relaxed:
/// these feed `ADMIN STATS`, nothing synchronizes on them.
#[derive(Default)]
pub struct Gauge {
    current: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// Add one, bumping the peak.
    pub fn inc(&self) {
        let now = self.current.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtract one (saturating at zero against racy teardown paths).
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Subtract `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Overwrite the current value (for gauges whose exact value is
    /// known under a lock, like a queue length), bumping the peak.
    pub fn set_current(&self, v: u64) {
        self.current.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// The largest value ever observed.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn to_value(&self) -> (i64, i64) {
        (self.current() as i64, self.peak() as i64)
    }
}

/// Per-command counters.
#[derive(Default)]
pub struct CommandStats {
    /// Requests served (including failed ones).
    pub count: AtomicU64,
    /// Requests answered with an error response.
    pub errors: AtomicU64,
    /// Service-time distribution.
    pub latency: LatencyHistogram,
}

/// The server's metrics registry.
#[derive(Default)]
pub struct Metrics {
    /// Connections accepted and handed to a worker.
    pub connections_accepted: AtomicU64,
    /// Connections refused because the server was at capacity.
    pub connections_rejected: AtomicU64,
    /// Currently open connections.
    pub connections_active: AtomicU64,
    /// Open transactions aborted because their connection went away.
    pub sessions_reaped: AtomicU64,
    /// Auto-checkpoint attempts (size-triggered background loop) that
    /// returned an error. Manual `ADMIN CHECKPOINT` failures surface to
    /// the caller instead.
    pub checkpoint_failures: AtomicU64,
    /// Total requests served across all commands.
    pub requests_total: AtomicU64,
    /// Total error responses across all commands.
    pub errors_total: AtomicU64,
    /// Requests decoded but not yet answered, across all connections
    /// (the pipelined in-flight set).
    pub inflight_requests: Gauge,
    /// Jobs waiting in the shared executor pool's queue.
    pub executor_queue: Gauge,
    /// Completed responses queued for per-connection writers.
    pub responses_queued: Gauge,
    /// Times a connection's reader hit the `pipeline_depth` cap and
    /// stopped pulling frames (backpressure engaging).
    pub pipeline_stalls: AtomicU64,
    /// Requests a connection's reader ran itself instead of handing them
    /// to the executor pool (see `conn::run_inline`). They are counted in
    /// `requests_total` and the per-command stats like any other.
    pub inline_requests: AtomicU64,
    commands: [CommandStats; COMMAND_LABELS.len()],
    /// Typed data operations served, by data model (see [`MODEL_LABELS`]).
    model_ops: [AtomicU64; MODEL_LABELS.len()],
}

impl Metrics {
    /// Record one served request with its outcome and service time.
    pub fn record_request(&self, req: &Request, ok: bool, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let cmd = &self.commands[command_index(req.command_label())];
        cmd.count.fetch_add(1, Ordering::Relaxed);
        cmd.latency.record(elapsed);
        if !ok {
            self.errors_total.fetch_add(1, Ordering::Relaxed);
            cmd.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-command stats, for tests and direct inspection.
    pub fn command(&self, label: &str) -> &CommandStats {
        &self.commands[command_index(label)]
    }

    /// Count one typed data operation against its model ("document",
    /// "kv", "relational", "graph", "rdf"). Unknown labels are ignored.
    pub fn record_model_op(&self, model: &str) {
        if let Some(i) = model_index(model) {
            self.model_ops[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Operations served for one model, for tests and direct inspection.
    pub fn model_ops(&self, model: &str) -> u64 {
        model_index(model).map(|i| self.model_ops[i].load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Render everything as the `ADMIN STATS` payload.
    pub fn snapshot(&self) -> Value {
        let mut commands = Vec::new();
        for (label, stats) in COMMAND_LABELS.iter().zip(&self.commands) {
            if stats.count.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut obj = stats.latency.to_value();
            if let Ok(o) = obj.as_object_mut() {
                o.insert("command", Value::str(*label));
                o.insert("errors", Value::int(stats.errors.load(Ordering::Relaxed) as i64));
            }
            commands.push(obj);
        }
        Value::object([
            (
                "connections",
                Value::object([
                    (
                        "accepted",
                        Value::int(self.connections_accepted.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "rejected_busy",
                        Value::int(self.connections_rejected.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "active",
                        Value::int(self.connections_active.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "requests",
                Value::object([
                    ("total", Value::int(self.requests_total.load(Ordering::Relaxed) as i64)),
                    ("errors", Value::int(self.errors_total.load(Ordering::Relaxed) as i64)),
                ]),
            ),
            // Pipelining health: how many requests are in flight right
            // now (and the high-water mark), how deep the executor and
            // response queues run, and how often per-connection
            // backpressure engaged.
            (
                "pipeline",
                {
                    let (inflight, inflight_peak) = self.inflight_requests.to_value();
                    let (queue, queue_peak) = self.executor_queue.to_value();
                    let (resp, resp_peak) = self.responses_queued.to_value();
                    Value::object([
                        ("inflight_requests", Value::int(inflight)),
                        ("inflight_peak", Value::int(inflight_peak)),
                        ("executor_queue_depth", Value::int(queue)),
                        ("executor_queue_peak", Value::int(queue_peak)),
                        ("responses_queued", Value::int(resp)),
                        ("responses_queued_peak", Value::int(resp_peak)),
                        (
                            "depth_stalls",
                            Value::int(self.pipeline_stalls.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "inline_requests",
                            Value::int(self.inline_requests.load(Ordering::Relaxed) as i64),
                        ),
                    ])
                },
            ),
            (
                "sessions_reaped",
                Value::int(self.sessions_reaped.load(Ordering::Relaxed) as i64),
            ),
            (
                "checkpoint_failures",
                Value::int(self.checkpoint_failures.load(Ordering::Relaxed) as i64),
            ),
            ("commands", Value::Array(commands)),
            (
                "model_ops",
                Value::object(MODEL_LABELS.iter().zip(&self.model_ops).map(|(label, n)| {
                    (*label, Value::int(n.load(Ordering::Relaxed) as i64))
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        for micros in [1u64, 2, 4, 100, 100, 100, 100, 100, 10_000, 1_000_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.percentile_micros(0.50);
        assert!((64..=256).contains(&p50), "p50 near 100µs, got {p50}");
        let p99 = h.percentile_micros(0.99);
        assert!(p99 >= 1_000_000, "p99 covers the 1s outlier, got {p99}");
        assert!(h.percentile_micros(0.50) <= h.percentile_micros(0.95));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile_micros(0.99), 0);
    }

    #[test]
    fn percentiles_clamp_to_exact_max() {
        // 9×100µs + 1×5000µs. The p50 observation sits in bucket 6
        // ([64,128)µs), whose running max is the exact 100µs; p95 and
        // p99 land on the 5000µs outlier, whose bucket max equals the
        // global max.
        let h = LatencyHistogram::default();
        for _ in 0..9 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_micros(5000));
        assert_eq!(h.max_micros(), 5000);
        assert_eq!(h.percentile_micros(0.50), 100);
        assert_eq!(h.percentile_micros(0.95), 5000);
        assert_eq!(h.percentile_micros(0.99), 5000);
    }

    #[test]
    fn mid_bucket_percentiles_interpolate_between_bucket_min_and_max() {
        // 1000µs lands in bucket [512,1024): the report was once the
        // 1024µs bucket bound, then the running max; a uniform bucket
        // still reports the exact observation.
        let h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record(Duration::from_micros(1000));
        }
        assert_eq!(h.percentile_micros(0.50), 1000);

        // A mixed bucket interpolates by rank between its own min and
        // max: nine 70s and one 100 put the rank-6 (p50 of 11) estimate
        // at 70 + (100-70)·(6-1)/(10-1) = 86 — closer to the true p50
        // of 70 than the old running-max report of 100, and never past
        // the bucket's real top.
        let h = LatencyHistogram::default();
        for _ in 0..9 {
            h.record(Duration::from_micros(70)); // bucket [64,128)
        }
        h.record(Duration::from_micros(100)); // same bucket, larger
        h.record(Duration::from_micros(1_000_000)); // outlier, other bucket
        assert_eq!(h.percentile_micros(0.50), 86);
    }

    #[test]
    fn interpolation_exact_expectations() {
        // Two observations bracketing a bucket: 64 and 127 share bucket
        // [64,128). Ranks 1 and 2 of 2 must report the endpoints
        // exactly: min + (max-min)·(rank-1)/(n-1).
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(64));
        h.record(Duration::from_micros(127));
        assert_eq!(h.percentile_micros(0.50), 64, "rank 1 of 2 is the bucket min");
        assert_eq!(h.percentile_micros(0.99), 127, "rank 2 of 2 is the bucket max");

        // Four observations in one bucket: 64,64,64,120. Ranks walk the
        // line 64 + 56·(r-1)/3 → 64, 82, 101, 120.
        let h = LatencyHistogram::default();
        for m in [64u64, 64, 64, 120] {
            h.record(Duration::from_micros(m));
        }
        assert_eq!(h.percentile_micros(0.25), 64);
        assert_eq!(h.percentile_micros(0.50), 82);
        assert_eq!(h.percentile_micros(0.75), 101);
        assert_eq!(h.percentile_micros(1.0), 120);

        // The estimate never leaves [bucket_min, global max] even when
        // the rank bucket's max exceeds the global max (impossible by
        // construction, but the clamp also covers the count/max race).
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(90));
        h.record(Duration::from_micros(90));
        assert_eq!(h.percentile_micros(0.99), 90);
    }

    #[test]
    fn saturated_top_bucket_reports_max_not_bucket_bound() {
        // 200s lands in the open-ended top bucket. The old report was the
        // bucket's 2^28µs (~268s) upper bound — worse than the actual
        // worst case. It must now be the exact observation.
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(200));
        assert_eq!(h.percentile_micros(0.99), 200_000_000);
        assert!(h.percentile_micros(0.99) < 1u64 << BUCKETS);
    }

    #[test]
    fn single_observation_is_every_percentile() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        for q in [0.50, 0.95, 0.99] {
            assert_eq!(h.percentile_micros(q), 100);
        }
    }

    #[test]
    fn model_ops_count_by_label() {
        let m = Metrics::default();
        m.record_model_op("document");
        m.record_model_op("document");
        m.record_model_op("rdf");
        m.record_model_op("nonsense"); // ignored
        assert_eq!(m.model_ops("document"), 2);
        assert_eq!(m.model_ops("rdf"), 1);
        assert_eq!(m.model_ops("kv"), 0);
        let snap = m.snapshot();
        assert_eq!(snap.get_field("model_ops").get_field("document"), &Value::int(2));
    }

    #[test]
    fn snapshot_counts_by_command() {
        let m = Metrics::default();
        let q = Request::Query { text: "RETURN 1".into(), deadline_ms: None };
        m.record_request(&q, true, Duration::from_micros(50));
        m.record_request(&q, false, Duration::from_micros(80));
        m.record_request(&Request::Ping, true, Duration::from_micros(2));
        assert_eq!(m.requests_total.load(Ordering::Relaxed), 3);
        assert_eq!(m.errors_total.load(Ordering::Relaxed), 1);
        assert_eq!(m.command("query").count.load(Ordering::Relaxed), 2);
        let snap = m.snapshot();
        assert_eq!(snap.get_field("requests").get_field("total"), &Value::int(3));
        let commands = snap.get_field("commands").as_array().unwrap();
        assert_eq!(commands.len(), 2, "only commands actually used appear");
        assert!(commands
            .iter()
            .any(|c| c.get_field("command") == &Value::str("query")
                && c.get_field("p50_us").as_int().unwrap() > 0));
    }
}
