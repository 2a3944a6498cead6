//! Spans recorded in benchmark code, around the calls into each layer.
//!
//! One [`ThreadTrace`] per generator thread, preallocated, never shared:
//! recording a span is two clock reads and a push. Spans of one operation
//! share an `op_id`; a span names the span that caused it as `parent`.
//! A traced run switches recording on and off in blocks of operations
//! ([`crate::spec::TRACE_BLOCK`]), so the same process and state yield
//! both traced and untraced timings and their difference is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// `parent` of a root span, and the handle `begin` returns while
/// recording is off.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

pub struct ThreadTrace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Wall time spent with recording on, and when it was last switched on.
    traced_wall_ns: u64,
    on_since_ns: u64,
}

impl ThreadTrace {
    /// A buffer for about `capacity` spans, timestamps relative to `epoch`.
    /// Recording starts off.
    pub fn new(epoch: Instant, capacity: usize) -> ThreadTrace {
        ThreadTrace {
            epoch,
            enabled: false,
            spans: Vec::with_capacity(capacity),
            traced_wall_ns: 0,
            on_since_ns: 0,
        }
    }

    /// A trace that never records (untraced runs).
    pub fn off() -> ThreadTrace {
        ThreadTrace::new(Instant::now(), 0)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off, keeping account of the wall time spent
    /// recording (the denominator of coverage).
    pub fn set_enabled(&mut self, on: bool) {
        if on == self.enabled {
            return;
        }
        let now = self.now_ns();
        if on {
            self.on_since_ns = now;
        } else {
            self.traced_wall_ns += now - self.on_since_ns;
        }
        self.enabled = on;
    }

    /// Record by block: operation `index` of a traced run is recorded when
    /// its block number is odd. Untraced runs never call this.
    pub fn select_block(&mut self, index: usize, block: usize) {
        self.set_enabled((index / block) % 2 == 1);
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, handle: u32) {
        if handle != NONE {
            self.spans[handle as usize].end_ns = self.now_ns();
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part its child spans cover.
    pub self_ns: u64,
    pub p50_ns: f64,
}

#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameSummary>,
    pub spans: u64,
    /// Share of the traced wall time that lies under a root span.
    pub coverage: f64,
}

impl Summary {
    /// Median duration of the named span in microseconds (0 if absent).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.p50_ns / 1e3)
    }

    pub fn p50_ns(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.p50_ns)
    }
}

/// Self time of every span of one thread: its duration minus the time its
/// direct children cover (children of one parent run one after another
/// on the parent's thread, so their durations add).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            covered[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

pub fn summarize(threads: &mut [ThreadTrace]) -> Summary {
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut out = Summary::default();
    let (mut root_ns, mut wall_ns) = (0u64, 0u64);
    for t in threads.iter_mut() {
        t.set_enabled(false);
        wall_ns += t.traced_wall_ns;
        let selfs = self_times(&t.spans);
        for (s, self_ns) in t.spans.iter().zip(selfs) {
            let d = s.end_ns - s.start_ns;
            durations.entry(s.name).or_default().push(d);
            let e = out.by_name.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += self_ns;
            if s.parent == NONE {
                root_ns += d;
            }
        }
        out.spans += t.spans.len() as u64;
    }
    for (name, d) in &durations {
        if let Some(e) = out.by_name.get_mut(name) {
            e.p50_ns = stats::median_ns(d);
        }
    }
    out.coverage = if wall_ns == 0 {
        0.0
    } else {
        root_ns as f64 / wall_ns as f64
    };
    out
}

/// `trace-<workload>.json`: per span name count / total / self / p50, and
/// the complete spans of the first few traced operations of each thread
/// as a sample of the raw record.
pub fn to_json(workload: &str, summary: &Summary, threads: &[ThreadTrace]) -> String {
    const SAMPLE_OPS: usize = 8;
    let mut s = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"spans\": {},\n  \"coverage\": {},\n  \"names\": {{\n",
        summary.spans, summary.coverage
    );
    let n = summary.by_name.len();
    for (i, (name, e)) in summary.by_name.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        s.push_str(&format!(
            "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {}}}{comma}\n",
            e.count, e.total_ns, e.self_ns, e.p50_ns
        ));
    }
    s.push_str("  },\n  \"sample\": [\n");
    let mut rows = Vec::new();
    for (tid, t) in threads.iter().enumerate() {
        let mut ops: Vec<u64> = Vec::new();
        for (idx, sp) in t.spans.iter().enumerate() {
            if !ops.contains(&sp.op_id) {
                if ops.len() == SAMPLE_OPS {
                    break;
                }
                ops.push(sp.op_id);
            }
            let parent = if sp.parent == NONE {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            rows.push(format!(
                "    {{\"thread\": {tid}, \"index\": {idx}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op_id
            ));
        }
    }
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // root 0..100 with children 10..30 and 40..90; the second child
        // has its own child 50..60.
        let spans = [
            span("root", 0, 100, NONE),
            span("a", 10, 30, 0),
            span("b", 40, 90, 0),
            span("c", 50, 60, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn summary_counts_totals_medians_and_coverage() {
        let mut t = ThreadTrace::new(Instant::now(), 16);
        t.enabled = true;
        t.spans = vec![
            span("op", 0, 100, NONE),
            span("op.part", 20, 60, 0),
            span("op", 100, 300, NONE),
            span("op.part", 150, 250, 2),
        ];
        t.enabled = false;
        t.traced_wall_ns = 400;
        let s = summarize(std::slice::from_mut(&mut t));
        let op = &s.by_name["op"];
        assert_eq!((op.count, op.total_ns, op.self_ns), (2, 300, 160));
        assert_eq!(op.p50_ns, 150.0);
        assert_eq!(s.by_name["op.part"].self_ns, 140);
        assert_eq!(s.spans, 4);
        assert!((s.coverage - 0.75).abs() < 1e-12);
        assert_eq!(s.p50_us("op"), 0.15);
        assert_eq!(s.p50_us("absent"), 0.0);
    }

    #[test]
    fn disabled_trace_records_nothing_and_blocks_alternate() {
        let mut t = ThreadTrace::new(Instant::now(), 4);
        let h = t.begin("x", NONE, 0);
        assert_eq!(h, NONE);
        t.end(h);
        assert!(t.spans.is_empty());
        let recorded: Vec<bool> = (0..8)
            .map(|i| {
                t.select_block(i, 2);
                t.enabled()
            })
            .collect();
        assert_eq!(
            recorded,
            [false, false, true, true, false, false, true, true]
        );
        let h = t.begin("x", NONE, 7);
        t.end(h);
        assert_eq!(t.spans.len(), 1);
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
    }
}
