//! Per-operator runtime statistics (the `EXPLAIN ANALYZE` payload).
//!
//! The traced executor ([`crate::exec::execute_plan_traced`]) runs the
//! same pipeline loop as the untraced one and counts, per plan operator,
//! rows in, rows out, wall time, and the access path actually taken
//! (named index vs full scan), summed over every evaluation of the
//! operator's pipeline. The profile lists one [`OpStats`] per operator in
//! `EXPLAIN`'s order and layout ([`crate::plan::Plan::explain`]). It costs
//! one walk of the plan per query (each operator's line, and its access
//! path once after the run) plus two `Instant` reads and one slot update
//! per operator application, nothing per row. The untraced executor does
//! none of this, so plain `query` keeps its exact cost.
//!
//! [`ExecStats::render`] produces the human-readable `EXPLAIN ANALYZE`
//! text; [`ExecStats::to_value`] the structured form the server's
//! slow-query log stores and `ADMIN SLOWLOG` returns.

use std::time::Duration;

use mmdb_types::Value;

/// Runtime statistics for one executed plan operator.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// The operator's one-line plan description (same text as `EXPLAIN`).
    pub op: String,
    /// Binding rows fed into the operator.
    pub rows_in: usize,
    /// Binding rows it produced.
    pub rows_out: usize,
    /// Wall-clock time spent applying it.
    pub elapsed: Duration,
    /// The access path actually taken, when the operator reads a store:
    /// `index 'price' on 'products'`, `full scan (collection 'orders')`,
    /// `graph traversal via edge collection 'knows'`, …
    pub access_path: Option<String>,
}

/// The full runtime profile of one executed query.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Per-operator stats, one per operator of the plan in `EXPLAIN`'s
    /// order: each pipeline's nodes then its RETURN projection, with a
    /// subquery's operators right after the operator that evaluates it.
    pub ops: Vec<OpStats>,
    /// Rows in the query result.
    pub rows_returned: usize,
    /// End-to-end execution time (including planning of nothing — the
    /// traced executor receives an already-optimized plan).
    pub total: Duration,
}

impl ExecStats {
    /// Render as `EXPLAIN ANALYZE` text: the plan annotated with actual
    /// row counts, timings, and access paths.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.op);
            if let Some(path) = &op.access_path {
                out.push_str(&format!("  [{path}]"));
            }
            out.push_str(&format!(
                "  rows: {} -> {}  time: {}",
                op.rows_in,
                op.rows_out,
                fmt_micros(op.elapsed)
            ));
            out.push('\n');
        }
        out.push_str(&format!(
            "total: {}  rows returned: {}",
            fmt_micros(self.total),
            self.rows_returned
        ));
        out
    }

    /// Structured form for the slow-query log and wire transport.
    pub fn to_value(&self) -> Value {
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|op| {
                let mut fields = vec![
                    ("op".to_string(), Value::str(&op.op)),
                    ("rows_in".to_string(), Value::int(op.rows_in as i64)),
                    ("rows_out".to_string(), Value::int(op.rows_out as i64)),
                    ("elapsed_us".to_string(), Value::int(op.elapsed.as_micros() as i64)),
                ];
                if let Some(path) = &op.access_path {
                    fields.push(("access_path".to_string(), Value::str(path)));
                }
                Value::object(fields)
            })
            .collect();
        Value::object([
            ("total_us", Value::int(self.total.as_micros() as i64)),
            ("rows", Value::int(self.rows_returned as i64)),
            ("ops", Value::Array(ops)),
        ])
    }

    /// Access paths taken, in pipeline order (tests and counters).
    pub fn access_paths(&self) -> Vec<&str> {
        self.ops.iter().filter_map(|op| op.access_path.as_deref()).collect()
    }
}

fn fmt_micros(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_value_shapes() {
        let stats = ExecStats {
            ops: vec![
                OpStats {
                    op: "For c IN customers".into(),
                    rows_in: 1,
                    rows_out: 3,
                    elapsed: Duration::from_micros(42),
                    access_path: Some("full scan (table 'customers')".into()),
                },
                OpStats {
                    op: "Return".into(),
                    rows_in: 3,
                    rows_out: 3,
                    elapsed: Duration::from_micros(7),
                    access_path: None,
                },
            ],
            rows_returned: 3,
            total: Duration::from_micros(49),
        };
        let text = stats.render();
        assert!(text.contains("full scan"), "{text}");
        assert!(text.contains("rows: 1 -> 3"), "{text}");
        assert!(text.contains("total: 49µs"), "{text}");
        let v = stats.to_value();
        assert_eq!(v.get_field("rows"), &Value::int(3));
        assert_eq!(v.get_field("ops").as_array().unwrap().len(), 2);
        assert_eq!(stats.access_paths().len(), 1);
    }

    #[test]
    fn durations_render_in_readable_units() {
        assert_eq!(fmt_micros(Duration::from_micros(900)), "900µs");
        assert_eq!(fmt_micros(Duration::from_micros(1_500)), "1.50ms");
        assert_eq!(fmt_micros(Duration::from_micros(2_500_000)), "2.50s");
    }
}
