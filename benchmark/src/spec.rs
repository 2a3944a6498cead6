//! The benchmark's fixed parameters: workloads, operation rates, metric
//! tables. Everything a comparison between two commits depends on lives
//! here, so that "same benchmark" means "same `spec.rs`".
//!
//! Work per run is a seed-determined operation list whose length is a
//! constant rate from this file times `--seconds`. Nothing is calibrated
//! at run time: the same seed and seconds give the same operations, byte
//! counts and final state on both sides of a comparison. The rates are
//! sized so that the timed sections of one run last about `--seconds` at
//! the commit that introduced the benchmark.

/// Seed of the data sets and of the query parameter pools. They do not
/// depend on `--seed`: the driver judges steadiness across seeds, and a
/// data set of 250 customers differs enough from seed to seed (orders per
/// customer, friends per customer, who is above a credit threshold) to
/// move the query timings by more than the box's own noise. `--seed`
/// decides the order of operations, which key every read hits and which
/// customer every transaction charges.
pub const DATA_SEED: u64 = 12;

/// Scale of the data set every workload loads into its durable database
/// (250 customers, ~500 orders). Small enough for the correlated Q4 to
/// run in a quarter of a second and to fit the engine's 4096 x 8 KiB pool.
pub const SMALL_SCALE: f64 = 0.25;

/// `read_wire_p` serves reads from a second, larger-than-cache database:
/// `BIG_SHARDS` data sets of `BIG_SHARD_SCALE` each, generated with
/// consecutive seeds and merged under disjoint key ranges. (One data set
/// of the combined scale would take minutes to generate: the generator's
/// friendship de-duplication is quadratic.) 80 000 customers and ~160 000
/// orders: the order and customer heaps are about 1.6x the pool.
pub const BIG_SHARDS: usize = 16;
pub const BIG_SHARD_SCALE: f64 = 5.0;

/// Writes per commit in the loader.
pub const LOAD_CHUNK: usize = 64;
/// Executor threads of every in-process server.
pub const SERVER_WORKERS: usize = 2;
/// Upper limit on load-generating threads / connections (`nproc` of the
/// box the benchmark was defined on).
pub const GENERATOR_THREADS: usize = 2;
/// Requests in flight per connection in the pipelined read phase.
pub const PIPELINE_WINDOW: usize = 32;
/// Price of every benchmark order; the credit invariant is
/// `initial_credit - credit == ORDER_TOTAL * k`.
pub const ORDER_TOTAL: i64 = 10;
/// Retries of a retryable transaction error before it counts as failed.
pub const TXN_RETRIES: u32 = 5;
/// `mixed_wire`: the writer's open-loop rate and the checkpoint period.
pub const PACED_TXNS_PER_S: u64 = 400;
pub const CHECKPOINT_EVERY: usize = 400;
/// `mixed_wire`: the reader favours the customers of the writer's last
/// this-many transactions.
pub const RECENT_WINDOW: usize = 16;
/// Traced runs alternate blocks of this many operations with spans on and
/// off, so tracing overhead is measured inside one process and one state.
pub const TRACE_BLOCK: usize = 64;
/// A run is cut into this many rounds. Every round runs the next slice of
/// every section's operation list, so each metric's samples are spread
/// over the whole run, and each metric is the median over the rounds (see
/// `runner`).
pub const ROUNDS: usize = 16;
/// `setup_s` is sampled on the set-up the run uses and on a throwaway one
/// in each of these rounds (`--quick`: on the first alone).
pub const SETUP_ROUNDS: [usize; 2] = [5, 11];
/// `reopen_s` is sampled in every odd round, on a directory prepared
/// before the clock starts: the loaded data set plus this many committed
/// new-order transactions, never written again.
pub const REOPEN_TXNS: usize = 10_000;
/// The reference work (`env::Reference`): lookups and copies over this
/// many keys, then a chain of dependent multiply-adds a quarter as long.
/// End-to-end timings are reported at the speed at which one pass takes
/// `REFERENCE_NS` — what it takes on the box the benchmark was defined on
/// in a quiet moment at its base clock. See `runner::Speed`.
pub const REFERENCE_KEYS: u32 = 4096;
pub const REFERENCE_MAP_OPS: usize = 2048;
pub const REFERENCE_CHAIN_OPS: usize = 125_000;
pub const REFERENCE_NS: f64 = 510_000.0;
/// Writes of the root-filesystem `sync_data` probe.
pub const FSYNC_PROBE_WRITES: usize = 300;
/// Operations replayed by the off-the-clock probes (WAL, hook, codec,
/// embedded reads).
pub const PROBE_OPS: usize = 20_000;
/// `--quick` runs every workload at this many seconds with one set-up
/// sample.
pub const QUICK_SECONDS: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`, and `run`'s defaults.
pub const DEFAULT_SECONDS: u64 = 12;
const _: () = assert!(DEFAULT_SECONDS >= 1 && DEFAULT_SECONDS <= 60);
pub const DEFAULT_RUNS: usize = 5;
pub const DEFAULT_SEED: u64 = 42;

/// The flush policy every durable database runs with, stated in every
/// result file.
pub const FLUSH_POLICY: &str =
    "engine default: one sync_data per group-commit batch, never disabled; data dir on tmpfs when available";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    QueryB,
    TxnC,
    ReadWireP,
    MixedWire,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::QueryB,
        name: "query_b",
        why: "embedded cross-model queries dominate: planner, executor and store read paths do the work; txn, WAL, server and wire do almost none",
    },
    Workload {
        kind: Kind::TxnC,
        name: "txn_c",
        why: "embedded durable new-order transactions from 2 writers dominate: sequencer, WAL, commit hook and Session staging; no planner, no wire in the focus window",
    },
    Workload {
        kind: Kind::ReadWireP,
        name: "read_wire_p",
        why: "point reads over TCP against a larger-than-cache database dominate: codec, client and the server's thread hand-offs on one CPU (not executor parallelism) do the work, the engine's point read little",
    },
    Workload {
        kind: Kind::MixedWire,
        name: "mixed_wire",
        why: "a paced writer, a closed-loop reader with cross-model check queries and periodic checkpoints share one server and one CPU: a gain for one side that costs the other shows only here",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The five UniBench Workload B queries, in the order used by every
/// per-query array in the harness.
pub const QUERY_NAMES: [&str; 5] = ["q4_naive", "q4_grouped", "q2", "q5", "q3"];

/// Operations per second of `--seconds`.
pub struct Rates {
    /// Queries per second of each of [`QUERY_NAMES`].
    pub queries: [f64; 5],
    /// Point reads of the depth-1 section.
    pub reads: f64,
    /// New-order transactions (per writer).
    pub txns: f64,
    /// `read_wire_p`: pipelined reads per connection.
    pub pipelined_reads: f64,
}

/// The query mix that dominates `query_b` (about 70 % of its run)...
const Q_HEAVY: [f64; 5] = [1.1, 5.0, 50.0, 380.0, 1200.0];
/// ...and the one that only has to give every other workload enough
/// samples of the five query metrics (a quarter of an embedded run, a
/// third of a run over the wire).
const Q_LIGHT: [f64; 5] = [0.6, 2.0, 10.0, 50.0, 200.0];

pub fn rates(kind: Kind) -> Rates {
    match kind {
        // The transaction rates are not round: a writer goes round and
        // round its customers, and with a whole number of rounds every seed
        // would write the very same bytes.
        Kind::QueryB => Rates {
            queries: Q_HEAVY,
            reads: 100_000.0,
            txns: 4_003.0,
            pipelined_reads: 0.0,
        },
        // 2 writers x 5 000/s: about 40 % of the run; state grows ~2 KB
        // per write and the final reopen replays it all, so the window is
        // bounded by memory and replay time, not by choice.
        Kind::TxnC => Rates {
            queries: Q_LIGHT,
            reads: 100_000.0,
            txns: 5_003.0,
            pipelined_reads: 0.0,
        },
        Kind::ReadWireP => Rates {
            queries: Q_LIGHT,
            reads: 4_000.0,
            txns: 300.0,
            pipelined_reads: 15_000.0,
        },
        // The writer is paced; it runs for 0.55 x seconds.
        Kind::MixedWire => Rates {
            queries: Q_LIGHT,
            reads: 0.0,
            txns: PACED_TXNS_PER_S as f64 * 0.55,
            pipelined_reads: 0.0,
        },
    }
}

/// An operation count: `rate x seconds`, at least `min`.
pub fn count(rate: f64, seconds: u64, min: usize) -> usize {
    ((rate * seconds as f64).ceil() as usize).max(min)
}

/// Query counts for a run; every type keeps enough samples for a median.
pub fn query_counts(kind: Kind, seconds: u64) -> [usize; 5] {
    let r = rates(kind).queries;
    [
        count(r[0], seconds, 3),
        count(r[1], seconds, 5),
        count(r[2], seconds, 10),
        count(r[3], seconds, 20),
        count(r[4], seconds, 50),
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The driver's bound of every timing, latency and rate. `BENCHMARK.json`
/// has one bound per metric, every workload reports every metric, and the
/// driver refuses a benchmark whose ten-seed quartile spread on any workload
/// exceeds the bound (it asks for a third of it), so a metric's bound has to
/// cover its noisiest workload on the box's worst stretch. Six ten-run
/// sets on the box the benchmark was defined on: every timing's worst
/// (workload, set) spread lies between 7.3 % (`q4_grouped_p50_us`) and
/// 14.6 % (`q3_p50_us`, in `txn_c`'s light section while another guest
/// shared the core); three times that is at or past the 0.25 the driver
/// allows at most. The pairs a workload exists to measure are held to the
/// tighter [`FOCUS`] bounds by `compare`.
const TIMING_BOUND: f64 = 0.25;

/// The 13 end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "q2_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "q3_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "q4_naive_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "q4_grouped_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "q5_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "txns_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "reads_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    EndToEnd {
        name: "reopen_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    // Bimodal within 4 %: how much of the throwaway set-ups' memory the
    // allocator has handed back when the window ends.
    EndToEnd {
        name: "rss_bytes_per_item",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wal_bytes_per_user_byte",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// The 19 (workload, metric) pairs the workloads exist to measure, with the
/// bound `run` writes into result files for them and `compare` judges them
/// by: 0.10 (0.02 for the count ratio), or 0.15 where the pair's own
/// ten-seed quartile spread on a calm box is above 5 % — two writers
/// handing commits across CPUs, a paced writer queueing behind check
/// queries, and set-up (three samples a run). Every other pair is a light
/// section that exists because the driver wants every metric from every
/// workload; it keeps the metric's `END_TO_END` bound.
pub const FOCUS: [(Kind, &str, f64); 19] = [
    (Kind::QueryB, "setup_s", 0.15),
    (Kind::QueryB, "q2_p50_us", 0.10),
    (Kind::QueryB, "q3_p50_us", 0.10),
    (Kind::QueryB, "q4_naive_p50_us", 0.10),
    (Kind::QueryB, "q4_grouped_p50_us", 0.10),
    (Kind::QueryB, "q5_p50_us", 0.10),
    (Kind::TxnC, "setup_s", 0.15),
    (Kind::TxnC, "txns_per_s", 0.15),
    (Kind::TxnC, "txn_p50_us", 0.15),
    (Kind::TxnC, "reopen_s", 0.15),
    (Kind::TxnC, "rss_bytes_per_item", 0.10),
    (Kind::TxnC, "wal_bytes_per_user_byte", 0.02),
    (Kind::ReadWireP, "setup_s", 0.15),
    (Kind::ReadWireP, "reads_per_s", 0.10),
    (Kind::ReadWireP, "read_p50_us", 0.10),
    (Kind::MixedWire, "setup_s", 0.15),
    (Kind::MixedWire, "reads_per_s", 0.10),
    (Kind::MixedWire, "read_p50_us", 0.10),
    (Kind::MixedWire, "txn_p50_us", 0.15),
];

/// The bound of `metric` on workload `kind` in result files: the pair's
/// [`FOCUS`] bound if it has one, the metric's driver bound otherwise.
pub fn bound_for(kind: Kind, metric: &EndToEnd) -> f64 {
    FOCUS
        .iter()
        .find(|(k, name, _)| *k == kind && *name == metric.name)
        .map_or(metric.bound, |&(_, _, bound)| bound)
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The 99 per-layer metrics, layer = crate. They describe the workload's
/// focus section only and carry no bound.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better });
    };
    for q in QUERY_NAMES {
        for stage in ["parse_us", "plan_us", "exec_us"] {
            add(format!("query.{q}.{stage}"), "us", Lower);
        }
        add(format!("query.{q}.rows_examined"), "count", Lower);
        add(format!("query.{q}.rows_per_result"), "ratio", Lower);
        add(format!("query.{q}.full_scans"), "count", Lower);
        add(format!("query.{q}.top_op_share"), "ratio", Lower);
    }
    let fixed: [(&str, &'static str, Better); 64] = [
        ("query.check.exec_us", "us", Lower),
        ("txn.begin_us", "us", Lower),
        ("txn.stage_us", "us", Lower),
        ("txn.commit_us", "us", Lower),
        ("txn.p99_us", "us", Lower),
        ("txn.commit_rest_us", "us", Lower),
        ("txn.commits", "count", Higher),
        ("txn.aborts", "count", Lower),
        ("txn.retries", "count", Lower),
        ("txn.batches", "count", Lower),
        ("txn.batch_mean", "ratio", Higher),
        ("txn.batch_max", "count", Higher),
        ("txn.syncs_per_txn", "ratio", Lower),
        ("document.insert_us", "us", Lower),
        ("kv.put_us", "us", Lower),
        ("graph.add_edge_us", "us", Lower),
        ("relational.get_row_us", "us", Lower),
        ("relational.update_row_us", "us", Lower),
        ("storage.wal_append_us", "us", Lower),
        ("storage.wal_sync_us", "us", Lower),
        ("storage.wal_bytes_per_txn", "B", Lower),
        ("storage.wal_reclaimed_bytes", "B", Higher),
        ("storage.fsync_probe_us", "us", Lower),
        ("storage.pool_hit_rate", "ratio", Higher),
        ("storage.pool_misses", "count", Lower),
        ("storage.lsm_flushes", "count", Lower),
        ("storage.lsm_compactions", "count", Lower),
        ("core.hook_apply_us", "us", Lower),
        ("core.load_items_per_s", "1/s", Higher),
        ("core.open_replay_s", "s", Lower),
        ("core.open_snapshot_s", "s", Lower),
        ("core.checkpoint_s", "s", Lower),
        ("core.checkpoints", "count", Higher),
        ("core.snapshot_bytes", "B", Lower),
        ("core.ckpt_read_p99_us", "us", Lower),
        ("core.torn_reads", "count", Lower),
        ("core.kv_get_ns", "ns", Lower),
        ("core.get_document_ns", "ns", Lower),
        ("core.get_row_ns", "ns", Lower),
        ("protocol.req_encode_ns", "ns", Lower),
        ("protocol.req_decode_ns", "ns", Lower),
        ("protocol.resp_encode_ns", "ns", Lower),
        ("protocol.resp_decode_ns", "ns", Lower),
        ("protocol.req_bytes", "B", Lower),
        ("protocol.resp_bytes", "B", Lower),
        ("server.op_p50_us", "us", Lower),
        ("server.op_p99_us", "us", Lower),
        ("server.commit_p50_us", "us", Lower),
        ("server.requests_total", "count", Higher),
        ("server.errors_total", "count", Lower),
        ("server.inflight_peak", "count", Lower),
        ("server.executor_queue_peak", "count", Lower),
        ("server.responses_queued_peak", "count", Lower),
        ("server.depth_stalls", "count", Lower),
        ("server.wire_tax_us", "us", Lower),
        ("client.submit_ns", "ns", Lower),
        ("client.flush_us", "us", Lower),
        ("client.receive_wait_us", "us", Lower),
        ("client.read_p99_us", "us", Lower),
        ("client.txn_p99_us", "us", Lower),
        ("gen.late_p99_us", "us", Lower),
        ("trace.overhead_frac", "ratio", Lower),
        ("trace.spans", "count", Higher),
        ("trace.coverage", "ratio", Higher),
    ];
    for (name, unit, better) in fixed {
        add(name.to_string(), unit, better);
    }
    out
}

/// The content of `BENCHMARK.json`, generated from the tables above (the
/// `spec-json` subcommand prints it; a unit test keeps the file in step).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {DEFAULT_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_have_the_advertised_sizes_and_unique_names() {
        let layers = per_layer();
        assert_eq!(END_TO_END.len(), 13);
        assert_eq!(layers.len(), 99);
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        // 0.25 is the most the driver's contract lets a bound be.
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn focus_pairs_are_known_and_no_looser_than_the_issue_allows() {
        for (i, (kind, name, bound)) in FOCUS.iter().enumerate() {
            let metric = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
            assert!(*bound > 0.0 && *bound <= 0.15 && *bound <= metric.bound);
            assert_eq!(bound_for(*kind, metric), *bound);
            assert!(
                !FOCUS[..i].iter().any(|(k, n, _)| k == kind && n == name),
                "{name} twice"
            );
        }
        // A light section keeps the driver's bound.
        let q2 = END_TO_END.iter().find(|m| m.name == "q2_p50_us").unwrap();
        assert_eq!(bound_for(Kind::TxnC, q2), q2.bound);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `spec-json`");
    }

    #[test]
    fn counts_scale_with_seconds_and_keep_a_minimum() {
        assert_eq!(count(1.4, 10, 3), 14);
        assert_eq!(count(0.7, 1, 3), 3);
        assert_eq!(query_counts(Kind::QueryB, 10), [11, 50, 500, 3800, 12000]);
    }
}
