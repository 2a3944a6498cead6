//! The timed sections a workload is assembled from: a shuffled query
//! list, depth-1 point reads, closed-loop new-order writers, pipelined
//! reads, and the paced-writer-beside-reader mix. Every section checks
//! each output it receives.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mmdb_bench::gen::Dataset;
use mmdb_types::Value;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::access::{self, new_order_retrying, Access, At, ReadKey, Wire, CHECK_STAGES, STAGES};
use crate::data::{self, QueryList, ReadKind, ReadOp, TxnOp};
use crate::reference::{check_customer, CustomerState, Oracle};
use crate::spec::{self, TRACE_BLOCK};
use crate::stats;
use crate::trace::{ThreadTrace, NONE};

/// Latency samples in nanoseconds, kept apart by whether spans were being
/// recorded, so a traced run can state what recording cost.
#[derive(Default, Clone)]
pub struct Samples {
    pub off: Vec<u64>,
    pub on: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, traced: bool, ns: u64) {
        if traced {
            self.on.push(ns);
        } else {
            self.off.push(ns);
        }
    }

    pub fn extend(&mut self, other: Samples) {
        self.off.extend(other.off);
        self.on.extend(other.on);
    }

    pub fn all(&self) -> Vec<u64> {
        self.off.iter().chain(&self.on).copied().collect()
    }

    pub fn len(&self) -> usize {
        self.off.len() + self.on.len()
    }

    pub fn p50_us(&self) -> f64 {
        stats::median_ns(&self.all()) / 1e3
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(why());
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

// ---- queries ------------------------------------------------------------------

/// Query latencies of a run. A query's cost depends on its parameter (Q2
/// at the lowest credit threshold costs four times Q2 at the highest), so
/// the median over all samples of a kind would move with how many times
/// each parameter happened to be drawn. Instead each distinct text has its
/// own median over its repeats — which the shuffle spreads over the run —
/// and a kind's latency is the median over its texts.
pub struct QueryLat {
    /// Per query kind, indexed like [`spec::QUERY_NAMES`].
    pub by_kind: [Samples; 5],
    /// Every repeat of each variant, with the round it ran in.
    by_variant: Vec<Vec<(u64, usize)>>,
    /// Per finished round, the factor that turns its times into times at
    /// the reference speed.
    round_factor: Vec<f64>,
}

impl QueryLat {
    pub fn new(list: &QueryList) -> QueryLat {
        QueryLat {
            by_kind: Default::default(),
            by_variant: vec![Vec::new(); list.variants.len()],
            round_factor: Vec::new(),
        }
    }

    /// Close the current round: its samples were taken at `factor`.
    pub fn end_round(&mut self, factor: f64) {
        self.round_factor.push(factor);
    }

    /// Median over the kind's variants of each variant's median repeat,
    /// in microseconds, at the reference speed (`scaled`) or as measured;
    /// `None` if none of them ran.
    pub fn kind_us(&self, list: &QueryList, kind: usize, scaled: bool) -> Option<f64> {
        let mut medians: Vec<f64> = list
            .variants
            .iter()
            .zip(&self.by_variant)
            .filter(|(v, repeats)| v.kind == kind && !repeats.is_empty())
            .map(|(_, repeats)| {
                let mut us: Vec<f64> = repeats
                    .iter()
                    .map(|&(ns, round)| {
                        let factor = if scaled {
                            self.round_factor[round]
                        } else {
                            1.0
                        };
                        ns as f64 * factor / 1e3
                    })
                    .collect();
                stats::median(&mut us)
            })
            .collect();
        (!medians.is_empty()).then(|| stats::median(&mut medians))
    }
}

/// Run operations `range` of the shuffled query list, comparing every
/// result with the oracle.
#[allow(clippy::too_many_arguments)]
pub fn query_section(
    a: &mut dyn Access,
    list: &QueryList,
    range: std::ops::Range<usize>,
    oracle: &Oracle,
    tr: &mut ThreadTrace,
    traced: bool,
    tally: &mut Tally,
    lat: &mut QueryLat,
) {
    for i in range {
        let v = list.ops[i];
        if traced {
            tr.select_block(i, TRACE_BLOCK);
        }
        let variant = &list.variants[v as usize];
        let stages = &STAGES[variant.kind];
        let t0 = Instant::now();
        let root = tr.begin(stages.root, NONE, i as u64);
        let rows = a.query(
            &variant.text,
            stages,
            tr,
            At {
                parent: root,
                op_id: i as u64,
            },
        );
        tr.end(root);
        let ns = elapsed_ns(t0);
        lat.by_kind[variant.kind].push(tr.enabled(), ns);
        lat.by_variant[v as usize].push((ns, lat.round_factor.len()));
        match rows {
            Ok(rows) => tally.record(oracle.matches(v as usize, variant.kind, &rows), || {
                format!("{} returned a wrong result: {}", stages.root, variant.text)
            }),
            Err(e) => tally.record(false, || format!("{}: {e}", stages.root)),
        }
    }
    tr.set_enabled(false);
}

// ---- point reads ----------------------------------------------------------------

pub fn read_key(data: &Dataset, op: ReadOp) -> ReadKey<'_> {
    let i = op.index as usize;
    match op.kind {
        ReadKind::KvGet => ReadKey::Cart(data.carts[i].0),
        ReadKind::GetDocument => ReadKey::Order(&data.orders[i].order_no),
        ReadKind::GetRow => ReadKey::Customer(data.customers[i].id),
    }
}

/// Is `got` what the data set says `op` reads? Holds while nothing has
/// written to the database since it was loaded.
pub fn read_is_correct(data: &Dataset, op: ReadOp, got: &Option<Value>) -> bool {
    let Some(v) = got else { return false };
    let i = op.index as usize;
    match op.kind {
        ReadKind::KvGet => v.as_str().is_ok_and(|s| s == data.carts[i].1),
        ReadKind::GetDocument => {
            let o = &data.orders[i];
            v.get_field("_key").as_str().is_ok_and(|k| k == o.order_no)
                && v.get_field("customer_id")
                    .as_int()
                    .is_ok_and(|c| c == o.customer_id)
                && v.get_field("total").as_int().is_ok_and(|t| t == o.total())
        }
        ReadKind::GetRow => {
            let c = &data.customers[i];
            v.get_field("name").as_str().is_ok_and(|n| n == c.name)
                && v.get_field("credit_limit")
                    .as_int()
                    .is_ok_and(|x| x == c.credit_limit)
        }
    }
}

pub struct ReadOutcome {
    pub lat: Samples,
    /// The same latencies by kind: `KvGet`, `GetDocument`, `GetRow`.
    pub by_kind: [Vec<u64>; 3],
    pub wall_ns: u64,
}

/// The read mix's shares of `KvGet`, `GetDocument`, `GetRow`.
pub const READ_MIX: [f64; 3] = [0.5, 0.25, 0.25];

/// One caller, one read in flight: every read waits for its reply.
/// `ops` is a slice of the run's list starting at operation `base`.
pub fn read_section(
    a: &mut dyn Access,
    ops: &[ReadOp],
    base: usize,
    data: &Dataset,
    tr: &mut ThreadTrace,
    traced: bool,
    tally: &mut Tally,
) -> ReadOutcome {
    let mut lat = Samples::default();
    lat.off.reserve(ops.len());
    let mut by_kind: [Vec<u64>; 3] = Default::default();
    let start = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        let i = base + i;
        if traced {
            tr.select_block(i, TRACE_BLOCK);
        }
        let key = read_key(data, op);
        let t0 = Instant::now();
        let root = tr.begin("read", NONE, i as u64);
        let got = a.read(
            key,
            tr,
            At {
                parent: root,
                op_id: i as u64,
            },
        );
        tr.end(root);
        let ns = elapsed_ns(t0);
        lat.push(tr.enabled(), ns);
        by_kind[key.slot()].push(ns);
        match got {
            Ok(got) => tally.record(read_is_correct(data, op, &got), || {
                format!("wrong read {:?} #{}", op.kind, op.index)
            }),
            Err(e) => tally.record(false, || format!("read: {e}")),
        }
    }
    tr.set_enabled(false);
    ReadOutcome {
        lat,
        by_kind,
        wall_ns: elapsed_ns(start),
    }
}

pub struct PipelinedOutcome {
    pub reads: u64,
    pub wall_ns: u64,
}

/// One thread per connection, each keeping `PIPELINE_WINDOW` tagged reads
/// in flight: submit a window, flush once, receive them all.
pub fn pipelined_section(
    conns: &mut [Wire],
    lists: &[&[ReadOp]],
    base: usize,
    data: &Dataset,
    traces: &mut [ThreadTrace],
    traced: bool,
    tally: &mut Tally,
) -> PipelinedOutcome {
    let barrier = Barrier::new(conns.len());
    let results: Vec<(Instant, Instant, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lists)
            .zip(traces.iter_mut())
            .enumerate()
            .map(|(t, ((conn, list), tr))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut ids = Vec::with_capacity(spec::PIPELINE_WINDOW);
                    barrier.wait();
                    let start = Instant::now();
                    for (w, window) in list.chunks(spec::PIPELINE_WINDOW).enumerate() {
                        let w = base / spec::PIPELINE_WINDOW + w;
                        if traced {
                            tr.select_block(w * spec::PIPELINE_WINDOW, TRACE_BLOCK);
                        }
                        let op_id = ((t as u64) << 40) | w as u64;
                        let root = tr.begin("read.window", NONE, op_id);
                        ids.clear();
                        for &op in window {
                            let h = tr.begin(conn.spans[0], root, op_id);
                            let id = conn
                                .client
                                .submit(&access::read_request(read_key(data, op)));
                            tr.end(h);
                            ids.push(id);
                        }
                        let h = tr.begin(conn.spans[1], root, op_id);
                        let flushed = conn.client.flush();
                        tr.end(h);
                        for (&op, id) in window.iter().zip(ids.drain(..)) {
                            let h = tr.begin(conn.spans[2], root, op_id);
                            let got = match (&flushed, id) {
                                (Ok(()), Ok(id)) => {
                                    conn.client.receive(id).map_err(|e| e.to_string())
                                }
                                (Err(e), _) => Err(e.to_string()),
                                (_, Err(e)) => Err(e.to_string()),
                            };
                            tr.end(h);
                            match got {
                                Ok(mmdb_protocol::Response::Maybe(v)) => tally
                                    .record(read_is_correct(data, op, &v), || {
                                        format!("wrong pipelined read {:?} #{}", op.kind, op.index)
                                    }),
                                Ok(other) => {
                                    tally.record(false, || format!("pipelined read: {other:?}"))
                                }
                                Err(e) => tally.record(false, || format!("pipelined read: {e}")),
                            }
                        }
                        tr.end(root);
                    }
                    tr.set_enabled(false);
                    (start, Instant::now(), tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pipelined reader thread"))
            .collect()
    });
    let (wall_ns, reads) = finish_threads(results, tally);
    PipelinedOutcome { reads, wall_ns }
}

/// Fold per-thread results: wall time from the first start to the last
/// end, tallies merged. Returns `(wall_ns, attempted by these threads)`.
fn finish_threads(results: Vec<(Instant, Instant, Tally)>, tally: &mut Tally) -> (u64, u64) {
    let first = results.iter().map(|r| r.0).min();
    let last = results.iter().map(|r| r.1).max();
    let wall_ns = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
        _ => 0,
    };
    let mut attempted = 0;
    for (_, _, t) in results {
        attempted += t.attempted;
        tally.merge(t);
    }
    (wall_ns, attempted)
}

// ---- new-order transactions -------------------------------------------------------

#[derive(Default)]
pub struct TxnOutcome {
    /// Begin to commit acknowledgement, all writers.
    pub lat: Samples,
    pub wall_ns: u64,
    /// Every acknowledged transaction, per writer in commit order.
    pub acked: Vec<Vec<TxnOp>>,
    pub retries: u64,
    /// Whether every writer got the CPU it asked for.
    pub pinned: bool,
}

/// Closed-loop writers, one thread each, on disjoint customer partitions.
/// Each writer runs its slice of the run's list, starting at `base`.
pub fn txn_section(
    writers: &mut [Box<dyn Access + Send>],
    lists: &[&[TxnOp]],
    base: usize,
    traces: &mut [ThreadTrace],
    traced: bool,
    tally: &mut Tally,
) -> TxnOutcome {
    let barrier = Barrier::new(writers.len());
    type WriterResult = (Instant, Instant, Tally, Samples, Vec<TxnOp>, u64, bool);
    let results: Vec<WriterResult> = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter_mut()
            .zip(lists)
            .zip(traces.iter_mut())
            .enumerate()
            .map(|(w, ((a, list), tr))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut lat = Samples::default();
                    lat.off.reserve(list.len());
                    let mut acked = Vec::with_capacity(list.len());
                    let mut retries = 0u64;
                    // One CPU per writer, so that two writers really run
                    // side by side and every commit hand-over between them
                    // crosses CPUs; left to the kernel they were sometimes
                    // time-sliced on one CPU with no contention at all.
                    let pinned = crate::env::pin_thread(crate::env::HOME_CPU + w);
                    barrier.wait();
                    let start = Instant::now();
                    for (i, &op) in list.iter().enumerate() {
                        let i = base + i;
                        if traced {
                            tr.select_block(i, TRACE_BLOCK);
                        }
                        let op_id = ((w as u64) << 40) | i as u64;
                        let t0 = Instant::now();
                        let root = tr.begin("txn", NONE, op_id);
                        let done = new_order_retrying(
                            a.as_mut(),
                            op,
                            tr,
                            At {
                                parent: root,
                                op_id,
                            },
                        );
                        tr.end(root);
                        lat.push(tr.enabled(), elapsed_ns(t0));
                        match done {
                            Ok(r) => {
                                retries += u64::from(r);
                                acked.push(op);
                                tally.record(true, String::new);
                            }
                            Err(e) => tally.record(false, || format!("new-order {op:?}: {e}")),
                        }
                    }
                    tr.set_enabled(false);
                    (start, Instant::now(), tally, lat, acked, retries, pinned)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let mut out = TxnOutcome {
        pinned: true,
        ..TxnOutcome::default()
    };
    let mut spans = Vec::new();
    for (start, end, t, lat, acked, retries, pinned) in results {
        spans.push((start, end, t));
        out.lat.extend(lat);
        out.acked.push(acked);
        out.retries += retries;
        out.pinned &= pinned;
    }
    out.wall_ns = finish_threads(spans, tally).0;
    out
}

// ---- mixed: paced writer beside a closed-loop reader ----------------------------------

pub struct Checkpoint {
    pub start_ns: u64,
    pub end_ns: u64,
    pub snapshot_bytes: u64,
    pub reclaimed_bytes: u64,
}

#[derive(Default)]
pub struct MixedOutcome {
    /// New-order latency from each transaction's due time.
    pub txn_lat: Samples,
    /// How long after it could have been sent — its due time, or the
    /// previous reply if that came later — each transaction was sent: the
    /// generator's own lateness, not the server's backlog.
    pub late_ns: Vec<u64>,
    pub acked: Vec<TxnOp>,
    pub retries: u64,
    pub checkpoints: Vec<Checkpoint>,
    /// Point reads only.
    pub read_lat: Samples,
    /// The same latencies by kind: cart, order, customer row.
    pub read_by_kind: [Vec<u64>; 3],
    pub check_lat: Samples,
    /// `(start_ns, duration_ns)` of every reader operation.
    pub reader_ops: Vec<(u64, u64)>,
    pub torn_reads: u64,
    pub wall_ns: u64,
}

impl MixedOutcome {
    /// Add a later round's outcome to the run's.
    pub fn absorb(&mut self, round: MixedOutcome) {
        self.txn_lat.extend(round.txn_lat);
        self.late_ns.extend(round.late_ns);
        self.acked.extend(round.acked);
        self.retries += round.retries;
        self.checkpoints.extend(round.checkpoints);
        self.read_lat.extend(round.read_lat);
        for (all, new) in self.read_by_kind.iter_mut().zip(round.read_by_kind) {
            all.extend(new);
        }
        self.check_lat.extend(round.check_lat);
        self.reader_ops.extend(round.reader_ops);
        self.torn_reads += round.torn_reads;
        self.wall_ns += round.wall_ns;
    }
}

fn wait_until(tr: &ThreadTrace, due_ns: u64) {
    // Sleeping, not spinning: the writer shares its CPU with the reader and
    // the server, and a sleeper that wakes some tens of microseconds late
    // pays for it in its own latency, which is timed from the due time.
    let now = tr.now_ns();
    if now < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// What the reader knows about one customer: the order numbers it has
/// already seen in the cart and in the credit row. Neither may go back.
#[derive(Default, Clone)]
struct Seen {
    cart_k: u32,
    credit_k: u32,
    cart_key: Option<String>,
}

/// The reader's memory across the rounds of a run.
#[derive(Default)]
pub struct ReaderState {
    seen: HashMap<i64, Seen>,
    ops: usize,
}

/// Connection W sends new-order transactions on a fixed schedule (open
/// loop, `PACED_TXNS_PER_S`) and a checkpoint every `CHECKPOINT_EVERY`;
/// connection R reads in a closed loop until W is done: 80 % point reads
/// of customers W touched most recently, 20 % the cross-model check
/// query. Runs transactions `range` of the run's list `txns`; both
/// traces must share one epoch.
#[allow(clippy::too_many_arguments)]
pub fn mixed_section(
    w: &mut Wire,
    r: &mut Wire,
    txns: &[TxnOp],
    range: std::ops::Range<usize>,
    data: &Dataset,
    rng: &mut SmallRng,
    state: &mut ReaderState,
    w_trace: &mut ThreadTrace,
    r_trace: &mut ThreadTrace,
    traced: bool,
    tally: &mut Tally,
) -> MixedOutcome {
    let interval_ns = 1_000_000_000 / spec::PACED_TXNS_PER_S;
    let started = AtomicUsize::new(range.start);
    let done = AtomicBool::new(false);
    let first = range.start;
    let barrier = Barrier::new(2);
    let initial_cart: HashMap<i64, &str> =
        data.carts.iter().map(|(c, o)| (*c, o.as_str())).collect();
    let initial_credit: HashMap<i64, i64> = data
        .customers
        .iter()
        .map(|c| (c.id, c.credit_limit))
        .collect();
    let mut out = MixedOutcome::default();
    let mut w_tally = Tally::default();
    let mut r_tally = Tally::default();

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let tr = w_trace;
            barrier.wait();
            let start_ns = tr.now_ns();
            let mut free_ns = start_ns;
            for i in range {
                let op = txns[i];
                if traced {
                    tr.select_block(i, TRACE_BLOCK);
                }
                let op_id = i as u64;
                let due_ns = start_ns + (i - first) as u64 * interval_ns;
                let idle = tr.begin("gen.wait", NONE, op_id);
                wait_until(tr, due_ns);
                tr.end(idle);
                started.store(i + 1, Ordering::SeqCst);
                out.late_ns
                    .push(tr.now_ns().saturating_sub(due_ns.max(free_ns)));
                let root = tr.begin("txn", NONE, op_id);
                let result = new_order_retrying(
                    w,
                    op,
                    tr,
                    At {
                        parent: root,
                        op_id,
                    },
                );
                tr.end(root);
                out.txn_lat
                    .push(tr.enabled(), tr.now_ns().saturating_sub(due_ns));
                match result {
                    Ok(retries) => {
                        out.retries += u64::from(retries);
                        out.acked.push(op);
                        w_tally.record(true, String::new);
                    }
                    Err(e) => w_tally.record(false, || format!("paced new-order {op:?}: {e}")),
                }
                if (i + 1) % spec::CHECKPOINT_EVERY == 0 {
                    let c0 = tr.now_ns();
                    let root = tr.begin("core.checkpoint", NONE, op_id);
                    let result = w.checkpoint();
                    tr.end(root);
                    match result {
                        Ok((snapshot_bytes, reclaimed_bytes)) => {
                            out.checkpoints.push(Checkpoint {
                                start_ns: c0,
                                end_ns: tr.now_ns(),
                                snapshot_bytes,
                                reclaimed_bytes,
                            });
                            w_tally.record(true, String::new);
                        }
                        Err(e) => w_tally.record(false, || format!("checkpoint: {e}")),
                    }
                }
                free_ns = tr.now_ns();
            }
            tr.set_enabled(false);
            done.store(true, Ordering::SeqCst);
            (start_ns, tr.now_ns())
        });

        let reader = s.spawn(|| {
            let tr = r_trace;
            let ReaderState { seen, ops: i } = state;
            let mut read_lat = Samples::default();
            let mut read_by_kind: [Vec<u64>; 3] = Default::default();
            let mut check_lat = Samples::default();
            let mut ops = Vec::new();
            let mut torn = 0u64;
            barrier.wait();
            while !done.load(Ordering::SeqCst) {
                if traced {
                    tr.select_block(*i, TRACE_BLOCK);
                }
                let op_id = (1u64 << 40) | *i as u64;
                *i += 1;
                let sent = started.load(Ordering::SeqCst);
                let back = rng.gen_range(0..spec::RECENT_WINDOW);
                let customer = txns[sent.saturating_sub(1 + back).min(txns.len() - 1)].customer;
                let roll = rng.gen_range(0..20u32);
                let known = seen.entry(customer).or_default();
                let t0 = tr.now_ns();
                if roll >= 16 {
                    let root = tr.begin(CHECK_STAGES.root, NONE, op_id);
                    let rows = r.query(
                        &data::check_text(customer),
                        &CHECK_STAGES,
                        tr,
                        At {
                            parent: root,
                            op_id,
                        },
                    );
                    tr.end(root);
                    let dur = tr.now_ns() - t0;
                    check_lat.push(tr.enabled(), dur);
                    ops.push((t0, dur));
                    match rows.as_deref() {
                        Ok([row]) => {
                            let state = CustomerState {
                                customer,
                                initial_credit: initial_credit[&customer],
                                cart: row.get_field("cart").as_str().ok(),
                                order_present: !row.get_field("order").is_null(),
                                credit: row.get_field("credit").as_int().unwrap_or(i64::MIN),
                            };
                            // A torn read is counted, not failed: the seed
                            // applies a commit store by store with no
                            // barrier a query respects.
                            torn += u64::from(check_customer(&state).is_err());
                            r_tally.record(true, String::new);
                        }
                        Ok(rows) => r_tally.record(false, || {
                            format!("check query returned {} rows", rows.len())
                        }),
                        Err(e) => r_tally.record(false, || format!("check query: {e}")),
                    }
                    continue;
                }
                // Point read: 50 % cart, 25 % the order the cart was last
                // seen pointing at, 25 % the credit row.
                let order_key = known
                    .cart_key
                    .clone()
                    .unwrap_or_else(|| initial_cart[&customer].to_string());
                let key = match roll % 4 {
                    0 | 1 => ReadKey::Cart(customer),
                    2 => ReadKey::Order(&order_key),
                    _ => ReadKey::Customer(customer),
                };
                let root = tr.begin("read", NONE, op_id);
                let got = r.read(
                    key,
                    tr,
                    At {
                        parent: root,
                        op_id,
                    },
                );
                tr.end(root);
                let dur = tr.now_ns() - t0;
                read_lat.push(tr.enabled(), dur);
                read_by_kind[key.slot()].push(dur);
                ops.push((t0, dur));
                // No more of this customer's orders can be visible than W
                // had started by the time the reply arrived.
                let sent_after = started.load(Ordering::SeqCst);
                let limit = txns[..sent_after]
                    .iter()
                    .rev()
                    .find(|t| t.customer == customer)
                    .map_or(0, |t| t.k);
                let verdict: Result<(), String> = match (key, got) {
                    (_, Err(e)) => Err(e.to_string()),
                    (ReadKey::Cart(_), Ok(Some(v))) => match v.as_str() {
                        Ok(cart) => {
                            let k = match data::parse_order_key(cart) {
                                Some((owner, k)) if owner == customer => Some(k),
                                Some(_) => None,
                                None => (cart == initial_cart[&customer]).then_some(0),
                            };
                            match k {
                                Some(k) if k >= known.cart_k && k <= limit => {
                                    known.cart_k = k;
                                    known.cart_key = Some(cart.to_string());
                                    Ok(())
                                }
                                _ => Err(format!(
                                    "cart of {customer} read {cart} (seen {}, sent {limit})",
                                    known.cart_k
                                )),
                            }
                        }
                        Err(_) => Err(format!("cart of {customer} is not a string")),
                    },
                    (ReadKey::Order(k), Ok(Some(v))) => {
                        if v.get_field("customer_id")
                            .as_int()
                            .is_ok_and(|c| c == customer)
                        {
                            Ok(())
                        } else {
                            Err(format!("order {k} does not belong to {customer}"))
                        }
                    }
                    (ReadKey::Customer(_), Ok(Some(v))) => {
                        let charged = initial_credit[&customer]
                            - v.get_field("credit_limit").as_int().unwrap_or(i64::MIN);
                        let k = u32::try_from(charged / spec::ORDER_TOTAL).unwrap_or(u32::MAX);
                        if charged % spec::ORDER_TOTAL == 0 && k >= known.credit_k && k <= limit {
                            known.credit_k = k;
                            Ok(())
                        } else {
                            Err(format!(
                                "credit of {customer}: {charged} charged (seen {}, sent {limit})",
                                known.credit_k
                            ))
                        }
                    }
                    (_, Ok(None)) => {
                        Err(format!("point read of customer {customer} found nothing"))
                    }
                };
                r_tally.record(verdict.is_ok(), || verdict.unwrap_err());
            }
            tr.set_enabled(false);
            (read_lat, read_by_kind, check_lat, ops, torn)
        });

        let (start_ns, end_ns) = writer.join().expect("paced writer thread");
        let (read_lat, read_by_kind, check_lat, ops, torn) = reader.join().expect("reader thread");
        out.read_lat = read_lat;
        out.read_by_kind = read_by_kind;
        out.check_lat = check_lat;
        out.reader_ops = ops;
        out.torn_reads = torn;
        out.wall_ns = end_ns - start_ns;
    });
    tally.merge(w_tally);
    tally.merge(r_tally);
    out
}
