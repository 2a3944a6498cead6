//! One run of one workload: generate inputs from the seed, set up, run the
//! timed sections, check the final state across a reopen, and assemble
//! the metrics.
//!
//! Every workload reports all end-to-end metrics, so every workload runs
//! a query section, a point-read section and a new-order section against
//! the small durable database; what differs is the transport (embedded
//! or TCP), the concurrency, and which section is the *focus* — sized to
//! dominate the run and the only one the per-layer metrics describe. A
//! traced run (`--trace 1`) runs the focus section only.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mmdb_bench::gen::Dataset;
use mmdb_client::Client;
use mmdb_core::Database;
use mmdb_protocol::Request;
use mmdb_server::{Server, ServerConfig};
use mmdb_types::{Error, Result};

use crate::access::{self, Access, At, Embedded, Wire, STAGES};
use crate::data::{self, LoadOpts, QueryList, ReadKind, ReadOp, TxnOp};
use crate::env::{self, DataDirs};
use crate::post;
use crate::reference::Oracle;
use crate::sections::{self, MixedOutcome, Samples, Tally};
use crate::spec::{self, Kind, Workload, QUERY_NAMES};
use crate::stats;
use crate::trace::{self, ThreadTrace, NONE};

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The smoke mode: `setup_s` from the run's own set-up alone.
    pub quick: bool,
}

pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics of an untraced run (at the reference speed),
    /// per-layer metrics of a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Facts about the run for the result file's environment stamp.
    pub info: Vec<(String, String)>,
}

/// A database with, for the wire workloads, its in-process server.
struct Site {
    db: Arc<Database>,
    server: Option<Server>,
    items: usize,
    load_s: f64,
}

impl Site {
    fn start(db: Database, data: &Dataset, opts: LoadOpts, wire: bool) -> Result<Site> {
        let t = Instant::now();
        let items = data::load(&db, data, opts)?;
        let load_s = t.elapsed().as_secs_f64();
        let db = Arc::new(db);
        let server = if wire {
            let config = ServerConfig {
                workers: spec::SERVER_WORKERS,
                ..ServerConfig::default()
            };
            Some(Server::start(Arc::clone(&db), config)?)
        } else {
            None
        };
        Ok(Site {
            db,
            server,
            items,
            load_s,
        })
    }

    fn access(&self) -> Result<Box<dyn Access + Send>> {
        Ok(match &self.server {
            Some(_) => Box::new(self.connect()?),
            None => Box::new(Embedded {
                db: Arc::clone(&self.db),
            }),
        })
    }

    fn connect(&self) -> Result<Wire> {
        let server = self
            .server
            .as_ref()
            .ok_or_else(|| Error::Internal("no server".into()))?;
        Ok(Wire {
            client: Client::connect(server.local_addr())?,
            spans: access::CLIENT_SPANS,
        })
    }

    /// Stop the server and give up the database: afterwards nothing holds
    /// its directory open.
    fn stop(self) -> Result<()> {
        if let Some(server) = self.server {
            server.shutdown()?;
        }
        Arc::try_unwrap(self.db)
            .map(drop)
            .map_err(|_| Error::Internal("database still shared at shutdown".into()))
    }
}

/// One pass of every read-only operation type, so that lazy set-up is
/// over before the clock starts.
fn warm_up(a: &mut dyn Access, queries: Option<&QueryList>, data: &Dataset) -> Result<()> {
    let mut quiet = ThreadTrace::off();
    let at = At {
        parent: NONE,
        op_id: 0,
    };
    if let Some(list) = queries {
        for (kind, stages) in STAGES.iter().enumerate() {
            if let Some(v) = list.variants.iter().find(|v| v.kind == kind) {
                a.query(&v.text, stages, &mut quiet, at)?;
            }
        }
    }
    for kind in [ReadKind::KvGet, ReadKind::GetDocument, ReadKind::GetRow] {
        a.read(
            sections::read_key(data, ReadOp { kind, index: 0 }),
            &mut quiet,
            at,
        )?;
    }
    Ok(())
}

/// The inputs of a run, all derived from the seed.
struct Inputs {
    small: Dataset,
    big: Option<Dataset>,
    queries: QueryList,
    oracle: Oracle,
    reads: Vec<ReadOp>,
    pipelined: Vec<Vec<ReadOp>>,
    txns: Vec<Vec<TxnOp>>,
}

impl Inputs {
    fn generate(args: &Args) -> Result<Inputs> {
        let kind = args.workload.kind;
        let rates = spec::rates(kind);
        let count = |rate: f64| spec::count(rate, args.seconds, 0);
        let small = data::small_dataset();
        let big = (kind == Kind::ReadWireP).then(data::big_dataset);
        let queries = data::query_list(
            &mut data::rng_for(args.seed, 1),
            spec::query_counts(kind, args.seconds),
            small.customers.len(),
        );
        let oracle = Oracle::build(&small, &queries.variants)?;
        let read_space = big.as_ref().unwrap_or(&small);
        let reads = data::read_list(
            &mut data::rng_for(args.seed, 2),
            count(rates.reads),
            read_space,
        );
        let pipelined = (0..spec::GENERATOR_THREADS as u64)
            .map(|t| {
                data::read_list(
                    &mut data::rng_for(args.seed, 10 + t),
                    count(rates.pipelined_reads),
                    read_space,
                )
            })
            .collect();
        let writers = if kind == Kind::TxnC {
            spec::GENERATOR_THREADS
        } else {
            1
        };
        let txns = data::txn_lists(
            &mut data::rng_for(args.seed, 3),
            writers,
            count(rates.txns),
            &small,
        );
        Ok(Inputs {
            small,
            big,
            queries,
            oracle,
            reads,
            pipelined,
            txns,
        })
    }
}

/// The per-layer metrics of a run: every name of the table, 0 until set.
struct Layer(BTreeMap<String, f64>);

impl Layer {
    fn new() -> Layer {
        Layer(
            spec::per_layer()
                .into_iter()
                .map(|m| (m.name, 0.0))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, v: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = v,
            None => panic!("'{name}' is not a per-layer metric"),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Engine counters read before and after the focus section.
struct Counters {
    commits: u64,
    aborts: u64,
    batches: u64,
    pool_hits: u64,
    pool_misses: u64,
    lsm_flushes: u64,
    lsm_compactions: u64,
    wal_tail: u64,
}

impl Counters {
    fn read(db: &Database) -> Counters {
        let (commits, aborts) = db.mvcc().stats();
        let pool = db.world().pool().stats();
        let lsm = db.kv().stats("cart").unwrap_or_default();
        Counters {
            commits,
            aborts,
            batches: db.mvcc().group_commit_stats().batches,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            lsm_flushes: lsm.flushes,
            lsm_compactions: lsm.compactions,
            wal_tail: db.wal().map_or(0, |w| w.tail_lsn()),
        }
    }
}

fn user_bytes(data: &Dataset, acked: &[&[TxnOp]]) -> u64 {
    let by_id = data::customers_by_id(data);
    acked
        .iter()
        .flat_map(|w| w.iter())
        .map(|&op| data::user_bytes(op, by_id[&op.customer]))
        .sum()
}

/// What recording spans cost: per sample group, the difference between
/// the median with spans on and off, weighted by the group's share of
/// the time.
fn overhead_frac(groups: &[&Samples]) -> f64 {
    let (mut extra, mut base) = (0.0, 0.0);
    for g in groups {
        if g.on.is_empty() || g.off.is_empty() {
            continue;
        }
        let (on, off) = (stats::median_ns(&g.on), stats::median_ns(&g.off));
        let n = g.len() as f64;
        extra += n * (on - off);
        base += n * off;
    }
    if base == 0.0 {
        0.0
    } else {
        extra / base
    }
}

fn tail_us(samples: &Samples) -> f64 {
    stats::supported_tail(&samples.all()).1 as f64 / 1e3
}

/// How fast the box is running, against the reference speed.
///
/// This box is a 2-vCPU guest whose speed is not its own. Its core clock
/// moves between 3.3 and 4.1 GHz with what the host's other guests are
/// doing and holds a level for seconds to minutes: whole runs came out 20 %
/// faster than their neighbours, every timing alike. And for minutes at a
/// time something shares the core: every timing reads 30 to 40 % slow while
/// the clock is unchanged. A fixed piece of reference work (`env::Reference`)
/// timed before and after every section of every round gives the speed the
/// section ran at, and `time x REFERENCE_NS / reference time` is the
/// section's time at the reference speed. Over an hour that had both calm
/// and disturbed stretches, the quartile spread of ten runs' values,
/// averaged over all metrics and workloads, fell from 13 % raw to 5 %
/// (worst case 37 % to 16 %); in the calm stretches alone from 8 % to 3 %.
///
/// A traced run reports raw wall time: its spans are not scaled.
struct Speed {
    reference: env::Reference,
    last_ns: f64,
    raw: bool,
    factors: Vec<f64>,
}

impl Speed {
    fn start(raw: bool) -> Speed {
        let mut reference = env::Reference::new();
        let last_ns = if raw { 0.0 } else { reference.run_ns() };
        Speed {
            reference,
            last_ns,
            raw,
            factors: Vec::new(),
        }
    }

    /// The factor that turns a time measured since the previous call (or
    /// since `start`) into time at the reference speed.
    fn lap(&mut self) -> f64 {
        if self.raw {
            return 1.0;
        }
        let now_ns = self.reference.run_ns();
        let factor = spec::REFERENCE_NS / ((self.last_ns + now_ns) / 2.0);
        self.last_ns = now_ns;
        self.factors.push(factor);
        factor
    }
}

/// One value per round for each end-to-end metric that is sampled in
/// rounds, both as measured and at the reference speed; the run reports
/// the median round, so a round the hypervisor took time from does not
/// decide a metric.
#[derive(Default)]
struct Series(BTreeMap<String, Vec<(f64, f64)>>);

impl Series {
    /// A duration measured at `factor`.
    fn time(&mut self, name: &str, v: f64, factor: f64) {
        self.0
            .entry(name.to_string())
            .or_default()
            .push((v, v * factor));
    }

    /// Operations per second measured at `factor`.
    fn rate(&mut self, name: &str, ops: usize, wall_ns: u64, factor: f64) {
        self.time(
            name,
            ops as f64 / (wall_ns.max(1) as f64 / 1e9),
            1.0 / factor,
        );
    }

    /// The round median of `samples`, if the round had any.
    fn p50_us(&mut self, name: &str, samples: &Samples, factor: f64) {
        if samples.len() > 0 {
            self.time(name, samples.p50_us(), factor);
        }
    }

    /// Point reads: a round's median per kind. The mix is half `KvGet`,
    /// so the median of all reads together would sit on the edge between
    /// two kinds and jump from one to the other.
    fn reads(&mut self, by_kind: &[Vec<u64>; 3], factor: f64) {
        for (name, samples) in READ_KINDS.iter().zip(by_kind) {
            if !samples.is_empty() {
                self.time(name, stats::median_ns(samples) / 1e3, factor);
            }
        }
    }

    /// Every series' median round, at the reference speed (`scaled`) or as
    /// measured; `read_p50_us` is the kinds' medians weighted by their
    /// share of the mix.
    fn medians(&self, scaled: bool) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = self
            .0
            .iter()
            .map(|(name, values)| {
                let mut v: Vec<f64> = values
                    .iter()
                    .map(|&(raw, at_reference)| if scaled { at_reference } else { raw })
                    .collect();
                (name.clone(), stats::median(&mut v))
            })
            .collect();
        let kinds: Vec<f64> = READ_KINDS.iter().filter_map(|k| out.remove(*k)).collect();
        if kinds.len() == READ_KINDS.len() {
            out.insert(
                "read_p50_us".into(),
                kinds
                    .iter()
                    .zip(sections::READ_MIX)
                    .map(|(v, share)| v * share)
                    .sum(),
            );
        }
        out
    }
}

/// Series names of the per-kind point-read medians.
const READ_KINDS: [&str; 3] = ["read.kv_get_us", "read.get_document_us", "read.get_row_us"];

/// The slice of a list of `len` operations that round `round` runs.
fn slice_of(len: usize, round: usize) -> std::ops::Range<usize> {
    round * len / spec::ROUNDS..(round + 1) * len / spec::ROUNDS
}

/// The directory `reopen_s` is sampled on: the loaded data set plus
/// `REOPEN_TXNS` committed new-order transactions, closed.
fn prepare_reopen_dir(dir: &std::path::Path, data: &Dataset, seed: u64) -> Result<()> {
    let db = Arc::new(Database::open(dir)?);
    data::load(&db, data, LoadOpts::FULL)?;
    let txns = data::txn_lists(&mut data::rng_for(seed, 6), 1, spec::REOPEN_TXNS, data);
    let mut a = Embedded { db };
    let mut quiet = ThreadTrace::off();
    for &op in &txns[0] {
        a.new_order(
            op,
            &mut quiet,
            At {
                parent: NONE,
                op_id: 0,
            },
        )?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome> {
    let kind = args.workload.kind;
    let wire = matches!(kind, Kind::ReadWireP | Kind::MixedWire);
    let traced = args.trace;
    let focus = |k: Kind| kind == k;
    // Every thread the run starts from here on inherits the CPU, the
    // in-process servers' threads too.
    let mut pinned = env::pin_thread(env::HOME_CPU);
    let dirs = DataDirs::create();
    let inputs = Inputs::generate(args)?;
    let mut tally = Tally::default();
    let mut series = Series::default();
    let mut layer = Layer::new();
    let epoch = Instant::now();
    // Sized for the focus section of the largest workload; grows if needed.
    let new_trace = || ThreadTrace::new(epoch, if traced { 1 << 20 } else { 0 });
    let mut traces = [new_trace(), new_trace()];

    // ---- set-up -------------------------------------------------------------
    // Site A serves queries and point reads and is never written after
    // the load, so every answer can be checked against the data set. Site
    // B takes the new-order transactions. `read_wire_p` adds the big site.
    let rss_before = env::rss_bytes();
    let set_up = |dir: &std::path::Path| -> Result<(Site, Option<Site>)> {
        let small = Site::start(Database::open(dir)?, &inputs.small, LoadOpts::FULL, wire)?;
        warm_up(
            small.access()?.as_mut(),
            Some(&inputs.queries),
            &inputs.small,
        )?;
        let big = match &inputs.big {
            Some(data) => {
                let big = Site::start(Database::in_memory(), data, LoadOpts::READ_ONLY, true)?;
                warm_up(big.access()?.as_mut(), None, data)?;
                Some(big)
            }
            None => None,
        };
        Ok((small, big))
    };
    let mut speed = Speed::start(traced);
    let t = Instant::now();
    let (site_a, big) = set_up(&dirs.fresh("a"))?;
    series.time("setup_s", t.elapsed().as_secs_f64(), speed.lap());
    let dir_b = dirs.fresh("b");
    let site_b = Site::start(Database::open(&dir_b)?, &inputs.small, LoadOpts::FULL, wire)?;
    let reopen_dir = dirs.fresh("reopen");
    if !traced {
        prepare_reopen_dir(&reopen_dir, &inputs.small, args.seed)?;
    }
    let read_site = big.as_ref().unwrap_or(&site_a);
    let read_data = inputs.big.as_ref().unwrap_or(&inputs.small);
    // Where the focus section's engine counters are read.
    let focus_site = match kind {
        Kind::QueryB => &site_a,
        Kind::ReadWireP => read_site,
        Kind::TxnC | Kind::MixedWire => &site_b,
    };
    layer.set(
        "core.load_items_per_s",
        focus_site.items as f64 / focus_site.load_s,
    );

    // ---- rounds -----------------------------------------------------------------
    let mut q_access = site_a.access()?;
    let mut r_access = site_a.access()?;
    let mut depth1 = match kind {
        Kind::ReadWireP => Some(Wire {
            spans: access::DEPTH1_SPANS,
            ..read_site.connect()?
        }),
        _ => None,
    };
    let mut pipelined = match kind {
        Kind::ReadWireP => (0..inputs.pipelined.len())
            .map(|_| read_site.connect())
            .collect::<Result<Vec<_>>>()?,
        _ => Vec::new(),
    };
    let mut writers = (0..inputs.txns.len())
        .map(|_| site_b.access())
        .collect::<Result<Vec<_>>>()?;
    let mut mixed_conns = match kind {
        Kind::MixedWire => Some((site_b.connect()?, site_b.connect()?)),
        _ => None,
    };
    let mut reader_rng = data::rng_for(args.seed, 4);
    let mut reader_state = sections::ReaderState::default();

    let before = Counters::read(&focus_site.db);
    let tail_before = Counters::read(&site_b.db).wal_tail;
    let mut query_lat = sections::QueryLat::new(&inputs.queries);
    let mut read_lat = Samples::default();
    let mut txn_lat = Samples::default();
    let mut acked: Vec<Vec<TxnOp>> = vec![Vec::new(); inputs.txns.len()];
    let mut retries = 0u64;
    let mut mixed = MixedOutcome::default();

    speed.lap();
    for round in 0..spec::ROUNDS {
        if !traced || focus(Kind::QueryB) {
            let range = slice_of(inputs.queries.ops.len(), round);
            sections::query_section(
                q_access.as_mut(),
                &inputs.queries,
                range,
                &inputs.oracle,
                &mut traces[0],
                traced,
                &mut tally,
                &mut query_lat,
            );
        }
        query_lat.end_round(speed.lap());

        let reads = slice_of(inputs.reads.len(), round);
        match kind {
            Kind::QueryB | Kind::TxnC if !traced => {
                let ops = &inputs.reads[reads.clone()];
                let r = sections::read_section(
                    r_access.as_mut(),
                    ops,
                    reads.start,
                    read_data,
                    &mut traces[0],
                    false,
                    &mut tally,
                );
                let f = speed.lap();
                series.rate("reads_per_s", ops.len(), r.wall_ns, f);
                series.reads(&r.by_kind, f);
            }
            Kind::ReadWireP => {
                let ops = &inputs.reads[reads.clone()];
                if let Some(conn) = &mut depth1 {
                    let r = sections::read_section(
                        conn,
                        ops,
                        reads.start,
                        read_data,
                        &mut traces[0],
                        traced,
                        &mut tally,
                    );
                    series.reads(&r.by_kind, speed.lap());
                    read_lat.extend(r.lat);
                }
                let range = slice_of(inputs.pipelined[0].len(), round);
                let slices: Vec<&[ReadOp]> =
                    inputs.pipelined.iter().map(|l| &l[range.clone()]).collect();
                let p = sections::pipelined_section(
                    &mut pipelined,
                    &slices,
                    range.start,
                    read_data,
                    &mut traces,
                    traced,
                    &mut tally,
                );
                series.rate("reads_per_s", p.reads as usize, p.wall_ns, speed.lap());
            }
            _ => {}
        }

        let txns = slice_of(inputs.txns[0].len(), round);
        if let Some((w, r)) = &mut mixed_conns {
            let [w_trace, r_trace] = &mut traces;
            let m = sections::mixed_section(
                w,
                r,
                &inputs.txns[0],
                txns,
                &inputs.small,
                &mut reader_rng,
                &mut reader_state,
                w_trace,
                r_trace,
                traced,
                &mut tally,
            );
            let f = speed.lap();
            // The writer is paced by the wall clock, not by the box's speed.
            series.rate("txns_per_s", m.acked.len(), m.wall_ns, 1.0);
            series.p50_us("txn_p50_us", &m.txn_lat, f);
            series.rate("reads_per_s", m.reader_ops.len(), m.wall_ns, f);
            series.reads(&m.read_by_kind, f);
            acked[0].extend(&m.acked);
            mixed.absorb(m);
        } else if !traced || focus(Kind::TxnC) {
            let slices: Vec<&[TxnOp]> = inputs.txns.iter().map(|l| &l[txns.clone()]).collect();
            let t = sections::txn_section(
                &mut writers,
                &slices,
                txns.start,
                &mut traces,
                traced,
                &mut tally,
            );
            pinned &= t.pinned;
            let done: usize = t.acked.iter().map(Vec::len).sum();
            let f = speed.lap();
            series.rate("txns_per_s", done, t.wall_ns, f);
            series.p50_us("txn_p50_us", &t.lat, f);
            txn_lat.extend(t.lat);
            retries += t.retries;
            for (all, new) in acked.iter_mut().zip(t.acked) {
                all.extend(new);
            }
        }

        if !traced {
            // Samples that are not per operation are spread over the run too.
            if !args.quick && spec::SETUP_ROUNDS.contains(&round) {
                let t = Instant::now();
                let (small, big) = set_up(&dirs.fresh("throwaway"))?;
                series.time("setup_s", t.elapsed().as_secs_f64(), speed.lap());
                small.stop()?;
                if let Some(big) = big {
                    big.stop()?;
                }
                speed.lap();
            }
            if round % 2 == 1 {
                let open_s = post::timed_open(&reopen_dir)?.1;
                series.time("reopen_s", open_s, speed.lap());
            }
        }
    }
    retries += mixed.retries;
    let txn_wal_bytes = Counters::read(&site_b.db).wal_tail - tail_before;
    let rss_after = env::rss_bytes();
    drop((q_access, r_access, depth1, pipelined, writers, mixed_conns));

    // The traced run reads the same keys embedded, through the model
    // stores. The pool and LSM counters cover this probe too: a wire point
    // read is answered from the MVCC version store and never reaches them.
    let probe_ops = data::read_list(&mut data::rng_for(args.seed, 5), spec::PROBE_OPS, read_data);
    let embedded_reads = if traced {
        Some(post::embedded_read_probe(
            &focus_site.db,
            read_data,
            &probe_ops,
        )?)
    } else {
        None
    };
    let after = Counters::read(&focus_site.db);

    let acked: Vec<&[TxnOp]> = acked.iter().map(Vec::as_slice).collect();
    let acked_count: usize = acked.iter().map(|w| w.len()).sum();
    let reopen_writes = if traced { 0 } else { spec::REOPEN_TXNS };
    let items = site_a.items
        + site_b.items
        + big.as_ref().map_or(0, |b| b.items)
        + 4 * (acked_count + reopen_writes);
    let end_to_end = |scaled: bool| {
        let mut out = series.medians(scaled);
        for (kind, name) in QUERY_NAMES.iter().enumerate() {
            if let Some(us) = query_lat.kind_us(&inputs.queries, kind, scaled) {
                out.insert(format!("{name}_p50_us"), us);
            }
        }
        out.insert(
            "rss_bytes_per_item".into(),
            rss_after.saturating_sub(rss_before) as f64 / items as f64,
        );
        out.insert(
            "wal_bytes_per_user_byte".into(),
            txn_wal_bytes as f64 / user_bytes(&inputs.small, &acked).max(1) as f64,
        );
        out
    };
    let e2e = end_to_end(true);

    // ---- per-layer numbers that need the live focus database ------------------------
    if traced {
        let commits = after.commits - before.commits;
        layer.set("txn.commits", commits as f64);
        layer.set("txn.aborts", (after.aborts - before.aborts) as f64);
        layer.set("txn.retries", retries as f64);
        let batches = after.batches - before.batches;
        layer.set("txn.batches", batches as f64);
        if batches > 0 {
            layer.set("txn.batch_mean", commits as f64 / batches as f64);
            layer.set(
                "txn.batch_max",
                focus_site.db.mvcc().group_commit_stats().max_group_size as f64,
            );
        }
        if commits > 0 {
            // The engine syncs once per batch.
            layer.set("txn.syncs_per_txn", batches as f64 / commits as f64);
            layer.set(
                "storage.wal_bytes_per_txn",
                txn_wal_bytes as f64 / commits as f64,
            );
        }
        let (hits, misses) = (
            after.pool_hits - before.pool_hits,
            after.pool_misses - before.pool_misses,
        );
        layer.set("storage.pool_misses", misses as f64);
        if hits + misses > 0 {
            layer.set(
                "storage.pool_hit_rate",
                hits as f64 / (hits + misses) as f64,
            );
        }
        layer.set(
            "storage.lsm_flushes",
            (after.lsm_flushes - before.lsm_flushes) as f64,
        );
        layer.set(
            "storage.lsm_compactions",
            (after.lsm_compactions - before.lsm_compactions) as f64,
        );
        layer.set("storage.fsync_probe_us", env::fsync_probe_us());

        let (read_ns, responses) = embedded_reads.unwrap_or_default();
        layer.set("core.kv_get_ns", read_ns[0]);
        layer.set("core.get_document_ns", read_ns[1]);
        layer.set("core.get_row_ns", read_ns[2]);
        if let Some(server) = &focus_site.server {
            let requests: Vec<Request> = probe_ops
                .iter()
                .map(|&op| access::read_request(sections::read_key(read_data, op)))
                .collect();
            let codec = post::codec_probe(&requests, &responses)?;
            layer.set("protocol.req_encode_ns", codec.req_encode_ns);
            layer.set("protocol.req_decode_ns", codec.req_decode_ns);
            layer.set("protocol.resp_encode_ns", codec.resp_encode_ns);
            layer.set("protocol.resp_decode_ns", codec.resp_decode_ns);
            layer.set("protocol.req_bytes", codec.req_bytes);
            layer.set("protocol.resp_bytes", codec.resp_bytes);
            let m = server.metrics();
            let load = |a: &std::sync::atomic::AtomicU64| {
                a.load(std::sync::atomic::Ordering::Relaxed) as f64
            };
            layer.set(
                "server.op_p50_us",
                m.command("op").latency.percentile_micros(0.5) as f64,
            );
            layer.set(
                "server.op_p99_us",
                m.command("op").latency.percentile_micros(0.99) as f64,
            );
            layer.set(
                "server.commit_p50_us",
                m.command("commit").latency.percentile_micros(0.5) as f64,
            );
            layer.set("server.requests_total", load(&m.requests_total));
            layer.set("server.errors_total", load(&m.errors_total));
            layer.set("server.inflight_peak", m.inflight_requests.peak() as f64);
            layer.set("server.executor_queue_peak", m.executor_queue.peak() as f64);
            layer.set(
                "server.responses_queued_peak",
                m.responses_queued.peak() as f64,
            );
            layer.set("server.depth_stalls", load(&m.pipeline_stalls));
            let point_read = e2e.get("read_p50_us").copied().unwrap_or(0.0);
            let embedded_us = (0.5 * read_ns[0] + 0.25 * read_ns[1] + 0.25 * read_ns[2]) / 1e3;
            let codec_us = (codec.req_encode_ns
                + codec.req_decode_ns
                + codec.resp_encode_ns
                + codec.resp_decode_ns)
                / 1e3;
            layer.set("server.wire_tax_us", point_read - embedded_us - codec_us);
        }
        if focus(Kind::QueryB) {
            let counts = post::query_counts_probe(&site_a.db, &inputs.queries.variants)?;
            for (name, c) in QUERY_NAMES.iter().zip(counts) {
                layer.set(&format!("query.{name}.rows_examined"), c.rows_examined);
                layer.set(&format!("query.{name}.rows_per_result"), c.rows_per_result);
                layer.set(&format!("query.{name}.full_scans"), c.full_scans);
                layer.set(&format!("query.{name}.top_op_share"), c.top_op_share);
            }
        }
    }

    // ---- durability of acknowledged writes: the final state, before and after a reopen --
    post::verify_final(&site_b.db, &inputs.small, &acked, &mut tally)?;
    site_a.stop()?;
    site_b.stop()?;
    if let Some(big) = big {
        big.stop()?;
    }
    let (reopened, open_s) = post::timed_open(&dir_b)?;
    post::verify_final(&reopened, &inputs.small, &acked, &mut tally)?;
    drop(reopened);

    if traced {
        // ---- probes below the facade, off the clock ------------------------------
        layer.set("core.checkpoints", mixed.checkpoints.len() as f64);
        if let Some(last) = mixed.checkpoints.last() {
            let mut durations: Vec<f64> = mixed
                .checkpoints
                .iter()
                .map(|c| (c.end_ns - c.start_ns) as f64 / 1e9)
                .collect();
            layer.set("core.checkpoint_s", stats::median(&mut durations));
            layer.set("core.snapshot_bytes", last.snapshot_bytes as f64);
            let reclaimed: u64 = mixed.checkpoints.iter().map(|c| c.reclaimed_bytes).sum();
            layer.set("storage.wal_reclaimed_bytes", reclaimed as f64);
            layer.set("core.open_snapshot_s", open_s);
        } else {
            layer.set("core.open_replay_s", open_s);
            let (db, _) = post::timed_open(&dir_b)?;
            let t = Instant::now();
            let summary = db.checkpoint()?;
            layer.set("core.checkpoint_s", t.elapsed().as_secs_f64());
            layer.set("core.snapshot_bytes", summary.snapshot_bytes as f64);
            layer.set(
                "storage.wal_reclaimed_bytes",
                summary.wal_bytes_reclaimed as f64,
            );
            drop(db);
            let mut opens = Vec::new();
            for _ in 0..5 {
                opens.push(post::timed_open(&dir_b)?.1);
            }
            layer.set("core.open_snapshot_s", stats::median(&mut opens));
        }
        if acked_count > 0 {
            let sets = post::probe_write_sets(&inputs.small, &acked);
            let wal = post::wal_probe(&dirs.fresh("probe"), &sets)?;
            layer.set("storage.wal_append_us", wal.append_us);
            layer.set("storage.wal_sync_us", wal.sync_us);
            layer.set(
                "core.hook_apply_us",
                post::hook_probe(&inputs.small, &sets)?,
            );
        }

        // ---- spans ------------------------------------------------------------------
        let summary = trace::summarize(&mut traces);
        for name in QUERY_NAMES {
            for stage in ["parse", "plan", "exec"] {
                layer.set(
                    &format!("query.{name}.{stage}_us"),
                    summary.p50_us(&format!("query.{name}.{stage}")),
                );
            }
        }
        layer.set("query.check.exec_us", summary.p50_us("query.check.exec"));
        for span in [
            "txn.begin",
            "txn.stage",
            "txn.commit",
            "document.insert",
            "kv.put",
            "graph.add_edge",
            "relational.get_row",
            "relational.update_row",
        ] {
            layer.set(&format!("{span}_us"), summary.p50_us(span));
        }
        layer.set("client.submit_ns", summary.p50_ns("client.submit"));
        layer.set("client.flush_us", summary.p50_us("client.flush"));
        layer.set(
            "client.receive_wait_us",
            summary.p50_us("client.receive_wait"),
        );
        if acked_count > 0 && !wire {
            // By construction append + sync + hook + rest is the commit
            // span: what is left is the sequencer, validation and version
            // install — and, with two writers, waiting for the other one.
            let rest = layer.get("txn.commit_us")
                - layer.get("storage.wal_append_us")
                - layer.get("storage.wal_sync_us")
                - layer.get("core.hook_apply_us");
            layer.set("txn.commit_rest_us", rest);
        }
        let mut groups: Vec<&Samples> = query_lat.by_kind.iter().collect();
        groups.extend([
            &read_lat,
            &txn_lat,
            &mixed.txn_lat,
            &mixed.read_lat,
            &mixed.check_lat,
        ]);
        layer.set("trace.overhead_frac", overhead_frac(&groups));
        if read_lat.len() > 0 {
            layer.set("client.read_p99_us", tail_us(&read_lat));
        }
        if txn_lat.len() > 0 {
            layer.set("txn.p99_us", tail_us(&txn_lat));
        }
        if focus(Kind::MixedWire) {
            layer.set("txn.p99_us", tail_us(&mixed.txn_lat));
            layer.set("client.txn_p99_us", tail_us(&mixed.txn_lat));
            layer.set("client.read_p99_us", tail_us(&mixed.read_lat));
            layer.set(
                "gen.late_p99_us",
                stats::supported_tail(&mixed.late_ns).1 as f64 / 1e3,
            );
            layer.set("core.torn_reads", mixed.torn_reads as f64);
            let during: Vec<u64> = mixed
                .reader_ops
                .iter()
                .filter(|(start, dur)| {
                    mixed
                        .checkpoints
                        .iter()
                        .any(|c| *start < c.end_ns && start + dur > c.start_ns)
                })
                .map(|&(_, dur)| dur)
                .collect();
            layer.set(
                "core.ckpt_read_p99_us",
                stats::supported_tail(&during).1 as f64 / 1e3,
            );
        }
        layer.set("trace.spans", summary.spans as f64);
        layer.set("trace.coverage", summary.coverage);
        let out = env::results_tmp().join(format!("trace-{}.json", args.workload.name));
        if let Some(parent) = out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&out, trace::to_json(args.workload.name, &summary, &traces))
            .map_err(|e| Error::Storage(format!("write {out:?}: {e}")))?;
    }

    let mut info = vec![
        ("data_fs".to_string(), dirs.data_fs.to_string()),
        (
            "items_loaded".to_string(),
            items
                .saturating_sub(4 * (acked_count + reopen_writes))
                .to_string(),
        ),
        ("txns_acknowledged".to_string(), acked_count.to_string()),
        (
            "query_samples".to_string(),
            inputs.queries.ops.len().to_string(),
        ),
    ];
    // The CPUs the run's threads were pinned to, and whether the kernel
    // agreed every time: if not, wire latencies are back to two regimes.
    let cpus = if kind == Kind::TxnC { "0,1" } else { "0" };
    info.push(("pinned".to_string(), pinned.to_string()));
    info.push(("cpus".to_string(), cpus.to_string()));
    if traced {
        // What the traced run's own clock read for the focus section, to
        // set beside the untraced runs.
        info.extend(
            e2e.iter()
                .map(|(k, v)| (format!("traced.{k}"), v.to_string())),
        );
    } else {
        // Every metric as the clock read it, before the speed correction,
        // and the factors applied: 1 when the box ran at the reference
        // speed, above 1 when faster.
        info.extend(
            end_to_end(false)
                .iter()
                .map(|(k, v)| (format!("raw.{k}"), v.to_string())),
        );
        speed.factors.sort_unstable_by(f64::total_cmp);
        for (name, v) in [
            ("speed_factor_min", speed.factors.first().copied()),
            (
                "speed_factor_median",
                Some(stats::median(&mut speed.factors)),
            ),
            ("speed_factor_max", speed.factors.last().copied()),
        ] {
            info.push((name.to_string(), v.unwrap_or(1.0).to_string()));
        }
    }
    Ok(Outcome {
        tally,
        metrics: if traced { layer.0 } else { e2e },
        info,
    })
}
