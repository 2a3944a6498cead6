//! What happens after the timed sections, off the clock: the final-state
//! check (before and after a reopen) and the probes that replay a run's
//! own inputs into public functions below the `Database` facade.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use mmdb_bench::gen::Dataset;
use mmdb_core::session::apply_committed;
use mmdb_core::Database;
use mmdb_protocol::{Request, Response};
use mmdb_storage::wal::{Wal, WalRecord};
use mmdb_txn::CommittedWrite;
use mmdb_types::codec::value_to_bytes;
use mmdb_types::{CancelToken, Result};

use crate::access::{Embedded, ReadKey};
use crate::data::{self, LoadOpts, ReadOp, TxnOp, Variant};
use crate::reference::{check_customer, CustomerState};
use crate::sections::{read_key, Tally};
use crate::spec;
use crate::stats;

/// Durability and atomicity of acknowledged writes: every acknowledged
/// order is readable, every cart points at its customer's last
/// acknowledged order, and one MMQL query shows every customer charged
/// for exactly the orders acknowledged.
pub fn verify_final(
    db: &Database,
    data: &Dataset,
    acked: &[&[TxnOp]],
    tally: &mut Tally,
) -> Result<()> {
    let mut count: HashMap<i64, u32> = HashMap::new();
    for op in acked.iter().flat_map(|w| w.iter()) {
        let key = data::order_key(op.customer, op.k);
        let found = db.get_document("orders", &key)?.is_some();
        tally.record(found, || format!("acknowledged order {key} is missing"));
        *count.entry(op.customer).or_default() += 1;
    }
    let credit: HashMap<i64, i64> = db
        .query(data::CREDIT_TEXT)?
        .iter()
        .filter_map(|r| Some((r.get_index(0).as_int().ok()?, r.get_index(1).as_int().ok()?)))
        .collect();
    for c in &data.customers {
        let cart = db.kv().get("cart", &c.id.to_string())?;
        let cart = cart.as_ref().and_then(|v| v.as_str().ok());
        let order_present = match cart {
            Some(key) => db.get_document("orders", key)?.is_some(),
            None => false,
        };
        let state = CustomerState {
            customer: c.id,
            initial_credit: c.credit_limit,
            cart,
            order_present,
            credit: credit.get(&c.id).copied().unwrap_or(i64::MIN),
        };
        let want = count.get(&c.id).copied().unwrap_or(0);
        let got = check_customer(&state);
        tally.record(got == Ok(want), || match got {
            Ok(k) => format!("customer {}: at order {k}, {want} acknowledged", c.id),
            Err(e) => e,
        });
    }
    Ok(())
}

/// `Database::open` on `dir`, timed.
pub fn timed_open(dir: &Path) -> Result<(Database, f64)> {
    let t = Instant::now();
    let db = Database::open(dir)?;
    Ok((db, t.elapsed().as_secs_f64()))
}

fn median_us(samples: &[u64]) -> f64 {
    stats::median_ns(samples) / 1e3
}

pub struct WalProbe {
    pub append_us: f64,
    pub sync_us: f64,
}

/// Replay the run's own record batches — one `Begin .. Commit` block per
/// transaction, as the group-commit leader frames a batch of one — into a
/// scratch log beside the run's data: `append_batch`, then `sync`.
pub fn wal_probe(dir: &Path, sets: &[Vec<CommittedWrite>]) -> Result<WalProbe> {
    std::fs::create_dir_all(dir).map_err(|e| mmdb_types::Error::Storage(e.to_string()))?;
    let path = dir.join("probe.wal");
    let wal = Wal::open(&path)?;
    let (mut append, mut sync) = (
        Vec::with_capacity(sets.len()),
        Vec::with_capacity(sets.len()),
    );
    for (i, set) in sets.iter().enumerate() {
        let txid = i as u64 + 1;
        let mut records = Vec::with_capacity(set.len() + 2);
        records.push(WalRecord::Begin { txid });
        records.extend(set.iter().map(|w| WalRecord::Write {
            txid,
            domain: w.domain.clone(),
            key: w.key.clone(),
            value: w.value.as_ref().map(|v| value_to_bytes(v).to_vec()),
        }));
        records.push(WalRecord::Commit { txid });
        let t = Instant::now();
        wal.append_batch(&records)?;
        append.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        wal.sync()?;
        sync.push(t.elapsed().as_nanos() as u64);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok(WalProbe {
        append_us: median_us(&append),
        sync_us: median_us(&sync),
    })
}

/// `session::apply_committed` on a scratch world loaded like the run's,
/// fed the run's own write sets: the commit hook's share of a commit.
pub fn hook_probe(data: &Dataset, sets: &[Vec<CommittedWrite>]) -> Result<f64> {
    let scratch = Database::in_memory();
    data::load(&scratch, data, LoadOpts::FULL)?;
    let mut samples = Vec::with_capacity(sets.len());
    for set in sets {
        let t = Instant::now();
        apply_committed(scratch.world(), set)?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    Ok(median_us(&samples))
}

#[derive(Default)]
pub struct CodecProbe {
    pub req_encode_ns: f64,
    pub req_decode_ns: f64,
    pub resp_encode_ns: f64,
    pub resp_decode_ns: f64,
    pub req_bytes: f64,
    pub resp_bytes: f64,
}

/// Encode and decode the run's own requests and responses, tagged as the
/// pipelined path tags them.
pub fn codec_probe(requests: &[Request], responses: &[Response]) -> Result<CodecProbe> {
    fn pass<T>(
        items: &[T],
        encode: impl Fn(&T, Option<u64>) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<()>,
    ) -> Result<(f64, f64, f64)> {
        let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0usize);
        for (i, item) in items.iter().enumerate() {
            let t = Instant::now();
            let payload = encode(item, Some(i as u64 + 1));
            enc.push(t.elapsed().as_nanos() as u64);
            bytes += payload.len();
            let t = Instant::now();
            decode(std::hint::black_box(&payload))?;
            dec.push(t.elapsed().as_nanos() as u64);
        }
        let n = items.len().max(1) as f64;
        Ok((
            stats::median_ns(&enc),
            stats::median_ns(&dec),
            bytes as f64 / n,
        ))
    }
    let (req_encode_ns, req_decode_ns, req_bytes) = pass(requests, Request::encode_with_id, |p| {
        Request::decode_with_id(p).map(|r| drop(std::hint::black_box(r)))
    })?;
    let (resp_encode_ns, resp_decode_ns, resp_bytes) =
        pass(responses, Response::encode_with_id, |p| {
            Response::decode_with_id(p).map(|r| drop(std::hint::black_box(r)))
        })?;
    Ok(CodecProbe {
        req_encode_ns,
        req_decode_ns,
        resp_encode_ns,
        resp_decode_ns,
        req_bytes,
        resp_bytes,
    })
}

/// The same keys read embedded: median nanoseconds per `KvGet`,
/// `GetDocument`, `GetRow`, and the responses the reads produced.
pub fn embedded_read_probe(
    db: &Database,
    data: &Dataset,
    ops: &[ReadOp],
) -> Result<([f64; 3], Vec<Response>)> {
    let mut by_kind: [Vec<u64>; 3] = Default::default();
    let mut responses = Vec::with_capacity(ops.len());
    for &op in ops {
        let key: ReadKey = read_key(data, op);
        let t = Instant::now();
        let got = Embedded::point_read(db, key)?;
        let ns = t.elapsed().as_nanos() as u64;
        by_kind[key.slot()].push(ns);
        responses.push(Response::Maybe(got));
    }
    Ok((
        [
            stats::median_ns(&by_kind[0]),
            stats::median_ns(&by_kind[1]),
            stats::median_ns(&by_kind[2]),
        ],
        responses,
    ))
}

#[derive(Default, Clone, Copy)]
pub struct QueryCounts {
    pub rows_examined: f64,
    pub rows_per_result: f64,
    pub full_scans: f64,
    pub top_op_share: f64,
}

/// `ExecStats` of a fixed sample of each query kind's variants: rows
/// produced by all operators, per result row; full store scans; the
/// slowest operator's share of the execution time. Counts repeat exactly
/// for a seed.
pub fn query_counts_probe(db: &Database, variants: &[Variant]) -> Result<[QueryCounts; 5]> {
    /// Variants sampled per kind (the two Q4 forms have one text each).
    const SAMPLE: usize = 8;
    let mut out = [QueryCounts::default(); 5];
    for (kind, slot) in out.iter_mut().enumerate() {
        let sample: Vec<&Variant> = variants
            .iter()
            .filter(|v| v.kind == kind)
            .take(SAMPLE)
            .collect();
        let n = sample.len().max(1) as f64;
        for v in sample {
            let scans_before = db.world().access.full_scans();
            let (_, stats) = db.query_traced_with(&v.text, &CancelToken::none())?;
            let examined: usize = stats.ops.iter().map(|op| op.rows_out).sum();
            let slowest = stats
                .ops
                .iter()
                .map(|op| op.elapsed)
                .max()
                .unwrap_or_default();
            slot.rows_examined += examined as f64 / n;
            slot.rows_per_result += examined as f64 / stats.rows_returned.max(1) as f64 / n;
            slot.full_scans += (db.world().access.full_scans() - scans_before) as f64 / n;
            slot.top_op_share += slowest.as_secs_f64() / stats.total.as_secs_f64().max(1e-12) / n;
        }
    }
    Ok(out)
}

/// The write sets of the first `PROBE_OPS` acknowledged transactions.
pub fn probe_write_sets(data: &Dataset, acked: &[&[TxnOp]]) -> Vec<Vec<CommittedWrite>> {
    let by_id = data::customers_by_id(data);
    acked
        .iter()
        .flat_map(|w| w.iter())
        .take(spec::PROBE_OPS)
        .map(|&op| data::write_set(op, by_id[&op.customer]))
        .collect()
}
