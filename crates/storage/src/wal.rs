//! A redo-only write-ahead log with CRC-checked records and recovery.
//!
//! One WAL serves every model — this is the tutorial's "one system
//! implements fault tolerance" argument for multi-model over polyglot
//! persistence: a MongoDB+Neo4j+Redis deployment has three logs and no
//! common recovery point, while mmdb has exactly one.
//!
//! The log is a sequence of records, each framed as
//! `len: u32 | crc32: u32 | payload`. Write records carry a *domain*
//! string (e.g. `"doc/orders"`, `"graph/knows/edge"`) so recovery can route
//! each write back to the owning model. Recovery replays the writes of
//! committed transactions in log order and discards uncommitted tails —
//! including torn final records, which are detected by the CRC. What
//! "committed" means is stated once, by [`BlockAssembler`]; recovery, the
//! replica apply loop and the CDC feed all read the log through it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use mmdb_types::{lock_rank, Error, Result};

use crate::durable_sync;

/// Log sequence number: byte offset of a record in the log.
pub type Lsn = u64;

/// Transaction identifier as recorded in the log.
pub type TxId = u64;

/// A single WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction start.
    Begin { txid: TxId },
    /// A write (`value: None` encodes a delete) in some model domain.
    Write {
        /// Owning transaction.
        txid: TxId,
        /// Routing tag, e.g. `"doc/orders"`.
        domain: String,
        /// Encoded key.
        key: Vec<u8>,
        /// Encoded new value; `None` is a delete.
        value: Option<Vec<u8>>,
    },
    /// Transaction commit — the durability point.
    Commit { txid: TxId },
    /// Checkpoint marker: a consistent snapshot of all engine state as
    /// of `snapshot_lsn` exists (in `mmdb.snapshot`), so recovery may
    /// start here and the log prefix below `snapshot_lsn` may be
    /// truncated. Replicas react by checkpointing locally.
    Checkpoint {
        /// The LSN the snapshot captures — every record below it is
        /// reflected in the snapshot, no record at or past it is.
        snapshot_lsn: Lsn,
    },
}

const T_BEGIN: u8 = 1;
const T_WRITE: u8 = 2;
const T_COMMIT: u8 = 3;
const T_CHECKPOINT: u8 = 5;

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            WalRecord::Begin { txid } => {
                b.push(T_BEGIN);
                b.extend_from_slice(&txid.to_be_bytes());
            }
            WalRecord::Commit { txid } => {
                b.push(T_COMMIT);
                b.extend_from_slice(&txid.to_be_bytes());
            }
            WalRecord::Checkpoint { snapshot_lsn } => {
                b.push(T_CHECKPOINT);
                b.extend_from_slice(&snapshot_lsn.to_be_bytes());
            }
            WalRecord::Write { txid, domain, key, value } => {
                b.push(T_WRITE);
                b.extend_from_slice(&txid.to_be_bytes());
                b.extend_from_slice(&(domain.len() as u32).to_be_bytes());
                b.extend_from_slice(domain.as_bytes());
                b.extend_from_slice(&(key.len() as u32).to_be_bytes());
                b.extend_from_slice(key);
                match value {
                    Some(v) => {
                        b.push(1);
                        b.extend_from_slice(&(v.len() as u32).to_be_bytes());
                        b.extend_from_slice(v);
                    }
                    None => b.push(0),
                }
            }
        }
        b
    }

    fn decode(mut buf: &[u8]) -> Result<WalRecord> {
        let corrupt = || Error::Storage("corrupt WAL record".into());
        let tag = take(&mut buf, 1)?[0];
        let rec = match tag {
            T_BEGIN => WalRecord::Begin { txid: read_u64(&mut buf)? },
            T_COMMIT => WalRecord::Commit { txid: read_u64(&mut buf)? },
            T_CHECKPOINT => WalRecord::Checkpoint { snapshot_lsn: read_u64(&mut buf)? },
            T_WRITE => {
                let txid = read_u64(&mut buf)?;
                let dlen = read_u32(&mut buf)? as usize;
                let domain = std::str::from_utf8(take(&mut buf, dlen)?)
                    .map_err(|_| corrupt())?
                    .to_string();
                let klen = read_u32(&mut buf)? as usize;
                let key = take(&mut buf, klen)?.to_vec();
                let value = if take(&mut buf, 1)? == [1] {
                    let vlen = read_u32(&mut buf)? as usize;
                    Some(take(&mut buf, vlen)?.to_vec())
                } else {
                    None
                };
                WalRecord::Write { txid, domain, key, value }
            }
            _ => return Err(corrupt()),
        };
        if !buf.is_empty() {
            return Err(corrupt());
        }
        Ok(rec)
    }
}

/// Split `len` bytes off the front of `buf`, advancing it.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
    if buf.len() < len {
        return Err(Error::Storage("corrupt WAL record".into()));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

fn read_u64(buf: &mut &[u8]) -> Result<u64> {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(take(buf, 8)?);
    Ok(u64::from_be_bytes(raw))
}

fn read_u32(buf: &mut &[u8]) -> Result<u32> {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(take(buf, 4)?);
    Ok(u32::from_be_bytes(raw))
}

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][b]` is the CRC step of byte `b` followed by
/// `k` zero bytes, so eight lookups advance the CRC by eight bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial), slice-by-8: eight bytes per step,
/// then the tail byte by byte. The engine's one checksum — WAL records,
/// snapshot files and disk pages.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        crc = t[0][byte(crc ^ b as u32, 0)] ^ (crc >> 8);
    }
    !crc
}

enum WalBackend {
    File(File),
    Memory(Vec<u8>),
}

/// Magic opening a truncated ("v2") WAL file. The first four bytes are
/// `0xFFFFFFFF` — an impossible frame length, so a header can never be
/// confused with a legacy headerless log whose first record it would
/// otherwise shadow. The header is [`WAL_HEADER_LEN`] bytes: the magic
/// followed by the file's base LSN as `u64` little-endian.
pub const WAL2_MAGIC: [u8; 8] = [0xFF, 0xFF, 0xFF, 0xFF, b'W', b'A', b'L', b'2'];

/// Size of the v2 file header (magic + base LSN).
pub const WAL_HEADER_LEN: u64 = 16;

/// Parse a v2 header from the start of a log file's bytes. Returns the
/// base LSN when the magic matches, `None` for legacy headerless logs.
pub fn parse_wal_header(data: &[u8]) -> Option<Lsn> {
    if data.len() >= WAL_HEADER_LEN as usize && data[..8] == WAL2_MAGIC {
        Some(u64::from_le_bytes(data[8..16].try_into().unwrap_or([0; 8])))
    } else {
        None
    }
}

fn encode_wal_header(base_lsn: Lsn) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..8].copy_from_slice(&WAL2_MAGIC);
    h[8..].copy_from_slice(&base_lsn.to_le_bytes());
    h
}

/// The write-ahead log.
///
/// LSNs are *logical*: they keep counting monotonically across
/// [`Wal::truncate_below`], which rewrites the file to hold only the
/// suffix at or past a checkpoint horizon. A truncated file starts with
/// a [`WAL2_MAGIC`] header recording its base LSN, and
/// `physical offset = header + (lsn - base)`. Fresh logs are headerless
/// with base 0, so pre-truncation files stay readable unchanged.
pub struct Wal {
    inner: Mutex<WalInner>,
    /// The file path for file-backed logs (`None` in memory) — needed by
    /// [`Wal::truncate_below`] to rewrite-and-rename in place.
    path: Option<PathBuf>,
    /// Logical LSN up to which the log is known durable: the tail as of
    /// the last successful [`Wal::sync`]. Replication streams are capped
    /// here so appended-but-unsynced records (which a crash could still
    /// erase) never reach a replica or change-feed subscriber.
    durable_lsn: std::sync::atomic::AtomicU64,
}

struct WalInner {
    backend: WalBackend,
    /// Next logical LSN to be assigned.
    next_lsn: Lsn,
    /// Logical LSN of the first byte stored in the backend: the last
    /// truncation horizon (0 until the first truncation).
    base_lsn: Lsn,
    /// Physical offset where record data starts: [`WAL_HEADER_LEN`] for
    /// truncated files, 0 for legacy files and the memory backend.
    data_start: u64,
}

impl WalInner {
    /// Physical backend offset of logical LSN `lsn`.
    fn physical(&self, lsn: Lsn) -> u64 {
        self.data_start + (lsn - self.base_lsn)
    }
}

impl Wal {
    /// Open (or create) a file-backed WAL, appending after existing content.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path.as_ref())
            .map_err(|e| Error::Storage(format!("open wal {:?}: {e}", path.as_ref())))?;
        let len = file.metadata().map_err(|e| Error::Storage(e.to_string()))?.len();
        // A truncated log opens with the v2 header; its records' logical
        // LSNs continue from the recorded base.
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        let got = {
            use std::os::unix::fs::FileExt;
            file.read_at(&mut header, 0).map_err(|e| Error::Storage(e.to_string()))?
        };
        let (base_lsn, data_start) = match parse_wal_header(&header[..got]) {
            Some(base) => (base, WAL_HEADER_LEN),
            None => (0, 0),
        };
        let next_lsn = base_lsn + len.saturating_sub(data_start);
        let inner = WalInner { backend: WalBackend::File(file), next_lsn, base_lsn, data_start };
        Ok(Wal {
            inner: Mutex::with_rank(lock_rank::WAL_INNER, inner),
            path: Some(path.as_ref().to_path_buf()),
            // Everything already in the file survived a previous run's
            // syncs (recovery truncated any torn tail before this open).
            durable_lsn: std::sync::atomic::AtomicU64::new(next_lsn),
        })
    }

    /// An in-memory WAL (tests; volatile databases).
    pub fn in_memory() -> Self {
        let inner =
            WalInner { backend: WalBackend::Memory(Vec::new()), next_lsn: 0, base_lsn: 0, data_start: 0 };
        Wal {
            inner: Mutex::with_rank(lock_rank::WAL_INNER, inner),
            path: None,
            durable_lsn: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Append one record, returning its LSN. Not yet durable — call
    /// [`Wal::sync`] (commit does).
    pub fn append(&self, record: &WalRecord) -> Result<Lsn> {
        let payload = record.encode();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        // Failpoint `wal.append`: `short` tears the record mid-frame —
        // the bytes land in the log, so recovery must detect and truncate
        // the torn tail.
        let write_len = match mmdb_fault::eval("wal.append") {
            mmdb_fault::Decision::Proceed => framed.len(),
            mmdb_fault::Decision::Fail(msg) => {
                return Err(Error::Storage(format!("wal append: {msg}")))
            }
            mmdb_fault::Decision::Short => framed.len() / 2,
        };
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        match &mut inner.backend {
            WalBackend::File(f) => f
                .write_all(&framed[..write_len])
                .map_err(|e| Error::Storage(format!("wal append: {e}")))?,
            WalBackend::Memory(v) => v.extend_from_slice(&framed[..write_len]),
        }
        inner.next_lsn += write_len as u64;
        if write_len < framed.len() {
            return Err(Error::Storage("wal append: torn write (injected)".into()));
        }
        Ok(lsn)
    }

    /// Append a run of records as one contiguous write, returning for
    /// each record the LSN just past it (the `next_lsn` a tailer would
    /// see). This is the group-commit path: a commit leader frames every
    /// transaction of its batch into one buffer and lands it with a
    /// single backend write, so the batch occupies one gap-free LSN run
    /// that no concurrent append can interleave.
    ///
    /// Failure atomicity mirrors [`Wal::append`]: an injected `fail` on
    /// `wal.append` rejects the whole batch before any byte lands, and
    /// an injected `short` tears the log at the affected record's frame
    /// (everything framed before it still lands, recovery truncates).
    pub fn append_batch(&self, records: &[WalRecord]) -> Result<Vec<Lsn>> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let mut buf = Vec::new();
        let mut ends = Vec::with_capacity(records.len());
        let mut torn = false;
        for record in records {
            let payload = record.encode();
            // The same `wal.append` failpoint guards every record of the
            // batch, so existing crash schedules (`1in5`, `short`) reach
            // mid-batch offsets too.
            match mmdb_fault::eval("wal.append") {
                mmdb_fault::Decision::Proceed => {}
                mmdb_fault::Decision::Fail(msg) => {
                    return Err(Error::Storage(format!("wal append: {msg}")))
                }
                mmdb_fault::Decision::Short => torn = true,
            }
            let frame_start = buf.len();
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&crc32(&payload).to_le_bytes());
            buf.extend_from_slice(&payload);
            if torn {
                // Same tear as the single-record path: half the frame
                // lands, the rest of the batch never gets framed.
                buf.truncate(frame_start + (payload.len() + 8) / 2);
                break;
            }
            ends.push(buf.len() as u64);
        }
        let mut inner = self.inner.lock();
        let base = inner.next_lsn;
        match &mut inner.backend {
            WalBackend::File(f) => f
                .write_all(&buf)
                .map_err(|e| Error::Storage(format!("wal append: {e}")))?,
            WalBackend::Memory(v) => v.extend_from_slice(&buf),
        }
        inner.next_lsn += buf.len() as u64;
        if torn {
            return Err(Error::Storage("wal append: torn write (injected)".into()));
        }
        Ok(ends.into_iter().map(|e| base + e).collect())
    }

    /// Durably flush appended records.
    pub fn sync(&self) -> Result<()> {
        // Failpoint `wal.sync`: `delay(ms)` models a slow fsync, `error`
        // a failed one.
        mmdb_fault::fail_point!("wal.sync", |msg| Error::Storage(format!("wal fsync: {msg}")));
        let inner = self.inner.lock();
        if let WalBackend::File(f) = &inner.backend {
            durable_sync(f, File::sync_data).map_err(|e| Error::Storage(format!("wal fsync: {e}")))?;
        }
        // Everything appended before this sync is now durable. Published
        // under the inner lock so the watermark never races past a
        // concurrent append it did not cover.
        self.durable_lsn.fetch_max(inner.next_lsn, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }

    /// Next LSN to be assigned (== current log length in bytes).
    pub fn tail_lsn(&self) -> Lsn {
        self.inner.lock().next_lsn
    }

    /// The durable tail: the log length as of the last successful
    /// [`Wal::sync`]. Records at or past this offset may still be lost
    /// to a crash, so replication only ships below it.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Read back the whole log (in-memory backend) — test helper.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let inner = self.inner.lock();
        match &inner.backend {
            WalBackend::Memory(v) => v.clone(),
            WalBackend::File(_) => Vec::new(),
        }
    }

    /// Tail the log: read up to `max_records` CRC-verified records starting
    /// at byte offset `from` (an LSN previously returned by [`Wal::append`],
    /// [`Wal::tail_lsn`] or a prior tail read). This is the replication
    /// feed — a primary streams the result to replicas and change-feed
    /// subscribers, who resume from the last `next_lsn` they saw.
    ///
    /// The scan stops cleanly (no error) at a torn or partial tail record,
    /// exactly like recovery: such bytes only exist transiently between a
    /// failed append and the crash/truncate that follows, and must never be
    /// shipped. Reads never move the append cursor.
    pub fn read_records_from(&self, from: Lsn, max_records: usize) -> Result<Vec<TailedRecord>> {
        /// Per-call read budget: bounds memory when a replica is far
        /// behind. A record larger than the chunk is re-read at its exact
        /// size below, so oversized records slow tailing down rather than
        /// stall it.
        const TAIL_CHUNK: usize = 1 << 20;

        let inner = self.inner.lock();
        let end = inner.next_lsn;
        if from >= end || max_records == 0 {
            return Ok(Vec::new());
        }
        if from < inner.base_lsn {
            return Err(Error::LogTruncated(format!(
                "LSN {from} is below the truncation horizon {}",
                inner.base_lsn
            )));
        }
        let read_chunk = |inner: &WalInner, want: usize| -> Result<Vec<u8>> {
            let at = inner.physical(from);
            match &inner.backend {
                WalBackend::Memory(v) => Ok(v[at as usize..at as usize + want].to_vec()),
                WalBackend::File(f) => {
                    use std::os::unix::fs::FileExt;
                    let mut b = vec![0u8; want];
                    let n = f
                        .read_at(&mut b, at)
                        .map_err(|e| Error::Storage(format!("wal tail read: {e}")))?;
                    b.truncate(n);
                    Ok(b)
                }
            }
        };
        let remaining = (end - from) as usize;
        let mut buf = read_chunk(&inner, remaining.min(TAIL_CHUNK))?;
        // A single record can exceed the chunk (one huge value): re-read
        // with exactly that record's size so the cursor always advances.
        if buf.len() >= 8 {
            let first_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if 8 + first_len > buf.len() && 8 + first_len <= remaining {
                buf = read_chunk(&inner, 8 + first_len)?;
            }
        }
        drop(inner);

        let mut out = Vec::new();
        let mut off = 0usize;
        while out.len() < max_records && buf.len() - off >= 8 {
            let len = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
                as usize;
            let crc =
                u32::from_le_bytes([buf[off + 4], buf[off + 5], buf[off + 6], buf[off + 7]]);
            if buf.len() - off < 8 + len {
                break; // partial frame: either the chunk boundary or a torn tail
            }
            let payload = &buf[off + 8..off + 8 + len];
            if crc32(payload) != crc {
                break; // corrupt tail: stop where recovery would
            }
            let record = match WalRecord::decode(payload) {
                Ok(r) => r,
                Err(_) => break,
            };
            out.push(TailedRecord {
                lsn: from + off as u64,
                next_lsn: from + (off + 8 + len) as u64,
                record,
            });
            off += 8 + len;
        }
        Ok(out)
    }

    /// Physical size of the log in bytes (header included, if any).
    pub fn size_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.data_start + (inner.next_lsn - inner.base_lsn)
    }

    /// The truncation horizon: the lowest logical LSN still present in
    /// the log (0 until the first [`Wal::truncate_below`]).
    pub fn truncated_lsn(&self) -> Lsn {
        self.inner.lock().base_lsn
    }

    /// Append a checkpoint marker carrying `snapshot_lsn` and make it
    /// durable. Returns the marker's LSN.
    pub fn append_checkpoint(&self, snapshot_lsn: Lsn) -> Result<Lsn> {
        // Failpoint `ckpt.marker_append`: the snapshot file exists but
        // the marker never lands — recovery must still be consistent
        // (the snapshot is simply newer than the last marker).
        mmdb_fault::fail_point!("ckpt.marker_append", |msg| Error::Storage(format!(
            "checkpoint marker append: {msg}"
        )));
        let lsn = self.append(&WalRecord::Checkpoint { snapshot_lsn })?;
        self.sync()?;
        Ok(lsn)
    }

    /// Drop the log prefix below `horizon`, keeping LSNs stable: the
    /// suffix is rewritten to a temp file carrying a [`WAL2_MAGIC`]
    /// header with `base = horizon`, fsynced, and atomically renamed
    /// over the log. Returns the number of bytes reclaimed.
    ///
    /// The caller must guarantee `horizon` is record-aligned and at or
    /// below [`Wal::durable_lsn`] — `Database::checkpoint` calls this
    /// under commit quiesce right after a sync, so both hold there. A
    /// crash anywhere inside leaves either the old or the new file,
    /// each a complete, recoverable log.
    pub fn truncate_below(&self, horizon: Lsn) -> Result<u64> {
        // Failpoint `ckpt.wal_truncate`: the checkpoint marker is
        // durable but the prefix survives — recovery just replays more
        // than strictly needed.
        mmdb_fault::fail_point!("ckpt.wal_truncate", |msg| Error::Storage(format!(
            "wal truncate: {msg}"
        )));
        let mut inner = self.inner.lock();
        if horizon <= inner.base_lsn {
            return Ok(0);
        }
        if horizon > inner.next_lsn {
            return Err(Error::Storage(format!(
                "wal truncate horizon {horizon} past tail {}",
                inner.next_lsn
            )));
        }
        let reclaimed = horizon - inner.base_lsn;
        let at = inner.physical(horizon);
        if let WalBackend::Memory(v) = &mut inner.backend {
            v.drain(..reclaimed as usize);
            inner.base_lsn = horizon;
            return Ok(reclaimed);
        }
        let path =
            self.path.as_ref().ok_or_else(|| Error::Storage("file wal has no path".into()))?;
        let suffix = {
            use std::os::unix::fs::FileExt;
            let WalBackend::File(f) = &inner.backend else {
                return Err(Error::Storage("wal truncate: no file backend".into()));
            };
            let want = (inner.next_lsn - horizon) as usize;
            let mut b = vec![0u8; want];
            let mut done = 0;
            while done < want {
                let n = f
                    .read_at(&mut b[done..], at + done as u64)
                    .map_err(|e| Error::Storage(format!("wal truncate read: {e}")))?;
                if n == 0 {
                    return Err(Error::Storage("wal truncate: short read".into()));
                }
                done += n;
            }
            b
        };
        let tmp = path.with_file_name("mmdb.wal.tmp");
        let mut out =
            File::create(&tmp).map_err(|e| Error::Storage(format!("wal truncate tmp: {e}")))?;
        out.write_all(&encode_wal_header(horizon))
            .and_then(|()| out.write_all(&suffix))
            .and_then(|()| durable_sync(&out, File::sync_all))
            .map_err(|e| Error::Storage(format!("wal truncate write: {e}")))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| Error::Storage(format!("wal truncate rename: {e}")))?;
        // The rename is what makes the truncation visible after a crash,
        // so fsync the directory too (best-effort), then point the live
        // handle at the new inode.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = durable_sync(&d, File::sync_all);
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::Storage(format!("wal truncate reopen: {e}")))?;
        inner.backend = WalBackend::File(file);
        inner.base_lsn = horizon;
        inner.data_start = WAL_HEADER_LEN;
        Ok(reclaimed)
    }
}

/// One record surfaced by [`Wal::read_records_from`], with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailedRecord {
    /// Byte offset where this record's frame starts.
    pub lsn: Lsn,
    /// Byte offset just past this record — resume tailing here.
    pub next_lsn: Lsn,
    /// The decoded record.
    pub record: WalRecord,
}

/// One logged write: the *encoded* shape of a write, as the WAL, the
/// snapshot file and the replication stream all carry it. Its decoded
/// twin is `mmdb_txn::CommittedWrite` (DESIGN.md "A transaction's road").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedWrite {
    /// Model routing tag, e.g. `"doc/orders"`.
    pub domain: String,
    /// Encoded key.
    pub key: Vec<u8>,
    /// Encoded new value; `None` is a delete.
    pub value: Option<Vec<u8>>,
}

/// One whole committed transaction, as [`BlockAssembler`] releases it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedBlock {
    /// The transaction id the block was logged under. Not unique across
    /// restarts (the counter restarts at 1 on every open), so it names a
    /// block only while that block is open.
    pub txid: TxId,
    /// LSN just past the block's `Commit` record — a safe resume point.
    pub end_lsn: Lsn,
    /// The block's writes, in log order.
    pub writes: Vec<LoggedWrite>,
}

/// Turns a record stream back into committed transactions. This is the
/// one statement of what "committed" means in the log, shared by
/// recovery, the replica apply loop and the CDC feed:
///
/// A block is `Begin{t} Write{t}* Commit{t}`, and it is committed iff its
/// own `Commit` follows its `Begin` with no other `Begin` between. Blocks
/// are appended whole under the commit mutex, so a `Begin` while a block
/// is open means that block is an orphan (a torn batch, a crash) whose
/// `Commit` never made it; a later `Commit` carrying the same txid belongs
/// to a later incarnation's block, not to the orphan. Records naming any
/// other transaction, and checkpoint markers, leave the open block alone.
#[derive(Debug, Default)]
pub struct BlockAssembler {
    open: Option<(TxId, Vec<LoggedWrite>)>,
}

impl BlockAssembler {
    /// Feed the next record and the LSN just past it; returns the
    /// transaction that record committed, if it committed one.
    pub fn push(&mut self, record: WalRecord, end_lsn: Lsn) -> Option<CommittedBlock> {
        let open_txid = self.open.as_ref().map(|(txid, _)| *txid);
        match record {
            WalRecord::Begin { txid } => self.open = Some((txid, Vec::new())),
            WalRecord::Write { txid, domain, key, value } if open_txid == Some(txid) => {
                if let Some((_, writes)) = &mut self.open {
                    writes.push(LoggedWrite { domain, key, value });
                }
            }
            WalRecord::Commit { txid } if open_txid == Some(txid) => {
                let (txid, writes) = self.open.take()?;
                return Some(CommittedBlock { txid, end_lsn, writes });
            }
            // Another transaction's record, or a checkpoint marker.
            _ => {}
        }
        None
    }

    /// True between a `Begin` and the record that closes its block: the
    /// stream position is mid-transaction and not a safe resume point.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }
}

/// Outcome of scanning a log for recovery.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Writes of committed transactions (see [`BlockAssembler`]), in log
    /// order, starting at the last checkpoint.
    pub redo: Vec<LoggedWrite>,
    /// Records dropped because the log ended mid-record (torn write).
    pub torn_tail: bool,
    /// *Physical* byte length of the valid log prefix (v2 header
    /// included). When `torn_tail` is set the caller should truncate the
    /// log file to this length before appending, or later appends would
    /// hide behind the corruption and be lost by the next recovery.
    pub valid_len: u64,
    /// The file's truncation horizon: logical LSN of its first record
    /// (0 for never-truncated logs). A base above 0 means a checkpoint
    /// snapshot must exist — the prefix it replaced is gone.
    pub base_lsn: Lsn,
}

/// Scan record bytes (no file header) whose first byte sits at logical
/// LSN `base`, skipping committed blocks that end at or below `min_lsn` —
/// those are already captured by the snapshot the caller loaded.
/// `valid_len` in the result counts only the bytes of `data`.
fn recover_scan(data: &[u8], base: Lsn, min_lsn: Lsn) -> Recovery {
    let mut blocks = BlockAssembler::default();
    let mut redo = Vec::new();
    let mut torn = false;
    let mut valid_len = 0u64;
    let mut rest = data;
    while rest.len() >= 8 {
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if rest.len() < 8 + len {
            torn = true;
            break;
        }
        let payload = &rest[8..8 + len];
        let intact = (crc32(payload) == crc).then(|| WalRecord::decode(payload).ok()).flatten();
        let Some(record) = intact else {
            // Corrupt record: everything after it is untrustworthy.
            torn = true;
            break;
        };
        valid_len += 8 + len as u64;
        // Replay starts at the last checkpoint marker.
        if matches!(record, WalRecord::Checkpoint { .. }) {
            redo.clear();
        }
        // Skip blocks the snapshot already reflects: replay is not
        // idempotent for every model (graph edges accumulate). Blocks are
        // appended whole and a checkpoint quiesces commits, so a block
        // never straddles the snapshot LSN.
        if let Some(block) = blocks.push(record, base + valid_len) {
            if block.end_lsn > min_lsn {
                redo.extend(block.writes);
            }
        }
        rest = &rest[8 + len..];
    }
    if !rest.is_empty() && rest.len() < 8 {
        torn = true;
    }
    Recovery { redo, torn_tail: torn, valid_len, base_lsn: base }
}

/// Scan raw headerless log bytes and compute the redo set.
pub fn recover_from_bytes(full: &[u8]) -> Recovery {
    recover_scan(full, 0, 0)
}

/// Recover from a file-backed log, skipping committed writes at or below
/// `min_lsn` (the loaded snapshot's LSN; pass 0 without a snapshot). The
/// file may be a legacy headerless log or a truncated v2 log.
pub fn recover_from_file_after(path: impl AsRef<Path>, min_lsn: Lsn) -> Result<Recovery> {
    let mut data = Vec::new();
    match File::open(path.as_ref()) {
        Ok(mut f) => {
            f.read_to_end(&mut data)
                .map_err(|e| Error::Storage(format!("read wal: {e}")))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(Error::Storage(format!("open wal: {e}"))),
    }
    let (body, base, header_len) = match parse_wal_header(&data) {
        Some(base) => (&data[WAL_HEADER_LEN as usize..], base, WAL_HEADER_LEN),
        None => (&data[..], 0, 0),
    };
    let mut rec = recover_scan(body, base, min_lsn);
    rec.valid_len += header_len;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(txid: TxId, key: &str, val: Option<&str>) -> WalRecord {
        WalRecord::Write {
            txid,
            domain: "doc/orders".into(),
            key: key.as_bytes().to_vec(),
            value: val.map(|v| v.as_bytes().to_vec()),
        }
    }

    #[test]
    fn record_encode_decode_roundtrip() {
        for r in [
            WalRecord::Begin { txid: 7 },
            WalRecord::Commit { txid: 7 },
            WalRecord::Checkpoint { snapshot_lsn: 0 },
            WalRecord::Checkpoint { snapshot_lsn: 123_456_789 },
            w(7, "k1", Some("v1")),
            w(7, "k2", None),
        ] {
            assert_eq!(WalRecord::decode(&r.encode()).unwrap(), r);
        }
        // A checkpoint marker without its snapshot LSN is corrupt.
        assert!(WalRecord::decode(&[T_CHECKPOINT]).is_err());
        // Tag 4 (the retired `Abort`) is as unknown as any other.
        assert!(WalRecord::decode(&[4, 0, 0, 0, 0, 0, 0, 0, 9]).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn committed_writes_are_redone_uncommitted_discarded() {
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "a", Some("1"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.append(&WalRecord::Begin { txid: 2 }).unwrap();
        wal.append(&w(2, "b", Some("2"))).unwrap();
        // txn 2 never commits.
        let rec = recover_from_bytes(&wal.snapshot_bytes());
        assert_eq!(rec.redo.len(), 1);
        assert_eq!(rec.redo[0].key, b"a");
        assert!(!rec.torn_tail);
    }

    #[test]
    fn an_orphan_block_is_not_adopted_by_a_later_commit_of_the_same_txid() {
        // A torn batch leaves `Begin{1} Write{1}` behind; the next
        // incarnation restarts its txid counter and commits its own txid 1.
        // That Commit closes the block its own Begin opened, not the orphan.
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "orphan", Some("x"))).unwrap();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "real", Some("y"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        let rec = recover_from_bytes(&wal.snapshot_bytes());
        let keys: Vec<&[u8]> = rec.redo.iter().map(|r| r.key.as_slice()).collect();
        assert_eq!(keys, [b"real".as_slice()]);

        // Record by record: what the replica loop and the CDC feed see.
        let mut blocks = BlockAssembler::default();
        let tailed = wal.read_records_from(0, usize::MAX).unwrap();
        let released: Vec<CommittedBlock> =
            tailed.into_iter().filter_map(|t| blocks.push(t.record, t.next_lsn)).collect();
        assert!(!blocks.is_open(), "the Commit closed the block");
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].end_lsn, wal.tail_lsn());
        assert_eq!(released[0].writes, rec.redo);
        // A Commit nobody opened a block for releases nothing.
        assert_eq!(blocks.push(WalRecord::Commit { txid: 1 }, 0), None);
    }

    #[test]
    fn aborted_txn_is_not_a_loser() {
        // An aborted block never commits; the next transaction's Begin
        // supersedes it, and that transaction's Commit releases only its own.
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 3 }).unwrap();
        wal.append(&w(3, "x", Some("v"))).unwrap();
        wal.append(&WalRecord::Begin { txid: 4 }).unwrap();
        wal.append(&w(4, "y", Some("v"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 4 }).unwrap();
        let rec = recover_from_bytes(&wal.snapshot_bytes());
        let keys: Vec<&[u8]> = rec.redo.iter().map(|r| r.key.as_slice()).collect();
        assert_eq!(keys, [b"y".as_slice()]);
    }

    #[test]
    fn checkpoint_truncates_replay() {
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "old", Some("x"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        wal.append(&WalRecord::Checkpoint { snapshot_lsn: wal.tail_lsn() }).unwrap();
        wal.append(&WalRecord::Begin { txid: 2 }).unwrap();
        wal.append(&w(2, "new", Some("y"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 2 }).unwrap();
        let rec = recover_from_bytes(&wal.snapshot_bytes());
        assert_eq!(rec.redo.len(), 1);
        assert_eq!(rec.redo[0].key, b"new");
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "a", Some("1"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        let mut bytes = wal.snapshot_bytes();
        let full = recover_from_bytes(&bytes);
        assert_eq!(full.redo.len(), 1);
        // Simulate a crash mid-write of a subsequent record.
        let good_len = bytes.len() as u64;
        bytes.extend_from_slice(&[20, 0, 0, 0, 0xAA, 0xBB]);
        let rec = recover_from_bytes(&bytes);
        assert!(rec.torn_tail);
        assert_eq!(rec.redo.len(), 1, "prefix remains recoverable");
        assert_eq!(rec.valid_len, good_len, "valid_len marks the truncation point");
        assert!(!full.torn_tail);
        assert_eq!(full.valid_len, good_len);
    }

    #[test]
    fn corrupt_crc_stops_replay_at_corruption() {
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "a", Some("1"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        let mut bytes = wal.snapshot_bytes();
        // Flip a payload byte of the *middle* record.
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        let rec = recover_from_bytes(&bytes);
        assert!(rec.torn_tail);
        // The commit follows the corruption, so nothing can be redone.
        assert!(rec.redo.is_empty());
    }

    #[test]
    fn file_backed_wal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
            wal.append(&w(1, "persist", Some("yes"))).unwrap();
            wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
            wal.sync().unwrap();
        }
        let rec = recover_from_file_after(&path, 0).unwrap();
        assert_eq!(rec.redo.len(), 1);
        assert_eq!(rec.redo[0].domain, "doc/orders");
        // Appending after reopen extends, not truncates.
        {
            let wal = Wal::open(&path).unwrap();
            assert!(wal.tail_lsn() > 0);
            wal.append(&WalRecord::Begin { txid: 2 }).unwrap();
            wal.append(&w(2, "more", Some("data"))).unwrap();
            wal.append(&WalRecord::Commit { txid: 2 }).unwrap();
            wal.sync().unwrap();
        }
        let rec = recover_from_file_after(&path, 0).unwrap();
        assert_eq!(rec.redo.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_of_missing_file_is_empty() {
        let rec = recover_from_file_after("/nonexistent/path/to.wal", 0).unwrap();
        assert!(rec.redo.is_empty());
        assert!(!rec.torn_tail);
    }

    #[test]
    fn tailing_reads_records_and_resumes_by_lsn() {
        let wal = Wal::in_memory();
        let l1 = wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "a", Some("1"))).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        assert_eq!(l1, 0);

        let all = wal.read_records_from(0, usize::MAX).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].record, WalRecord::Begin { txid: 1 });
        assert_eq!(all[2].record, WalRecord::Commit { txid: 1 });
        assert_eq!(all[2].next_lsn, wal.tail_lsn());

        // Resume from a mid-log LSN: only subsequent records arrive.
        let rest = wal.read_records_from(all[0].next_lsn, usize::MAX).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].lsn, all[1].lsn);

        // A tail read at the end is empty, not an error.
        assert!(wal.read_records_from(wal.tail_lsn(), usize::MAX).unwrap().is_empty());

        // max_records bounds the batch; next_lsn chains across batches.
        let one = wal.read_records_from(0, 1).unwrap();
        assert_eq!(one.len(), 1);
        let two = wal.read_records_from(one[0].next_lsn, 1).unwrap();
        assert_eq!(two[0].record, all[1].record);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn tailing_stops_cleanly_at_a_torn_tail() {
        mmdb_fault::clear_all();
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();

        // Tear the next record mid-frame: the bytes land in the log, so the
        // tail scan must stop at them without erroring — exactly where
        // recovery would truncate.
        mmdb_fault::set("wal.append", "short").unwrap();
        assert!(wal.append(&w(1, "torn", Some("x"))).is_err());
        mmdb_fault::clear_all();

        let tailed = wal.read_records_from(0, usize::MAX).unwrap();
        assert_eq!(tailed.len(), 2, "only intact records are served");
        assert!(tailed[1].next_lsn < wal.tail_lsn(), "torn bytes are never shipped");
        let rec = recover_from_bytes(&wal.snapshot_bytes());
        assert!(rec.torn_tail);
        assert_eq!(rec.valid_len, tailed[1].next_lsn, "tail stops where recovery truncates");
    }

    #[test]
    fn batch_append_is_contiguous_and_byte_identical_to_serial() {
        // The same records appended one-by-one and as a batch must
        // produce identical bytes and identical per-record offsets —
        // recovery and tailing cannot tell the two paths apart.
        let records = vec![
            WalRecord::Begin { txid: 1 },
            w(1, "a", Some("1")),
            WalRecord::Commit { txid: 1 },
            WalRecord::Begin { txid: 2 },
            w(2, "b", None),
            WalRecord::Commit { txid: 2 },
        ];
        let serial = Wal::in_memory();
        for r in &records {
            serial.append(r).unwrap();
        }
        let batched = Wal::in_memory();
        let ends = batched.append_batch(&records).unwrap();
        assert_eq!(serial.snapshot_bytes(), batched.snapshot_bytes());
        assert_eq!(ends.len(), records.len());
        let tailed = batched.read_records_from(0, usize::MAX).unwrap();
        for (t, end) in tailed.iter().zip(&ends) {
            assert_eq!(t.next_lsn, *end, "per-record end offsets line up with tailing");
        }
        assert_eq!(*ends.last().unwrap(), batched.tail_lsn());
        assert!(batched.append_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn sync_advances_the_durable_watermark() {
        let wal = Wal::in_memory();
        assert_eq!(wal.durable_lsn(), 0);
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        assert_eq!(wal.durable_lsn(), 0, "appended but unsynced is not durable");
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn());
        wal.append_batch(&[w(1, "k", Some("v")), WalRecord::Commit { txid: 1 }]).unwrap();
        assert!(wal.durable_lsn() < wal.tail_lsn());
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn());
    }

    #[test]
    fn reopened_wal_treats_existing_content_as_durable() {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
            wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
            wal.sync().unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn(), "recovered prefix is durable history");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn batch_append_failures_are_atomic_or_tear_like_serial_appends() {
        // `fail`: the whole batch is rejected before any byte lands.
        mmdb_fault::clear_all();
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        let intact = wal.snapshot_bytes();
        mmdb_fault::set("wal.append", "error").unwrap();
        assert!(wal
            .append_batch(&[WalRecord::Begin { txid: 2 }, WalRecord::Commit { txid: 2 }])
            .is_err());
        assert_eq!(wal.snapshot_bytes(), intact, "a failed batch leaves no trace");

        // `short`: the armed record tears mid-frame and the rest of the
        // batch is never framed; recovery and tailing both stop at the
        // intact prefix.
        mmdb_fault::set("wal.append", "short").unwrap();
        assert!(wal
            .append_batch(&[
                WalRecord::Begin { txid: 10 },
                w(10, "k", Some("v")),
                WalRecord::Commit { txid: 10 },
            ])
            .is_err());
        mmdb_fault::clear_all();
        let rec = recover_from_bytes(&wal.snapshot_bytes());
        assert!(rec.torn_tail);
        let tailed = wal.read_records_from(0, usize::MAX).unwrap();
        assert_eq!(
            tailed.last().unwrap().next_lsn,
            rec.valid_len,
            "tailing stops exactly where recovery truncates"
        );
    }

    #[test]
    fn tailing_works_on_a_file_backed_wal() {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { txid: 5 }).unwrap();
        wal.append(&w(5, "k", Some("v"))).unwrap();
        let commit_lsn = wal.append(&WalRecord::Commit { txid: 5 }).unwrap();
        wal.sync().unwrap();

        let tailed = wal.read_records_from(0, usize::MAX).unwrap();
        assert_eq!(tailed.len(), 3);
        assert_eq!(tailed[2].lsn, commit_lsn);
        assert_eq!(tailed[2].next_lsn, wal.tail_lsn());

        // Tailing does not disturb the append cursor.
        wal.append(&WalRecord::Checkpoint { snapshot_lsn: 0 }).unwrap();
        let more = wal.read_records_from(tailed[2].next_lsn, usize::MAX).unwrap();
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].record, WalRecord::Checkpoint { snapshot_lsn: 0 });
        let _ = std::fs::remove_file(&path);
    }

    /// Append a committed txn and return the logical tail afterwards.
    fn commit_one(wal: &Wal, txid: TxId, key: &str) -> Lsn {
        wal.append(&WalRecord::Begin { txid }).unwrap();
        wal.append(&w(txid, key, Some("v"))).unwrap();
        wal.append(&WalRecord::Commit { txid }).unwrap();
        wal.sync().unwrap();
        wal.tail_lsn()
    }

    #[test]
    fn truncate_keeps_lsns_stable_in_memory() {
        let wal = Wal::in_memory();
        let h = commit_one(&wal, 1, "old");
        let tail = commit_one(&wal, 2, "new");
        let before = wal.read_records_from(h, usize::MAX).unwrap();
        let reclaimed = wal.truncate_below(h).unwrap();
        assert_eq!(reclaimed, h);
        assert_eq!(wal.truncated_lsn(), h);
        assert_eq!(wal.tail_lsn(), tail, "logical tail is unchanged");
        // Reads at or past the horizon are byte-identical to before.
        assert_eq!(wal.read_records_from(h, usize::MAX).unwrap(), before);
        // Reads below it are a typed error.
        assert!(matches!(
            wal.read_records_from(0, usize::MAX),
            Err(Error::LogTruncated(_))
        ));
        // Truncating at or below the horizon is a no-op.
        assert_eq!(wal.truncate_below(h).unwrap(), 0);
    }

    #[test]
    fn truncated_file_reopens_with_stable_lsns() {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mmdb.wal");
        let _ = std::fs::remove_file(&path);
        let (h, tail, suffix) = {
            let wal = Wal::open(&path).unwrap();
            let h = commit_one(&wal, 1, "old");
            let tail = commit_one(&wal, 2, "new");
            let size_before = wal.size_bytes();
            assert_eq!(wal.truncate_below(h).unwrap(), h);
            assert!(wal.size_bytes() < size_before, "the file shrank");
            (h, tail, wal.read_records_from(h, usize::MAX).unwrap())
        };
        // Reopen: header restores the base, logical LSNs keep counting.
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.truncated_lsn(), h);
        assert_eq!(wal.tail_lsn(), tail);
        assert_eq!(wal.durable_lsn(), tail);
        assert_eq!(wal.read_records_from(h, usize::MAX).unwrap(), suffix);
        // Appends after reopen continue the logical sequence and the
        // recovery scan reports the base.
        let tail2 = commit_one(&wal, 3, "more");
        assert!(tail2 > tail);
        let rec = recover_from_file_after(&path, 0).unwrap();
        assert_eq!(rec.base_lsn, h);
        assert_eq!(rec.redo.len(), 2, "only records past the horizon remain");
        assert_eq!(rec.valid_len, wal.size_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_filters_redo_below_the_snapshot_lsn() {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mmdb.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::open(&path).unwrap();
        let s = commit_one(&wal, 1, "snapshotted");
        commit_one(&wal, 2, "replayed");
        // Snapshot at `s`, but no marker and no truncation (the crash
        // windows between snapshot rename and marker append): recovery
        // must skip everything the snapshot already holds.
        let rec = recover_from_file_after(&path, s).unwrap();
        assert_eq!(rec.redo.len(), 1);
        assert_eq!(rec.redo[0].key, b"replayed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_checkpoint_is_durable_and_carries_the_lsn() {
        let wal = Wal::in_memory();
        let s = commit_one(&wal, 1, "a");
        wal.append_checkpoint(s).unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn(), "marker is synced");
        let tailed = wal.read_records_from(s, usize::MAX).unwrap();
        assert_eq!(tailed.len(), 1);
        assert_eq!(tailed[0].record, WalRecord::Checkpoint { snapshot_lsn: s });
    }
}
