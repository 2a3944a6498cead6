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
//! each write back to the owning model. Recovery folds the writes of
//! committed transactions in log order and discards uncommitted tails —
//! including torn final records, which are detected by the CRC. Every
//! reader takes the log's bytes apart with one scanner, [`records`], and
//! what "committed" means is stated once, by [`BlockAssembler`]: recovery,
//! the checkpoint, a tailing read, a replica's landing and the CDC feed
//! all read the log through both. Recovery and the checkpoint share one
//! more step: one chunked read of the log into one [`Fold`], which keeps
//! each key's newest write and never the history. The bytes themselves
//! are the replication format: a replica lands its primary's exactly as
//! they arrive ([`Wal::append_at`]). The log is also its own snapshot: a
//! checkpoint ([`Wal::fold_prefix`]) rewrites its prefix as one block
//! holding the prefix's fold, the state recovery installs, through the
//! same rewrite a reset, a copy's first local append and a header upgrade
//! at open use.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use mmdb_types::{lock_rank, Error, Result};

use crate::durable_sync;

/// Log sequence number: byte offset of a record in the log.
pub type Lsn = u64;

/// Transaction identifier as recorded in the log.
pub type TxId = u64;

/// A `Write` record's parts, borrowed: domain, encoded key, and encoded
/// value (`None` is a delete). What [`Wal::append_blocks`] frames.
pub type WriteParts<'a> = (&'a str, &'a [u8], Option<&'a [u8]>);

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
    /// Checkpoint marker: the log's prefix below `snapshot_lsn` has been
    /// folded into an image block. Recovery ignores it; replicas react by
    /// checkpointing locally.
    Checkpoint {
        /// The checkpoint's horizon: every committed block below it is
        /// in the image, no record at or past it is.
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
                encode_write(&mut b, *txid, domain, key, value.as_deref())
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

/// The payload of a `Write` record, from borrowed parts: the checkpoint
/// image encodes the writes it folded without copying them into records.
fn encode_write(b: &mut Vec<u8>, txid: TxId, domain: &str, key: &[u8], value: Option<&[u8]>) {
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

/// Append `payload` to `out` framed as `len | crc32 | payload`.
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Frame one transaction onto `out` as `Begin{txid} Write{txid,…}*
/// Commit{txid}` from borrowed parts, pushing each record's end offset in
/// `out` onto `ends`.
fn frame_block<'a>(
    out: &mut Vec<u8>,
    ends: &mut Vec<u64>,
    txid: TxId,
    writes: impl IntoIterator<Item = WriteParts<'a>>,
) {
    let mut payload = Vec::new();
    frame(out, &WalRecord::Begin { txid }.encode());
    ends.push(out.len() as u64);
    for (domain, key, value) in writes {
        payload.clear();
        encode_write(&mut payload, txid, domain, key, value);
        frame(out, &payload);
        ends.push(out.len() as u64);
    }
    frame(out, &WalRecord::Commit { txid }.encode());
    ends.push(out.len() as u64);
}

/// Frame `records` into one buffer: returns it and each record's end
/// offset in it.
fn frame_records(records: &[WalRecord]) -> (Vec<u8>, Vec<u64>) {
    let mut buf = Vec::new();
    let ends = records
        .iter()
        .map(|record| {
            frame(&mut buf, &record.encode());
            buf.len() as u64
        })
        .collect();
    (buf, ends)
}

/// The intact records of `bytes`, a run of the log that starts at LSN
/// `at`, in order: the one frame scanner, which recovery, the checkpoint,
/// tailing reads, a replica's landing and the CDC feed all read the log
/// through. It stops at the first frame that is torn (the bytes end
/// inside it) or corrupt (its CRC or its payload does not check); where
/// it stopped is the last record's `next_lsn`, or `at` if it yields none.
pub fn records(bytes: &[u8], at: Lsn) -> impl Iterator<Item = TailedRecord> + '_ {
    let (mut rest, mut lsn) = (bytes, at);
    std::iter::from_fn(move || {
        let (head, tail) = rest.split_first_chunk::<8>()?;
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let payload = tail.get(..len)?;
        if crc32(payload) != u32::from_le_bytes([head[4], head[5], head[6], head[7]]) {
            return None;
        }
        let record = WalRecord::decode(payload).ok()?;
        let t = TailedRecord { lsn, next_lsn: lsn + 8 + len as u64, record };
        (rest, lsn) = (&tail[len..], t.next_lsn);
        Some(t)
    })
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
/// then the tail byte by byte. The engine's one checksum — WAL records
/// and disk pages.
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

/// Magic opening every log file. The first four bytes are `0xFFFFFFFF`
/// — an impossible frame length, so a header can never be confused with
/// a headerless log whose first record it would otherwise shadow.
const WAL_MAGIC: [u8; 8] = [0xFF, 0xFF, 0xFF, 0xFF, b'W', b'A', b'L', b'4'];

/// Magic of the previous layout: a header without a log id, which only a
/// checkpointed log had. Such a log, like a headerless one, gets its
/// header when it is opened.
const WAL3_MAGIC: [u8; 8] = [0xFF, 0xFF, 0xFF, 0xFF, b'W', b'A', b'L', b'3'];

/// Magic of the retired layout whose prefix lived in `mmdb.snapshot`.
/// Such a log is refused: this code does not read that file.
const WAL2_MAGIC: [u8; 8] = [0xFF, 0xFF, 0xFF, 0xFF, b'W', b'A', b'L', b'2'];

/// Size of the header: the magic, then the log id (its top bit the copy
/// flag), base, horizon and checkpoint time, each a `u64` little-endian.
const WAL_HEADER_LEN: u64 = 40;

/// A log's header: its identity, the image block's base `B`, the horizon
/// `T` where the records kept verbatim start, and when the last
/// checkpoint ran (Unix milliseconds, 0 for never). A never-checkpointed
/// log has `B = T = 0`. A file starts with it; a memory log keeps it
/// beside its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// A random id, drawn when the log is created and kept across
    /// checkpoints and reopens. A replica's log carries its primary's, so
    /// equal ids mean one log: a position in either names the same bytes.
    pub log_id: u64,
    /// Whether the log is a copy of the log `log_id` names: a replica's,
    /// which [`Wal::reset`] made one. Only the owner of an id writes
    /// records under it, so the first local append to a copy draws a
    /// fresh id first. On disk it is the top bit of the id field, which
    /// an id never sets.
    pub copy: bool,
    /// `B`: the LSN of the log's first record.
    pub base: Lsn,
    /// `T`: every committed block below it is in the image `[B, T)`.
    pub horizon: Lsn,
    /// When the checkpoint that wrote the image ran.
    pub at_ms: u64,
}

impl Header {
    /// A new log's header: a fresh id, nothing folded.
    fn fresh() -> Header {
        Header { log_id: fresh_log_id(), copy: false, base: 0, horizon: 0, at_ms: 0 }
    }

    /// The header `data` starts with, and its length. A headerless or
    /// `WAL3` log gets a fresh id and keeps its `B`, `T` and time (length
    /// 0 or 32: [`Wal::recover`] rewrites it); the retired `WAL2` layout
    /// is an `unsupported` error.
    fn parse(data: &[u8]) -> Result<(Header, u64)> {
        if data.starts_with(&WAL2_MAGIC) {
            return Err(Error::Unsupported(
                "the log has the retired WAL2 layout, whose prefix lives in mmdb.snapshot; \
                 this version reads neither"
                    .into(),
            ));
        }
        let field = |i: usize| data.get(8 * i..8 * i + 8)?.try_into().ok().map(u64::from_le_bytes);
        let short = || Error::Corruption("wal: short header".into());
        if data.starts_with(&WAL3_MAGIC) {
            let (Some(base), Some(horizon), Some(at_ms)) = (field(1), field(2), field(3)) else {
                return Err(short());
            };
            return Ok((Header { base, horizon, at_ms, ..Header::fresh() }, 32));
        }
        if !data.starts_with(&WAL_MAGIC) {
            return Ok((Header::fresh(), 0));
        }
        match (field(1), field(2), field(3), field(4)) {
            (Some(id), Some(base), Some(horizon), Some(at_ms)) => {
                let (log_id, copy) = (id & !COPY_BIT, id & COPY_BIT != 0);
                Ok((Header { log_id, copy, base, horizon, at_ms }, WAL_HEADER_LEN))
            }
            _ => Err(short()),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let id = self.log_id | if self.copy { COPY_BIT } else { 0 };
        let fields = [id, self.base, self.horizon, self.at_ms];
        let mut out = WAL_MAGIC.to_vec();
        out.extend(fields.iter().flat_map(|f| f.to_le_bytes()));
        out
    }
}

/// The id field's bit that marks a copy ([`Header::copy`]).
const COPY_BIT: u64 = 1 << 63;

/// A new log's id: std's randomly keyed hasher over the time and the
/// process id. Never 0 and below 2⁶³, so it travels the wire as a
/// non-negative integer.
fn fresh_log_id() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u128(SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos()));
    h.write_u32(std::process::id());
    (h.finish() >> 1).max(1)
}

/// Where a rewrite writes the new file before renaming it over the log.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// The first half of every rewrite: `parts` written to `<log>.tmp` and
/// fsynced, opened for appends. The second is a rename over the log and
/// [`sync_dir`], which appends landing in the new file need.
fn write_tmp(path: &Path, parts: &[&[u8]]) -> std::io::Result<File> {
    let tmp = tmp_path(path);
    let _ = std::fs::remove_file(&tmp);
    let mut out = OpenOptions::new().read(true).append(true).create_new(true).open(&tmp)?;
    for part in parts {
        out.write_all(part)?;
    }
    durable_sync(&out, File::sync_all)?;
    Ok(out)
}

/// Make a rename inside the log's directory durable.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir).and_then(|d| durable_sync(&d, File::sync_all))
}

/// The write-ahead log.
///
/// LSNs are *logical*: they keep counting monotonically across
/// [`Wal::fold_prefix`], which replaces the prefix below a horizon `T`
/// with its fold. A file starts with a [`Header`] recording its id, base
/// `B` and `T`, and `physical offset = header + (lsn - B)`. A log that
/// was never checkpointed has `B = T = 0`.
pub struct Wal {
    inner: Mutex<WalInner>,
    /// Held for a whole [`Wal::rewrite`], so two never share `<log>.tmp`.
    rewriting: Mutex<()>,
    /// The file path for file-backed logs (`None` in memory) — needed by
    /// [`Wal::rewrite`] to rewrite-and-rename in place.
    path: Option<PathBuf>,
    /// Logical LSN up to which the log is known durable: the tail as of
    /// the last successful [`Wal::sync`] or rewrite. Replication streams
    /// are capped here so appended-but-unsynced records (which a crash
    /// could still erase) never reach a replica or change-feed subscriber.
    durable_lsn: std::sync::atomic::AtomicU64,
}

struct WalInner {
    backend: WalBackend,
    /// Next logical LSN to be assigned.
    next_lsn: Lsn,
    /// The log's id and the last checkpoint's `B`, `T` and time; `[B, T)`
    /// is its image.
    header: Header,
    /// Physical offset where record data starts: [`WAL_HEADER_LEN`] for a
    /// file (the length of an older header until [`Wal::recover`]
    /// rewrites it), 0 for the memory backend.
    data_start: u64,
    /// The first failed sync, kept: every later sync fails with it.
    sync_failure: Option<String>,
}

/// Per-read budget of [`WalInner::read_chunk`]: bounds memory when a
/// reader is far behind, and when recovery or a checkpoint reads the log.
const TAIL_CHUNK: u64 = 1 << 20;

impl WalInner {
    /// Fails once a sync has: with the first failure, which every later
    /// sync returns until the log is reopened.
    fn check_synced(&self) -> Result<()> {
        match &self.sync_failure {
            Some(first) => Err(Error::Storage(format!(
                "wal fsync: an earlier sync failed ({first}); reopen to recover"
            ))),
            None => Ok(()),
        }
    }

    /// Physical backend offset of logical LSN `lsn`.
    fn physical(&self, lsn: Lsn) -> u64 {
        self.data_start + (lsn - self.header.base)
    }

    /// The bytes at logical LSNs `[from, to)`.
    fn read_bytes(&self, from: Lsn, to: Lsn) -> Result<Vec<u8>> {
        let at = self.physical(from);
        match &self.backend {
            WalBackend::Memory(v) => Ok(v[at as usize..(at + to - from) as usize].to_vec()),
            WalBackend::File(f) => {
                use std::os::unix::fs::FileExt;
                let mut b = vec![0u8; (to - from) as usize];
                f.read_exact_at(&mut b, at).map_err(|e| Error::Storage(format!("wal read: {e}")))?;
                Ok(b)
            }
        }
    }

    /// Up to [`TAIL_CHUNK`] bytes from `from`, never past `to` or the
    /// tail. A record larger than the budget is read whole, so a reader
    /// always advances.
    fn read_chunk(&self, from: Lsn, to: Lsn) -> Result<Vec<u8>> {
        let to = to.min(self.next_lsn);
        if from >= to {
            return Ok(Vec::new());
        }
        let mut buf = self.read_bytes(from, to.min(from + TAIL_CHUNK))?;
        if let Some(len) = buf.first_chunk::<4>().map(|l| u32::from_le_bytes(*l) as u64) {
            let whole = from + 8 + len;
            if whole > from + buf.len() as u64 && whole <= to {
                buf = self.read_bytes(from, whole)?;
            }
        }
        Ok(buf)
    }
}

/// What one [`Wal::fold_prefix`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldedPrefix {
    /// `T`: every committed block below it is in the image.
    pub horizon: Lsn,
    /// Writes in the image: one per live key.
    pub entries: usize,
    /// Size of the image block, `T − B`.
    pub image_bytes: u64,
    /// How far the file's base moved: bytes of history dropped.
    pub reclaimed: u64,
}

impl Wal {
    /// A log over `backend`, pathless until a file's opener sets it, whose
    /// records start at physical offset `data_start` and end at `len`;
    /// all of it counts as durable.
    fn with_backend(backend: WalBackend, header: Header, data_start: u64, len: u64) -> Wal {
        let next_lsn = header.base + len - data_start;
        let inner = WalInner { backend, next_lsn, header, data_start, sync_failure: None };
        Wal {
            inner: Mutex::with_rank(lock_rank::WAL_INNER, inner),
            rewriting: Mutex::with_rank(lock_rank::WAL_REWRITE, ()),
            path: None,
            durable_lsn: std::sync::atomic::AtomicU64::new(next_lsn),
        }
    }

    /// Open (or create) a file-backed WAL, appending after existing
    /// content. A log with the retired `WAL2` header is refused with an
    /// `unsupported` error and left as it is.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Wal::recover(path)?.0)
    }

    /// [`Wal::open`], also returning the state the file's committed
    /// blocks leave: their [`Fold`], read a chunk at a time. The log is
    /// cut where that read stopped, dropping a torn or corrupt tail and a
    /// block left open at the end: appends extend a log that ends at a
    /// block boundary instead of hiding behind bytes the next recovery
    /// would stop at, and [`Wal::tail_lsn`] is a position a replica can
    /// resume from. Everything left in the file survived a previous run's
    /// syncs, so it is durable. A new, headerless or `WAL3` log gets its
    /// header here, rewritten like a checkpoint, so no log is ever without
    /// an id.
    pub fn recover(path: impl AsRef<Path>) -> Result<(Self, Vec<LoggedWrite>)> {
        let path = path.as_ref();
        let io = |e: std::io::Error| Error::Storage(format!("open wal {path:?}: {e}"));
        // A rewrite that died before its rename left this behind; the log
        // it would have replaced is the one opened here.
        let _ = std::fs::remove_file(tmp_path(path));
        let file = OpenOptions::new().read(true).append(true).create(true).open(path).map_err(io)?;
        let mut head = Vec::new();
        (&file).take(WAL_HEADER_LEN).read_to_end(&mut head).map_err(io)?;
        let (header, header_len) = Header::parse(&head)?;
        let len = file.metadata().map_err(io)?.len();
        let wal = Wal {
            path: Some(path.to_path_buf()),
            ..Wal::with_backend(WalBackend::File(file), header, header_len, len)
        };
        let mut state = Fold::default();
        let (_, end) = wal.fold_blocks(header.base, Lsn::MAX, &mut state)?;
        let mut inner = wal.inner.lock();
        if let (WalBackend::File(f), true) = (&inner.backend, end < inner.next_lsn) {
            f.set_len(inner.physical(end)).map_err(io)?;
        }
        inner.next_lsn = end;
        wal.durable_lsn.store(end, std::sync::atomic::Ordering::SeqCst);
        drop(inner);
        if header_len != WAL_HEADER_LEN {
            wal.rewrite("open", |h| h, &[], true)?;
        }
        Ok((wal, state.into_writes()))
    }

    /// An in-memory WAL (tests; volatile databases).
    pub fn in_memory() -> Self {
        Wal::with_backend(WalBackend::Memory(Vec::new()), Header::fresh(), 0, 0)
    }

    /// Append one record, returning its LSN. Not yet durable — call
    /// [`Wal::sync`] (commit does). A batch of one (see
    /// [`Wal::append_batch`]).
    pub fn append(&self, record: &WalRecord) -> Result<Lsn> {
        let (buf, ends) = frame_records(std::slice::from_ref(record));
        self.write_framed(&buf, &ends, None)
    }

    /// Append a run of records as one contiguous write, returning for
    /// each record the LSN just past it (the `next_lsn` a tailer would
    /// see). This is the group-commit path: a commit leader frames every
    /// transaction of its batch into one buffer and lands it with a
    /// single backend write, so the batch occupies one gap-free LSN run
    /// that no concurrent append can interleave.
    ///
    /// Failure atomicity: an injected `fail` on `wal.append` rejects the
    /// whole batch before any byte lands, and an injected `short` tears
    /// the log mid-frame at the affected record (half its frame lands,
    /// after everything framed before it; recovery truncates).
    pub fn append_batch(&self, records: &[WalRecord]) -> Result<Vec<Lsn>> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let (buf, ends) = frame_records(records);
        let base = self.write_framed(&buf, &ends, None)?;
        Ok(ends.into_iter().map(|e| base + e).collect())
    }

    /// Append transactions as `Begin..Commit` blocks, each `(txid,
    /// writes)` framed straight from its writes' borrowed parts: the
    /// commit path's log step, whose values are encoded already. One
    /// contiguous write with [`Wal::append_batch`]'s failure atomicity;
    /// returns the LSN just past the last `Commit` (the tail, for no
    /// blocks).
    pub fn append_blocks<'a, W>(&self, blocks: impl IntoIterator<Item = (TxId, W)>) -> Result<Lsn>
    where
        W: IntoIterator<Item = WriteParts<'a>>,
    {
        let (mut buf, mut ends) = (Vec::new(), Vec::new());
        for (txid, writes) in blocks {
            frame_block(&mut buf, &mut ends, txid, writes);
        }
        if ends.is_empty() {
            return Ok(self.tail_lsn());
        }
        let base = self.write_framed(&buf, &ends, None)?;
        Ok(base + buf.len() as u64)
    }

    /// Land `bytes`, a run of another log that starts at its LSN `lsn`,
    /// exactly as they are: how a replica's log becomes a byte-for-byte
    /// copy of its primary's. Refused with nothing written unless `lsn` is
    /// this log's tail and `bytes` scan as whole intact records. One write
    /// with [`Wal::append_batch`]'s failure atomicity; returns the new
    /// tail. Not yet durable — call [`Wal::sync`].
    pub fn append_at(&self, lsn: Lsn, bytes: &[u8]) -> Result<Lsn> {
        let ends: Vec<u64> = records(bytes, 0).map(|t| t.next_lsn).collect();
        if ends.last().map_or(0, |e| *e) != bytes.len() as u64 {
            return Err(Error::Storage(format!(
                "wal append: the {}-byte run at {lsn} is not whole intact records",
                bytes.len()
            )));
        }
        self.write_framed(bytes, &ends, Some(lsn))?;
        Ok(lsn + bytes.len() as u64)
    }

    /// [`Wal::write_run`] for a framed run whose records end at `ends`.
    /// Failpoint `wal.append` is evaluated once per record, so crash
    /// schedules (`N:short`) reach mid-batch offsets too: `error` rejects
    /// the run before a byte lands, and `short` tears it at that record —
    /// half the record's frame lands after the records before it, so
    /// recovery must detect and truncate the torn tail.
    fn write_framed(&self, buf: &[u8], ends: &[u64], at: Option<Lsn>) -> Result<Lsn> {
        let mut start = 0;
        for &end in ends {
            match mmdb_fault::eval("wal.append") {
                mmdb_fault::Decision::Proceed => {}
                mmdb_fault::Decision::Fail(msg) => {
                    return Err(Error::Storage(format!("wal append: {msg}")))
                }
                mmdb_fault::Decision::Short => {
                    return self.write_run(&buf[..(start + (end - start) / 2) as usize], at, true)
                }
            }
            start = end;
        }
        self.write_run(buf, at, false)
    }

    /// Land a framed run in one write at the tail — only if the tail is
    /// `at`, when given — and return where it landed. A torn run lands
    /// too, then fails.
    /// A failed log takes no run: what it holds past its last good sync
    /// is not known to be on disk. A local run (`at` is `None`) on a copy
    /// first makes the log its own ([`Header::copy`]).
    fn write_run(&self, buf: &[u8], at: Option<Lsn>, torn: bool) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        if at.is_none() && inner.header.copy {
            // Its records diverge from the log whose id it carries here,
            // so a replica of that log must not resume from it.
            drop(inner);
            let own = |h: Header| Header { log_id: fresh_log_id(), copy: false, ..h };
            self.rewrite("append to a copy", own, &[], true)?;
            inner = self.inner.lock();
        }
        inner.check_synced()?;
        let base = inner.next_lsn;
        if let Some(at) = at.filter(|at| *at != base) {
            return Err(Error::Storage(format!(
                "wal append: the run starts at {at}, but the log's tail is {base}"
            )));
        }
        match &mut inner.backend {
            WalBackend::File(f) => f
                .write_all(buf)
                .map_err(|e| Error::Storage(format!("wal append: {e}")))?,
            WalBackend::Memory(v) => v.extend_from_slice(buf),
        }
        inner.next_lsn += buf.len() as u64;
        if torn {
            return Err(Error::Storage("wal append: torn write (injected)".into()));
        }
        Ok(base)
    }

    /// Durably flush appended records.
    ///
    /// A failure is sticky: every later sync on this `Wal` fails too,
    /// until the log is reopened. After a failed fsync the kernel may
    /// have dropped the dirty pages, so a later fsync that succeeds
    /// proves nothing about them — whoever syncs next (a commit leader,
    /// the checkpoint's marker) must not acknowledge a batch the failure
    /// may have lost.
    pub fn sync(&self) -> Result<()> {
        // Failpoint `wal.sync`: `delay(ms)` models a slow fsync, `error`
        // a failed one.
        let injected = mmdb_fault::eval_to_error("wal.sync");
        let mut inner = self.inner.lock();
        inner.check_synced()?;
        let synced = match (&inner.backend, injected) {
            (_, Some(msg)) => Err(msg),
            (WalBackend::File(f), None) => durable_sync(f, File::sync_data).map_err(|e| e.to_string()),
            (WalBackend::Memory(_), None) => Ok(()),
        };
        if let Err(msg) = synced {
            inner.sync_failure = Some(msg.clone());
            return Err(Error::Storage(format!("wal fsync: {msg}")));
        }
        // Everything appended before this sync is now durable. Published
        // under the inner lock so the watermark never races past a
        // concurrent append it did not cover.
        self.durable_lsn.fetch_max(inner.next_lsn, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }

    /// Fails once a sync has, with that failure: the log then takes no
    /// append and no sync until it is reopened.
    pub fn check_synced(&self) -> Result<()> {
        self.inner.lock().check_synced()
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

    /// The log's bytes from its base `B` to its tail, torn ones included,
    /// whatever its backend — a test helper.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        let inner = self.inner.lock();
        inner.read_bytes(inner.header.base, inner.next_lsn)
    }

    /// Tail the log: its bytes from `from`, cut at the last intact record
    /// edge at or below `to` — up to 1 MiB of them, or the record at
    /// `from` whole when it is larger. This is the replication feed: a
    /// primary ships them to replicas as they are, and scans them with
    /// [`records`] for change-feed subscribers; either resumes from `from`
    /// plus their length.
    ///
    /// `from` must be a record the log still holds: the base `B` (the
    /// image block's `Begin`) or an LSN at or past the horizon `T`. Below
    /// `B` the history is gone, and inside the image every LSN names a
    /// byte of the fold rather than of the history; both are
    /// [`Error::LogTruncated`]. A `from` that is not a record edge, or at
    /// or past `to`, reads nothing.
    ///
    /// The cut keeps out a torn or partial tail record, exactly like
    /// recovery: such bytes only exist transiently between a failed append
    /// and the crash/truncate that follows, and must never be shipped.
    /// Reads never move the append cursor.
    pub fn read_log(&self, from: Lsn, to: Lsn) -> Result<Vec<u8>> {
        let mut buf = {
            let inner = self.inner.lock();
            let Header { base, horizon, .. } = inner.header;
            if from < base || (from < horizon && from != base) {
                return Err(Error::LogTruncated(format!(
                    "LSN {from} is below the checkpoint horizon {horizon}; the log restarts at {base}"
                )));
            }
            inner.read_chunk(from, to)?
        };
        let end = records(&buf, from).last().map_or(from, |t| t.next_lsn);
        buf.truncate((end - from) as usize);
        Ok(buf)
    }

    /// Physical size of the log in bytes (header and image included).
    pub fn size_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.data_start + (inner.next_lsn - inner.header.base)
    }

    /// The log's header — its id, `B`, `T` and last checkpoint time —
    /// read together.
    pub fn header(&self) -> Header {
        self.inner.lock().header
    }

    /// The checkpoint horizon `T`: the lowest LSN a change feed can
    /// resume at (0 until the first checkpoint).
    pub fn truncated_lsn(&self) -> Lsn {
        self.inner.lock().header.horizon
    }

    /// The base `B`: the LSN of the log's first record, the image block's
    /// `Begin`. A replica below the horizon restarts here.
    pub fn base_lsn(&self) -> Lsn {
        self.inner.lock().header.base
    }

    /// Bytes appended past the horizon, `tail − T`: how much the log has
    /// grown since the last checkpoint, image excluded.
    pub fn bytes_since_checkpoint(&self) -> u64 {
        let inner = self.inner.lock();
        inner.next_lsn - inner.header.horizon
    }

    /// When the last checkpoint ran — read from the header of a reopened
    /// log, so it survives a restart. `None` before the first.
    pub fn checkpointed_at(&self) -> Option<SystemTime> {
        let at_ms = self.inner.lock().header.at_ms;
        (at_ms > 0).then(|| UNIX_EPOCH + Duration::from_millis(at_ms))
    }

    /// Append a checkpoint marker carrying `snapshot_lsn` and make it
    /// durable. Returns the marker's LSN.
    pub fn append_checkpoint(&self, snapshot_lsn: Lsn) -> Result<Lsn> {
        // Failpoint `ckpt.marker_append`: the log is rewritten but the
        // marker never lands — recovery ignores markers, and replicas
        // simply skip one local checkpoint.
        mmdb_fault::fail_point!("ckpt.marker_append", |msg| Error::Storage(format!(
            "checkpoint marker append: {msg}"
        )));
        let lsn = self.append(&WalRecord::Checkpoint { snapshot_lsn })?;
        self.sync()?;
        Ok(lsn)
    }

    /// Checkpoint the log at `horizon`: replace the prefix below it with
    /// one `txid 0` block holding its [`Fold`], keeping every LSN at or
    /// past it where it was. `horizon` is the new `T`: a block edge
    /// between the last `T` and the durable tail — a primary passes
    /// [`Wal::durable_lsn`] (a batch edge, so no sync is needed), a
    /// replica the `snapshot_lsn` of its primary's marker, so both fold the
    /// same bytes into the same image. Each image write is the size of a
    /// write it replaces, and the prefix held a `Begin`/`Commit` pair for
    /// the image's, so the new base `T − image` is at least the old one.
    /// A file is rewritten to `<log>.tmp` and renamed over the log; appends
    /// wait only for the rename, and a crash on either side of it leaves a
    /// complete log of the same state (DESIGN.md "Checkpointing"). Callers
    /// serialize checkpoints (`Database` holds its checkpoint lock).
    pub fn fold_prefix(&self, horizon: Lsn) -> Result<FoldedPrefix> {
        let old = {
            let inner = self.inner.lock();
            inner.check_synced()?;
            inner.header
        };
        let durable = self.durable_lsn();
        if horizon < old.horizon || horizon > durable {
            return Err(Error::Internal(format!(
                "wal checkpoint: horizon {horizon} is outside [{}, {durable}]",
                old.horizon
            )));
        }
        let mut state = Fold::default();
        let (end, _) = self.fold_blocks(old.base, horizon, &mut state)?;
        if end != horizon {
            return Err(Error::Storage(format!(
                "wal checkpoint: no intact record from {end} to the durable tail {horizon}"
            )));
        }
        let folded = state.into_writes();
        let (image, entries) = (encode_image(&folded), folded.len());
        let image_bytes = image.len() as u64;
        let base = horizon.checked_sub(image_bytes).filter(|b| *b >= old.base).ok_or_else(|| {
            Error::Internal(format!(
                "wal checkpoint: a {image_bytes}-byte image outgrows the {}-byte prefix it folds",
                horizon - old.base
            ))
        })?;
        let at_ms = SystemTime::now().duration_since(UNIX_EPOCH).map_or(1, |d| d.as_millis() as u64);
        self.rewrite("checkpoint", |h| Header { base, horizon, at_ms, ..h }, &image, true)?;
        Ok(FoldedPrefix { horizon, entries, image_bytes, reclaimed: base - old.base })
    }

    /// The one reader of a log's committed blocks, which recovery and the
    /// checkpoint share: scans the records from `from` up to `to` (or the
    /// tail), read [`TAIL_CHUNK`] at a time, and folds the writes of every
    /// block that commits into `state`. Returns where the scan stopped —
    /// `to`, unless a torn or corrupt record stopped it first — and the
    /// end of the last record before that which leaves no block open.
    fn fold_blocks(&self, from: Lsn, to: Lsn, state: &mut Fold) -> Result<(Lsn, Lsn)> {
        let (mut blocks, mut at, mut edge) = (BlockAssembler::default(), from, from);
        loop {
            let chunk = self.inner.lock().read_chunk(at, to)?;
            let start = at;
            for t in records(&chunk, start) {
                at = t.next_lsn;
                if let Some(block) = blocks.push(t.record, at) {
                    block.writes.into_iter().for_each(|w| state.push(w));
                }
                if !blocks.is_open() {
                    edge = at;
                }
            }
            if at == start {
                return Ok((at, edge));
            }
        }
    }

    /// Make this log a copy of another log's start: its `header`, then
    /// `image`, the bytes that log holds at `[B, T)` (none for an empty
    /// fold), refused unless they are exactly that span of whole intact
    /// records. How a replica whose log cannot continue its primary's
    /// takes the primary's instead (DESIGN.md "Replication"). The log
    /// becomes a copy ([`Header::copy`]), so a local append draws it a
    /// fresh id. A file is rewritten through `<log>.tmp` and renamed, so a
    /// crash leaves the old log or the new one, never half of either.
    pub fn reset(&self, header: Header, image: &[u8]) -> Result<()> {
        let end = records(image, header.base).last().map_or(header.base, |t| t.next_lsn);
        if header.base + image.len() as u64 != header.horizon || end != header.horizon {
            return Err(Error::Storage(format!(
                "wal reset: the {}-byte image is not whole records spanning [{}, {})",
                image.len(),
                header.base,
                header.horizon
            )));
        }
        self.rewrite("reset", |_| Header { copy: true, ..header }, image, false)
    }

    /// The one rewrite of a log: a checkpoint's fold, a reset, a copy's
    /// first local append and a header upgrade at open. The new log is the
    /// header `header` makes of the current one, then `head`, the bytes it
    /// holds from its `B` on, then — when `keep` — this log's bytes from
    /// where `head` ends to its tail, at the LSNs they hold now.
    ///
    /// A file is written to `<log>.tmp` and fsynced with the log unlocked;
    /// then, under the lock, the bytes appended meanwhile are copied too
    /// and fsynced, the tmp is renamed over the log and the directory is
    /// fsynced. A memory log swaps its bytes. Either way the new log is
    /// durable to its tail; a failed directory fsync fails the log like a
    /// failed sync, because appends already land in the new file.
    fn rewrite(
        &self,
        what: &str,
        header: impl FnOnce(Header) -> Header,
        head: &[u8],
        keep: bool,
    ) -> Result<()> {
        let _one_at_a_time = self.rewriting.lock();
        let io = |e: std::io::Error| Error::Storage(format!("wal {what}: {e}"));
        let (header, kept, copied) = {
            let inner = self.inner.lock();
            inner.check_synced()?;
            let header = header(inner.header);
            let from = header.base + head.len() as u64;
            let kept = if keep { inner.read_bytes(from, inner.next_lsn)? } else { Vec::new() };
            (header, kept, inner.next_lsn)
        };
        let tmp = self.path.as_deref().map(|path| {
            write_tmp(path, &[&header.encode(), head, &kept]).map(|file| (file, path))
        });
        let mut tmp = tmp.transpose().map_err(io)?;

        let mut inner = self.inner.lock();
        let arrived = if keep { inner.read_bytes(copied, inner.next_lsn)? } else { Vec::new() };
        if let Some((out, _)) = &mut tmp {
            out.write_all(&arrived).and_then(|()| durable_sync(out, File::sync_data)).map_err(io)?;
        }
        if what == "checkpoint" {
            // Failpoint `ckpt.wal_rewrite`: the new log is complete and
            // durable but never published — reopen must read the old one
            // and drop the tmp.
            mmdb_fault::fail_point!("ckpt.wal_rewrite", |msg| Error::Storage(format!(
                "wal checkpoint: {msg}"
            )));
        }
        let renamed = match tmp {
            Some((out, path)) => {
                std::fs::rename(tmp_path(path), path).map_err(io)?;
                inner.backend = WalBackend::File(out);
                inner.data_start = WAL_HEADER_LEN;
                sync_dir(path)
            }
            None => {
                inner.backend = WalBackend::Memory([head, &kept, &arrived].concat());
                Ok(())
            }
        };
        inner.header = header;
        inner.next_lsn = header.base + (head.len() + kept.len() + arrived.len()) as u64;
        self.durable_lsn.store(inner.next_lsn, std::sync::atomic::Ordering::SeqCst);
        if let Err(e) = renamed {
            inner.sync_failure = Some(format!("directory fsync after the rename of a {what}: {e}"));
            return inner.check_synced();
        }
        Ok(())
    }
}

/// The image block for `writes`: `Begin{0} Write{0,…}* Commit{0}`, framed;
/// nothing for an empty fold.
fn encode_image(writes: &[LoggedWrite]) -> Vec<u8> {
    let mut image = Vec::new();
    if writes.is_empty() {
        return image;
    }
    let parts = writes.iter().map(|w| (w.domain.as_str(), w.key.as_slice(), w.value.as_deref()));
    frame_block(&mut image, &mut Vec::new(), 0, parts);
    image
}

/// One record [`records`] yields, with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailedRecord {
    /// Byte offset where this record's frame starts.
    pub lsn: Lsn,
    /// Byte offset just past this record — resume tailing here.
    pub next_lsn: Lsn,
    /// The decoded record.
    pub record: WalRecord,
}

/// One logged write: the *encoded* shape of a write, as the WAL and the
/// replication stream carry it. Its decoded shape is
/// `mmdb_txn::CommittedWrite`; the version store keeps the encoded value
/// (DESIGN.md "A transaction's road").
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
    /// block only while that block is open. A checkpoint's image block is
    /// `txid 0`.
    pub txid: TxId,
    /// LSN just past the block's `Commit` record — a safe resume point.
    pub end_lsn: Lsn,
    /// The block's writes, in log order.
    pub writes: Vec<LoggedWrite>,
}

/// Turns a record stream back into committed transactions. This is the
/// one statement of what "committed" means in the log, shared by
/// recovery, the checkpoint, the replica apply loop and the CDC feed:
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

/// Load order of a domain's writes when a whole state is applied at once:
/// container definitions first (a table before its rows), then data,
/// then graph edges (edges need their endpoint vertices), then index
/// definitions (each built once, from the loaded view). Deletes go in
/// the reverse order.
pub fn load_class(domain: &str) -> u8 {
    if domain == "ddl/index" {
        3
    } else if domain.starts_with("ddl/") {
        0
    } else if domain.contains("/e/") {
        2
    } else {
        1
    }
}

/// The state a run of committed writes leaves, folded one write at a
/// time — what recovery installs and what a checkpoint's image holds.
/// [`Fold::into_writes`] lists it:
///
/// - each `(domain, key)` keeps only its **newest** write, at the place
///   of its **first**, so keys come out in the order they first appeared;
/// - a key whose newest write is a delete is dropped: the state is applied
///   to an empty store, where the tombstone has nothing to remove;
/// - the survivors are stable-sorted by [`load_class`].
///
/// It holds one entry per key the run wrote, deleted ones included (a key
/// written again after its delete keeps its first place), never the run.
#[derive(Debug, Default)]
pub struct Fold {
    /// Each key's first place and newest value (`None`: deleted).
    newest: HashMap<WriteKey, (usize, Option<Vec<u8>>)>,
}

/// A logged write's key: its domain and its encoded key.
type WriteKey = (String, Vec<u8>);

impl Fold {
    /// Fold in the run's next write.
    pub fn push(&mut self, write: LoggedWrite) {
        let first = self.newest.len();
        self.newest.entry((write.domain, write.key)).or_insert((first, None)).1 = write.value;
    }

    /// The folded state, as one list in load order.
    pub fn into_writes(self) -> Vec<LoggedWrite> {
        let mut live: Vec<(u8, usize, LoggedWrite)> = self
            .newest
            .into_iter()
            .filter_map(|((domain, key), (first, value))| {
                Some((load_class(&domain), first, LoggedWrite { domain, key, value: Some(value?) }))
            })
            .collect();
        live.sort_unstable_by_key(|(class, first, _)| (*class, *first));
        live.into_iter().map(|(_, _, write)| write).collect()
    }
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

    /// Every record `wal` holds from `from` to its tail, read the way a
    /// tailer does: [`Wal::read_log`] chunks, scanned.
    fn tail_from(wal: &Wal, from: Lsn) -> Vec<TailedRecord> {
        let (mut out, mut at) = (Vec::new(), from);
        loop {
            let chunk = wal.read_log(at, Lsn::MAX).unwrap();
            if chunk.is_empty() {
                return out;
            }
            out.extend(records(&chunk, at));
            at += chunk.len() as u64;
        }
    }

    /// The writes of every committed block in `bytes`, a run of the log,
    /// in log order.
    fn committed(bytes: &[u8]) -> Vec<LoggedWrite> {
        let mut blocks = BlockAssembler::default();
        let released = records(bytes, 0).filter_map(|t| blocks.push(t.record, t.next_lsn));
        released.flat_map(|block| block.writes).collect()
    }

    fn keys(writes: &[LoggedWrite]) -> Vec<&[u8]> {
        writes.iter().map(|w| w.key.as_slice()).collect()
    }

    /// `bytes`, a headerless run of the log from LSN 0, reopened from a
    /// file: the log's tail is where recovery cut it, and the state is its
    /// fold.
    fn reopened(tag: &str, bytes: &[u8]) -> (Wal, Vec<LoggedWrite>) {
        let path = temp_wal(tag);
        std::fs::write(&path, bytes).unwrap();
        let reopened = Wal::recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        reopened
    }

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mmdb.wal");
        let _ = std::fs::remove_file(&path);
        path
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
        commit_one(&wal, 1, "a", Some("1"));
        wal.append(&WalRecord::Begin { txid: 2 }).unwrap();
        wal.append(&w(2, "b", Some("2"))).unwrap();
        // txn 2 never commits.
        let bytes = wal.snapshot_bytes().unwrap();
        assert_eq!(keys(&committed(&bytes)), [b"a".as_slice()]);
        let (reopened, state) = reopened("uncommitted", &bytes);
        assert_eq!(keys(&state), [b"a".as_slice()]);
        assert!(reopened.tail_lsn() < bytes.len() as u64, "the open block is cut");
    }

    #[test]
    fn an_orphan_block_is_not_adopted_by_a_later_commit_of_the_same_txid() {
        // A torn batch leaves `Begin{1} Write{1}` behind; the next
        // incarnation restarts its txid counter and commits its own txid 1.
        // That Commit closes the block its own Begin opened, not the orphan.
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&w(1, "orphan", Some("x"))).unwrap();
        commit_one(&wal, 1, "real", Some("y"));
        let (_, state) = reopened("orphan", &wal.snapshot_bytes().unwrap());
        assert_eq!(keys(&state), [b"real".as_slice()]);

        // Record by record: what the replica loop and the CDC feed see.
        let mut blocks = BlockAssembler::default();
        let tailed = tail_from(&wal, 0);
        let released: Vec<CommittedBlock> =
            tailed.into_iter().filter_map(|t| blocks.push(t.record, t.next_lsn)).collect();
        assert!(!blocks.is_open(), "the Commit closed the block");
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].end_lsn, wal.tail_lsn());
        assert_eq!(released[0].writes, state);
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
        commit_one(&wal, 4, "y", Some("v"));
        assert_eq!(keys(&committed(&wal.snapshot_bytes().unwrap())), [b"y".as_slice()]);
    }

    #[test]
    fn a_checkpoint_marker_does_not_cut_replay() {
        // Recovery is every committed block in the file: the marker is a
        // cue for replicas, not a place replay starts.
        let wal = Wal::in_memory();
        commit_one(&wal, 1, "old", Some("x"));
        wal.append(&WalRecord::Checkpoint { snapshot_lsn: wal.tail_lsn() }).unwrap();
        commit_one(&wal, 2, "new", Some("y"));
        let (_, state) = reopened("marker", &wal.snapshot_bytes().unwrap());
        assert_eq!(keys(&state), [b"old".as_slice(), b"new".as_slice()]);
    }

    #[test]
    fn the_fold_keeps_each_keys_last_write_at_its_first_place_by_load_class() {
        let lw = |domain: &str, key: &str, value: Option<&str>| LoggedWrite {
            domain: domain.into(),
            key: key.as_bytes().to_vec(),
            value: value.map(|v| v.as_bytes().to_vec()),
        };
        let history = [
            lw("kv/cart", "a", Some("1")),
            lw("graph/g/e/knows", "e", Some("edge")),
            lw("ddl/bucket", "cart", Some("{}")),
            lw("kv/cart", "b", Some("1")),
            lw("ddl/index", "gin/o", Some("{}")),
            lw("kv/cart", "a", Some("2")),
            lw("kv/cart", "b", None),
            lw("kv/cart", "c", None),
            lw("ddl/bucket", "cart", None),
            lw("ddl/bucket", "cart", Some("{2}")),
        ];
        let mut fold = Fold::default();
        history.iter().cloned().for_each(|w| fold.push(w));
        let want = [&history[9], &history[5], &history[1], &history[4]];
        assert_eq!(fold.into_writes().iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn torn_tail_is_detected_and_dropped() {
        let wal = Wal::in_memory();
        commit_one(&wal, 1, "a", Some("1"));
        let mut bytes = wal.snapshot_bytes().unwrap();
        let good_len = bytes.len() as u64;
        // Simulate a crash mid-write of a subsequent record.
        bytes.extend_from_slice(&[20, 0, 0, 0, 0xAA, 0xBB]);
        assert_eq!(records(&bytes, 0).last().map(|t| t.next_lsn), Some(good_len));
        let (reopened, state) = reopened("torn", &bytes);
        assert_eq!(keys(&state), [b"a".as_slice()], "the prefix remains recoverable");
        assert_eq!(reopened.tail_lsn(), good_len, "the reopened log ends where the torn bytes began");
    }

    #[test]
    fn corrupt_crc_stops_replay_at_corruption() {
        let wal = Wal::in_memory();
        commit_one(&wal, 1, "a", Some("1"));
        let mut bytes = wal.snapshot_bytes().unwrap();
        // Flip a payload byte of the *middle* record.
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        assert!(records(&bytes, 0).last().map_or(0, |t| t.next_lsn) < n as u64);
        // The commit follows the corruption, so nothing can be redone.
        let (reopened, state) = reopened("corrupt", &bytes);
        assert!(state.is_empty());
        assert_eq!(reopened.tail_lsn(), 0, "the block the corruption is in is cut");
    }

    #[test]
    fn file_backed_wal_survives_reopen_and_loses_only_a_torn_tail() {
        let path = temp_wal("reopen");
        let (wal, state) = Wal::recover(&path).unwrap();
        assert!(state.is_empty() && wal.tail_lsn() == 0, "a missing file is an empty log");
        commit_one(&wal, 1, "persist", Some("yes"));
        drop(wal);
        // A crash mid-record: recovery cuts the torn bytes off, so the
        // appends after the reopen extend the valid prefix.
        let good = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[20, 0, 0, 0, 0xAA]).unwrap();
        let (wal, state) = Wal::recover(&path).unwrap();
        assert_eq!(state.len(), 1);
        assert_eq!(state[0].domain, "doc/orders");
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!((len, wal.tail_lsn()), (good, good - WAL_HEADER_LEN));
        commit_one(&wal, 2, "more", Some("data"));
        drop(wal);
        assert_eq!(Wal::recover(&path).unwrap().1.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tailing_reads_records_and_resumes_by_lsn() {
        let wal = Wal::in_memory();
        let appended =
            [WalRecord::Begin { txid: 1 }, w(1, "a", Some("1")), WalRecord::Commit { txid: 1 }];
        let lsns: Vec<Lsn> = appended.iter().map(|r| wal.append(r).unwrap()).collect();

        // Each append returns where its record starts.
        let all = tail_from(&wal, 0);
        assert_eq!(all.iter().map(|t| t.lsn).collect::<Vec<_>>(), lsns);
        assert_eq!(all[0].record, WalRecord::Begin { txid: 1 });
        assert_eq!(all[2].record, WalRecord::Commit { txid: 1 });
        assert_eq!(all[2].next_lsn, wal.tail_lsn());

        // Resume from a mid-log LSN: only subsequent records arrive.
        let rest = tail_from(&wal, all[0].next_lsn);
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].lsn, all[1].lsn);

        // A read at the end, or from inside a record, is empty, not an error.
        assert!(tail_from(&wal, wal.tail_lsn()).is_empty());
        assert!(wal.read_log(1, Lsn::MAX).unwrap().is_empty());

        // `to` cuts at the last record edge at or below it.
        let bytes = wal.snapshot_bytes().unwrap();
        let edge = all[1].next_lsn;
        assert_eq!(wal.read_log(0, edge - 1).unwrap(), bytes[..all[0].next_lsn as usize]);
        assert_eq!(wal.read_log(0, edge).unwrap(), bytes[..edge as usize]);

        // A record over the 1 MiB budget is read whole, and alone.
        let (at, big) = (wal.tail_lsn(), "x".repeat(2 << 20));
        wal.append_batch(&[w(2, "big", Some(&big)), WalRecord::Commit { txid: 2 }]).unwrap();
        let chunk = wal.read_log(at, Lsn::MAX).unwrap();
        let read: Vec<WalRecord> = records(&chunk, at).map(|t| t.record).collect();
        assert_eq!(read, [w(2, "big", Some(&big))]);
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
        assert_eq!(serial.snapshot_bytes().unwrap(), batched.snapshot_bytes().unwrap());
        assert_eq!(ends.len(), records.len());
        let tailed = tail_from(&batched, 0);
        for (t, end) in tailed.iter().zip(&ends) {
            assert_eq!(t.next_lsn, *end, "per-record end offsets line up with tailing");
        }
        assert_eq!(*ends.last().unwrap(), batched.tail_lsn());
        assert!(batched.append_batch(&[]).unwrap().is_empty());

        // Blocks framed from borrowed parts are the same bytes again.
        let blocked = Wal::in_memory();
        let a: WriteParts = ("doc/orders", b"a", Some(b"1"));
        let b: WriteParts = ("doc/orders", b"b", None);
        let end = blocked.append_blocks([(1, vec![a]), (2, vec![b])]).unwrap();
        assert_eq!(blocked.snapshot_bytes().unwrap(), batched.snapshot_bytes().unwrap());
        assert_eq!(end, blocked.tail_lsn());
        let none: [(TxId, Vec<WriteParts>); 0] = [];
        assert_eq!(blocked.append_blocks(none).unwrap(), end);
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

    #[cfg(feature = "failpoints")]
    #[test]
    fn batch_append_failures_are_atomic_or_tear_like_serial_appends() {
        // `fail`: the whole batch is rejected before any byte lands.
        mmdb_fault::clear_all();
        let wal = Wal::in_memory();
        wal.append(&WalRecord::Begin { txid: 1 }).unwrap();
        wal.append(&WalRecord::Commit { txid: 1 }).unwrap();
        let intact = wal.snapshot_bytes().unwrap();
        mmdb_fault::set("wal.append", "error").unwrap();
        assert!(wal
            .append_batch(&[WalRecord::Begin { txid: 2 }, WalRecord::Commit { txid: 2 }])
            .is_err());
        assert_eq!(wal.snapshot_bytes().unwrap(), intact, "a failed batch leaves no trace");

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
        let (reopened, _) = reopened("torn-batch", &wal.snapshot_bytes().unwrap());
        assert!(reopened.tail_lsn() < wal.tail_lsn(), "the torn bytes landed");
        let tailed = tail_from(&wal, 0);
        assert_eq!(
            tailed.last().unwrap().next_lsn,
            reopened.tail_lsn(),
            "tailing stops exactly where recovery truncates, so torn bytes are never shipped"
        );

        // A copied run is evaluated record by record too: `short` on its
        // second record lands the first and half the second's frame.
        let copy = Wal::in_memory();
        let second = format!("{}:short", mmdb_fault::hits("wal.append") + 2);
        mmdb_fault::set("wal.append", &second).unwrap();
        assert!(copy.append_at(0, &intact).is_err());
        mmdb_fault::clear_all();
        assert_eq!(copy.snapshot_bytes().unwrap(), intact[..17 + 17 / 2]);
    }

    /// Append a committed txn writing `key` and return the logical tail
    /// afterwards.
    fn commit_one(wal: &Wal, txid: TxId, key: &str, value: Option<&str>) -> Lsn {
        wal.append(&WalRecord::Begin { txid }).unwrap();
        wal.append(&w(txid, key, value)).unwrap();
        wal.append(&WalRecord::Commit { txid }).unwrap();
        wal.sync().unwrap();
        wal.tail_lsn()
    }

    /// A history with an overwrite and a delete, checkpointed at `h`,
    /// then one more commit: returns `h` and the tail.
    fn checkpointed_history(wal: &Wal) -> (Lsn, Lsn) {
        commit_one(wal, 1, "a", Some("1"));
        commit_one(wal, 2, "gone", Some("x"));
        commit_one(wal, 3, "a", Some("2"));
        let h = commit_one(wal, 4, "gone", None);
        let folded = wal.fold_prefix(wal.durable_lsn()).unwrap();
        assert_eq!(folded.horizon, h);
        assert_eq!(folded.entries, 1, "one live key");
        assert_eq!(folded.reclaimed + folded.image_bytes, h, "the prefix is image + dropped bytes");
        let tail = commit_one(wal, 5, "new", Some("y"));
        (h, tail)
    }

    /// What the block assembler releases reading from `from` to the tail.
    fn blocks_from(wal: &Wal, from: Lsn) -> Vec<CommittedBlock> {
        let mut blocks = BlockAssembler::default();
        let tailed = tail_from(wal, from);
        tailed.into_iter().filter_map(|t| blocks.push(t.record, t.next_lsn)).collect()
    }

    #[test]
    fn a_checkpointed_log_is_its_image_then_the_records_past_the_horizon() {
        let wal = Wal::in_memory();
        let (h, tail) = checkpointed_history(&wal);
        assert_eq!(wal.truncated_lsn(), h);
        assert_eq!(wal.tail_lsn(), tail, "the logical tail is unchanged");
        assert!(wal.checkpointed_at().is_some());
        let base = wal.base_lsn();
        assert!(0 < base && base < h);

        // Reading from B yields exactly the image block, ending at T, and
        // then the records past T as they were.
        let blocks = blocks_from(&wal, base);
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[0].txid, blocks[0].end_lsn), (0, h));
        let image: Vec<(&[u8], Option<&[u8]>)> =
            blocks[0].writes.iter().map(|w| (w.key.as_slice(), w.value.as_deref())).collect();
        assert_eq!(image, [(b"a".as_slice(), Some(b"2".as_slice()))]);
        assert_eq!(blocks[1].writes[0].key, b"new");

        // Below B the history is gone; inside the image no LSN names a
        // record of it. Both are typed errors; T and past still read.
        for inside in [0, base - 1, base + 1, h - 1] {
            assert!(
                matches!(wal.read_log(inside, Lsn::MAX), Err(Error::LogTruncated(_))),
                "{inside}"
            );
        }
        assert_eq!(blocks_from(&wal, h).len(), 1);

        // Recovery: the image, then the suffix.
        let writes = committed(&wal.snapshot_bytes().unwrap());
        assert_eq!(keys(&writes), [b"a".as_slice(), b"new".as_slice()]);
    }

    #[test]
    fn a_checkpointed_file_reopens_with_stable_lsns() {
        let path = temp_wal("ckpt");
        let (h, tail, base, suffix) = {
            let wal = Wal::open(&path).unwrap();
            let (h, tail) = checkpointed_history(&wal);
            wal.append_checkpoint(h).unwrap();
            (h, tail, wal.base_lsn(), tail_from(&wal, h))
        };
        assert!(!tmp_path(&path).exists(), "the tmp was renamed over the log");
        let wal = Wal::open(&path).unwrap();
        assert_eq!((wal.base_lsn(), wal.truncated_lsn()), (base, h));
        assert!(wal.tail_lsn() > tail);
        assert_eq!(wal.durable_lsn(), wal.tail_lsn());
        assert!(wal.checkpointed_at().is_some(), "the header dates the checkpoint");
        assert_eq!(tail_from(&wal, h), suffix);
        // Appends continue the logical sequence, and recovery reads the
        // image and everything after it.
        let tail2 = commit_one(&wal, 7, "more", Some("z"));
        drop(wal);
        let (wal, state) = Wal::recover(&path).unwrap();
        assert_eq!(keys(&state), [b"a".as_slice(), b"new".as_slice(), b"more".as_slice()]);
        assert_eq!(wal.tail_lsn(), tail2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_checkpoint_is_durable_and_carries_the_lsn() {
        let wal = Wal::in_memory();
        let s = commit_one(&wal, 1, "a", Some("v"));
        wal.append_checkpoint(s).unwrap();
        assert_eq!(wal.durable_lsn(), wal.tail_lsn(), "marker is synced");
        let tailed = tail_from(&wal, s);
        assert_eq!(tailed.len(), 1);
        assert_eq!(tailed[0].record, WalRecord::Checkpoint { snapshot_lsn: s });
    }

    #[test]
    fn a_log_whose_last_block_is_open_reopens_at_that_blocks_begin() {
        let path = temp_wal("open-block");
        let wal = Wal::open(&path).unwrap();
        let boundary = commit_one(&wal, 1, "a", Some("1"));
        wal.append_batch(&[WalRecord::Begin { txid: 2 }, w(2, "b", Some("2"))]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (wal, state) = Wal::recover(&path).unwrap();
        assert_eq!(wal.tail_lsn(), boundary, "the open block is cut at its Begin");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER_LEN + boundary);
        assert_eq!(keys(&state), [b"a".as_slice()]);
        // The next block continues the log, not the cut one.
        commit_one(&wal, 1, "c", Some("3"));
        drop(wal);
        assert_eq!(keys(&Wal::recover(&path).unwrap().1), [b"a".as_slice(), b"c".as_slice()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_headerless_or_wal3_log_reopens_with_a_fresh_id_and_the_same_records() {
        let path = temp_wal("legacy");
        let (header, records, image) = {
            let wal = Wal::open(&path).unwrap();
            let (h, _) = checkpointed_history(&wal);
            let image = tail_from(&wal, wal.base_lsn());
            (wal.header(), tail_from(&wal, h), image)
        };
        let bytes = std::fs::read(&path).unwrap();
        let body = &bytes[WAL_HEADER_LEN as usize..];
        // The previous layout: the same base, horizon and time, no id.
        let mut wal3 = WAL3_MAGIC.to_vec();
        for field in [header.base, header.horizon, header.at_ms] {
            wal3.extend_from_slice(&field.to_le_bytes());
        }
        wal3.extend_from_slice(body);
        std::fs::write(&path, &wal3).unwrap();
        let wal = Wal::open(&path).unwrap();
        let upgraded = wal.header();
        assert_ne!(upgraded.log_id, header.log_id, "a fresh id");
        assert_eq!(upgraded, Header { log_id: upgraded.log_id, ..header });
        assert_eq!(tail_from(&wal, header.horizon), records);
        assert_eq!(tail_from(&wal, header.base)[..image.len()], image);
        drop(wal);
        assert_eq!(Wal::open(&path).unwrap().header(), upgraded, "the id is written down");

        // A headerless log: never checkpointed, B = T = 0.
        let plain = temp_wal("headerless");
        let records = {
            let wal = Wal::open(&plain).unwrap();
            commit_one(&wal, 1, "a", Some("1"));
            tail_from(&wal, 0)
        };
        let bytes = std::fs::read(&plain).unwrap();
        std::fs::write(&plain, &bytes[WAL_HEADER_LEN as usize..]).unwrap();
        let wal = Wal::open(&plain).unwrap();
        let h = wal.header();
        assert_eq!((h.base, h.horizon, h.at_ms), (0, 0, 0));
        assert_eq!(tail_from(&wal, 0), records);
        assert_eq!(std::fs::read(&plain).unwrap()[..8], WAL_MAGIC, "the file has its header");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&plain);
    }

    /// `wal`'s bytes split at its horizon: its image `[B, T)` and the
    /// records past it.
    fn image_and_suffix(wal: &Wal) -> (Vec<u8>, Vec<u8>) {
        let mut image = wal.snapshot_bytes().unwrap();
        let suffix = image.split_off((wal.truncated_lsn() - wal.base_lsn()) as usize);
        (image, suffix)
    }

    #[test]
    fn a_reset_log_is_the_other_logs_header_and_image_and_then_takes_its_records() {
        let source = Wal::in_memory();
        let (h, _) = checkpointed_history(&source);
        let header = source.header();
        let (image, suffix) = image_and_suffix(&source);

        let path = temp_wal("reset");
        let wal = Wal::open(&path).unwrap();
        commit_one(&wal, 9, "stale", Some("x"));
        // An image cut short or mid-record, bytes that do not check, or a
        // run off the tail, is refused before a byte lands.
        let mut corrupt = image.clone();
        corrupt[10] ^= 0xFF;
        let short = Header { horizon: h - 1, ..header };
        assert!(wal.reset(header, &image[..image.len() - 1]).is_err());
        assert!(wal.reset(short, &image[..image.len() - 1]).is_err());
        assert!(wal.reset(header, &corrupt).is_err());
        assert!(wal.append_at(h, &suffix).is_err());
        let before = std::fs::read(&path).unwrap();

        wal.reset(header, &image).unwrap();
        assert_eq!(wal.tail_lsn(), h, "after a reset the tail is T");
        let header = Header { copy: true, ..header };
        assert_eq!((wal.header(), wal.durable_lsn()), (header, h));
        assert_ne!(std::fs::read(&path).unwrap(), before);
        assert!(wal.append_at(h, &suffix[..suffix.len() - 1]).is_err(), "a cut record lands");
        assert!(wal.append_at(h + 1, &suffix).is_err(), "a gap lands");
        assert_eq!(wal.append_at(h, &suffix).unwrap(), source.tail_lsn());
        wal.sync().unwrap();
        drop(wal);
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.header(), header);
        assert_eq!(tail_from(&wal, header.base), tail_from(&source, header.base));
        // The file from B on is the source's bytes.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[WAL_HEADER_LEN as usize..], source.snapshot_bytes().unwrap());

        // An empty fold resets to the header alone.
        let fresh = Wal::in_memory();
        fresh.reset(Header::fresh(), &[]).unwrap();
        assert_eq!((fresh.tail_lsn(), fresh.snapshot_bytes().unwrap().len()), (0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_log_reads_back_its_file_past_the_header() {
        let path = temp_wal("snapshot-bytes");
        let wal = Wal::open(&path).unwrap();
        let (h, tail) = checkpointed_history(&wal);
        let bytes = wal.snapshot_bytes().unwrap();
        assert!(!bytes.is_empty());
        assert_eq!(bytes, std::fs::read(&path).unwrap()[WAL_HEADER_LEN as usize..]);
        let from_h = &bytes[(h - wal.base_lsn()) as usize..];
        assert_eq!((wal.read_log(h, tail).unwrap(), tail_from(&wal, h).len()), (from_h.to_vec(), 3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_copys_first_local_append_draws_it_a_fresh_id() {
        let source = Wal::in_memory();
        checkpointed_history(&source);
        let header = source.header();
        let (image, suffix) = image_and_suffix(&source);

        let path = temp_wal("claim");
        let wal = Wal::open(&path).unwrap();
        wal.reset(header, &image).unwrap();
        wal.append_at(header.horizon, &suffix).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Reopened, it is still a copy carrying the source's id: the
        // source's records keep it one.
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.header(), Header { copy: true, ..header });
        let tail = wal.tail_lsn();
        let body = std::fs::read(&path).unwrap()[WAL_HEADER_LEN as usize..].to_vec();

        // A record of its own makes it another log, with the same bytes
        // before that record.
        commit_one(&wal, 7, "local", Some("1"));
        let own = wal.header();
        assert!(!own.copy);
        assert_ne!(own.log_id, header.log_id);
        assert_eq!(own, Header { log_id: own.log_id, copy: false, ..header });
        drop(wal);
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.header(), own, "the fresh id is written down");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[WAL_HEADER_LEN as usize..][..body.len()], body[..]);
        assert!(wal.tail_lsn() > tail);
        commit_one(&wal, 8, "again", Some("2"));
        assert_eq!(wal.header(), own, "only the first local append draws an id");

        // A memory copy is claimed the same way.
        let mem = Wal::in_memory();
        mem.reset(header, &image).unwrap();
        commit_one(&mem, 1, "local", Some("1"));
        assert!(!mem.header().copy && mem.header().log_id != header.log_id);
        let _ = std::fs::remove_file(&path);
    }
}
