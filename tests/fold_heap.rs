//! Heap bound for the log's fold: reopening a log and checkpointing it
//! hold the state the log leaves, never its history.
//!
//! One collection of `DOCS` documents of about 60 bytes is written once
//! (G = 1) into one directory and `GENERATIONS` times (G = 8) into
//! another, in file-backed transactions of `TXN_WRITES` writes, so the
//! second log holds eight times the history of the same live state. Each
//! directory is then reopened and its database checkpointed, and the
//! peak heap either step allocates beyond what was live before it is
//! counted:
//!
//! | step                    | G = 1   | G = 8   | G = 8 / G = 1 |
//! |-------------------------|---------|---------|---------------|
//! | `Database::open`        | 14.1 MB | 14.1 MB | 1.00          |
//! | `Database::checkpoint`  | 7.0 MB  | 7.0 MB  | 1.00          |
//!
//! (optimized build; the image is 2.1 MB either way). When recovery read the log whole and both steps
//! collected every committed write before folding, the open held the
//! file and its history too, and the checkpoint its prefix's history:
//! 17.9 MB and 6.5 MB at G = 1 against 46.7 MB and 41.1 MB at G = 8
//! (2.61 and 6.31).
//! The bound is `RATIO` on both ratios.
//!
//! Its own test binary because of the `#[global_allocator]`; one `#[test]`
//! so no sibling test allocates on the counted thread. The open and the
//! checkpoint run on it: a reopen's fold and load, and a lone
//! checkpoint's fold and rewrite, take no other thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use mmdb::substrate::txn::IsolationLevel;
use mmdb::{Database, Value};

thread_local! {
    /// Bytes this thread has allocated and not yet freed, and the most
    /// that has been live since [`peak_extra`] last began. `Cell`s have no
    /// destructor and are const-initialised, so reading them never
    /// allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only extra work is adjusting two
// thread-local integers, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DOCS: usize = 20_000;
const GENERATIONS: usize = 8;
const TXN_WRITES: usize = 1_000;
const RATIO: f64 = 1.5;

/// The peak heap `step` allocates beyond what was live when it began,
/// and what it returned.
fn peak_extra<T>(step: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = step();
    (out, PEAK.with(Cell::get) - before)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-fold-heap-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Document `i` of generation `g`: about 60 bytes encoded.
fn doc(i: usize, g: usize) -> Value {
    Value::object([
        ("_key", Value::str(format!("d{i:05}"))),
        ("n", Value::int((i * GENERATIONS + g) as i64)),
        ("text", Value::str(format!("generation {g} of document {i:05}"))),
    ])
}

/// The collection written `generations` times into `dir`: the first
/// generation inserts every document, each later one replaces them all.
fn write(dir: &Path, generations: usize) {
    let db = Database::open(dir).unwrap();
    db.create_collection("items").unwrap();
    for g in 0..generations {
        for first in (0..DOCS).step_by(TXN_WRITES) {
            db.transact(IsolationLevel::Snapshot, 1, |s| {
                for i in first..first + TXN_WRITES {
                    if g == 0 {
                        s.insert_document("items", doc(i, g))?;
                    } else {
                        s.update_document("items", &format!("d{i:05}"), doc(i, g))?;
                    }
                }
                Ok(())
            })
            .unwrap();
        }
    }
}

#[test]
fn reopening_and_checkpointing_a_log_hold_its_state_not_its_history() {
    let mut peaks = Vec::new();
    for generations in [1, GENERATIONS] {
        let dir = fresh_dir(&format!("g{generations}"));
        write(&dir, generations);
        let (db, open) = peak_extra(|| Database::open(&dir).unwrap());
        let last = db.get_document("items", &format!("d{:05}", DOCS - 1)).unwrap().unwrap();
        let want = ((DOCS - 1) * GENERATIONS + generations - 1) as i64;
        assert_eq!(last.get_field("n"), &Value::int(want), "the newest generation reopened");
        let (summary, checkpoint) = peak_extra(|| db.checkpoint().unwrap());
        assert_eq!(summary.entries, DOCS + 1, "the documents and the collection's definition");
        println!(
            "G = {generations}: open {:.1} MB, checkpoint {:.1} MB of peak extra heap \
             (image {:.1} MB)",
            open as f64 / 1e6,
            checkpoint as f64 / 1e6,
            summary.snapshot_bytes as f64 / 1e6
        );
        peaks.push((open, checkpoint));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let [(open_1, ckpt_1), (open_g, ckpt_g)] = peaks[..] else { unreachable!() };
    let open = open_g as f64 / open_1 as f64;
    let checkpoint = ckpt_g as f64 / ckpt_1 as f64;
    println!("G = {GENERATIONS} over G = 1: open {open:.2}, checkpoint {checkpoint:.2}");
    assert!(open <= RATIO, "a reopen's peak heap grows with the history: {open:.2}x");
    assert!(
        checkpoint <= RATIO,
        "a checkpoint's peak heap grows with the history: {checkpoint:.2}x"
    );
}
