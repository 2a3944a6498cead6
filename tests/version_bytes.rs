//! Footprint budget for the version store: a committed value is kept
//! once, as the bytes of its log record, not as a decoded `Value` tree.
//!
//! The workload is the benchmark's new-order transaction, committed
//! `TXNS` times into an `MvccStore` with no WAL and no hooks, so the
//! version store is the only thing left holding memory: an order
//! document and an edge under new keys, a cart string and a customer
//! row overwritten round `CUSTOMERS` customers, so their chains grow.
//! A byte count of the live heap repeats exactly, in debug and optimized
//! builds alike. Bytes of live heap per committed write:
//!
//! | tree                                 | bytes per write |
//! |--------------------------------------|-----------------|
//! | this tree (the log's bytes, shared)  | 163.4           |
//! | decoded versions (`Option<Value>`)   | 315.8           |
//! | budget                               | 170             |
//!
//! "Decoded versions" is the commit before the version store kept the
//! log's bytes: each version held a clone of the staged `Value`, and a
//! `Version` was 40 bytes instead of 24. When a change moves the count on
//! purpose, re-measure with `-- --nocapture`.
//!
//! Its own test binary because of the `#[global_allocator]`; one `#[test]`
//! so no sibling test allocates on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmdb::substrate::txn::{IsolationLevel, MvccStore};
use mmdb::substrate::types::codec::key_of;
use mmdb::Value;

thread_local! {
    /// Bytes this thread has allocated and not yet freed. A `Cell<isize>`
    /// has no destructor and is const-initialised, so reading it never
    /// allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn track(delta: isize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only extra work is adjusting a
// thread-local integer, which neither allocates nor unwinds.
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

const TXNS: usize = 4000;
const CUSTOMERS: usize = 250;
const WRITES_PER_TXN: usize = 4;
const BUDGET: f64 = 170.0;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The new-order transaction's four writes for order `i`.
fn new_order(i: usize) -> [(&'static str, Vec<u8>, Value); WRITES_PER_TXN] {
    let customer = (i % CUSTOMERS) as i64;
    let key = format!("ob-{customer}-{}", i / CUSTOMERS);
    let who = format!("persons/{customer}");
    let order = Value::object([
        ("_key", Value::str(&key)),
        ("customer_id", Value::int(customer)),
        (
            "orderlines",
            Value::array([Value::object([
                ("product_no", Value::str("p0001")),
                ("product_name", Value::str("bench toy")),
                ("price", Value::int(40)),
            ])]),
        ),
        ("total", Value::int(40)),
    ]);
    let edge = Value::object([
        ("_key", Value::str(&key)),
        ("order_no", Value::str(&key)),
        ("_from", Value::str(&who)),
        ("_to", Value::str(&who)),
    ]);
    let row = Value::object([
        ("id", Value::int(customer)),
        ("name", Value::str(format!("customer {customer}"))),
        ("place", Value::str("Springfield")),
        ("credit_limit", Value::int(5000 - 40 * (i / CUSTOMERS) as i64)),
    ]);
    [
        ("doc/orders", key.clone().into_bytes(), order),
        ("kv/cart", customer.to_string().into_bytes(), Value::str(&key)),
        ("graph/social/e/bought", key.into_bytes(), edge),
        ("rel/customers", key_of(&Value::int(customer)), row),
    ]
}

#[test]
fn the_version_store_holds_each_committed_value_once_encoded() {
    let store = MvccStore::new(None);
    let before = live();
    for i in 0..TXNS {
        let mut t = store.begin(IsolationLevel::Snapshot);
        for (domain, key, value) in new_order(i) {
            t.put(domain, &key, value).unwrap();
        }
        t.commit().unwrap();
    }
    let per_write = (live() - before) as f64 / (TXNS * WRITES_PER_TXN) as f64;
    println!("version store: {per_write:.1} bytes of live heap per committed write");

    // Every value reads back as committed.
    let r = store.begin(IsolationLevel::Snapshot);
    for i in [0, TXNS / 2, TXNS - 1] {
        for (domain, key, value) in new_order(i) {
            if domain == "doc/orders" || domain == "graph/social/e/bought" {
                assert_eq!(r.get(domain, &key).unwrap(), Some(value), "{domain} of order {i}");
            }
        }
    }
    for (domain, key, value) in new_order(TXNS - 1) {
        assert_eq!(r.get(domain, &key).unwrap(), Some(value), "{domain}, newest version");
    }
    assert!(
        per_write <= BUDGET,
        "{per_write:.1} bytes per committed write is over the budget of {BUDGET}: \
         is the version store holding decoded values again?"
    );
}
