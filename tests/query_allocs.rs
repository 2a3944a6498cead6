//! Allocation budget for MMQL navigation: referring to a bound document
//! (`o != NULL`, `o._key`, `order.orderlines`) must not copy it.
//!
//! A timing would flap on a shared box; a count of allocator calls per
//! examined row repeats exactly. The budgets sit between what this tree
//! does and what an evaluator that clones a document per reference does
//! (this tree: 18.2 for the scan, 15.6 for Q2; the commit before borrowed
//! evaluation: 50.2 and 33.2; the budgets: 24 and 20), so bringing a
//! per-reference clone back fails here, not in a benchmark run.
//!
//! Its own test binary because of the `#[global_allocator]`; one `#[test]`
//! so no sibling test allocates on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::substrate::types::CancelToken;
use mmdb::{Database, Value};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread. A `Cell<u64>` has no
    /// destructor and is const-initialised, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only extra work is bumping a
// thread-local integer, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CUSTOMERS: usize = 48;
const LINES_PER_ORDER: usize = 4;

/// The paper's slide-27 world, wider: every customer knows the next two,
/// has a cart entry and one order of several lines. Orders carry enough
/// fields that a copy of one is unmistakable in the count.
fn paper_db() -> Database {
    let db = Database::in_memory();
    db.create_table(
        "customers",
        Schema::new(
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("credit_limit", DataType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    let g = db.create_graph("social").unwrap();
    g.create_vertex_collection("persons").unwrap();
    g.create_edge_collection("knows").unwrap();
    db.create_bucket("cart").unwrap();
    db.create_collection("orders").unwrap();
    for id in 0..CUSTOMERS {
        let limit = if id % 2 == 0 { 5000 } else { 2000 };
        let row = format!(r#"{{"id":{id},"name":"customer {id}","credit_limit":{limit}}}"#);
        db.insert_row("customers", &mmdb::from_json(&row).unwrap()).unwrap();
        g.add_vertex("persons", mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap()).unwrap();
        db.kv_put("cart", &id.to_string(), Value::str(format!("order-{id}"))).unwrap();
        let lines: Vec<String> = (0..LINES_PER_ORDER)
            .map(|l| {
                format!(
                    r#"{{"product_no":"p{}","product_name":"Product {l}","brand":"Brand {l}","price":{}}}"#,
                    (id + l) % 17,
                    10 + l
                )
            })
            .collect();
        db.insert_json(
            "orders",
            &format!(
                r#"{{"_key":"order-{id}","customer_id":{id},"status":"shipped","address":{{"street":"{id} Main St","city":"Springfield","zip":"0{id}"}},"orderlines":[{}]}}"#,
                lines.join(",")
            ),
        )
        .unwrap();
    }
    for id in 0..CUSTOMERS {
        for step in [1, 2] {
            let (from, to) = (format!("persons/{id}"), format!("persons/{}", (id + step) % CUSTOMERS));
            g.add_edge("knows", &from, &to, mmdb::from_json("{}").unwrap()).unwrap();
        }
    }
    db
}

/// Allocator calls per examined row (rows produced by all operators, the
/// benchmark's `rows_examined`) for one untraced run of `text`.
fn allocs_per_row(db: &Database, text: &str) -> f64 {
    let (rows, stats) = db.query_traced_with(text, &CancelToken::none()).unwrap();
    assert!(!rows.is_empty(), "{text}");
    let examined: usize = stats.ops.iter().map(|op| op.rows_out).sum();
    let before = ALLOCS.with(Cell::get);
    let again = db.query(text).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(again, rows);
    let per_row = allocs as f64 / examined as f64;
    eprintln!("{allocs} allocations / {examined} rows examined = {per_row:.1}: {text}");
    per_row
}

#[test]
fn referring_to_a_document_does_not_copy_it() {
    let db = paper_db();
    let scan = allocs_per_row(&db, "FOR o IN orders FILTER o != NULL RETURN o._key");
    assert!(scan <= 24.0, "{scan:.1} allocations per examined row: is the scan copying documents?");
    let q2 = allocs_per_row(
        &db,
        r#"FOR c IN customers FILTER c.credit_limit > 3000
             FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
               LET order = DOC("orders", KV_GET("cart", friend._key)) FILTER order != NULL
               FOR line IN order.orderlines RETURN DISTINCT line.product_no"#,
    );
    assert!(q2 <= 20.0, "{q2:.1} allocations per examined row: is Q2 copying documents?");
}
