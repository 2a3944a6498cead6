//! Allocation budget for the read path: reading a row pays for the
//! values the query reads, not for names or for the rest of the
//! document. Referring to a bound document (`o != NULL`, `o._key`,
//! `order.orderlines`) must not copy it; a read of a stored document or
//! table row must decode only the fields or columns the plan reads of it
//! (optimizer rule 6), and a scan must not bind an item its filter
//! rejects; a
//! field name, a short string value, a bound variable's name or a lookup
//! key must not be copied to the heap; a record is decoded where its heap
//! keeps it, not copied out first; a traversal walks the edge index's shared
//! handles and emits a short handle inline; a full-text hit is fetched by
//! its record id, not through a copy of its key.
//!
//! A timing would flap on a shared box; a count of allocator calls per
//! examined row repeats exactly, in debug and optimized builds alike.
//! Each budget sits just above what this tree does, and below the count
//! with any one of those copies put back:
//!
//! | query                  | this tree | before | one copy back | budget | heap strings | decoded whole |
//! |------------------------|-----------|--------|---------------|--------|--------------|---------------|
//! | scan of `orders`       | 1.10      | 1.14   | 1.46          | 1.15   | 1.92         | 9.19          |
//! | Q2                     | 3.34      | 3.71   | 3.82          | 3.4    | 5.45         | 8.42          |
//! | Q4 as a hash join      | 3.85      | 3.98   | 4.19          | 3.9    | 4.55         | 13.68         |
//! | Q5, `1..2 ANY`         | 4.81      | 4.84   | 5.00          | 4.85   | 7.21         | 9.53          |
//! | scan of `customers`    | 1.51      | 2.19   | —             | 1.55   | —            | 2.19          |
//! | `FULLTEXT`, rated      | 2.11      | 2.17   | 2.83          | 2.2    | —            | —             |
//!
//! "Before" is the commit before table scans decoded only the columns
//! they read, filtered their items in place and a `_key`-only traversal
//! answered from its handles; "one copy back" was measured against it,
//! and its budgets were 1.2, 3.75, 4.05, 4.95 and 2.25.
//! "One copy back" is the smallest count, among the copies that move it
//! at all, of: binding names as `String`s, copying records out of the
//! page, `to_string()` on a document lookup key, cloning a scanned row's
//! values, copying the edge index's handles, and a string value cloned
//! to the heap (decoded through a `String`); for `FULLTEXT` it is a hit
//! naming its document by a cloned `_key` instead of its record id, as
//! the commit before full-text indexes moved into their collections did.
//! "Heap strings" is the
//! commit before string values and traversal handles went inline (its
//! budgets were 2.0, 5.5, 4.6 and 7.25). "Decoded whole" is the commit
//! before projected reads, whose budgets were 9.4, 8.5, 13.8 and 9.6;
//! for the `customers` scan it is "before", which decoded rows whole.
//! The commit before inline names counted 18.6, 15.7, 25.7 and 16.7, the
//! one before borrowed evaluation 50.2 and 33.2 for the scan and Q2.
//! Q2's plan has a `Dedup` after its traversal (optimizer rule 7); in
//! this world no two customers share a friend, so it drops nothing,
//! costs one key per row, and adds its rows to the examined ones: 5.89
//! before it, with heap strings. A scan's residual filter counts its rows
//! as the `Filter` it replaced did (see `allocs_per_row`), so "this tree"
//! and "before" divide the same rows. The `customers` scan counted 1.55
//! (budget 1.6), Q2 3.35 and `FULLTEXT` 2.12 while a name was resolved
//! by probing one registry per model, formatting an error at each miss,
//! and `FULLTEXT` cloned every collection handle to find its index.
//!
//! The traced run every served query takes (`query_traced_with`) costs a
//! fixed number of allocator calls more than `query`, whatever the rows:
//! the profile's operator lines, slots and access paths, each described
//! once per query. Its cases bind 24 and then 48 outer rows, and each
//! must cost the same extra at both:
//!
//! | profile's extra calls       | this tree, 24 / 48 rows | before, 24 / 48 rows |
//! |-----------------------------|-------------------------|----------------------|
//! | Q4 as a hash join           | 48 / 48                 | 71 / 95              |
//! | Q4-grouped, over `totals`   | 68 / 68                 | 92 / 116             |
//!
//! "Before" is the commit before access paths were described once per
//! query: it formatted a path for every evaluation of an operator, one
//! more allocation per outer row of a correlated subquery.
//!
//! When a change moves a count on purpose, re-measure with
//! `-- --nocapture`.
//!
//! Its own test binary because of the `#[global_allocator]`; one `#[test]`
//! so no sibling test allocates on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmdb::substrate::query::plan::{build_plan, PlanNode};
use mmdb::substrate::query::{exec, optimize, parse_query};
use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::substrate::txn::IsolationLevel;
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
    db.create_graph("social").unwrap();
    db.create_vertex_collection("social", "persons").unwrap();
    db.create_edge_collection("social", "knows").unwrap();
    db.create_bucket("cart").unwrap();
    db.create_collection("orders").unwrap();
    for id in 0..CUSTOMERS {
        let limit = if id % 2 == 0 { 5000 } else { 2000 };
        let row = format!(r#"{{"id":{id},"name":"customer {id}","credit_limit":{limit}}}"#);
        db.insert_row("customers", &mmdb::from_json(&row).unwrap()).unwrap();
        let person = mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            s.add_vertex("social", "persons", person.clone())
        })
        .unwrap();
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
                r#"{{"_key":"order-{id}","customer_id":{id},"status":"shipped","total":{},"address":{{"street":"{id} Main St","city":"Springfield","zip":"0{id}"}},"orderlines":[{}]}}"#,
                40 + id,
                lines.join(",")
            ),
        )
        .unwrap();
    }
    db.create_collection("reviews").unwrap();
    for id in 0..CUSTOMERS {
        let text = if id % 3 == 0 { "a good toy, would buy again" } else { "good value for the price" };
        db.insert_json(
            "reviews",
            &format!(
                r#"{{"_key":"review-{id}","product_no":"p{}","rating":{},"author":"customer {id}","text":"{text}"}}"#,
                id % 17,
                id % 5 + 1
            ),
        )
        .unwrap();
    }
    db.create_fulltext_index("review_text", "reviews", "text").unwrap();
    for id in 0..CUSTOMERS {
        for step in [1, 2] {
            let (from, to) = (format!("persons/{id}"), format!("persons/{}", (id + step) % CUSTOMERS));
            db.transact(IsolationLevel::Snapshot, 3, |s| {
                s.add_edge("social", "knows", &from, &to, mmdb::from_json("{}")?)
            })
            .unwrap();
        }
    }
    db
}

/// Allocator calls per examined row for one untraced run of `text`. The
/// examined rows are the rows all operators produce, the benchmark's
/// `rows_examined`, with a scan's residual filter counted as the
/// `Filter` it was: the traced run is of the optimized plan with each
/// `For` residual put back as a `Filter` after its scan. So a filter
/// that moves into its scan keeps its rows in the count, and a budget
/// compares the same rows before and after it moved.
fn allocs_per_row(db: &Database, text: &str) -> f64 {
    let mut plan = optimize::optimize(build_plan(&parse_query(text).unwrap()).unwrap(), db.world());
    let mut nodes = Vec::new();
    for mut node in plan.nodes {
        let residual = match &mut node {
            PlanNode::For { residual, .. } => residual.take(),
            _ => None,
        };
        nodes.push(node);
        nodes.extend(residual.map(PlanNode::Filter));
    }
    plan.nodes = nodes;
    let (rows, stats) = exec::execute_plan_traced(db.world(), &plan).unwrap();
    assert!(!rows.is_empty(), "{text}");
    let examined: usize = stats.ops.iter().map(|op| op.rows_out).sum();
    let before = ALLOCS.with(Cell::get);
    let again = db.query(text).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(again, rows);
    let per_row = allocs as f64 / examined as f64;
    eprintln!("{allocs} allocations / {examined} rows examined = {per_row:.2}: {text}");
    per_row
}

/// Allocator calls a traced run of `text` (`query_traced_with`, the path
/// every served query takes) makes beyond an untraced one: the cost of
/// the profile alone.
fn profile_allocs(db: &Database, text: &str) -> u64 {
    let counted = |run: &dyn Fn() -> Vec<Value>| {
        let before = ALLOCS.with(Cell::get);
        let rows = run();
        (ALLOCS.with(Cell::get) - before, rows)
    };
    let (plain, rows) = counted(&|| db.query(text).unwrap());
    let (traced, traced_rows) =
        counted(&|| db.query_traced_with(text, &CancelToken::none()).unwrap().0);
    assert_eq!(rows, traced_rows, "{text}");
    let extra = traced - plain;
    eprintln!("{extra} allocations for the profile ({traced} traced, {plain} untraced): {text}");
    extra
}

#[test]
fn reading_a_row_pays_for_its_values_not_its_names() {
    let db = paper_db();
    let scan = allocs_per_row(&db, "FOR o IN orders FILTER o != NULL RETURN o._key");
    assert!(scan <= 1.15, "{scan:.2} allocations per examined row: is the scan decoding whole documents, or copying names or strings?");
    let q2 = allocs_per_row(
        &db,
        r#"FOR c IN customers FILTER c.credit_limit > 3000
             FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
               LET order = DOC("orders", KV_GET("cart", friend._key)) FILTER order != NULL
               FOR line IN order.orderlines RETURN DISTINCT line.product_no"#,
    );
    assert!(q2 <= 3.4, "{q2:.2} allocations per examined row: is Q2 decoding whole orders, or copying documents, names or strings?");
    // Q4 unrolled: the optimizer turns the correlated subquery into a
    // hash join whose build side is one full scan of `orders`, decoding
    // `customer_id` and `total` of each.
    let q4 = allocs_per_row(
        &db,
        r#"FOR c IN customers
             LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total))
             RETURN {name: c.name, total: total}"#,
    );
    assert!(q4 <= 3.9, "{q4:.2} allocations per examined row: is the hash join decoding whole orders, or copying rows, names or strings?");
    let q5 = allocs_per_row(
        &db,
        r#"FOR friend IN 1..2 ANY "persons/7" knows
             LET order = DOC("orders", KV_GET("cart", friend._key)) FILTER order != NULL
             FOR line IN order.orderlines RETURN DISTINCT line.product_no"#,
    );
    assert!(q5 <= 4.85, "{q5:.2} allocations per examined row: is the traversal copying handles, names or strings?");
    // A table scan decodes the columns the plan reads and drops the rows
    // its filter rejects before binding them.
    let rows = allocs_per_row(&db, "FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.id");
    assert!(rows <= 1.55, "{rows:.2} allocations per examined row: is the table scan decoding whole rows, or binding rows its filter rejects?");
    let text = allocs_per_row(
        &db,
        r#"FOR r IN FULLTEXT("review_text", "good") FILTER r.rating >= 4 RETURN r.product_no"#,
    );
    assert!(text <= 2.2, "{text:.2} allocations per examined row: is a full-text hit copying its key, or decoding whole reviews?");
    // The profile costs the same whatever the outer scan binds: an
    // operator's access path is described once per query, not once per
    // evaluation, so a correlated subquery run per customer adds nothing
    // per customer. Both subqueries plan as hash joins, over `orders` and
    // over the bound `totals`.
    let q4 = |n: usize| {
        format!(
            r#"FOR c IN customers FILTER c.id < {n}
                 LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total))
                 RETURN {{name: c.name, total: total}}"#
        )
    };
    let q4_grouped = |n: usize| {
        format!(
            r#"LET totals = (FOR o IN orders COLLECT cid = o.customer_id AGGREGATE t = SUM(o.total)
                             RETURN {{cid: cid, t: t}})
               FOR c IN customers FILTER c.id < {n}
                 LET hit = (FOR x IN totals FILTER x.cid == c.id RETURN x.t)
                 RETURN {{name: c.name, total: LENGTH(hit) > 0 ? hit[0] : 0}}"#
        )
    };
    for (name, text) in [("Q4", &q4 as &dyn Fn(usize) -> String), ("Q4-grouped", &q4_grouped)] {
        let (half, all) = (profile_allocs(&db, &text(CUSTOMERS / 2)), profile_allocs(&db, &text(CUSTOMERS)));
        assert_eq!(half, all, "{name}'s profile allocates per outer row: {half} allocations over {} customers, {all} over {CUSTOMERS}", CUSTOMERS / 2);
    }
}
