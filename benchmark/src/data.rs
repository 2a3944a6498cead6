//! Inputs: the data sets, the one loader, and the seed-determined
//! operation lists. The engine sees only what this module generates.

use mmdb_bench::gen::{self, Dataset};
use mmdb_bench::workloads::create_mmdb_schema;
use mmdb_core::{Database, Session};
use mmdb_txn::{CommittedWrite, IsolationLevel};
use mmdb_types::codec::{key_of, value_to_bytes};
use mmdb_types::{Result, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::{self, Kind};

/// Word pools of the generator's feedback texts and product categories
/// (`mmdb_bench::gen` keeps them private); Q3 draws its parameters here.
pub const CATEGORIES: [&str; 6] = ["toys", "books", "computers", "garden", "music", "sports"];
pub const WORDS: [&str; 27] = [
    "wooden", "great", "awful", "sturdy", "tiny", "shiny", "classic", "modern", "cheap", "premium",
    "broken", "lovely", "toy", "book", "computer", "train", "robot", "novel", "keyboard", "tent",
    "guitar", "ball", "puzzle", "atlas", "drone", "lamp", "chair",
];
/// Q2's credit thresholds (credit limits are multiples of 100 below 10 000).
pub const THRESHOLDS: [i64; 16] = [
    1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000, 6500, 7000, 7500, 8000, 8500,
];

pub fn small_dataset() -> Dataset {
    gen::generate(spec::SMALL_SCALE, spec::DATA_SEED)
}

/// The larger-than-cache data set: shards generated with consecutive
/// seeds, merged under disjoint id and key ranges.
pub fn big_dataset() -> Dataset {
    merge_shards(spec::DATA_SEED, spec::BIG_SHARDS, spec::BIG_SHARD_SCALE)
}

fn merge_shards(seed: u64, shards: usize, scale: f64) -> Dataset {
    let mut out = Dataset {
        customers: Vec::new(),
        knows: Vec::new(),
        products: Vec::new(),
        orders: Vec::new(),
        carts: Vec::new(),
        feedback: Vec::new(),
    };
    for shard in 0..shards {
        let d = gen::generate(scale, seed.wrapping_add(1 + shard as u64));
        let off = (shard * d.customers.len()) as i64;
        let tag = |key: &str| format!("s{shard:02}{key}");
        out.customers.extend(d.customers.into_iter().map(|mut c| {
            c.id += off;
            c
        }));
        out.knows
            .extend(d.knows.into_iter().map(|(a, b)| (a + off, b + off)));
        out.products.extend(d.products.into_iter().map(|mut p| {
            p.product_no = tag(&p.product_no);
            p
        }));
        out.orders.extend(d.orders.into_iter().map(|mut o| {
            o.order_no = tag(&o.order_no);
            o.customer_id += off;
            for l in &mut o.lines {
                l.product_no = tag(&l.product_no);
            }
            o
        }));
        out.carts
            .extend(d.carts.into_iter().map(|(cid, o)| (cid + off, tag(&o))));
        out.feedback.extend(d.feedback.into_iter().map(|mut f| {
            f.customer_id += off;
            f.product_no = tag(&f.product_no);
            f
        }));
    }
    out
}

#[derive(Clone, Copy)]
pub struct LoadOpts {
    /// Social graph (persons, knows): needed by Q2/Q5 and new-order.
    pub graph: bool,
    /// Feedback documents and their full-text index: needed by Q3.
    pub feedback: bool,
}

impl LoadOpts {
    pub const FULL: LoadOpts = LoadOpts {
        graph: true,
        feedback: true,
    };
    /// What point reads touch: customers, products, orders, carts.
    pub const READ_ONLY: LoadOpts = LoadOpts {
        graph: false,
        feedback: false,
    };
}

/// Stages writes into one session and commits every `LOAD_CHUNK`.
struct Loader<'a> {
    db: &'a Database,
    session: Session,
    staged: usize,
    items: usize,
}

impl Loader<'_> {
    fn put(&mut self, f: impl FnOnce(&mut Session) -> Result<()>) -> Result<()> {
        f(&mut self.session)?;
        self.items += 1;
        self.staged += 1;
        if self.staged == spec::LOAD_CHUNK {
            self.commit()?;
        }
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        let next = self.db.begin(IsolationLevel::Snapshot);
        std::mem::replace(&mut self.session, next).commit()?;
        self.staged = 0;
        Ok(())
    }
}

/// Create the UniBench schema and load `data` through `Session`
/// transactions, `LOAD_CHUNK` writes per commit: the one loader of all
/// four workloads. Returns the number of items loaded.
pub fn load(db: &Database, data: &Dataset, opts: LoadOpts) -> Result<usize> {
    create_mmdb_schema(db)?;
    let mut l = Loader {
        db,
        session: db.begin(IsolationLevel::Snapshot),
        staged: 0,
        items: 0,
    };
    for c in &data.customers {
        l.put(|s| s.insert_row("customers", c.to_row_object()))?;
        if opts.graph {
            let person = Value::object([("_key", Value::str(c.id.to_string()))]);
            l.put(|s| s.add_vertex("social", "persons", person).map(|_| ()))?;
        }
    }
    if opts.graph {
        for (a, b) in &data.knows {
            l.put(|s| {
                let (from, to) = (format!("persons/{a}"), format!("persons/{b}"));
                s.add_edge(
                    "social",
                    "knows",
                    &from,
                    &to,
                    Value::Object(Default::default()),
                )
                .map(|_| ())
            })?;
        }
    }
    for p in &data.products {
        l.put(|s| s.insert_document("products", p.to_document()).map(|_| ()))?;
    }
    for o in &data.orders {
        l.put(|s| s.insert_document("orders", o.to_document()).map(|_| ()))?;
    }
    for (cid, order_no) in &data.carts {
        l.put(|s| s.kv_put("cart", &cid.to_string(), Value::str(order_no)))?;
    }
    if opts.feedback {
        for (i, f) in data.feedback.iter().enumerate() {
            l.put(|s| s.insert_document("feedback", f.to_document(i)).map(|_| ()))?;
        }
    }
    l.commit()?;
    if opts.feedback {
        db.create_fulltext_index("feedback_text", "feedback", "text")?;
    }
    Ok(l.items)
}

// ---- queries ----------------------------------------------------------------

/// The parameter a query text was built from, for the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Param {
    None,
    Threshold(i64),
    Customer(i64),
    /// Indexes into [`CATEGORIES`] and [`WORDS`].
    CategoryWord(usize, usize),
}

/// One distinct query text of a run.
pub struct Variant {
    /// Index into [`spec::QUERY_NAMES`].
    pub kind: usize,
    pub param: Param,
    pub text: String,
}

/// The shuffled query list of a run: `ops` index into `variants`.
pub struct QueryList {
    pub variants: Vec<Variant>,
    pub ops: Vec<u32>,
}

pub fn q2_text(threshold: i64) -> String {
    format!(
        "FOR c IN customers FILTER c.credit_limit > {threshold} \
         FOR friend IN 1..1 OUTBOUND CONCAT(\"persons/\", c.id) knows \
         LET order = DOC(\"orders\", KV_GET(\"cart\", friend._key)) FILTER order != NULL \
         FOR line IN order.orderlines RETURN DISTINCT line.product_no"
    )
}

pub fn q3_text(category: &str, word: &str) -> String {
    format!(
        "FOR f IN FULLTEXT(\"feedback_text\", \"{word}\") FILTER f.rating >= 4 \
         LET p = DOC(\"products\", f.product_no) FILTER p.category == \"{category}\" \
         RETURN DISTINCT p._key"
    )
}

pub const Q4_NAIVE_TEXT: &str = "FOR c IN customers \
     LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total)) \
     RETURN {name: c.name, total: total}";

pub const Q4_GROUPED_TEXT: &str = "LET totals = (FOR o IN orders \
     COLLECT cid = o.customer_id AGGREGATE t = SUM(o.total) RETURN {cid: cid, t: t}) \
     FOR c IN customers LET hit = (FOR x IN totals FILTER x.cid == c.id RETURN x.t) \
     RETURN {name: c.name, total: LENGTH(hit) > 0 ? hit[0] : 0}";

pub fn q5_text(customer: i64) -> String {
    format!(
        "FOR friend IN 1..2 ANY \"persons/{customer}\" knows \
         LET order = DOC(\"orders\", KV_GET(\"cart\", friend._key)) FILTER order != NULL \
         FOR line IN order.orderlines RETURN DISTINCT line.product_no"
    )
}

/// `mixed_wire`'s cross-model check: one customer's cart pointer, the
/// order it points at, and the credit row, in one query.
pub fn check_text(customer: i64) -> String {
    format!(
        "FOR c IN customers FILTER c.id == {customer} \
         LET ono = KV_GET(\"cart\", c.id) LET o = DOC(\"orders\", ono) \
         RETURN {{cart: ono, order: o._key, credit: c.credit_limit}}"
    )
}

/// All customers' credit, for the post-run invariant check.
pub const CREDIT_TEXT: &str = "FOR c IN customers RETURN [c.id, c.credit_limit]";

/// Distinct Q5 start customers and Q3 (category, word) pairs a run draws
/// from: few enough that every text repeats often over a run (a query
/// metric is built from each text's best repeat), enough that no text
/// runs twice in a row.
pub const VARIANTS_PER_KIND: usize = 32;

/// Every query text a run can draw: the two Q4 forms, Q2 per threshold,
/// Q5 for `VARIANTS_PER_KIND` seed-chosen start customers, Q3 for as many
/// seed-chosen category and word pairs.
pub fn variants(seed: u64, n_customers: usize) -> Vec<Variant> {
    let rng = &mut rng_for(seed, 0);
    let mut v = vec![
        Variant {
            kind: 0,
            param: Param::None,
            text: Q4_NAIVE_TEXT.to_string(),
        },
        Variant {
            kind: 1,
            param: Param::None,
            text: Q4_GROUPED_TEXT.to_string(),
        },
    ];
    v.extend(THRESHOLDS.iter().map(|&t| Variant {
        kind: 2,
        param: Param::Threshold(t),
        text: q2_text(t),
    }));
    let mut customers: Vec<i64> = (1..=n_customers as i64).collect();
    shuffle(rng, &mut customers);
    v.extend(customers.iter().take(VARIANTS_PER_KIND).map(|&c| Variant {
        kind: 3,
        param: Param::Customer(c),
        text: q5_text(c),
    }));
    let mut pairs: Vec<(usize, usize)> = (0..CATEGORIES.len())
        .flat_map(|c| (0..WORDS.len()).map(move |w| (c, w)))
        .collect();
    shuffle(rng, &mut pairs);
    v.extend(pairs.iter().take(VARIANTS_PER_KIND).map(|&(c, w)| Variant {
        kind: 4,
        param: Param::CategoryWord(c, w),
        text: q3_text(CATEGORIES[c], WORDS[w]),
    }));
    v
}

/// `counts[k]` queries of each kind, each drawing its text from the
/// kind's pool (which `DATA_SEED` fixes), shuffled.
pub fn query_list(rng: &mut SmallRng, counts: [usize; 5], n_customers: usize) -> QueryList {
    let variants = variants(spec::DATA_SEED, n_customers);
    let mut by_kind: [Vec<u32>; 5] = Default::default();
    for (i, v) in variants.iter().enumerate() {
        by_kind[v.kind].push(i as u32);
    }
    let mut ops = Vec::with_capacity(counts.iter().sum());
    for (kind, &n) in counts.iter().enumerate() {
        let pool = &by_kind[kind];
        ops.extend((0..n).map(|_| pool[rng.gen_range(0..pool.len())]));
    }
    shuffle(rng, &mut ops);
    QueryList { variants, ops }
}

pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

// ---- point reads ------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadKind {
    KvGet,
    GetDocument,
    GetRow,
}

#[derive(Clone, Copy)]
pub struct ReadOp {
    pub kind: ReadKind,
    /// Index into the data set's carts / orders / customers.
    pub index: u32,
}

/// 50 % cart `KvGet`, 25 % order `GetDocument`, 25 % customer `GetRow`,
/// keys uniform over the whole key space.
pub fn read_list(rng: &mut SmallRng, n: usize, data: &Dataset) -> Vec<ReadOp> {
    (0..n)
        .map(|_| {
            let (kind, space) = match rng.gen_range(0..4u32) {
                0 | 1 => (ReadKind::KvGet, data.carts.len()),
                2 => (ReadKind::GetDocument, data.orders.len()),
                _ => (ReadKind::GetRow, data.customers.len()),
            };
            ReadOp {
                kind,
                index: rng.gen_range(0..space) as u32,
            }
        })
        .collect()
}

// ---- new-order transactions ---------------------------------------------------

/// One new-order transaction: the `k`-th benchmark order of `customer`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnOp {
    pub customer: i64,
    pub k: u32,
}

pub fn order_key(customer: i64, k: u32) -> String {
    format!("ob-{customer}-{k}")
}

/// `(customer, k)` of a benchmark order key; `None` for the generator's
/// own `o000123`-style keys.
pub fn parse_order_key(key: &str) -> Option<(i64, u32)> {
    let mut parts = key.strip_prefix("ob-")?.splitn(2, '-');
    Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
}

pub fn order_doc(key: &str, customer: i64) -> Value {
    Value::object([
        ("_key", Value::str(key)),
        ("customer_id", Value::int(customer)),
        (
            "orderlines",
            Value::array([Value::object([
                ("product_no", Value::str("p0001")),
                ("product_name", Value::str("bench toy")),
                ("price", Value::int(spec::ORDER_TOTAL)),
            ])]),
        ),
        ("total", Value::int(spec::ORDER_TOTAL)),
    ])
}

pub fn edge_props(key: &str) -> Value {
    Value::object([("_key", Value::str(key)), ("order_no", Value::str(key))])
}

pub fn person(customer: i64) -> String {
    format!("persons/{customer}")
}

/// The customer row after its `k`-th benchmark order.
pub fn customer_row(c: &gen::Customer, k: u32) -> Value {
    Value::object([
        ("id", Value::int(c.id)),
        ("name", Value::str(&c.name)),
        ("place", Value::str(&c.place)),
        (
            "credit_limit",
            Value::int(c.credit_limit - spec::ORDER_TOTAL * i64::from(k)),
        ),
    ])
}

/// Transaction lists for `writers` writers on disjoint customer
/// partitions (customer index modulo `writers`): each writer goes round
/// its seed-shuffled partition, so `k` grows evenly and no two writers
/// ever touch the same row.
pub fn txn_lists(
    rng: &mut SmallRng,
    writers: usize,
    per_writer: usize,
    data: &Dataset,
) -> Vec<Vec<TxnOp>> {
    (0..writers)
        .map(|w| {
            let mut mine: Vec<i64> = data
                .customers
                .iter()
                .skip(w)
                .step_by(writers)
                .map(|c| c.id)
                .collect();
            shuffle(rng, &mut mine);
            (0..per_writer)
                .map(|i| TxnOp {
                    customer: mine[i % mine.len()],
                    k: (i / mine.len()) as u32 + 1,
                })
                .collect()
        })
        .collect()
}

/// The data set's customers by id.
pub fn customers_by_id(data: &Dataset) -> std::collections::HashMap<i64, &gen::Customer> {
    data.customers.iter().map(|c| (c.id, c)).collect()
}

/// `Value`-codec bytes of the four values a client writes in `op`.
pub fn user_bytes(op: TxnOp, c: &gen::Customer) -> u64 {
    let key = order_key(op.customer, op.k);
    [
        order_doc(&key, op.customer),
        Value::str(&key),
        edge_props(&key),
        customer_row(c, op.k),
    ]
    .iter()
    .map(|v| value_to_bytes(v).len() as u64)
    .sum()
}

/// The write set `op` commits, in the domains `Session` stages them under:
/// what the WAL and commit-hook probes replay.
pub fn write_set(op: TxnOp, c: &gen::Customer) -> Vec<CommittedWrite> {
    let key = order_key(op.customer, op.k);
    let who = person(op.customer);
    let mut edge = edge_props(&key);
    if let Ok(obj) = edge.as_object_mut() {
        obj.insert("_from", Value::str(&who));
        obj.insert("_to", Value::str(&who));
    }
    let write = |domain: &str, key: Vec<u8>, value: Value| CommittedWrite {
        domain: domain.to_string(),
        key,
        value: Some(value),
    };
    vec![
        write(
            "doc/orders",
            key.clone().into_bytes(),
            order_doc(&key, op.customer),
        ),
        write(
            "kv/cart",
            op.customer.to_string().into_bytes(),
            Value::str(&key),
        ),
        write("graph/social/e/bought", key.clone().into_bytes(), edge),
        write(
            "rel/customers",
            key_of(&Value::int(op.customer)),
            customer_row(c, op.k),
        ),
    ]
}

/// The independent op streams of a run, one RNG each so that changing one
/// section's size leaves the others' operations alone.
pub fn rng_for(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream),
    )
}

/// Operation counts of a run, for the result file's environment stamp.
pub fn op_counts(kind: Kind, seconds: u64) -> Vec<(&'static str, usize)> {
    let r = spec::rates(kind);
    let q = spec::query_counts(kind, seconds);
    let mut out: Vec<(&'static str, usize)> = spec::QUERY_NAMES.iter().copied().zip(q).collect();
    out.push(("reads", spec::count(r.reads, seconds, 0)));
    out.push(("txns_per_writer", spec::count(r.txns, seconds, 0)));
    out.push((
        "pipelined_reads_per_connection",
        spec::count(r.pipelined_reads, seconds, 0),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_keys_round_trip() {
        assert_eq!(order_key(17, 3), "ob-17-3");
        assert_eq!(parse_order_key("ob-17-3"), Some((17, 3)));
        assert_eq!(parse_order_key("o000123"), None);
        assert_eq!(parse_order_key("ob-x-3"), None);
    }

    #[test]
    fn lists_are_seed_determined_and_partitions_disjoint() {
        let data = gen::generate(0.05, 9);
        let lists = |seed| txn_lists(&mut rng_for(seed, 3), 2, 100, &data);
        assert_eq!(lists(1), lists(1));
        assert_ne!(lists(1), lists(2));
        let l = lists(1);
        let a: std::collections::HashSet<i64> = l[0].iter().map(|o| o.customer).collect();
        assert!(l[1].iter().all(|o| !a.contains(&o.customer)));
        // k counts each customer's orders from 1 without gaps.
        let mut seen = std::collections::HashMap::new();
        for op in &l[0] {
            let last = seen.insert(op.customer, op.k).unwrap_or(0);
            assert_eq!(op.k, last + 1);
        }
        let q = |seed| {
            query_list(
                &mut rng_for(seed, 1),
                [2, 3, 5, 8, 13],
                data.customers.len(),
            )
            .ops
        };
        assert_eq!(q(5), q(5));
        assert_eq!(q(5).len(), 31);
    }

    #[test]
    fn write_set_matches_what_a_session_commits() {
        let data = gen::generate(0.05, 9);
        let db = Database::in_memory();
        load(&db, &data, LoadOpts::FULL).unwrap();
        let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&captured);
        db.mvcc()
            .add_commit_hook(move |w| sink.lock().unwrap().extend(w.iter().cloned()));
        let op = TxnOp { customer: 4, k: 1 };
        let c = &data.customers[3];
        let key = order_key(op.customer, op.k);
        let mut s = db.begin(IsolationLevel::Snapshot);
        s.insert_document("orders", order_doc(&key, 4)).unwrap();
        s.kv_put("cart", "4", Value::str(&key)).unwrap();
        s.add_edge("social", "bought", &person(4), &person(4), edge_props(&key))
            .unwrap();
        s.update_row("customers", customer_row(c, 1)).unwrap();
        s.commit().unwrap();
        let got = captured.lock().unwrap().clone();
        let want = write_set(op, c);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((&g.domain, &g.key, &g.value), (&w.domain, &w.key, &w.value));
        }
    }

    #[test]
    fn big_dataset_keeps_keys_disjoint_and_references_intact() {
        let d = merge_shards(3, 3, 0.05);
        assert_eq!(d.customers.len(), 150);
        let n = d.customers.len();
        let ids: std::collections::HashSet<i64> = d.customers.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), n);
        let orders: std::collections::HashSet<&str> =
            d.orders.iter().map(|o| o.order_no.as_str()).collect();
        assert_eq!(orders.len(), d.orders.len());
        assert!(d.orders.iter().all(|o| ids.contains(&o.customer_id)));
        assert!(d
            .carts
            .iter()
            .all(|(c, o)| ids.contains(c) && orders.contains(o.as_str())));
    }
}
