//! UniBench Workloads A, B, C against both backends.

use mmdb_core::{Database, Session};
use mmdb_relational::{ColumnDef, DataType, Schema};
use mmdb_txn::IsolationLevel;
use mmdb_types::{Result, Value};

use crate::gen::Dataset;

/// Create the UniBench schema inside a multi-model database.
pub fn create_mmdb_schema(db: &Database) -> Result<()> {
    db.create_table(
        "customers",
        Schema::new(
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("place", DataType::Text),
                ColumnDef::new("credit_limit", DataType::Int),
            ],
            "id",
        )?,
    )?;
    db.create_collection("orders")?;
    db.create_collection("products")?;
    db.create_collection("feedback")?;
    db.create_bucket("cart")?;
    db.create_graph("social")?;
    db.create_vertex_collection("social", "persons")?;
    db.create_edge_collection("social", "knows")?;
    db.create_edge_collection("social", "bought")?;
    Ok(())
}

/// Writes per commit of [`load_mmdb`].
const LOAD_CHUNK: usize = 64;

/// Load the data set into a multi-model database through `Session`
/// transactions, `LOAD_CHUNK` writes per commit — so the data is logged,
/// recoverable and replicated like any other write.
pub fn load_mmdb(db: &Database, data: &Dataset) -> Result<()> {
    let mut l = Loader { db, session: db.begin(IsolationLevel::Snapshot), staged: 0 };
    for c in &data.customers {
        l.put(|s| s.insert_row("customers", c.to_row_object()))?;
        let person = Value::object([("_key", Value::str(c.id.to_string()))]);
        l.put(|s| s.add_vertex("social", "persons", person).map(|_| ()))?;
    }
    for (a, b) in &data.knows {
        let (from, to) = (format!("persons/{a}"), format!("persons/{b}"));
        let edge = Value::Object(Default::default());
        l.put(|s| s.add_edge("social", "knows", &from, &to, edge).map(|_| ()))?;
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
    for (i, f) in data.feedback.iter().enumerate() {
        l.put(|s| s.insert_document("feedback", f.to_document(i)).map(|_| ()))?;
    }
    l.commit()
}

/// One open session that commits every [`LOAD_CHUNK`] staged writes.
struct Loader<'a> {
    db: &'a Database,
    session: Session,
    staged: usize,
}

impl Loader<'_> {
    fn put(&mut self, write: impl FnOnce(&mut Session) -> Result<()>) -> Result<()> {
        write(&mut self.session)?;
        self.staged += 1;
        if self.staged == LOAD_CHUNK {
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

/// Workload A reading pass: point-read one entity from each model;
/// returns a checksum so the optimizer can't elide the reads.
pub fn workload_a_read(db: &Database, data: &Dataset, i: usize) -> Result<usize> {
    let world = db.world();
    let c = &data.customers[i % data.customers.len()];
    let o = &data.orders[i % data.orders.len()];
    let mut checksum = 0usize;
    if world.catalog.table("customers")?.get(&Value::int(c.id))?.is_some() {
        checksum += 1;
    }
    if world.catalog.collection("orders")?.get(&o.order_no)?.is_some() {
        checksum += 1;
    }
    if world.catalog.bucket("cart")?.get(&c.id.to_string())?.is_some() {
        checksum += 1;
    }
    if world.catalog.graph("social")?.vertex(&format!("persons/{}", c.id))?.is_some() {
        checksum += 1;
    }
    Ok(checksum)
}

/// Workload B, Q2 — the paper's recommendation query, in MMQL.
pub fn q2_mmdb(db: &Database, credit_threshold: i64) -> Result<Vec<String>> {
    let rows = db.query(&format!(
        r#"
        FOR c IN customers
          FILTER c.credit_limit > {credit_threshold}
          FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
            LET order = DOC("orders", KV_GET("cart", friend._key))
            FILTER order != NULL
            FOR line IN order.orderlines
              RETURN DISTINCT line.product_no
        "#
    ))?;
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Result<_>>()?;
    out.sort();
    Ok(out)
}

/// Workload B, Q4 — total spend per customer (relation ⋈ documents).
pub fn q4_mmdb(db: &Database) -> Result<Vec<(String, i64)>> {
    let rows = db.query(
        r#"
        FOR c IN customers
          LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total))
          RETURN {name: c.name, total: total}
        "#,
    )?;
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        out.push((
            r.get_field("name").as_str()?.to_string(),
            r.get_field("total").as_int().unwrap_or(0),
        ));
    }
    out.sort();
    Ok(out)
}

/// Q4 rewritten with COLLECT: group the orders once instead of re-scanning
/// them per customer (the language-level optimization a query author — or
/// a future decorrelation rule — applies to the naive Q4).
pub fn q4_mmdb_grouped(db: &Database) -> Result<Vec<(String, i64)>> {
    let rows = db.query(
        r#"
        LET totals = (
          FOR o IN orders
            COLLECT cid = o.customer_id AGGREGATE t = SUM(o.total)
            RETURN {cid: cid, t: t}
        )
        FOR c IN customers
          LET hit = (FOR x IN totals FILTER x.cid == c.id RETURN x.t)
          RETURN {name: c.name, total: LENGTH(hit) > 0 ? hit[0] : 0}
        "#,
    )?;
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        out.push((
            r.get_field("name").as_str()?.to_string(),
            r.get_field("total").as_int().unwrap_or(0),
        ));
    }
    out.sort();
    Ok(out)
}

/// Workload B, Q3 — well-reviewed products in a category whose feedback
/// mentions a word (documents + text + documents).
pub fn q3_mmdb(db: &Database, category: &str, word: &str) -> Result<Vec<String>> {
    let rows = db.query(&format!(
        r#"
        FOR f IN FULLTEXT("feedback_text", "{word}")
          FILTER f.rating >= 4
          LET p = DOC("products", f.product_no)
          FILTER p.category == "{category}"
          RETURN DISTINCT p._key
        "#
    ))?;
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Result<_>>()?;
    out.sort();
    Ok(out)
}

/// Workload B, Q5 — products bought within the 2-hop friend circle.
pub fn q5_mmdb(db: &Database, customer_id: i64) -> Result<Vec<String>> {
    let rows = db.query(&format!(
        r#"
        FOR friend IN 1..2 ANY "persons/{customer_id}" knows
          LET order = DOC("orders", KV_GET("cart", friend._key))
          FILTER order != NULL
          FOR line IN order.orderlines
            RETURN DISTINCT line.product_no
        "#
    ))?;
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Result<_>>()?;
    out.sort();
    Ok(out)
}

/// Workload C — the new-order transaction, atomic in mmdb: insert the
/// order document, repoint the cart, record the purchase edge, decrement
/// the relational credit. All or nothing, at either isolation level.
pub fn place_order_mmdb(
    db: &Database,
    isolation: IsolationLevel,
    customer_id: i64,
    order: &Value,
) -> Result<()> {
    let order = order.clone();
    db.transact(isolation, 5, move |s| {
        let order_no = order.get_field("_key").as_str()?.to_string();
        let total = order.get_field("total").as_int()?;
        s.insert_document("orders", order.clone())?;
        s.kv_put("cart", &customer_id.to_string(), Value::str(&order_no))?;
        s.add_edge(
            "social",
            "bought",
            &format!("persons/{customer_id}"),
            &format!("persons/{customer_id}"),
            Value::object([("order_no", Value::str(&order_no))]),
        )?;
        let mut row = s
            .get_row("customers", &Value::int(customer_id))?
            .ok_or_else(|| mmdb_types::Error::NotFound(format!("customer {customer_id}")))?;
        let cur = row.get_field("credit_limit").as_int()?;
        row.as_object_mut()?.insert("credit_limit", Value::int(cur - total));
        s.update_row("customers", row)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::polyglot::PolyglotStores;

    fn loaded() -> (Database, Dataset) {
        let data = generate(0.05, 21);
        let db = Database::in_memory();
        create_mmdb_schema(&db).unwrap();
        load_mmdb(&db, &data).unwrap();
        db.create_fulltext_index("feedback_text", "feedback", "text").unwrap();
        (db, data)
    }

    #[test]
    fn workload_a_reads_every_model() {
        let (db, data) = loaded();
        for i in 0..20 {
            assert_eq!(workload_a_read(&db, &data, i).unwrap(), 4);
        }
    }

    #[test]
    fn q2_matches_the_polyglot_baseline() {
        let (db, data) = loaded();
        let poly = PolyglotStores::new().unwrap();
        poly.load(&data).unwrap();
        let a = q2_mmdb(&db, 3000).unwrap();
        let b = poly.recommendation_query(3000).unwrap();
        assert_eq!(a, b, "multi-model and polyglot must agree");
        assert!(!a.is_empty(), "scale 0.05 should produce recommendations");
    }

    #[test]
    fn q4_matches_the_polyglot_baseline() {
        let (db, data) = loaded();
        let poly = PolyglotStores::new().unwrap();
        poly.load(&data).unwrap();
        let expected = poly.spend_per_customer().unwrap();
        assert_eq!(q4_mmdb(&db).unwrap(), expected);
        assert_eq!(q4_mmdb_grouped(&db).unwrap(), expected, "the COLLECT rewrite is equivalent");
    }

    #[test]
    fn q3_and_q5_run() {
        let (db, _) = loaded();
        // The word pools guarantee these terms exist.
        let hits = q3_mmdb(&db, "toys", "great").unwrap();
        for h in &hits {
            let p = db.get_document("products", h).unwrap().unwrap();
            assert_eq!(p.get_field("category"), &Value::str("toys"));
        }
        let circle = q5_mmdb(&db, 5).unwrap();
        // Every product exists.
        for p in &circle {
            assert!(db.get_document("products", p).unwrap().is_some());
        }
    }

    #[test]
    fn workload_c_is_atomic_and_updates_all_models() {
        let (db, _) = loaded();
        let before = db
            .query("FOR c IN customers FILTER c.id == 1 RETURN c.credit_limit")
            .unwrap()[0]
            .as_int()
            .unwrap();
        let order = mmdb_types::from_json(
            r#"{"_key":"oNEW","customer_id":1,"orderlines":[{"product_no":"p0001","price":30}],"total":30}"#,
        )
        .unwrap();
        place_order_mmdb(&db, IsolationLevel::Snapshot, 1, &order).unwrap();
        assert!(db.get_document("orders", "oNEW").unwrap().is_some());
        assert_eq!(db.kv().get("cart", "1").unwrap(), Some(Value::str("oNEW")));
        let after = db
            .query("FOR c IN customers FILTER c.id == 1 RETURN c.credit_limit")
            .unwrap()[0]
            .as_int()
            .unwrap();
        assert_eq!(after, before - 30);
        // A failing transaction changes nothing anywhere: force failure by
        // inserting a duplicate order key.
        let dup = mmdb_types::from_json(
            r#"{"_key":"oNEW","customer_id":1,"orderlines":[],"total":10}"#,
        )
        .unwrap();
        assert!(place_order_mmdb(&db, IsolationLevel::Serializable, 1, &dup).is_err());
        let after2 = db
            .query("FOR c IN customers FILTER c.id == 1 RETURN c.credit_limit")
            .unwrap()[0]
            .as_int()
            .unwrap();
        assert_eq!(after2, after, "failed txn must not decrement credit");
    }
}
