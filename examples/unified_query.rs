//! A tour of MMQL, the unified multi-model query language — the
//! tutorial's second open challenge made concrete. Every section queries
//! a different model (or several at once) with the same language.

use mmdb::substrate::txn::IsolationLevel;
use mmdb::{Database, Result, Value};

fn main() -> Result<()> {
    let db = Database::in_memory();
    setup(&db)?;

    println!("— documents: filters, paths, array expansion —");
    show(&db, r#"FOR o IN orders FILTER o.total > 50 RETURN o._key"#)?;
    show(&db, r#"FOR o IN orders RETURN o.orderlines[*].product_no"#)?;
    show(&db, r#"FOR o IN orders RETURN o.orderlines[0].price"#)?;

    println!("\n— grouping and aggregation —");
    show(
        &db,
        r#"FOR o IN orders
             FOR l IN o.orderlines
               COLLECT product = l.product_no AGGREGATE revenue = SUM(l.price), n = COUNT()
               SORT revenue DESC
               RETURN {product: product, revenue: revenue, n: n}"#,
    )?;

    println!("\n— graph traversal and shortest paths —");
    show(&db, r#"FOR v IN 1..2 OUTBOUND "persons/1" knows RETURN [v._key, v._depth]"#)?;
    show(&db, r#"RETURN SHORTEST_PATH("persons/1", "persons/3", "knows")"#)?;

    println!("\n— key/value and cross-model functions —");
    show(&db, r#"RETURN DOC("orders", KV_GET("cart", "1"))._key"#)?;

    println!("\n— full-text search with ranking —");
    show(&db, r#"FOR r IN FULLTEXT("review_text", "wonderful") RETURN r._key"#)?;
    show(&db, r#"FOR h IN FULLTEXT_RANKED("review_text", "toy wonderful", 2) RETURN [h.doc._key, h.score > 0]"#)?;

    println!("\n— RDF triple patterns —");
    show(&db, r#"FOR t IN TRIPLES("mary", NULL, NULL) SORT t.p RETURN [t.p, t.o]"#)?;

    println!("\n— XML / JSON trees via XPath —");
    show(&db, r#"RETURN XPATH("catalog", "/catalog/product[price > 30]/name")"#)?;

    println!("\n— subqueries, LET, ternaries, sorting, LIMIT —");
    show(
        &db,
        r#"LET expensive = (FOR o IN orders FILTER o.total > 50 RETURN o._key)
           FOR o IN orders
             SORT o.total DESC
             LIMIT 2
             RETURN {order: o._key, expensive: o._key IN expensive ? "yes" : "no"}"#,
    )?;

    println!("\n— the SQL frontend shares the engine —");
    let sql = db.query_sql("SELECT total FROM orders WHERE total > 50 ORDER BY total")?;
    println!("   SELECT … ⇒ {sql:?}");

    println!("\n— EXPLAIN shows plan and index choice —");
    db.create_index("orders", "total")?;
    println!("{}", indent(&db.explain("FOR o IN orders FILTER o.total > 50 RETURN o")?));

    Ok(())
}

fn show(db: &Database, q: &str) -> Result<()> {
    let rows = db.query(q)?;
    let first_line = q.trim().lines().next().unwrap_or("").trim();
    println!("   {first_line}  ⇒  {rows:?}");
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("   {l}\n")).collect()
}

fn setup(db: &Database) -> Result<()> {
    db.create_collection("orders")?;
    db.insert_json(
        "orders",
        r#"{"_key":"o1","total":106,"orderlines":[
            {"product_no":"2724f","price":66},{"product_no":"3424g","price":40}]}"#,
    )?;
    db.insert_json(
        "orders",
        r#"{"_key":"o2","total":40,"orderlines":[{"product_no":"3424g","price":40}]}"#,
    )?;
    db.create_graph("social")?;
    db.create_vertex_collection("social", "persons")?;
    db.create_edge_collection("social", "knows")?;
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        for k in ["1", "2", "3"] {
            s.add_vertex("social", "persons", mmdb::from_json(&format!(r#"{{"_key":"{k}"}}"#))?)?;
        }
        s.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}")?)?;
        s.add_edge("social", "knows", "persons/2", "persons/3", mmdb::from_json("{}")?)
    })?;
    db.create_bucket("cart")?;
    db.kv_put("cart", "1", Value::str("o1"))?;
    db.create_collection("reviews")?;
    db.insert_json("reviews", r#"{"_key":"r1","text":"a wonderful wooden toy"}"#)?;
    db.insert_json("reviews", r#"{"_key":"r2","text":"a dull book"}"#)?;
    db.create_fulltext_index("review_text", "reviews", "text")?;
    db.transact(IsolationLevel::Snapshot, 3, |s| {
        s.rdf_insert("mary", "likes", Value::str("toys"))?;
        s.rdf_insert("mary", "age", Value::int(30))
    })?;
    db.register_xml(
        "catalog",
        r#"<catalog>
             <product no="1"><name>Toy</name><price>66</price></product>
             <product no="2"><name>Book</name><price>25</price></product>
           </catalog>"#,
    )?;
    Ok(())
}
