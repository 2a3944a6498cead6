//! The polyglot-persistence baseline.
//!
//! The tutorial's motivating slide runs the e-commerce app on MongoDB
//! (catalog, orders, customers), Redis (cart) and Neo4j (social graph) —
//! separate engines, application-side glue. [`PolyglotStores`] reproduces
//! that architecture with our own single-model stores: each store is used
//! exactly as its standalone self (no shared query language, no shared
//! transactions); cross-model queries are hand-written client-side joins;
//! "transactions" are sequential per-store writes with no atomicity.
//!
//! Workloads B and C run against this baseline and against the
//! multi-model [`mmdb_core::Database`]; EXPERIMENTS.md compares them.

use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;

use mmdb_document::Collection;
use mmdb_graph::{Direction, Graph};
use mmdb_kv::Bucket;
use mmdb_relational::{ColumnDef, DataType, Schema, Table};
use mmdb_storage::BufferPool;
use mmdb_types::{Path, Projection, Result, Value};

use crate::gen::Dataset;

/// The separate single-model stores of the baseline.
pub struct PolyglotStores {
    /// "PostgreSQL": the customer relation.
    pub customers: Arc<Table>,
    /// "MongoDB": order documents.
    pub orders: Arc<Collection>,
    /// "MongoDB": product catalog.
    pub products: Arc<Collection>,
    /// "Redis": the shopping cart.
    pub cart: Bucket,
    /// "Neo4j": the social graph.
    pub social: Graph,
}

impl PolyglotStores {
    /// Create empty stores.
    pub fn new() -> Result<PolyglotStores> {
        // Each "system" gets its own buffer pool — they are separate
        // engines in this architecture.
        let rel_pool = Arc::new(BufferPool::default());
        let doc_pool = Arc::new(BufferPool::default());
        let graph_pool = Arc::new(BufferPool::default());
        let customers = Arc::new(Table::create(
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
            rel_pool,
        )?);
        let orders = Arc::new(Collection::create("orders", Arc::clone(&doc_pool))?);
        let products = Arc::new(Collection::create("products", doc_pool)?);
        let cart = Bucket::default();
        let social = Graph::create("social", graph_pool);
        social.create_vertex_collection("persons")?;
        social.create_edge_collection("knows")?;
        social.create_edge_collection("bought")?;
        Ok(PolyglotStores { customers, orders, products, cart, social })
    }

    /// Bulk-load the generated data set.
    pub fn load(&self, data: &Dataset) -> Result<()> {
        for c in &data.customers {
            self.customers.insert(vec![
                Value::int(c.id),
                Value::str(&c.name),
                Value::str(&c.place),
                Value::int(c.credit_limit),
            ])?;
            self.social.add_vertex(
                "persons",
                Value::object([("_key", Value::str(c.id.to_string()))]),
            )?;
        }
        for (a, b) in &data.knows {
            self.social.add_edge(
                "knows",
                &format!("persons/{a}"),
                &format!("persons/{b}"),
                Value::Object(Default::default()),
            )?;
        }
        for p in &data.products {
            self.products.insert(p.to_document())?;
        }
        for o in &data.orders {
            self.orders.insert(o.to_document())?;
        }
        for (cid, order_no) in &data.carts {
            self.cart.put(&cid.to_string(), Value::str(order_no))?;
        }
        Ok(())
    }

    // ---- client-side cross-model joins (Workload B) -----------------------

    /// Q2, the paper's recommendation query, as application glue code:
    /// products ordered (per the cart) by a friend of a customer whose
    /// credit_limit exceeds the threshold. Three hand-rolled joins across
    /// three "systems" — exactly the pain the tutorial describes.
    pub fn recommendation_query(&self, credit_threshold: i64) -> Result<Vec<String>> {
        // 1. SQL-ish: qualifying customers.
        let id = Projection::of([Path::parse("id")?]);
        let threshold = Value::int(credit_threshold);
        let (rows, _) =
            self.customers.range("credit_limit", Bound::Excluded(&threshold), Bound::Unbounded, &id)?;
        let mut products = Vec::new();
        let mut seen = HashSet::new();
        for row in rows {
            let id = row.get_field("id").as_int()?;
            // 2. Graph call: friends.
            let friends = self
                .social
                .neighbors(&format!("persons/{id}"), Direction::Outbound, Some("knows"))?;
            for f in friends {
                let fid = f.split('/').nth(1).unwrap_or_default();
                // 3. Redis call: the friend's cart.
                let Some(order_no) = self.cart.get(fid)? else { continue };
                // 4. Mongo call: the order document.
                let Some(order) = self.orders.get(order_no.as_str()?)? else { continue };
                for line in order.get_field("orderlines").as_array()? {
                    let p = line.get_field("product_no").as_str()?.to_string();
                    if seen.insert(p.clone()) {
                        products.push(p);
                    }
                }
            }
        }
        products.sort();
        Ok(products)
    }

    /// Q4: total spend per customer (relation ⋈ documents, client side).
    pub fn spend_per_customer(&self) -> Result<Vec<(String, i64)>> {
        let mut by_customer: HashMap<i64, i64> = HashMap::new();
        for order in self.orders.all()? {
            let cid = order.get_field("customer_id").as_int()?;
            *by_customer.entry(cid).or_insert(0) += order.get_field("total").as_int()?;
        }
        let mut out = Vec::new();
        for row in self.customers.scan_projected(&Projection::ALL)? {
            let id = row.get_field("id").as_int()?;
            let name = row.get_field("name").as_str()?.to_string();
            out.push((name, by_customer.get(&id).copied().unwrap_or(0)));
        }
        out.sort();
        Ok(out)
    }

    // ---- non-atomic "transaction" (Workload C) ------------------------------

    /// Place an order across all stores, sequentially and non-atomically.
    /// `crash_after` injects a failure after that many store writes (the
    /// polyglot inconsistency window): earlier writes stay, later ones are
    /// lost, and *no store can roll the others back*.
    pub fn place_order_non_atomic(
        &self,
        customer_id: i64,
        order: &Value,
        crash_after: Option<usize>,
    ) -> Result<bool> {
        let order_no = order.get_field("_key").as_str()?.to_string();
        let total = order.get_field("total").as_int()?;
        let mut step = 0;
        let mut crashed = false;
        let mut bump = |s: &mut usize| {
            *s += 1;
            if Some(*s) == crash_after {
                crashed = true;
            }
            !crashed
        };
        // 1. Cart pointer (the app updates the fast path first).
        self.cart.put(&customer_id.to_string(), Value::str(&order_no))?;
        if !bump(&mut step) {
            return Ok(false);
        }
        // 2. Order document.
        self.orders.insert(order.clone())?;
        if !bump(&mut step) {
            return Ok(false);
        }
        // 3. Graph edges.
        for line in order.get_field("orderlines").as_array()? {
            let p = line.get_field("product_no").as_str()?;
            // Products aren't graph vertices in this deployment; record the
            // purchase as a self-describing edge to the customer's vertex.
            let _ = p;
        }
        self.social.add_edge(
            "bought",
            &format!("persons/{customer_id}"),
            &format!("persons/{customer_id}"),
            Value::object([("order_no", Value::str(&order_no))]),
        )?;
        if !bump(&mut step) {
            return Ok(false);
        }
        // 4. Decrement the relational credit.
        if let Some(mut row) = self.customers.get(&Value::int(customer_id))? {
            let cur = row[3].as_int()?;
            row[3] = Value::int(cur - total);
            self.customers.put(row)?;
        }
        Ok(true)
    }

    /// Count cross-store inconsistencies: cart entries whose order document
    /// is missing, and "bought" edges without a cart entry — the dangling
    /// states a crashed non-atomic write sequence leaves behind.
    pub fn count_inconsistencies(&self) -> Result<usize> {
        let mut bad = 0;
        for (cid, v) in self.cart.scan_all()? {
            let Ok(order_no) = v.as_str() else { continue };
            if self.orders.get(order_no)?.is_none() {
                bad += 1;
            }
            let _ = cid;
        }
        // Orders referenced by edges but missing from the cart flow.
        for vertex in self.social.all_vertices()? {
            for edge in self.social.edges_of(&vertex, Direction::Outbound, Some("bought"))? {
                let order_no = edge.get_field("order_no").as_str()?;
                if self.orders.get(order_no)?.is_none() {
                    bad += 1;
                }
            }
        }
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn loads_and_answers_the_recommendation_query() {
        let d = generate(0.05, 11);
        let p = PolyglotStores::new().unwrap();
        p.load(&d).unwrap();
        let recs = p.recommendation_query(3000).unwrap();
        // Sanity: every recommended product exists in the catalog.
        for r in &recs {
            assert!(p.products.get(r).unwrap().is_some(), "unknown product {r}");
        }
    }

    #[test]
    fn crash_between_stores_leaves_inconsistency() {
        let d = generate(0.02, 3);
        let p = PolyglotStores::new().unwrap();
        p.load(&d).unwrap();
        assert_eq!(p.count_inconsistencies().unwrap(), 0);
        let crash_order = mmdb_types::from_json(
            r#"{"_key":"oCRASH","customer_id":1,"orderlines":[{"product_no":"p0001","price":5}],"total":5}"#,
        )
        .unwrap();
        // Crash after the cart write: the cart now points to an order
        // document that was never written — a dangling state no single
        // store can detect or roll back.
        let completed = p.place_order_non_atomic(1, &crash_order, Some(1)).unwrap();
        assert!(!completed);
        assert_eq!(p.count_inconsistencies().unwrap(), 1);
        // A completed order adds no inconsistency.
        let good_order = mmdb_types::from_json(
            r#"{"_key":"oGOOD","customer_id":2,"orderlines":[{"product_no":"p0001","price":5}],"total":5}"#,
        )
        .unwrap();
        p.place_order_non_atomic(2, &good_order, None).unwrap();
        assert_eq!(p.count_inconsistencies().unwrap(), 1);
    }

    #[test]
    fn spend_per_customer_sums_orders() {
        let d = generate(0.02, 5);
        let p = PolyglotStores::new().unwrap();
        p.load(&d).unwrap();
        let spend = p.spend_per_customer().unwrap();
        assert_eq!(spend.len(), d.customers.len());
        let total: i64 = spend.iter().map(|(_, s)| s).sum();
        let expected: i64 = d.orders.iter().map(|o| o.total()).sum();
        assert_eq!(total, expected);
    }
}
