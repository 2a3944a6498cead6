//! What the program's outputs are checked against.
//!
//! Q2 and Q4 are answered by `mmdb_bench::polyglot::PolyglotStores` (the
//! hand-joined baseline the repo already trusts); Q3 and Q5 by the plain
//! loops over the generated `Dataset` below; the new-order invariant by
//! [`check_customer`]. None of this code calls the query layer.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use mmdb_bench::gen::Dataset;
use mmdb_bench::polyglot::PolyglotStores;
use mmdb_types::{Result, Value};

use crate::data::{self, Param, Variant};
use crate::spec;

/// Q3: products of `category` with a review rated 4 or more whose text
/// contains `word` as a token (split on non-alphanumerics, lowercased —
/// the full-text index's tokenizer).
pub fn q3_reference(data: &Dataset, category: &str, word: &str) -> Vec<String> {
    let categories: HashMap<&str, &str> = data
        .products
        .iter()
        .map(|p| (p.product_no.as_str(), p.category.as_str()))
        .collect();
    let hits: BTreeSet<&str> = data
        .feedback
        .iter()
        .filter(|f| f.rating >= 4)
        .filter(|f| categories.get(f.product_no.as_str()) == Some(&category))
        .filter(|f| {
            f.text
                .split(|c: char| !c.is_alphanumeric())
                .any(|t| t.to_lowercase() == word)
        })
        .map(|f| f.product_no.as_str())
        .collect();
    hits.into_iter().map(str::to_string).collect()
}

/// Q5: products in the cart orders of everyone within two `knows` hops
/// of `customer` (either direction, the customer excluded).
pub fn q5_reference(data: &Dataset, customer: i64) -> Vec<String> {
    let mut adjacent: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(a, b) in &data.knows {
        adjacent.entry(a).or_default().push(b);
        adjacent.entry(b).or_default().push(a);
    }
    let mut seen = HashSet::from([customer]);
    let mut queue = VecDeque::from([(customer, 0)]);
    let mut circle = Vec::new();
    while let Some((v, depth)) = queue.pop_front() {
        if depth > 0 {
            circle.push(v);
        }
        if depth == 2 {
            continue;
        }
        for &n in adjacent.get(&v).map_or(&[][..], Vec::as_slice) {
            if seen.insert(n) {
                queue.push_back((n, depth + 1));
            }
        }
    }
    let cart: HashMap<i64, &str> = data.carts.iter().map(|(c, o)| (*c, o.as_str())).collect();
    let orders: HashMap<&str, usize> = data
        .orders
        .iter()
        .enumerate()
        .map(|(i, o)| (o.order_no.as_str(), i))
        .collect();
    let products: BTreeSet<&str> = circle
        .iter()
        .filter_map(|friend| cart.get(friend))
        .filter_map(|order_no| orders.get(order_no))
        .flat_map(|&i| data.orders[i].lines.iter().map(|l| l.product_no.as_str()))
        .collect();
    products.into_iter().map(str::to_string).collect()
}

/// A query result in the form results are compared in: one string per
/// row, sorted. `None` when a row has an unexpected shape.
pub fn canonical(kind: usize, rows: &[Value]) -> Option<Vec<String>> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            if kind <= 1 {
                let name = r.get_field("name").as_str().ok()?;
                Some(q4_row(name, r.get_field("total").as_int().unwrap_or(0)))
            } else {
                r.as_str().ok().map(str::to_string)
            }
        })
        .collect::<Option<_>>()?;
    out.sort_unstable();
    Some(out)
}

fn q4_row(name: &str, total: i64) -> String {
    format!("{name}\t{total}")
}

/// The expected canonical result of every query variant of a run,
/// computed before the clock starts.
pub struct Oracle {
    expected: Vec<Vec<String>>,
}

impl Oracle {
    pub fn build(data: &Dataset, variants: &[Variant]) -> Result<Oracle> {
        let poly = PolyglotStores::new()?;
        poly.load(data)?;
        let mut q4: Vec<String> = poly
            .spend_per_customer()?
            .iter()
            .map(|(name, total)| q4_row(name, *total))
            .collect();
        q4.sort_unstable();
        let expected = variants
            .iter()
            .map(|v| {
                Ok(match v.param {
                    Param::None => q4.clone(),
                    Param::Threshold(t) => poly.recommendation_query(t)?,
                    Param::Customer(c) => q5_reference(data, c),
                    Param::CategoryWord(c, w) => {
                        q3_reference(data, data::CATEGORIES[c], data::WORDS[w])
                    }
                })
            })
            .collect::<Result<_>>()?;
        Ok(Oracle { expected })
    }

    /// True when `rows` is the expected answer of variant `variant`.
    pub fn matches(&self, variant: usize, kind: usize, rows: &[Value]) -> bool {
        canonical(kind, rows).is_some_and(|got| got == self.expected[variant])
    }
}

/// The cross-model state of one customer as a reader sees it.
#[derive(Clone, Copy)]
pub struct CustomerState<'a> {
    pub customer: i64,
    pub initial_credit: i64,
    /// The cart's order key.
    pub cart: Option<&'a str>,
    /// Whether the order the cart points at exists.
    pub order_present: bool,
    pub credit: i64,
}

/// The new-order invariant: the cart points at an existing order; if that
/// is the customer's `k`-th benchmark order (`ob-<cid>-<k>`), exactly `k`
/// orders have been charged: `initial_credit - credit == ORDER_TOTAL * k`.
/// Returns `k` (0 while the cart still holds a generated order), or what
/// is torn.
pub fn check_customer(s: &CustomerState) -> std::result::Result<u32, String> {
    let cart = s
        .cart
        .ok_or_else(|| format!("customer {}: empty cart", s.customer))?;
    let k = match data::parse_order_key(cart) {
        Some((owner, _)) if owner != s.customer => {
            return Err(format!("customer {}: cart holds {cart}", s.customer));
        }
        Some((_, k)) => k,
        None => 0,
    };
    if !s.order_present {
        return Err(format!(
            "customer {}: cart points at missing order {cart}",
            s.customer
        ));
    }
    let charged = s.initial_credit - s.credit;
    if charged != spec::ORDER_TOTAL * i64::from(k) {
        return Err(format!(
            "customer {}: cart at order {k} but {charged} charged",
            s.customer
        ));
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{load, LoadOpts};
    use mmdb_bench::gen::{self, Customer, Feedback, Order, OrderLine, Product};
    use mmdb_core::Database;

    /// Five customers in a line 1-2-3-4-5 (edges point to earlier ids),
    /// one order each holding product `p<id>`.
    fn tiny() -> Dataset {
        let product = |i: i64, category: &str| Product {
            product_no: format!("p{i}"),
            title: format!("thing {i}"),
            category: category.to_string(),
            price: 5,
        };
        let order = |c: i64| Order {
            order_no: format!("o{c}"),
            customer_id: c,
            lines: vec![OrderLine {
                product_no: format!("p{c}"),
                product_name: "thing".into(),
                price: 5,
            }],
        };
        let review = |c: i64, rating: i64, text: &str| Feedback {
            customer_id: c,
            product_no: format!("p{c}"),
            rating,
            text: text.to_string(),
        };
        Dataset {
            customers: (1..=5)
                .map(|id| Customer {
                    id,
                    name: format!("C{id}"),
                    place: "Oslo".into(),
                    credit_limit: 1000,
                })
                .collect(),
            knows: vec![(2, 1), (3, 2), (4, 3), (5, 4)],
            products: vec![
                product(1, "toys"),
                product(2, "toys"),
                product(3, "books"),
                product(4, "toys"),
                product(5, "toys"),
            ],
            orders: (1..=5).map(order).collect(),
            carts: (1..=5).map(|c| (c, format!("o{c}"))).collect(),
            feedback: vec![
                review(1, 5, "great thing — 5 stars"),
                review(2, 3, "great thing — 3 stars"),
                review(3, 5, "great thing — 5 stars"),
                review(4, 4, "Great-ish toy, greatly liked"),
                review(5, 5, "awful thing"),
            ],
        }
    }

    #[test]
    fn q5_hand_results() {
        let d = tiny();
        // Within two hops of 3: 1, 2, 4, 5 — not 3 itself.
        assert_eq!(q5_reference(&d, 3), ["p1", "p2", "p4", "p5"]);
        // Within two hops of 1: 2 and 3.
        assert_eq!(q5_reference(&d, 1), ["p2", "p3"]);
    }

    #[test]
    fn q3_hand_results() {
        let d = tiny();
        // "great" as a whole token, rating >= 4, category toys: p1 (5
        // stars) and p4 ("Great-ish" splits into great + ish); p2 is rated
        // 3, p3 is a book, p5 does not say great.
        assert_eq!(q3_reference(&d, "toys", "great"), ["p1", "p4"]);
        assert_eq!(q3_reference(&d, "books", "great"), ["p3"]);
        assert_eq!(q3_reference(&d, "toys", "greatly"), ["p4"]);
        assert!(q3_reference(&d, "toys", "grea").is_empty());
    }

    #[test]
    fn oracles_agree_with_the_engine_at_scale_0_05() {
        let d = gen::generate(0.05, 21);
        let db = Database::in_memory();
        load(&db, &d, LoadOpts::FULL).unwrap();
        let variants = data::variants(21, d.customers.len());
        let oracle = Oracle::build(&d, &variants).unwrap();
        let mut nonempty = [0usize; 5];
        for (i, v) in variants.iter().enumerate() {
            let rows = db.query(&v.text).unwrap();
            assert!(oracle.matches(i, v.kind, &rows), "{}", v.text);
            nonempty[v.kind] += usize::from(!rows.is_empty());
        }
        assert!(
            nonempty.iter().all(|&n| n > 0),
            "every query kind returns rows: {nonempty:?}"
        );
        // A wrong answer is noticed.
        assert!(!oracle.matches(0, 0, &[]));
    }

    #[test]
    fn invariant_checker_accepts_consistent_and_flags_torn_states() {
        let ok = CustomerState {
            customer: 7,
            initial_credit: 500,
            cart: Some("ob-7-3"),
            order_present: true,
            credit: 470,
        };
        assert_eq!(check_customer(&ok), Ok(3));
        let untouched = CustomerState {
            cart: Some("o000012"),
            credit: 500,
            ..ok
        };
        assert_eq!(check_customer(&untouched), Ok(0));
        // Hand-built torn states: the cart was repointed before the credit
        // row was charged; the cart points at an order that is not there;
        // the cart holds another customer's order; no cart at all.
        assert!(check_customer(&CustomerState { credit: 480, ..ok }).is_err());
        assert!(check_customer(&CustomerState {
            order_present: false,
            ..ok
        })
        .is_err());
        assert!(check_customer(&CustomerState {
            cart: Some("ob-8-3"),
            ..ok
        })
        .is_err());
        assert!(check_customer(&CustomerState { cart: None, ..ok }).is_err());
    }
}
