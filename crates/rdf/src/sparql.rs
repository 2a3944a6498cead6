//! SPARQL-style basic-graph-pattern evaluation with FILTER and a
//! GROUP BY/aggregate subset.
//!
//! The tutorial credits DB2 with "SPARQL 1.0 + subset of features from
//! SPARQL 1.1: SELECT, GROUP BY, HAVING, SUM, MAX, …". This module
//! evaluates exactly that slice over [`TripleStore`], picking the best
//! available access path per triple pattern given the bindings so far.

use std::collections::HashMap;

use mmdb_types::{Error, Result, Value};

use crate::triple::TripleStore;

/// A term position in a pattern: constant or variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermPattern {
    /// A constant term.
    Const(Value),
    /// A variable, named without the `?`.
    Var(String),
}

impl TermPattern {
    /// Shorthand for a variable.
    pub fn var(name: &str) -> TermPattern {
        TermPattern::Var(name.to_string())
    }

    /// Shorthand for a string constant.
    pub fn iri(s: &str) -> TermPattern {
        TermPattern::Const(Value::str(s))
    }
}

/// One triple pattern.
#[derive(Debug, Clone)]
pub struct TriplePattern {
    /// Subject slot.
    pub subject: TermPattern,
    /// Predicate slot (constant-only here, like most engines' fast path;
    /// a variable predicate falls back to scanning).
    pub predicate: TermPattern,
    /// Object slot.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Build from the `?var` / literal convention: a leading `?` makes a
    /// variable.
    pub fn parse(s: &str, p: &str, o: &str) -> TriplePattern {
        let term = |t: &str| {
            if let Some(v) = t.strip_prefix('?') {
                TermPattern::Var(v.to_string())
            } else {
                TermPattern::Const(Value::str(t))
            }
        };
        TriplePattern { subject: term(s), predicate: term(p), object: term(o) }
    }
}

/// A set of variable bindings.
pub type Binding = HashMap<String, Value>;

/// Comparison operators usable in FILTER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A FILTER constraint: `?var op constant`.
#[derive(Debug, Clone)]
pub struct Filter {
    /// Variable name.
    pub var: String,
    /// Operator.
    pub op: CmpOp,
    /// Right-hand constant.
    pub value: Value,
}

impl Filter {
    fn accepts(&self, b: &Binding) -> bool {
        let Some(v) = b.get(&self.var) else { return false };
        match self.op {
            CmpOp::Eq => v == &self.value,
            CmpOp::Ne => v != &self.value,
            CmpOp::Lt => v < &self.value,
            CmpOp::Le => v <= &self.value,
            CmpOp::Gt => v > &self.value,
            CmpOp::Ge => v >= &self.value,
        }
    }
}

/// Aggregate functions for the GROUP BY subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// COUNT of rows in the group.
    Count,
    /// SUM over a numeric variable.
    Sum,
    /// MAX over a variable.
    Max,
    /// MIN over a variable.
    Min,
}

/// A SELECT query: BGP + FILTERs, with optional GROUP BY + one aggregate.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    /// Projected variables (empty = all bound variables).
    pub select: Vec<String>,
    /// The basic graph pattern.
    pub patterns: Vec<TriplePattern>,
    /// FILTER constraints.
    pub filters: Vec<Filter>,
    /// GROUP BY variable with `(aggregate, aggregated-variable)`.
    pub group_by: Option<(String, Aggregate, String)>,
}

impl SelectQuery {
    /// A plain BGP query.
    pub fn new(patterns: Vec<TriplePattern>) -> SelectQuery {
        SelectQuery { select: Vec::new(), patterns, filters: Vec::new(), group_by: None }
    }

    /// Add a FILTER, builder-style.
    pub fn filter(mut self, var: &str, op: CmpOp, value: Value) -> SelectQuery {
        self.filters.push(Filter { var: var.to_string(), op, value });
        self
    }

    /// Project specific variables, builder-style.
    pub fn project(mut self, vars: &[&str]) -> SelectQuery {
        self.select = vars.iter().map(|v| v.to_string()).collect();
        self
    }

    /// Group by `key_var` and aggregate `agg(agg_var)`, builder-style.
    pub fn group(mut self, key_var: &str, agg: Aggregate, agg_var: &str) -> SelectQuery {
        self.group_by = Some((key_var.to_string(), agg, agg_var.to_string()));
        self
    }

    /// Evaluate the query. Plain queries return one binding per match;
    /// grouped queries return bindings `{key_var: key, "agg": value}`.
    pub fn eval(&self, store: &TripleStore) -> Result<Vec<Binding>> {
        let mut bindings = vec![Binding::new()];
        for p in &self.patterns {
            bindings = extend(store, &bindings, p)?;
            if bindings.is_empty() {
                break;
            }
        }
        bindings.retain(|b| self.filters.iter().all(|f| f.accepts(b)));

        if let Some((key_var, agg, agg_var)) = &self.group_by {
            let mut groups: HashMap<Value, Vec<&Binding>> = HashMap::new();
            for b in &bindings {
                let key = b.get(key_var).cloned().unwrap_or(Value::Null);
                groups.entry(key).or_default().push(b);
            }
            let mut out: Vec<Binding> = groups
                .into_iter()
                .map(|(key, members)| {
                    let agg_value = match agg {
                        Aggregate::Count => Value::int(members.len() as i64),
                        Aggregate::Sum => {
                            let mut total = 0.0;
                            let mut all_int = true;
                            for m in &members {
                                if let Some(Value::Number(n)) = m.get(agg_var) {
                                    total += n.as_f64();
                                    all_int &= n.is_int();
                                }
                            }
                            if all_int { Value::int(total as i64) } else { Value::float(total) }
                        }
                        Aggregate::Max => members
                            .iter()
                            .filter_map(|m| m.get(agg_var))
                            .max()
                            .cloned()
                            .unwrap_or(Value::Null),
                        Aggregate::Min => members
                            .iter()
                            .filter_map(|m| m.get(agg_var))
                            .min()
                            .cloned()
                            .unwrap_or(Value::Null),
                    };
                    let mut b = Binding::new();
                    b.insert(key_var.clone(), key);
                    b.insert("agg".to_string(), agg_value);
                    b
                })
                .collect();
            out.sort_by(|a, b| a.get(key_var).cmp(&b.get(key_var)));
            return Ok(out);
        }

        // Projection.
        if !self.select.is_empty() {
            bindings = bindings
                .into_iter()
                .map(|mut b| {
                    b.retain(|k, _| self.select.contains(k));
                    b
                })
                .collect();
        }
        Ok(bindings)
    }
}

/// Extend each binding with matches of one pattern, choosing the best
/// access path for the bound/unbound shape.
fn extend(store: &TripleStore, bindings: &[Binding], p: &TriplePattern) -> Result<Vec<Binding>> {
    let mut out = Vec::new();
    for b in bindings {
        let s_val = resolve(&p.subject, b);
        let p_val = resolve(&p.predicate, b);
        let o_val = resolve(&p.object, b);
        let pred_str = match &p_val {
            Some(Value::String(s)) => Some(s.as_str()),
            Some(_) => {
                return Err(Error::Query("predicates must be IRIs (strings)".into()));
            }
            None => None,
        };
        // Pick the access path: SP > OP > S > O > scan.
        let candidates: Vec<&crate::triple::Triple> = match (&s_val, &pred_str, &o_val) {
            (Some(Value::String(s)), Some(pp), _) => store.by_subject_predicate(s, pp),
            (_, Some(pp), Some(o)) => store.by_object_predicate(o, pp),
            (Some(Value::String(s)), None, _) => store.by_subject(s),
            (None, _, Some(o)) => store.by_object(o),
            _ => store.all(None),
        };
        for t in candidates {
            // Verify constants / bound vars, bind free vars.
            if let Some(Value::String(s)) = &s_val {
                if t.subject != s.as_str() {
                    continue;
                }
            } else if s_val.is_some() {
                continue; // non-string subject constant can never match
            }
            if let Some(pp) = &pred_str {
                if t.predicate != *pp {
                    continue;
                }
            }
            if let Some(o) = &o_val {
                if &t.object != o {
                    continue;
                }
            }
            let mut nb = b.clone();
            if let TermPattern::Var(v) = &p.subject {
                nb.insert(v.clone(), Value::str(&t.subject));
            }
            if let TermPattern::Var(v) = &p.predicate {
                nb.insert(v.clone(), Value::str(&t.predicate));
            }
            if let TermPattern::Var(v) = &p.object {
                nb.insert(v.clone(), t.object.clone());
            }
            out.push(nb);
        }
    }
    Ok(out)
}

fn resolve(t: &TermPattern, b: &Binding) -> Option<Value> {
    match t {
        TermPattern::Const(v) => Some(v.clone()),
        TermPattern::Var(name) => b.get(name).cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::{AccessPaths, Triple};

    fn store() -> TripleStore {
        let mut s = TripleStore::new(AccessPaths::all());
        for (subj, limit) in [("mary", 5000), ("john", 3000), ("anne", 2000)] {
            s.insert(Triple::new(subj, "rdf:type", "Customer")).unwrap();
            s.insert(Triple::new(subj, "creditLimit", Value::int(limit))).unwrap();
        }
        s.insert(Triple::new("mary", "knows", "john")).unwrap();
        s.insert(Triple::new("anne", "knows", "mary")).unwrap();
        s.insert(Triple::new("john", "ordered", "toy")).unwrap();
        s.insert(Triple::new("john", "ordered", "book")).unwrap();
        s
    }

    #[test]
    fn single_pattern_binds_variables() {
        let s = store();
        let q = SelectQuery::new(vec![TriplePattern::parse("?c", "rdf:type", "Customer")]);
        let rows = q.eval(&s).unwrap();
        assert_eq!(rows.len(), 3);
        let mut names: Vec<String> = rows
            .iter()
            .map(|b| b["c"].as_str().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["anne", "john", "mary"]);
    }

    #[test]
    fn the_recommendation_query_as_sparql() {
        // Products ordered by a friend of a customer with creditLimit > 3000.
        let s = store();
        let q = SelectQuery::new(vec![
            TriplePattern::parse("?c", "creditLimit", "?limit"),
            TriplePattern::parse("?c", "knows", "?friend"),
            TriplePattern::parse("?friend", "ordered", "?product"),
        ])
        .filter("limit", CmpOp::Gt, Value::int(3000))
        .project(&["product"]);
        let rows = q.eval(&s).unwrap();
        let mut products: Vec<String> = rows
            .iter()
            .map(|b| b["product"].as_str().unwrap().to_string())
            .collect();
        products.sort();
        assert_eq!(products, vec!["book", "toy"]);
        // Projection removed other vars.
        assert_eq!(rows[0].len(), 1);
    }

    #[test]
    fn joins_share_variables() {
        let s = store();
        // Who knows someone who ordered something?
        let q = SelectQuery::new(vec![
            TriplePattern::parse("?x", "knows", "?y"),
            TriplePattern::parse("?y", "ordered", "?p"),
        ]);
        let rows = q.eval(&s).unwrap();
        assert_eq!(rows.len(), 2, "mary→john × two products");
        assert!(rows.iter().all(|b| b["x"] == Value::str("mary")));
    }

    #[test]
    fn filters_compare_typed_literals() {
        let s = store();
        let q = SelectQuery::new(vec![TriplePattern::parse("?c", "creditLimit", "?l")])
            .filter("l", CmpOp::Ge, Value::int(3000));
        assert_eq!(q.eval(&s).unwrap().len(), 2);
        let q = SelectQuery::new(vec![TriplePattern::parse("?c", "creditLimit", "?l")])
            .filter("l", CmpOp::Ne, Value::int(2000));
        assert_eq!(q.eval(&s).unwrap().len(), 2);
    }

    #[test]
    fn group_by_with_aggregates() {
        let s = store();
        // COUNT of orders per subject.
        let q = SelectQuery::new(vec![TriplePattern::parse("?who", "ordered", "?what")])
            .group("who", Aggregate::Count, "what");
        let rows = q.eval(&s).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["who"], Value::str("john"));
        assert_eq!(rows[0]["agg"], Value::int(2));
        // MAX credit limit per type.
        let q = SelectQuery::new(vec![
            TriplePattern::parse("?c", "rdf:type", "?t"),
            TriplePattern::parse("?c", "creditLimit", "?l"),
        ])
        .group("t", Aggregate::Max, "l");
        let rows = q.eval(&s).unwrap();
        assert_eq!(rows[0]["agg"], Value::int(5000));
        // SUM.
        let q = SelectQuery::new(vec![TriplePattern::parse("?c", "creditLimit", "?l")])
            .group("c", Aggregate::Sum, "l");
        let rows = q.eval(&s).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn variable_predicate_scans() {
        let s = store();
        let q = SelectQuery::new(vec![TriplePattern::parse("mary", "?p", "?o")]);
        let rows = q.eval(&s).unwrap();
        assert_eq!(rows.len(), 3); // type, creditLimit, knows
    }

    #[test]
    fn unsatisfiable_patterns_short_circuit() {
        let s = store();
        let q = SelectQuery::new(vec![
            TriplePattern::parse("?c", "nonexistent", "?x"),
            TriplePattern::parse("?x", "knows", "?y"),
        ]);
        assert!(q.eval(&s).unwrap().is_empty());
    }
}
