//! The rule-based optimizer.
//!
//! Rules, in order:
//!
//! 1. **Constant folding** — literal subexpressions collapse
//!    (`2 * 3 > 5` → `true`).
//! 2. **Subquery planning** — every `( FOR … RETURN … )` is planned and
//!    optimized here, once, in the scope of the clause that holds it, and
//!    stored as an [`Expr::SubPlan`]; the executor never plans.
//! 3. **Filter merging** — adjacent FILTERs conjoin, so later rules see
//!    one predicate.
//! 4. **Index selection** — a `For` over a named source immediately
//!    followed by a `Filter` whose conjuncts include `var.path op literal`
//!    becomes an `IndexScan` when the source has a matching persistent
//!    (document) or secondary (relational) index; leftover conjuncts stay
//!    as the scan's residual predicate. This is the tutorial's
//!    "query optimization = pick the right index" story in miniature.
//! 5. **Hash join** — a `For` + `Filter` pair that rule 4 left alone
//!    becomes a `HashJoin` when the source is the same for every row, the
//!    node can see more than one row, and a conjunct equates a path of the
//!    loop variable with an expression over earlier variables (see
//!    [`try_hash_join`]). This covers the in-pipeline nested `FOR`, SQL
//!    `JOIN … ON a = b`, and — through rule 2's scope — the
//!    equi-correlated subquery.
//!
//! Every rewrite keeps the rows and their order: a plan straight from
//! `build_plan` and its optimized form return the same vector.

use mmdb_types::Value;

use crate::ast::{BinOp, Expr};
use crate::eval::like_match;
use crate::plan::{build_plan, Plan, PlanBound, PlanNode};
use crate::world::World;

/// Optimize a plan against a world (index metadata lookups only).
pub fn optimize(plan: Plan, world: &World) -> Plan {
    optimize_in(plan, world, Scope::default(), &mut 0)
}

/// What the optimizer knows about the rows reaching a node.
#[derive(Clone, Default)]
struct Scope {
    /// Variables bound so far, innermost last, each with "holds one value
    /// for the whole execution": true only for a `LET` evaluated before
    /// any row-multiplying node, i.e. at most once.
    bound: Vec<(String, bool)>,
    /// Has a node that can emit several rows per input row been passed —
    /// here or in an enclosing pipeline?
    multiplied: bool,
}

impl Scope {
    fn is_bound(&self, name: &str) -> bool {
        self.bound.iter().any(|(n, _)| n == name)
    }

    /// Does `FOR x IN name` read the same items for every row? True for a
    /// store name (not shadowed) and for a variable bound once.
    fn is_row_invariant(&self, name: &str) -> bool {
        self.bound.iter().rev().find(|(n, _)| n == name).is_none_or(|(_, once)| *once)
    }

    /// Move past `node`: record what it binds.
    fn enter(&mut self, node: &PlanNode) {
        match node {
            PlanNode::For { var, .. }
            | PlanNode::IndexScan { var, .. }
            | PlanNode::HashJoin { var, .. }
            | PlanNode::Traverse { var, .. } => {
                self.multiplied = true;
                self.bound.push((var.clone(), false));
            }
            PlanNode::Let { var, .. } => self.bound.push((var.clone(), !self.multiplied)),
            // COLLECT starts its groups from an empty environment.
            PlanNode::Collect { key, into, aggregates } => {
                self.multiplied = true;
                self.bound.clear();
                let vars = key
                    .iter()
                    .map(|(v, _)| v)
                    .chain(into)
                    .chain(aggregates.iter().map(|(v, _, _)| v));
                self.bound.extend(vars.map(|v| (v.clone(), false)));
            }
            PlanNode::Filter(_) | PlanNode::Sort(_) | PlanNode::Limit { .. } => {}
        }
    }
}

/// Optimize one pipeline whose first row arrives in `scope`. `slots`
/// numbers the hash joins of the whole top-level plan.
fn optimize_in(mut plan: Plan, world: &World, scope: Scope, slots: &mut usize) -> Plan {
    // 1 + 2. Fold constants and plan subqueries, each expression in the
    //    scope of its own node.
    let mut at = scope.clone();
    for node in &mut plan.nodes {
        for e in node.exprs_mut() {
            fold_in(e, &mut |sub| plan_subquery(sub, world, &at, slots));
        }
        at.enter(node);
    }
    fold_in(&mut plan.ret, &mut |sub| plan_subquery(sub, world, &at, slots));

    // 3. Merge adjacent filters. Both sides are moved, not cloned: the
    //    accumulated conjunction is taken out of the vec and rebuilt with
    //    the incoming predicate, so merging a chain of N filters is O(N)
    //    in total AST size instead of quadratic.
    let mut merged: Vec<PlanNode> = Vec::with_capacity(plan.nodes.len());
    for node in plan.nodes {
        if let PlanNode::Filter(b) = node {
            if let Some(PlanNode::Filter(a)) = merged.last_mut() {
                let lhs = std::mem::replace(a, Expr::Literal(Value::Null));
                *a = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(b));
            } else {
                merged.push(PlanNode::Filter(b));
            }
        } else {
            merged.push(node);
        }
    }

    // 4 + 5. Index selection, then hash join, on For+Filter pairs.
    let mut at = scope;
    let mut out: Vec<PlanNode> = Vec::with_capacity(merged.len());
    let mut iter = merged.into_iter().peekable();
    while let Some(mut node) = iter.next() {
        if let PlanNode::For { var, source: Expr::Var(name) } = &node {
            if let Some(PlanNode::Filter(pred)) = iter.peek() {
                let rewritten = try_index_scan(world, &at, var, name, pred)
                    .or_else(|| try_hash_join(&at, var, name, pred, slots));
                if let Some(join) = rewritten {
                    iter.next(); // consume the filter
                    node = join;
                }
            }
        }
        at.enter(&node);
        out.push(node);
    }
    plan.nodes = out;
    plan
}

/// Rule 2: replace an `Expr::Subquery` by its optimized plan.
fn plan_subquery(e: &mut Expr, world: &World, scope: &Scope, slots: &mut usize) {
    if let Expr::Subquery(q) = e {
        // `build_plan` is total today; were it ever to fail, the
        // subquery stays as parsed and the executor reports the error.
        if let Ok(plan) = build_plan(q) {
            *e = Expr::SubPlan(Box::new(optimize_in(plan, world, scope.clone(), slots)));
        }
    }
}

/// A single extracted comparison `var.path op literal`.
struct PathCmp {
    path: String,
    op: BinOp,
    value: Value,
}

fn try_index_scan(
    world: &World,
    scope: &Scope,
    var: &str,
    source: &str,
    pred: &Expr,
) -> Option<PlanNode> {
    // The name must be a real store, not a variable: only document
    // collections and tables are indexable, and a binding that shadows a
    // store name is what the `For` would read.
    if scope.is_bound(source) {
        return None;
    }
    let indexed_paths: Vec<String> = if let Ok(coll) = world.collection(source) {
        coll.indexed_paths()
    } else if let Ok(table) = world.catalog.table(source) {
        table.indexed_columns()
    } else {
        return None;
    };
    if indexed_paths.is_empty() {
        return None;
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(pred, &mut conjuncts);
    // Find the first conjunct whose path has an index.
    let mut chosen: Option<(usize, PathCmp)> = None;
    for (i, c) in conjuncts.iter().enumerate() {
        if let Some(pc) = extract_path_cmp(c, var) {
            if indexed_paths.contains(&pc.path) {
                chosen = Some((i, pc));
                break;
            }
        }
    }
    let (idx, pc) = chosen?;
    let (lo, hi) = match pc.op {
        BinOp::Eq => (PlanBound::Included(pc.value.clone()), PlanBound::Included(pc.value)),
        BinOp::Lt => (PlanBound::Unbounded, PlanBound::Excluded(pc.value)),
        BinOp::Le => (PlanBound::Unbounded, PlanBound::Included(pc.value)),
        BinOp::Gt => (PlanBound::Excluded(pc.value), PlanBound::Unbounded),
        BinOp::Ge => (PlanBound::Included(pc.value), PlanBound::Unbounded),
        _ => return None,
    };
    let residual = conjoin_except(&conjuncts, idx);
    Some(PlanNode::IndexScan {
        var: var.to_string(),
        source: source.to_string(),
        path: pc.path,
        lo,
        hi,
        residual,
    })
}

/// Rule 5. `For var IN source` + `Filter pred` becomes a `HashJoin` when
///
/// * `source` reads the same items for every row ([`Scope::is_row_invariant`]),
///   so one build serves every probe;
/// * more than one row can arrive (a single probe cannot repay a build);
/// * some conjunct is `build == probe` (either way round) where `build`
///   is a path of `var` and `probe` reads earlier variables, at least
///   one, and never `var`;
/// * both keys, and every conjunct ahead of that one, cannot fail
///   ([`infallible`]): the join evaluates keys for rows the nested loop's
///   short-circuit `&&` might never have reached, and the conjuncts ahead
///   only for matching pairs, so neither may be able to raise an error.
///
/// The other conjuncts become the residual, in their original order.
fn try_hash_join(
    scope: &Scope,
    var: &str,
    source: &str,
    pred: &Expr,
    slots: &mut usize,
) -> Option<PlanNode> {
    if !scope.multiplied || !scope.is_row_invariant(source) {
        return None;
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(pred, &mut conjuncts);
    let inner = |name: &str| name == var || scope.is_bound(name);
    let mut chosen = None;
    for (i, c) in conjuncts.iter().enumerate() {
        if let Expr::Binary(BinOp::Eq, l, r) = c {
            let keys = [(l, r), (r, l)].into_iter().find(|(build, probe)| {
                let reads_outer = std::cell::Cell::new(false);
                path_of(build, var).is_some()
                    && infallible(probe, &|name| {
                        reads_outer.set(true);
                        name != var && scope.is_bound(name)
                    })
                    && reads_outer.get()
            });
            if let Some((build, probe)) = keys {
                chosen = Some((i, (**build).clone(), (**probe).clone()));
                break;
            }
        }
        if !infallible(c, &inner) {
            return None;
        }
    }
    let (idx, build_key, probe_key) = chosen?;
    let residual = conjoin_except(&conjuncts, idx);
    let slot = *slots;
    *slots += 1;
    Some(PlanNode::HashJoin {
        var: var.to_string(),
        source: source.to_string(),
        build_key,
        probe_key,
        residual,
        slot,
    })
}

/// Can evaluating `e` never return an error, given that every variable
/// it reads satisfies `bound`? Navigation, comparisons and boolean
/// operators cannot fail; arithmetic, negation, calls, computed indexes
/// and subqueries can.
fn infallible(e: &Expr, bound: &dyn Fn(&str) -> bool) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Var(name) => bound(name),
        Expr::Field(a, _) | Expr::Spread(a) | Expr::Not(a) => infallible(a, bound),
        Expr::Index(a, idx) => {
            infallible(a, bound)
                && match &**idx {
                    Expr::Literal(Value::Number(n)) => n.as_i64().is_some(),
                    Expr::Literal(Value::String(_)) => true,
                    _ => false,
                }
        }
        Expr::Binary(op, l, r) => {
            !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
                && infallible(l, bound)
                && infallible(r, bound)
        }
        Expr::Ternary(c, a, b) => [c, a, b].into_iter().all(|x| infallible(x, bound)),
        Expr::Array(items) => items.iter().all(|x| infallible(x, bound)),
        Expr::Object(fields) => fields.iter().all(|(_, x)| infallible(x, bound)),
        Expr::Neg(_) | Expr::Call(..) | Expr::Subquery(_) | Expr::SubPlan(_) => false,
    }
}

/// The residual predicate: every conjunct but the one a rewrite consumed,
/// in order.
fn conjoin_except(conjuncts: &[&Expr], consumed: usize) -> Option<Expr> {
    conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != consumed)
        .map(|(_, e)| (*e).clone())
        .reduce(|a, b| Expr::Binary(BinOp::And, Box::new(a), Box::new(b)))
}

fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary(BinOp::And, a, b) = e {
        split_conjuncts(a, out);
        split_conjuncts(b, out);
    } else {
        out.push(e);
    }
}

/// Match `var.path op literal` (or reversed) where path is a chain of
/// field/constant-index accesses rooted at `var`.
fn extract_path_cmp(e: &Expr, var: &str) -> Option<PathCmp> {
    let Expr::Binary(op, l, r) = e else { return None };
    let (path_side, lit_side, op) = match (&**l, &**r) {
        (_, Expr::Literal(_)) => (l, r, *op),
        (Expr::Literal(_), _) => (r, l, flip(*op)?),
        _ => return None,
    };
    let Expr::Literal(value) = &**lit_side else { return None };
    let path = path_of(path_side, var)?;
    Some(PathCmp { path, op, value: value.clone() })
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

fn path_of(e: &Expr, var: &str) -> Option<String> {
    match e {
        Expr::Var(v) if v == var => Some(String::new()),
        Expr::Field(base, name) => {
            let p = path_of(base, var)?;
            Some(if p.is_empty() { name.clone() } else { format!("{p}.{name}") })
        }
        Expr::Index(base, idx) => {
            let p = path_of(base, var)?;
            if let Expr::Literal(Value::Number(n)) = &**idx {
                n.as_i64().map(|i| format!("{p}[{i}]"))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Fold constant subexpressions in place.
pub fn fold(e: &mut Expr) {
    fold_in(e, &mut |_| {});
}

/// [`fold`], handing every subquery met on the way to `on_subquery`.
fn fold_in(e: &mut Expr, on_subquery: &mut dyn FnMut(&mut Expr)) {
    let mut fold = |e: &mut Expr| fold_in(e, on_subquery);
    match e {
        Expr::Binary(op, l, r) => {
            fold(l);
            fold(r);
            if let (Expr::Literal(a), Expr::Literal(b)) = (&**l, &**r) {
                if let Some(v) = fold_binary(*op, a, b) {
                    *e = Expr::Literal(v);
                }
            }
        }
        Expr::Not(inner) => {
            fold(inner);
            if let Expr::Literal(v) = &**inner {
                *e = Expr::Literal(Value::Bool(!v.is_truthy()));
            }
        }
        Expr::Neg(inner) => {
            fold(inner);
            if let Expr::Literal(Value::Number(n)) = &**inner {
                // Preserve int-ness for integral inputs.
                let folded = match n.as_i64() {
                    Some(i) => Value::int(-i),
                    None => Value::float(-n.as_f64()),
                };
                *e = Expr::Literal(folded);
            }
        }
        Expr::Field(base, _) | Expr::Spread(base) => fold(base),
        Expr::Index(base, idx) => {
            fold(base);
            fold(idx);
        }
        Expr::Array(items) | Expr::Call(_, items) => items.iter_mut().for_each(fold),
        Expr::Object(fields) => fields.iter_mut().for_each(|(_, v)| fold(v)),
        Expr::Ternary(c, a, b) => {
            fold(c);
            fold(a);
            fold(b);
            if let Expr::Literal(cv) = &**c {
                *e = if cv.is_truthy() { (**a).clone() } else { (**b).clone() };
            }
        }
        Expr::Subquery(_) => on_subquery(e),
        Expr::Literal(_) | Expr::Var(_) | Expr::SubPlan(_) => {}
    }
}

fn fold_binary(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    Some(match op {
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => Value::Bool(a < b),
        BinOp::Le => Value::Bool(a <= b),
        BinOp::Gt => Value::Bool(a > b),
        BinOp::Ge => Value::Bool(a >= b),
        BinOp::And => Value::Bool(a.is_truthy() && b.is_truthy()),
        BinOp::Or => Value::Bool(a.is_truthy() || b.is_truthy()),
        BinOp::In => match b {
            Value::Array(items) => Value::Bool(items.contains(a)),
            _ => Value::Bool(false),
        },
        BinOp::Like => match (a, b) {
            (Value::String(s), Value::String(p)) => Value::Bool(like_match(s, p)),
            _ => Value::Bool(false),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let (Value::Number(x), Value::Number(y)) = (a, b) else {
                // Leave string concat etc. to runtime.
                return None;
            };
            let (x, y) = (x.as_f64(), y.as_f64());
            let f = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return None; // keep the runtime error
                    }
                    x / y
                }
                BinOp::Mod => {
                    if y == 0.0 {
                        return None;
                    }
                    x % y
                }
                _ => unreachable!(), // lint: allow(panic, folding is only attempted for the arithmetic BinOps matched above)
            };
            if f.fract() == 0.0
                && f.abs() < 9.0e18
                && matches!((a, b), (Value::Number(p), Value::Number(q)) if p.is_int() && q.is_int())
            {
                Value::int(f as i64)
            } else {
                Value::float(f)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_query};
    use crate::plan::build_plan;

    #[test]
    fn constant_folding() {
        let mut e = parse_expr("1 + 2 * 3").unwrap();
        fold(&mut e);
        assert_eq!(e, Expr::Literal(Value::int(7)));
        let mut e = parse_expr("2 > 1 && false").unwrap();
        fold(&mut e);
        assert_eq!(e, Expr::Literal(Value::Bool(false)));
        let mut e = parse_expr("true ? x : y").unwrap();
        fold(&mut e);
        assert_eq!(e, Expr::Var("x".into()));
        // Division by zero is left for runtime.
        let mut e = parse_expr("1 / 0").unwrap();
        fold(&mut e);
        assert!(matches!(e, Expr::Binary(..)));
    }

    #[test]
    fn index_selection_rewrites_for_filter() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        for i in 0..10 {
            c.insert_json(&format!(r#"{{"_key":"p{i}","price":{i}}}"#)).unwrap();
        }
        c.create_persistent_index("price").unwrap();
        let q = parse_query("FOR p IN products FILTER p.price > 5 && p.price < 8 RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 1);
        match &plan.nodes[0] {
            PlanNode::IndexScan { path, lo, hi, residual, .. } => {
                assert_eq!(path, "price");
                assert_eq!(lo, &PlanBound::Excluded(Value::int(5)));
                assert_eq!(hi, &PlanBound::Unbounded);
                assert!(residual.is_some(), "the < 8 conjunct survives as residual");
            }
            other => panic!("expected IndexScan, got {other:?}"),
        }
    }

    #[test]
    fn no_index_no_rewrite() {
        let w = World::in_memory();
        w.create_collection("products").unwrap();
        let q = parse_query("FOR p IN products FILTER p.price > 5 RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 2);
        assert!(matches!(plan.nodes[0], PlanNode::For { .. }));
    }

    #[test]
    fn reversed_literal_comparisons_flip() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        c.insert_json(r#"{"_key":"a","price":5}"#).unwrap();
        c.create_persistent_index("price").unwrap();
        let q = parse_query("FOR p IN products FILTER 5 <= p.price RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        match &plan.nodes[0] {
            PlanNode::IndexScan { lo, .. } => {
                assert_eq!(lo, &PlanBound::Included(Value::int(5)));
            }
            other => panic!("expected IndexScan, got {other:?}"),
        }
    }

    #[test]
    fn long_filter_chains_merge_linearly_and_keep_semantics() {
        // Regression: merging used to clone both the accumulated
        // conjunction and the incoming filter per step, making long
        // FILTER chains quadratic in AST size. The rebuild must keep
        // every conjunct exactly once and preserve results. The merged
        // predicate is a left-deep tree, so recursive evaluation needs
        // more than the default test-thread stack.
        std::thread::Builder::new()
            .stack_size(32 * 1024 * 1024)
            .spawn(long_filter_chain_body)
            .unwrap()
            .join()
            .unwrap();
    }

    fn long_filter_chain_body() {
        let w = World::in_memory();
        let n = 500;
        let mut text = String::from("FOR x IN [1,2,3]");
        for i in 0..n {
            text.push_str(&format!(" FILTER x != {}", i + 10));
        }
        text.push_str(" RETURN x");
        let q = parse_query(&text).unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 2, "all filters fold into one");
        let PlanNode::Filter(pred) = &plan.nodes[1] else {
            panic!("expected a merged Filter, got {:?}", plan.nodes[1]);
        };
        fn count_conjuncts(e: &Expr) -> usize {
            match e {
                Expr::Binary(BinOp::And, a, b) => count_conjuncts(a) + count_conjuncts(b),
                _ => 1,
            }
        }
        assert_eq!(count_conjuncts(pred), n, "no conjunct lost or duplicated");
        let got = crate::run(&w, &text).unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(2), Value::int(3)]);
    }

    #[test]
    fn adjacent_filters_merge() {
        let w = World::in_memory();
        let q = parse_query("FOR x IN [1,2,3] FILTER x > 1 FILTER x < 3 RETURN x").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 2, "two filters fold into one");
    }

    #[test]
    fn relational_index_also_selected() {
        use mmdb_relational::{ColumnDef, DataType, Schema};
        let w = World::in_memory();
        let t = w
            .catalog
            .create_table(
                "customers",
                Schema::new(
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("credit_limit", DataType::Int),
                    ],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        t.create_index("credit_limit").unwrap();
        let q = parse_query("FOR c IN customers FILTER c.credit_limit > 3000 RETURN c").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert!(matches!(&plan.nodes[0], PlanNode::IndexScan { source, .. } if source == "customers"));
    }

    fn optimized(text: &str) -> Plan {
        optimize(build_plan(&parse_query(text).unwrap()).unwrap(), &World::in_memory())
    }

    /// The plan of the first subquery in a `LET`, as the optimizer left it.
    fn let_body(plan: &Plan) -> &Plan {
        plan.nodes
            .iter()
            .find_map(|n| match n {
                PlanNode::Let { value, .. } => find_sub_plan(value),
                _ => None,
            })
            .expect("a LET holding a planned subquery")
    }

    fn find_sub_plan(e: &Expr) -> Option<&Plan> {
        match e {
            Expr::SubPlan(p) => Some(p),
            Expr::Call(_, args) => args.iter().find_map(find_sub_plan),
            _ => None,
        }
    }

    fn kinds(plan: &Plan) -> Vec<&'static str> {
        plan.nodes
            .iter()
            .map(|n| match n {
                PlanNode::For { .. } => "For",
                PlanNode::IndexScan { .. } => "IndexScan",
                PlanNode::HashJoin { .. } => "HashJoin",
                PlanNode::Traverse { .. } => "Traverse",
                PlanNode::Filter(_) => "Filter",
                PlanNode::Let { .. } => "Let",
                PlanNode::Sort(_) => "Sort",
                PlanNode::Limit { .. } => "Limit",
                PlanNode::Collect { .. } => "Collect",
            })
            .collect()
    }

    const Q4_NAIVE: &str = "FOR c IN customers \
        LET total = SUM((FOR o IN orders FILTER o.customer_id == c.id RETURN o.total)) \
        RETURN {name: c.name, total: total}";

    #[test]
    fn equi_correlated_subquery_becomes_a_hash_join() {
        let plan = optimized(Q4_NAIVE);
        assert_eq!(kinds(&plan), ["For", "Let"]);
        let body = let_body(&plan);
        assert_eq!(body.nodes.len(), 1);
        assert_eq!(body.nodes[0].describe(), "HashJoin o IN orders ON o.customer_id == c.id");
        assert_eq!(
            plan.explain(),
            "For c IN customers\nLet total\n\
             └ HashJoin o IN orders ON o.customer_id == c.id\n└ Return\nReturn"
        );
    }

    #[test]
    fn a_let_bound_before_any_for_is_a_join_source() {
        // Q4-grouped's shape: `totals` is evaluated once, so its value is
        // the same for every customer.
        let plan = optimized(
            "LET totals = (FOR o IN orders COLLECT cid = o.customer_id AGGREGATE t = SUM(o.total) \
               RETURN {cid: cid, t: t}) \
             FOR c IN customers LET hit = (FOR x IN totals FILTER x.cid == c.id RETURN x.t) \
             RETURN hit",
        );
        assert_eq!(kinds(&plan), ["Let", "For", "Let"]);
        let PlanNode::Let { value: Expr::SubPlan(totals), .. } = &plan.nodes[0] else {
            panic!("expected a planned subquery, got {:?}", plan.nodes[0]);
        };
        assert_eq!(kinds(totals), ["For", "Collect"], "one row reaches it: nothing to join");
        let PlanNode::Let { value: Expr::SubPlan(hit), .. } = &plan.nodes[2] else {
            panic!("expected a planned subquery, got {:?}", plan.nodes[2]);
        };
        assert_eq!(hit.nodes[0].describe(), "HashJoin x IN totals ON x.cid == c.id");
    }

    #[test]
    fn nested_for_and_sql_join_become_hash_joins_with_a_residual() {
        let plan = optimized(
            "FOR c IN customers FOR o IN orders \
             FILTER o.total > 10 && c.id == o.customer_id FILTER o.open RETURN o",
        );
        assert_eq!(kinds(&plan), ["For", "HashJoin"]);
        let PlanNode::HashJoin { build_key, probe_key, residual, .. } = &plan.nodes[1] else {
            unreachable!()
        };
        assert_eq!(build_key.to_string(), "o.customer_id");
        assert_eq!(probe_key.to_string(), "c.id");
        assert_eq!(residual.as_ref().unwrap().to_string(), "(o.total > 10) && o.open");

        let sql = crate::sql::parse_sql(
            "SELECT c.name, p.total FROM customers c JOIN purchases p ON p.customer_id = c.id \
             JOIN loyalty l ON l.customer_id = c.id WHERE p.total >= 75",
        )
        .unwrap();
        let plan = optimize(build_plan(&sql).unwrap(), &World::in_memory());
        assert_eq!(kinds(&plan), ["For", "HashJoin", "HashJoin"]);
        let slots: Vec<usize> = plan
            .nodes
            .iter()
            .filter_map(|n| match n {
                PlanNode::HashJoin { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, [0, 1], "each join of a plan has a build table of its own");
    }

    #[test]
    fn hash_join_does_not_fire_when_unsound_or_useless() {
        let nested_loop = |text: &str, why: &str| {
            let plan = optimized(text);
            let all = plan.explain();
            assert!(!all.contains("HashJoin"), "{why}: {all}");
        };
        nested_loop(
            "FOR c IN customers FOR o IN orders FOR l IN o.orderlines FILTER l.p == c.id RETURN l",
            "a source computed from the row differs from row to row",
        );
        nested_loop(
            "FOR c IN customers LET orders = c.history \
             LET t = (FOR o IN orders FILTER o.customer_id == c.id RETURN o) RETURN t",
            "a per-row LET shadows the store name",
        );
        nested_loop(
            "FOR c IN customers LET mine = c.history FOR o IN mine FILTER o.k == c.id RETURN o",
            "a LET bound after a FOR holds a value per row",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders FILTER o.customer_id < c.id RETURN o",
            "not an equality",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders FILTER o.customer_id != c.id RETURN o",
            "not an equality",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders \
             FILTER o.customer_id == c.id || o.open RETURN o",
            "a disjunction has no conjunct to hash on",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders FILTER o.customer_id == o.payer RETURN o",
            "both sides read the loop variable",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders FILTER o.customer_id == 7 RETURN o",
            "no side reads an earlier variable",
        );
        nested_loop(
            "LET k = 7 FOR o IN orders FILTER o.customer_id == k RETURN o",
            "a single row probes: one scan either way",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders FILTER o.customer_id == c.id + 1 RETURN o",
            "a key that can fail must stay behind the nested loop's short-circuit",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders \
             FILTER LENGTH(o.lines) > 0 && o.customer_id == c.id RETURN o",
            "a conjunct that can fail ahead of the equality guards it",
        );
        nested_loop(
            "FOR c IN customers FOR o IN orders FILTER o.customer_id == nobody.id RETURN o",
            "an unbound variable is the nested loop's error to report",
        );
    }

    #[test]
    fn a_shadowed_store_name_is_not_index_scanned() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        c.insert_json(r#"{"_key":"a","price":9}"#).unwrap();
        c.create_persistent_index("price").unwrap();
        let text = "LET products = [{price: 7}] FOR p IN products FILTER p.price > 5 RETURN p.price";
        let plan = optimize(build_plan(&parse_query(text).unwrap()).unwrap(), &w);
        assert_eq!(kinds(&plan), ["Let", "For", "Filter"]);
        assert_eq!(crate::run(&w, text).unwrap(), vec![Value::int(7)]);
    }

    #[test]
    fn the_benchmark_queries_without_an_equi_join_keep_their_plans() {
        // Q2, Q3 and Q5 of `benchmark/src/data.rs`: none joins a
        // row-invariant source on an equality, so each plan is its clause
        // list with adjacent filters merged (none are adjacent), as before.
        let q2 = "FOR c IN customers FILTER c.credit_limit > 3000 \
             FOR friend IN 1..1 OUTBOUND CONCAT(\"persons/\", c.id) knows \
             LET order = DOC(\"orders\", KV_GET(\"cart\", friend._key)) FILTER order != NULL \
             FOR line IN order.orderlines RETURN DISTINCT line.product_no";
        assert_eq!(kinds(&optimized(q2)), ["For", "Filter", "Traverse", "Let", "Filter", "For"]);
        let q3 = "FOR f IN FULLTEXT(\"feedback_text\", \"good\") FILTER f.rating >= 4 \
             LET p = DOC(\"products\", f.product_no) FILTER p.category == \"toys\" \
             RETURN DISTINCT p._key";
        assert_eq!(kinds(&optimized(q3)), ["For", "Filter", "Let", "Filter"]);
        let q5 = "FOR friend IN 1..2 ANY \"persons/17\" knows \
             LET order = DOC(\"orders\", KV_GET(\"cart\", friend._key)) FILTER order != NULL \
             FOR line IN order.orderlines RETURN DISTINCT line.product_no";
        assert_eq!(kinds(&optimized(q5)), ["Traverse", "Let", "Filter", "For"]);
        for text in [q2, q3, q5] {
            let parsed = build_plan(&parse_query(text).unwrap()).unwrap();
            assert_eq!(optimized(text), parsed, "nothing to fold, merge or rewrite in {text}");
        }
    }
}
