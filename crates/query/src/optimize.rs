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
//!    (`op` one of `==`, `<`, `<=`, `>`, `>=`) becomes an `IndexScan` when
//!    the source has a matching persistent (document) or secondary
//!    (relational) index; leftover conjuncts stay as the scan's residual
//!    predicate. This is the tutorial's "query optimization = pick the
//!    right index" story in miniature.
//! 5. **Hash join** — a `For` + `Filter` pair that rule 4 left alone
//!    becomes a `HashJoin` when the source is the same for every row, the
//!    node can see more than one row, and a conjunct equates a path of the
//!    loop variable with an expression over earlier variables (see
//!    `try_hash_join`). This covers the in-pipeline nested `FOR`, SQL
//!    `JOIN … ON a = b`, and — through rule 2's scope — the
//!    equi-correlated subquery. A pair left alone by both whose `For`
//!    scans a named collection or table keeps the `Filter` as the `For`'s
//!    residual, so a rejected item never becomes a row (see
//!    `filter_in_scan`).
//! 6. **Projection** — a node that binds a variable to a stored document
//!    or row (a collection's or table's `For`, `IndexScan` or `HashJoin`
//!    build, a `Traverse` vertex, `For … IN FULLTEXT(…)`, `LET … =
//!    DOC(…)`) decodes only what the read analysis finds read of it after
//!    the node, its own residual or build key included. A row keeps the
//!    columns whose names are read, each whole; kv entries are never
//!    projected.
//! 7. **Early duplicate elimination** — in a `RETURN DISTINCT` pipeline,
//!    a [`PlanNode::Dedup`] on the variables still read goes where the
//!    read analysis finds a variable bound by a row-multiplying node read
//!    no more (see `dedup_candidates`). Q2's customers fan in on their
//!    friends: each friend's cart and order is then fetched once, not
//!    once per customer who knows them.
//!
//! **The read analysis** (`Reads`) is what rules 5–7 know of reads. Like
//! a liveness analysis it walks a pipeline once, from `RETURN` back, and
//! gives what the rest of the pipeline, subqueries included, reads of
//! each name: nothing, some paths (none: `v == NULL`), or all of it.
//! Navigation reads the path it reaches; `FOR x IN v.path` and `LET x =
//! v.path` read of `v` what is read of `x` below `path`; a hash join's
//! source and any other use read the value whole. A later binding of a
//! name, here or in a subquery, reads the earlier binding whole.
//! `COLLECT … INTO` and a subquery not yet planned read everything.
//!
//! Every rewrite keeps the result vector — a plan straight from
//! `build_plan` and its optimized form return the same vector, or the
//! same first error — except that an `IndexScan` returns its rows in
//! index order. Rule 7 drops rows, never results: a dropped row binds
//! what the row kept before it binds, so it would have produced nothing
//! new, and nothing earlier.

use std::ops::RangeInclusive;

use mmdb_types::{Path, Projection, Value};

use crate::ast::{BinOp, Expr};
use crate::eval::like_match;
use crate::plan::{build_plan, Plan, PlanBound, PlanNode};
use crate::world::{Container, World};

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
        let (names, multiplies) = node.binds();
        // COLLECT starts its groups from an empty environment.
        if let PlanNode::Collect { .. } = node {
            self.bound.clear();
        }
        let once = !multiplies && !self.multiplied;
        self.bound.extend(names.map(|v| (v.to_string(), once)));
        self.multiplied |= multiplies;
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

    // 4 + 5. Index selection, then hash join, then the scan filter, on
    //    For+Filter pairs; and the nodes rule 6 projects.
    let mut at = scope;
    let mut out: Vec<PlanNode> = Vec::with_capacity(merged.len());
    let mut stored = Vec::new();
    let mut iter = merged.into_iter().peekable();
    while let Some(mut node) = iter.next() {
        if let PlanNode::For { var, source: Expr::Var(name), residual, .. } = &mut node {
            if let Some(PlanNode::Filter(pred)) = iter.peek() {
                let rewritten = try_index_scan(world, &at, var, name, pred)
                    .or_else(|| try_hash_join(&at, var, name, pred, slots));
                if let Some(join) = rewritten {
                    iter.next(); // consume the filter
                    node = join;
                } else if filter_in_scan(world, &at, name) {
                    if let Some(PlanNode::Filter(pred)) = iter.next() {
                        *residual = Some(pred);
                    }
                }
            }
        }
        if let Some(kind) = binds_stored(&node, world, &at) {
            stored.push((out.len(), kind));
        }
        at.enter(&node);
        out.push(node);
    }

    // 6 + 7. Projection and early duplicate elimination, from one read
    //    analysis of the rewritten pipeline.
    let candidates = if plan.distinct { dedup_candidates(&out, &plan.ret) } else { Vec::new() };
    if !stored.is_empty() || !candidates.is_empty() {
        let (mut bound, live) = analyse(&out, &plan.ret, !candidates.is_empty());
        let projections: Vec<(usize, Projection)> = stored
            .into_iter()
            .map(|(i, kind)| {
                let p = projection(bound[i].take());
                (i, if kind == Stored::Row { p.top_level() } else { p })
            })
            .collect();
        let cuts = dedup_cuts(&out, candidates, &live);
        for (i, p) in projections {
            if let Some(project) = out[i].projection_mut() {
                *project = p;
            }
        }
        // Each cut goes in before the node it names, the last ones first.
        for (c, vars) in cuts.into_iter().rev() {
            out.insert(c, PlanNode::Dedup(vars));
        }
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
    let indexed_paths = match world.catalog.get(source)? {
        Container::Collection(c) => c.indexed_paths(),
        Container::Table(t) => t.indexed_paths(),
        _ => return None,
    };
    if indexed_paths.is_empty() {
        return None;
    }
    let mut conjuncts = Vec::new();
    split_conjuncts(pred, &mut conjuncts);
    let (idx, (path, lo, hi)) = conjuncts.iter().enumerate().find_map(|(i, c)| {
        path_range(c, var).filter(|(path, ..)| indexed_paths.contains(path)).map(|range| (i, range))
    })?;
    Some(PlanNode::IndexScan {
        var: var.to_string(),
        source: source.to_string(),
        path,
        lo,
        hi,
        residual: conjoin_except(&conjuncts, idx),
        project: Projection::ALL,
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
///   ([`infallible`]) and read only bound names: the join evaluates keys
///   for rows the nested loop's short-circuit `&&` might never have
///   reached, and the conjuncts ahead only for matching pairs, so neither
///   may be able to raise an error.
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
    let mut chosen = None;
    for (i, c) in conjuncts.iter().enumerate() {
        if let Expr::Binary(BinOp::Eq, l, r) = c {
            let keys = [(l, r), (r, l)].into_iter().find(|(build, probe)| {
                path_of(build, var).is_some()
                    && safe_reads(probe).is_some_and(|names| {
                        !names.is_empty() && names.iter().all(|(n, _)| *n != var && scope.is_bound(n))
                    })
            });
            if let Some((build, probe)) = keys {
                chosen = Some((i, (**build).clone(), (**probe).clone()));
                break;
            }
        }
        if !safe_reads(c).is_some_and(|names| names.iter().all(|(n, _)| *n == var || scope.is_bound(n))) {
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
        project: Projection::ALL,
    })
}

/// The scan filter, after rules 4 and 5: `For var IN name` + `Filter
/// pred` becomes a `For` with `pred` as its residual when `name` is a
/// collection or table no binding shadows, so a rejected item is never
/// bound. The rows, their order and the first error stay the filter's:
/// the residual sees each item in the scope the filter saw its row in,
/// and meets the items in the order the filter met the rows (each
/// incoming row's items in scan order, row after row). Only the scan for
/// a later incoming row now runs after the predicate has run on earlier
/// rows' items; it reads the same store for every incoming row, so had
/// it failed for a later row it would have failed for the first, before
/// any predicate ran.
fn filter_in_scan(world: &World, scope: &Scope, name: &str) -> bool {
    store(world, scope, name).is_some()
}

/// The names `e` reads, when evaluating it cannot fail.
fn safe_reads(e: &Expr) -> Option<Vec<(&str, Read<'_>)>> {
    infallible(e).then(|| Reads::of(e).names)
}

/// Can evaluating `e` never return an error, whatever its variables hold?
/// Navigation, comparisons and boolean operators cannot fail; arithmetic,
/// negation, calls, computed indexes and subqueries can.
fn infallible(e: &Expr) -> bool {
    let this = match e {
        Expr::Index(_, idx) => is_constant_index(idx),
        Expr::Binary(op, ..) => {
            !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
        }
        Expr::Neg(_) | Expr::Call(..) | Expr::Subquery(_) | Expr::SubPlan(_) => false,
        _ => true,
    };
    this && e.children().all(infallible)
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

/// Match `var.path op literal` (or reversed), where `op` is `==`, `<`,
/// `<=`, `>` or `>=` and path is a chain of field/constant-index accesses
/// rooted at `var`: the path, and the bounds it puts on its value.
fn path_range(e: &Expr, var: &str) -> Option<(String, PlanBound, PlanBound)> {
    let Expr::Binary(op, l, r) = e else { return None };
    let (path_side, value, reversed) = match (&**l, &**r) {
        (_, Expr::Literal(v)) => (l, v, false),
        (Expr::Literal(v), _) => (r, v, true),
        _ => return None,
    };
    let path = path_of(path_side, var)?;
    let v = || value.clone();
    let (lo, hi) = match (op, reversed) {
        (BinOp::Eq, _) => (PlanBound::Included(v()), PlanBound::Included(v())),
        (BinOp::Lt, false) | (BinOp::Gt, true) => (PlanBound::Unbounded, PlanBound::Excluded(v())),
        (BinOp::Le, false) | (BinOp::Ge, true) => (PlanBound::Unbounded, PlanBound::Included(v())),
        (BinOp::Gt, false) | (BinOp::Lt, true) => (PlanBound::Excluded(v()), PlanBound::Unbounded),
        (BinOp::Ge, false) | (BinOp::Le, true) => (PlanBound::Included(v()), PlanBound::Unbounded),
        _ => return None,
    };
    Some((path, lo, hi))
}

/// `e` as a point path of `var`: fields and constant indexes.
fn path_of(e: &Expr, var: &str) -> Option<String> {
    (nav_root(e)? == var).then(|| nav_path(e)).filter(Path::is_point).map(|p| p.to_string())
}

/// The variable `e` navigates from, when `e` is a navigation path: a
/// variable, then fields, `[*]` and constant indexes.
fn nav_root(e: &Expr) -> Option<&str> {
    match e {
        Expr::Var(v) => Some(v),
        Expr::Field(base, _) | Expr::Spread(base) => nav_root(base),
        Expr::Index(base, idx) if is_constant_index(idx) => nav_root(base),
        _ => None,
    }
}

/// An integer or a string (a field name) literal.
fn is_constant_index(idx: &Expr) -> bool {
    matches!(idx, Expr::Literal(Value::Number(n)) if n.as_i64().is_some()) || matches!(idx, Expr::Literal(Value::String(_)))
}

/// The path a navigation path ([`nav_root`]) reaches from its variable
/// (a string index is a field).
fn nav_path(e: &Expr) -> Path {
    match e {
        Expr::Field(base, name) => nav_path(base).field(name.clone()),
        Expr::Spread(base) => nav_path(base).wildcard(),
        Expr::Index(base, idx) => match &**idx {
            Expr::Literal(Value::Number(n)) => nav_path(base).index(n.as_i64().unwrap_or_default()),
            Expr::Literal(Value::String(name)) => nav_path(base).field(name.as_str()),
            _ => nav_path(base),
        },
        _ => Path::root(),
    }
}

/// What rule 6 projects: a stored document, or a table's row, which is
/// decoded column by column and so keeps whole top-level fields.
#[derive(Clone, Copy, PartialEq)]
enum Stored {
    Document,
    Row,
}

/// What a scan of `name` reads, when it names a collection or a table no
/// binding shadows. A kv bucket's entries are read whole.
fn store(world: &World, scope: &Scope, name: &str) -> Option<Stored> {
    if scope.is_bound(name) {
        return None;
    }
    match world.catalog.get(name)? {
        Container::Collection(_) => Some(Stored::Document),
        Container::Table(_) => Some(Stored::Row),
        _ => None,
    }
}

/// Rule 6's bindings: what `node` binds its variable to, when that is a
/// stored document or row.
fn binds_stored(node: &PlanNode, world: &World, scope: &Scope) -> Option<Stored> {
    match node {
        PlanNode::For { source: Expr::Var(name), .. } => store(world, scope, name),
        PlanNode::IndexScan { source, .. } | PlanNode::HashJoin { source, .. } => store(world, scope, source),
        PlanNode::For { source: Expr::Call(f, _), .. } if f == "FULLTEXT" => Some(Stored::Document),
        PlanNode::Let { value: Expr::Call(f, _), .. } if f == "DOC" => Some(Stored::Document),
        PlanNode::Traverse { .. } => Some(Stored::Document),
        _ => None,
    }
}

/// The read analysis of one pipeline: per node, what is read of the name
/// it binds; with `live`, per position `c`, what `nodes[c..]` and
/// `RETURN` read.
fn analyse<'p>(nodes: &'p [PlanNode], ret: &'p Expr, live: bool) -> (Vec<Option<Read<'p>>>, Vec<Live<'p>>) {
    let mut at = Reads::of(ret);
    let (mut bound, mut names) = (Vec::with_capacity(nodes.len()), Vec::new());
    for node in nodes.iter().rev() {
        names.extend(live.then(|| at.live()));
        bound.push(at.node(node));
    }
    names.extend(live.then(|| at.live()));
    bound.reverse();
    names.reverse();
    (bound, names)
}

/// The names read from a position on, each with "only because a later
/// binding shadows it"; `None` when every binding is read.
type Live<'p> = Option<Vec<(&'p str, bool)>>;

/// What part of a plan reads of each name.
#[derive(Default)]
struct Reads<'p> {
    names: Vec<(&'p str, Read<'p>)>,
    /// Is every binding read whole?
    all: bool,
}

/// What is read of one name.
enum Read<'p> {
    /// These paths of it, possibly none.
    Paths(Vec<PathRead<'p>>),
    /// All of it.
    Whole,
    /// All of it, only because a later binding of the name shadows it.
    Shadowed,
}

/// One path read of a name: the path a navigation of it reaches, then
/// `[*]` when set, then (through `FOR x IN v.path` or `LET x = v.path`)
/// the path read of `x`.
#[derive(Clone)]
struct PathRead<'p>(&'p Expr, bool, Option<Box<PathRead<'p>>>);

impl PathRead<'_> {
    fn path(&self) -> Path {
        let path = if self.1 { nav_path(self.0).wildcard() } else { nav_path(self.0) };
        match &self.2 {
            Some(below) => Path::from_steps(path.steps().iter().chain(below.path().steps()).cloned().collect()),
            None => path,
        }
    }
}

impl<'p> Reads<'p> {
    /// What evaluating `e` reads.
    fn of(e: &'p Expr) -> Reads<'p> {
        let mut reads = Reads::default();
        reads.expr(e);
        reads
    }

    /// [`Live`] here.
    fn live(&self) -> Live<'p> {
        (!self.all).then(|| self.names.iter().map(|(n, read)| (*n, matches!(read, Read::Shadowed))).collect())
    }

    /// Record that `paths` of `name` are read (none: whether it is
    /// `NULL`, or how many items it holds).
    fn add(&mut self, name: &'p str, paths: impl IntoIterator<Item = PathRead<'p>>) {
        match self.names.iter_mut().find(|(n, _)| *n == name) {
            Some((_, Read::Paths(read))) => read.extend(paths),
            // Read here, not only shadowed later.
            Some((_, read)) => *read = Read::Whole,
            None => self.names.push((name, Read::Paths(paths.into_iter().collect()))),
        }
    }

    /// Record `name` as read whole or shadowed; returns the old record.
    fn set(&mut self, name: &'p str, read: Read<'p>) -> Option<Read<'p>> {
        let old = self.names.iter().position(|(n, _)| *n == name).map(|i| self.names.swap_remove(i).1);
        self.names.push((name, read));
        old
    }

    /// Add what evaluating `e` reads.
    fn expr(&mut self, e: &'p Expr) {
        if let Some(name) = nav_root(e) {
            return self.add(name, [PathRead(e, false, None)]);
        }
        match e {
            Expr::SubPlan(p) => {
                let mut sub = Reads::of(&p.ret);
                for node in p.nodes.iter().rev() {
                    sub.node(node);
                }
                self.all |= sub.all;
                for (name, read) in sub.names {
                    match read {
                        Read::Paths(paths) => self.add(name, paths),
                        // What the subquery shadows may still be read
                        // after it.
                        Read::Shadowed if self.names.iter().all(|(n, _)| *n != name) => {
                            self.names.push((name, Read::Shadowed));
                        }
                        _ => {
                            self.set(name, Read::Whole);
                        }
                    }
                }
            }
            Expr::Subquery(_) => self.all = true,
            Expr::Binary(BinOp::Eq | BinOp::Ne, l, r) => match (&**l, &**r) {
                // Whether a value is `NULL` reads none of its fields.
                (Expr::Var(v), Expr::Literal(Value::Null)) | (Expr::Literal(Value::Null), Expr::Var(v)) => {
                    self.add(v, [])
                }
                _ => e.children().for_each(|c| self.expr(c)),
            },
            _ => e.children().for_each(|c| self.expr(c)),
        }
    }

    /// Move back over `node`: from what the nodes after it read to what
    /// it and they read. Returns what the nodes after it, and its own
    /// residual or build key, read of the name it binds.
    fn node(&mut self, node: &'p PlanNode) -> Option<Read<'p>> {
        // A scan's residual and a hash join's build key and residual read
        // the item the node binds; the rest run before.
        match node {
            PlanNode::For { residual, .. } | PlanNode::IndexScan { residual, .. } => {
                residual.iter().for_each(|e| self.expr(e))
            }
            PlanNode::HashJoin { build_key, residual, .. } => {
                std::iter::once(build_key).chain(residual).for_each(|e| self.expr(e))
            }
            _ => {}
        }
        // A binding reads the one it shadows whole; a hash join builds
        // from every item of its source; INTO copies every binding.
        let mut bound = None;
        for name in node.binds().0 {
            bound = self.set(name, Read::Shadowed);
        }
        if self.all {
            bound = Some(Read::Whole);
        }
        match node {
            PlanNode::HashJoin { source, .. } => {
                self.set(source, Read::Whole);
            }
            PlanNode::Collect { into: Some(_), .. } => self.all = true,
            _ => {}
        }
        // `FOR x IN v.path` and `LET x = v.path` read of `v` what is read
        // of `x`, below `path[*]` and `path`. When that is no field at
        // all, `path` is still read: how many rows the `FOR` makes, or
        // whether `x` is `NULL`, depends on its value.
        let alias = match node {
            PlanNode::For { var, source, .. } => Some((var, source, true)),
            PlanNode::Let { var, value, .. } => Some((var, value, false)),
            _ => None,
        };
        match alias.and_then(|(x, e, each)| Some((nav_root(e).filter(|v| v != x)?, e, each))) {
            Some((v, prefix, each)) => {
                let paths = match &bound {
                    Some(Read::Paths(below)) if !below.is_empty() => {
                        below.iter().map(|p| PathRead(prefix, each, Some(Box::new(p.clone())))).collect()
                    }
                    _ => vec![PathRead(prefix, each, None)],
                };
                self.add(v, paths);
            }
            None => match node {
                PlanNode::IndexScan { .. } => {}
                PlanNode::For { source, .. } => self.expr(source),
                PlanNode::HashJoin { probe_key, .. } => self.expr(probe_key),
                _ => node.exprs().for_each(|e| self.expr(e)),
            },
        }
        bound
    }
}

/// What to decode of a document of which `read` is read.
fn projection(read: Option<Read>) -> Projection {
    match read {
        None => Projection::of([]),
        Some(Read::Paths(paths)) => Projection::of(paths.iter().map(PathRead::path)),
        Some(Read::Whole | Read::Shadowed) => Projection::ALL,
    }
}

/// Rule 7's candidates: each variable `v` a row-multiplying node binds,
/// with the places `c` a `Dedup` for it may go before (`RETURN` at
/// `nodes.len()`): after a later row-multiplying node has run under `v`'s
/// rows, with no `Limit` or `Collect` (both count rows) from `c` on, and
/// per-row work left (a node, or a `RETURN` that calls or subqueries).
fn dedup_candidates<'n>(nodes: &'n [PlanNode], ret: &Expr) -> Vec<(&'n str, RangeInclusive<usize>)> {
    // Cuts must follow every Limit and Collect, and precede per-row work.
    let first = nodes
        .iter()
        .rposition(|n| matches!(n, PlanNode::Limit { .. } | PlanNode::Collect { .. }))
        .map_or(0, |k| k + 1);
    let last = if calls_or_subqueries(ret) { nodes.len() } else { nodes.len().saturating_sub(1) };
    // A Collect starts its groups over: only variables bound after the
    // last one can repeat at a cut.
    let start = nodes.iter().rposition(|n| matches!(n, PlanNode::Collect { .. })).map_or(0, |k| k + 1);
    let mut candidates = Vec::new();
    for (b, node) in nodes.iter().enumerate().skip(start) {
        let (mut names, true) = node.binds() else { continue };
        let Some(v) = names.next() else { continue };
        let Some(j) = nodes[b + 1..].iter().position(|n| n.binds().1) else { continue };
        let from = first.max(b + j + 2);
        if from <= last {
            candidates.push((v, from..=last));
        }
    }
    candidates
}

/// Rule 7. Each candidate gets a `Dedup` at the first of its places where
/// `live` has it read no more, keyed on the bindings still read there —
/// unless the node before only shadows it: its binding died earlier than
/// the analysis can tell, so it gets none rather than a late one.
fn dedup_cuts(nodes: &[PlanNode], candidates: Vec<(&str, RangeInclusive<usize>)>, live: &[Live]) -> Vec<(usize, Vec<String>)> {
    let read = |c: usize, v: &str| live[c].as_ref().is_none_or(|names| names.iter().any(|(n, _)| *n == v));
    let shadowed = |c: usize, v: &str| live[c].as_ref().is_some_and(|names| names.contains(&(v, true)));
    let mut cuts: Vec<usize> = Vec::new();
    for (v, places) in candidates {
        let from = *places.start();
        let cut = places.into_iter().find(|&c| !read(c, v)).filter(|&c| c == from || !shadowed(c - 1, v));
        cuts.extend(cut.filter(|c| !cuts.contains(c)));
    }
    cuts.sort_unstable();
    cuts.into_iter().map(|c| (c, live_bindings(&nodes[..c], |v| read(c, v)))).collect()
}

/// The bindings a row leaving `nodes` holds that are `live` and can
/// differ from row to row, in the order they were made. A `Let` ahead of
/// every row-multiplying node and `Collect` holds one value for all rows,
/// like an enclosing binding.
fn live_bindings(nodes: &[PlanNode], live: impl Fn(&str) -> bool) -> Vec<String> {
    let mut at = Scope::default();
    nodes.iter().for_each(|n| at.enter(n));
    let mut vars: Vec<String> = Vec::new();
    for (v, once) in at.bound {
        if !once && live(&v) && !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars
}

/// Does evaluating `e` call a function or run a subquery?
fn calls_or_subqueries(e: &Expr) -> bool {
    matches!(e, Expr::Call(..) | Expr::SubPlan(_) | Expr::Subquery(_)) || e.children().any(calls_or_subqueries)
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
                #[expect(clippy::unreachable, reason = "folding is only attempted for the arithmetic BinOps matched above")]
                _ => unreachable!(),
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
        let c = w.catalog.create_collection("products").unwrap();
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
    fn an_unusable_conjunct_on_an_indexed_path_does_not_hide_a_range() {
        // `!=` and `LIKE` bound no range, whichever side the literal is
        // on: the range conjunct after them is the one scanned, and they
        // stay in the residual.
        let w = World::in_memory();
        let c = w.catalog.create_collection("products").unwrap();
        for i in 0..10 {
            c.insert_json(&format!(r#"{{"_key":"p{i}","price":{i},"tag":"t{}"}}"#, i % 3)).unwrap();
        }
        c.create_persistent_index("price").unwrap();
        c.create_persistent_index("tag").unwrap();
        for text in [
            "FOR p IN products FILTER p.price != 7 && p.price > 5 RETURN p._key",
            "FOR p IN products FILTER 7 != p.price && p.price > 5 RETURN p._key",
            "FOR p IN products FILTER p.tag LIKE \"t0%\" && p.price > 5 RETURN p._key",
        ] {
            let parsed = build_plan(&parse_query(text).unwrap()).unwrap();
            let plan = optimize(parsed.clone(), &w);
            assert_eq!(kinds(&plan), ["IndexScan"], "{text}");
            let PlanNode::IndexScan { path, lo, hi, residual, .. } = &plan.nodes[0] else { unreachable!() };
            assert_eq!((path.as_str(), lo, hi), ("price", &PlanBound::Excluded(Value::int(5)), &PlanBound::Unbounded));
            assert!(residual.is_some(), "{text}");
            let want = crate::exec::execute_plan(&w, &parsed).unwrap();
            assert_eq!(crate::exec::execute_plan(&w, &plan).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn no_index_no_rewrite() {
        // Without an index the scan stays a `For`, which takes the filter
        // as its residual.
        let w = World::in_memory();
        w.catalog.create_collection("products").unwrap();
        let q = parse_query("FOR p IN products FILTER p.price > 5 RETURN p").unwrap();
        let plan = optimize(build_plan(&q).unwrap(), &w);
        assert_eq!(plan.nodes.len(), 1);
        assert!(matches!(&plan.nodes[0], PlanNode::For { residual: Some(_), .. }));
        assert_eq!(plan.explain(), "For p IN products residual=true\nReturn");
    }

    #[test]
    fn reversed_literal_comparisons_flip() {
        let w = World::in_memory();
        let c = w.catalog.create_collection("products").unwrap();
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
        optimized_in(&World::in_memory(), text)
    }

    fn optimized_in(w: &World, text: &str) -> Plan {
        optimize(build_plan(&parse_query(text).unwrap()).unwrap(), w)
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
                PlanNode::Dedup(_) => "Dedup",
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
        let c = w.catalog.create_collection("products").unwrap();
        c.insert_json(r#"{"_key":"a","price":9}"#).unwrap();
        c.create_persistent_index("price").unwrap();
        let text = "LET products = [{price: 7}] FOR p IN products FILTER p.price > 5 RETURN p.price";
        let plan = optimize(build_plan(&parse_query(text).unwrap()).unwrap(), &w);
        assert_eq!(kinds(&plan), ["Let", "For", "Filter"]);
        assert_eq!(crate::run(&w, text).unwrap(), vec![Value::int(7)]);
    }

    /// A world with the benchmark's stores: a `customers` table, an
    /// `orders` collection and a `cart` bucket.
    fn shop() -> World {
        use mmdb_relational::{ColumnDef, DataType, Schema};
        let w = World::in_memory();
        let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("name", DataType::Text)];
        w.catalog.create_table("customers", Schema::new(columns, "id").unwrap()).unwrap();
        w.catalog.create_collection("orders").unwrap();
        w.catalog.create_bucket("cart").unwrap();
        w
    }

    /// Each node's projection, `-` where it decodes everything.
    fn projections(plan: &Plan) -> Vec<String> {
        plan.nodes
            .iter()
            .map(|n| match n.projection() {
                Some(p) if !p.is_all() => p.to_string(),
                _ => "-".to_string(),
            })
            .collect()
    }

    #[test]
    fn the_benchmark_queries_without_an_equi_join_filter_their_scans_and_project_their_reads() {
        // Q2, Q3 and Q5 of `benchmark/src/data.rs`: none joins a
        // row-invariant source on an equality, so each plan is its clause
        // list with adjacent filters merged (none are adjacent), and Q2's
        // filter on the `customers` scan moved into it as its residual.
        // Rule 6 gives every document read the paths the rest of the plan
        // reads, and the `customers` rows the columns it reads. Rule 7
        // drops Q2's repeated friends once `c` is read no more; Q3 has one
        // row-multiplying node and Q5's comes first, so neither gains one.
        let w = shop();
        let q2 = "FOR c IN customers FILTER c.credit_limit > 3000 \
             FOR friend IN 1..1 OUTBOUND CONCAT(\"persons/\", c.id) knows \
             LET order = DOC(\"orders\", KV_GET(\"cart\", friend._key)) FILTER order != NULL \
             FOR line IN order.orderlines RETURN DISTINCT line.product_no";
        let plan = optimized_in(&w, q2);
        assert_eq!(kinds(&plan), ["For", "Traverse", "Dedup", "Let", "Filter", "For"]);
        assert_eq!(plan.nodes[0].describe(), "For c IN customers residual=true project(credit_limit, id)");
        assert_eq!(plan.nodes[2].describe(), "Dedup ON (friend)");
        assert_eq!(projections(&plan), ["credit_limit, id", "_key", "-", "orderlines[*].product_no", "-", "-"]);
        let q3 = "FOR f IN FULLTEXT(\"feedback_text\", \"good\") FILTER f.rating >= 4 \
             LET p = DOC(\"products\", f.product_no) FILTER p.category == \"toys\" \
             RETURN DISTINCT p._key";
        let plan = optimized_in(&w, q3);
        assert_eq!(kinds(&plan), ["For", "Filter", "Let", "Filter"]);
        assert_eq!(projections(&plan), ["product_no, rating", "-", "_key, category", "-"]);
        let q5 = "FOR friend IN 1..2 ANY \"persons/17\" knows \
             LET order = DOC(\"orders\", KV_GET(\"cart\", friend._key)) FILTER order != NULL \
             FOR line IN order.orderlines RETURN DISTINCT line.product_no";
        let plan = optimized_in(&w, q5);
        assert_eq!(kinds(&plan), ["Traverse", "Let", "Filter", "For"]);
        assert_eq!(projections(&plan), ["_key", "orderlines[*].product_no", "-", "-"]);
        for text in [q2, q3, q5] {
            let parsed = build_plan(&parse_query(text).unwrap()).unwrap();
            let mut plan = optimized_in(&w, text);
            plan.nodes.retain(|n| !matches!(n, PlanNode::Dedup(_)));
            plan.nodes.iter_mut().filter_map(PlanNode::projection_mut).for_each(|p| *p = Projection::ALL);
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
            assert_eq!(plan, parsed, "nothing but the scan filter to fold, merge or rewrite in {text}");
        }
    }

    /// The plan's `EXPLAIN` lines, `Dedup ON (…)` included.
    fn explained(text: &str) -> Vec<String> {
        optimized_in(&shop(), text).explain().lines().map(str::to_string).collect()
    }

    #[test]
    fn a_dedup_goes_where_a_multiplied_variable_is_read_no_more() {
        // `c` is last read by the traversal, which multiplies its rows.
        assert_eq!(
            explained(
                "FOR c IN customers FOR f IN 1..1 OUTBOUND CONCAT(\"p/\", c.id) knows \
                 LET o = DOC(\"orders\", f.order) RETURN DISTINCT o.total"
            ),
            [
                "For c IN customers project(id)",
                "Traverse f 1..1 Outbound knows project(order)",
                "Dedup ON (f)",
                "Let o project(total)",
                "Return DISTINCT"
            ]
        );
        // Later than the second FOR when `c` is read after it; the key is
        // every binding still read, in binding order.
        assert_eq!(
            explained(
                "FOR c IN customers FOR x IN [1, 2] LET y = x * c.id FILTER y > 2 \
                 FOR z IN [x, y] RETURN DISTINCT [x, z]"
            ),
            [
                "For c IN customers project(id)",
                "For x IN [1, 2]",
                "Let y",
                "Dedup ON (x, y)",
                "Filter",
                "For z IN [x, y]",
                "Return DISTINCT"
            ]
        );
        // One per variable that dies, each at its own place.
        let plan = explained(
            "FOR a IN [1, 2] FOR b IN [a, 3] FOR c IN [b, 4] FILTER c > 1 \
             FOR d IN [c] RETURN DISTINCT TO_STRING(d)",
        );
        assert_eq!(
            plan,
            [
                "For a IN [1, 2]",
                "For b IN [a, 3]",
                "Dedup ON (b)",
                "For c IN [b, 4]",
                "Dedup ON (c)",
                "Filter",
                "For d IN [c]",
                "Dedup ON (d)",
                "Return DISTINCT"
            ]
        );
        // After a LIMIT, which counted the rows before it.
        assert_eq!(
            explained(
                "FOR c IN customers FOR f IN 1..1 OUTBOUND CONCAT(\"p/\", c.id) knows \
                 SORT f.n LIMIT 3 RETURN DISTINCT UPPER(f.name)"
            )[2..],
            ["Sort (1 keys)", "Limit 0,3", "Dedup ON (f)", "Return DISTINCT"]
        );
        // A LET ahead of every FOR has one value for all rows: not a key.
        assert_eq!(
            explained(
                "LET all = (FOR o IN orders RETURN o.total) FOR c IN customers \
                 FOR t IN all FILTER t > c.id LET x = [t, all] RETURN DISTINCT x"
            )[5..7],
            ["Filter", "Dedup ON (t)"]
        );
        // A `RETURN DISTINCT` subquery gets its own; an outer binding is
        // the same for all its rows and stays out of the key.
        let plan = optimized_in(
            &shop(),
            "FOR o IN orders LET ps = (FOR c IN customers FOR l IN o.lines \
               FILTER l.n > c.id RETURN DISTINCT UPPER(l.p)) RETURN ps",
        );
        assert_eq!(kinds(let_body(&plan)), ["For", "For", "Filter", "Dedup"]);
        assert_eq!(let_body(&plan).nodes[3].describe(), "Dedup ON (l)");
        // SQL `SELECT DISTINCT` compiles onto the same plan.
        let sql = crate::sql::parse_sql(
            "SELECT DISTINCT UPPER(o.status) FROM customers c JOIN orders o ON o.customer_id = c.id",
        )
        .unwrap();
        let plan = optimize(build_plan(&sql).unwrap(), &shop());
        assert_eq!(kinds(&plan), ["For", "HashJoin", "Dedup"]);
    }

    #[test]
    fn no_dedup_where_rows_are_told_apart_or_counted_or_nothing_repeats() {
        let none = |text: &str, why: &str| {
            let plan = optimized_in(&shop(), text);
            assert!(!plan.explain().contains("Dedup"), "{why}: {}", plan.explain());
        };
        let q = |tail: &str| {
            format!(
                "FOR c IN customers FOR f IN 1..1 OUTBOUND CONCAT(\"p/\", c.id) knows \
                 LET o = DOC(\"orders\", f.order) {tail}"
            )
        };
        none(&q("RETURN o.total"), "without DISTINCT every row is a result");
        none(&q("RETURN DISTINCT [c.id, o.total]"), "RETURN reads c");
        none(&q("FILTER o.customer_id != c.id RETURN DISTINCT o.total"), "a later node reads c");
        none(
            &q("LET n = (FOR x IN [1] RETURN c.name) RETURN DISTINCT [n, o.total]"),
            "a subquery reads c",
        );
        none(
            &q("LET g = (FOR x IN [1] COLLECT k = x INTO members RETURN members) RETURN DISTINCT [g, o]"),
            "COLLECT INTO in a subquery copies every binding, c too",
        );
        none(&q("LIMIT 3 RETURN DISTINCT o.total"), "LIMIT counts rows");
        none(&q("COLLECT t = o.total AGGREGATE n = COUNT() RETURN DISTINCT [t, n]"), "COUNT counts rows");
        none(
            "FOR c IN customers FOR f IN 1..1 OUTBOUND CONCAT(\"p/\", c.id) knows RETURN DISTINCT f.name",
            "no per-row work is left: RETURN DISTINCT does the same",
        );
        none(
            "FOR f IN 1..2 ANY \"p/1\" knows LET o = DOC(\"orders\", f.order) \
             FILTER o != NULL FOR l IN o.lines RETURN DISTINCT l.p",
            "the traversal comes first: no row-multiplying node ran under anything it drops",
        );
        none(
            "FOR c IN customers LET o = DOC(\"orders\", c.order) FILTER o != NULL RETURN DISTINCT o.total",
            "one row-multiplying node: its rows are one per item",
        );
        none(
            "FOR c IN customers FOR x IN [1, 2] COLLECT k = x FILTER k > 0 RETURN DISTINCT UPPER(k)",
            "a COLLECT starts the rows over: its groups are already distinct",
        );
    }

    #[test]
    fn the_q4_build_decodes_two_fields_and_explain_says_so() {
        let plan = optimized_in(&shop(), Q4_NAIVE);
        assert_eq!(
            plan.explain(),
            "For c IN customers project(id, name)\nLet total\n\
             └ HashJoin o IN orders ON o.customer_id == c.id project(customer_id, total)\n└ Return\nReturn"
        );
    }

    /// The projection rule 6 gives `FOR o IN orders` in `text`.
    fn orders_projection(text: &str) -> String {
        let plan = optimized_in(&shop(), text);
        let p = plan.nodes[0].projection().expect("a FOR binds o");
        if p.is_all() { "*".to_string() } else { format!("({p})") }
    }

    #[test]
    fn navigation_is_projected_and_any_other_use_is_whole() {
        let cases = [
            ("FOR o IN orders RETURN o.total", "(total)"),
            ("FOR o IN orders RETURN o.lines[1].price", "(lines[*].price)"),
            ("FOR o IN orders RETURN o[\"total\"]", "(total)"),
            ("FOR o IN orders RETURN o.lines[*].p", "(lines[*].p)"),
            ("FOR o IN orders RETURN LENGTH(o.lines)", "(lines)"),
            ("FOR o IN orders FILTER o != NULL RETURN 1", "()"),
            ("FOR o IN orders FILTER NULL == o RETURN o._key", "(_key)"),
            ("FOR o IN orders FOR l IN o.lines RETURN l.p", "(lines[*].p)"),
            ("FOR o IN orders LET ls = o.lines RETURN ls[0].p", "(lines[*].p)"),
            ("FOR o IN orders LET ls = o.lines RETURN ls", "(lines)"),
            ("FOR o IN orders LET n = (FOR l IN o.lines RETURN l.q) RETURN [o.a, n]", "(a, lines[*].q)"),
            ("FOR o IN orders SORT o.a RETURN o.b", "(a, b)"),
            ("FOR o IN orders COLLECT k = o.a AGGREGATE t = SUM(o.t) RETURN [k, t]", "(a, t)"),
            ("FOR o IN orders LET i = 1 RETURN o.lines[i].p", "(lines)"),
            // Whole: the value itself is used, not navigated.
            ("FOR o IN orders RETURN o", "*"),
            ("FOR o IN orders RETURN MERGE(o, {})", "*"),
            ("FOR o IN orders RETURN LENGTH(o)", "*"),
            ("FOR o IN orders FILTER o RETURN 1", "*"),
            ("FOR o IN orders SORT o RETURN 1", "*"),
            ("FOR o IN orders FILTER o == {a: 1} RETURN 1", "*"),
            ("FOR o IN orders FILTER o != 7 RETURN 1", "*"),
            ("FOR o IN orders COLLECT k = o.a INTO g RETURN k", "*"),
            ("FOR o IN orders LET x = (FOR o IN orders RETURN 1) RETURN o.a", "*"),
            ("FOR o IN orders LET o = o.a RETURN o", "*"),
            ("FOR o IN orders LET ls = o.lines RETURN ls[*]", "(lines)"),
            // An alias read for no field still reads its path's value.
            ("FOR o IN orders FOR l IN o.lines RETURN o.a", "(a, lines)"),
            ("FOR o IN orders LET ls = o.lines FILTER ls != NULL RETURN 1", "(lines)"),
            // A hash join over an alias builds from all of it.
            (
                "LET o = DOC(\"orders\", \"k\") LET ls = o.lines FOR c IN customers \
                 FOR l IN ls FILTER l.p == c.id RETURN [c.id, ls[0].price]",
                "(lines)",
            ),
        ];
        for (text, want) in cases {
            assert_eq!(orders_projection(text), want, "{text}");
        }
    }

    #[test]
    fn document_and_row_reads_are_projected_and_kv_entries_are_not() {
        let w = shop();
        let none = |text: &str| {
            let plan = optimized_in(&w, text);
            assert!(!plan.explain().contains("project("), "{text}: {}", plan.explain());
        };
        none("FOR e IN cart RETURN e.value");
        none("LET orders = [{a: 1}] FOR o IN orders RETURN o.a");
        none("LET v = KV_GET(\"cart\", \"1\") RETURN v.a");
        none("FOR x IN [{a: 1}] RETURN x.a");
        // A row keeps the columns read, each whole; a whole-row use keeps
        // every column.
        let row = |text: &str| optimized_in(&w, text).nodes[0].describe();
        assert_eq!(row("FOR c IN customers RETURN c.name"), "For c IN customers project(name)");
        assert_eq!(row("FOR c IN customers RETURN c.name.first[0]"), "For c IN customers project(name)");
        assert_eq!(row("FOR c IN customers FILTER c != NULL RETURN 1"), "For c IN customers residual=true project()");
        for whole in ["RETURN c", "RETURN LENGTH(c)", "RETURN MERGE(c, {})"] {
            assert_eq!(row(&format!("FOR c IN customers {whole}")), "For c IN customers", "{whole}");
        }
        // A traversal's vertex and DOC's document are, whatever they read;
        // `_id` and `_depth` are fields like any other.
        let plan = optimized_in(&w, "FOR v IN 1..2 OUTBOUND \"p/1\" knows RETURN [v._id, v.name]");
        assert_eq!(projections(&plan), ["_id, name"]);
        let plan = optimized_in(&w, "LET d = DOC(\"orders\", \"k\") RETURN d == NULL");
        assert_eq!(projections(&plan), [""]);
    }
}
