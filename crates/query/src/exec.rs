//! The MMQL plan interpreter: a pipeline over binding environments.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::rc::Rc;
use std::time::Instant;

use mmdb_graph::Direction;
use mmdb_types::{Error, Result, Value};

use crate::ast::{AggFunc, Expr, Query, SortOrder, TraversalDirection};
use crate::cancel;
use crate::eval::eval_expr;
use crate::plan::{build_plan, line_prefix, Plan, PlanBound, PlanNode};
use crate::stats::{ExecStats, OpStats};
use crate::world::World;

/// A binding environment: variable → value.
///
/// Implemented as a persistent (structurally shared) frame list so that
/// `clone()` is O(1) regardless of how large the bound values are — a
/// `FOR` over N items under an env holding a big `LET` array must not
/// deep-copy that array N times. Lookups walk the frames (shadowing =
/// nearest frame wins); the frame count is the number of bound variables,
/// which MMQL keeps small.
#[derive(Clone, Default)]
pub struct Env {
    head: Option<std::sync::Arc<EnvFrame>>,
}

struct EnvFrame {
    name: String,
    value: Value,
    parent: Option<std::sync::Arc<EnvFrame>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env { head: None }
    }

    /// Look up a variable (innermost binding wins).
    pub fn get(&self, name: &str) -> Option<&Value> {
        let mut cur = self.head.as_deref();
        // lint: allow(tick, walks binding frames, bounded by the query's variable count, not rows)
        while let Some(f) = cur {
            if f.name == name {
                return Some(&f.value);
            }
            cur = f.parent.as_deref();
        }
        None
    }

    /// Bind (or shadow) a variable. O(1); earlier clones are unaffected.
    pub fn insert(&mut self, name: String, value: Value) {
        self.head = Some(std::sync::Arc::new(EnvFrame {
            name,
            value,
            parent: self.head.take(),
        }));
    }

    /// This environment as an evaluation scope.
    pub fn scope(&self) -> Scope<'_> {
        Scope { env: self, top: None }
    }

    /// This environment with `var` bound to `value` on top of it, as an
    /// evaluation scope: nothing is cloned and no frame is made.
    pub fn with<'a>(&'a self, var: &'a str, value: &'a Value) -> Scope<'a> {
        Scope { env: self, top: Some((var, value)) }
    }

    /// Visible bindings (shadowed frames skipped), outermost-first order
    /// not guaranteed.
    pub fn bindings(&self) -> Vec<(&str, &Value)> {
        let mut seen: Vec<&str> = Vec::new();
        let mut out = Vec::new();
        let mut cur = self.head.as_deref();
        // lint: allow(tick, walks binding frames, bounded by the query's variable count, not rows)
        while let Some(f) = cur {
            if !seen.contains(&f.name.as_str()) {
                seen.push(&f.name);
                out.push((f.name.as_str(), &f.value));
            }
            cur = f.parent.as_deref();
        }
        out
    }
}

/// What an expression's variables resolve against: an environment and,
/// optionally, one binding on top of it that is only borrowed — a
/// candidate row a join key or residual predicate is evaluated on
/// before (and unless it passes, instead of) being cloned into a frame.
///
/// `Env` itself still owns its values: frames are shared between the
/// rows an operator fans out and outlive the operator that made them,
/// so they cannot borrow from a scan's result.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    env: &'a Env,
    top: Option<(&'a str, &'a Value)>,
}

impl<'a> Scope<'a> {
    /// Look up a variable (the borrowed binding shadows the environment).
    pub fn get(self, name: &str) -> Option<&'a Value> {
        match self.top {
            Some((var, value)) if var == name => Some(value),
            _ => self.env.get(name),
        }
    }

    /// An owned environment with the same bindings, for a subquery to
    /// run from.
    pub(crate) fn to_env(self) -> Env {
        let mut env = self.env.clone();
        if let Some((var, value)) = self.top {
            env.insert(var.to_string(), value.clone());
        }
        env
    }
}

/// The state of one top-level execution: the world, the hash joins'
/// build tables and, when tracing, the subquery operator profile. Each
/// `execute_plan*` entry point creates one and drops it on return, so
/// nothing a query built is visible to the next.
pub struct ExecCtx<'w> {
    pub(crate) world: &'w World,
    /// Build tables by `HashJoin` slot: built on the first probe, shared
    /// by every later one — including every re-evaluation of the subquery
    /// that holds the join.
    joins: RefCell<HashMap<usize, Rc<JoinTable>>>,
    /// Present for [`execute_plan_traced`] only.
    trace: Option<RefCell<SubTrace>>,
}

impl<'w> ExecCtx<'w> {
    /// A context for one untraced execution.
    pub fn new(world: &'w World) -> Self {
        ExecCtx { world, joins: RefCell::default(), trace: None }
    }
}

/// The build side of one hash join.
struct JoinTable {
    /// Source items by key; a bucket keeps the source's scan order.
    buckets: HashMap<Value, Vec<Value>>,
    /// Source items hashed.
    rows: usize,
    /// Incoming rows looked up so far (EXPLAIN ANALYZE).
    probes: Cell<usize>,
}

/// Operator stats of the subqueries evaluated since the traced executor
/// last drained them; it splices them into the profile right below the
/// operator that evaluated them.
#[derive(Default)]
struct SubTrace {
    /// Current subquery nesting depth (0 = the traced top-level plan).
    depth: usize,
    entries: Vec<OpStats>,
}

/// Execute a parsed query (plans and optimizes it first).
pub fn execute_query(world: &World, query: &Query) -> Result<Vec<Value>> {
    execute_plan(world, &crate::optimize::optimize(build_plan(query)?, world))
}

/// Evaluate a subquery's plan (a `LET x = (FOR ...)` body or a
/// parenthesized pipeline in expression position) from the enclosing
/// row's environment. Inside [`execute_plan_traced`] the subquery
/// pipeline is profiled too: its operators are aggregated across per-row
/// evaluations, indented one level per nesting depth, and spliced into
/// the parent's profile right after the operator that evaluated them —
/// so EXPLAIN ANALYZE does not hide subquery work inside the parent
/// operator's elapsed time.
pub(crate) fn execute_subquery(cx: &ExecCtx, plan: &Plan, env: Env) -> Result<Vec<Value>> {
    let Some(trace) = &cx.trace else {
        return run_pipeline(cx, plan, env);
    };
    let depth = {
        let mut t = trace.borrow_mut();
        t.depth += 1;
        t.depth
    };
    let result = run_pipeline_traced_sub(cx, plan, env, depth);
    trace.borrow_mut().depth -= 1;
    result
}

/// Take the subquery operator stats accumulated since the last drain.
fn drain_sub_trace(cx: &ExecCtx) -> Vec<OpStats> {
    cx.trace.as_ref().map(|t| std::mem::take(&mut t.borrow_mut().entries)).unwrap_or_default()
}

/// Record one subquery operator evaluation, merging repeats: a `LET`
/// body re-evaluated for every parent row shows up as one line with
/// summed rows and elapsed time, not N lines. The access path is the
/// latest one: a hash join's probe count grows with every evaluation.
fn record_sub_op(cx: &ExecCtx, new: OpStats) {
    let Some(trace) = &cx.trace else { return };
    let entries = &mut trace.borrow_mut().entries;
    if let Some(existing) = entries.iter_mut().find(|e| e.op == new.op) {
        existing.rows_in += new.rows_in;
        existing.rows_out += new.rows_out;
        existing.elapsed += new.elapsed;
        if new.access_path.is_some() {
            existing.access_path = new.access_path;
        }
    } else {
        entries.push(new);
    }
}

/// Apply one node and describe what it did.
fn apply_node_traced(cx: &ExecCtx, node: &PlanNode, envs: Vec<Env>) -> Result<(Vec<Env>, OpStats)> {
    let rows_in = envs.len();
    let first = envs.first().cloned();
    let started = Instant::now();
    let out = apply_node(cx, node, envs)?;
    let stats = OpStats {
        op: node.describe(),
        rows_in,
        rows_out: out.len(),
        elapsed: started.elapsed(),
        access_path: describe_access_path(cx, node, first.as_ref()),
    };
    Ok((out, stats))
}

/// [`project_return`], described.
fn project_return_traced(cx: &ExecCtx, plan: &Plan, envs: &[Env]) -> Result<(Vec<Value>, OpStats)> {
    let started = Instant::now();
    let out = project_return(cx, plan, envs)?;
    let stats = OpStats {
        op: plan.describe_return(),
        rows_in: envs.len(),
        rows_out: out.len(),
        elapsed: started.elapsed(),
        access_path: None,
    };
    Ok((out, stats))
}

/// The traced executor for subquery plans: same shape as the top-level
/// traced loop, but operator stats go to the context's sink (indented by
/// nesting depth) instead of a local `ops` vector.
fn run_pipeline_traced_sub(cx: &ExecCtx, plan: &Plan, env: Env, depth: usize) -> Result<Vec<Value>> {
    let prefix = line_prefix(depth);
    let record = |mut stats: OpStats| {
        stats.op.insert_str(0, &prefix);
        record_sub_op(cx, stats);
    };
    let mut envs = vec![env];
    // lint: allow(tick, iterates plan operators, bounded by query size; apply_node ticks per row)
    for node in &plan.nodes {
        let (out, stats) = apply_node_traced(cx, node, envs)?;
        envs = out;
        record(stats);
        if envs.is_empty() {
            break;
        }
    }
    let (out, stats) = project_return_traced(cx, plan, &envs)?;
    record(stats);
    Ok(out)
}

/// Execute an already-optimized plan.
pub fn execute_plan(world: &World, plan: &Plan) -> Result<Vec<Value>> {
    execute_plan_with_env(world, plan, Env::new())
}

/// Execute a plan from an initial environment.
pub fn execute_plan_with_env(world: &World, plan: &Plan, env: Env) -> Result<Vec<Value>> {
    run_pipeline(&ExecCtx::new(world), plan, env)
}

/// Run one pipeline — the top-level plan or a subquery's — untraced.
fn run_pipeline(cx: &ExecCtx, plan: &Plan, env: Env) -> Result<Vec<Value>> {
    let mut envs = vec![env];
    // lint: allow(tick, iterates plan operators, bounded by query size; apply_node ticks per row)
    for node in &plan.nodes {
        envs = apply_node(cx, node, envs)?;
        if envs.is_empty() {
            break;
        }
    }
    project_return(cx, plan, &envs)
}

/// Evaluate the RETURN expression over the surviving environments and
/// apply DISTINCT (the pipeline's final step, shared by the plain and
/// traced executors).
fn project_return(cx: &ExecCtx, plan: &Plan, envs: &[Env]) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(envs.len());
    for env in envs {
        cancel::tick()?;
        out.push(eval_expr(cx, env.scope(), &plan.ret)?.into_owned());
    }
    if plan.distinct {
        // Keep first occurrences, in order.
        let mut seen = HashSet::new();
        let mut first = out.iter().map(|v| seen.insert(v)).collect::<Vec<bool>>().into_iter();
        out.retain(|_| first.next().unwrap_or(false));
    }
    Ok(out)
}

/// Execute a plan while collecting an [`ExecStats`] profile: per node,
/// rows in/out, wall time, and the access path taken. The overhead is
/// O(plan nodes) — two clock reads and one struct push per operator —
/// so tracing every server-side query is affordable; the untraced
/// [`execute_plan_with_env`] path does none of it.
pub fn execute_plan_traced(world: &World, plan: &Plan, env: Env) -> Result<(Vec<Value>, ExecStats)> {
    let cx = &ExecCtx { trace: Some(RefCell::default()), ..ExecCtx::new(world) };
    let started = Instant::now();
    let mut envs = vec![env];
    let mut ops: Vec<OpStats> = Vec::with_capacity(plan.nodes.len() + 1);
    // lint: allow(tick, iterates plan operators, bounded by query size; apply_node ticks per row)
    for node in &plan.nodes {
        let (out, stats) = apply_node_traced(cx, node, envs)?;
        envs = out;
        ops.push(stats);
        // Subqueries evaluated while this node ran (LET bodies, inline
        // pipelines) traced themselves into the sink; splice their
        // operators in right below the node that evaluated them.
        ops.extend(drain_sub_trace(cx));
        if envs.is_empty() {
            break;
        }
    }
    let (out, stats) = project_return_traced(cx, plan, &envs)?;
    ops.push(stats);
    ops.extend(drain_sub_trace(cx));
    let stats = ExecStats { ops, rows_returned: out.len(), total: started.elapsed() };
    Ok((out, stats))
}

/// How a node read its source, resolved against the world and the first
/// incoming environment — the "which path actually ran" annotation.
fn describe_access_path(cx: &ExecCtx, node: &PlanNode, env: Option<&Env>) -> Option<String> {
    match node {
        PlanNode::For { source: Expr::Var(name), .. } => {
            if env.is_some_and(|e| e.get(name).is_some()) {
                Some(format!("bound variable '{name}'"))
            } else {
                cx.world.resolve_source(name).map(|kind| format!("full scan ({kind} '{name}')"))
            }
        }
        PlanNode::For { .. } => Some("expression".to_string()),
        PlanNode::IndexScan { source, path, .. } => {
            Some(format!("index '{path}' on '{source}'"))
        }
        PlanNode::HashJoin { slot, .. } => Some(match cx.joins.borrow().get(slot) {
            Some(t) => format!("hash build: {} rows once, {} probes", t.rows, t.probes.get()),
            None => "hash build: none, no row to probe with".to_string(),
        }),
        PlanNode::Traverse { edges, .. } => {
            Some(format!("graph traversal via edge collection '{edges}'"))
        }
        _ => None,
    }
}

/// The build table of the hash join in `slot`: `build` runs on the first
/// call of an execution and never again.
fn join_table(
    cx: &ExecCtx,
    slot: usize,
    build: impl FnOnce() -> Result<JoinTable>,
) -> Result<Rc<JoinTable>> {
    if let Some(table) = cx.joins.borrow().get(&slot) {
        return Ok(Rc::clone(table));
    }
    // No borrow is held while building: evaluating the source may run
    // other joins.
    let table = Rc::new(build()?);
    cx.joins.borrow_mut().insert(slot, Rc::clone(&table));
    Ok(table)
}

/// Read a hash join's source as the first probing row sees it — one full
/// scan when it names a store — and bucket the items by key.
fn build_join_table(
    cx: &ExecCtx,
    env: &Env,
    var: &str,
    source: &str,
    build_key: &Expr,
) -> Result<JoinTable> {
    let items = resolve_name(cx, env, source)?;
    let rows = items.len();
    let mut buckets: HashMap<Value, Vec<Value>> = HashMap::new();
    let outer = Env::new();
    for item in items {
        cancel::tick()?;
        // The key is a path of `var`: navigate the item where it is.
        let key = eval_expr(cx, outer.with(var, &item), build_key)?.into_owned();
        buckets.entry(key).or_default().push(item);
    }
    Ok(JoinTable { buckets, rows, probes: Cell::new(0) })
}

fn apply_node(cx: &ExecCtx, node: &PlanNode, envs: Vec<Env>) -> Result<Vec<Env>> {
    let world = cx.world;
    match node {
        PlanNode::For { var, source } => {
            let mut out = Vec::new();
            for env in envs {
                let items = resolve_source(cx, &env, source)?;
                for item in items {
                    cancel::tick()?;
                    let mut e = env.clone();
                    e.insert(var.clone(), item);
                    out.push(e);
                }
            }
            Ok(out)
        }
        PlanNode::IndexScan { var, source, path, lo, hi, residual } => {
            let lo_b = plan_bound(lo);
            let hi_b = plan_bound(hi);
            let mut out = Vec::new();
            for env in envs {
                world.access.note_index_scan();
                let docs: Vec<Value> = if let Ok(coll) = world.collection(source) {
                    coll.range_bounds(path, lo_b, hi_b)?.0
                } else {
                    let table = world.catalog.table(source)?;
                    let schema = table.schema().clone();
                    table
                        .select_range(path, lo_b, hi_b)?
                        .0
                        .iter()
                        .map(|row| schema.object_from_row(row))
                        .collect()
                };
                for doc in docs {
                    cancel::tick()?;
                    out.extend(bind_if(cx, &env, var, Cow::Owned(doc), residual)?);
                }
            }
            Ok(out)
        }
        PlanNode::HashJoin { var, source, build_key, probe_key, residual, slot } => {
            let mut out = Vec::new();
            for env in envs {
                cancel::tick()?;
                let table = join_table(cx, *slot, || {
                    build_join_table(cx, &env, var, source, build_key)
                })?;
                // Over an empty source the nested loop evaluates nothing.
                if table.rows == 0 {
                    continue;
                }
                table.probes.set(table.probes.get() + 1);
                let key = eval_expr(cx, env.scope(), probe_key)?;
                for item in table.buckets.get(&*key).into_iter().flatten() {
                    cancel::tick()?;
                    out.extend(bind_if(cx, &env, var, Cow::Borrowed(item), residual)?);
                }
            }
            Ok(out)
        }
        PlanNode::Traverse { var, min_depth, max_depth, direction, start, edges } => {
            let dir = match direction {
                TraversalDirection::Outbound => Direction::Outbound,
                TraversalDirection::Inbound => Direction::Inbound,
                TraversalDirection::Any => Direction::Any,
            };
            let graph = world.graph_with_edges(edges)?;
            let spec = mmdb_graph::TraversalSpec {
                min_depth: *min_depth as usize,
                max_depth: *max_depth as usize,
                direction: dir,
                edge_collection: Some(edges.clone()),
            };
            let mut out = Vec::new();
            for env in envs {
                let start_v = eval_expr(cx, env.scope(), start)?;
                let Value::String(handle) = &*start_v else {
                    if start_v.is_null() {
                        continue; // null start traverses nothing
                    }
                    return Err(Error::Type(format!(
                        "traversal start must be a 'collection/key' handle string, got {}",
                        start_v.type_name()
                    )));
                };
                for visited in mmdb_graph::traverse(&graph, handle, &spec)? {
                    cancel::tick()?;
                    let Some(mut doc) = graph.vertex(&visited.vertex)? else { continue };
                    // Attach the handle and depth, like AQL's `_id`.
                    if let Ok(obj) = doc.as_object_mut() {
                        obj.insert("_id", Value::str(&visited.vertex));
                        obj.insert("_depth", Value::int(visited.depth as i64));
                    }
                    let mut e = env.clone();
                    e.insert(var.clone(), doc);
                    out.push(e);
                }
            }
            Ok(out)
        }
        PlanNode::Filter(pred) => {
            let mut out = Vec::new();
            for env in envs {
                cancel::tick()?;
                if eval_expr(cx, env.scope(), pred)?.is_truthy() {
                    out.push(env);
                }
            }
            Ok(out)
        }
        PlanNode::Let { var, value } => {
            let mut out = Vec::new();
            for env in envs {
                cancel::tick()?;
                let v = eval_expr(cx, env.scope(), value)?.into_owned();
                let mut e = env;
                e.insert(var.clone(), v);
                out.push(e);
            }
            Ok(out)
        }
        PlanNode::Sort(keys) => {
            let mut decorated: Vec<(Vec<Value>, Env)> = Vec::with_capacity(envs.len());
            for env in envs {
                cancel::tick()?;
                let mut ks = Vec::with_capacity(keys.len());
                // lint: allow(tick, iterates ORDER BY keys, bounded by query text; outer loop ticks per row)
                for (e, _) in keys {
                    ks.push(eval_expr(cx, env.scope(), e)?.into_owned());
                }
                decorated.push((ks, env));
            }
            decorated.sort_by(|(a, _), (b, _)| {
                // lint: allow(tick, infallible comparator over ORDER BY keys; cannot propagate a cancel error)
                for (i, (_, order)) in keys.iter().enumerate() {
                    let c = a[i].cmp(&b[i]);
                    let c = if *order == SortOrder::Desc { c.reverse() } else { c };
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(decorated.into_iter().map(|(_, e)| e).collect())
        }
        PlanNode::Limit { offset, count } => {
            Ok(envs.into_iter().skip(*offset).take(*count).collect())
        }
        PlanNode::Collect { key, into, aggregates } => {
            // Group envs by key value (or one big group).
            let mut order: Vec<Value> = Vec::new();
            let mut groups: HashMap<Value, Vec<Env>> = HashMap::new();
            for env in envs {
                cancel::tick()?;
                let k = match key {
                    Some((_, e)) => eval_expr(cx, env.scope(), e)?.into_owned(),
                    None => Value::Null,
                };
                if !groups.contains_key(&k) {
                    order.push(k.clone());
                }
                groups.entry(k).or_default().push(env);
            }
            order.sort();
            let mut out = Vec::with_capacity(order.len());
            for k in order {
                cancel::tick()?;
                // Every key in `order` was inserted into `groups` above;
                // skip rather than panic if that invariant ever breaks.
                let Some(members) = groups.remove(&k) else { continue };
                let mut env = Env::new();
                if let Some((var, _)) = key {
                    env.insert(var.clone(), k);
                }
                if let Some(into_var) = into {
                    let scopes: Vec<Value> = members
                        .iter()
                        .map(|m| {
                            Value::object(
                                m.bindings().into_iter().map(|(k, v)| (k.to_string(), v.clone())),
                            )
                        })
                        .collect();
                    env.insert(into_var.clone(), Value::Array(scopes));
                }
                for (var, func, argexpr) in aggregates {
                    let mut vals = Vec::with_capacity(members.len());
                    for m in &members {
                        cancel::tick()?;
                        vals.push(eval_expr(cx, m.scope(), argexpr)?.into_owned());
                    }
                    env.insert(var.clone(), aggregate(*func, &vals));
                }
                out.push(env);
            }
            Ok(out)
        }
    }
}

/// `env` with `var` bound to `item`, if the residual predicate (when
/// there is one) holds for it. A borrowed item is cloned only once it
/// has passed.
fn bind_if(
    cx: &ExecCtx,
    env: &Env,
    var: &str,
    item: Cow<'_, Value>,
    residual: &Option<Expr>,
) -> Result<Option<Env>> {
    if let Some(res) = residual {
        if !eval_expr(cx, env.with(var, &item), res)?.is_truthy() {
            return Ok(None);
        }
    }
    let mut e = env.clone();
    e.insert(var.to_string(), item.into_owned());
    Ok(Some(e))
}

fn plan_bound(b: &PlanBound) -> Bound<&Value> {
    match b {
        PlanBound::Unbounded => Bound::Unbounded,
        PlanBound::Included(v) => Bound::Included(v),
        PlanBound::Excluded(v) => Bound::Excluded(v),
    }
}

fn resolve_source(cx: &ExecCtx, env: &Env, source: &Expr) -> Result<Vec<Value>> {
    match source {
        Expr::Var(name) => resolve_name(cx, env, name),
        // An array the evaluator made is moved into the rows; one it only
        // borrowed is copied element by element, and nothing around it.
        _ => as_iterable(eval_expr(cx, env.scope(), source)?.into_owned()),
    }
}

/// A bare identifier: bound variable first, then store name.
fn resolve_name(cx: &ExecCtx, env: &Env, name: &str) -> Result<Vec<Value>> {
    match env.get(name) {
        Some(v) => as_iterable(v.clone()),
        None => cx.world.scan_source(name),
    }
}

fn as_iterable(v: Value) -> Result<Vec<Value>> {
    match v {
        Value::Array(items) => Ok(items),
        Value::Null => Ok(Vec::new()),
        other => Err(Error::Type(format!(
            "FOR needs an array source, got {}",
            other.type_name()
        ))),
    }
}

fn aggregate(func: AggFunc, vals: &[Value]) -> Value {
    match func {
        AggFunc::Count => Value::int(vals.len() as i64),
        AggFunc::Sum => crate::functions::sum_values(vals),
        AggFunc::Min => vals.iter().filter(|v| !v.is_null()).min().cloned().unwrap_or(Value::Null),
        AggFunc::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
        AggFunc::Avg => {
            let nums: Vec<f64> = vals
                .iter()
                .filter_map(|v| match v {
                    Value::Number(n) => Some(n.as_f64()),
                    _ => None,
                })
                .collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use mmdb_relational::{ColumnDef, DataType, Schema};

    /// Build the paper's slide-27 world: customer relation, social graph,
    /// shopping-cart kv pairs, order JSON documents.
    fn paper_world() -> World {
        let w = World::in_memory();
        // Customer relation.
        let t = w
            .catalog
            .create_table(
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
        for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
            t.insert(vec![Value::int(id), Value::str(name), Value::int(limit)]).unwrap();
        }
        // Social graph: Mary knows John; Anne knows Mary.
        let g = w.create_graph("social").unwrap();
        g.create_vertex_collection("persons").unwrap();
        g.create_edge_collection("knows").unwrap();
        for id in 1..=3 {
            g.add_vertex(
                "persons",
                mmdb_types::from_json(&format!(r#"{{"_key":"{id}"}}"#)).unwrap(),
            )
            .unwrap();
        }
        g.add_edge("knows", "persons/1", "persons/2", mmdb_types::from_json("{}").unwrap())
            .unwrap();
        g.add_edge("knows", "persons/3", "persons/1", mmdb_types::from_json("{}").unwrap())
            .unwrap();
        // Shopping cart (kv).
        w.kv.create_bucket("cart").unwrap();
        w.kv.put("cart", "1", Value::str("34e5e759")).unwrap();
        w.kv.put("cart", "2", Value::str("0c6df508")).unwrap();
        // Orders (documents).
        let orders = w.create_collection("orders").unwrap();
        orders
            .insert_json(
                r#"{"_key":"0c6df508","orderlines":[
                    {"product_no":"2724f","product_name":"Toy","price":66},
                    {"product_no":"3424g","product_name":"Book","price":40}]}"#,
            )
            .unwrap();
        orders
            .insert_json(r#"{"_key":"34e5e759","orderlines":[{"product_no":"9999x","price":5}]}"#)
            .unwrap();
        w
    }

    #[test]
    fn the_paper_recommendation_query() {
        // "Return all product_no which are ordered by a friend of a
        // customer whose credit_limit > 3000"  ⇒  ["2724f", "3424g"].
        let w = paper_world();
        let got = run(
            &w,
            r#"
            FOR c IN customers
              FILTER c.credit_limit > 3000
              FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
                LET order = DOC("orders", KV_GET("cart", friend._key))
                FOR line IN order.orderlines
                  RETURN line.product_no
            "#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("2724f"), Value::str("3424g")]);
    }

    #[test]
    fn an_expired_token_aborts_the_recommendation_query() {
        let w = paper_world();
        let token = mmdb_types::CancelToken::with_timeout(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = crate::run_with(
            &w,
            r#"
            FOR c IN customers
              FILTER c.credit_limit > 3000
              FOR friend IN 1..1 OUTBOUND CONCAT("persons/", c.id) knows
                LET order = DOC("orders", KV_GET("cart", friend._key))
                FOR line IN order.orderlines
                  RETURN line.product_no
            "#,
            &token,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert!(err.is_retryable());
        // The scope guard restored the default token: the same query runs
        // clean afterwards on this thread.
        assert!(run(&w, "FOR c IN customers RETURN c.name").is_ok());
    }

    #[test]
    fn an_expired_token_aborts_a_hash_join_build() {
        let w = paper_world();
        let cx = ExecCtx::new(&w);
        let key = Expr::var("o").field("_key");
        let built = build_join_table(&cx, &Env::new(), "o", "orders", &key).unwrap();
        assert_eq!((built.rows, built.buckets.len()), (2, 2));

        let token = mmdb_types::CancelToken::with_timeout(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _scope = cancel::scope(&token);
        let scans_before = w.access.full_scans();
        let err = build_join_table(&cx, &Env::new(), "o", "orders", &key)
            .err()
            .expect("the build loop ticks");
        assert_eq!(err.kind(), "deadline_exceeded");
        assert_eq!(w.access.full_scans() - scans_before, 1, "it stopped in the build, past the scan");
    }

    #[test]
    fn a_live_token_does_not_disturb_results() {
        let w = paper_world();
        let token = mmdb_types::CancelToken::with_timeout(std::time::Duration::from_secs(3600));
        let got = crate::run_with(&w, "FOR c IN customers RETURN c.name", &token).unwrap();
        assert_eq!(got, vec![Value::str("Mary"), Value::str("John"), Value::str("Anne")]);
    }

    #[test]
    fn filter_sort_limit() {
        let w = paper_world();
        let got = run(
            &w,
            "FOR c IN customers SORT c.credit_limit DESC LIMIT 2 RETURN c.name",
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("Mary"), Value::str("John")]);
        let got = run(&w, "FOR c IN customers SORT c.name LIMIT 1, 1 RETURN c.name").unwrap();
        assert_eq!(got, vec![Value::str("John")]);
    }

    #[test]
    fn let_and_subquery() {
        let w = paper_world();
        let got = run(
            &w,
            r#"
            LET rich = (FOR c IN customers FILTER c.credit_limit >= 3000 RETURN c.name)
            FOR n IN rich
              RETURN UPPER(n)
            "#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("MARY"), Value::str("JOHN")]);
    }

    #[test]
    fn correlated_subquery() {
        let w = paper_world();
        let got = run(
            &w,
            r#"
            FOR c IN customers
              LET doubled = (FOR x IN [1] RETURN c.credit_limit * 2)
              SORT c.id
              RETURN doubled[0]
            "#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(10000), Value::int(6000), Value::int(4000)]);
    }

    #[test]
    fn traced_execution_profiles_subquery_pipelines() {
        let w = paper_world();
        let (got, stats) = crate::run_traced(
            &w,
            r#"
            LET rich = (FOR c IN customers FILTER c.credit_limit >= 3000 RETURN c.name)
            FOR n IN rich
              RETURN UPPER(n)
            "#,
            &mmdb_types::CancelToken::none(),
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("MARY"), Value::str("JOHN")]);
        // The LET body's pipeline shows up as indented operators spliced
        // into the parent profile, not hidden inside the LET's elapsed.
        let sub_ops: Vec<&crate::stats::OpStats> =
            stats.ops.iter().filter(|o| o.op.starts_with("└ ")).collect();
        assert!(
            sub_ops.iter().any(|o| o.op.contains("For c")),
            "expected the subquery FOR among {:?}",
            stats.ops.iter().map(|o| &o.op).collect::<Vec<_>>()
        );
        assert!(
            sub_ops.iter().any(|o| o.op.contains("Filter")),
            "expected the subquery FILTER among {:?}",
            stats.ops.iter().map(|o| &o.op).collect::<Vec<_>>()
        );
        // And the parent pipeline is still fully present.
        assert!(stats.ops.iter().any(|o| o.op.contains("Let") && !o.op.starts_with("└ ")));
    }

    #[test]
    fn traced_correlated_subquery_aggregates_per_row_evaluations() {
        let w = paper_world();
        let (got, stats) = crate::run_traced(
            &w,
            r#"
            FOR c IN customers
              LET doubled = (FOR x IN [1] RETURN c.credit_limit * 2)
              SORT c.id
              RETURN doubled[0]
            "#,
            &mmdb_types::CancelToken::none(),
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(10000), Value::int(6000), Value::int(4000)]);
        // The LET body ran once per customer, but it aggregates into a
        // single profile line with summed row counts.
        let sub_for: Vec<&crate::stats::OpStats> = stats
            .ops
            .iter()
            .filter(|o| o.op.starts_with("└ ") && o.op.contains("For x"))
            .collect();
        assert_eq!(sub_for.len(), 1, "ops: {:?}", stats.ops.iter().map(|o| &o.op).collect::<Vec<_>>());
        assert_eq!(sub_for[0].rows_in, 3);
        assert_eq!(sub_for[0].rows_out, 3);
    }

    #[test]
    fn untraced_execution_leaves_no_subquery_trace_behind() {
        let w = paper_world();
        // The sink lives in the traced call's context: a plain run after
        // a traced one has none to see.
        let (_, stats) = crate::run_traced(
            &w,
            "LET a = (FOR c IN customers RETURN c.id) RETURN LENGTH(a)",
            &mmdb_types::CancelToken::none(),
        )
        .unwrap();
        assert!(stats.ops.iter().any(|o| o.op.starts_with("└ ")));
        let got = run(&w, "LET a = (FOR c IN customers RETURN c.id) RETURN LENGTH(a)").unwrap();
        assert_eq!(got, vec![Value::int(3)]);
    }

    #[test]
    fn collect_group_and_aggregate() {
        let w = World::in_memory();
        let c = w.create_collection("sales").unwrap();
        for (grp, amount) in [("a", 10), ("b", 5), ("a", 20), ("b", 7), ("a", 30)] {
            c.insert_json(&format!(r#"{{"grp":"{grp}","amount":{amount}}}"#)).unwrap();
        }
        let got = run(
            &w,
            r#"
            FOR s IN sales
              COLLECT g = s.grp AGGREGATE total = SUM(s.amount), n = COUNT()
              SORT g
              RETURN {grp: g, total: total, n: n}
            "#,
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get_field("total"), &Value::int(60));
        assert_eq!(got[0].get_field("n"), &Value::int(3));
        assert_eq!(got[1].get_field("total"), &Value::int(12));
    }

    #[test]
    fn collect_into_groups() {
        let w = World::in_memory();
        let c = w.create_collection("sales").unwrap();
        for (grp, amount) in [("a", 10), ("b", 5), ("a", 20)] {
            c.insert_json(&format!(r#"{{"grp":"{grp}","amount":{amount}}}"#)).unwrap();
        }
        let got = run(
            &w,
            "FOR s IN sales COLLECT g = s.grp INTO members RETURN LENGTH(members)",
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(2), Value::int(1)]);
    }

    #[test]
    fn distinct_results() {
        let w = World::in_memory();
        let got = run(&w, "FOR x IN [1,2,2,3,1] RETURN DISTINCT x").unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(2), Value::int(3)]);
    }

    #[test]
    fn for_over_expression_and_null() {
        let w = World::in_memory();
        let got = run(&w, "FOR x IN RANGE(1, 3) RETURN x * x").unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(4), Value::int(9)]);
        let got = run(&w, "LET a = NULL FOR x IN a RETURN x").unwrap();
        assert!(got.is_empty());
        assert!(run(&w, "FOR x IN 42 RETURN x").is_err());
    }

    #[test]
    fn bound_variable_shadows_nothing_but_unbound_name_errors() {
        let w = World::in_memory();
        assert!(matches!(run(&w, "FOR x IN nothere RETURN x"), Err(Error::NotFound(_))));
        let got = run(&w, "LET nothere = [7] FOR x IN nothere RETURN x").unwrap();
        assert_eq!(got, vec![Value::int(7)]);
    }

    #[test]
    fn index_scan_agrees_with_full_scan() {
        let w = World::in_memory();
        let c = w.create_collection("products").unwrap();
        for i in 0..200 {
            c.insert_json(&format!(r#"{{"_key":"p{i}","price":{},"cat":{}}}"#, i % 50, i % 3))
                .unwrap();
        }
        let q = "FOR p IN products FILTER p.price >= 10 && p.price < 12 && p.cat == 0 SORT p._key RETURN p._key";
        let unindexed = run(&w, q).unwrap();
        c.create_persistent_index("price").unwrap();
        let indexed = run(&w, q).unwrap();
        assert_eq!(unindexed, indexed);
        assert!(!indexed.is_empty());
    }

    #[test]
    fn traversal_depths_and_inbound() {
        let w = paper_world();
        // Who knows Mary (inbound)?
        let got = run(
            &w,
            r#"FOR v IN 1..1 INBOUND "persons/1" knows RETURN v._key"#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("3")]);
        // Two hops outbound from Anne: Mary (1), John (2).
        let got = run(
            &w,
            r#"FOR v IN 1..2 OUTBOUND "persons/3" knows SORT v._depth RETURN [v._key, v._depth]"#,
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Value::array([Value::str("1"), Value::int(1)]));
        assert_eq!(got[1], Value::array([Value::str("2"), Value::int(2)]));
    }

    #[test]
    fn cross_model_functions_in_queries() {
        let w = paper_world();
        // RDF.
        w.rdf.write().insert(mmdb_rdf::Triple::new("mary", "likes", "toys")).unwrap();
        let got = run(&w, r#"FOR t IN TRIPLES("mary", NULL, NULL) RETURN t.p"#).unwrap();
        assert_eq!(got, vec![Value::str("likes")]);
        // XML.
        w.register_xml(
            "catalog",
            mmdb_xml::parse_xml(r#"<catalog><product no="1"><name>Toy</name></product></catalog>"#)
                .unwrap(),
        );
        let got = run(&w, r#"RETURN XPATH("catalog", "/catalog/product/name")"#).unwrap();
        assert_eq!(got, vec![Value::array([Value::str("Toy")])]);
        // Fulltext.
        let c = w.create_collection("reviews").unwrap();
        c.insert_json(r#"{"_key":"r1","text":"great wooden toy"}"#).unwrap();
        c.insert_json(r#"{"_key":"r2","text":"awful book"}"#).unwrap();
        w.create_fulltext_index("review_text", "reviews", "text").unwrap();
        let got = run(&w, r#"FOR r IN FULLTEXT("review_text", "toy") RETURN r._key"#).unwrap();
        assert_eq!(got, vec![Value::str("r1")]);
        // Graph helper functions.
        let got = run(
            &w,
            r#"RETURN SHORTEST_PATH("persons/3", "persons/2", "knows").cost"#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::float(2.0)]);
        let got = run(&w, r#"RETURN NEIGHBORS("persons/1", "knows", "ANY")"#).unwrap();
        assert_eq!(
            got,
            vec![Value::array([Value::str("persons/2"), Value::str("persons/3")])]
        );
    }

    #[test]
    fn spatial_functions() {
        let w = World::in_memory();
        w.create_spatial_index("shops").unwrap();
        for (x, y, name) in [(0.0, 0.0, "a"), (5.0, 5.0, "b"), (100.0, 100.0, "far")] {
            w.spatial_insert("shops", x, y, Value::str(name)).unwrap();
        }
        let got = run(&w, r#"RETURN GEO_WITHIN("shops", -1, -1, 10, 10)"#).unwrap();
        assert_eq!(got, vec![Value::array([Value::str("a"), Value::str("b")])]);
        let got = run(&w, r#"RETURN GEO_NEAREST("shops", 90, 90, 1)"#).unwrap();
        assert_eq!(got, vec![Value::array([Value::str("far")])]);
        assert!(run(&w, r#"RETURN GEO_WITHIN("nope", 0, 0, 1, 1)"#).is_err());
        assert!(w.create_spatial_index("shops").is_err());
    }

    #[test]
    fn kv_bucket_iteration() {
        let w = paper_world();
        let got = run(&w, "FOR e IN cart SORT e._key RETURN e.value").unwrap();
        assert_eq!(got, vec![Value::str("34e5e759"), Value::str("0c6df508")]);
    }

    // ---- what borrowed evaluation can get wrong ---------------------------

    /// One JSON value out of a one-row query.
    fn one(w: &World, text: &str) -> Value {
        let mut rows = run(w, text).unwrap();
        assert_eq!(rows.len(), 1, "{text}");
        rows.remove(0)
    }

    fn json(text: &str) -> Value {
        mmdb_types::from_json(text).unwrap()
    }

    #[test]
    fn shadowing_reads_the_old_binding_while_making_the_new_one() {
        let w = World::in_memory();
        // The value of the new `x` is a borrow into the old `x`.
        assert_eq!(one(&w, "LET x = {f: {f: 1}} LET x = x.f RETURN x"), json(r#"{"f":1}"#));
        assert_eq!(one(&w, "LET x = {f: {f: 1}} LET x = x.f LET x = x.f RETURN x"), Value::int(1));
        // The loop variable shadows the container it iterates.
        assert_eq!(
            run(&w, "LET x = {items: [{items: [1, 2]}, {items: [3]}]} FOR x IN x.items RETURN x.items")
                .unwrap(),
            vec![json("[1,2]"), json("[3]")]
        );
        // An inner shadow ends with its pipeline: the outer `x` is intact.
        assert_eq!(
            one(&w, "LET x = [1, 2] LET n = (FOR x IN x RETURN x * 10) RETURN [x, n]"),
            json("[[1,2],[10,20]]")
        );
    }

    #[test]
    fn field_access_on_an_owned_base() {
        let w = paper_world();
        assert_eq!(one(&w, r#"RETURN DOC("orders", "0c6df508").orderlines[0].price"#), Value::int(66));
        assert_eq!(
            one(&w, r#"RETURN (FOR o IN orders FILTER o._key == "34e5e759" RETURN o)[0].orderlines[0].product_no"#),
            Value::str("9999x")
        );
        assert_eq!(one(&w, r#"RETURN {a: {b: [10, 20]}}.a.b[1]"#), Value::int(20));
        assert_eq!(one(&w, r#"RETURN MERGE({a: 1}, {b: {c: "deep"}}).b.c"#), Value::str("deep"));
        // Moving a field out of an owned base must not disturb its siblings'
        // later use: each reference re-evaluates the call.
        assert_eq!(
            one(&w, r#"RETURN [DOC("orders", "34e5e759")._key, DOC("orders", "34e5e759").orderlines[0].price]"#),
            json(r#"["34e5e759",5]"#)
        );
    }

    #[test]
    fn auto_mapping_over_borrowed_and_owned_arrays() {
        let w = paper_world();
        for base in [r#"FOR o IN orders FILTER o._key == "0c6df508""#, r#"LET o = DOC("orders", "0c6df508")"#] {
            assert_eq!(one(&w, &format!("{base} RETURN o.orderlines[*].price")), json("[66,40]"));
            assert_eq!(one(&w, &format!("{base} RETURN o.orderlines.price")), json("[66,40]"));
            assert_eq!(one(&w, &format!("{base} RETURN o.orderlines[*].missing")), json("[null,null]"));
        }
        assert_eq!(one(&w, r#"RETURN DOC("orders", "0c6df508").orderlines.price"#), json("[66,40]"));
        // Arrays of arrays map all the way down.
        assert_eq!(one(&w, "RETURN [[{p: 1}, {p: 2}], [{p: 3}]].p"), json("[[1,2],[3]]"));
        // `[*]` of a non-array is the empty array, borrowed or owned.
        assert_eq!(one(&w, r#"LET o = DOC("orders", "0c6df508") RETURN o._key[*]"#), json("[]"));
        assert_eq!(one(&w, r#"RETURN DOC("orders", "0c6df508")._key[*]"#), json("[]"));
        // The mapped array is a new value; the document it came from is not.
        assert_eq!(
            one(&w, r#"LET o = DOC("orders", "34e5e759") LET p = o.orderlines.price RETURN [p, o.orderlines[0].price]"#),
            json("[[5],5]")
        );
    }

    #[test]
    fn negative_and_string_indexes() {
        let w = paper_world();
        for base in [r#"LET o = DOC("orders", "0c6df508") RETURN o"#, r#"RETURN DOC("orders", "0c6df508")"#] {
            assert_eq!(one(&w, &format!("{base}.orderlines[-1].price")), Value::int(40));
            assert_eq!(one(&w, &format!("{base}.orderlines[-2].price")), Value::int(66));
            assert_eq!(one(&w, &format!("{base}.orderlines[-3].price")), Value::Null);
            assert_eq!(one(&w, &format!("{base}.orderlines[2].price")), Value::Null);
            assert_eq!(one(&w, &format!(r#"{base}["orderlines"][1]["product_no"]"#)), Value::str("3424g"));
            // A string index reads one field; it does not map over arrays.
            assert_eq!(one(&w, &format!(r#"{base}.orderlines["price"]"#)), Value::Null);
            assert_eq!(one(&w, &format!(r#"{base}["nope"]"#)), Value::Null);
        }
        assert_eq!(one(&w, "RETURN [1, 2, 3][-1]"), Value::int(3));
        assert_eq!(one(&w, "RETURN RANGE(1, 3)[-1]"), Value::int(3));
        assert_eq!(one(&w, "RETURN RANGE(1, 3)[0]"), Value::int(1));
        assert_eq!(one(&w, "RETURN RANGE(1, 3)[3]"), Value::Null);
        assert_eq!(one(&w, "LET i = 1 RETURN RANGE(1, 3)[i]"), Value::int(2));
        assert!(run(&w, "RETURN [1, 2][1.5]").is_err());
        assert!(run(&w, "RETURN [1, 2][true]").is_err());
    }

    #[test]
    fn null_and_missing_bases() {
        let w = paper_world();
        assert_eq!(one(&w, "RETURN NULL.f"), Value::Null);
        assert_eq!(one(&w, "RETURN NULL[0]"), Value::Null);
        assert_eq!(one(&w, r#"RETURN DOC("orders", "nope").orderlines[0].price"#), Value::Null);
        assert_eq!(one(&w, r#"LET o = DOC("orders", "nope") RETURN o.a.b[1].c"#), Value::Null);
        assert_eq!(one(&w, r#"LET o = DOC("orders", "0c6df508") RETURN o.missing.deeper[0]["x"]"#), Value::Null);
        assert_eq!(one(&w, r#"RETURN 7.f"#), Value::Null);
        // A missing array iterates as empty, borrowed or owned; a scalar does not.
        assert!(run(&w, r#"FOR l IN DOC("orders", "nope").orderlines RETURN l"#).unwrap().is_empty());
        assert!(run(&w, r#"LET o = DOC("orders", "nope") FOR l IN o.orderlines RETURN l"#).unwrap().is_empty());
        assert!(run(&w, r#"LET o = DOC("orders", "0c6df508") FOR l IN o._key RETURN l"#).is_err());
        assert!(run(&w, r#"FOR l IN DOC("orders", "0c6df508")._key RETURN l"#).is_err());
        // `!= NULL` on a whole document, the benchmark's guard.
        assert_eq!(
            run(&w, "FOR o IN orders FILTER o != NULL SORT o._key RETURN o._key").unwrap(),
            vec![Value::str("0c6df508"), Value::str("34e5e759")]
        );
    }

    #[test]
    fn in_and_like_with_both_operands_borrowed() {
        let w = paper_world();
        assert_eq!(
            run(&w, r#"LET ks = ["34e5e759", "zz"] FOR o IN orders FILTER o._key IN ks RETURN o._key"#).unwrap(),
            vec![Value::str("34e5e759")]
        );
        assert_eq!(
            run(&w, r#"LET p = "0c%" FOR o IN orders FILTER o._key LIKE p RETURN o._key"#).unwrap(),
            vec![Value::str("0c6df508")]
        );
        // A whole borrowed object as the needle of a borrowed array.
        assert_eq!(
            one(&w, r#"LET o = DOC("orders", "0c6df508") RETURN [o.orderlines[1] IN o.orderlines, o IN o.orderlines]"#),
            json("[true,false]")
        );
        // Borrowed against owned, both ways round.
        assert_eq!(
            run(&w, r#"FOR o IN orders FILTER "2724f" IN o.orderlines[*].product_no RETURN o._key"#).unwrap(),
            vec![Value::str("0c6df508")]
        );
        assert_eq!(
            run(&w, r#"FOR o IN orders FILTER CONCAT(o._key, "") LIKE "34e_e759" RETURN o._key"#).unwrap(),
            vec![Value::str("34e5e759")]
        );
        assert_eq!(one(&w, r#"LET a = [1, 2] RETURN [3 IN a, a IN a, NULL LIKE "%", "x" IN NULL]"#), json("[false,false,false,false]"));
    }

    #[test]
    fn distinct_over_borrowed_then_owned_strings() {
        let w = paper_world();
        // The same string reaches RETURN as a borrow into a document and as
        // a fresh CONCAT result; DISTINCT sees one value, first one first.
        let got = run(
            &w,
            r#"FOR o IN orders SORT o._key
                 FOR l IN o.orderlines
                   FOR v IN [l.product_no, CONCAT("27", "24f"), CONCAT(l.product_no, "")]
                     RETURN DISTINCT v"#,
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("2724f"), Value::str("3424g"), Value::str("9999x")]);
    }

    #[test]
    fn a_borrowed_candidate_row_shadows_the_environment() {
        let w = World::in_memory();
        let cx = ExecCtx::new(&w);
        let mut env = Env::new();
        env.insert("x".to_string(), Value::int(1));
        env.insert("y".to_string(), Value::int(10));
        let item = Value::int(2);
        let bound = |residual: &str| {
            let residual = Some(crate::parse::parse_expr(residual).unwrap());
            bind_if(&cx, &env, "x", Cow::Borrowed(&item), &residual).unwrap()
        };
        let e = bound("x == 2 && y == 10").expect("the candidate is the `x` the residual sees");
        assert_eq!((e.get("x"), e.get("y")), (Some(&Value::int(2)), Some(&Value::int(10))));
        assert!(bound("x == 1").is_none());
        // A subquery in the residual runs from an environment that has it too.
        assert!(bound("LENGTH((FOR z IN [x] FILTER z == 2 RETURN z)) == 1").is_some());
        assert_eq!(env.get("x"), Some(&Value::int(1)), "the outer binding is untouched");
    }

    #[test]
    fn spread_in_return_like_the_paper() {
        let w = paper_world();
        let got = run(
            &w,
            r#"LET order = DOC("orders", "0c6df508") RETURN order.orderlines[*].product_no"#,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![Value::array([Value::str("2724f"), Value::str("3424g")])]
        );
    }
}
