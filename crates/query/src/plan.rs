//! The logical plan: a pipeline of operators over binding environments.
//!
//! `build_plan` maps AST clauses onto plan nodes 1:1; the optimizer then
//! rewrites node sequences (`For` + `Filter` into `IndexScan`, `HashJoin`
//! or a `For` that filters its own scan), plans every subquery into an
//! [`Expr::SubPlan`], gives each read of a stored document or row the
//! [`Projection`] the rest of the plan reads of it, and puts a `Dedup`
//! into a `RETURN DISTINCT` pipeline where repeated rows can no longer be
//! told apart.

use mmdb_types::{Projection, Result, Value};

use crate::ast::{AggFunc, Clause, Expr, Query, SortOrder, TraversalDirection};

/// Inclusive/exclusive bound for index scans.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanBound {
    /// No bound.
    Unbounded,
    /// `>= v` / `<= v`.
    Included(Value),
    /// `> v` / `< v`.
    Excluded(Value),
}

/// Logical plan operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// `FOR var IN <expr>` — iterate an expression (collection name as a
    /// bare `Var` resolves to a store scan at runtime unless the variable
    /// is bound).
    For {
        /// Loop variable.
        var: String,
        /// Source expression.
        source: Expr,
        /// The predicate of a `Filter` the optimizer moved into a scan of
        /// a named store, checked per item before it becomes a row.
        residual: Option<Expr>,
        /// What to decode of each document a collection scan or
        /// `FULLTEXT` source reads, and of each row a table scan reads.
        project: Projection,
    },
    /// Index-served scan over a named source with a single-path bound,
    /// produced by the optimizer from `For` + `Filter`.
    IndexScan {
        /// Loop variable.
        var: String,
        /// Collection/table name.
        source: String,
        /// Field path (document path or column name).
        path: String,
        /// Lower bound.
        lo: PlanBound,
        /// Upper bound.
        hi: PlanBound,
        /// Remaining predicate conjuncts, re-checked per row.
        residual: Option<Expr>,
        /// What to decode of each document or row.
        project: Projection,
    },
    /// Equi-join of the incoming rows with a row-invariant source,
    /// produced by the optimizer from `For` + `Filter`: the source is read
    /// and hashed on `build_key` once per execution, however many rows
    /// (and re-evaluations of the enclosing subquery) probe it. Output is
    /// what the nested loop would produce, in the same order.
    HashJoin {
        /// Loop variable, bound to each matching source item.
        var: String,
        /// Store or variable name; the same items for every incoming row.
        source: String,
        /// Key of a source item (reads only `var`).
        build_key: Expr,
        /// Key of an incoming row (never reads `var`).
        probe_key: Expr,
        /// Remaining predicate conjuncts, checked per matching pair.
        residual: Option<Expr>,
        /// Names this node's build table within one execution.
        slot: usize,
        /// What to decode of each document or row a collection or table
        /// source holds.
        project: Projection,
    },
    /// Graph traversal.
    Traverse {
        /// Vertex variable.
        var: String,
        /// Minimum depth.
        min_depth: u32,
        /// Maximum depth.
        max_depth: u32,
        /// Direction.
        direction: TraversalDirection,
        /// Start-vertex handle expression.
        start: Expr,
        /// Edge collection.
        edges: String,
        /// What to decode of each visited vertex; `_id` and `_depth` are
        /// attached only when it keeps them.
        project: Projection,
    },
    /// Keep rows where the expression is truthy.
    Filter(Expr),
    /// Bind a variable.
    Let {
        /// Variable name.
        var: String,
        /// Value expression.
        value: Expr,
        /// What to decode of the document a `DOC(…)` value reads.
        project: Projection,
    },
    /// Sort rows by key expressions.
    Sort(Vec<(Expr, SortOrder)>),
    /// Offset/limit.
    Limit {
        /// Rows skipped.
        offset: usize,
        /// Rows kept.
        count: usize,
    },
    /// Group rows.
    Collect {
        /// Group key `(var, expr)`; `None` = single group.
        key: Option<(String, Expr)>,
        /// INTO variable.
        into: Option<String>,
        /// Aggregates.
        aggregates: Vec<(String, AggFunc, Expr)>,
    },
    /// Keep the first row for each combination of values of these
    /// variables and drop later repeats, in input order. Only the
    /// optimizer makes one (rule 7): nothing after it reads any other
    /// binding of the pipeline.
    Dedup(Vec<String>),
}

/// A complete plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Operator pipeline.
    pub nodes: Vec<PlanNode>,
    /// RETURN expression.
    pub ret: Expr,
    /// Deduplicate results?
    pub distinct: bool,
}

impl PlanNode {
    /// The node's one-line textual form, shared by `EXPLAIN` and the
    /// `EXPLAIN ANALYZE` renderer.
    pub fn describe(&self) -> String {
        let mut text = match self {
            PlanNode::For { var, source, residual, .. } => {
                format!("For {var} IN {source}{}", if residual.is_some() { " residual=true" } else { "" })
            }
            PlanNode::IndexScan { var, source, path, lo, hi, residual, .. } => format!(
                "IndexScan {var} IN {source} ON {path} [{lo:?}, {hi:?}] residual={}",
                residual.is_some()
            ),
            PlanNode::HashJoin { var, source, build_key, probe_key, residual, .. } => format!(
                "HashJoin {var} IN {source} ON {build_key} == {probe_key}{}",
                if residual.is_some() { " residual=true" } else { "" }
            ),
            PlanNode::Traverse { var, min_depth, max_depth, direction, edges, .. } => {
                format!("Traverse {var} {min_depth}..{max_depth} {direction:?} {edges}")
            }
            PlanNode::Filter(_) => "Filter".to_string(),
            PlanNode::Let { var, .. } => format!("Let {var}"),
            PlanNode::Sort(keys) => format!("Sort ({} keys)", keys.len()),
            PlanNode::Limit { offset, count } => format!("Limit {offset},{count}"),
            PlanNode::Collect { key, aggregates, .. } => format!(
                "Collect key={} aggs={}",
                key.as_ref().map(|(v, _)| v.as_str()).unwrap_or("-"),
                aggregates.len()
            ),
            PlanNode::Dedup(vars) => format!("Dedup ON ({})", vars.join(", ")),
        };
        if let Some(p) = self.projection().filter(|p| !p.is_all()) {
            text.push_str(&format!(" project({p})"));
        }
        text
    }

    /// What the node decodes of the documents it binds, if it binds any.
    pub fn projection(&self) -> Option<&Projection> {
        match self {
            PlanNode::For { project, .. }
            | PlanNode::IndexScan { project, .. }
            | PlanNode::HashJoin { project, .. }
            | PlanNode::Traverse { project, .. }
            | PlanNode::Let { project, .. } => Some(project),
            PlanNode::Filter(_)
            | PlanNode::Sort(_)
            | PlanNode::Limit { .. }
            | PlanNode::Collect { .. }
            | PlanNode::Dedup(_) => None,
        }
    }

    /// [`PlanNode::projection`], for the optimizer to set.
    pub(crate) fn projection_mut(&mut self) -> Option<&mut Projection> {
        match self {
            PlanNode::For { project, .. }
            | PlanNode::IndexScan { project, .. }
            | PlanNode::HashJoin { project, .. }
            | PlanNode::Traverse { project, .. }
            | PlanNode::Let { project, .. } => Some(project),
            PlanNode::Filter(_)
            | PlanNode::Sort(_)
            | PlanNode::Limit { .. }
            | PlanNode::Collect { .. }
            | PlanNode::Dedup(_) => None,
        }
    }

    /// The names the node binds, and whether its rows are new ones, not
    /// its input rows extended: true for a loop (`For`, `IndexScan`,
    /// `HashJoin`, `Traverse`; one name) and for `Collect`'s groups.
    pub(crate) fn binds(&self) -> (impl Iterator<Item = &str>, bool) {
        let (names, aggregates, multiplies) = match self {
            PlanNode::For { var, .. }
            | PlanNode::IndexScan { var, .. }
            | PlanNode::HashJoin { var, .. }
            | PlanNode::Traverse { var, .. } => ([Some(var), None], &[][..], true),
            PlanNode::Let { var, .. } => ([Some(var), None], &[][..], false),
            PlanNode::Collect { key, into, aggregates } => {
                ([key.as_ref().map(|(v, _)| v), into.as_ref()], aggregates.as_slice(), true)
            }
            PlanNode::Filter(_) | PlanNode::Sort(_) | PlanNode::Limit { .. } | PlanNode::Dedup(_) => {
                ([None, None], &[][..], false)
            }
        };
        (names.into_iter().flatten().chain(aggregates.iter().map(|(v, _, _)| v)).map(String::as_str), multiplies)
    }

    /// The expressions the node evaluates (keep in step with
    /// [`PlanNode::exprs_mut`]).
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, sort, aggregates) = match self {
            PlanNode::For { source, residual, .. } => ([Some(source), residual.as_ref(), None], &[][..], &[][..]),
            PlanNode::Traverse { start: e, .. }
            | PlanNode::Filter(e)
            | PlanNode::Let { value: e, .. } => ([Some(e), None, None], &[][..], &[][..]),
            PlanNode::IndexScan { residual, .. } => ([residual.as_ref(), None, None], &[][..], &[][..]),
            PlanNode::HashJoin { build_key, probe_key, residual, .. } => {
                ([Some(build_key), Some(probe_key), residual.as_ref()], &[][..], &[][..])
            }
            PlanNode::Sort(keys) => ([None; 3], keys.as_slice(), &[][..]),
            PlanNode::Limit { .. } | PlanNode::Dedup(_) => ([None; 3], &[][..], &[][..]),
            PlanNode::Collect { key, aggregates, .. } => {
                ([key.as_ref().map(|(_, e)| e), None, None], &[][..], aggregates.as_slice())
            }
        };
        fixed.into_iter().flatten().chain(sort.iter().map(|(e, _)| e)).chain(aggregates.iter().map(|(_, _, e)| e))
    }

    /// [`PlanNode::exprs`], for the optimizer to rewrite in place.
    pub(crate) fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            PlanNode::For { source, residual, .. } => std::iter::once(source).chain(residual).collect(),
            PlanNode::IndexScan { residual, .. } => residual.iter_mut().collect(),
            PlanNode::HashJoin { build_key, probe_key, residual, .. } => {
                [build_key, probe_key].into_iter().chain(residual).collect()
            }
            PlanNode::Traverse { start, .. } => vec![start],
            PlanNode::Filter(e) => vec![e],
            PlanNode::Let { value, .. } => vec![value],
            PlanNode::Sort(keys) => keys.iter_mut().map(|(e, _)| e).collect(),
            PlanNode::Limit { .. } | PlanNode::Dedup(_) => Vec::new(),
            PlanNode::Collect { key, aggregates, .. } => key
                .iter_mut()
                .map(|(_, e)| e)
                .chain(aggregates.iter_mut().map(|(_, _, e)| e))
                .collect(),
        }
    }
}

/// An operator of a plan, by identity: one of its nodes, or the RETURN
/// that ends its pipeline. The traced executor finds what each operator
/// did by it, and [`Plan::walk`] hands it out beside the operator's line.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpId {
    /// A node of some pipeline.
    Node(*const PlanNode),
    /// The RETURN of a pipeline.
    Return(*const Plan),
}

/// Append the planned subqueries inside `e`, outermost first.
fn sub_plans<'e>(e: &'e Expr, out: &mut Vec<&'e Plan>) {
    if let Expr::SubPlan(p) = e {
        out.push(p);
    }
    e.children().for_each(|c| sub_plans(c, out));
}

impl Plan {
    /// The RETURN line's textual form (the pipeline's final operator).
    pub fn describe_return(&self) -> String {
        if self.distinct { "Return DISTINCT".to_string() } else { "Return".to_string() }
    }

    /// One-line-per-operator textual form (EXPLAIN), in the order and
    /// layout of `Plan::walk`, which `EXPLAIN ANALYZE` prints too.
    pub fn explain(&self) -> String {
        let mut lines = Vec::new();
        self.walk(0, &mut |line, _, _| lines.push(line));
        lines.join("\n")
    }

    /// Visit every operator of the plan, `depth` subqueries deep, with
    /// its line and, for a node, the node: each node of the pipeline, then
    /// its RETURN, and a planned subquery's operators right after the
    /// operator that evaluates it, one `└` level deeper.
    pub(crate) fn walk<'p>(&'p self, depth: usize, visit: &mut dyn FnMut(String, OpId, Option<&'p PlanNode>)) {
        let prefix = match depth {
            0 => String::new(),
            d => format!("{}└ ", "  ".repeat(d - 1)),
        };
        let mut emit = |id: OpId, node: Option<&'p PlanNode>, text: String, exprs: Vec<&'p Expr>| {
            visit(format!("{prefix}{text}"), id, node);
            let mut subs = Vec::new();
            exprs.into_iter().for_each(|e| sub_plans(e, &mut subs));
            subs.into_iter().for_each(|p| p.walk(depth + 1, visit));
        };
        for n in &self.nodes {
            emit(OpId::Node(n), Some(n), n.describe(), n.exprs().collect());
        }
        emit(OpId::Return(self), None, self.describe_return(), vec![&self.ret]);
    }
}

/// Lower the AST into the initial (unoptimized) plan.
pub fn build_plan(query: &Query) -> Result<Plan> {
    let nodes = query
        .clauses
        .iter()
        .map(|c| match c {
            Clause::For { var, source } => PlanNode::For {
                var: var.clone(),
                source: source.clone(),
                residual: None,
                project: Projection::ALL,
            },
            Clause::Traverse { var, min_depth, max_depth, direction, start, edges } => {
                PlanNode::Traverse {
                    var: var.clone(),
                    min_depth: *min_depth,
                    max_depth: *max_depth,
                    direction: *direction,
                    start: (**start).clone(),
                    edges: edges.clone(),
                    project: Projection::ALL,
                }
            }
            Clause::Filter(e) => PlanNode::Filter(e.clone()),
            Clause::Let { var, value } => PlanNode::Let {
                var: var.clone(),
                value: value.clone(),
                project: Projection::ALL,
            },
            Clause::Sort(keys) => PlanNode::Sort(keys.clone()),
            Clause::Limit { offset, count } => PlanNode::Limit { offset: *offset, count: *count },
            Clause::Collect { key, into, aggregates } => PlanNode::Collect {
                key: key.clone(),
                into: into.clone(),
                aggregates: aggregates.clone(),
            },
        })
        .collect();
    Ok(Plan { nodes, ret: query.ret.clone(), distinct: query.distinct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_query};

    #[test]
    fn lowering_is_one_to_one() {
        let q = parse_query(
            "FOR c IN customers FILTER c.a > 1 SORT c.a LIMIT 3 RETURN DISTINCT c.a",
        )
        .unwrap();
        let p = build_plan(&q).unwrap();
        assert!(p.distinct);
        assert_eq!(p.explain(), "For c IN customers\nFilter\nSort (1 keys)\nLimit 0,3\nReturn DISTINCT");
    }

    #[test]
    fn exprs_and_exprs_mut_yield_the_same_expressions_in_the_same_order() {
        let e = |text: &str| parse_expr(text).unwrap();
        let nodes = [
            PlanNode::For { var: "x".into(), source: e("xs"), residual: Some(e("x.b > 1")), project: Projection::ALL },
            PlanNode::IndexScan {
                var: "x".into(),
                source: "xs".into(),
                path: "a".into(),
                lo: PlanBound::Unbounded,
                hi: PlanBound::Unbounded,
                residual: Some(e("x.b > 1")),
                project: Projection::ALL,
            },
            PlanNode::HashJoin {
                var: "x".into(),
                source: "xs".into(),
                build_key: e("x.k"),
                probe_key: e("y.k"),
                residual: Some(e("x.b > y.b")),
                slot: 0,
                project: Projection::ALL,
            },
            PlanNode::Traverse {
                var: "v".into(),
                min_depth: 1,
                max_depth: 2,
                direction: TraversalDirection::Any,
                start: e("\"p/1\""),
                edges: "knows".into(),
                project: Projection::ALL,
            },
            PlanNode::Filter(e("x.b")),
            PlanNode::Let { var: "y".into(), value: e("x.c"), project: Projection::ALL },
            PlanNode::Sort(vec![(e("x.d"), SortOrder::Asc), (e("x.e"), SortOrder::Desc)]),
            PlanNode::Limit { offset: 1, count: 2 },
            PlanNode::Collect {
                key: Some(("k".into(), e("x.f"))),
                into: None,
                aggregates: vec![("n".into(), AggFunc::Count, e("1")), ("t".into(), AggFunc::Sum, e("x.g"))],
            },
            PlanNode::Dedup(vec!["x".into()]),
        ];
        for node in nodes {
            let read: Vec<Expr> = node.exprs().cloned().collect();
            let mut copy = node.clone();
            let written: Vec<Expr> = copy.exprs_mut().into_iter().map(|e| e.clone()).collect();
            assert_eq!(read, written, "{}", node.describe());
        }
    }
}
