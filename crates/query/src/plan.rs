//! The logical plan: a pipeline of operators over binding environments.
//!
//! `build_plan` maps AST clauses onto plan nodes 1:1; the optimizer then
//! rewrites node sequences (`For` + `Filter` into `IndexScan` or
//! `HashJoin`) and plans every subquery into an [`Expr::SubPlan`].

use mmdb_types::{Result, Value};

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
    },
    /// Keep rows where the expression is truthy.
    Filter(Expr),
    /// Bind a variable.
    Let {
        /// Variable name.
        var: String,
        /// Value expression.
        value: Expr,
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
        match self {
            PlanNode::For { var, source } => format!("For {var} IN {source}"),
            PlanNode::IndexScan { var, source, path, lo, hi, residual } => format!(
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
        }
    }

    /// The expressions the node evaluates (keep in step with
    /// [`PlanNode::exprs_mut`]).
    fn exprs(&self) -> Vec<&Expr> {
        match self {
            PlanNode::For { source, .. } => vec![source],
            PlanNode::IndexScan { residual, .. } => residual.iter().collect(),
            PlanNode::HashJoin { build_key, probe_key, residual, .. } => {
                [build_key, probe_key].into_iter().chain(residual).collect()
            }
            PlanNode::Traverse { start, .. } => vec![start],
            PlanNode::Filter(e) => vec![e],
            PlanNode::Let { value, .. } => vec![value],
            PlanNode::Sort(keys) => keys.iter().map(|(e, _)| e).collect(),
            PlanNode::Limit { .. } => Vec::new(),
            PlanNode::Collect { key, aggregates, .. } => key
                .iter()
                .map(|(_, e)| e)
                .chain(aggregates.iter().map(|(_, _, e)| e))
                .collect(),
        }
    }

    /// [`PlanNode::exprs`], for the optimizer to rewrite in place.
    pub(crate) fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            PlanNode::For { source, .. } => vec![source],
            PlanNode::IndexScan { residual, .. } => residual.iter_mut().collect(),
            PlanNode::HashJoin { build_key, probe_key, residual, .. } => {
                [build_key, probe_key].into_iter().chain(residual).collect()
            }
            PlanNode::Traverse { start, .. } => vec![start],
            PlanNode::Filter(e) => vec![e],
            PlanNode::Let { value, .. } => vec![value],
            PlanNode::Sort(keys) => keys.iter_mut().map(|(e, _)| e).collect(),
            PlanNode::Limit { .. } => Vec::new(),
            PlanNode::Collect { key, aggregates, .. } => key
                .iter_mut()
                .map(|(_, e)| e)
                .chain(aggregates.iter_mut().map(|(_, _, e)| e))
                .collect(),
        }
    }
}

/// The prefix of an operator line at subquery nesting `depth` (0 = the
/// top-level pipeline), shared by `EXPLAIN` and the traced executor.
pub(crate) fn line_prefix(depth: usize) -> String {
    match depth {
        0 => String::new(),
        d => format!("{}└ ", "  ".repeat(d - 1)),
    }
}

/// Append the planned subqueries inside `e`, outermost first.
fn sub_plans<'e>(e: &'e Expr, out: &mut Vec<&'e Plan>) {
    match e {
        Expr::SubPlan(p) => out.push(p),
        Expr::Literal(_) | Expr::Var(_) | Expr::Subquery(_) => {}
        Expr::Field(a, _) | Expr::Spread(a) | Expr::Not(a) | Expr::Neg(a) => sub_plans(a, out),
        Expr::Index(a, b) | Expr::Binary(_, a, b) => {
            sub_plans(a, out);
            sub_plans(b, out);
        }
        Expr::Ternary(a, b, c) => {
            sub_plans(a, out);
            sub_plans(b, out);
            sub_plans(c, out);
        }
        Expr::Call(_, items) | Expr::Array(items) => items.iter().for_each(|i| sub_plans(i, out)),
        Expr::Object(fields) => fields.iter().for_each(|(_, v)| sub_plans(v, out)),
    }
}

impl Plan {
    /// The RETURN line's textual form (the pipeline's final operator).
    pub fn describe_return(&self) -> String {
        if self.distinct { "Return DISTINCT".to_string() } else { "Return".to_string() }
    }

    /// One-line-per-node textual form (EXPLAIN). A planned subquery's
    /// operators follow the operator that evaluates it, one `└` level
    /// deeper — the layout `EXPLAIN ANALYZE` uses.
    pub fn explain(&self) -> String {
        let mut lines = Vec::new();
        self.explain_into(0, &mut lines);
        lines.join("\n")
    }

    fn explain_into(&self, depth: usize, lines: &mut Vec<String>) {
        let prefix = line_prefix(depth);
        let mut emit = |text: String, exprs: Vec<&Expr>| {
            lines.push(format!("{prefix}{text}"));
            let mut subs = Vec::new();
            exprs.into_iter().for_each(|e| sub_plans(e, &mut subs));
            subs.into_iter().for_each(|p| p.explain_into(depth + 1, lines));
        };
        for n in &self.nodes {
            emit(n.describe(), n.exprs());
        }
        emit(self.describe_return(), vec![&self.ret]);
    }
}

/// Lower the AST into the initial (unoptimized) plan.
pub fn build_plan(query: &Query) -> Result<Plan> {
    let nodes = query
        .clauses
        .iter()
        .map(|c| match c {
            Clause::For { var, source } => PlanNode::For { var: var.clone(), source: source.clone() },
            Clause::Traverse { var, min_depth, max_depth, direction, start, edges } => {
                PlanNode::Traverse {
                    var: var.clone(),
                    min_depth: *min_depth,
                    max_depth: *max_depth,
                    direction: *direction,
                    start: (**start).clone(),
                    edges: edges.clone(),
                }
            }
            Clause::Filter(e) => PlanNode::Filter(e.clone()),
            Clause::Let { var, value } => PlanNode::Let { var: var.clone(), value: value.clone() },
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
    use crate::parse::parse_query;

    #[test]
    fn lowering_is_one_to_one() {
        let q = parse_query(
            "FOR c IN customers FILTER c.a > 1 SORT c.a LIMIT 3 RETURN DISTINCT c.a",
        )
        .unwrap();
        let p = build_plan(&q).unwrap();
        assert_eq!(p.nodes.len(), 4);
        assert!(p.distinct);
        let text = p.explain();
        assert!(text.contains("For c"));
        assert!(text.contains("Limit 0,3"));
        assert!(text.contains("RETURN DISTINCT".to_uppercase().as_str()) || text.contains("Return DISTINCT"));
    }
}
