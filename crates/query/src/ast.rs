//! The MMQL abstract syntax tree.

use std::fmt;

use mmdb_types::Value;

use crate::plan::Plan;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `==`
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
    /// `&&` / `AND`
    And,
    /// `||` / `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `IN` — membership in an array.
    In,
    /// `LIKE` — SQL-style pattern with `%` and `_`.
    Like,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Variable reference.
    Var(String),
    /// `base.field`
    Field(Box<Expr>, String),
    /// `base[index-expr]`
    Index(Box<Expr>, Box<Expr>),
    /// `base[*]` — array expansion; collects the remaining trailing path
    /// applied to each element (AQL semantics).
    Spread(Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `!expr`
    Not(Box<Expr>),
    /// `-expr`
    Neg(Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// `[e1, e2, …]`
    Array(Vec<Expr>),
    /// `{k: v, …}`
    Object(Vec<(String, Expr)>),
    /// `( FOR … RETURN … )` — subquery producing an array.
    Subquery(Box<Query>),
    /// A subquery the optimizer has already planned, once, in the scope
    /// of the clause that holds it. The parser never produces this.
    SubPlan(Box<Plan>),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Variable helper.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Field access helper.
    pub fn field(self, name: &str) -> Expr {
        Expr::Field(Box::new(self), name.to_string())
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::In => "IN",
            BinOp::Like => "LIKE",
        })
    }
}

/// MMQL text of the expression, for plan descriptions. Operands that are
/// themselves operators are parenthesized; subquery bodies are elided
/// (EXPLAIN lists their operators on lines of their own).
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn operand(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if matches!(e, Expr::Binary(..) | Expr::Ternary(..)) {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        }
        fn list(items: &[Expr]) -> String {
            items.iter().map(Expr::to_string).collect::<Vec<_>>().join(", ")
        }
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Var(name) => f.write_str(name),
            Expr::Field(base, name) => write!(f, "{base}.{name}"),
            Expr::Index(base, idx) => write!(f, "{base}[{idx}]"),
            Expr::Spread(base) => write!(f, "{base}[*]"),
            Expr::Binary(op, l, r) => {
                operand(l, f)?;
                write!(f, " {op} ")?;
                operand(r, f)
            }
            Expr::Not(e) => {
                f.write_str("!")?;
                operand(e, f)
            }
            Expr::Neg(e) => {
                f.write_str("-")?;
                operand(e, f)
            }
            Expr::Call(name, args) => write!(f, "{name}({})", list(args)),
            Expr::Array(items) => write!(f, "[{}]", list(items)),
            Expr::Object(fields) => {
                let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
            Expr::Subquery(_) | Expr::SubPlan(_) => f.write_str("(subquery)"),
            Expr::Ternary(c, a, b) => {
                operand(c, f)?;
                f.write_str(" ? ")?;
                operand(a, f)?;
                f.write_str(" : ")?;
                operand(b, f)
            }
        }
    }
}

/// Traversal direction keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalDirection {
    /// `OUTBOUND`
    Outbound,
    /// `INBOUND`
    Inbound,
    /// `ANY`
    Any,
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// Aggregate functions in COLLECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Numeric sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Average.
    Avg,
}

/// Query clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `FOR var IN source` — source is a collection name (as `Var`) or any
    /// array-valued expression.
    For {
        /// Loop variable.
        var: String,
        /// Iterated expression.
        source: Expr,
    },
    /// `FOR var IN min..max DIRECTION start edgeCollection` — graph
    /// traversal; binds `var` to each visited vertex document.
    Traverse {
        /// Vertex variable.
        var: String,
        /// Minimum depth.
        min_depth: u32,
        /// Maximum depth.
        max_depth: u32,
        /// Direction.
        direction: TraversalDirection,
        /// Start-vertex expression (a `collection/key` handle string).
        start: Box<Expr>,
        /// Edge collection name.
        edges: String,
    },
    /// `FILTER expr`
    Filter(Expr),
    /// `LET var = expr`
    Let {
        /// Bound variable.
        var: String,
        /// Value expression.
        value: Expr,
    },
    /// `SORT expr [ASC|DESC] (, expr [ASC|DESC])*`
    Sort(Vec<(Expr, SortOrder)>),
    /// `LIMIT [offset,] count`
    Limit {
        /// Rows to skip.
        offset: usize,
        /// Rows to keep.
        count: usize,
    },
    /// `COLLECT key = expr [INTO group] [AGGREGATE name = F(expr), …]`
    Collect {
        /// Group key: `(var, key expression)`; `None` groups everything
        /// into one group (pure aggregation).
        key: Option<(String, Expr)>,
        /// `INTO` variable collecting the group's scopes as objects.
        into: Option<String>,
        /// Aggregations: `(var, func, argument)`.
        aggregates: Vec<(String, AggFunc, Expr)>,
    },
}

/// A full query: clauses then `RETURN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Pipeline clauses in order.
    pub clauses: Vec<Clause>,
    /// The RETURN expression.
    pub ret: Expr,
    /// `RETURN DISTINCT`?
    pub distinct: bool,
}
