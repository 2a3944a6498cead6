//! # mmdb-query — MMQL, the unified multi-model query language
//!
//! The tutorial's second open challenge: "a new unified query language
//! can query multi-model data together". MMQL is that language for mmdb —
//! AQL-flavoured (`FOR … FILTER … RETURN`, the shape of the paper's
//! ArangoDB recommendation query) with graph-traversal clauses, document
//! path navigation, grouping/aggregation, and cross-model functions
//! reaching the key/value, RDF, XML and full-text models:
//!
//! ```text
//! LET ids = (FOR c IN customers FILTER c.credit_limit > 3000 RETURN c._key)
//! FOR id IN ids
//!   FOR friend IN 1..1 OUTBOUND CONCAT("customers/", id) knows
//!     LET order = DOC("orders", KV_GET("cart", friend._key))
//!     RETURN order.orderlines[*].product_no
//! ```
//!
//! Pipeline: [`lex`] → [`parse`] → [`plan`] (logical operators) →
//! [`optimize`] (constant folding, subquery planning, index selection,
//! hash joins, projected document reads, early duplicate elimination) →
//! [`exec`] (bindings interpreter over a [`world::World`] of model
//! stores).
//! [`sql`] is a second frontend: a SQL `SELECT` subset compiling onto the
//! same logical plan, demonstrating the "one algebra, many syntaxes"
//! architecture the tutorial ascribes to multi-model engines.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

pub mod ast;
pub mod cancel;
pub mod eval;
pub mod exec;
pub mod functions;
pub mod lex;
pub mod optimize;
pub mod parse;
pub mod plan;
pub mod sql;
pub mod stats;
pub mod world;

pub use cancel::FAILPOINT_SITES;
pub use parse::parse_query;
pub use stats::{ExecStats, OpStats};
pub use world::{Catalog, Container, World};

use mmdb_types::{CancelToken, Result, Value};

/// Parse, plan, optimize and run an MMQL query against a world.
pub fn run(world: &World, text: &str) -> Result<Vec<Value>> {
    run_with(world, text, &CancelToken::none())
}

/// Like [`run`], under a cancellation token: the executor checks it
/// cooperatively in every scan/join/traversal loop and aborts with a
/// retryable `deadline_exceeded` error once it trips.
pub fn run_with(world: &World, text: &str, cancel: &CancelToken) -> Result<Vec<Value>> {
    let _scope = cancel::scope(cancel);
    exec::execute_plan(world, &optimized(world, text, parse_query)?)
}

/// Parse and run a SQL SELECT against a world.
pub fn run_sql(world: &World, text: &str) -> Result<Vec<Value>> {
    run_sql_with(world, text, &CancelToken::none())
}

/// Like [`run_sql`], under a cancellation token.
pub fn run_sql_with(world: &World, text: &str, cancel: &CancelToken) -> Result<Vec<Value>> {
    let _scope = cancel::scope(cancel);
    exec::execute_plan(world, &optimized(world, text, sql::parse_sql)?)
}

/// Like [`run_with`], but collect an [`ExecStats`] runtime profile —
/// per operator: rows in/out, wall time, access path taken. This is the
/// `EXPLAIN ANALYZE` / slow-query-log execution path.
pub fn run_traced(
    world: &World,
    text: &str,
    cancel: &CancelToken,
) -> Result<(Vec<Value>, ExecStats)> {
    let _scope = cancel::scope(cancel);
    exec::execute_plan_traced(world, &optimized(world, text, parse_query)?)
}

/// Like [`run_sql_with`], with an [`ExecStats`] runtime profile.
pub fn run_sql_traced(
    world: &World,
    text: &str,
    cancel: &CancelToken,
) -> Result<(Vec<Value>, ExecStats)> {
    let _scope = cancel::scope(cancel);
    exec::execute_plan_traced(world, &optimized(world, text, sql::parse_sql)?)
}

/// Parse `text` with `parse` (MMQL or SQL), then plan and optimize it.
fn optimized(world: &World, text: &str, parse: fn(&str) -> Result<ast::Query>) -> Result<plan::Plan> {
    Ok(optimize::optimize(plan::build_plan(&parse(text)?)?, world))
}
