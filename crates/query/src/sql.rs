//! A SQL `SELECT` frontend over the MMQL algebra.
//!
//! The tutorial's most common language class is "SQL extensions and
//! SQL-like languages" — many syntaxes, one engine. This module proves the
//! architecture by compiling a useful SQL subset onto exactly the same
//! logical plan MMQL uses:
//!
//! ```sql
//! SELECT c.name, o.total
//! FROM customers c JOIN orders o ON o.customer_id = c.id
//! WHERE c.credit_limit > 3000
//! ORDER BY o.total DESC
//! LIMIT 10
//! ```
//!
//! Supported: projection with `AS`, `*`, `FROM` with aliases, inner
//! `JOIN … ON`, `WHERE`, `GROUP BY` + aggregate select items + `HAVING`,
//! `ORDER BY … ASC|DESC`, `LIMIT`/`OFFSET`, `DISTINCT`. JSON path access
//! works inside expressions (`c.orders[0].price`), giving the
//! "SQL/JSON extension" flavour of PostgreSQL/Oracle for free.

use mmdb_types::{Error, Result};

use crate::ast::{AggFunc, Clause, Expr, Query, SortOrder};
use crate::lex::{tokenize, Token};
use crate::parse::Parser;

/// Parse a SQL SELECT into an MMQL [`Query`].
pub fn parse_sql(text: &str) -> Result<Query> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = parse_select(&mut p)?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after SELECT"));
    }
    Ok(q)
}

struct SelectItem {
    expr: Expr,
    alias: Option<String>,
    star: bool,
}

fn parse_select(p: &mut Parser) -> Result<Query> {
    if !p.eat_kw("SELECT") {
        return Err(p.err("expected SELECT"));
    }
    let distinct = p.eat_kw("DISTINCT");
    // Select list.
    let mut items: Vec<SelectItem> = Vec::new();
    loop {
        if p.eat_punct("*") {
            items.push(SelectItem { expr: Expr::lit(0), alias: None, star: true });
        } else {
            let expr = p.parse_expr()?;
            let alias = if p.eat_kw("AS") { Some(p.expect_ident()?) } else { None };
            items.push(SelectItem { expr, alias, star: false });
        }
        if !p.eat_punct(",") {
            break;
        }
    }
    if !p.eat_kw("FROM") {
        return Err(p.err("expected FROM"));
    }
    // FROM table [alias] (JOIN table [alias] ON expr)*
    let mut tables: Vec<(String, String)> = Vec::new(); // (alias, table)
    let mut join_conditions: Vec<Expr> = Vec::new();
    let (alias, table) = parse_table_ref(p)?;
    tables.push((alias, table));
    while p.eat_kw("JOIN") || (p.eat_kw("INNER") && p.eat_kw("JOIN")) {
        let (alias, table) = parse_table_ref(p)?;
        tables.push((alias, table));
        if !p.eat_kw("ON") {
            return Err(p.err("expected ON after JOIN"));
        }
        join_conditions.push(p.parse_expr()?);
    }
    let where_clause = if p.eat_kw("WHERE") { Some(p.parse_expr()?) } else { None };
    let group_by = if p.eat_kw("GROUP") {
        if !p.eat_kw("BY") {
            return Err(p.err("expected BY after GROUP"));
        }
        Some(p.parse_expr()?)
    } else {
        None
    };
    let having = if p.eat_kw("HAVING") {
        if group_by.is_none() {
            return Err(p.err("HAVING requires GROUP BY"));
        }
        Some(p.parse_expr()?)
    } else {
        None
    };
    let mut order_by = Vec::new();
    if p.eat_kw("ORDER") {
        if !p.eat_kw("BY") {
            return Err(p.err("expected BY after ORDER"));
        }
        loop {
            let e = p.parse_expr()?;
            let dir = if p.eat_kw("DESC") {
                SortOrder::Desc
            } else {
                let _ = p.eat_kw("ASC");
                SortOrder::Asc
            };
            order_by.push((e, dir));
            if !p.eat_punct(",") {
                break;
            }
        }
    }
    let mut limit = None;
    if p.eat_kw("LIMIT") {
        let count = match p.bump() {
            Some(Token::Int(i)) if i >= 0 => i as usize,
            _ => return Err(p.err("expected LIMIT count")),
        };
        let offset = if p.eat_kw("OFFSET") {
            match p.bump() {
                Some(Token::Int(i)) if i >= 0 => i as usize,
                _ => return Err(p.err("expected OFFSET count")),
            }
        } else {
            0
        };
        limit = Some((offset, count));
    }

    // ---- compile to the MMQL algebra ------------------------------------
    let aliases: Vec<String> = tables.iter().map(|(a, _)| a.clone()).collect();
    let rewrite = |e: &Expr| -> Result<Expr> { qualify(e, &aliases) };

    let mut clauses = Vec::new();
    for (i, (alias, table)) in tables.iter().enumerate() {
        clauses.push(Clause::For { var: alias.clone(), source: Expr::Var(table.clone()) });
        if i > 0 {
            clauses.push(Clause::Filter(rewrite(&join_conditions[i - 1])?));
        }
    }
    if let Some(w) = &where_clause {
        clauses.push(Clause::Filter(rewrite(w)?));
    }

    let ret: Expr;
    if let Some(key) = &group_by {
        // Grouped query: every select item must be the key or an aggregate.
        let key = rewrite(key)?;
        let mut aggregates = Vec::new();
        let mut fields: Vec<(String, Expr)> = Vec::new();
        let mut agg_n = 0;
        for item in &items {
            if item.star {
                return Err(Error::Parse("sql: SELECT * cannot be grouped".into()));
            }
            let rewritten = rewrite(&item.expr)?;
            if let Some((func, arg)) = as_aggregate(&rewritten) {
                agg_n += 1;
                let var = item.alias.clone().unwrap_or_else(|| format!("agg{agg_n}"));
                aggregates.push((var.clone(), func, arg));
                fields.push((var.clone(), Expr::Var(var)));
            } else if rewritten == key {
                let name = item.alias.clone().unwrap_or_else(|| display_name(&item.expr));
                fields.push((name, Expr::Var("__group_key".into())));
            } else {
                return Err(Error::Parse(
                    "sql: non-aggregate select item must match GROUP BY".into(),
                ));
            }
        }
        // HAVING may also reference aggregates.
        let mut having_expr = None;
        if let Some(h) = &having {
            let rewritten = rewrite(h)?;
            having_expr = Some(replace_aggregates(rewritten, &mut aggregates, &mut agg_n));
        }
        clauses.push(Clause::Collect {
            key: Some(("__group_key".into(), key)),
            into: None,
            aggregates,
        });
        if let Some(h) = having_expr {
            clauses.push(Clause::Filter(h));
        }
        for (e, dir) in order_by {
            let e = replace_aggregates(rewrite(&e)?, &mut Vec::new(), &mut 0);
            clauses.push(Clause::Sort(vec![(group_ref_fixup(e), dir)]));
        }
        ret = Expr::Object(fields);
    } else {
        if !order_by.is_empty() {
            let keys: Result<Vec<(Expr, SortOrder)>> =
                order_by.iter().map(|(e, d)| Ok((rewrite(e)?, *d))).collect();
            clauses.push(Clause::Sort(keys?));
        }
        ret = build_projection(&items, &tables, &rewrite)?;
    }
    if let Some((offset, count)) = limit {
        clauses.push(Clause::Limit { offset, count });
    }
    Ok(Query { clauses, ret, distinct })
}

fn parse_table_ref(p: &mut Parser) -> Result<(String, String)> {
    let table = p.expect_ident()?;
    // Optional alias: an identifier that is not a clause keyword.
    let alias = match p.peek() {
        Some(Token::Ident(s))
            if !matches!(
                s.to_uppercase().as_str(),
                "JOIN" | "INNER" | "WHERE" | "GROUP" | "HAVING" | "ORDER" | "LIMIT" | "ON"
            ) =>
        {
            let a = s.clone();
            p.bump();
            a
        }
        _ => table.clone(),
    };
    Ok((alias, table))
}

/// Qualify bare column references: `name` → `alias.name` when `name` is
/// not itself a table alias. With several tables a bare name is ambiguous.
fn qualify(e: &Expr, aliases: &[String]) -> Result<Expr> {
    Ok(match e {
        Expr::Var(name) => {
            if aliases.contains(name) {
                e.clone()
            } else if aliases.len() == 1 {
                Expr::Field(Box::new(Expr::Var(aliases[0].clone())), name.clone())
            } else {
                return Err(Error::Parse(format!(
                    "sql: column '{name}' is ambiguous; qualify it with a table alias"
                )));
            }
        }
        Expr::Field(base, f) => Expr::Field(Box::new(qualify(base, aliases)?), f.clone()),
        Expr::Index(base, i) => Expr::Index(
            Box::new(qualify(base, aliases)?),
            Box::new(qualify(i, aliases)?),
        ),
        Expr::Spread(base) => Expr::Spread(Box::new(qualify(base, aliases)?)),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(qualify(a, aliases)?),
            Box::new(qualify(b, aliases)?),
        ),
        Expr::Not(a) => Expr::Not(Box::new(qualify(a, aliases)?)),
        Expr::Neg(a) => Expr::Neg(Box::new(qualify(a, aliases)?)),
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter().map(|a| qualify(a, aliases)).collect::<Result<_>>()?,
        ),
        Expr::Array(items) => {
            Expr::Array(items.iter().map(|a| qualify(a, aliases)).collect::<Result<_>>()?)
        }
        Expr::Object(fields) => Expr::Object(
            fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), qualify(v, aliases)?)))
                .collect::<Result<_>>()?,
        ),
        Expr::Ternary(c, a, b) => Expr::Ternary(
            Box::new(qualify(c, aliases)?),
            Box::new(qualify(a, aliases)?),
            Box::new(qualify(b, aliases)?),
        ),
        Expr::Literal(_) | Expr::Subquery(_) | Expr::SubPlan(_) => e.clone(),
    })
}

fn as_aggregate(e: &Expr) -> Option<(AggFunc, Expr)> {
    let Expr::Call(name, args) = e else { return None };
    let func = match name.as_str() {
        "COUNT" => AggFunc::Count,
        "SUM" => AggFunc::Sum,
        "MIN" => AggFunc::Min,
        "MAX" => AggFunc::Max,
        "AVG" => AggFunc::Avg,
        _ => return None,
    };
    Some((func, args.first().cloned().unwrap_or(Expr::lit(1))))
}

/// Replace aggregate calls inside HAVING/ORDER BY with references to
/// (possibly new) aggregate variables.
fn replace_aggregates(
    e: Expr,
    aggregates: &mut Vec<(String, AggFunc, Expr)>,
    agg_n: &mut usize,
) -> Expr {
    if let Some((func, arg)) = as_aggregate(&e) {
        // Reuse an identical existing aggregate.
        if let Some((var, _, _)) = aggregates.iter().find(|(_, f, a)| *f == func && *a == arg) {
            return Expr::Var(var.clone());
        }
        *agg_n += 1;
        let var = format!("agg{agg_n}");
        aggregates.push((var.clone(), func, arg));
        return Expr::Var(var);
    }
    match e {
        Expr::Binary(op, a, b) => Expr::Binary(
            op,
            Box::new(replace_aggregates(*a, aggregates, agg_n)),
            Box::new(replace_aggregates(*b, aggregates, agg_n)),
        ),
        Expr::Not(a) => Expr::Not(Box::new(replace_aggregates(*a, aggregates, agg_n))),
        other => other,
    }
}

/// After COLLECT, group-key references in ORDER BY must use the key var.
fn group_ref_fixup(e: Expr) -> Expr {
    match e {
        // `alias.column` shapes can't survive past COLLECT; sort on the key.
        Expr::Field(_, _) => Expr::Var("__group_key".into()),
        other => other,
    }
}

fn display_name(e: &Expr) -> String {
    match e {
        Expr::Var(n) => n.clone(),
        Expr::Field(_, f) => f.clone(),
        _ => "expr".to_string(),
    }
}

fn build_projection(
    items: &[SelectItem],
    tables: &[(String, String)],
    rewrite: &impl Fn(&Expr) -> Result<Expr>,
) -> Result<Expr> {
    // SELECT * → the row itself (one table) or {alias: row, …}.
    if items.len() == 1 && items[0].star {
        if tables.len() == 1 {
            return Ok(Expr::Var(tables[0].0.clone()));
        }
        return Ok(Expr::Object(
            tables.iter().map(|(a, _)| (a.clone(), Expr::Var(a.clone()))).collect(),
        ));
    }
    // A single unaliased expression → the bare value.
    if items.len() == 1 && items[0].alias.is_none() && !items[0].star {
        return rewrite(&items[0].expr);
    }
    let mut fields = Vec::with_capacity(items.len());
    for item in items {
        if item.star {
            return Err(Error::Parse("sql: '*' cannot be mixed with other select items".into()));
        }
        let name = item.alias.clone().unwrap_or_else(|| display_name(&item.expr));
        fields.push((name, rewrite(&item.expr)?));
    }
    Ok(Expr::Object(fields))
}

#[cfg(test)]
mod tests {
    use crate::run_sql;
    use crate::world::World;
    use mmdb_relational::{ColumnDef, DataType, Schema};
    use mmdb_types::Value;

    fn world() -> World {
        let w = World::in_memory();
        let t = w
            .catalog
            .create_table(
                "customers",
                Schema::new(
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("name", DataType::Text),
                        ColumnDef::new("credit_limit", DataType::Int),
                        ColumnDef::new("orders", DataType::Json),
                    ],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        let orders = mmdb_types::from_json(
            r#"{"Order_no":"0c6df508","Orderlines":[{"Product_no":"2724f","Price":66},{"Product_no":"3424g","Price":40}]}"#,
        )
        .unwrap();
        t.insert(vec![Value::int(1), Value::str("Mary"), Value::int(5000), orders]).unwrap();
        t.insert(vec![Value::int(2), Value::str("John"), Value::int(3000), Value::Null]).unwrap();
        t.insert(vec![Value::int(3), Value::str("Anne"), Value::int(2000), Value::Null]).unwrap();
        let ot = w
            .catalog
            .create_table(
                "purchases",
                Schema::new(
                    vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("customer_id", DataType::Int),
                        ColumnDef::new("total", DataType::Int),
                    ],
                    "id",
                )
                .unwrap(),
            )
            .unwrap();
        for (id, cid, total) in [(1, 1, 100), (2, 1, 50), (3, 2, 75)] {
            ot.insert(vec![Value::int(id), Value::int(cid), Value::int(total)]).unwrap();
        }
        w
    }

    #[test]
    fn basic_select_where_order() {
        let w = world();
        let got = run_sql(
            &w,
            "SELECT name FROM customers WHERE credit_limit >= 3000 ORDER BY credit_limit DESC",
        )
        .unwrap();
        assert_eq!(got, vec![Value::str("Mary"), Value::str("John")]);
    }

    #[test]
    fn select_star_and_projection_objects() {
        let w = world();
        let got = run_sql(&w, "SELECT * FROM customers WHERE id = 1").unwrap();
        assert_eq!(got[0].get_field("name"), &Value::str("Mary"));
        let got = run_sql(&w, "SELECT name, credit_limit AS limit_eur FROM customers WHERE id = 2").unwrap();
        assert_eq!(
            got[0],
            mmdb_types::from_json(r#"{"name":"John","limit_eur":3000}"#).unwrap()
        );
    }

    #[test]
    fn the_paper_postgres_json_query() {
        // Slide 73: SELECT name, orders->>'Order_no', #>'{Orderlines,1}'…
        // Our SQL reaches into JSON with plain path syntax.
        let w = world();
        let got = run_sql(
            &w,
            r#"SELECT name, orders.Order_no AS order_no,
                      orders.Orderlines[1].Product_no AS second_product
               FROM customers WHERE orders.Order_no != NULL"#,
        )
        .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get_field("order_no"), &Value::str("0c6df508"));
        assert_eq!(got[0].get_field("second_product"), &Value::str("3424g"));
    }

    #[test]
    fn joins() {
        let w = world();
        let got = run_sql(
            &w,
            "SELECT c.name, p.total FROM customers c JOIN purchases p ON p.customer_id = c.id \
             ORDER BY p.total DESC",
        )
        .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].get_field("name"), &Value::str("Mary"));
        assert_eq!(got[0].get_field("total"), &Value::int(100));
        assert_eq!(got[2].get_field("total"), &Value::int(50));
    }

    #[test]
    fn group_by_having() {
        let w = world();
        let got = run_sql(
            &w,
            "SELECT c.name, SUM(p.total) AS spent, COUNT() AS n \
             FROM customers c JOIN purchases p ON p.customer_id = c.id \
             GROUP BY c.name HAVING SUM(p.total) > 60 ORDER BY c.name",
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get_field("name"), &Value::str("John"));
        assert_eq!(got[0].get_field("spent"), &Value::int(75));
        assert_eq!(got[1].get_field("name"), &Value::str("Mary"));
        assert_eq!(got[1].get_field("spent"), &Value::int(150));
        assert_eq!(got[1].get_field("n"), &Value::int(2));
    }

    #[test]
    fn distinct_limit_offset() {
        let w = world();
        let got = run_sql(
            &w,
            "SELECT customer_id FROM purchases ORDER BY customer_id LIMIT 2 OFFSET 1",
        )
        .unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(2)]);
        let got = run_sql(&w, "SELECT DISTINCT customer_id FROM purchases ORDER BY customer_id").unwrap();
        assert_eq!(got, vec![Value::int(1), Value::int(2)]);
    }

    #[test]
    fn sql_errors() {
        let w = world();
        assert!(run_sql(&w, "SELECT FROM t").is_err());
        assert!(run_sql(&w, "SELECT a FROM").is_err());
        assert!(run_sql(&w, "SELECT name FROM customers JOIN purchases").is_err());
        assert!(run_sql(&w, "SELECT name, id FROM customers GROUP BY name").is_err());
        assert!(
            run_sql(&w, "SELECT total FROM customers c JOIN purchases p ON p.customer_id = c.id").is_err(),
            "bare column with two tables is ambiguous"
        );
        assert!(run_sql(&w, "SELECT name FROM customers HAVING id > 1").is_err());
    }

    #[test]
    fn three_table_join() {
        let w = world();
        let lt = w
            .catalog
            .create_table(
                "loyalty",
                Schema::new(
                    vec![
                        ColumnDef::new("customer_id", DataType::Int),
                        ColumnDef::new("tier", DataType::Text),
                    ],
                    "customer_id",
                )
                .unwrap(),
            )
            .unwrap();
        lt.insert(vec![Value::int(1), Value::str("gold")]).unwrap();
        lt.insert(vec![Value::int(2), Value::str("silver")]).unwrap();
        let got = run_sql(
            &w,
            "SELECT c.name, l.tier, p.total \
             FROM customers c \
             JOIN purchases p ON p.customer_id = c.id \
             JOIN loyalty l ON l.customer_id = c.id \
             WHERE p.total >= 75 ORDER BY p.total",
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get_field("tier"), &Value::str("silver"));
        assert_eq!(got[1].get_field("name"), &Value::str("Mary"));
        assert_eq!(got[1].get_field("tier"), &Value::str("gold"));
    }

    #[test]
    fn like_and_in_operators_in_where() {
        let w = world();
        let got = run_sql(&w, "SELECT name FROM customers WHERE name LIKE \"M%\"").unwrap();
        assert_eq!(got, vec![Value::str("Mary")]);
        let got = run_sql(&w, "SELECT name FROM customers WHERE id IN [1, 3] ORDER BY name").unwrap();
        assert_eq!(got, vec![Value::str("Anne"), Value::str("Mary")]);
    }

    #[test]
    fn sql_and_mmql_share_the_engine() {
        let w = world();
        let sql = run_sql(&w, "SELECT name FROM customers WHERE credit_limit > 3000").unwrap();
        let mmql = crate::run(&w, "FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.name").unwrap();
        assert_eq!(sql, mmql);
    }
}
