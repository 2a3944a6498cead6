//! Recursive-descent parser for MMQL.

use mmdb_types::{Error, Number, Result, Value};

use crate::ast::*;
use crate::lex::{tokenize, Spanned, Token};

/// Parse an MMQL query.
pub fn parse_query(text: &str) -> Result<Query> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.parse_query()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

/// Parse a standalone MMQL expression (used by tests and the REPL-ish
/// helpers).
pub fn parse_expr(text: &str) -> Result<Expr> {
    let tokens = tokenize(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.parse_expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(e)
}

pub(crate) struct Parser {
    pub(crate) tokens: Vec<Spanned>,
    pub(crate) pos: usize,
}

impl Parser {
    pub(crate) fn err(&self, msg: &str) -> Error {
        let at = self
            .tokens
            .get(self.pos)
            .map(|t| format!("near offset {}", t.offset))
            .unwrap_or_else(|| "at end of input".to_string());
        Error::Parse(format!("mmql: {msg} {at}"))
    }

    pub(crate) fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|t| &t.token)
    }

    pub(crate) fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume a case-insensitive keyword.
    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    pub(crate) fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Token::Punct(x)) if *x == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{p}'")))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            _ => Err(self.err("expected an identifier")),
        }
    }

    pub(crate) fn parse_query(&mut self) -> Result<Query> {
        let mut clauses = Vec::new();
        loop {
            if self.eat_kw("RETURN") {
                let distinct = self.eat_kw("DISTINCT");
                let ret = self.parse_expr()?;
                return Ok(Query { clauses, ret, distinct });
            }
            if self.eat_kw("FOR") {
                clauses.push(self.parse_for()?);
            } else if self.eat_kw("FILTER") {
                clauses.push(Clause::Filter(self.parse_expr()?));
            } else if self.eat_kw("LET") {
                let var = self.expect_ident()?;
                self.expect_punct("=")?;
                clauses.push(Clause::Let { var, value: self.parse_expr()? });
            } else if self.eat_kw("SORT") {
                let mut keys = Vec::new();
                loop {
                    let e = self.parse_expr()?;
                    let order = if self.eat_kw("DESC") {
                        SortOrder::Desc
                    } else {
                        let _ = self.eat_kw("ASC");
                        SortOrder::Asc
                    };
                    keys.push((e, order));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                clauses.push(Clause::Sort(keys));
            } else if self.eat_kw("LIMIT") {
                let first = self.parse_usize()?;
                let (offset, count) = if self.eat_punct(",") {
                    (first, self.parse_usize()?)
                } else {
                    (0, first)
                };
                clauses.push(Clause::Limit { offset, count });
            } else if self.eat_kw("COLLECT") {
                clauses.push(self.parse_collect()?);
            } else {
                return Err(self.err("expected a clause (FOR/FILTER/LET/SORT/LIMIT/COLLECT/RETURN)"));
            }
        }
    }

    fn parse_usize(&mut self) -> Result<usize> {
        match self.bump() {
            Some(Token::Int(i)) if i >= 0 => Ok(i as usize),
            _ => Err(self.err("expected a non-negative integer")),
        }
    }

    fn parse_for(&mut self) -> Result<Clause> {
        let var = self.expect_ident()?;
        if !self.eat_kw("IN") {
            return Err(self.err("expected IN"));
        }
        // Traversal form: `IN <int>..<int> OUTBOUND|INBOUND|ANY start edges`.
        if matches!(self.peek(), Some(Token::Int(_)))
            && matches!(self.peek2(), Some(Token::Punct("..")))
        {
            let min_depth = self.parse_usize()? as u32;
            self.expect_punct("..")?;
            let max_depth = self.parse_usize()? as u32;
            let direction = if self.eat_kw("OUTBOUND") {
                TraversalDirection::Outbound
            } else if self.eat_kw("INBOUND") {
                TraversalDirection::Inbound
            } else if self.eat_kw("ANY") {
                TraversalDirection::Any
            } else {
                return Err(self.err("expected OUTBOUND, INBOUND or ANY"));
            };
            let start = self.parse_postfix_only()?;
            let edges = self.expect_ident()?;
            return Ok(Clause::Traverse {
                var,
                min_depth,
                max_depth,
                direction,
                start: Box::new(start),
                edges,
            });
        }
        Ok(Clause::For { var, source: self.parse_expr()? })
    }

    /// A restricted expression for the traversal start: postfix chains and
    /// calls only — keeps the following edge-collection identifier from
    /// being swallowed by a binary operator.
    fn parse_postfix_only(&mut self) -> Result<Expr> {
        let primary = self.parse_primary()?;
        self.parse_postfix(primary)
    }

    fn parse_collect(&mut self) -> Result<Clause> {
        let mut key = None;
        let mut into = None;
        let mut aggregates = Vec::new();
        if !self.peek_kw("AGGREGATE") && !self.peek_kw("INTO") {
            let var = self.expect_ident()?;
            self.expect_punct("=")?;
            key = Some((var, self.parse_expr()?));
        }
        if self.eat_kw("INTO") {
            into = Some(self.expect_ident()?);
        }
        if self.eat_kw("AGGREGATE") {
            loop {
                let var = self.expect_ident()?;
                self.expect_punct("=")?;
                let fname = self.expect_ident()?.to_uppercase();
                let func = match fname.as_str() {
                    "COUNT" => AggFunc::Count,
                    "SUM" => AggFunc::Sum,
                    "MIN" => AggFunc::Min,
                    "MAX" => AggFunc::Max,
                    "AVG" | "AVERAGE" => AggFunc::Avg,
                    other => return Err(self.err(&format!("unknown aggregate '{other}'"))),
                };
                self.expect_punct("(")?;
                let arg = if matches!(self.peek(), Some(Token::Punct(")"))) {
                    Expr::lit(1) // COUNT()
                } else {
                    self.parse_expr()?
                };
                self.expect_punct(")")?;
                aggregates.push((var, func, arg));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        if key.is_none() && aggregates.is_empty() {
            return Err(self.err("COLLECT needs a key or AGGREGATE"));
        }
        Ok(Clause::Collect { key, into, aggregates })
    }

    // ---- expressions, precedence climbing -------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_or()?;
        if self.eat_punct("?") {
            let a = self.parse_expr()?;
            self.expect_punct(":")?;
            let b = self.parse_expr()?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)));
        }
        Ok(cond)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_punct("||") || self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_cmp()?;
        while self.eat_punct("&&") || self.eat_kw("AND") {
            let right = self.parse_cmp()?;
            left = Expr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let left = self.parse_add()?;
        let op = if self.eat_punct("==") || self.eat_punct("=") {
            // Both == (AQL) and = (SQL-ish) compare for equality.
            Some(BinOp::Eq)
        } else if self.eat_punct("!=") {
            Some(BinOp::Ne)
        } else if self.eat_punct("<=") {
            Some(BinOp::Le)
        } else if self.eat_punct(">=") {
            Some(BinOp::Ge)
        } else if self.eat_punct("<") {
            Some(BinOp::Lt)
        } else if self.eat_punct(">") {
            Some(BinOp::Gt)
        } else if self.eat_kw("IN") {
            Some(BinOp::In)
        } else if self.eat_kw("LIKE") {
            Some(BinOp::Like)
        } else {
            None
        };
        match op {
            Some(op) => {
                let right = self.parse_add()?;
                Ok(Expr::Binary(op, Box::new(left), Box::new(right)))
            }
            None => Ok(left),
        }
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut left = self.parse_mul()?;
        loop {
            let op = if self.eat_punct("+") {
                BinOp::Add
            } else if self.eat_punct("-") {
                BinOp::Sub
            } else {
                return Ok(left);
            };
            let right = self.parse_mul()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = if self.eat_punct("*") {
                BinOp::Mul
            } else if self.eat_punct("/") {
                BinOp::Div
            } else if self.eat_punct("%") {
                BinOp::Mod
            } else {
                return Ok(left);
            };
            let right = self.parse_unary()?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_punct("!") || self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.parse_unary()?)));
        }
        if self.eat_punct("-") {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        let primary = self.parse_primary()?;
        self.parse_postfix(primary)
    }

    fn parse_postfix(&mut self, mut e: Expr) -> Result<Expr> {
        loop {
            if self.eat_punct(".") {
                let name = self.expect_ident()?;
                e = Expr::Field(Box::new(e), name);
            } else if self.eat_punct("[*]") {
                e = Expr::Spread(Box::new(e));
            } else if self.eat_punct("[") {
                let idx = self.parse_expr()?;
                self.expect_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Number(Number::Int(i))))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::from(s)))
            }
            Some(Token::Punct("(")) => {
                self.pos += 1;
                // Subquery or parenthesized expression?
                let is_subquery = ["FOR", "LET", "RETURN", "COLLECT"]
                    .iter()
                    .any(|kw| self.peek_kw(kw));
                if is_subquery {
                    let q = self.parse_query()?;
                    self.expect_punct(")")?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Token::Punct("[")) => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat_punct("]") {
                    loop {
                        items.push(self.parse_expr()?);
                        if self.eat_punct("]") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Array(items))
            }
            Some(Token::Punct("{")) => {
                self.pos += 1;
                let mut fields = Vec::new();
                if !self.eat_punct("}") {
                    loop {
                        let key = match self.bump() {
                            Some(Token::Ident(s)) => s,
                            Some(Token::Str(s)) => s,
                            _ => return Err(self.err("expected an object key")),
                        };
                        self.expect_punct(":")?;
                        fields.push((key, self.parse_expr()?));
                        if self.eat_punct("}") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Object(fields))
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match name.to_uppercase().as_str() {
                    "TRUE" => return Ok(Expr::lit(true)),
                    "FALSE" => return Ok(Expr::lit(false)),
                    "NULL" => return Ok(Expr::Literal(Value::Null)),
                    _ => {}
                }
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    return Ok(Expr::Call(name.to_uppercase(), args));
                }
                Ok(Expr::Var(name))
            }
            _ => Err(self.err("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_recommendation_query_parses() {
        let q = parse_query(
            r#"
            LET ids = (FOR c IN customers FILTER c.credit_limit > 3000 RETURN c._key)
            FOR id IN ids
              FOR friend IN 1..1 OUTBOUND CONCAT("customers/", id) knows
                LET order = DOC("orders", KV_GET("cart", friend._key))
                RETURN order.orderlines[*].product_no
            "#,
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 4);
        assert!(matches!(&q.clauses[0], Clause::Let { var, .. } if var == "ids"));
        assert!(matches!(&q.clauses[2], Clause::Traverse { edges, .. } if edges == "knows"));
        assert!(matches!(&q.ret, Expr::Field(inner, f) if f == "product_no" && matches!(**inner, Expr::Spread(_))));
    }

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // ((1 + (2*3)) == 7) && true
        assert!(matches!(e, Expr::Binary(BinOp::And, _, _)));
        let e = parse_expr("a.b > 3 || c < 4").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn postfix_chains() {
        let e = parse_expr("doc.orders[0].lines[*].price").unwrap();
        let printed = format!("{e:?}");
        assert!(printed.contains("Spread"));
        assert!(printed.contains("Index"));
    }

    #[test]
    fn constructors_and_ternary() {
        let e = parse_expr(r#"{name: c.name, tags: ["a", "b"], ok: x > 1 ? 1 : 0}"#).unwrap();
        assert!(matches!(e, Expr::Object(ref fields) if fields.len() == 3));
        assert_eq!(parse_expr("[]").unwrap(), Expr::Array(vec![]));
        assert_eq!(parse_expr("{}").unwrap(), Expr::Object(vec![]));
    }

    #[test]
    fn collect_forms() {
        let q = parse_query("FOR x IN t COLLECT g = x.grp INTO members RETURN g").unwrap();
        assert!(matches!(&q.clauses[1], Clause::Collect { key: Some(_), into: Some(_), .. }));
        let q = parse_query("FOR x IN t COLLECT AGGREGATE n = COUNT(), s = SUM(x.v) RETURN n").unwrap();
        assert!(
            matches!(&q.clauses[1], Clause::Collect { key: None, aggregates, .. } if aggregates.len() == 2)
        );
        let q = parse_query("FOR x IN t COLLECT g = x.grp AGGREGATE m = MAX(x.v) RETURN [g, m]").unwrap();
        assert!(matches!(&q.clauses[1], Clause::Collect { key: Some(_), aggregates, .. } if aggregates.len() == 1));
    }

    #[test]
    fn sort_and_limit() {
        let q = parse_query("FOR x IN t SORT x.a DESC, x.b LIMIT 5, 10 RETURN x").unwrap();
        assert!(matches!(&q.clauses[1], Clause::Sort(keys) if keys.len() == 2 && keys[0].1 == SortOrder::Desc));
        assert!(matches!(&q.clauses[2], Clause::Limit { offset: 5, count: 10 }));
        let q = parse_query("FOR x IN t LIMIT 3 RETURN DISTINCT x").unwrap();
        assert!(q.distinct);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_query("for x in t filter x.a == 1 return x").is_ok());
        assert!(parse_query("FOR x IN t RETURN x").is_ok());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("FOR x IN RETURN x").is_err());
        assert!(parse_query("FOR x IN t").is_err());
        assert!(parse_query("RETURN").is_err());
        assert!(parse_query("FOR x IN t RETURN x extra").is_err());
        assert!(parse_query("FOR x IN 1..2 SIDEWAYS y knows RETURN x").is_err());
        assert!(parse_expr("{a 1}").is_err());
        assert!(parse_expr("[1,").is_err());
    }

    #[test]
    fn in_and_like_operators() {
        let e = parse_expr("x IN [1,2,3]").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::In, _, _)));
        let e = parse_expr("name LIKE \"Mar%\"").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Like, _, _)));
    }

    #[test]
    fn subquery_vs_parens() {
        let e = parse_expr("(1 + 2)").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Add, _, _)));
        let e = parse_expr("(FOR x IN t RETURN x)").unwrap();
        assert!(matches!(e, Expr::Subquery(_)));
    }
}
