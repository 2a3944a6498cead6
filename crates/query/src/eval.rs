//! MMQL expression evaluation.
//!
//! Null-forgiving navigation (missing field → null), AQL truthiness in
//! boolean contexts, numeric arithmetic with int preservation, and
//! auto-mapping field access over arrays (so `orders[*].product_no` works
//! as in the paper's AQL example).

use std::borrow::Cow;

use mmdb_types::{Error, Number, Result, Value};

use crate::ast::{BinOp, Expr};
use crate::exec::{execute_subquery, ExecCtx, Scope};
use crate::functions::call_function;
use crate::plan::build_plan;

/// Evaluate an expression in a scope, within one execution.
///
/// Navigation borrows: a literal is lent by the plan, a variable by the
/// scope, and a field or index of a borrowed value is a borrow into it;
/// comparisons, truthiness and function calls read their operands
/// through the borrow. Only what makes a new value allocates —
/// constructors, calls, arithmetic, subqueries and field access mapped
/// over an array — and a field or index of such an owned value is moved
/// out of it rather than cloned.
pub fn eval_expr<'a>(cx: &ExecCtx, scope: Scope<'a>, expr: &'a Expr) -> Result<Cow<'a, Value>> {
    Ok(match expr {
        Expr::Literal(v) => Cow::Borrowed(v),
        Expr::Var(name) => Cow::Borrowed(
            scope
                .get(name)
                .ok_or_else(|| Error::Query(format!("unbound variable '{name}'")))?,
        ),
        Expr::Field(base, name) => {
            let b = eval_expr(cx, scope, base)?;
            match &*b {
                // `array.field` maps the access over the elements (this
                // is what makes `x[*].f` chains work).
                Value::Array(_) => Cow::Owned(get_field_mapping(&b, name)),
                _ => field_of(b, name),
            }
        }
        Expr::Index(base, idx) => {
            let b = eval_expr(cx, scope, base)?;
            let i = eval_expr(cx, scope, idx)?;
            match &*i {
                Value::Number(n) => {
                    let n = n
                        .as_i64()
                        .ok_or_else(|| Error::Type("array index must be an integer".into()))?;
                    match b {
                        Cow::Borrowed(b) => Cow::Borrowed(b.get_index(n)),
                        Cow::Owned(b) => Cow::Owned(b.into_index(n)),
                    }
                }
                Value::String(s) => field_of(b, s),
                _ => {
                    return Err(Error::Type(format!("cannot index with a {}", i.type_name())));
                }
            }
        }
        Expr::Spread(base) => {
            let b = eval_expr(cx, scope, base)?;
            match &*b {
                Value::Array(_) => b,
                _ => Cow::Owned(Value::Array(Vec::new())),
            }
        }
        Expr::Binary(op, l, r) => Cow::Owned(eval_binary(cx, scope, *op, l, r)?),
        Expr::Not(e) => Cow::Owned(Value::Bool(!eval_expr(cx, scope, e)?.is_truthy())),
        Expr::Neg(e) => Cow::Owned(match &*eval_expr(cx, scope, e)? {
            Value::Number(Number::Int(i)) => Value::int(-i),
            Value::Number(Number::Float(f)) => Value::float(-f),
            other => return Err(Error::Type(format!("cannot negate {}", other.type_name()))),
        }),
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            // lint: allow(tick, iterates call arguments in the AST, bounded by query text)
            for a in args {
                vals.push(eval_expr(cx, scope, a)?);
            }
            Cow::Owned(call_function(cx.world, name, &vals)?)
        }
        Expr::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            // lint: allow(tick, iterates array-literal elements in the AST, bounded by query text)
            for i in items {
                out.push(eval_expr(cx, scope, i)?.into_owned());
            }
            Cow::Owned(Value::Array(out))
        }
        Expr::Object(fields) => {
            let mut obj = mmdb_types::value::ObjectMap::new();
            // lint: allow(tick, iterates object-literal fields in the AST, bounded by query text)
            for (k, e) in fields {
                obj.insert(k.clone(), eval_expr(cx, scope, e)?.into_owned());
            }
            Cow::Owned(Value::Object(obj))
        }
        Expr::SubPlan(plan) => Cow::Owned(Value::Array(execute_subquery(cx, plan, scope.to_env())?)),
        // Only a plan that never went through `optimize` still holds a
        // parsed subquery; it runs as parsed, every FOR a nested loop.
        Expr::Subquery(q) => {
            Cow::Owned(Value::Array(execute_subquery(cx, &build_plan(q)?, scope.to_env())?))
        }
        Expr::Ternary(c, a, b) => {
            if eval_expr(cx, scope, c)?.is_truthy() {
                eval_expr(cx, scope, a)?
            } else {
                eval_expr(cx, scope, b)?
            }
        }
    })
}

/// `base.name` where `base` is not an array: a borrow into a borrowed
/// base, the field itself out of an owned one.
fn field_of<'a>(base: Cow<'a, Value>, name: &str) -> Cow<'a, Value> {
    match base {
        Cow::Borrowed(b) => Cow::Borrowed(b.get_field(name)),
        Cow::Owned(b) => Cow::Owned(b.into_field(name)),
    }
}

/// Field access with auto-mapping over arrays, nested arrays included.
fn get_field_mapping(base: &Value, name: &str) -> Value {
    match base {
        Value::Array(items) => {
            Value::Array(items.iter().map(|i| get_field_mapping(i, name)).collect())
        }
        other => other.get_field(name).clone(),
    }
}

fn eval_binary(cx: &ExecCtx, scope: Scope, op: BinOp, l: &Expr, r: &Expr) -> Result<Value> {
    // Short-circuit booleans first.
    match op {
        BinOp::And => {
            return Ok(Value::Bool(
                eval_expr(cx, scope, l)?.is_truthy() && eval_expr(cx, scope, r)?.is_truthy(),
            ));
        }
        BinOp::Or => {
            return Ok(Value::Bool(
                eval_expr(cx, scope, l)?.is_truthy() || eval_expr(cx, scope, r)?.is_truthy(),
            ));
        }
        _ => {}
    }
    let (lv, rv) = (eval_expr(cx, scope, l)?, eval_expr(cx, scope, r)?);
    let (lv, rv) = (&*lv, &*rv);
    Ok(match op {
        BinOp::Eq => Value::Bool(lv == rv),
        BinOp::Ne => Value::Bool(lv != rv),
        BinOp::Lt => Value::Bool(lv < rv),
        BinOp::Le => Value::Bool(lv <= rv),
        BinOp::Gt => Value::Bool(lv > rv),
        BinOp::Ge => Value::Bool(lv >= rv),
        BinOp::In => match rv {
            Value::Array(items) => Value::Bool(items.contains(lv)),
            _ => Value::Bool(false),
        },
        BinOp::Like => Value::Bool(match (lv, rv) {
            (Value::String(s), Value::String(p)) => like_match(s, p),
            _ => false,
        }),
        BinOp::Add => arith(lv, rv, op)?,
        BinOp::Sub => arith(lv, rv, op)?,
        BinOp::Mul => arith(lv, rv, op)?,
        BinOp::Div => arith(lv, rv, op)?,
        BinOp::Mod => arith(lv, rv, op)?,
        // lint: allow(panic, And/Or short-circuit in the caller before this match)
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    })
}

fn arith(l: &Value, r: &Value, op: BinOp) -> Result<Value> {
    // String + string concatenates (SQL-ish convenience).
    if op == BinOp::Add {
        if let (Value::String(a), Value::String(b)) = (l, r) {
            return Ok(Value::String(format!("{a}{b}")));
        }
    }
    let (Value::Number(a), Value::Number(b)) = (l, r) else {
        return Err(Error::Type(format!(
            "arithmetic needs numbers, got {} and {}",
            l.type_name(),
            r.type_name()
        )));
    };
    // Integer arithmetic when both are ints (except division, which
    // promotes unless it divides evenly — AQL returns exact results).
    if let (Number::Int(x), Number::Int(y)) = (a, b) {
        return Ok(match op {
            BinOp::Add => Value::int(x.wrapping_add(*y)),
            BinOp::Sub => Value::int(x.wrapping_sub(*y)),
            BinOp::Mul => Value::int(x.wrapping_mul(*y)),
            BinOp::Div => {
                if *y == 0 {
                    return Err(Error::Query("division by zero".into()));
                }
                if x % y == 0 {
                    Value::int(x / y)
                } else {
                    Value::float(*x as f64 / *y as f64)
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    return Err(Error::Query("modulo by zero".into()));
                }
                Value::int(x % y)
            }
            // lint: allow(panic, arith is only called with arithmetic BinOps)
            _ => unreachable!(),
        });
    }
    let (x, y) = (a.as_f64(), b.as_f64());
    Ok(match op {
        BinOp::Add => Value::float(x + y),
        BinOp::Sub => Value::float(x - y),
        BinOp::Mul => Value::float(x * y),
        BinOp::Div => {
            if y == 0.0 {
                return Err(Error::Query("division by zero".into()));
            }
            Value::float(x / y)
        }
        BinOp::Mod => Value::float(x % y),
        // lint: allow(panic, arith is only called with arithmetic BinOps)
        _ => unreachable!(),
    })
}

/// SQL LIKE with `%` (any run) and `_` (any char), case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|i| rec(&s[i..], &p[1..])),
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;

    fn ev(text: &str) -> Result<Value> {
        let w = crate::World::in_memory();
        let mut env = crate::exec::Env::new();
        env.insert(
            "doc".to_string(),
            mmdb_types::from_json(
                r#"{"name":"Mary","credit":5000,"orders":[{"price":66},{"price":40}]}"#,
            )
            .unwrap(),
        );
        Ok(eval_expr(&ExecCtx::new(&w), env.scope(), &parse_expr(text)?)?.into_owned())
    }

    #[test]
    fn navigation_and_spread() {
        assert_eq!(ev("doc.name").unwrap(), Value::str("Mary"));
        assert_eq!(ev("doc.orders[0].price").unwrap(), Value::int(66));
        assert_eq!(ev("doc.orders[-1].price").unwrap(), Value::int(40));
        assert_eq!(
            ev("doc.orders[*].price").unwrap(),
            Value::array([Value::int(66), Value::int(40)])
        );
        assert_eq!(ev("doc.missing.deeper").unwrap(), Value::Null);
        assert_eq!(ev("doc.name[*]").unwrap(), Value::array([]));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1 + 2 * 3").unwrap(), Value::int(7));
        assert_eq!(ev("7 / 2").unwrap(), Value::float(3.5));
        assert_eq!(ev("8 / 2").unwrap(), Value::int(4));
        assert_eq!(ev("7 % 3").unwrap(), Value::int(1));
        assert_eq!(ev("1.5 + 1").unwrap(), Value::float(2.5));
        assert_eq!(ev("\"a\" + \"b\"").unwrap(), Value::str("ab"));
        assert!(ev("1 / 0").is_err());
        assert!(ev("\"a\" * 2").is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("doc.credit > 3000").unwrap(), Value::Bool(true));
        assert_eq!(ev("doc.credit > 3000 && doc.name == \"Mary\"").unwrap(), Value::Bool(true));
        assert_eq!(ev("false || doc.credit >= 5000").unwrap(), Value::Bool(true));
        assert_eq!(ev("!doc.missing").unwrap(), Value::Bool(true));
        assert_eq!(ev("2 IN [1,2,3]").unwrap(), Value::Bool(true));
        assert_eq!(ev("5 IN doc.orders[*].price").unwrap(), Value::Bool(false));
        assert_eq!(ev("66 IN doc.orders[*].price").unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Mary", "Mar%"));
        assert!(like_match("Mary", "M_ry"));
        assert!(like_match("Mary", "%"));
        assert!(!like_match("Mary", "mar%"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert_eq!(ev("doc.name LIKE \"M%y\"").unwrap(), Value::Bool(true));
    }

    #[test]
    fn constructors_and_ternary() {
        assert_eq!(
            ev("{n: doc.name, rich: doc.credit > 4000 ? \"yes\" : \"no\"}").unwrap(),
            mmdb_types::from_json(r#"{"n":"Mary","rich":"yes"}"#).unwrap()
        );
        assert_eq!(ev("[1, doc.credit]").unwrap(), Value::array([Value::int(1), Value::int(5000)]));
    }

    #[test]
    fn unbound_variable_errors() {
        assert!(matches!(ev("nosuchvar"), Err(Error::Query(_))));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // RHS would divide by zero; short circuit must prevent that.
        assert_eq!(ev("false && (1 / 0 == 1)").unwrap(), Value::Bool(false));
        assert_eq!(ev("true || (1 / 0 == 1)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn negation() {
        assert_eq!(ev("-doc.credit").unwrap(), Value::int(-5000));
        assert_eq!(ev("-(1.5)").unwrap(), Value::float(-1.5));
        assert!(ev("-doc.name").is_err());
    }
}
