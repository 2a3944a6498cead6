//! MMQL expression evaluation.
//!
//! Null-forgiving navigation (missing field → null), AQL truthiness in
//! boolean contexts, numeric arithmetic with int preservation, and
//! auto-mapping field access over arrays (so `orders[*].product_no` works
//! as in the paper's AQL example).

use mmdb_types::{Error, Number, Result, Value};

use crate::ast::{BinOp, Expr};
use crate::exec::{execute_subquery, Env, ExecCtx};
use crate::functions::call_function;
use crate::plan::build_plan;

/// Evaluate an expression in an environment, within one execution.
pub fn eval_expr(cx: &ExecCtx, env: &Env, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| Error::Query(format!("unbound variable '{name}'"))),
        Expr::Field(base, name) => {
            let b = eval_expr(cx, env, base)?;
            Ok(get_field_mapping(&b, name))
        }
        Expr::Index(base, idx) => {
            let b = eval_expr(cx, env, base)?;
            let i = eval_expr(cx, env, idx)?;
            match &i {
                Value::Number(n) => Ok(b.get_index(n.as_i64().ok_or_else(|| {
                    Error::Type("array index must be an integer".into())
                })?)
                .clone()),
                Value::String(s) => Ok(b.get_field(s).clone()),
                _ => Err(Error::Type(format!(
                    "cannot index with a {}",
                    i.type_name()
                ))),
            }
        }
        Expr::Spread(base) => {
            let b = eval_expr(cx, env, base)?;
            Ok(match b {
                Value::Array(items) => Value::Array(items),
                _ => Value::Array(Vec::new()),
            })
        }
        Expr::Binary(op, l, r) => eval_binary(cx, env, *op, l, r),
        Expr::Not(e) => Ok(Value::Bool(!eval_expr(cx, env, e)?.is_truthy())),
        Expr::Neg(e) => {
            let v = eval_expr(cx, env, e)?;
            match v {
                Value::Number(Number::Int(i)) => Ok(Value::int(-i)),
                Value::Number(Number::Float(f)) => Ok(Value::float(-f)),
                other => Err(Error::Type(format!("cannot negate {}", other.type_name()))),
            }
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            // lint: allow(tick, iterates call arguments in the AST, bounded by query text)
            for a in args {
                vals.push(eval_expr(cx, env, a)?);
            }
            call_function(cx.world, name, vals)
        }
        Expr::Array(items) => {
            let mut out = Vec::with_capacity(items.len());
            // lint: allow(tick, iterates array-literal elements in the AST, bounded by query text)
            for i in items {
                out.push(eval_expr(cx, env, i)?);
            }
            Ok(Value::Array(out))
        }
        Expr::Object(fields) => {
            let mut obj = mmdb_types::value::ObjectMap::new();
            // lint: allow(tick, iterates object-literal fields in the AST, bounded by query text)
            for (k, e) in fields {
                obj.insert(k.clone(), eval_expr(cx, env, e)?);
            }
            Ok(Value::Object(obj))
        }
        Expr::SubPlan(plan) => Ok(Value::Array(execute_subquery(cx, plan, env.clone())?)),
        // Only a plan that never went through `optimize` still holds a
        // parsed subquery; it runs as parsed, every FOR a nested loop.
        Expr::Subquery(q) => {
            Ok(Value::Array(execute_subquery(cx, &build_plan(q)?, env.clone())?))
        }
        Expr::Ternary(c, a, b) => {
            if eval_expr(cx, env, c)?.is_truthy() {
                eval_expr(cx, env, a)
            } else {
                eval_expr(cx, env, b)
            }
        }
    }
}

/// Field access with auto-mapping over arrays: `array.field` maps the
/// access over elements (this is what makes `x[*].f` chains work).
fn get_field_mapping(base: &Value, name: &str) -> Value {
    match base {
        Value::Array(items) => {
            Value::Array(items.iter().map(|i| get_field_mapping(i, name)).collect())
        }
        other => other.get_field(name).clone(),
    }
}

fn eval_binary(cx: &ExecCtx, env: &Env, op: BinOp, l: &Expr, r: &Expr) -> Result<Value> {
    // Short-circuit booleans first.
    match op {
        BinOp::And => {
            let lv = eval_expr(cx, env, l)?;
            if !lv.is_truthy() {
                return Ok(Value::Bool(false));
            }
            return Ok(Value::Bool(eval_expr(cx, env, r)?.is_truthy()));
        }
        BinOp::Or => {
            let lv = eval_expr(cx, env, l)?;
            if lv.is_truthy() {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(eval_expr(cx, env, r)?.is_truthy()));
        }
        _ => {}
    }
    let lv = eval_expr(cx, env, l)?;
    let rv = eval_expr(cx, env, r)?;
    Ok(match op {
        BinOp::Eq => Value::Bool(lv == rv),
        BinOp::Ne => Value::Bool(lv != rv),
        BinOp::Lt => Value::Bool(lv < rv),
        BinOp::Le => Value::Bool(lv <= rv),
        BinOp::Gt => Value::Bool(lv > rv),
        BinOp::Ge => Value::Bool(lv >= rv),
        BinOp::In => match &rv {
            Value::Array(items) => Value::Bool(items.contains(&lv)),
            _ => Value::Bool(false),
        },
        BinOp::Like => Value::Bool(match (&lv, &rv) {
            (Value::String(s), Value::String(p)) => like_match(s, p),
            _ => false,
        }),
        BinOp::Add => arith(&lv, &rv, op)?,
        BinOp::Sub => arith(&lv, &rv, op)?,
        BinOp::Mul => arith(&lv, &rv, op)?,
        BinOp::Div => arith(&lv, &rv, op)?,
        BinOp::Mod => arith(&lv, &rv, op)?,
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
        let mut env = Env::new();
        env.insert(
            "doc".to_string(),
            mmdb_types::from_json(
                r#"{"name":"Mary","credit":5000,"orders":[{"price":66},{"price":40}]}"#,
            )
            .unwrap(),
        );
        eval_expr(&ExecCtx::new(&w), &env, &parse_expr(text)?)
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
