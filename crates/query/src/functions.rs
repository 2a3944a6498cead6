//! MMQL builtin functions, including the cross-model bridges.
//!
//! The cross-model functions are how MMQL reaches the models that don't
//! appear as `FOR` sources: `KV_GET` (key/value), `DOC` (documents by
//! key), `TRIPLES` (RDF), `XPATH` (XML/JSON trees), `FULLTEXT` /
//! `FULLTEXT_RANKED` (text), `SHORTEST_PATH` / `NEIGHBORS` (graph) and
//! `GEO_WITHIN` (spatial rectangles).

use std::borrow::Cow;

use mmdb_graph::store::split_handle;
use mmdb_graph::Direction;
use mmdb_types::{Error, Projection, Result, Value};

use crate::world::{Container, World};

/// Dispatch a builtin by (uppercased) name. Arguments arrive as the
/// evaluator produced them, borrowed or owned, and are only read.
/// `project` is what the caller reads of each document `DOC` and
/// `FULLTEXT` return (the optimizer's rule 6); every other function
/// ignores it.
pub fn call_function(
    world: &World,
    name: &str,
    args: &[Cow<'_, Value>],
    project: &Projection,
) -> Result<Value> {
    match name {
        // ---- generic -----------------------------------------------------
        "LENGTH" | "COUNT" => {
            let v = arg(args, 0)?;
            Ok(Value::int(match v {
                Value::Array(a) => a.len() as i64,
                Value::Object(o) => o.len() as i64,
                Value::String(s) => s.chars().count() as i64,
                Value::Null => 0,
                _ => 1,
            }))
        }
        "SUM" => Ok(sum_values(array_arg(args, 0)?)),
        "AVG" | "AVERAGE" => {
            let items = array_arg(args, 0)?;
            let nums: Vec<f64> = numeric_items(items);
            if nums.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(Value::float(nums.iter().sum::<f64>() / nums.len() as f64))
            }
        }
        "MIN" => Ok(array_arg(args, 0)?.iter().filter(|v| !v.is_null()).min().cloned().unwrap_or(Value::Null)),
        "MAX" => Ok(array_arg(args, 0)?.iter().max().cloned().unwrap_or(Value::Null)),
        "UNIQUE" => {
            let mut items = array_arg(args, 0)?.to_vec();
            let mut seen = Vec::new();
            items.retain(|v| {
                if seen.contains(v) {
                    false
                } else {
                    seen.push(v.clone());
                    true
                }
            });
            Ok(Value::Array(items))
        }
        "FLATTEN" => {
            let items = array_arg(args, 0)?;
            let mut out = Vec::new();
            for i in items {
                match i {
                    Value::Array(inner) => out.extend(inner.clone()),
                    other => out.push(other.clone()),
                }
            }
            Ok(Value::Array(out))
        }
        "FIRST" => Ok(array_arg(args, 0)?.first().cloned().unwrap_or(Value::Null)),
        "LAST" => Ok(array_arg(args, 0)?.last().cloned().unwrap_or(Value::Null)),
        "APPEND" => {
            let mut a = array_arg(args, 0)?.to_vec();
            a.push(arg(args, 1)?.clone());
            Ok(Value::Array(a))
        }
        "RANGE" => {
            let lo = arg(args, 0)?.as_int()?;
            let hi = arg(args, 1)?.as_int()?;
            Ok(Value::Array((lo..=hi).map(Value::int).collect()))
        }
        "TYPENAME" => Ok(Value::str(arg(args, 0)?.type_name())),
        "NOT_NULL" => Ok(args.iter().find(|v| !v.is_null()).map_or(Value::Null, |v| v.as_ref().clone())),
        // ---- strings -----------------------------------------------------
        "CONCAT" => {
            let mut s = String::new();
            for a in args {
                match a.as_ref() {
                    Value::String(x) => s.push_str(x),
                    Value::Null => {}
                    other => s.push_str(&other.to_string()),
                }
            }
            Ok(Value::from(s))
        }
        "UPPER" => Ok(Value::from(arg(args, 0)?.as_str()?.to_uppercase())),
        "LOWER" => Ok(Value::from(arg(args, 0)?.as_str()?.to_lowercase())),
        "CONTAINS_TEXT" => {
            let hay = arg(args, 0)?.as_str()?;
            let needle = arg(args, 1)?.as_str()?;
            Ok(Value::Bool(hay.contains(needle)))
        }
        "SPLIT" => {
            let s = arg(args, 0)?.as_str()?;
            let sep = arg(args, 1)?.as_str()?;
            Ok(Value::Array(s.split(sep).map(Value::str).collect()))
        }
        "TO_STRING" => Ok(match arg(args, 0)? {
            s @ Value::String(_) => s.clone(),
            other => Value::from(other.to_string()),
        }),
        "TO_NUMBER" => {
            let v = arg(args, 0)?;
            Ok(match v {
                Value::Number(_) => v.clone(),
                Value::String(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::int)
                    .or_else(|_| s.trim().parse::<f64>().map(Value::float))
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            })
        }
        // ---- documents (jsonb operators as functions) ---------------------
        "CONTAINS" => {
            // PostgreSQL @>: CONTAINS(doc, pattern).
            Ok(Value::Bool(arg(args, 0)?.contains(arg(args, 1)?)))
        }
        "HAS_KEY" => {
            let doc = arg(args, 0)?;
            let key = arg(args, 1)?.as_str()?;
            Ok(Value::Bool(matches!(doc, Value::Object(o) if o.contains_key(key))))
        }
        "MERGE" => {
            let mut out = arg(args, 0)?.as_object()?.clone();
            for a in &args[1..] {
                for (k, v) in a.as_object()?.iter() {
                    out.insert(k, v.clone());
                }
            }
            Ok(Value::Object(out))
        }
        "JSON_PARSE" => mmdb_types::from_json(arg(args, 0)?.as_str()?),
        "JSON_STRINGIFY" => Ok(Value::from(mmdb_types::to_json(arg(args, 0)?))),
        // ---- cross-model bridges ------------------------------------------
        "KV_GET" => {
            let bucket = arg(args, 0)?.as_str()?;
            let key = arg(args, 1)?;
            let key_str = match key {
                Value::String(s) => Cow::Borrowed(s.as_str()),
                other => Cow::Owned(other.to_string()),
            };
            Ok(world.catalog.bucket(bucket)?.get(&key_str)?.unwrap_or(Value::Null))
        }
        "DOC" => {
            let coll = arg(args, 0)?.as_str()?;
            match arg(args, 1)? {
                Value::String(key) => {
                    Ok(world.catalog.collection(coll)?.get_projected(key, project)?.unwrap_or(Value::Null))
                }
                Value::Null => Ok(Value::Null),
                other => Err(Error::Type(format!("DOC key must be a string, got {}", other.type_name()))),
            }
        }
        "VERTEX" => {
            // VERTEX("graph", "coll/key"), or VERTEX("coll/key") in the
            // graph whose vertex collection `coll` is.
            let handle = arg(args, args.len() - 1)?.as_str()?;
            let g = if args.len() == 2 {
                world.catalog.graph(arg(args, 0)?.as_str()?)?
            } else {
                match split_handle(handle).ok().and_then(|(coll, _)| world.catalog.get(coll)) {
                    Some(Container::Vertices(g)) => g,
                    _ => return Ok(Value::Null),
                }
            };
            Ok(g.vertex(handle)?.unwrap_or(Value::Null))
        }
        "NEIGHBORS" => {
            // NEIGHBORS(handle, edge_collection, direction?)
            let handle = arg(args, 0)?.as_str()?;
            let edges = arg(args, 1)?.as_str()?;
            let dir = direction_arg(args, 2)?;
            let g = world.catalog.edges(edges)?;
            Ok(Value::Array(
                g.neighbors(handle, dir, Some(edges))?
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            ))
        }
        "SHORTEST_PATH" => {
            // SHORTEST_PATH(from, to, edge_collection, weight_field?)
            let from = arg(args, 0)?.as_str()?;
            let to = arg(args, 1)?.as_str()?;
            let edges = arg(args, 2)?.as_str()?;
            let weight = args.get(3).and_then(|v| v.as_str().ok());
            let g = world.catalog.edges(edges)?;
            match mmdb_graph::shortest_path(&g, from, to, Direction::Outbound, Some(edges), weight)? {
                Some(p) => Ok(Value::object([
                    (
                        "vertices",
                        Value::Array(p.vertices.into_iter().map(Value::from).collect()),
                    ),
                    ("cost", Value::float(p.cost)),
                ])),
                None => Ok(Value::Null),
            }
        }
        "TRIPLES" => {
            // TRIPLES(s|null, p|null, o|null) → array of {s, p, o}.
            let pattern = |i: usize| args.get(i).map(Cow::as_ref).filter(|v| !v.is_null());
            let (s, p, o) = (pattern(0), pattern(1), pattern(2));
            let store = world.rdf.read();
            let candidates: Vec<&mmdb_rdf::Triple> = match (&s, &p, &o) {
                (Some(Value::String(s)), Some(Value::String(p)), _) => {
                    store.by_subject_predicate(s, p)
                }
                (_, Some(Value::String(p)), Some(o)) => store.by_object_predicate(o, p),
                (Some(Value::String(s)), _, _) => store.by_subject(s),
                (_, _, Some(o)) => store.by_object(o),
                _ => store.all(None),
            };
            let out: Vec<Value> = candidates
                .into_iter()
                .filter(|t| {
                    s.is_none_or(|sv| matches!(sv, Value::String(x) if x.as_str() == t.subject))
                        && p.is_none_or(|pv| matches!(pv, Value::String(x) if x.as_str() == t.predicate))
                        && o.is_none_or(|ov| *ov == t.object)
                })
                .map(|t| {
                    Value::object([
                        ("s", Value::str(&t.subject)),
                        ("p", Value::str(&t.predicate)),
                        ("o", t.object.clone()),
                    ])
                })
                .collect();
            Ok(Value::Array(out))
        }
        "XPATH" => {
            // XPATH(doc_name, xpath) → array of values.
            let name = arg(args, 0)?.as_str()?;
            let xp = arg(args, 1)?.as_str()?;
            let tree = world.catalog.tree(name)?;
            let path = mmdb_xml::XPath::parse(xp)?;
            Ok(Value::Array(path.values(&tree, tree.root())?))
        }
        "FULLTEXT" => {
            // FULLTEXT(index_name, query) → array of matching documents.
            let name = arg(args, 0)?.as_str()?;
            let query = arg(args, 1)?.as_str()?;
            let coll = world.catalog.fulltext(name)?;
            Ok(Value::Array(coll.fulltext(name, query, project)?))
        }
        "FULLTEXT_RANKED" => {
            // FULLTEXT_RANKED(index, query, limit) → [{doc, score}].
            let name = arg(args, 0)?.as_str()?;
            let query = arg(args, 1)?.as_str()?;
            let limit = arg(args, 2)?.as_int()? as usize;
            let coll = world.catalog.fulltext(name)?;
            let hits = coll.fulltext_ranked(name, query, limit)?;
            Ok(Value::Array(
                hits.into_iter()
                    .map(|(doc, score)| Value::object([("doc", doc), ("score", Value::float(score))]))
                    .collect(),
            ))
        }
        "GEO_WITHIN" => {
            // GEO_WITHIN(index, x1, y1, x2, y2) → payloads in the window.
            let name = arg(args, 0)?.as_str()?;
            let (x1, y1, x2, y2) = (
                arg(args, 1)?.as_f64()?,
                arg(args, 2)?.as_f64()?,
                arg(args, 3)?.as_f64()?,
                arg(args, 4)?.as_f64()?,
            );
            let sp = world.spatial.read();
            let tree = sp
                .get(name)
                .ok_or_else(|| Error::NotFound(format!("spatial index '{name}'")))?;
            let window = mmdb_index::rtree::Rect::new([x1, y1], [x2, y2]);
            Ok(Value::Array(
                tree.search(&window).into_iter().map(|(_, v)| v.clone()).collect(),
            ))
        }
        "GEO_NEAREST" => {
            // GEO_NEAREST(index, x, y, k) → the k nearest payloads.
            let name = arg(args, 0)?.as_str()?;
            let (x, y) = (arg(args, 1)?.as_f64()?, arg(args, 2)?.as_f64()?);
            let k = arg(args, 3)?.as_int()? as usize;
            let sp = world.spatial.read();
            let tree = sp
                .get(name)
                .ok_or_else(|| Error::NotFound(format!("spatial index '{name}'")))?;
            Ok(Value::Array(
                tree.nearest(x, y, k).into_iter().map(|(_, v)| v.clone()).collect(),
            ))
        }
        other => Err(Error::Query(format!("unknown function '{other}'"))),
    }
}

fn arg<'a>(args: &'a [Cow<'_, Value>], i: usize) -> Result<&'a Value> {
    args.get(i)
        .map(Cow::as_ref)
        .ok_or_else(|| Error::Query(format!("missing argument {}", i + 1)))
}

fn array_arg<'a>(args: &'a [Cow<'_, Value>], i: usize) -> Result<&'a [Value]> {
    match arg(args, i)? {
        Value::Array(a) => Ok(a),
        Value::Null => Ok(&[]),
        other => Err(Error::Type(format!("expected an array, got {}", other.type_name()))),
    }
}

fn numeric_items(items: &[Value]) -> Vec<f64> {
    items
        .iter()
        .filter_map(|v| match v {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        })
        .collect()
}

/// `SUM` over the numbers among `items` (the builtin and the COLLECT
/// aggregate). The result is an integer when every number was one.
pub fn sum_values(items: &[Value]) -> Value {
    let total: f64 = numeric_items(items).iter().sum();
    let all_int = items.iter().all(|v| !matches!(v, Value::Number(n) if !n.is_int()));
    if all_int && total.fract() == 0.0 && total.abs() < 9.0e18 {
        Value::int(total as i64)
    } else {
        Value::float(total)
    }
}

fn direction_arg(args: &[Cow<'_, Value>], i: usize) -> Result<Direction> {
    match args.get(i).map(Cow::as_ref) {
        None | Some(Value::Null) => Ok(Direction::Outbound),
        Some(Value::String(s)) => match s.to_uppercase().as_str() {
            "OUTBOUND" => Ok(Direction::Outbound),
            "INBOUND" => Ok(Direction::Inbound),
            "ANY" => Ok(Direction::Any),
            other => Err(Error::Query(format!("unknown direction '{other}'"))),
        },
        Some(other) => Err(Error::Type(format!(
            "direction must be a string, got {}",
            other.type_name()
        ))),
    }
}
