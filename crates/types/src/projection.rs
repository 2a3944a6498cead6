//! [`Projection`]: the parts of a document a reader needs.
//!
//! Sinew and Vertica's flex tables rest on one idea: a query over
//! self-describing documents extracts only the attributes it reads. A
//! projection is that set of attributes, written as the paths a query
//! navigates (`customer_id`, `orderlines[*].product_no`), and
//! [`decode_projected`](crate::codec::decode_projected) decodes only them.
//!
//! The paths compile to a tree of field names. A node applies to an
//! object by keeping the fields it names, each projected by its child,
//! and to an array by projecting every element with the node itself:
//! field access maps over arrays (`o.orderlines.price`), so `[*]` and an
//! index step stay on the node they start from. A scalar is kept whole.
//! Keeping every element, and not just an indexed one, keeps an array's
//! length, so negative indexes and `LENGTH` of a projected path read
//! what they would read of the whole value.

use std::fmt;

use crate::path::{Path, PathStep};
use crate::value::{ObjectMap, Value};

/// Which parts of a value to decode; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    pub(crate) root: Node,
}

/// One node of a projection's tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Node {
    /// The whole value.
    All,
    /// These fields of an object (sorted by name), and of every object
    /// an array holds, at any depth. Each field also records whether a
    /// path stepped into it as an array, for display.
    Fields(Vec<(String, bool, Node)>),
}

impl Projection {
    /// The whole value: what a plain decode produces.
    pub const ALL: Projection = Projection { root: Node::All };

    /// The parts of a value that `paths` reach. An empty path, or one
    /// with no field step, is the whole value; no paths at all keeps an
    /// object's shape but none of its fields.
    pub fn of(paths: impl IntoIterator<Item = Path>) -> Projection {
        let mut root = Node::Fields(Vec::new());
        for path in paths {
            root.add(path.steps());
        }
        Projection { root }
    }

    /// Is this the whole value?
    pub fn is_all(&self) -> bool {
        self.root == Node::All
    }

    /// Does it keep the top-level field `name`?
    pub fn reads(&self, name: &str) -> bool {
        match &self.root {
            Node::All => true,
            Node::Fields(fields) => fields.iter().any(|(n, _, _)| n == name),
        }
    }

    /// Its top-level fields, each kept whole: what a reader that decodes
    /// whole fields (a table's columns) keeps.
    pub fn top_level(&self) -> Projection {
        match &self.root {
            Node::All => Projection::ALL,
            Node::Fields(fields) => Projection {
                root: Node::Fields(fields.iter().map(|(n, _, _)| (n.clone(), false, Node::All)).collect()),
            },
        }
    }

    /// Does it keep some fields, each of them one of `names`?
    pub fn reads_only(&self, names: &[&str]) -> bool {
        match &self.root {
            Node::All => false,
            Node::Fields(fields) => fields.iter().all(|(n, _, _)| names.contains(&n.as_str())),
        }
    }

    /// The projection of an already decoded value: what
    /// [`decode_projected`](crate::codec::decode_projected) returns for
    /// its encoding.
    pub fn apply(&self, value: &Value) -> Value {
        self.root.apply(value)
    }
}

impl Node {
    /// Add one path's steps below this node.
    fn add(&mut self, steps: &[PathStep]) {
        let Node::Fields(fields) = self else { return };
        let Some(at) = steps.iter().position(|s| matches!(s, PathStep::Field(_))) else {
            // Nothing but `[*]` and indexes left: the whole value here.
            *self = Node::All;
            return;
        };
        let PathStep::Field(name) = &steps[at] else { return };
        let rest = &steps[at + 1..];
        let array = rest.first().is_some_and(|s| !matches!(s, PathStep::Field(_)));
        let i = match fields.binary_search_by(|(n, _, _)| n.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                fields.insert(i, (name.clone(), false, Node::Fields(Vec::new())));
                i
            }
        };
        fields[i].1 |= array;
        fields[i].2.add(rest);
    }

    /// The child for field `name`, if this node keeps it.
    pub(crate) fn field(&self, name: &str) -> Option<&Node> {
        match self {
            Node::All => Some(self),
            Node::Fields(fields) => fields.iter().find(|(n, _, _)| n == name).map(|(_, _, c)| c),
        }
    }

    fn apply(&self, value: &Value) -> Value {
        match (self, value) {
            (Node::All, v) => v.clone(),
            (_, Value::Array(items)) => Value::Array(items.iter().map(|i| self.apply(i)).collect()),
            (_, Value::Object(obj)) => {
                let mut out = ObjectMap::new();
                for (name, v) in obj.iter() {
                    if let Some(child) = self.field(name) {
                        out.insert(name, child.apply(v));
                    }
                }
                Value::Object(out)
            }
            (_, scalar) => scalar.clone(),
        }
    }
}

impl Node {
    /// The path to each leaf below this node, after `prefix`: `[*]` marks
    /// a field some path stepped into as an array.
    fn leaves(&self, prefix: &mut Vec<PathStep>, out: &mut Vec<Path>) {
        let Node::Fields(fields) = self else {
            out.push(Path::from_steps(prefix.clone()));
            return;
        };
        for (name, array, child) in fields {
            let depth = prefix.len();
            prefix.push(PathStep::Field(name.clone()));
            if *array && *child != Node::All {
                prefix.push(PathStep::Wildcard);
            }
            child.leaves(prefix, out);
            prefix.truncate(depth);
        }
    }
}

/// The leaves' paths, comma-separated: `customer_id, total`.
impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_all() {
            return f.write_str("*");
        }
        let mut paths = Vec::new();
        self.root.leaves(&mut Vec::new(), &mut paths);
        for (i, p) in paths.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::from_json;

    fn of(paths: &[&str]) -> Projection {
        Projection::of(paths.iter().map(|p| Path::parse(p).unwrap()))
    }

    #[test]
    fn paths_compile_to_a_tree_and_display_its_leaves() {
        let p = of(&["total", "customer_id", "total"]);
        assert_eq!(p.to_string(), "customer_id, total");
        assert!(p.reads("total") && !p.reads("status"));
        assert_eq!(of(&["orderlines[*].product_no"]).to_string(), "orderlines[*].product_no");
        assert_eq!(of(&["a.b", "a.c.d", "e"]).to_string(), "a.b, a.c.d, e");
        // A path below another adds nothing; an index keeps the field of
        // every element.
        assert_eq!(of(&["a", "a[*].b", "a.c"]).to_string(), "a");
        assert_eq!(of(&["a[0].b", "a.b"]).to_string(), "a[*].b");
        assert_eq!(of(&["a[*]"]).to_string(), "a");
        let dotted = Path::from_steps(vec![PathStep::Field("x.y".into()), PathStep::Field("z".into())]);
        assert_eq!(Projection::of([dotted]).to_string(), "\"x.y\".z");
        assert!(of(&[]).to_string().is_empty());
        assert!(!of(&[]).is_all());
        // No field step: the whole value.
        assert!(of(&["[*]"]).is_all());
        assert!(Projection::of([Path::root()]).is_all());
        assert_eq!(Projection::ALL.to_string(), "*");
    }

    #[test]
    fn top_level_keeps_whole_fields_and_reads_only_names_them() {
        assert_eq!(of(&["a.b", "c[*].d", "e"]).top_level().to_string(), "a, c, e");
        assert!(of(&["[*]"]).top_level().is_all());
        assert!(of(&[]).top_level().to_string().is_empty());
        assert!(of(&["_key", "_id"]).reads_only(&["_key", "_id", "_depth"]));
        assert!(of(&[]).reads_only(&["_key"]));
        assert!(!of(&["_key", "name"]).reads_only(&["_key", "_id"]));
        assert!(!Projection::ALL.reads_only(&["_key"]));
    }

    #[test]
    fn a_node_keeps_its_fields_maps_over_arrays_and_keeps_scalars() {
        let doc = from_json(
            r#"{"_key":"k","total":5,"lines":[{"p":"a","q":1},[{"p":"b"}],7,null],"x":{"y":1}}"#,
        )
        .unwrap();
        let got = of(&["lines[*].p", "total"]).apply(&doc);
        assert_eq!(got, from_json(r#"{"total":5,"lines":[{"p":"a"},[{"p":"b"}],7,null]}"#).unwrap());
        assert_eq!(of(&[]).apply(&doc), from_json("{}").unwrap());
        assert_eq!(of(&["x"]).apply(&doc), from_json(r#"{"x":{"y":1}}"#).unwrap());
        assert_eq!(Projection::ALL.apply(&doc), doc);
        assert_eq!(of(&["a"]).apply(&Value::int(3)), Value::int(3));
    }
}
