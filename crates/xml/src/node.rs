//! The unified tree: arena nodes with ORDPATH labels.

use mmdb_index::ordpath::{OrdPath, PathIndex};
use mmdb_types::{Error, Result, Value};

/// Index of a node within its [`Tree`].
pub type NodeId = usize;

/// Node kinds of the unified XML/JSON tree.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The auxiliary document root.
    Document,
    /// An element (XML element, or JSON object field / array element slot).
    Element {
        /// Tag / field name.
        name: String,
        /// XML attributes (empty for JSON-derived trees).
        attributes: Vec<(String, String)>,
    },
    /// XML text content.
    Text(String),
    /// A JSON scalar leaf (number, bool, null — strings become `Text`).
    Scalar(Value),
}

/// One arena node.
#[derive(Debug, Clone)]
pub struct Node {
    /// What the node is.
    pub kind: NodeKind,
    /// Parent node (None for the document root).
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
    /// ORDPATH label.
    pub label: OrdPath,
}

/// The tree.
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// A tree with only a document node.
    pub fn new() -> Tree {
        Tree {
            nodes: vec![Node {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
                label: OrdPath::root(),
            }],
        }
    }

    /// The document root id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Node access.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the document node exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Append a child under `parent`, returning the new node's id.
    pub fn append_child(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let n = self.nodes[parent].children.len() as u64;
        let label = self.nodes[parent].label.child(n);
        let id = self.nodes.len();
        self.nodes.push(Node { kind, parent: Some(parent), children: Vec::new(), label });
        self.nodes[parent].children.push(id);
        id
    }

    /// Build a tree from a JSON value (MarkLogic's JSON-as-tree mapping:
    /// object fields and array elements become elements; scalars become
    /// text/scalar leaves).
    pub fn from_json(value: &Value) -> Tree {
        let mut t = Tree::new();
        t.attach_json(0, value, None);
        t
    }

    fn attach_json(&mut self, parent: NodeId, value: &Value, field: Option<&str>) {
        match value {
            Value::Object(obj) => {
                let holder = match field {
                    Some(f) => self.append_child(
                        parent,
                        NodeKind::Element { name: f.to_string(), attributes: Vec::new() },
                    ),
                    None => parent,
                };
                for (k, v) in obj.iter() {
                    self.attach_json(holder, v, Some(k));
                }
            }
            Value::Array(items) => {
                // Each element repeats the field name — `orderlines` with
                // two entries yields two `orderlines` elements, matching
                // the XPath expectations of the paper's example.
                for v in items {
                    self.attach_json(parent, v, field);
                }
                if items.is_empty() {
                    if let Some(f) = field {
                        // An empty array still marks the field's presence.
                        self.append_child(
                            parent,
                            NodeKind::Element { name: f.to_string(), attributes: Vec::new() },
                        );
                    }
                }
            }
            scalar => {
                let holder = match field {
                    Some(f) => self.append_child(
                        parent,
                        NodeKind::Element { name: f.to_string(), attributes: Vec::new() },
                    ),
                    None => parent,
                };
                let leaf = match scalar {
                    Value::String(s) => NodeKind::Text(s.to_string()),
                    other => NodeKind::Scalar(other.clone()),
                };
                self.append_child(holder, leaf);
            }
        }
    }

    /// The element name, if the node is an element.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id].kind {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attribute lookup on an element.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.nodes[id].kind {
            NodeKind::Element { attributes, .. } => attributes
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// String value of a node: concatenated descendant text (XPath
    /// `string()` semantics); scalars stringify.
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id].kind {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Scalar(v) => out.push_str(&v.to_string()),
            _ => {
                for &c in &self.nodes[id].children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Typed value of a node: a lone scalar/text child yields that value,
    /// otherwise the string value.
    pub fn typed_value(&self, id: NodeId) -> Value {
        let node = &self.nodes[id];
        match &node.kind {
            NodeKind::Text(t) => return Value::str(t),
            NodeKind::Scalar(v) => return v.clone(),
            _ => {}
        }
        if node.children.len() == 1 {
            match &self.nodes[node.children[0]].kind {
                NodeKind::Text(t) => return Value::str(t),
                NodeKind::Scalar(v) => return v.clone(),
                _ => {}
            }
        }
        Value::str(self.string_value(id))
    }

    /// All descendant ids of `id` (excluding itself), document order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.nodes[id].children.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.nodes[n].children.iter().rev());
        }
        out
    }

    /// Root-to-node tag path of an element, e.g. `/catalog/product/name`.
    pub fn tag_path(&self, id: NodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if let NodeKind::Element { name, .. } = &self.nodes[c].kind {
                parts.push(name.clone());
            }
            cur = self.nodes[c].parent;
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// Build a path index over all elements — the MarkLogic/Oracle
    /// XMLIndex structure of ablation E8.
    pub fn build_path_index(&self) -> PathIndex<NodeId> {
        let mut idx = PathIndex::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if matches!(node.kind, NodeKind::Element { .. }) {
                idx.insert(&self.tag_path(id), node.label.clone(), id);
            }
        }
        idx
    }

    /// Check label invariants: document order of labels equals document
    /// order of nodes; ancestor labels prefix descendant labels.
    pub fn check_label_invariants(&self) -> Result<()> {
        let descendants = self.descendants(self.root());
        for w in descendants.windows(2) {
            if self.nodes[w[0]].label >= self.nodes[w[1]].label {
                return Err(Error::Internal(format!(
                    "labels out of document order: {} !< {}",
                    self.nodes[w[0]].label, self.nodes[w[1]].label
                )));
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                if !self.nodes[p].label.is_ancestor_of(&node.label) {
                    return Err(Error::Internal(format!(
                        "parent label {} is not an ancestor of {} (node {id})",
                        self.nodes[p].label, node.label
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for Tree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::from_json;

    fn paper_json_tree() -> Tree {
        Tree::from_json(
            &from_json(
                r#"{"Order_no":"0c6df508","Orderlines":[
                    {"Product_no":"2724f","Price":66},
                    {"Product_no":"3424g","Price":40}]}"#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn json_maps_to_elements_like_marklogic() {
        let t = paper_json_tree();
        let root_children: Vec<&str> = t.node(t.root()).children.iter().filter_map(|&c| t.name(c)).collect();
        // Array fields repeat: Order_no, Orderlines, Orderlines.
        assert_eq!(root_children, vec!["Order_no", "Orderlines", "Orderlines"]);
        t.check_label_invariants().unwrap();
    }

    #[test]
    fn string_and_typed_values() {
        let t = paper_json_tree();
        let order_no = t.node(t.root()).children[0];
        assert_eq!(t.string_value(order_no), "0c6df508");
        assert_eq!(t.typed_value(order_no), Value::str("0c6df508"));
        let first_orderlines = t.node(t.root()).children[1];
        let price = t
            .node(first_orderlines)
            .children
            .iter()
            .copied()
            .find(|&c| t.name(c) == Some("Price"))
            .unwrap();
        assert_eq!(t.typed_value(price), Value::int(66));
    }

    #[test]
    fn tag_paths() {
        let t = paper_json_tree();
        let orderlines = t.node(t.root()).children[1];
        let product_no = t.node(orderlines).children[0];
        assert_eq!(t.tag_path(product_no), "/Orderlines/Product_no");
    }

    #[test]
    fn path_index_lookup() {
        let t = paper_json_tree();
        let idx = t.build_path_index();
        let hits = idx.lookup("/Orderlines/Product_no");
        assert_eq!(hits.len(), 2);
        // Document order: first hit is the 2724f one.
        assert_eq!(t.string_value(hits[0].1), "2724f");
        assert_eq!(t.string_value(hits[1].1), "3424g");
    }

    #[test]
    fn descendants_in_document_order() {
        let t = paper_json_tree();
        let d = t.descendants(t.root());
        assert_eq!(d.len(), t.len() - 1);
        // Labels strictly increase.
        assert!(d
            .windows(2)
            .all(|w| t.node(w[0]).label < t.node(w[1]).label));
    }

    #[test]
    fn scalar_kinds_preserved() {
        let t = Tree::from_json(&from_json(r#"{"n":1,"b":true,"z":null,"s":"x"}"#).unwrap());
        let kinds: Vec<Value> = t
            .node(t.root())
            .children
            .iter()
            .map(|&c| t.typed_value(c))
            .collect();
        assert_eq!(kinds, vec![Value::int(1), Value::Bool(true), Value::Null, Value::str("x")]);
    }

    #[test]
    fn empty_array_marks_presence() {
        let t = Tree::from_json(&from_json(r#"{"tags":[]}"#).unwrap());
        let c = t.node(t.root()).children[0];
        assert_eq!(t.name(c), Some("tags"));
        assert!(t.node(c).children.is_empty());
    }

    #[test]
    fn nested_arrays_flatten_in_order() {
        let t = Tree::from_json(&from_json(r#"{"a":[[1,2],[3]]}"#).unwrap());
        // Arrays of arrays: inner scalars end up under repeated `a` elements.
        let values: Vec<String> = t
            .node(t.root())
            .children
            .iter()
            .map(|&c| t.string_value(c))
            .collect();
        assert_eq!(values.concat(), "123");
    }
}
