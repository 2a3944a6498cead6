//! Subgraph pattern matching: bind variables over vertices so that every
//! edge pattern is realized — the graph-side ancestor of the "inter-model
//! joins" the tutorial's challenge list calls for.

use std::collections::HashMap;

use mmdb_types::{Result, Value};

use crate::store::{Direction, Graph, VertexHandle};

/// One edge constraint in a pattern: `from_var —edge_collection→ to_var`,
/// optionally requiring the edge document to contain `edge_filter`.
#[derive(Debug, Clone)]
pub struct EdgePattern {
    /// Variable bound to the source vertex.
    pub from_var: String,
    /// Edge collection to match (`None` = any).
    pub edge_collection: Option<String>,
    /// Variable bound to the target vertex.
    pub to_var: String,
    /// Containment filter on the edge document.
    pub edge_filter: Option<Value>,
}

/// A full pattern: edge constraints plus per-variable vertex filters
/// (containment patterns on the vertex document).
#[derive(Debug, Clone, Default)]
pub struct GraphPattern {
    /// Edge constraints.
    pub edges: Vec<EdgePattern>,
    /// Vertex filters: variable → containment pattern.
    pub vertex_filters: HashMap<String, Value>,
}

impl GraphPattern {
    /// New empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an edge constraint, builder-style.
    pub fn edge(mut self, from_var: &str, collection: &str, to_var: &str) -> Self {
        self.edges.push(EdgePattern {
            from_var: from_var.to_string(),
            edge_collection: Some(collection.to_string()),
            to_var: to_var.to_string(),
            edge_filter: None,
        });
        self
    }

    /// Add a vertex containment filter, builder-style.
    pub fn filter(mut self, var: &str, pattern: Value) -> Self {
        self.vertex_filters.insert(var.to_string(), pattern);
        self
    }

    /// Find all bindings of variables to vertex handles satisfying the
    /// pattern. Distinct variables may bind to the same vertex (no
    /// isomorphism constraint), matching SPARQL/Cypher-`MATCH` semantics.
    pub fn matches(&self, graph: &Graph) -> Result<Vec<HashMap<String, VertexHandle>>> {
        let mut results = Vec::new();
        let mut binding: HashMap<String, VertexHandle> = HashMap::new();
        self.search(graph, 0, &mut binding, &mut results)?;
        Ok(results)
    }

    fn vertex_ok(&self, graph: &Graph, var: &str, handle: &str) -> Result<bool> {
        if let Some(pattern) = self.vertex_filters.get(var) {
            let Some(doc) = graph.vertex(handle)? else { return Ok(false) };
            return Ok(doc.contains(pattern));
        }
        Ok(true)
    }

    fn search(
        &self,
        graph: &Graph,
        edge_idx: usize,
        binding: &mut HashMap<String, VertexHandle>,
        results: &mut Vec<HashMap<String, VertexHandle>>,
    ) -> Result<()> {
        if edge_idx == self.edges.len() {
            results.push(binding.clone());
            return Ok(());
        }
        let ep = &self.edges[edge_idx];
        // Candidate source vertices: bound value or all vertices.
        let from_candidates: Vec<VertexHandle> = match binding.get(&ep.from_var) {
            Some(v) => vec![v.clone()],
            None => graph.all_vertices()?,
        };
        for from in from_candidates {
            if !self.vertex_ok(graph, &ep.from_var, &from)? {
                continue;
            }
            let from_was_bound = binding.contains_key(&ep.from_var);
            binding.insert(ep.from_var.clone(), from.clone());
            for edge in graph.edges_of(&from, Direction::Outbound, ep.edge_collection.as_deref())? {
                if let Some(f) = &ep.edge_filter {
                    if !edge.contains(f) {
                        continue;
                    }
                }
                let to = edge.get_field(crate::store::TO_FIELD).as_str()?.to_string();
                match binding.get(&ep.to_var) {
                    Some(bound) if bound != &to => continue,
                    _ => {}
                }
                if !self.vertex_ok(graph, &ep.to_var, &to)? {
                    continue;
                }
                let to_was_bound = binding.contains_key(&ep.to_var);
                binding.insert(ep.to_var.clone(), to);
                self.search(graph, edge_idx + 1, binding, results)?;
                if !to_was_bound {
                    binding.remove(&ep.to_var);
                }
            }
            if !from_was_bound {
                binding.remove(&ep.from_var);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::from_json;
    use std::sync::Arc;

    /// Mary —knows→ John —knows→ Anne; Mary —knows→ Anne.
    fn triangle() -> Graph {
        let g = Graph::create("g", Arc::default());
        g.create_vertex_collection("c").unwrap();
        g.create_edge_collection("knows").unwrap();
        for (k, n, limit) in [("1", "Mary", 5000), ("2", "John", 3000), ("3", "Anne", 2000)] {
            g.add_vertex("c", from_json(&format!(r#"{{"_key":"{k}","name":"{n}","credit_limit":{limit}}}"#)).unwrap()).unwrap();
        }
        g.add_edge("knows", "c/1", "c/2", from_json(r#"{"since":2010}"#).unwrap()).unwrap();
        g.add_edge("knows", "c/2", "c/3", from_json(r#"{"since":2020}"#).unwrap()).unwrap();
        g.add_edge("knows", "c/1", "c/3", from_json(r#"{"since":2021}"#).unwrap()).unwrap();
        g
    }

    #[test]
    fn single_edge_pattern_finds_all_edges() {
        let g = triangle();
        let m = GraphPattern::new().edge("x", "knows", "y").matches(&g).unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn vertex_filters_restrict() {
        let g = triangle();
        let m = GraphPattern::new()
            .edge("x", "knows", "y")
            .filter("x", from_json(r#"{"name":"Mary"}"#).unwrap())
            .matches(&g)
            .unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|b| b["x"] == "c/1"));
    }

    #[test]
    fn two_hop_chain() {
        let g = triangle();
        let m = GraphPattern::new()
            .edge("a", "knows", "b")
            .edge("b", "knows", "c")
            .matches(&g)
            .unwrap();
        // Only Mary→John→Anne chains (c/1→c/2→c/3).
        assert_eq!(m.len(), 1);
        assert_eq!(m[0]["a"], "c/1");
        assert_eq!(m[0]["b"], "c/2");
        assert_eq!(m[0]["c"], "c/3");
    }

    #[test]
    fn edge_filters() {
        let g = triangle();
        let mut p = GraphPattern::new().edge("x", "knows", "y");
        p.edges[0].edge_filter = Some(from_json(r#"{"since":2021}"#).unwrap());
        let m = p.matches(&g).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0]["y"], "c/3");
    }

    #[test]
    fn shared_variable_joins() {
        let g = triangle();
        // Who do both Mary and John know? x=Mary-ish var... pattern:
        // m —knows→ t, j —knows→ t with filters on m and j.
        let m = GraphPattern::new()
            .edge("m", "knows", "t")
            .edge("j", "knows", "t")
            .filter("m", from_json(r#"{"name":"Mary"}"#).unwrap())
            .filter("j", from_json(r#"{"name":"John"}"#).unwrap())
            .matches(&g)
            .unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0]["t"], "c/3", "Anne is known by both");
    }

    #[test]
    fn empty_when_no_match() {
        let g = triangle();
        let m = GraphPattern::new()
            .edge("x", "likes", "y")
            .matches(&g);
        // Unknown edge collection: edges_of returns empty, so no matches.
        assert!(m.unwrap().is_empty());
        let m = GraphPattern::new()
            .edge("x", "knows", "y")
            .filter("x", from_json(r#"{"name":"Zeus"}"#).unwrap())
            .matches(&g)
            .unwrap();
        assert!(m.is_empty());
    }
}
