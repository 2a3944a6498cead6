//! The triple store and its four DB2-style access paths.

use std::collections::HashMap;

use mmdb_types::{Result, Value};

/// One RDF triple (subject, predicate, object) with an optional named
/// graph ("triples + associated graph" in DB2's layout). Objects are
/// [`Value`]s so literals keep their datatype.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Subject IRI/blank node label.
    pub subject: String,
    /// Predicate IRI.
    pub predicate: String,
    /// Object: IRI (as string) or typed literal.
    pub object: Value,
    /// Named graph, `None` = default graph.
    pub graph: Option<String>,
}

impl Triple {
    /// Default-graph triple with a string object.
    pub fn new(s: &str, p: &str, o: impl Into<Value>) -> Triple {
        Triple { subject: s.to_string(), predicate: p.to_string(), object: o.into(), graph: None }
    }

    /// Assign a named graph.
    pub fn in_graph(mut self, g: &str) -> Triple {
        self.graph = Some(g.to_string());
        self
    }
}

/// Which access paths to maintain (E9's ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct AccessPaths {
    /// Direct primary: subject → triples.
    pub direct_primary: bool,
    /// Reverse primary: object → triples.
    pub reverse_primary: bool,
    /// Direct secondary: (subject, predicate) → triples.
    pub direct_secondary: bool,
    /// Reverse secondary: (object, predicate) → triples.
    pub reverse_secondary: bool,
}

impl AccessPaths {
    /// All four paths (DB2's full layout).
    pub fn all() -> Self {
        AccessPaths {
            direct_primary: true,
            reverse_primary: true,
            direct_secondary: true,
            reverse_secondary: true,
        }
    }

    /// No indexes — every lookup scans.
    pub fn none() -> Self {
        AccessPaths {
            direct_primary: false,
            reverse_primary: false,
            direct_secondary: false,
            reverse_secondary: false,
        }
    }
}

/// Internal triple id.
type Tid = usize;

/// Lookup statistics (exposed so E9 can verify which path served a query).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PathStats {
    /// Lookups served by an index.
    pub indexed: u64,
    /// Lookups that fell back to a full scan.
    pub scans: u64,
}

/// The triple store.
pub struct TripleStore {
    triples: Vec<Option<Triple>>,
    paths: AccessPaths,
    by_s: HashMap<String, Vec<Tid>>,
    by_o: HashMap<Value, Vec<Tid>>,
    by_sp: HashMap<(String, String), Vec<Tid>>,
    by_op: HashMap<(Value, String), Vec<Tid>>,
    live: usize,
    indexed_lookups: std::sync::atomic::AtomicU64,
    scan_lookups: std::sync::atomic::AtomicU64,
}

impl Default for TripleStore {
    fn default() -> Self {
        Self::new(AccessPaths::all())
    }
}

impl TripleStore {
    /// Empty store with the chosen access paths.
    pub fn new(paths: AccessPaths) -> Self {
        TripleStore {
            triples: Vec::new(),
            paths,
            by_s: HashMap::new(),
            by_o: HashMap::new(),
            by_sp: HashMap::new(),
            by_op: HashMap::new(),
            live: 0,
            indexed_lookups: std::sync::atomic::AtomicU64::new(0),
            scan_lookups: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of live triples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lookup counters.
    pub fn stats(&self) -> PathStats {
        use std::sync::atomic::Ordering;
        PathStats {
            indexed: self.indexed_lookups.load(Ordering::Relaxed),
            scans: self.scan_lookups.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, indexed: bool) {
        use std::sync::atomic::Ordering;
        if indexed {
            self.indexed_lookups.fetch_add(1, Ordering::Relaxed);
        } else {
            self.scan_lookups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Insert a triple (duplicates allowed, as in RDF multisets under
    /// named graphs).
    pub fn insert(&mut self, t: Triple) -> Result<()> {
        let tid = self.triples.len();
        if self.paths.direct_primary {
            self.by_s.entry(t.subject.clone()).or_default().push(tid);
        }
        if self.paths.reverse_primary {
            self.by_o.entry(t.object.clone()).or_default().push(tid);
        }
        if self.paths.direct_secondary {
            self.by_sp
                .entry((t.subject.clone(), t.predicate.clone()))
                .or_default()
                .push(tid);
        }
        if self.paths.reverse_secondary {
            self.by_op
                .entry((t.object.clone(), t.predicate.clone()))
                .or_default()
                .push(tid);
        }
        self.triples.push(Some(t));
        self.live += 1;
        Ok(())
    }

    /// Whether the store holds `t`'s (s, p, o) in any graph. Not a query
    /// lookup, so the path counters don't move.
    pub fn contains(&self, t: &Triple) -> bool {
        let same = |x: &Triple| x.subject == t.subject && x.predicate == t.predicate && x.object == t.object;
        if self.paths.direct_primary {
            self.collect(self.by_s.get(&t.subject)).into_iter().any(same)
        } else {
            self.triples.iter().flatten().any(same)
        }
    }

    /// Remove all triples matching the exact (s, p, o) in any graph;
    /// returns how many were removed.
    pub fn remove(&mut self, s: &str, p: &str, o: &Value) -> usize {
        let mut removed = 0;
        for slot in self.triples.iter_mut() {
            if let Some(t) = slot {
                if t.subject == s && t.predicate == p && &t.object == o {
                    *slot = None;
                    removed += 1;
                }
            }
        }
        // Index posting lists keep stale tids; lookups skip None slots.
        self.live -= removed;
        removed
    }

    fn collect(&self, tids: Option<&Vec<Tid>>) -> Vec<&Triple> {
        tids.map(|v| v.iter().filter_map(|&t| self.triples[t].as_ref()).collect())
            .unwrap_or_default()
    }

    fn scan(&self, pred: impl Fn(&Triple) -> bool) -> Vec<&Triple> {
        self.triples
            .iter()
            .filter_map(Option::as_ref)
            .filter(|t| pred(t))
            .collect()
    }

    /// Triples with the given subject (direct primary path, else scan).
    pub fn by_subject(&self, s: &str) -> Vec<&Triple> {
        if self.paths.direct_primary {
            self.bump(true);
            self.collect(self.by_s.get(s))
        } else {
            self.bump(false);
            self.scan(|t| t.subject == s)
        }
    }

    /// Triples with the given object (reverse primary path, else scan).
    pub fn by_object(&self, o: &Value) -> Vec<&Triple> {
        if self.paths.reverse_primary {
            self.bump(true);
            self.collect(self.by_o.get(o))
        } else {
            self.bump(false);
            self.scan(|t| &t.object == o)
        }
    }

    /// Triples with the given subject and predicate (direct secondary).
    pub fn by_subject_predicate(&self, s: &str, p: &str) -> Vec<&Triple> {
        if self.paths.direct_secondary {
            self.bump(true);
            self.collect(self.by_sp.get(&(s.to_string(), p.to_string())))
        } else if self.paths.direct_primary {
            self.bump(true);
            self.collect(self.by_s.get(s))
                .into_iter()
                .filter(|t| t.predicate == p)
                .collect()
        } else {
            self.bump(false);
            self.scan(|t| t.subject == s && t.predicate == p)
        }
    }

    /// Triples with the given object and predicate (reverse secondary).
    pub fn by_object_predicate(&self, o: &Value, p: &str) -> Vec<&Triple> {
        if self.paths.reverse_secondary {
            self.bump(true);
            self.collect(self.by_op.get(&(o.clone(), p.to_string())))
        } else if self.paths.reverse_primary {
            self.bump(true);
            self.collect(self.by_o.get(o))
                .into_iter()
                .filter(|t| t.predicate == p)
                .collect()
        } else {
            self.bump(false);
            self.scan(|t| &t.object == o && t.predicate == p)
        }
    }

    /// All triples (optionally restricted to one named graph). Always a
    /// full scan — no access path covers an unbound pattern — so it
    /// counts against the scan-fallback counter like the other scans.
    pub fn all(&self, graph: Option<&str>) -> Vec<&Triple> {
        self.bump(false);
        self.scan(|t| match graph {
            None => true,
            Some(g) => t.graph.as_deref() == Some(g),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(paths: AccessPaths) -> TripleStore {
        let mut s = TripleStore::new(paths);
        s.insert(Triple::new("mary", "knows", "john")).unwrap();
        s.insert(Triple::new("anne", "knows", "mary")).unwrap();
        s.insert(Triple::new("mary", "creditLimit", Value::int(5000))).unwrap();
        s.insert(Triple::new("john", "creditLimit", Value::int(3000))).unwrap();
        s.insert(Triple::new("mary", "name", "Mary")).unwrap();
        s
    }

    #[test]
    fn four_access_paths_agree_with_scans() {
        let indexed = store(AccessPaths::all());
        let bare = store(AccessPaths::none());
        for (i, b) in [
            (indexed.by_subject("mary"), bare.by_subject("mary")),
            (indexed.by_object(&Value::str("mary")), bare.by_object(&Value::str("mary"))),
            (
                indexed.by_subject_predicate("mary", "knows"),
                bare.by_subject_predicate("mary", "knows"),
            ),
            (
                indexed.by_object_predicate(&Value::int(3000), "creditLimit"),
                bare.by_object_predicate(&Value::int(3000), "creditLimit"),
            ),
        ] {
            let mut iv: Vec<&Triple> = i;
            let mut bv: Vec<&Triple> = b;
            iv.sort_by_key(|t| (t.subject.clone(), t.predicate.clone()));
            bv.sort_by_key(|t| (t.subject.clone(), t.predicate.clone()));
            assert_eq!(iv, bv);
        }
        assert!(indexed.stats().indexed >= 4);
        assert!(bare.stats().scans >= 4);
    }

    #[test]
    fn subject_lookup() {
        let s = store(AccessPaths::all());
        let marys = s.by_subject("mary");
        assert_eq!(marys.len(), 3);
        assert!(s.by_subject("zeus").is_empty());
    }

    #[test]
    fn typed_literals() {
        let s = store(AccessPaths::all());
        let hits = s.by_object(&Value::int(5000));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, "mary");
        // Int/float literal identity follows Value semantics.
        let hits = s.by_object(&Value::float(5000.0));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn secondary_paths_fall_back_to_primary() {
        let mut paths = AccessPaths::all();
        paths.direct_secondary = false;
        paths.reverse_secondary = false;
        let s = store(paths);
        assert_eq!(s.by_subject_predicate("mary", "knows").len(), 1);
        assert_eq!(s.by_object_predicate(&Value::str("mary"), "knows").len(), 1);
        assert_eq!(s.stats().scans, 0, "primary paths still avoid scans");
    }

    #[test]
    fn remove_hides_from_all_paths() {
        let mut s = store(AccessPaths::all());
        assert_eq!(s.remove("mary", "knows", &Value::str("john")), 1);
        assert_eq!(s.len(), 4);
        assert!(s.by_subject_predicate("mary", "knows").is_empty());
        assert!(s.by_object(&Value::str("john")).is_empty());
        assert_eq!(s.remove("mary", "knows", &Value::str("john")), 0);
    }

    #[test]
    fn named_graphs() {
        let mut s = TripleStore::default();
        s.insert(Triple::new("a", "p", "x").in_graph("g1")).unwrap();
        s.insert(Triple::new("b", "p", "y").in_graph("g2")).unwrap();
        s.insert(Triple::new("c", "p", "z")).unwrap();
        assert_eq!(s.all(Some("g1")).len(), 1);
        assert_eq!(s.all(None).len(), 3);
    }
}
