//! Integration test: one namespace across the models. A name is one
//! container — a collection, table, bucket, graph or tree, or a graph's
//! vertex or edge collection, or a full-text index — so a second
//! definition under a used name is refused at define time, and one that
//! reaches the log anyway fails in the commit hook, live and on replay,
//! leaving the first definition in place.

use mmdb::substrate::relational::{ColumnDef, DataType, Schema};
use mmdb::{Database, Result, Value};
use mmdb_txn::IsolationLevel;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mmdb-catalog-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn schema() -> Schema {
    Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap()
}

/// One way to define `name`, as the kind its definition claims.
type Define = fn(&Database, &str) -> Result<()>;

/// Every kind a name can hold. The parts live in the graph `g` and the
/// collection `docs`.
const KINDS: [(&str, Define); 8] = [
    ("collection", |db, name| db.create_collection(name)),
    ("table", |db, name| db.create_table(name, schema())),
    ("bucket", |db, name| db.create_bucket(name)),
    ("graph", |db, name| db.create_graph(name)),
    ("tree", |db, name| db.register_json_tree(name, r#"{"a":1}"#)),
    ("vertex collection", |db, name| db.create_vertex_collection("g", name)),
    ("edge collection", |db, name| db.create_edge_collection("g", name)),
    ("fulltext index", |db, name| db.create_fulltext_index(name, "docs", "text")),
];

#[test]
fn every_ordered_pair_of_kinds_collides_under_one_name() {
    for (first, define_first) in KINDS {
        for (second, define_second) in KINDS {
            let db = Database::in_memory();
            db.create_graph("g").unwrap();
            db.create_collection("docs").unwrap();
            define_first(&db, "x").unwrap();
            let err = define_second(&db, "x").unwrap_err();
            assert_eq!(err.kind(), "already_exists", "{first} then {second}: {err}");
            let held = db.world().catalog.get("x").map(|c| c.kind());
            assert_eq!(held, Some(first), "{first} then {second}");
            assert_eq!(db.hook_failure(), None);
        }
    }
}

#[test]
fn a_bucket_is_what_its_name_scans() {
    let db = Database::in_memory();
    db.create_bucket("x").unwrap();
    db.kv_put("x", "k", Value::int(1)).unwrap();
    assert!(db.create_collection("x").is_err());
    let rows = db.query("FOR r IN x RETURN [r._key, r.value]").unwrap();
    assert_eq!(rows, vec![Value::array([Value::str("k"), Value::int(1)])]);
}

#[test]
fn a_second_graph_cannot_take_a_collection_name_of_the_first() {
    let json = |s: &str| mmdb::from_json(s).unwrap();
    // Before names were one namespace, which graph a traversal over
    // `knows` read depended on hash order, and so differed between fresh
    // databases.
    for _ in 0..20 {
        let db = Database::in_memory();
        db.create_graph("g1").unwrap();
        db.create_vertex_collection("g1", "persons").unwrap();
        db.create_edge_collection("g1", "knows").unwrap();
        db.create_graph("g2").unwrap();
        let taken = [
            db.create_edge_collection("g2", "knows"),
            db.create_vertex_collection("g2", "persons"),
        ];
        for err in taken.into_iter().map(Result::unwrap_err) {
            assert_eq!(err.kind(), "already_exists", "{err}");
        }
        db.create_vertex_collection("g2", "people").unwrap();
        db.create_edge_collection("g2", "likes").unwrap();
        db.transact(IsolationLevel::Snapshot, 3, |s| {
            for key in ["a", "b1"] {
                s.add_vertex("g1", "persons", json(&format!(r#"{{"_key":"{key}"}}"#)))?;
            }
            for key in ["a", "b2"] {
                s.add_vertex("g2", "people", json(&format!(r#"{{"_key":"{key}"}}"#)))?;
            }
            s.add_edge("g1", "knows", "persons/a", "persons/b1", json("{}"))?;
            s.add_edge("g2", "likes", "people/a", "people/b2", json("{}")).map(drop)
        })
        .unwrap();
        let hop = |edges: &str, start: &str| {
            let q = format!(r#"FOR p IN 1..1 OUTBOUND "{start}" {edges} RETURN p._key"#);
            db.query(&q).unwrap()
        };
        assert_eq!(hop("knows", "persons/a"), vec![Value::str("b1")]);
        assert_eq!(hop("likes", "people/a"), vec![Value::str("b2")]);
        // A bare handle's collection names its graph.
        let v = db.query(r#"RETURN VERTEX("people/b2")._key"#).unwrap();
        assert_eq!(v, vec![Value::str("b2")]);
    }
}

/// The collection `x` answers and the table logged over it is the hook's
/// first failure, which latched the store.
fn the_collection_holds_the_name(db: &Database) {
    let failure = db.hook_failure().expect("the table's definition failed in the hook");
    assert!(failure.contains("table 'x'") && failure.contains("is a collection"), "{failure}");
    assert_eq!(db.degraded_reason(), Some(format!("commit hook failed: {failure}")));
    assert_eq!(db.query("FOR r IN x RETURN r.v").unwrap(), vec![Value::int(1)]);
    assert_eq!(db.world().catalog.get("x").map(|c| c.kind()), Some("collection"));
}

#[test]
fn a_logged_definition_of_a_held_name_latches_live_and_at_open() {
    let dir = tmpdir("collision");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("x").unwrap();
        db.insert_json("x", r#"{"_key":"k","v":1}"#).unwrap();
        // Straight through the version store, past `define`'s check.
        let mut t = db.mvcc().begin(IsolationLevel::Snapshot);
        t.put("ddl/table", b"x", schema().to_value()).unwrap();
        t.commit().unwrap();
        the_collection_holds_the_name(&db);
    }
    let db = Database::open(&dir).unwrap();
    the_collection_holds_the_name(&db);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_definers_of_one_name_take_turns() {
    // Pairs whose definitions share no key in the log, so only the
    // catalog check, taken in turn, keeps the second out of it: a vertex
    // and an edge collection of one graph, a part and a container, two
    // containers of different kinds.
    let kind = |name: &str| KINDS.iter().find(|(k, _)| *k == name).unwrap().1;
    let pairs = [
        ("vertex collection", "edge collection"),
        ("vertex collection", "collection"),
        ("fulltext index", "table"),
        ("collection", "table"),
        ("graph", "graph"),
    ];
    for (first, second) in pairs {
        for _ in 0..20 {
            let db = Database::in_memory_logged();
            db.create_graph("g").unwrap();
            db.create_collection("docs").unwrap();
            let start = std::sync::Barrier::new(2);
            let outcomes: Vec<Result<()>> = std::thread::scope(|s| {
                let racers = [kind(first), kind(second)].map(|define| {
                    let (db, start) = (&db, &start);
                    s.spawn(move || {
                        start.wait();
                        define(db, "x")
                    })
                });
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let refused: Vec<_> = outcomes.into_iter().filter_map(Result::err).collect();
            assert_eq!(refused.len(), 1, "{first} and {second}: {refused:?}");
            assert_eq!(refused[0].kind(), "already_exists", "{first} and {second}");
            assert_eq!(db.hook_failure(), None, "{first} and {second}");
            assert!(!db.is_degraded(), "{first} and {second}");
        }
    }
}
