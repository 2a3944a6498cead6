//! Heap-backed tables with a primary-key index and optional secondary
//! B+-tree indexes.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_index::BPlusTree;
use mmdb_storage::{BufferPool, HeapFile, RecordId};
use mmdb_types::codec::{key_of, value_from_bytes, value_to_bytes};
use mmdb_types::{lock_rank, Error, Result, Value};

use crate::schema::Schema;

/// A simple predicate language for table scans; the full expression
/// language lives in `mmdb-query`, which compiles down to these where an
/// index can serve them.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Column = value.
    Eq(String, Value),
    /// lo <= column <= hi.
    Between(String, Value, Value),
    /// Column < value.
    Lt(String, Value),
    /// Column > value.
    Gt(String, Value),
    /// Both hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// Always true (full scan).
    True,
}

impl Predicate {
    /// Evaluate against a row.
    pub fn matches(&self, schema: &Schema, row: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => schema
                .column_index(c)
                .map(|i| &row[i] == v)
                .unwrap_or(false),
            Predicate::Between(c, lo, hi) => schema
                .column_index(c)
                .map(|i| &row[i] >= lo && &row[i] <= hi)
                .unwrap_or(false),
            Predicate::Lt(c, v) => schema
                .column_index(c)
                .map(|i| !row[i].is_null() && &row[i] < v)
                .unwrap_or(false),
            Predicate::Gt(c, v) => schema
                .column_index(c)
                .map(|i| !row[i].is_null() && &row[i] > v)
                .unwrap_or(false),
            Predicate::And(a, b) => a.matches(schema, row) && b.matches(schema, row),
            Predicate::Or(a, b) => a.matches(schema, row) || b.matches(schema, row),
        }
    }
}

struct Indexes {
    /// Primary key → record id.
    primary: BPlusTree<Vec<u8>, RecordId>,
    /// Secondary: column name → (encoded value ++ encoded pk) → record id.
    /// Including the pk in the key makes duplicate column values unique.
    secondary: HashMap<String, BPlusTree<Vec<u8>, RecordId>>,
}

/// A relational table.
pub struct Table {
    name: String,
    schema: Schema,
    heap: HeapFile,
    indexes: RwLock<Indexes>,
}

fn sec_key(value: &Value, pk: &Value) -> Vec<u8> {
    let mut k = key_of(value);
    k.push(0);
    k.extend(key_of(pk));
    k
}

impl Table {
    /// Create an empty table on the given buffer pool.
    pub fn create(name: &str, schema: Schema, pool: Arc<BufferPool>) -> Result<Table> {
        Ok(Table {
            name: name.to_string(),
            schema,
            heap: HeapFile::create(pool)?,
            indexes: RwLock::with_rank(
                lock_rank::RELATIONAL_INDEXES,
                Indexes { primary: BPlusTree::new(), secondary: HashMap::new() },
            ),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no rows exist.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Insert an ordered row. Fails on duplicate primary key.
    pub fn insert(&self, mut row: Vec<Value>) -> Result<()> {
        self.schema.validate(&mut row)?;
        let pk_value = row[self.schema.primary_key()].clone();
        let pk_key = key_of(&pk_value);
        {
            let idx = self.indexes.read();
            if idx.primary.contains_key(&pk_key) {
                return Err(Error::AlreadyExists(format!(
                    "primary key {pk_value} in table '{}'",
                    self.name
                )));
            }
        }
        let rid = self.heap.insert(&value_to_bytes(&Value::Array(row.clone())))?;
        let mut idx = self.indexes.write();
        idx.primary.insert(pk_key, rid);
        for (col, tree) in idx.secondary.iter_mut() {
            let ci = self.schema.column_index(col)?;
            tree.insert(sec_key(&row[ci], &pk_value), rid);
        }
        Ok(())
    }

    /// Insert from an object keyed by column names.
    pub fn insert_object(&self, obj: &Value) -> Result<()> {
        self.insert(self.schema.row_from_object(obj)?)
    }

    fn fetch(&self, rid: RecordId) -> Result<Vec<Value>> {
        match value_from_bytes(&self.heap.get(rid)?)? {
            Value::Array(row) => Ok(row),
            _ => Err(Error::Internal("table record is not a row".into())),
        }
    }

    /// Point lookup by primary key.
    pub fn get(&self, pk: &Value) -> Result<Option<Vec<Value>>> {
        let rid = { self.indexes.read().primary.get(&key_of(pk)).copied() };
        rid.map(|r| self.fetch(r)).transpose()
    }

    /// Delete by primary key; returns whether a row was removed.
    pub fn delete(&self, pk: &Value) -> Result<bool> {
        self.delete_by_key(&key_of(pk))
    }

    /// Delete the row the primary index files under `pk_key`, i.e.
    /// `key_of(pk)` — all a replayed commit knows a deleted row by.
    pub fn delete_by_key(&self, pk_key: &[u8]) -> Result<bool> {
        let pk_key = pk_key.to_vec();
        let rid = { self.indexes.read().primary.get(&pk_key).copied() };
        let Some(rid) = rid else { return Ok(false) };
        let row = self.fetch(rid)?;
        self.heap.delete(rid)?;
        let pk = &row[self.schema.primary_key()];
        let mut idx = self.indexes.write();
        idx.primary.remove(&pk_key);
        for (col, tree) in idx.secondary.iter_mut() {
            let ci = self.schema.column_index(col)?;
            tree.remove(&sec_key(&row[ci], pk));
        }
        Ok(true)
    }

    /// Update the row with the given primary key to a new full row (same pk).
    pub fn update(&self, pk: &Value, mut new_row: Vec<Value>) -> Result<()> {
        self.schema.validate(&mut new_row)?;
        if &new_row[self.schema.primary_key()] != pk {
            return Err(Error::Schema("update must not change the primary key".into()));
        }
        let pk_key = key_of(pk);
        let rid = {
            self.indexes
                .read()
                .primary
                .get(&pk_key)
                .copied()
                .ok_or_else(|| Error::NotFound(format!("primary key {pk} in '{}'", self.name)))?
        };
        let old_row = self.fetch(rid)?;
        let new_rid = self.heap.update(rid, &value_to_bytes(&Value::Array(new_row.clone())))?;
        let mut idx = self.indexes.write();
        if new_rid != rid {
            idx.primary.insert(pk_key, new_rid);
        }
        for (col, tree) in idx.secondary.iter_mut() {
            let ci = self.schema.column_index(col)?;
            if old_row[ci] != new_row[ci] || new_rid != rid {
                tree.remove(&sec_key(&old_row[ci], pk));
                tree.insert(sec_key(&new_row[ci], pk), new_rid);
            }
        }
        Ok(())
    }

    /// Create a secondary B+-tree index on a column, backfilling it.
    pub fn create_index(&self, column: &str) -> Result<()> {
        self.schema.column_index(column)?;
        let mut idx = self.indexes.write();
        if idx.secondary.contains_key(column) {
            return Err(Error::AlreadyExists(format!("index on '{column}'")));
        }
        let mut tree = BPlusTree::new();
        let ci = self.schema.column_index(column)?;
        let pk_i = self.schema.primary_key();
        for (rid, bytes) in self.heap.scan()? {
            if let Value::Array(row) = value_from_bytes(&bytes)? {
                tree.insert(sec_key(&row[ci], &row[pk_i]), rid);
            }
        }
        idx.secondary.insert(column.to_string(), tree);
        Ok(())
    }

    /// Which columns have secondary indexes.
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self.indexes.read().secondary.keys().cloned().collect();
        cols.sort();
        cols
    }

    /// Scan with a predicate, using a secondary index when one matches the
    /// predicate's column (returns `(rows, used_index)` so callers/benches
    /// can observe plan choice).
    pub fn select(&self, pred: &Predicate) -> Result<(Vec<Vec<Value>>, bool)> {
        // Index-served cases.
        if let Some((column, lo, hi)) = index_range(pred) {
            let idx = self.indexes.read();
            if let Some(tree) = idx.secondary.get(column) {
                let lo_key = match &lo {
                    Bound::Included(v) => Bound::Included(key_of(v)),
                    Bound::Excluded(v) => {
                        // Excluded lower bound over composite keys: everything
                        // for this value sorts as value||0||pk, so exclude by
                        // appending 0xFF to skip all pks of the value.
                        let mut k = key_of(v);
                        k.push(0xFF);
                        Bound::Included(k)
                    }
                    Bound::Unbounded => Bound::Unbounded,
                };
                let hi_key = match &hi {
                    Bound::Included(v) => {
                        let mut k = key_of(v);
                        k.push(0xFF);
                        Bound::Included(k)
                    }
                    Bound::Excluded(v) => Bound::Excluded(key_of(v)),
                    Bound::Unbounded => Bound::Unbounded,
                };
                let rids: Vec<RecordId> = tree
                    .range(
                        match &lo_key {
                            Bound::Included(k) => Bound::Included(k),
                            Bound::Excluded(k) => Bound::Excluded(k),
                            Bound::Unbounded => Bound::Unbounded,
                        },
                        match &hi_key {
                            Bound::Included(k) => Bound::Included(k),
                            Bound::Excluded(k) => Bound::Excluded(k),
                            Bound::Unbounded => Bound::Unbounded,
                        },
                    )
                    .map(|(_, rid)| *rid)
                    .collect();
                drop(idx);
                let mut rows = Vec::with_capacity(rids.len());
                for rid in rids {
                    let row = self.fetch(rid)?;
                    // Recheck (cheap) to keep semantics exact.
                    if pred.matches(&self.schema, &row) {
                        rows.push(row);
                    }
                }
                return Ok((rows, true));
            }
        }
        // Fallback: full scan.
        let mut rows = Vec::new();
        for (_, bytes) in self.heap.scan()? {
            if let Value::Array(row) = value_from_bytes(&bytes)? {
                if pred.matches(&self.schema, &row) {
                    rows.push(row);
                }
            }
        }
        Ok((rows, false))
    }

    /// All rows.
    pub fn scan(&self) -> Result<Vec<Vec<Value>>> {
        Ok(self.select(&Predicate::True)?.0)
    }

    /// Range select with explicit per-side bounds on one column, using the
    /// column's secondary index when present. Returns `(rows, used_index)`.
    pub fn select_range(
        &self,
        column: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<(Vec<Vec<Value>>, bool)> {
        let ci = self.schema.column_index(column)?;
        {
            let idx = self.indexes.read();
            if let Some(tree) = idx.secondary.get(column) {
                // See `select`: composite keys are value ++ 0 ++ pk, so the
                // 0xFF suffix covers all pks of a value.
                let lo_key = match lo {
                    Bound::Included(v) => Bound::Included(key_of(v)),
                    Bound::Excluded(v) => {
                        let mut k = key_of(v);
                        k.push(0xFF);
                        Bound::Included(k)
                    }
                    Bound::Unbounded => Bound::Unbounded,
                };
                let hi_key = match hi {
                    Bound::Included(v) => {
                        let mut k = key_of(v);
                        k.push(0xFF);
                        Bound::Included(k)
                    }
                    Bound::Excluded(v) => Bound::Excluded(key_of(v)),
                    Bound::Unbounded => Bound::Unbounded,
                };
                fn reb(b: &Bound<Vec<u8>>) -> Bound<&Vec<u8>> {
                    match b {
                        Bound::Included(k) => Bound::Included(k),
                        Bound::Excluded(k) => Bound::Excluded(k),
                        Bound::Unbounded => Bound::Unbounded,
                    }
                }
                let rids: Vec<RecordId> =
                    tree.range(reb(&lo_key), reb(&hi_key)).map(|(_, rid)| *rid).collect();
                drop(idx);
                let mut rows = Vec::with_capacity(rids.len());
                for rid in rids {
                    rows.push(self.fetch(rid)?);
                }
                return Ok((rows, true));
            }
        }
        let mut rows = Vec::new();
        for (_, bytes) in self.heap.scan()? {
            if let Value::Array(row) = value_from_bytes(&bytes)? {
                let v = &row[ci];
                let above = match lo {
                    Bound::Included(l) => v >= l,
                    Bound::Excluded(l) => v > l,
                    Bound::Unbounded => true,
                };
                let below = match hi {
                    Bound::Included(h) => v <= h,
                    Bound::Excluded(h) => v < h,
                    Bound::Unbounded => true,
                };
                if above && below {
                    rows.push(row);
                }
            }
        }
        Ok((rows, false))
    }
}

/// If the predicate is a single-column range/eq, return its bounds.
fn index_range(pred: &Predicate) -> Option<(&str, Bound<&Value>, Bound<&Value>)> {
    match pred {
        Predicate::Eq(c, v) => Some((c, Bound::Included(v), Bound::Included(v))),
        Predicate::Between(c, lo, hi) => Some((c, Bound::Included(lo), Bound::Included(hi))),
        Predicate::Lt(c, v) => Some((c, Bound::Unbounded, Bound::Excluded(v))),
        Predicate::Gt(c, v) => Some((c, Bound::Excluded(v), Bound::Unbounded)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};
    use mmdb_storage::DiskManager;

    fn customers_table() -> Table {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 64));
        let schema = Schema::new(
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text).not_null(),
                ColumnDef::new("credit_limit", DataType::Int),
            ],
            "id",
        )
        .unwrap();
        let t = Table::create("customers", schema, pool).unwrap();
        // The paper's running example (slide 27).
        for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
            t.insert(vec![Value::int(id), Value::str(name), Value::int(limit)]).unwrap();
        }
        t
    }

    #[test]
    fn insert_get_by_pk() {
        let t = customers_table();
        let row = t.get(&Value::int(1)).unwrap().unwrap();
        assert_eq!(row[1], Value::str("Mary"));
        assert!(t.get(&Value::int(9)).unwrap().is_none());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let t = customers_table();
        let e = t.insert(vec![Value::int(1), Value::str("Dup"), Value::Null]).unwrap_err();
        assert_eq!(e.kind(), "already_exists");
    }

    #[test]
    fn paper_filter_credit_limit_gt_3000() {
        let t = customers_table();
        let (rows, used_index) = t.select(&Predicate::Gt("credit_limit".into(), Value::int(3000))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::str("Mary"));
        assert!(!used_index);
        // Same query through an index.
        t.create_index("credit_limit").unwrap();
        let (rows, used_index) = t.select(&Predicate::Gt("credit_limit".into(), Value::int(3000))).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(used_index);
    }

    #[test]
    fn index_handles_duplicates_and_ranges() {
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory()), 64));
        let schema = Schema::new(
            vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("grp", DataType::Int)],
            "id",
        )
        .unwrap();
        let t = Table::create("t", schema, pool).unwrap();
        for i in 0..100 {
            t.insert(vec![Value::int(i), Value::int(i % 5)]).unwrap();
        }
        t.create_index("grp").unwrap();
        let (rows, used) = t.select(&Predicate::Eq("grp".into(), Value::int(3))).unwrap();
        assert!(used);
        assert_eq!(rows.len(), 20);
        let (rows, _) = t
            .select(&Predicate::Between("grp".into(), Value::int(1), Value::int(2)))
            .unwrap();
        assert_eq!(rows.len(), 40);
        let (rows, _) = t.select(&Predicate::Lt("grp".into(), Value::int(1))).unwrap();
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn update_maintains_indexes() {
        let t = customers_table();
        t.create_index("credit_limit").unwrap();
        t.update(&Value::int(3), vec![Value::int(3), Value::str("Anne"), Value::int(9000)]).unwrap();
        let (rows, used) = t.select(&Predicate::Gt("credit_limit".into(), Value::int(3000))).unwrap();
        assert!(used);
        assert_eq!(rows.len(), 2);
        // The old index entry is gone.
        let (rows, _) = t.select(&Predicate::Eq("credit_limit".into(), Value::int(2000))).unwrap();
        assert!(rows.is_empty());
        // PK change is rejected.
        let e = t.update(&Value::int(3), vec![Value::int(4), Value::str("A"), Value::Null]);
        assert!(e.is_err());
        // Updating a missing row errors.
        assert!(t.update(&Value::int(77), vec![Value::int(77), Value::str("x"), Value::Null]).is_err());
    }

    #[test]
    fn delete_maintains_indexes() {
        let t = customers_table();
        t.create_index("name").unwrap();
        assert!(t.delete(&Value::int(2)).unwrap());
        assert!(!t.delete(&Value::int(2)).unwrap());
        assert_eq!(t.len(), 2);
        let (rows, used) = t.select(&Predicate::Eq("name".into(), Value::str("John"))).unwrap();
        assert!(used);
        assert!(rows.is_empty());
    }

    #[test]
    fn insert_object_and_scan() {
        let t = customers_table();
        t.insert_object(&mmdb_types::from_json(r#"{"id":4,"name":"Petra"}"#).unwrap()).unwrap();
        let all = t.scan().unwrap();
        assert_eq!(all.len(), 4);
        let petra = t.get(&Value::int(4)).unwrap().unwrap();
        assert_eq!(petra[2], Value::Null);
    }

    #[test]
    fn compound_predicates() {
        let t = customers_table();
        let p = Predicate::And(
            Box::new(Predicate::Gt("credit_limit".into(), Value::int(1000))),
            Box::new(Predicate::Lt("credit_limit".into(), Value::int(4000))),
        );
        let (rows, _) = t.select(&p).unwrap();
        assert_eq!(rows.len(), 2); // John 3000, Anne 2000
        let p = Predicate::Or(
            Box::new(Predicate::Eq("name".into(), Value::str("Mary"))),
            Box::new(Predicate::Eq("name".into(), Value::str("Anne"))),
        );
        let (rows, _) = t.select(&p).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
