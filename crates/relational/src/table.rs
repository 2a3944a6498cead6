//! Heap-backed tables with a primary-key index and optional column
//! indexes ([`ValueIndex`]es).

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_index::value::within;
use mmdb_index::{BPlusTree, ValueIndex};
use mmdb_storage::{BufferPool, HeapFile, RecordId};
use mmdb_types::codec::{decode_items, encode_array_header, encode_value, key_of};
use mmdb_types::value::ObjectMap;
use mmdb_types::{lock_rank, Error, Projection, Result, Value};

use crate::schema::Schema;

struct Indexes {
    /// Primary key → record id.
    primary: BPlusTree<Vec<u8>, RecordId>,
    /// Column indexes by column name: the column's position and its
    /// index, each row filed under its encoded primary key.
    secondary: HashMap<String, (usize, ValueIndex)>,
}

/// A relational table.
pub struct Table {
    name: String,
    schema: Schema,
    heap: HeapFile,
    indexes: RwLock<Indexes>,
}

impl Table {
    /// Create an empty table on the given buffer pool.
    pub fn create(name: &str, schema: Schema, pool: Arc<BufferPool>) -> Result<Table> {
        Ok(Table {
            name: name.to_string(),
            schema,
            heap: HeapFile::new(pool),
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
        let pk = &row[self.schema.primary_key()];
        if self.contains_key(pk) {
            return Err(Error::AlreadyExists(format!(
                "primary key {pk} in table '{}'",
                self.name
            )));
        }
        self.put(row)
    }

    /// Create or replace the row with this row's primary key: the one
    /// body that writes a row and keeps the primary and column indexes in
    /// step. The old row is fetched only when a column index has entries
    /// of it to move.
    pub fn put(&self, mut row: Vec<Value>) -> Result<()> {
        self.schema.validate(&mut row)?;
        let pk = &row[self.schema.primary_key()];
        let pk_key = key_of(pk);
        let mut bytes = Vec::new();
        encode_array_header(row.len(), &mut bytes);
        for v in &row {
            encode_value(v, &mut bytes);
        }
        // Held throughout, so the set of column indexes cannot change
        // between deciding whether the old row is needed and using it.
        let mut idx = self.indexes.write();
        let old_rid = idx.primary.get(&pk_key).copied();
        let old = match old_rid {
            Some(rid) if !idx.secondary.is_empty() => Some(self.fetch(rid)?),
            _ => None,
        };
        let rid = match old_rid {
            Some(rid) => {
                self.heap.replace(rid, bytes)?;
                rid
            }
            None => self.heap.insert(bytes)?,
        };
        for (ci, index) in idx.secondary.values_mut() {
            index.update(old.as_ref().map(|old| &old[*ci]), &row[*ci], &pk_key, rid);
        }
        if old_rid.is_none() {
            idx.primary.insert(pk_key, rid);
        }
        Ok(())
    }

    /// Insert from an object keyed by column names.
    pub fn insert_object(&self, obj: &Value) -> Result<()> {
        self.insert(self.schema.row_from_object(obj)?)
    }

    fn fetch(&self, rid: RecordId) -> Result<Vec<Value>> {
        self.heap.get_with(rid, |bytes| self.row(bytes))?
    }

    /// A record as a whole row, decoded straight from the heap. This and
    /// [`Table::object`] are the one row decoder, [`decode_items`] over
    /// the record's columns in order: a column read is built, any other
    /// is walked and validated without being built, so a read of some
    /// columns fails exactly when a read of the whole row does.
    fn row(&self, bytes: &[u8]) -> Result<Vec<Value>> {
        let mut row = Vec::with_capacity(self.schema.columns().len());
        decode_items(bytes, |_| true, |_, v| row.push(v))?;
        Ok(row)
    }

    /// Which columns `project` reads: one flag per column, whether it
    /// keeps the column's name. Made once per read, not once per row.
    fn keep(&self, project: &Projection) -> Vec<bool> {
        self.schema.columns().iter().map(|c| project.reads(&c.name)).collect()
    }

    /// A record as an object of the columns `keep` marks, named by the
    /// schema, in column order.
    fn object(&self, bytes: &[u8], keep: &[bool]) -> Result<Value> {
        let columns = self.schema.columns();
        let mut obj = ObjectMap::with_capacity(keep.iter().filter(|k| **k).count());
        decode_items(bytes, |i| keep.get(i) == Some(&true), |i, v| {
            obj.insert(columns[i].name.as_str(), v);
        })?;
        Ok(Value::Object(obj))
    }

    /// Point lookup by primary key.
    pub fn get(&self, pk: &Value) -> Result<Option<Vec<Value>>> {
        let rid = { self.indexes.read().primary.get(&key_of(pk)).copied() };
        rid.map(|r| self.fetch(r)).transpose()
    }

    /// Whether a row with this primary key exists: a primary-index probe,
    /// no heap fetch and no decode.
    pub fn contains_key(&self, pk: &Value) -> bool {
        self.indexes.read().primary.contains_key(&key_of(pk))
    }

    /// Delete by primary key; returns whether a row was removed.
    pub fn delete(&self, pk: &Value) -> Result<bool> {
        self.delete_by_key(&key_of(pk))
    }

    /// Delete the row the primary index files under `pk_key`, i.e.
    /// `key_of(pk)` — all a replayed commit knows a deleted row by.
    pub fn delete_by_key(&self, pk_key: &[u8]) -> Result<bool> {
        let pk_key = pk_key.to_vec();
        // Held throughout, like `put`'s.
        let mut idx = self.indexes.write();
        let Some(rid) = idx.primary.get(&pk_key).copied() else { return Ok(false) };
        // Only a secondary index needs the old row's values.
        let row = if idx.secondary.is_empty() { Vec::new() } else { self.fetch(rid)? };
        self.heap.delete(rid)?;
        idx.primary.remove(&pk_key);
        for (ci, index) in idx.secondary.values_mut() {
            index.remove(&row[*ci], &pk_key);
        }
        Ok(true)
    }

    /// Create an index on a column, backfilling it.
    pub fn create_index(&self, column: &str) -> Result<()> {
        let ci = self.schema.column_index(column)?;
        let mut idx = self.indexes.write();
        if idx.secondary.contains_key(column) {
            return Err(Error::AlreadyExists(format!("index on '{column}'")));
        }
        let mut index = ValueIndex::new();
        let pk_i = self.schema.primary_key();
        self.heap.scan_with(|rid, bytes| {
            let row = self.row(bytes)?;
            index.insert(&row[ci], &key_of(&row[pk_i]), rid);
            Ok(())
        })?;
        idx.secondary.insert(column.to_string(), (ci, index));
        Ok(())
    }

    /// The indexed columns (sorted).
    pub fn indexed_paths(&self) -> Vec<String> {
        let mut cols: Vec<String> = self.indexes.read().secondary.keys().cloned().collect();
        cols.sort();
        cols
    }

    /// Every row as an object of the columns `project` reads (the
    /// top-level names it keeps), in heap order.
    pub fn scan_projected(&self, project: &Projection) -> Result<Vec<Value>> {
        let keep = self.keep(project);
        let mut rows = Vec::with_capacity(self.len());
        self.heap.scan_with(|_, bytes| {
            rows.push(self.object(bytes, &keep)?);
            Ok(())
        })?;
        Ok(rows)
    }

    /// The rows whose `column` lies within `lo..hi`, each as an object of
    /// the columns `project` reads: through the column's index when it
    /// has one (in index order), else a full scan. Returns `(rows,
    /// used_index)`.
    pub fn range(
        &self,
        column: &str,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
        project: &Projection,
    ) -> Result<(Vec<Value>, bool)> {
        let ci = self.schema.column_index(column)?;
        let keep = self.keep(project);
        let rids = self.indexes.read().secondary.get(column).map(|(_, index)| index.range(lo, hi));
        if let Some(rids) = rids {
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                rows.push(self.heap.get_with(rid, |bytes| self.object(bytes, &keep))??);
            }
            return Ok((rows, true));
        }
        let names = self.schema.columns().iter().map(|c| c.name.as_str());
        let mut rows = Vec::new();
        self.heap.scan_with(|_, bytes| {
            let row = self.row(bytes)?;
            if row.get(ci).is_some_and(|v| within(v, lo, hi)) {
                let kept = names.clone().zip(row).zip(&keep).filter(|(_, k)| **k).map(|(column, _)| column);
                rows.push(Value::object(kept));
            }
            Ok(())
        })?;
        Ok((rows, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn customers_table() -> Table {
        let schema = Schema::new(
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text).not_null(),
                ColumnDef::new("credit_limit", DataType::Int),
            ],
            "id",
        )
        .unwrap();
        let t = Table::create("customers", schema, Arc::default()).unwrap();
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

    /// `column`'s value of each row `range` reads within `lo..hi`, and
    /// whether it read the column's index.
    fn range_of(t: &Table, column: &str, lo: Bound<&Value>, hi: Bound<&Value>) -> (Vec<Value>, bool) {
        let (rows, used) = t.range(column, lo, hi, &Projection::ALL).unwrap();
        (rows.iter().map(|r| r.get_field(column).clone()).collect(), used)
    }

    #[test]
    fn paper_filter_credit_limit_gt_3000() {
        let t = customers_table();
        let above = |t: &Table| t.range("credit_limit", Bound::Excluded(&Value::int(3000)), Bound::Unbounded, &Projection::ALL).unwrap();
        let (rows, used_index) = above(&t);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get_field("name"), &Value::str("Mary"));
        assert!(!used_index);
        // Same query through an index.
        t.create_index("credit_limit").unwrap();
        let (rows, used_index) = above(&t);
        assert_eq!(rows.len(), 1);
        assert!(used_index);
        assert_eq!(t.indexed_paths(), ["credit_limit"]);
        assert!(matches!(t.create_index("credit_limit"), Err(Error::AlreadyExists(_))));
    }

    #[test]
    fn index_handles_duplicates_and_ranges() {
        let schema = Schema::new(
            vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("grp", DataType::Int)],
            "id",
        )
        .unwrap();
        let t = Table::create("t", schema, Arc::default()).unwrap();
        for i in 0..100 {
            t.insert(vec![Value::int(i), Value::int(i % 5)]).unwrap();
        }
        t.create_index("grp").unwrap();
        let (one, two, three) = (Value::int(1), Value::int(2), Value::int(3));
        let (rows, used) = range_of(&t, "grp", Bound::Included(&three), Bound::Included(&three));
        assert!(used);
        assert_eq!(rows, vec![three.clone(); 20]);
        let (rows, _) = range_of(&t, "grp", Bound::Included(&one), Bound::Included(&two));
        assert_eq!(rows.len(), 40);
        assert!(rows.is_sorted(), "index order");
        let (rows, _) = range_of(&t, "grp", Bound::Unbounded, Bound::Excluded(&one));
        assert_eq!(rows, vec![Value::int(0); 20]);
    }

    #[test]
    fn put_creates_replaces_and_maintains_indexes() {
        let t = customers_table();
        t.create_index("credit_limit").unwrap();
        t.put(vec![Value::int(3), Value::str("Anne"), Value::int(9000)]).unwrap();
        let limit = |l: i64| Value::int(l);
        let (rows, used) = range_of(&t, "credit_limit", Bound::Excluded(&limit(3000)), Bound::Unbounded);
        assert!(used);
        assert_eq!(rows, [limit(5000), limit(9000)]);
        // The old index entry is gone.
        let two = limit(2000);
        assert!(range_of(&t, "credit_limit", Bound::Included(&two), Bound::Included(&two)).0.is_empty());
        // A put of a new primary key creates the row.
        t.put(vec![Value::int(77), Value::str("x"), Value::int(9000)]).unwrap();
        assert_eq!(t.len(), 4);
        let nine = limit(9000);
        assert_eq!(range_of(&t, "credit_limit", Bound::Included(&nine), Bound::Included(&nine)).0.len(), 2);
        // A row the schema refuses changes nothing.
        assert!(t.put(vec![Value::int(3), Value::Null, Value::Null]).is_err());
        assert_eq!(t.get(&Value::int(3)).unwrap().unwrap()[1], Value::str("Anne"));
    }

    #[test]
    fn delete_maintains_indexes() {
        let t = customers_table();
        t.create_index("name").unwrap();
        assert!(t.delete(&Value::int(2)).unwrap());
        assert!(!t.delete(&Value::int(2)).unwrap());
        assert_eq!(t.len(), 2);
        let john = Value::str("John");
        let (rows, used) = range_of(&t, "name", Bound::Included(&john), Bound::Included(&john));
        assert!(used);
        assert!(rows.is_empty());
        let (rows, _) = range_of(&t, "name", Bound::Unbounded, Bound::Unbounded);
        assert_eq!(rows, [Value::str("Anne"), Value::str("Mary")]);
    }

    #[test]
    fn insert_object_and_scan() {
        let t = customers_table();
        t.insert_object(&mmdb_types::from_json(r#"{"id":4,"name":"Petra"}"#).unwrap()).unwrap();
        let all = t.scan_projected(&Projection::ALL).unwrap();
        assert_eq!(all.len(), 4);
        let petra = t.get(&Value::int(4)).unwrap().unwrap();
        assert_eq!(petra[2], Value::Null);
        assert_eq!(all[3], t.schema().object_from_row(petra));
    }

    #[test]
    fn projected_reads_keep_the_columns_read_and_still_validate_the_rest() {
        let t = customers_table();
        let of = |paths: &[&str]| Projection::of(paths.iter().map(|p| mmdb_types::Path::parse(p).unwrap()));
        let limit = |l: i64| Value::object([("credit_limit", Value::int(l))]);
        // A name no column has keeps nothing; a path keeps its column.
        let keep = of(&["credit_limit.x", "nope"]);
        assert_eq!(t.scan_projected(&keep).unwrap(), [limit(5000), limit(3000), limit(2000)]);
        let whole: Vec<Value> = (1..=3).map(|id| t.schema().object_from_row(t.get(&Value::int(id)).unwrap().unwrap())).collect();
        assert_eq!(t.scan_projected(&Projection::ALL).unwrap(), whole);
        assert_eq!(t.scan_projected(&of(&[])).unwrap(), vec![Value::Object(ObjectMap::new()); 3]);
        // A range reads the same rows through a full scan and an index,
        // the range's column decoded or not.
        let above = |p: &Projection| t.range("credit_limit", Bound::Excluded(&Value::int(2000)), Bound::Unbounded, p).unwrap();
        let names = of(&["name"]);
        let (scanned, used) = above(&names);
        assert!(!used);
        assert_eq!(scanned, [Value::object([("name", Value::str("Mary"))]), Value::object([("name", Value::str("John"))])]);
        t.create_index("credit_limit").unwrap();
        let (indexed, used) = above(&names);
        assert!(used);
        assert_eq!(indexed, [Value::object([("name", Value::str("John"))]), Value::object([("name", Value::str("Mary"))])]);
        assert_eq!(above(&keep).0, [limit(3000), limit(5000)]);
        // A record whose skipped column is corrupt fails a projected read
        // as it fails a whole one.
        t.heap.insert(vec![0x07, 3, 0x03, 8, 0x05, 1, 0xFF, 0x03, 2]).unwrap();
        assert!(t.scan_projected(&Projection::ALL).is_err());
        assert!(t.scan_projected(&keep).is_err());
    }
}
