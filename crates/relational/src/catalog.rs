//! The table catalog: named tables sharing one buffer pool.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mmdb_storage::BufferPool;
use mmdb_types::{Error, Result};

use crate::schema::Schema;
use crate::table::Table;

/// A catalog of relational tables.
pub struct Catalog {
    pool: Arc<BufferPool>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Catalog {
    /// Catalog over an existing buffer pool.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Catalog { pool, tables: RwLock::new(HashMap::new()) }
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(Error::AlreadyExists(format!("table '{name}'")));
        }
        let t = Arc::new(Table::create(name, schema, Arc::clone(&self.pool))?);
        tables.insert(name.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table '{name}'")))
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("table '{name}'")))
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)], "id").unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let c = Catalog::new(Arc::default());
        c.create_table("a", schema()).unwrap();
        c.create_table("b", schema()).unwrap();
        assert!(c.create_table("a", schema()).is_err());
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert_eq!(c.table("a").unwrap().name(), "a");
        c.drop_table("a").unwrap();
        assert!(c.table("a").is_err());
        assert!(c.drop_table("a").is_err());
    }

    #[test]
    fn tables_share_the_pool() {
        let c = Catalog::new(Arc::default());
        let a = c.create_table("a", schema()).unwrap();
        let b = c.create_table("b", schema()).unwrap();
        for i in 0..100 {
            a.insert(vec![mmdb_types::Value::int(i)]).unwrap();
            b.insert(vec![mmdb_types::Value::int(i)]).unwrap();
        }
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 100);
    }
}
