//! Table schemas: column definitions, type checking and coercion.

use std::borrow::Cow;

use mmdb_types::{Error, Result, Value};

/// Column data types. `Json` is the multi-model bridge: a typed relational
/// column holding an arbitrary document, exactly PostgreSQL's `JSONB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Arbitrary JSON document (object, array or scalar).
    Json,
    /// Raw bytes.
    Bytes,
}

impl DataType {
    /// Does `v` inhabit this type? `Null` inhabits every nullable column;
    /// nullability is checked separately.
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (DataType::Bool, Value::Bool(_)) => true,
            (DataType::Int, Value::Number(n)) => n.as_i64().is_some(),
            (DataType::Float, Value::Number(_)) => true,
            (DataType::Text, Value::String(_)) => true,
            (DataType::Bytes, Value::Bytes(_)) => true,
            (DataType::Json, _) => true,
            _ => false,
        }
    }
}

impl DataType {
    /// Parse the SQL spelling produced by `Display` (case-insensitive).
    pub fn from_sql(s: &str) -> Result<DataType> {
        Ok(match s.to_ascii_uppercase().as_str() {
            "BOOL" => DataType::Bool,
            "INT" => DataType::Int,
            "FLOAT" => DataType::Float,
            "TEXT" => DataType::Text,
            "JSON" => DataType::Json,
            "BYTES" => DataType::Bytes,
            other => return Err(Error::Schema(format!("unknown column type '{other}'"))),
        })
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Json => "JSON",
            DataType::Bytes => "BYTES",
        };
        write!(f, "{s}")
    }
}

/// One column of a schema.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl ColumnDef {
    /// A nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef { name: name.into(), data_type, nullable: true }
    }

    /// Mark NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// A table schema: ordered columns plus the primary-key column index.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    primary_key: usize,
}

impl Schema {
    /// Build a schema; `primary_key` names one of the columns. The key
    /// column is implicitly NOT NULL.
    pub fn new(columns: Vec<ColumnDef>, primary_key: &str) -> Result<Schema> {
        if columns.is_empty() {
            return Err(Error::Schema("a table needs at least one column".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(Error::Schema(format!("duplicate column '{}'", c.name)));
            }
        }
        let pk = columns
            .iter()
            .position(|c| c.name == primary_key)
            .ok_or_else(|| Error::Schema(format!("primary key '{primary_key}' is not a column")))?;
        let mut columns = columns;
        columns[pk].nullable = false;
        Ok(Schema { columns, primary_key: pk })
    }

    /// The columns in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| Error::NotFound(format!("column '{name}'")))
    }

    /// The primary-key column index.
    pub fn primary_key(&self) -> usize {
        self.primary_key
    }

    /// The primary-key column name.
    pub fn primary_key_name(&self) -> &str {
        &self.columns[self.primary_key].name
    }

    /// Validate a row against the schema: arity, types, nullability.
    /// Integral floats are coerced into INT columns in place.
    pub fn validate(&self, row: &mut [Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::Schema(format!(
                "row has {} values, table has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter_mut().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(Error::Schema(format!("column '{}' is NOT NULL", c.name)));
                }
                continue;
            }
            // Coerce integral floats into INT columns (JSON inputs often
            // arrive as floats).
            if c.data_type == DataType::Int {
                if let Value::Number(n) = v {
                    if let Some(i) = n.as_i64() {
                        *v = Value::int(i);
                    }
                }
            }
            if !c.data_type.admits(v) {
                return Err(Error::Schema(format!(
                    "column '{}' ({}) cannot hold {} value {v}",
                    c.name,
                    c.data_type,
                    v.type_name()
                )));
            }
        }
        Ok(())
    }

    /// Build an ordered row from an object keyed by column names; missing
    /// columns become NULL, unknown keys are an error.
    pub fn row_from_object(&self, obj: &Value) -> Result<Vec<Value>> {
        let map = obj.as_object()?;
        for (k, _) in map.iter() {
            if self.column_index(k).is_err() {
                return Err(Error::Schema(format!("unknown column '{k}'")));
            }
        }
        let mut row = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            row.push(map.get(&c.name).cloned().unwrap_or(Value::Null));
        }
        Ok(row)
    }

    /// Turn an ordered row back into an object. An owned row's values
    /// are moved into it, a borrowed row's cloned; column names are
    /// copied as [`Key`](mmdb_types::Key)s, which holds a short one
    /// without allocating.
    pub fn object_from_row<'r>(&self, row: impl Into<Cow<'r, [Value]>>) -> Value {
        let names = self.columns.iter().map(|c| c.name.as_str());
        match row.into() {
            Cow::Borrowed(row) => Value::object(names.zip(row.iter().cloned())),
            Cow::Owned(row) => Value::object(names.zip(row)),
        }
    }

    /// Encode the schema as a `Value` object:
    /// `{"columns": [{"name", "type", "nullable"}, ...], "primary_key"}`,
    /// with types in their SQL spelling. This is the shape shared by the
    /// wire protocol's `CREATE TABLE` and the WAL's `ddl/table` records.
    pub fn to_value(&self) -> Value {
        let columns: Vec<Value> = self
            .columns
            .iter()
            .map(|c| {
                Value::object([
                    ("name", Value::str(&c.name)),
                    ("type", Value::str(c.data_type.to_string())),
                    ("nullable", Value::Bool(c.nullable)),
                ])
            })
            .collect();
        Value::object([
            ("columns", Value::Array(columns)),
            ("primary_key", Value::str(self.primary_key_name())),
        ])
    }

    /// Decode [`Schema::to_value`] output back into a schema.
    pub fn from_value(v: &Value) -> Result<Schema> {
        let columns = v
            .get_field("columns")
            .as_array()
            .map_err(|_| Error::Schema("schema needs a 'columns' array".into()))?;
        let mut defs = Vec::with_capacity(columns.len());
        for c in columns {
            let name = c
                .get_field("name")
                .as_str()
                .map_err(|_| Error::Schema("schema column needs a string 'name'".into()))?;
            let ty = DataType::from_sql(
                c.get_field("type")
                    .as_str()
                    .map_err(|_| Error::Schema("schema column needs a string 'type'".into()))?,
            )?;
            let mut def = ColumnDef::new(name, ty);
            if let Value::Bool(false) = c.get_field("nullable") {
                def = def.not_null();
            }
            defs.push(def);
        }
        let pk = v
            .get_field("primary_key")
            .as_str()
            .map_err(|_| Error::Schema("schema needs a string 'primary_key'".into()))?;
        Schema::new(defs, pk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customers() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text).not_null(),
                ColumnDef::new("credit_limit", DataType::Int),
                ColumnDef::new("orders", DataType::Json),
            ],
            "id",
        )
        .unwrap()
    }

    #[test]
    fn construction_rules() {
        assert!(Schema::new(vec![], "id").is_err());
        assert!(Schema::new(vec![ColumnDef::new("a", DataType::Int)], "b").is_err());
        let dup = Schema::new(
            vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("a", DataType::Text)],
            "a",
        );
        assert!(dup.is_err());
        let s = customers();
        assert_eq!(s.primary_key_name(), "id");
        assert!(!s.columns()[0].nullable, "pk is implicitly NOT NULL");
    }

    #[test]
    fn validation_and_coercion() {
        let s = customers();
        let mut row = vec![
            Value::float(1.0), // coerces to INT
            Value::str("Mary"),
            Value::int(5000),
            mmdb_types::from_json(r#"{"Order_no":"0c6df508"}"#).unwrap(),
        ];
        s.validate(&mut row).unwrap();
        assert_eq!(row[0], Value::int(1));
        assert!(matches!(row[0], Value::Number(mmdb_types::Number::Int(_))));
    }

    #[test]
    fn validation_failures() {
        let s = customers();
        // Wrong arity.
        assert!(s.validate(&mut [Value::int(1)]).is_err());
        // NOT NULL violation.
        let mut row = vec![Value::int(1), Value::Null, Value::Null, Value::Null];
        assert!(s.validate(&mut row).is_err());
        // Type mismatch.
        let mut row = vec![Value::str("x"), Value::str("Mary"), Value::Null, Value::Null];
        assert!(s.validate(&mut row).is_err());
        // Non-integral float into INT.
        let mut row = vec![Value::float(1.5), Value::str("Mary"), Value::Null, Value::Null];
        assert!(s.validate(&mut row).is_err());
    }

    #[test]
    fn object_row_roundtrip() {
        let s = customers();
        let obj = mmdb_types::from_json(r#"{"id":2,"name":"John","credit_limit":3000}"#).unwrap();
        let row = s.row_from_object(&obj).unwrap();
        assert_eq!(row[3], Value::Null, "missing column becomes NULL");
        let back = s.object_from_row(&row);
        assert_eq!(back.get_field("name"), &Value::str("John"));
        // Unknown key rejected.
        let bad = mmdb_types::from_json(r#"{"id":2,"oops":1}"#).unwrap();
        assert!(s.row_from_object(&bad).is_err());
    }

    #[test]
    fn value_encoding_round_trips() {
        let s = customers();
        let back = Schema::from_value(&s.to_value()).unwrap();
        assert_eq!(back.primary_key_name(), "id");
        assert_eq!(back.columns().len(), s.columns().len());
        for (a, b) in back.columns().iter().zip(s.columns()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.data_type, b.data_type);
            assert_eq!(a.nullable, b.nullable);
        }
        assert_eq!(Schema::from_value(&Value::int(3)).unwrap_err().kind(), "schema");
        assert!(DataType::from_sql("text").is_ok(), "case-insensitive");
        assert!(DataType::from_sql("DECIMAL").is_err());
    }

    #[test]
    fn json_column_admits_anything() {
        assert!(DataType::Json.admits(&Value::int(1)));
        assert!(DataType::Json.admits(&mmdb_types::from_json("[1,2]").unwrap()));
        assert!(!DataType::Int.admits(&Value::str("x")));
        assert!(DataType::Int.admits(&Value::Null));
    }
}
