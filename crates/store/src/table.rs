//! Tables: a schema plus equal-length columns, with row-wise append.

use crate::column::Column;
use crate::error::{Result, StoreError};
use crate::schema::Schema;
use crate::types::Value;

/// An in-memory columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column definitions.
    pub schema: Schema,
    /// Column storage, parallel to `schema.fields`.
    pub columns: Vec<Column>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Table {
        let columns = schema
            .fields
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        Table { schema, columns }
    }

    /// Build from a schema and pre-built columns (lengths must agree).
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(StoreError::RaggedTable {
                expected: schema.len(),
                found: columns.len(),
                column: "<column count>".into(),
            });
        }
        let n = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields.iter().zip(&columns) {
            if c.len() != n {
                return Err(StoreError::RaggedTable {
                    expected: n,
                    found: c.len(),
                    column: f.name.clone(),
                });
            }
            if c.data_type() != f.data_type {
                return Err(StoreError::TypeMismatch {
                    expected: f.data_type.name().into(),
                    found: c.data_type().name().into(),
                });
            }
        }
        Ok(Table { schema, columns })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Append one row of values (must match schema arity and types).
    pub fn append_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StoreError::RaggedTable {
                expected: self.schema.len(),
                found: row.len(),
                column: "<row arity>".into(),
            });
        }
        for (field, value) in self.schema.fields.iter().zip(&row) {
            if value.is_null() && !field.nullable {
                return Err(StoreError::TypeMismatch {
                    expected: format!("non-null {}", field.data_type.name()),
                    found: "NULL".into(),
                });
            }
        }
        // Validate all pushes will succeed before mutating any column, so a
        // failed append cannot leave the table ragged.
        for (col, value) in self.columns.iter().zip(&row) {
            if !value.is_null() {
                let compatible = match (col.data_type(), value.data_type()) {
                    (a, Some(b)) if a == b => true,
                    (crate::types::DataType::Int64, Some(crate::types::DataType::Int32)) => true,
                    (crate::types::DataType::Float64, Some(crate::types::DataType::Int32)) => true,
                    (crate::types::DataType::Float64, Some(crate::types::DataType::Int64)) => true,
                    (crate::types::DataType::Timestamp, Some(crate::types::DataType::Int64)) => {
                        true
                    }
                    _ => false,
                };
                if !compatible {
                    return Err(StoreError::TypeMismatch {
                        expected: col.data_type().name().into(),
                        found: value
                            .data_type()
                            .map(|d| d.name().to_string())
                            .unwrap_or_else(|| "NULL".into()),
                    });
                }
            }
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value).expect("validated above");
        }
        Ok(())
    }

    /// Fetch one row as values.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Append all rows of another table with an identical schema.
    pub fn append_table(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(StoreError::Catalog(
                "append_table requires identical schemas".into(),
            ));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.append_column(b)?;
        }
        Ok(())
    }

    /// One table holding every row of `parts` in order. Each column is
    /// allocated once, at the exact total row count, so assembling many
    /// parts never regrows a buffer the way repeated
    /// [`Table::append_table`] does; the result is equal to it. Every part
    /// must have exactly `schema`.
    pub fn concat(schema: Schema, parts: &[&Table]) -> Result<Table> {
        if parts.iter().any(|p| p.schema != schema) {
            return Err(StoreError::Catalog(
                "concat requires identical schemas".into(),
            ));
        }
        let columns = schema
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let cols: Vec<&Column> = parts.iter().map(|p| &p.columns[i]).collect();
                Column::concat(f.data_type, &cols)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Table { schema, columns })
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.filter(mask))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            schema: self.schema.clone(),
            columns,
        })
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.take(indices))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            schema: self.schema.clone(),
            columns,
        })
    }

    /// Copy of rows `[offset, offset + len)` — one morsel of this table.
    /// Morsel-driven operators slice their input into fixed-size row
    /// ranges, run each morsel independently, and concatenate the
    /// results in morsel order.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Table> {
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(offset, len))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            schema: self.schema.clone(),
            columns,
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Render as an aligned ASCII table (for the demo/examples).
    pub fn to_ascii(&self, max_rows: usize) -> String {
        let mut header: Vec<String> = self.schema.fields.iter().map(|f| f.name.clone()).collect();
        let shown = self.num_rows().min(max_rows);
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            rows.push(
                self.columns
                    .iter()
                    .map(|c| c.get(i).map(|v| v.to_string()).unwrap_or_default())
                    .collect(),
            );
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        for (h, w) in header.iter_mut().zip(&widths) {
            *h = format!("{h:<w$}");
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-");
        let mut out = String::new();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.num_rows() > shown {
            out.push_str(&format!("... {} more rows\n", self.num_rows() - shown));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn station_schema() -> Schema {
        Schema::new(vec![
            Field::new("station", DataType::Utf8),
            Field::new("value", DataType::Float64),
            Field::nullable("note", DataType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn append_and_fetch_rows() {
        let mut t = Table::empty(station_schema());
        t.append_row(vec![
            Value::Utf8("ISK".into()),
            Value::Float64(1.5),
            Value::Null,
        ])
        .unwrap();
        t.append_row(vec![
            Value::Utf8("HGN".into()),
            Value::Int32(2), // widens to f64
            Value::Utf8("ok".into()),
        ])
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(1).unwrap()[1], Value::Float64(2.0));
        assert_eq!(t.column("station").unwrap().len(), 2);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn non_nullable_rejects_null_atomically() {
        let mut t = Table::empty(station_schema());
        let err = t.append_row(vec![Value::Null, Value::Float64(0.0), Value::Null]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 0, "failed append must not leave debris");
        // Type error in later column must also leave nothing behind.
        let err = t.append_row(vec![
            Value::Utf8("X".into()),
            Value::Utf8("not a number".into()),
            Value::Null,
        ]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.columns[0].len(), 0, "no partial row");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::empty(station_schema());
        assert!(t.append_row(vec![Value::Utf8("X".into())]).is_err());
    }

    #[test]
    fn ragged_construction_rejected() {
        let schema = station_schema();
        let cols = vec![
            Column::from_values(DataType::Utf8, &[Value::Utf8("a".into())]).unwrap(),
            Column::empty(DataType::Float64),
            Column::empty(DataType::Utf8),
        ];
        assert!(Table::new(schema, cols).is_err());
    }

    #[test]
    fn filter_take_append() {
        let mut t = Table::empty(station_schema());
        for i in 0..5 {
            t.append_row(vec![
                Value::Utf8(format!("S{i}")),
                Value::Float64(i as f64),
                Value::Null,
            ])
            .unwrap();
        }
        let f = t.filter(&[true, false, true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 3);
        let g = t.take(&[4, 0]).unwrap();
        assert_eq!(g.row(0).unwrap()[0], Value::Utf8("S4".into()));
        let mut h = Table::empty(station_schema());
        h.append_table(&t).unwrap();
        h.append_table(&f).unwrap();
        assert_eq!(h.num_rows(), 8);
    }

    #[test]
    fn concat_equals_repeated_append() {
        let mut t = Table::empty(station_schema());
        for i in 0..4 {
            let note = if i == 2 {
                Value::Null
            } else {
                Value::Utf8("n".into())
            };
            t.append_row(vec![
                Value::Utf8(format!("S{i}")),
                Value::Float64(i as f64),
                note,
            ])
            .unwrap();
        }
        let (a, b) = (t.slice(0, 1).unwrap(), t.slice(1, 3).unwrap());
        let empty = Table::empty(station_schema());
        let parts = [&a, &empty, &b, &a];
        let mut appended = Table::empty(station_schema());
        for p in parts {
            appended.append_table(p).unwrap();
        }
        let concat = Table::concat(station_schema(), &parts).unwrap();
        assert_eq!(concat, appended, "same rows and the same validity masks");
        assert_eq!(Table::concat(station_schema(), &[]).unwrap().num_rows(), 0);
        let other = Table::empty(Schema::new(vec![Field::new("x", DataType::Int32)]).unwrap());
        assert!(Table::concat(station_schema(), &[&a, &other]).is_err());
    }

    #[test]
    fn ascii_rendering() {
        let mut t = Table::empty(station_schema());
        t.append_row(vec![
            Value::Utf8("ISK".into()),
            Value::Float64(1.25),
            Value::Null,
        ])
        .unwrap();
        let s = t.to_ascii(10);
        assert!(s.contains("station"));
        assert!(s.contains("ISK"));
        assert!(s.contains("1.25"));
        let s2 = t.to_ascii(0);
        assert!(s2.contains("1 more rows"));
    }
}
