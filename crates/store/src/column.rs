//! Typed columns with validity bitmaps — the store's BAT analogue.
//!
//! MonetDB stores every attribute as a Binary Association Table; our
//! [`Column`] is the equivalent unit: a typed, contiguous vector plus an
//! optional validity mask. All executor operators consume and produce
//! columns, giving the column-at-a-time execution style of the paper's
//! host system.

use crate::error::{Result, StoreError};
use crate::types::{DataType, Value};

/// Physical storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// Doubles.
    Float64(Vec<f64>),
    /// Strings.
    Utf8(Vec<String>),
    /// Timestamps (µs since epoch).
    Timestamp(Vec<i64>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Timestamp(v) => v.len(),
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
            ColumnData::Timestamp(_) => DataType::Timestamp,
        }
    }
}

/// A typed column with an optional validity mask.
///
/// `validity[i] == false` marks row `i` as NULL; a `None` mask means all
/// rows are valid (the common case, kept allocation-free).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

impl Column {
    /// Wrap raw data with no NULLs.
    pub fn new(data: ColumnData) -> Column {
        Column {
            data,
            validity: None,
        }
    }

    /// Wrap raw data with a validity mask (must match length).
    pub fn with_validity(data: ColumnData, validity: Vec<bool>) -> Result<Column> {
        if validity.len() != data.len() {
            return Err(StoreError::RaggedTable {
                expected: data.len(),
                found: validity.len(),
                column: "<validity>".into(),
            });
        }
        // Drop an all-true mask eagerly.
        if validity.iter().all(|&v| v) {
            return Ok(Column {
                data,
                validity: None,
            });
        }
        Ok(Column {
            data,
            validity: Some(validity),
        })
    }

    /// An empty column of the given type.
    pub fn empty(dt: DataType) -> Column {
        let data = match dt {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int32 => ColumnData::Int32(Vec::new()),
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Utf8 => ColumnData::Utf8(Vec::new()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new()),
        };
        Column::new(data)
    }

    /// Build a column from scalar values in a single typed pass.
    ///
    /// Dispatches on `dt` once, then appends raw payloads directly —
    /// no per-`Value` [`Column::push`] type check. The widening rules are
    /// the same as `push`: `Int32` loads into `Int64`/`Float64` columns,
    /// `Int64` into `Float64` and `Timestamp`.
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Column> {
        let n = values.len();
        let mut validity: Option<Vec<bool>> = None;
        let mismatch = |value: &Value| StoreError::TypeMismatch {
            expected: dt.name().to_string(),
            found: value
                .data_type()
                .map(|d| d.name().to_string())
                .unwrap_or_else(|| "NULL".to_string()),
        };
        macro_rules! build {
            ($variant:ident, $zero:expr, |$v:ident| $extract:expr) => {{
                let mut out = Vec::with_capacity(n);
                for (i, $v) in values.iter().enumerate() {
                    match $extract {
                        Some(x) => out.push(x),
                        None if $v.is_null() => {
                            validity.get_or_insert_with(|| vec![true; n])[i] = false;
                            out.push($zero);
                        }
                        None => return Err(mismatch($v)),
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match dt {
            DataType::Bool => build!(Bool, false, |v| v.as_bool()),
            DataType::Int32 => build!(Int32, 0i32, |v| match v {
                Value::Int32(x) => Some(*x),
                _ => None,
            }),
            DataType::Int64 => build!(Int64, 0i64, |v| match v {
                Value::Int64(x) => Some(*x),
                Value::Int32(x) => Some(*x as i64),
                _ => None,
            }),
            DataType::Float64 => build!(Float64, 0.0f64, |v| match v {
                Value::Float64(x) => Some(*x),
                Value::Int32(x) => Some(*x as f64),
                Value::Int64(x) => Some(*x as f64),
                _ => None,
            }),
            DataType::Utf8 => build!(Utf8, String::new(), |v| match v {
                Value::Utf8(s) => Some(s.clone()),
                _ => None,
            }),
            DataType::Timestamp => build!(Timestamp, 0i64, |v| match v {
                Value::Timestamp(x) | Value::Int64(x) => Some(*x),
                _ => None,
            }),
        };
        Ok(Column { data, validity })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Raw data access.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Raw validity access (`None` = all rows valid). Kernel loops pair
    /// this with [`Column::data`] to stay off the boxed-`Value` path.
    pub fn validity(&self) -> Option<&Vec<bool>> {
        self.validity.as_ref()
    }

    /// True when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v[i])
    }

    /// Count of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |v| v.iter().filter(|&&ok| !ok).count())
    }

    /// The value at row `i` (bounds-checked).
    pub fn get(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(StoreError::OutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        if self.is_null(i) {
            return Ok(Value::Null);
        }
        Ok(match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int32(v) => Value::Int32(v[i]),
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Utf8(v) => Value::Utf8(v[i].clone()),
            ColumnData::Timestamp(v) => Value::Timestamp(v[i]),
        })
    }

    fn ensure_validity(&mut self) -> &mut Vec<bool> {
        let len = self.len();
        self.validity.get_or_insert_with(|| vec![true; len])
    }

    /// Append one value, which must match the column type or be NULL.
    ///
    /// Int32 widens into Int64/Float64 columns and Int64 into Float64, so
    /// integer literals load into wider columns without ceremony.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if value.is_null() {
            self.ensure_validity().push(false);
            match &mut self.data {
                ColumnData::Bool(v) => v.push(false),
                ColumnData::Int32(v) => v.push(0),
                ColumnData::Int64(v) => v.push(0),
                ColumnData::Float64(v) => v.push(0.0),
                ColumnData::Utf8(v) => v.push(String::new()),
                ColumnData::Timestamp(v) => v.push(0),
            }
            return Ok(());
        }
        let mismatch = |col: &Column, value: &Value| StoreError::TypeMismatch {
            expected: col.data_type().name().to_string(),
            found: value
                .data_type()
                .map(|d| d.name().to_string())
                .unwrap_or_else(|| "NULL".to_string()),
        };
        match (&mut self.data, &value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(*b),
            (ColumnData::Int32(v), Value::Int32(x)) => v.push(*x),
            (ColumnData::Int64(v), Value::Int64(x)) => v.push(*x),
            (ColumnData::Int64(v), Value::Int32(x)) => v.push(*x as i64),
            (ColumnData::Float64(v), Value::Float64(x)) => v.push(*x),
            (ColumnData::Float64(v), Value::Int32(x)) => v.push(*x as f64),
            (ColumnData::Float64(v), Value::Int64(x)) => v.push(*x as f64),
            (ColumnData::Utf8(v), Value::Utf8(s)) => v.push(s.clone()),
            (ColumnData::Timestamp(v), Value::Timestamp(t)) => v.push(*t),
            (ColumnData::Timestamp(v), Value::Int64(t)) => v.push(*t),
            _ => return Err(mismatch(self, &value)),
        }
        if let Some(mask) = &mut self.validity {
            mask.push(true);
        }
        Ok(())
    }

    /// New column keeping rows where `mask` is true.
    ///
    /// One type dispatch, then a bulk copy into a pre-sized buffer —
    /// primitive payloads move as plain `Copy` loads, never through a
    /// boxed [`Value`].
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(StoreError::RaggedTable {
                expected: self.len(),
                found: mask.len(),
                column: "<filter mask>".into(),
            });
        }
        let kept = mask.iter().filter(|&&m| m).count();
        macro_rules! filt_copy {
            ($v:expr, $variant:ident) => {{
                let mut out = Vec::with_capacity(kept);
                out.extend($v.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x));
                ColumnData::$variant(out)
            }};
        }
        let data = match &self.data {
            ColumnData::Bool(v) => filt_copy!(v, Bool),
            ColumnData::Int32(v) => filt_copy!(v, Int32),
            ColumnData::Int64(v) => filt_copy!(v, Int64),
            ColumnData::Float64(v) => filt_copy!(v, Float64),
            ColumnData::Timestamp(v) => filt_copy!(v, Timestamp),
            ColumnData::Utf8(v) => {
                let mut out = Vec::with_capacity(kept);
                out.extend(
                    v.iter()
                        .zip(mask)
                        .filter(|(_, &m)| m)
                        .map(|(x, _)| x.clone()),
                );
                ColumnData::Utf8(out)
            }
        };
        let validity = self.validity.as_ref().map(|val| {
            let mut out = Vec::with_capacity(kept);
            out.extend(val.iter().zip(mask).filter(|(_, &m)| m).map(|(&ok, _)| ok));
            out
        });
        Ok(Column { data, validity })
    }

    /// New column of the rows at `indices` (gather), with the same
    /// dispatch-once bulk-copy shape as [`Column::filter`].
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(StoreError::OutOfBounds { index: bad, len });
        }
        macro_rules! gather_copy {
            ($v:expr, $variant:ident) => {{
                let mut out = Vec::with_capacity(indices.len());
                out.extend(indices.iter().map(|&i| $v[i]));
                ColumnData::$variant(out)
            }};
        }
        let data = match &self.data {
            ColumnData::Bool(v) => gather_copy!(v, Bool),
            ColumnData::Int32(v) => gather_copy!(v, Int32),
            ColumnData::Int64(v) => gather_copy!(v, Int64),
            ColumnData::Float64(v) => gather_copy!(v, Float64),
            ColumnData::Timestamp(v) => gather_copy!(v, Timestamp),
            ColumnData::Utf8(v) => {
                let mut out = Vec::with_capacity(indices.len());
                out.extend(indices.iter().map(|&i| v[i].clone()));
                ColumnData::Utf8(out)
            }
        };
        let validity = self.validity.as_ref().map(|val| {
            let mut out = Vec::with_capacity(indices.len());
            out.extend(indices.iter().map(|&i| val[i]));
            out
        });
        Ok(Column { data, validity })
    }

    /// New column holding rows `[offset, offset + len)` — the unit of
    /// morsel-driven execution. One type dispatch, then a bulk range
    /// copy; `offset + len` must stay in bounds.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Column> {
        let end = offset.checked_add(len).filter(|&e| e <= self.len()).ok_or(
            StoreError::OutOfBounds {
                index: offset + len,
                len: self.len(),
            },
        )?;
        macro_rules! range_copy {
            ($v:expr, $variant:ident) => {
                ColumnData::$variant($v[offset..end].to_vec())
            };
        }
        let data = match &self.data {
            ColumnData::Bool(v) => range_copy!(v, Bool),
            ColumnData::Int32(v) => range_copy!(v, Int32),
            ColumnData::Int64(v) => range_copy!(v, Int64),
            ColumnData::Float64(v) => range_copy!(v, Float64),
            ColumnData::Timestamp(v) => range_copy!(v, Timestamp),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[offset..end].to_vec()),
        };
        let validity = self.validity.as_ref().map(|v| v[offset..end].to_vec());
        Ok(Column { data, validity })
    }

    /// Append all rows of `other` (types must match exactly).
    pub fn append_column(&mut self, other: &Column) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(StoreError::TypeMismatch {
                expected: self.data_type().name().into(),
                found: other.data_type().name().into(),
            });
        }
        if other.validity.is_some() || self.validity.is_some() {
            let n_self = self.len();
            let mask = self.ensure_validity();
            match &other.validity {
                Some(v) => mask.extend_from_slice(v),
                None => mask.extend(std::iter::repeat_n(true, other.len())),
            }
            debug_assert_eq!(mask.len(), n_self + other.len());
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Int32(a), ColumnData::Int32(b)) => a.extend_from_slice(b),
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend_from_slice(b),
            (ColumnData::Timestamp(a), ColumnData::Timestamp(b)) => a.extend_from_slice(b),
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// One column holding every row of `parts` in order, allocated once at
    /// the exact total length. The result equals appending the parts one
    /// by one with [`Column::append_column`], validity mask included.
    pub(crate) fn concat(dt: DataType, parts: &[&Column]) -> Result<Column> {
        if let Some(bad) = parts.iter().find(|c| c.data_type() != dt) {
            return Err(StoreError::TypeMismatch {
                expected: dt.name().into(),
                found: bad.data_type().name().into(),
            });
        }
        let total: usize = parts.iter().map(|c| c.len()).sum();
        macro_rules! gather {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    if let ColumnData::$variant(v) = &p.data {
                        out.extend_from_slice(v);
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match dt {
            DataType::Bool => gather!(Bool),
            DataType::Int32 => gather!(Int32),
            DataType::Int64 => gather!(Int64),
            DataType::Float64 => gather!(Float64),
            DataType::Utf8 => gather!(Utf8),
            DataType::Timestamp => gather!(Timestamp),
        };
        let validity = parts.iter().any(|p| p.validity.is_some()).then(|| {
            let mut mask = Vec::with_capacity(total);
            for p in parts {
                match &p.validity {
                    Some(v) => mask.extend_from_slice(v),
                    None => mask.extend(std::iter::repeat_n(true, p.len())),
                }
            }
            mask
        });
        Ok(Column { data, validity })
    }

    /// Approximate heap footprint in bytes (used for cache budgeting).
    pub fn byte_size(&self) -> usize {
        let data = match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int32(v) => v.len() * 4,
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Timestamp(v) => v.len() * 8,
            ColumnData::Utf8(v) => v.iter().map(|s| s.len() + 24).sum(),
        };
        data + self.validity.as_ref().map_or(0, |v| v.len())
    }

    /// Iterate values (clones; use typed access in hot paths).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_with_nulls() {
        let mut col = Column::empty(DataType::Int64);
        col.push(Value::Int64(1)).unwrap();
        col.push(Value::Null).unwrap();
        col.push(Value::Int32(3)).unwrap(); // widens
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.get(0).unwrap(), Value::Int64(1));
        assert!(col.get(1).unwrap().is_null());
        assert_eq!(col.get(2).unwrap(), Value::Int64(3));
        assert!(col.get(3).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut col = Column::empty(DataType::Utf8);
        assert!(col.push(Value::Int32(1)).is_err());
        let mut col = Column::empty(DataType::Int32);
        assert!(col.push(Value::Int64(1)).is_err(), "no silent narrowing");
        assert!(col.push(Value::Float64(1.0)).is_err());
    }

    #[test]
    fn filter_preserves_validity() {
        let col = Column::from_values(
            DataType::Float64,
            &[
                Value::Float64(1.0),
                Value::Null,
                Value::Float64(3.0),
                Value::Float64(4.0),
            ],
        )
        .unwrap();
        let out = col.filter(&[true, true, false, true]).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.get(1).unwrap().is_null());
        assert_eq!(out.get(2).unwrap(), Value::Float64(4.0));
        assert!(col.filter(&[true]).is_err(), "mask length checked");
    }

    #[test]
    fn take_gathers_with_repeats() {
        let col = Column::from_values(
            DataType::Utf8,
            &[
                Value::Utf8("a".into()),
                Value::Utf8("b".into()),
                Value::Utf8("c".into()),
            ],
        )
        .unwrap();
        let out = col.take(&[2, 0, 2]).unwrap();
        assert_eq!(out.get(0).unwrap(), Value::Utf8("c".into()));
        assert_eq!(out.get(1).unwrap(), Value::Utf8("a".into()));
        assert_eq!(out.get(2).unwrap(), Value::Utf8("c".into()));
        assert!(col.take(&[3]).is_err());
    }

    #[test]
    fn append_column_merges_masks() {
        let mut a = Column::from_values(DataType::Int32, &[Value::Int32(1)]).unwrap();
        let b = Column::from_values(DataType::Int32, &[Value::Null, Value::Int32(2)]).unwrap();
        a.append_column(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.get(1).unwrap().is_null());
        assert_eq!(a.get(2).unwrap(), Value::Int32(2));
        let c = Column::empty(DataType::Utf8);
        assert!(a.append_column(&c).is_err());
    }

    #[test]
    fn all_true_mask_is_dropped() {
        let col = Column::with_validity(ColumnData::Int32(vec![1, 2]), vec![true, true]).unwrap();
        assert_eq!(col.null_count(), 0);
        // Internal representation has no mask; filter keeps it that way.
        let f = col.filter(&[true, false]).unwrap();
        assert_eq!(f.null_count(), 0);
    }

    #[test]
    fn byte_size_tracks_payload() {
        let ints = Column::from_values(
            DataType::Int64,
            &(0..100).map(Value::Int64).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(ints.byte_size(), 800);
        let strs = Column::from_values(DataType::Utf8, &[Value::Utf8("hello".into())]).unwrap();
        assert!(strs.byte_size() >= 5);
    }

    #[test]
    fn timestamp_accepts_int64() {
        let mut col = Column::empty(DataType::Timestamp);
        col.push(Value::Timestamp(100)).unwrap();
        col.push(Value::Int64(200)).unwrap();
        assert_eq!(col.get(1).unwrap(), Value::Timestamp(200));
    }
}
