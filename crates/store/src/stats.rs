//! Per-column statistics: min/max/null/NaN counts, distinct-count
//! estimates and equi-width histograms.
//!
//! The lazy rewriter uses record-level metadata for pruning, but the store
//! also keeps ordinary column statistics so the cost-based planner can
//! estimate scan/filter/join cardinalities, EXPLAIN output and the demo's
//! metadata browser can show value ranges, and tests can assert loaded
//! data matches the repository's ground truth.
//!
//! # NaN handling
//!
//! Float columns may contain NaN (a sensor gap widened to f64, a folded
//! `0.0/0.0`). Under the engine's `total_cmp` comparison semantics a NaN
//! orders *beyond* ±∞, so folding it into `[min, max]` poisons the range:
//! every interval containing NaN is unbounded on that side and histogram
//! bucket widths become NaN. Statistics therefore **exclude NaN from
//! min/max and histograms** and report it separately in
//! [`ColumnStats::nans`]; range-based consumers (zone-map pruning, the
//! cost model) must treat `nans > 0` as "the range does not cover every
//! row" and stay conservative.

use crate::column::Column;
use crate::error::{Result, StoreError};
use crate::table::Table;
use crate::types::Value;

/// Number of buckets in an equi-width histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Bits in the distinct-count sketch (a linear-probabilistic counter).
const SKETCH_BITS: usize = 1024;
const SKETCH_WORDS: usize = SKETCH_BITS / 64;

/// Equi-width histogram over a numeric column's non-null, non-NaN values.
///
/// `counts[i]` holds the values in `[lo + i*w, lo + (i+1)*w)` for
/// `w = (hi - lo) / counts.len()`; the last bucket is closed at `hi`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the histogram range (= column min).
    pub lo: f64,
    /// Inclusive upper bound (= column max).
    pub hi: f64,
    /// Per-bucket value counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Total values the histogram covers.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated fraction of covered values that are `<= x`, by linear
    /// interpolation inside the bucket containing `x`. Clamped to [0, 1].
    pub fn fraction_le(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 || !x.is_finite() {
            // NaN/inf probes get the conservative middle ground.
            return 0.5;
        }
        if x < self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        if width <= 0.0 {
            return 1.0; // degenerate single-point histogram, x >= lo
        }
        let bucket = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
        let below: u64 = self.counts[..bucket].iter().sum();
        let within = self.counts[bucket] as f64;
        let frac_in_bucket = ((x - (self.lo + bucket as f64 * width)) / width).clamp(0.0, 1.0);
        ((below as f64 + within * frac_in_bucket) / total as f64).clamp(0.0, 1.0)
    }

    /// Estimated fraction of covered values inside the closed range
    /// `[a, b]` (either side unbounded when `None`).
    pub fn fraction_between(&self, a: Option<f64>, b: Option<f64>) -> f64 {
        let lo = a.map_or(0.0, |v| self.fraction_le(v));
        let hi = b.map_or(1.0, |v| self.fraction_le(v));
        (hi - lo).max(0.0)
    }
}

/// Distinct-count estimator: a fixed 1024-bit linear-probabilistic
/// counting sketch. Insertion sets bit `hash % 1024`; the estimate is
/// `m · ln(m / zero_bits)`, exact for small cardinalities and within a
/// few percent up to a few thousand distinct values — plenty for join
/// ordering, which only needs relative magnitudes.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    bits: [u64; SKETCH_WORDS],
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch {
            bits: [0; SKETCH_WORDS],
        }
    }
}

impl DistinctSketch {
    /// A fresh, empty sketch.
    pub fn new() -> DistinctSketch {
        DistinctSketch::default()
    }

    /// Record one value by its hash.
    pub fn insert_hash(&mut self, hash: u64) {
        let bit = (hash % SKETCH_BITS as u64) as usize;
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    /// Estimated distinct count.
    pub fn estimate(&self) -> u64 {
        let zeros: u32 = self
            .bits
            .iter()
            .map(|w| w.count_zeros())
            .sum::<u32>()
            .max(1); // saturated sketch: report the sketch capacity bound
        let m = SKETCH_BITS as f64;
        (m * (m / zeros as f64).ln()).round() as u64
    }
}

/// FNV-1a hash of a byte slice — the sketch's dependency-free hash,
/// stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Summary statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Row count.
    pub count: usize,
    /// NULL count.
    pub nulls: usize,
    /// NaN count (float columns only; NaN is excluded from `min`/`max`
    /// and `histogram`, so a non-zero value taints the range — see the
    /// module docs).
    pub nans: usize,
    /// Minimum non-null, non-NaN value (None when no such value exists).
    pub min: Option<Value>,
    /// Maximum non-null, non-NaN value.
    pub max: Option<Value>,
    /// Estimated distinct count of non-null values (None when unknown:
    /// an all-null column, or a hand-built entry such as the warehouse's
    /// synthesized row count for the external data table).
    pub distinct: Option<u64>,
    /// Equi-width histogram over non-null, non-NaN numeric values (None
    /// for non-numeric columns, empty columns, or hand-built entries).
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// A named, all-empty statistics entry, for tests and for hand-built
    /// entries where only part of the data is known (the warehouse sets
    /// just `count` for the external data table).
    pub fn empty(name: &str) -> ColumnStats {
        ColumnStats {
            name: name.to_string(),
            count: 0,
            nulls: 0,
            nans: 0,
            min: None,
            max: None,
            distinct: None,
            histogram: None,
        }
    }

    /// Is the `[min, max]` range trusted to cover every non-null row?
    ///
    /// False when the column holds NaNs (excluded from the range) or when
    /// a bound itself is NaN (stats computed by a pre-fix build folded
    /// NaN into min/max via `total_cmp`). Zone-map exclusion and range
    /// selectivity must not fire on an untrusted range.
    pub fn range_trusted(&self) -> bool {
        let bound_nan = |v: &Option<Value>| matches!(v, Some(Value::Float64(f)) if f.is_nan());
        self.nans == 0 && !bound_nan(&self.min) && !bound_nan(&self.max)
    }
}

/// Compute statistics for a single column.
///
/// Runs as two typed passes over the raw slice (the zone-map build path —
/// [`crate::catalog::Catalog::zone_map`] — calls this per catalog table,
/// so it must not box a [`Value`] per row): one for min/max/NaN/distinct,
/// one for the histogram (whose bucket bounds need min/max first).
pub fn column_stats(name: &str, col: &Column) -> ColumnStats {
    use crate::column::ColumnData as CD;
    let valid = |i: usize| !col.is_null(i);
    // Fold (min, max) over the valid rows of a typed slice.
    fn minmax<T: PartialOrd + Copy>(data: &[T], valid: impl Fn(usize) -> bool) -> Option<(T, T)> {
        let mut best: Option<(T, T)> = None;
        for (i, &x) in data.iter().enumerate() {
            if !valid(i) {
                continue;
            }
            match &mut best {
                None => best = Some((x, x)),
                Some((lo, hi)) => {
                    if x < *lo {
                        *lo = x;
                    }
                    if x > *hi {
                        *hi = x;
                    }
                }
            }
        }
        best
    }
    let mut sketch = DistinctSketch::new();
    let mut nans = 0usize;
    let (min, max) = match col.data() {
        CD::Bool(v) => {
            for (i, x) in v.iter().enumerate() {
                if valid(i) {
                    sketch.insert_hash(*x as u64);
                }
            }
            match minmax(v, valid) {
                Some((lo, hi)) => (Some(Value::Bool(lo)), Some(Value::Bool(hi))),
                None => (None, None),
            }
        }
        CD::Int32(v) => {
            for (i, x) in v.iter().enumerate() {
                if valid(i) {
                    sketch.insert_hash(fnv1a(&(*x as i64).to_le_bytes()));
                }
            }
            match minmax(v, valid) {
                Some((lo, hi)) => (Some(Value::Int32(lo)), Some(Value::Int32(hi))),
                None => (None, None),
            }
        }
        CD::Int64(v) => {
            for (i, x) in v.iter().enumerate() {
                if valid(i) {
                    sketch.insert_hash(fnv1a(&x.to_le_bytes()));
                }
            }
            match minmax(v, valid) {
                Some((lo, hi)) => (Some(Value::Int64(lo)), Some(Value::Int64(hi))),
                None => (None, None),
            }
        }
        CD::Timestamp(v) => {
            for (i, x) in v.iter().enumerate() {
                if valid(i) {
                    sketch.insert_hash(fnv1a(&x.to_le_bytes()));
                }
            }
            match minmax(v, valid) {
                Some((lo, hi)) => (Some(Value::Timestamp(lo)), Some(Value::Timestamp(hi))),
                None => (None, None),
            }
        }
        // f64: NaN is counted, not folded — a NaN min/max would poison
        // every range computation downstream (module docs).
        CD::Float64(v) => {
            let mut best: Option<(f64, f64)> = None;
            for (i, &x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                if x.is_nan() {
                    nans += 1;
                    sketch.insert_hash(fnv1a(&f64::NAN.to_bits().to_le_bytes()));
                    continue;
                }
                // Normalize -0.0 like `group_key` so distinct counting
                // agrees with join/group semantics.
                let norm = if x == 0.0 { 0.0f64 } else { x };
                sketch.insert_hash(fnv1a(&norm.to_bits().to_le_bytes()));
                match &mut best {
                    None => best = Some((x, x)),
                    Some((lo, hi)) => {
                        if x < *lo {
                            *lo = x;
                        }
                        if x > *hi {
                            *hi = x;
                        }
                    }
                }
            }
            match best {
                Some((lo, hi)) => (Some(Value::Float64(lo)), Some(Value::Float64(hi))),
                None => (None, None),
            }
        }
        // Strings: track best by reference, clone exactly twice at the end.
        CD::Utf8(v) => {
            let mut best: Option<(&str, &str)> = None;
            for (i, x) in v.iter().enumerate() {
                if col.is_null(i) {
                    continue;
                }
                sketch.insert_hash(fnv1a(x.as_bytes()));
                match &mut best {
                    None => best = Some((x, x)),
                    Some((lo, hi)) => {
                        if x.as_str() < *lo {
                            *lo = x;
                        }
                        if x.as_str() > *hi {
                            *hi = x;
                        }
                    }
                }
            }
            match best {
                Some((lo, hi)) => (
                    Some(Value::Utf8(lo.to_string())),
                    Some(Value::Utf8(hi.to_string())),
                ),
                None => (None, None),
            }
        }
    };
    let distinct = if col.len() > col.null_count() {
        Some(sketch.estimate())
    } else {
        None
    };
    let histogram = build_histogram(col, &min, &max);
    ColumnStats {
        name: name.to_string(),
        count: col.len(),
        nulls: col.null_count(),
        nans,
        min,
        max,
        distinct,
        histogram,
    }
}

/// Second statistics pass: equi-width bucket counts over the numeric
/// values of `col`, bounded by the (NaN-free) min/max of the first pass.
fn build_histogram(col: &Column, min: &Option<Value>, max: &Option<Value>) -> Option<Histogram> {
    use crate::column::ColumnData as CD;
    let lo = min.as_ref()?.as_f64()?;
    let hi = max.as_ref()?.as_f64()?;
    if !lo.is_finite() || !hi.is_finite() {
        return None; // ±∞ values make equi-width buckets meaningless
    }
    let mut counts = vec![0u64; HISTOGRAM_BUCKETS];
    let width = (hi - lo) / HISTOGRAM_BUCKETS as f64;
    let mut add = |x: f64| {
        if x.is_nan() {
            return;
        }
        let b = if width > 0.0 {
            (((x - lo) / width) as usize).min(HISTOGRAM_BUCKETS - 1)
        } else {
            0
        };
        counts[b] += 1;
    };
    match col.data() {
        CD::Int32(v) => {
            for (i, x) in v.iter().enumerate() {
                if !col.is_null(i) {
                    add(*x as f64);
                }
            }
        }
        CD::Int64(v) | CD::Timestamp(v) => {
            for (i, x) in v.iter().enumerate() {
                if !col.is_null(i) {
                    add(*x as f64);
                }
            }
        }
        CD::Float64(v) => {
            for (i, x) in v.iter().enumerate() {
                if !col.is_null(i) {
                    add(*x);
                }
            }
        }
        CD::Bool(_) | CD::Utf8(_) => return None,
    }
    Some(Histogram { lo, hi, counts })
}

/// Compute statistics for every column of a table.
pub fn table_stats(table: &Table) -> Vec<ColumnStats> {
    table
        .schema
        .fields
        .iter()
        .zip(&table.columns)
        .map(|(f, c)| column_stats(&f.name, c))
        .collect()
}

// ---------------------------------------------------------------------
// Serialization — the persisted statistics section of a saved warehouse.
//
// Format (little-endian, no framing — the caller owns integrity):
//   magic "LZST" | u16 version | u32 n_tables
//   per table:  u16 name_len | name | u32 n_cols | n_cols × column
//   per column: u16 name_len | name | u64 count | u64 nulls | u64 nans
//               | value min | value max
//               | u8 has_distinct [u64 distinct]
//               | u8 has_histogram [f64 lo | f64 hi | u32 n | n × u64]
//   value:      u8 tag (0 absent, 1 bool, 2 i32, 3 i64, 4 f64, 5 utf8,
//               6 timestamp) | payload
// ---------------------------------------------------------------------

const STATS_MAGIC: &[u8; 4] = b"LZST";
const STATS_VERSION: u16 = 1;

fn write_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None | Some(Value::Null) => out.push(0),
        Some(Value::Bool(b)) => {
            out.push(1);
            out.push(*b as u8);
        }
        Some(Value::Int32(x)) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Some(Value::Int64(x)) => {
            out.push(3);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Some(Value::Float64(x)) => {
            out.push(4);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Some(Value::Utf8(s)) => {
            out.push(5);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Some(Value::Timestamp(x)) => {
            out.push(6);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::Corrupt("statistics section truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn string(&mut self, len: usize) -> Result<String> {
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| StoreError::Corrupt("non-UTF8 name in statistics section".into()))
    }
}

fn read_value(c: &mut Cursor) -> Result<Option<Value>> {
    Ok(match c.u8()? {
        0 => None,
        1 => Some(Value::Bool(c.u8()? != 0)),
        2 => Some(Value::Int32(i32::from_le_bytes(
            c.take(4)?.try_into().unwrap(),
        ))),
        3 => Some(Value::Int64(i64::from_le_bytes(
            c.take(8)?.try_into().unwrap(),
        ))),
        4 => Some(Value::Float64(c.f64()?)),
        5 => {
            let len = c.u32()? as usize;
            if len > (1 << 24) {
                return Err(StoreError::Corrupt(format!(
                    "implausible string length {len} in statistics section"
                )));
            }
            Some(Value::Utf8(c.string(len)?))
        }
        6 => Some(Value::Timestamp(i64::from_le_bytes(
            c.take(8)?.try_into().unwrap(),
        ))),
        other => {
            return Err(StoreError::Corrupt(format!(
                "unknown value tag {other} in statistics section"
            )))
        }
    })
}

/// Serialize per-table statistics (table name → column stats) to bytes.
pub fn stats_to_bytes(tables: &[(String, Vec<ColumnStats>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(STATS_MAGIC);
    out.extend_from_slice(&STATS_VERSION.to_le_bytes());
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, cols) in tables {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(cols.len() as u32).to_le_bytes());
        for s in cols {
            out.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(&(s.count as u64).to_le_bytes());
            out.extend_from_slice(&(s.nulls as u64).to_le_bytes());
            out.extend_from_slice(&(s.nans as u64).to_le_bytes());
            write_value(&mut out, &s.min);
            write_value(&mut out, &s.max);
            match s.distinct {
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(&d.to_le_bytes());
                }
                None => out.push(0),
            }
            match &s.histogram {
                Some(h) => {
                    out.push(1);
                    out.extend_from_slice(&h.lo.to_le_bytes());
                    out.extend_from_slice(&h.hi.to_le_bytes());
                    out.extend_from_slice(&(h.counts.len() as u32).to_le_bytes());
                    for c in &h.counts {
                        out.extend_from_slice(&c.to_le_bytes());
                    }
                }
                None => out.push(0),
            }
        }
    }
    out
}

/// Parse a statistics section written by [`stats_to_bytes`].
pub fn stats_from_bytes(bytes: &[u8]) -> Result<Vec<(String, Vec<ColumnStats>)>> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    if c.take(4)? != STATS_MAGIC {
        return Err(StoreError::Corrupt("bad statistics magic".into()));
    }
    let version = c.u16()?;
    if version != STATS_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported statistics version {version}"
        )));
    }
    let n_tables = c.u32()? as usize;
    if n_tables > 1 << 16 {
        return Err(StoreError::Corrupt(format!(
            "implausible table count {n_tables} in statistics section"
        )));
    }
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name_len = c.u16()? as usize;
        let tname = c.string(name_len)?;
        let n_cols = c.u32()? as usize;
        if n_cols > 4096 {
            return Err(StoreError::Corrupt(format!(
                "implausible column count {n_cols} in statistics section"
            )));
        }
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name_len = c.u16()? as usize;
            let name = c.string(name_len)?;
            let count = c.u64()? as usize;
            let nulls = c.u64()? as usize;
            let nans = c.u64()? as usize;
            let min = read_value(&mut c)?;
            let max = read_value(&mut c)?;
            let distinct = if c.u8()? != 0 { Some(c.u64()?) } else { None };
            let histogram = if c.u8()? != 0 {
                let lo = c.f64()?;
                let hi = c.f64()?;
                let n = c.u32()? as usize;
                if n > 1 << 16 {
                    return Err(StoreError::Corrupt(format!(
                        "implausible histogram bucket count {n}"
                    )));
                }
                let mut counts = Vec::with_capacity(n);
                for _ in 0..n {
                    counts.push(c.u64()?);
                }
                Some(Histogram { lo, hi, counts })
            } else {
                None
            };
            cols.push(ColumnStats {
                name,
                count,
                nulls,
                nans,
                min,
                max,
                distinct,
                histogram,
            });
        }
        tables.push((tname, cols));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;

    #[test]
    fn stats_over_mixed_column() {
        let col = Column::from_values(
            DataType::Float64,
            &[
                Value::Float64(3.0),
                Value::Null,
                Value::Float64(-1.0),
                Value::Float64(10.0),
            ],
        )
        .unwrap();
        let s = column_stats("v", &col);
        assert_eq!(s.count, 4);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.nans, 0);
        assert_eq!(s.min, Some(Value::Float64(-1.0)));
        assert_eq!(s.max, Some(Value::Float64(10.0)));
        assert_eq!(s.distinct, Some(3));
        let h = s.histogram.expect("numeric column gets a histogram");
        assert_eq!(h.total(), 3);
        assert_eq!((h.lo, h.hi), (-1.0, 10.0));
    }

    #[test]
    fn nan_excluded_from_range_and_counted() {
        let col = Column::from_values(
            DataType::Float64,
            &[
                Value::Float64(5.0),
                Value::Float64(f64::NAN),
                Value::Float64(7.0),
                Value::Float64(-f64::NAN),
            ],
        )
        .unwrap();
        let s = column_stats("v", &col);
        assert_eq!(s.nans, 2);
        assert_eq!(s.min, Some(Value::Float64(5.0)));
        assert_eq!(s.max, Some(Value::Float64(7.0)));
        assert!(!s.range_trusted(), "NaN taints the range");
        let h = s.histogram.expect("finite range still gets a histogram");
        assert_eq!(h.total(), 2, "NaN stays out of the buckets");
        // A NaN bound (old-snapshot stats) is also untrusted.
        let tainted = ColumnStats {
            max: Some(Value::Float64(f64::NAN)),
            nans: 0,
            ..ColumnStats::empty("v")
        };
        assert!(!tainted.range_trusted());
    }

    #[test]
    fn stats_all_null_or_empty() {
        let col = Column::from_values(DataType::Int32, &[Value::Null, Value::Null]).unwrap();
        let s = column_stats("x", &col);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.nulls, 2);
        assert_eq!(s.distinct, None);
        let empty = Column::empty(DataType::Utf8);
        let s = column_stats("y", &empty);
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.histogram, None);
    }

    #[test]
    fn table_stats_cover_all_columns() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int32),
            Field::new("b", DataType::Utf8),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        t.append_row(vec![Value::Int32(2), Value::Utf8("x".into())])
            .unwrap();
        t.append_row(vec![Value::Int32(1), Value::Utf8("z".into())])
            .unwrap();
        let stats = table_stats(&t);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].min, Some(Value::Int32(1)));
        assert_eq!(stats[1].max, Some(Value::Utf8("z".into())));
        assert_eq!(stats[1].distinct, Some(2));
        assert!(stats[1].histogram.is_none(), "strings have no histogram");
    }

    #[test]
    fn distinct_sketch_tracks_cardinality() {
        let mut s = DistinctSketch::new();
        for i in 0..200u64 {
            // Hash properly: raw sequential ints would collide mod 1024
            // only at wrap-around and overstate uniformity.
            s.insert_hash(fnv1a(&i.to_le_bytes()));
        }
        let est = s.estimate();
        assert!(
            (150..=260).contains(&est),
            "estimate {est} too far from 200"
        );
        // Duplicates do not grow the estimate.
        let mut d = DistinctSketch::new();
        for _ in 0..1000 {
            d.insert_hash(fnv1a(&42u64.to_le_bytes()));
        }
        assert_eq!(d.estimate(), 1);
    }

    #[test]
    fn histogram_fractions_interpolate() {
        let col = Column::from_values(
            DataType::Int64,
            &(0..100).map(Value::Int64).collect::<Vec<_>>(),
        )
        .unwrap();
        let s = column_stats("x", &col);
        let h = s.histogram.unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.fraction_le(-5.0), 0.0);
        assert_eq!(h.fraction_le(99.0), 1.0);
        let half = h.fraction_le(49.5);
        assert!((0.4..=0.6).contains(&half), "median ~0.5, got {half}");
        let quarter = h.fraction_between(Some(25.0), Some(49.5));
        assert!((0.15..=0.35).contains(&quarter), "got {quarter}");
    }

    #[test]
    fn stats_serialization_roundtrip() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::nullable("b", DataType::Float64),
            Field::new("c", DataType::Utf8),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        for i in 0..50i64 {
            t.append_row(vec![
                Value::Int64(i),
                if i % 5 == 0 {
                    Value::Null
                } else if i % 7 == 0 {
                    Value::Float64(f64::NAN)
                } else {
                    Value::Float64(i as f64 / 3.0)
                },
                Value::Utf8(format!("s{}", i % 4)),
            ])
            .unwrap();
        }
        let stats = vec![
            ("t1".to_string(), table_stats(&t)),
            ("empty".to_string(), vec![ColumnStats::empty("x")]),
        ];
        let bytes = stats_to_bytes(&stats);
        let back = stats_from_bytes(&bytes).unwrap();
        assert_eq!(back, stats);
        // Truncation is detected, not mis-parsed.
        assert!(stats_from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(stats_from_bytes(b"XXXX").is_err());
    }
}
