//! The correctness oracle: what every query of every operation must
//! answer, computed once per run on an **eager** warehouse over the same
//! repository (lazy ≡ eager is the repository's oldest equivalence).
//!
//! An answer is kept as a fingerprint of the result table. Literal query
//! texts are run as they are. The two parameterised families — per-stream
//! aggregates and `FIGURE1_Q1`-shaped windows, thousands of distinct texts
//! per run — are derived from one scan of the eager `D` table, because an
//! eager query per text would cost more than the run it checks.

use crate::workloads::{op_stream, Query, Workload, FRESH_QUERIES, ROUNDS, WINDOW_US};
use lazyetl_core::{Mode, Warehouse, WarehouseBuilder};
use lazyetl_store::{ColumnData, Table, Value};
use std::collections::HashMap;
use std::path::Path;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// One cell folded into its row's hash: a type tag, then the value.
/// 32- and 64-bit integers hash alike; `-0.0` hashes as `0.0`.
fn fold_cell(h: u64, tag: u64, bits: u64) -> u64 {
    fold(fold(h, tag), bits)
}

const TAG_NULL: u64 = 0;
const TAG_BOOL: u64 = 1;
const TAG_INT: u64 = 2;
const TAG_FLOAT: u64 = 3;
const TAG_TEXT: u64 = 4;
const TAG_TIME: u64 = 5;

fn float_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

fn finish(mut rows: Vec<u64>, columns: usize) -> u64 {
    // Sorted: a result without ORDER BY has no row order to check.
    rows.sort_unstable();
    let h = fold(fold(FNV_OFFSET, columns as u64), rows.len() as u64);
    rows.into_iter().fold(h, fold)
}

/// Fingerprint of a result table: column count, row count and every cell,
/// independent of row order and of column names.
pub fn fingerprint(table: &Table) -> u64 {
    let mut rows = vec![FNV_OFFSET; table.num_rows()];
    for col in &table.columns {
        macro_rules! fold_column {
            ($values:expr, $tag:expr, $bits:expr) => {
                for (i, (h, v)) in rows.iter_mut().zip($values).enumerate() {
                    *h = if col.is_null(i) {
                        fold_cell(*h, TAG_NULL, 0)
                    } else {
                        fold_cell(*h, $tag, $bits(v))
                    };
                }
            };
        }
        match col.data() {
            ColumnData::Bool(v) => fold_column!(v, TAG_BOOL, |b: &bool| *b as u64),
            ColumnData::Int32(v) => fold_column!(v, TAG_INT, |x: &i32| *x as i64 as u64),
            ColumnData::Int64(v) => fold_column!(v, TAG_INT, |x: &i64| *x as u64),
            ColumnData::Float64(v) => fold_column!(v, TAG_FLOAT, |x: &f64| float_bits(*x)),
            ColumnData::Timestamp(v) => fold_column!(v, TAG_TIME, |x: &i64| *x as u64),
            ColumnData::Utf8(v) => {
                fold_column!(v, TAG_TEXT, |s: &String| fold_bytes(
                    FNV_OFFSET,
                    s.as_bytes()
                ))
            }
        }
    }
    finish(rows, table.num_columns())
}

/// [`fingerprint`] of the table these rows would make.
pub fn fingerprint_rows(rows: &[Vec<Value>], columns: usize) -> u64 {
    let hashes = rows
        .iter()
        .map(|row| {
            row.iter().fold(FNV_OFFSET, |h, cell| match cell {
                Value::Null => fold_cell(h, TAG_NULL, 0),
                Value::Bool(b) => fold_cell(h, TAG_BOOL, *b as u64),
                Value::Int32(x) => fold_cell(h, TAG_INT, *x as i64 as u64),
                Value::Int64(x) => fold_cell(h, TAG_INT, *x as u64),
                Value::Float64(x) => fold_cell(h, TAG_FLOAT, float_bits(*x)),
                Value::Timestamp(x) => fold_cell(h, TAG_TIME, *x as u64),
                Value::Utf8(s) => fold_cell(h, TAG_TEXT, fold_bytes(FNV_OFFSET, s.as_bytes())),
            })
        })
        .collect();
    finish(hashes, columns)
}

const BASE_SAMPLES: &str = "SELECT file_id, sample_time, sample_value FROM mseed.data";
const BASE_FILES: &str = "SELECT file_id, station, channel FROM mseed.files";

/// `(time µs, value)` of one stream, in time order.
type Samples = Vec<(i64, f64)>;

/// The eager warehouse and the answers derived from it so far.
pub struct Oracle {
    eager: Warehouse,
    fixed: HashMap<&'static str, u64>,
    /// Every sample of the eager `D` table by `(station, channel)`: the
    /// one scan both parameterised families are derived from.
    streams: Option<HashMap<(String, String), Samples>>,
}

impl Oracle {
    /// Load the whole repository eagerly.
    pub fn open(repo: &Path) -> Result<Oracle, String> {
        let eager = WarehouseBuilder::new()
            .mode(Mode::Eager)
            .local_dir("repo", repo)
            .and_then(WarehouseBuilder::open)
            .map_err(|e| format!("oracle: eager open of {}: {e}", repo.display()))?;
        Ok(Oracle {
            eager,
            fixed: HashMap::new(),
            streams: None,
        })
    }

    fn run(&self, sql: &str) -> Result<std::sync::Arc<Table>, String> {
        self.eager
            .query(sql)
            .map(|out| out.table)
            .map_err(|e| format!("oracle: {e} in {sql}"))
    }

    /// `COUNT(*) FROM mseed.records` as a number.
    pub fn record_count(&self) -> Result<i64, String> {
        let table = self.run(FRESH_QUERIES[0])?;
        table
            .row(0)
            .ok()
            .and_then(|r| r[0].as_i64())
            .ok_or_else(|| "oracle: record count is not an integer".to_string())
    }

    fn stream(&mut self, station: &str, channel: &str) -> Result<&Samples, String> {
        if self.streams.is_none() {
            let files = self.run(BASE_FILES)?;
            let mut stream_of = HashMap::new();
            for i in 0..files.num_rows() {
                let row = files.row(i).map_err(|e| e.to_string())?;
                match (&row[0], &row[1], &row[2]) {
                    (Value::Int64(id), Value::Utf8(st), Value::Utf8(ch)) => {
                        stream_of.insert(*id, (st.clone(), ch.clone()))
                    }
                    other => return Err(format!("oracle: file row {other:?}")),
                };
            }
            let base = self.run(BASE_SAMPLES)?;
            let (ids, times, values) = match (
                base.columns[0].data(),
                base.columns[1].data(),
                base.columns[2].data(),
            ) {
                (ColumnData::Int64(i), ColumnData::Timestamp(t), ColumnData::Float64(v)) => {
                    (i, t, v)
                }
                other => return Err(format!("oracle: sample columns {other:?}")),
            };
            let mut streams: HashMap<(String, String), Samples> = HashMap::new();
            for ((id, t), v) in ids.iter().zip(times).zip(values) {
                let key = stream_of
                    .get(id)
                    .ok_or_else(|| format!("oracle: file {id} is not in mseed.files"))?;
                match streams.get_mut(key) {
                    Some(samples) => samples.push((*t, *v)),
                    None => {
                        streams.insert(key.clone(), vec![(*t, *v)]);
                    }
                }
            }
            for samples in streams.values_mut() {
                samples.sort_by_key(|s| s.0);
            }
            self.streams = Some(streams);
        }
        self.streams
            .as_ref()
            .expect("just filled")
            .get(&(station.to_string(), channel.to_string()))
            .ok_or_else(|| format!("oracle: no stream {station}.{channel}"))
    }

    /// The fingerprint `query` must answer with.
    pub fn expected(&mut self, query: &Query) -> Result<u64, String> {
        // Samples are integer-valued, so an f64 sum is exact in any order
        // and AVG = sum / count has one correct value.
        let sum = |samples: &[(i64, f64)]| samples.iter().map(|s| s.1).sum::<f64>();
        match query {
            Query::Fixed(sql) => {
                if let Some(fp) = self.fixed.get(sql) {
                    return Ok(*fp);
                }
                let fp = fingerprint(&*self.run(sql)?);
                self.fixed.insert(sql, fp);
                Ok(fp)
            }
            Query::StreamAgg { station, channel } => {
                let samples = self.stream(station, channel)?;
                let min = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
                let max = samples
                    .iter()
                    .map(|s| s.1)
                    .fold(f64::NEG_INFINITY, f64::max);
                let row = vec![
                    Value::Int64(samples.len() as i64),
                    Value::Float64(min),
                    Value::Float64(max),
                    Value::Float64(sum(samples) / samples.len() as f64),
                ];
                Ok(fingerprint_rows(&[row], 4))
            }
            Query::Window { station, start_us } => {
                let samples = self.stream(station, "BHE")?;
                // Exclusive at both ends, like the paper's `>` and `<`.
                let lo = samples.partition_point(|s| s.0 <= *start_us);
                let hi = samples.partition_point(|s| s.0 < start_us + WINDOW_US);
                if lo >= hi {
                    return Err(format!("oracle: empty window {station} @ {start_us}"));
                }
                let avg = sum(&samples[lo..hi]) / (hi - lo) as f64;
                Ok(fingerprint_rows(&[vec![Value::Float64(avg)]], 1))
            }
        }
    }
}

/// What a round checks its answers against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// One fingerprint per query, in operation order.
    PerQuery(Vec<u64>),
    /// `fresh.poll`: records in the repository before any file lands.
    /// Its other answers are checked at the end of the round against a
    /// freshly opened warehouse.
    BaseRecords(i64),
}

const HEADER: &str = "spine-oracle 1";

/// Compute the expected answers of every round of a run and write them.
pub fn write_expected(
    path: &Path,
    workload: Workload,
    seed: u64,
    timed_ops: usize,
    repo: &Path,
) -> Result<(), String> {
    let mut oracle = Oracle::open(repo)?;
    let warmup = workload.warmup_ops(timed_ops);
    let mut out = format!("{HEADER} {} {seed} {timed_ops}\n", workload.name());
    if workload == Workload::FreshPoll {
        out.push_str(&format!("records={}\n", oracle.record_count()?));
    } else {
        for round in 0..ROUNDS {
            for op in op_stream(workload, seed, round, warmup, timed_ops) {
                for query in &op.queries {
                    out.push_str(&format!("{:016x}\n", oracle.expected(query)?));
                }
            }
        }
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read back the expected answers of one round.
pub fn read_expected(
    path: &Path,
    workload: Workload,
    seed: u64,
    timed_ops: usize,
    round: usize,
) -> Result<Expected, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = format!("{HEADER} {} {seed} {timed_ops}", workload.name());
    if lines.next() != Some(header.as_str()) {
        return Err(format!("{}: not the oracle of this run", path.display()));
    }
    if workload == Workload::FreshPoll {
        let n = lines
            .next()
            .and_then(|l| l.strip_prefix("records="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{}: no record count", path.display()))?;
        return Ok(Expected::BaseRecords(n));
    }
    let per_round = (workload.warmup_ops(timed_ops) + timed_ops) * workload.spec().queries_per_op;
    let fps: Result<Vec<u64>, _> = lines
        .skip(round * per_round)
        .take(per_round)
        .map(|l| u64::from_str_radix(l, 16))
        .collect();
    match fps {
        Ok(fps) if fps.len() == per_round => Ok(Expected::PerQuery(fps)),
        _ => Err(format!("{}: round {round} is incomplete", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_store::{Column, DataType, Field, Schema};

    fn sample_table(order: &[usize]) -> Table {
        let stations = ["HGN", "WIT", "ISK"];
        let counts = [3i64, 5, 7];
        let avgs = [1.5f64, -0.0, 2.25];
        Table::new(
            Schema::new(vec![
                Field::new("station", DataType::Utf8),
                Field::new("n", DataType::Int64),
                Field::new("avg", DataType::Float64),
            ])
            .unwrap(),
            vec![
                Column::new(ColumnData::Utf8(
                    order.iter().map(|&i| stations[i].to_string()).collect(),
                )),
                Column::new(ColumnData::Int64(
                    order.iter().map(|&i| counts[i]).collect(),
                )),
                Column::new(ColumnData::Float64(
                    order.iter().map(|&i| avgs[i]).collect(),
                )),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_ignores_row_order_but_not_values() {
        let a = sample_table(&[0, 1, 2]);
        assert_eq!(fingerprint(&a), fingerprint(&sample_table(&[2, 0, 1])));
        assert_ne!(fingerprint(&a), fingerprint(&sample_table(&[0, 1])));
        assert_ne!(fingerprint(&a), fingerprint(&sample_table(&[0, 1, 1])));
    }

    #[test]
    fn table_and_row_fingerprints_agree() {
        let t = sample_table(&[0, 1, 2]);
        let rows: Vec<Vec<Value>> = (0..3).map(|i| t.row(i).unwrap()).collect();
        assert_eq!(fingerprint(&t), fingerprint_rows(&rows, 3));
        // 0.0 and -0.0 are the same answer.
        let mut flipped = rows.clone();
        flipped[1][2] = Value::Float64(0.0);
        assert_eq!(fingerprint(&t), fingerprint_rows(&flipped, 3));
    }

    #[test]
    fn nulls_change_the_fingerprint() {
        let rows = vec![vec![Value::Int64(0)]];
        let nulls = vec![vec![Value::Null]];
        assert_ne!(fingerprint_rows(&rows, 1), fingerprint_rows(&nulls, 1));
    }
}
