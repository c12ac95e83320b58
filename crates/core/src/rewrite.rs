//! The lazy-extraction plan rewriter (§3.1 of the paper).
//!
//! Lazy extraction is "two steps of query plan modification":
//!
//! 1. **Compile time** — the optimizer (in `lazyetl-query`) reorganizes the
//!    plan so "the selection predicates on the metadata are applied first"
//!    (predicate pushdown toward the `F`/`R` scans).
//! 2. **Run time** — once the metadata part of the plan can be executed,
//!    this module *executes it*, derives exactly which (file, record) pairs
//!    the query needs, asks the data provider for them (cache first, files
//!    otherwise), and **injects** the result into the plan in place of the
//!    external-data scan. The rest of the plan then runs unchanged.
//!
//! The rewriter also performs record-level pruning: sample-time predicates
//! sitting on the data side are intersected with each candidate record's
//! `[start_time, end_time)` from the metadata, so records that cannot
//! contain matching samples are never extracted. (This is the advantage
//! over NoDB-style raw-file scans that §2 calls out: metadata is exploited
//! for selective loading.)

use crate::error::{EtlError, Result};
use crate::extract::RecordLocator;
use lazyetl_query::expr::eval_expr;
use lazyetl_query::plan::LogicalPlan;
use lazyetl_query::Expr;
use lazyetl_store::kernels::as_i64_slice;
use lazyetl_store::{Column, DataType, Field, Schema, Table, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Locators and time ranges for every record the warehouse knows about.
///
/// Built from the resident `R` table; rebuilt whenever metadata changes.
/// Besides the hash lookups, it carries an **ordered secondary index**
/// over record time coverage (`by_time`, sorted by start time), so a
/// sample-time interval resolves to the qualifying records with one
/// binary-search seek instead of a sweep over every candidate
/// ([`LocatorIndex::seek_time_range`]). The sorted order is persistable
/// ([`LocatorIndex::to_time_index_table`]) and a snapshot's persisted
/// order is adopted on reopen ([`LocatorIndex::build_seeded`]).
#[derive(Debug, Default)]
pub struct LocatorIndex {
    by_key: HashMap<(i64, i64), RecordInfo>,
    by_file: BTreeMap<i64, Vec<i64>>,
    /// Every record, sorted by `(start_us, file_id, seq_no)`.
    by_time: Vec<TimeEntry>,
    /// Ascending positions of zero-span records inside `by_time`: they
    /// qualify under any lower bound, so seeks must re-admit the ones
    /// sitting below the seek floor.
    degenerate_pos: Vec<usize>,
    /// Longest positive record span (µs); widens the lower-bound seek so
    /// no record straddling the bound is missed.
    max_span_us: i64,
}

/// One entry of the ordered time index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimeEntry {
    start_us: i64,
    end_us: i64,
    file_id: i64,
    seq_no: i64,
}

impl TimeEntry {
    fn sort_key(&self) -> (i64, i64, i64) {
        (self.start_us, self.file_id, self.seq_no)
    }
}

/// Locator plus time coverage of one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordInfo {
    /// Where the record lives in its file.
    pub locator: RecordLocator,
    /// First sample time (µs).
    pub start_us: i64,
    /// Exclusive end time (µs).
    pub end_us: i64,
}

impl LocatorIndex {
    /// Build from an `R`-schema table.
    pub fn build(records: &Table) -> Result<LocatorIndex> {
        Self::build_seeded(records, None)
    }

    /// Build from an `R`-schema table, adopting a persisted time-index
    /// ordering when one is supplied and still describes exactly these
    /// records (saving the O(n log n) sort); any mismatch falls back to
    /// sorting fresh, so a stale snapshot can never corrupt the index.
    pub fn build_seeded(records: &Table, persisted: Option<&Table>) -> Result<LocatorIndex> {
        let mut idx = Self::build_keys(records)?;
        let adopted = persisted.is_some_and(|t| idx.adopt_persisted_order(t));
        if !adopted {
            idx.by_time.sort_unstable_by_key(TimeEntry::sort_key);
        }
        idx.finish_time_index();
        Ok(idx)
    }

    fn build_keys(records: &Table) -> Result<LocatorIndex> {
        let need = |name: &str| {
            records
                .schema
                .index_of(name)
                .ok_or_else(|| EtlError::Internal(format!("records table lacks column {name:?}")))
        };
        let c_file = need("file_id")?;
        let c_seq = need("seq_no")?;
        let c_start = need("start_time")?;
        let c_end = need("end_time")?;
        let c_off = need("byte_offset")?;
        let c_len = need("record_length")?;
        let mut idx = LocatorIndex::default();
        for row in 0..records.num_rows() {
            let file_id = records.columns[c_file]
                .get(row)?
                .as_i64()
                .ok_or_else(|| EtlError::Internal("null file_id in R".into()))?;
            let seq_no = records.columns[c_seq]
                .get(row)?
                .as_i64()
                .ok_or_else(|| EtlError::Internal("null seq_no in R".into()))?;
            let start_us = records.columns[c_start].get(row)?.as_i64().unwrap_or(0);
            let end_us = records.columns[c_end].get(row)?.as_i64().unwrap_or(0);
            let byte_offset = records.columns[c_off].get(row)?.as_i64().unwrap_or(0) as u64;
            let record_length = records.columns[c_len].get(row)?.as_i64().unwrap_or(0) as u32;
            idx.by_key.insert(
                (file_id, seq_no),
                RecordInfo {
                    locator: RecordLocator {
                        seq_no,
                        byte_offset,
                        record_length,
                    },
                    start_us,
                    end_us,
                },
            );
            idx.by_file.entry(file_id).or_default().push(seq_no);
            idx.by_time.push(TimeEntry {
                start_us,
                end_us,
                file_id,
                seq_no,
            });
        }
        Ok(idx)
    }

    /// Try to adopt a persisted `(file_id, seq_no, start_time, end_time)`
    /// table as the sorted time index. Succeeds only if it lists exactly
    /// the indexed records, in sorted order, with matching time ranges.
    fn adopt_persisted_order(&mut self, t: &Table) -> bool {
        if t.num_rows() != self.by_key.len() {
            return false;
        }
        let col = |name: &str| t.schema.index_of(name);
        let (Some(cf), Some(cs), Some(ca), Some(cb)) = (
            col("file_id"),
            col("seq_no"),
            col("start_time"),
            col("end_time"),
        ) else {
            return false;
        };
        let mut out = Vec::with_capacity(t.num_rows());
        let mut prev = (i64::MIN, i64::MIN, i64::MIN);
        for row in 0..t.num_rows() {
            let get = |c: usize| t.columns[c].get(row).ok().and_then(|v| v.as_i64());
            let (Some(file_id), Some(seq_no), Some(start_us), Some(end_us)) =
                (get(cf), get(cs), get(ca), get(cb))
            else {
                return false;
            };
            let e = TimeEntry {
                start_us,
                end_us,
                file_id,
                seq_no,
            };
            if e.sort_key() < prev {
                return false;
            }
            prev = e.sort_key();
            match self.by_key.get(&(file_id, seq_no)) {
                Some(info) if info.start_us == start_us && info.end_us == end_us => out.push(e),
                _ => return false,
            }
        }
        self.by_time = out;
        true
    }

    /// Derive the seek acceleration structures from the sorted `by_time`.
    fn finish_time_index(&mut self) {
        self.degenerate_pos = self
            .by_time
            .iter()
            .enumerate()
            .filter(|(_, e)| e.start_us == e.end_us)
            .map(|(p, _)| p)
            .collect();
        self.max_span_us = self
            .by_time
            .iter()
            .map(|e| (e.end_us - e.start_us).max(0))
            .max()
            .unwrap_or(0);
    }

    /// Binary-search seek over the ordered time index: the set of
    /// `(file_id, seq_no)` whose `[start, end)` coverage may intersect the
    /// query interval `[lo, hi]`, plus how many index entries the seek
    /// examined. Exactly equivalent to sweeping every record with the
    /// record-level pruning predicate (proven by the exhaustive test
    /// below), but only entries inside the seeked slice — `start ∈
    /// (lo − max_span, hi]` — are ever touched.
    pub fn seek_time_range(
        &self,
        lo: Option<i64>,
        hi: Option<i64>,
    ) -> (BTreeSet<(i64, i64)>, usize) {
        let hi_idx = match hi {
            Some(h) => self.by_time.partition_point(|e| e.start_us <= h),
            None => self.by_time.len(),
        };
        let lo_idx = match lo {
            Some(l) => {
                // Records below the floor start so early that even the
                // longest span cannot reach past `lo`.
                let floor = l.saturating_sub(self.max_span_us);
                self.by_time.partition_point(|e| e.start_us <= floor)
            }
            None => 0,
        }
        .min(hi_idx);
        let mut out = BTreeSet::new();
        let mut examined = 0usize;
        for e in &self.by_time[lo_idx..hi_idx] {
            examined += 1;
            // `start_us <= hi` already holds for everything below hi_idx;
            // the lower bound uses the same exclusive-end / zero-span
            // convention as the linear sweep.
            if lo.is_none_or(|l| e.end_us > l || e.start_us == e.end_us) {
                out.insert((e.file_id, e.seq_no));
            }
        }
        if lo.is_some() {
            // Zero-span records below the seek floor qualify under any
            // lower bound (kept conservatively, like the sweep keeps them).
            let cut = self.degenerate_pos.partition_point(|&p| p < lo_idx);
            for &p in &self.degenerate_pos[..cut] {
                examined += 1;
                let e = self.by_time[p];
                out.insert((e.file_id, e.seq_no));
            }
        }
        (out, examined)
    }

    /// The ordered time index as a persistable table (rows in `by_time`
    /// order), the inverse of [`LocatorIndex::build_seeded`]'s seed.
    pub fn to_time_index_table(&self) -> Result<Table> {
        let schema = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("seq_no", DataType::Int64),
            Field::new("start_time", DataType::Timestamp),
            Field::new("end_time", DataType::Timestamp),
        ])
        .map_err(EtlError::Store)?;
        let mut t = Table::empty(schema);
        for e in &self.by_time {
            t.append_row(vec![
                Value::Int64(e.file_id),
                Value::Int64(e.seq_no),
                Value::Timestamp(e.start_us),
                Value::Timestamp(e.end_us),
            ])
            .map_err(EtlError::Store)?;
        }
        Ok(t)
    }

    /// Info for one (file, record) pair.
    pub fn get(&self, file_id: i64, seq_no: i64) -> Option<&RecordInfo> {
        self.by_key.get(&(file_id, seq_no))
    }

    /// All sequence numbers of a file.
    pub fn seqs_of_file(&self, file_id: i64) -> &[i64] {
        self.by_file
            .get(&file_id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Every (file, record) pair (the §3.1 worst case: full repository).
    pub fn all_pairs(&self) -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = self.by_key.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// What the run-time rewrite did (feeds the demo's plan observability).
#[derive(Debug, Default, Clone)]
pub struct RewriteReport {
    /// Rows produced by the metadata subplan.
    pub metadata_rows: usize,
    /// Distinct (file, record) pairs the query joins against.
    pub candidate_pairs: usize,
    /// Pairs skipped by record-level time pruning.
    pub pruned_pairs: usize,
    /// Pairs actually requested from the data provider.
    pub fetched_pairs: usize,
    /// Whether the full-repository fallback was taken.
    pub full_scan_fallback: bool,
    /// Whether record-level pruning was served by a binary-search seek of
    /// the ordered time index (vs. a linear sweep over every candidate).
    pub index_seek: bool,
    /// Time-index entries whose ranges pruning examined: the seeked slice
    /// width under index seek, every candidate under the linear sweep.
    pub index_entries_examined: usize,
    /// Human-readable notes, in order.
    pub notes: Vec<String>,
}

fn contains_external(plan: &LogicalPlan) -> bool {
    plan.any_node(&mut |n| matches!(n, LogicalPlan::ExternalScan { .. }))
}

/// Extract a closed sample-time interval implied by the predicates within
/// the data-side subtree (conjuncts over a `sample_time` column against
/// timestamp literals).
///
/// The bound extraction is [`lazyetl_query::prune::TimeInterval`] — the
/// same interval logic the executor's zone-map pruning uses — applied to
/// every `Filter` predicate of the subtree.
///
/// Public because the warehouse also uses it to key recycled results by
/// time interval for scoped invalidation.
pub fn sample_time_interval(plan: &LogicalPlan) -> (Option<i64>, Option<i64>) {
    let mut interval = lazyetl_query::prune::TimeInterval::unconstrained();
    fn walk(plan: &LogicalPlan, interval: &mut lazyetl_query::prune::TimeInterval) {
        if let LogicalPlan::Filter { predicate, .. } = plan {
            interval.tighten_from_predicate(predicate, "sample_time");
        }
        for c in plan.children() {
            walk(c, interval);
        }
    }
    walk(plan, &mut interval);
    (interval.lo, interval.hi)
}

/// Map the data-side join expressions onto (file_id, seq_no) positions.
///
/// Returns `(file_pos, seq_pos)`: indices into the ON pair list whose
/// data-side column is `file_id` / `seq_no`. `seq_pos` may be absent
/// (file-granular join).
fn classify_on_pairs(on: &[(Expr, Expr)], data_is_right: bool) -> (Option<usize>, Option<usize>) {
    let mut file_pos = None;
    let mut seq_pos = None;
    for (i, (l, r)) in on.iter().enumerate() {
        let data_expr = if data_is_right { r } else { l };
        if let Expr::Column(name) = data_expr {
            match name.rsplit('.').next() {
                Some("file_id") => file_pos = Some(i),
                Some("seq_no") => seq_pos = Some(i),
                _ => {}
            }
        }
    }
    (file_pos, seq_pos)
}

/// A join-key column's values by row: `None` where the key is NULL or the
/// column is not an integer type (such rows join nothing).
fn int_keys(col: &Column) -> Vec<Option<i64>> {
    match as_i64_slice(col) {
        Some(keys) => keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (!col.is_null(row)).then_some(k))
            .collect(),
        None => vec![None; col.len()],
    }
}

/// Replace the (single) ExternalScan inside `plan` with `data`.
fn inject_data(plan: &LogicalPlan, data: Arc<Table>, label: &str) -> LogicalPlan {
    plan.transform_up(&mut |node| match node {
        LogicalPlan::ExternalScan { .. } => LogicalPlan::InlineData {
            label: label.to_string(),
            table: data.clone(),
        },
        other => other,
    })
}

/// Executes a metadata-only subplan (supplied by the warehouse).
pub type MetadataExec<'a> = dyn Fn(&LogicalPlan) -> Result<Arc<Table>> + 'a;
/// Materializes `D` rows for (file, record) pairs (cache + extractor).
pub type FetchFn<'a> = dyn FnMut(&[(i64, i64)]) -> Result<Arc<Table>> + 'a;

/// Context the rewriter needs from the warehouse.
pub struct RewriteContext<'a> {
    /// Record locators and time ranges.
    pub index: &'a LocatorIndex,
    /// Apply record-level sample-time pruning (ablation flag).
    pub record_level_pruning: bool,
    /// Serve record-level pruning with the ordered time index's
    /// binary-search seek; `false` is the E17 baseline's linear sweep
    /// (identical kept set, every candidate examined).
    pub time_index_seek: bool,
}

/// Run-time plan rewrite: replace every external-data scan with the
/// concrete rows the query needs.
pub fn lazy_rewrite(
    plan: &LogicalPlan,
    ctx: &RewriteContext<'_>,
    execute_metadata: &MetadataExec<'_>,
    fetch: &mut FetchFn<'_>,
    report: &mut RewriteReport,
) -> Result<LogicalPlan> {
    let rewritten = rewrite_node(plan, ctx, execute_metadata, fetch, report)?;
    // Any external scan left has no metadata join to derive a needed set
    // from: fall back to the full repository (§3.1 worst case).
    if contains_external(&rewritten) {
        report.full_scan_fallback = true;
        let all = ctx.index.all_pairs();
        report.candidate_pairs += all.len();
        report.fetched_pairs += all.len();
        report
            .notes
            .push(format!("full-scan fallback: {} records", all.len()));
        let data = fetch(&all)?;
        return Ok(inject_data(
            &rewritten,
            data,
            &format!("lazy-extract(full repository, {} records)", all.len()),
        ));
    }
    Ok(rewritten)
}

fn rewrite_node(
    plan: &LogicalPlan,
    ctx: &RewriteContext<'_>,
    execute_metadata: &MetadataExec<'_>,
    fetch: &mut FetchFn<'_>,
    report: &mut RewriteReport,
) -> Result<LogicalPlan> {
    // Recurse first so the lowest qualifying join is handled.
    let plan = plan.try_map_children(|c| rewrite_node(c, ctx, execute_metadata, fetch, report))?;

    // Now look for a join where exactly one side still contains the
    // external scan: that side is the data side, the other the metadata.
    if let LogicalPlan::Join {
        left,
        right,
        on,
        right_label,
    } = &plan
    {
        let l_ext = contains_external(left);
        let r_ext = contains_external(right);
        if l_ext ^ r_ext {
            let (meta_side, data_side, data_is_right) = if r_ext {
                (left, right, true)
            } else {
                (right, left, false)
            };
            // 1. Execute the metadata subplan.
            let meta_table = execute_metadata(meta_side)?;
            report.metadata_rows = meta_table.num_rows();

            // 2. Derive the needed (file_id, seq_no) set from the join keys.
            let (file_pos, seq_pos) = classify_on_pairs(on, data_is_right);
            let file_pos = match file_pos {
                Some(p) => p,
                None => {
                    // Unrecognized join shape: leave for the fallback.
                    report
                        .notes
                        .push("join keys lack file_id: deferring to full scan".into());
                    return Ok(plan);
                }
            };
            // Each metadata-side key expression is evaluated once, as a
            // column over the metadata result.
            let meta_keys = |pos: usize| -> Result<Vec<Option<i64>>> {
                let (l, r) = &on[pos];
                let key = if data_is_right { l } else { r };
                Ok(int_keys(&eval_expr(key, &meta_table)?))
            };
            let file_ids = meta_keys(file_pos)?;
            let seqs = seq_pos.map(meta_keys).transpose()?;
            let mut pairs: BTreeSet<(i64, i64)> = BTreeSet::new();
            for (row, file_id) in file_ids.into_iter().enumerate() {
                let Some(file_id) = file_id else { continue };
                match &seqs {
                    Some(seqs) => {
                        if let Some(seq) = seqs[row] {
                            pairs.insert((file_id, seq));
                        }
                    }
                    None => {
                        for &seq in ctx.index.seqs_of_file(file_id) {
                            pairs.insert((file_id, seq));
                        }
                    }
                }
            }
            report.candidate_pairs = pairs.len();

            // 3. Record-level pruning against sample-time predicates:
            //    either a binary-search seek of the ordered time index or
            //    the baseline linear sweep. Both keep exactly the same
            //    pairs; only the number of examined entries differs.
            let (lo, hi) = sample_time_interval(data_side);
            let kept: Vec<(i64, i64)> = if ctx.record_level_pruning
                && (lo.is_some() || hi.is_some())
            {
                if ctx.time_index_seek {
                    let (qualifying, examined) = ctx.index.seek_time_range(lo, hi);
                    report.index_seek = true;
                    report.index_entries_examined += examined;
                    pairs
                        .iter()
                        .copied()
                        .filter(|&(f, s)| {
                            // Unknown records extract conservatively.
                            qualifying.contains(&(f, s)) || ctx.index.get(f, s).is_none()
                        })
                        .collect()
                } else {
                    report.index_entries_examined += pairs.len();
                    pairs
                        .iter()
                        .copied()
                        .filter(|&(f, s)| match ctx.index.get(f, s) {
                            Some(info) => {
                                // `end_us` is exclusive (last sample + one
                                // period), so a record ending exactly at the
                                // lower bound holds no qualifying samples —
                                // strict comparison is still conservative.
                                // Degenerate zero-span records are kept.
                                lo.is_none_or(|l| info.end_us > l || info.start_us == info.end_us)
                                    && hi.is_none_or(|h| info.start_us <= h)
                            }
                            None => true, // unknown record: extract conservatively
                        })
                        .collect()
                }
            } else {
                pairs.iter().copied().collect()
            };
            report.pruned_pairs = report.candidate_pairs - kept.len();
            report.fetched_pairs = kept.len();
            if lo.is_some() || hi.is_some() {
                report.notes.push(format!(
                    "sample_time interval [{:?}, {:?}] pruned {} of {} records",
                    lo, hi, report.pruned_pairs, report.candidate_pairs
                ));
            }

            // 4. Fetch (cache first, extract the rest).
            let data = fetch(&kept)?;
            let files: BTreeSet<i64> = kept.iter().map(|&(f, _)| f).collect();
            let label = format!(
                "lazy-extract({} records from {} files)",
                kept.len(),
                files.len()
            );

            // 5. Inject: metadata results and extracted data replace their
            //    subtrees; the surrounding plan is untouched.
            let new_data_side = inject_data(data_side, data, &label);
            let new_meta_side = LogicalPlan::InlineData {
                label: format!("metadata({} rows)", meta_table.num_rows()),
                table: meta_table,
            };
            let (l, r) = if data_is_right {
                (new_meta_side, new_data_side)
            } else {
                (new_data_side, new_meta_side)
            };
            return Ok(LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                on: on.clone(),
                right_label: right_label.clone(),
            });
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_query::BinaryOp;
    use lazyetl_store::{DataType, Field, Schema, Value};

    fn r_table() -> Table {
        let mut t = Table::empty(crate::schema::records_schema());
        for (f, s, st, en) in [(0i64, 1i64, 0i64, 100i64), (0, 2, 100, 200), (1, 1, 0, 150)] {
            t.append_row(vec![
                Value::Int64(f),
                Value::Int64(s),
                Value::Timestamp(st),
                Value::Timestamp(en),
                Value::Int64(10),
                Value::Float64(40.0),
                Value::Int64(0),
                Value::Int64(512),
                Value::Utf8("D".into()),
                Value::Int64(100),
                Value::Utf8("STEIM2".into()),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn locator_index_builds_and_looks_up() {
        let idx = LocatorIndex::build(&r_table()).unwrap();
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        let info = idx.get(0, 2).unwrap();
        assert_eq!(info.start_us, 100);
        assert_eq!(idx.seqs_of_file(0), &[1, 2]);
        assert_eq!(idx.seqs_of_file(9), &[] as &[i64]);
        assert_eq!(idx.all_pairs(), vec![(0, 1), (0, 2), (1, 1)]);
    }

    #[test]
    fn interval_extraction_from_filters() {
        let schema = Schema::new(vec![
            Field::new("sample_time", DataType::Timestamp),
            Field::new("sample_value", DataType::Float64),
        ])
        .unwrap();
        let scan = LogicalPlan::ExternalScan {
            name: "data".into(),
            schema,
        };
        let pred = Expr::col("d.sample_time")
            .binary(BinaryOp::Gt, Expr::lit(Value::Timestamp(50)))
            .and(Expr::col("d.sample_time").binary(BinaryOp::Lt, Expr::lit(Value::Timestamp(80))));
        let plan = LogicalPlan::Filter {
            input: Box::new(scan),
            predicate: pred,
        };
        assert_eq!(sample_time_interval(&plan), (Some(50), Some(80)));
        // Reversed operand order flips directions.
        let plan2 = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: Expr::lit(Value::Timestamp(70))
                .binary(BinaryOp::Gt, Expr::col("sample_time")),
        };
        assert_eq!(sample_time_interval(&plan2), (Some(50), Some(70)));
    }

    #[test]
    fn classify_finds_key_positions() {
        let on = vec![
            (Expr::col("r.file_id"), Expr::col("d.file_id")),
            (Expr::col("r.seq_no"), Expr::col("d.seq_no")),
        ];
        assert_eq!(classify_on_pairs(&on, true), (Some(0), Some(1)));
        // data on the left
        let on2 = vec![(Expr::col("d.file_id"), Expr::col("r.file_id"))];
        assert_eq!(classify_on_pairs(&on2, false), (Some(0), None));
    }

    /// Metadata table with (file_id, seq_no) rows.
    fn meta_table(rows: &[(i64, i64)]) -> Arc<Table> {
        let schema = Schema::new(vec![
            Field::new("file_id", DataType::Int64),
            Field::new("seq_no", DataType::Int64),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        for &(f, s) in rows {
            t.append_row(vec![Value::Int64(f), Value::Int64(s)])
                .unwrap();
        }
        Arc::new(t)
    }

    fn data_scan() -> LogicalPlan {
        LogicalPlan::ExternalScan {
            name: "data".into(),
            schema: crate::schema::data_schema(),
        }
    }

    /// A Join(metadata InlineData, data ExternalScan) plan with the given
    /// data-side wrapper applied.
    fn join_plan(
        meta_rows: &[(i64, i64)],
        with_seq_key: bool,
        data_side: LogicalPlan,
    ) -> LogicalPlan {
        let mut on = vec![(Expr::col("file_id"), Expr::col("file_id"))];
        if with_seq_key {
            on.push((Expr::col("seq_no"), Expr::col("seq_no")));
        }
        LogicalPlan::Join {
            left: Box::new(LogicalPlan::InlineData {
                label: "meta".into(),
                table: meta_table(meta_rows),
            }),
            right: Box::new(data_side),
            on,
            right_label: "d".into(),
        }
    }

    /// Run lazy_rewrite with a mock fetch that records requested pairs.
    fn run_rewrite(
        plan: &LogicalPlan,
        pruning: bool,
    ) -> (LogicalPlan, Vec<(i64, i64)>, RewriteReport) {
        let idx = LocatorIndex::build(&r_table()).unwrap();
        let ctx = RewriteContext {
            index: &idx,
            record_level_pruning: pruning,
            time_index_seek: true,
        };
        let exec_meta = |p: &LogicalPlan| -> Result<Arc<Table>> {
            match p {
                LogicalPlan::InlineData { table, .. } => Ok(table.clone()),
                other => Err(EtlError::Internal(format!(
                    "test metadata exec got {other:?}"
                ))),
            }
        };
        let mut requested: Vec<(i64, i64)> = Vec::new();
        let mut report = RewriteReport::default();
        let rewritten = {
            let mut fetch = |pairs: &[(i64, i64)]| -> Result<Arc<Table>> {
                requested.extend_from_slice(pairs);
                Ok(Arc::new(Table::empty(crate::schema::data_schema())))
            };
            lazy_rewrite(plan, &ctx, &exec_meta, &mut fetch, &mut report).unwrap()
        };
        (rewritten, requested, report)
    }

    #[test]
    fn rewrite_replaces_external_scan_with_fetched_rows() {
        let plan = join_plan(&[(0, 1), (0, 2)], true, data_scan());
        let (rewritten, requested, report) = run_rewrite(&plan, true);
        assert!(!contains_external(&rewritten), "external scan replaced");
        assert_eq!(requested, vec![(0, 1), (0, 2)]);
        assert_eq!(report.metadata_rows, 2);
        assert_eq!(report.candidate_pairs, 2);
        assert_eq!(report.fetched_pairs, 2);
        assert!(!report.full_scan_fallback);
    }

    #[test]
    fn duplicate_metadata_rows_fetch_once() {
        let plan = join_plan(&[(0, 1), (0, 1), (0, 1)], true, data_scan());
        let (_, requested, report) = run_rewrite(&plan, true);
        assert_eq!(requested, vec![(0, 1)], "pair set is deduplicated");
        assert_eq!(report.metadata_rows, 3);
        assert_eq!(report.candidate_pairs, 1);
    }

    #[test]
    fn file_granular_join_expands_to_every_record_of_the_file() {
        let plan = join_plan(&[(0, 0)], false, data_scan());
        let (_, requested, _) = run_rewrite(&plan, true);
        // File 0 has records 1 and 2 in the index.
        assert_eq!(requested, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn sample_time_pruning_skips_nonoverlapping_records() {
        // Records: (0,1) covers [0,100), (0,2) covers [100,200).
        // Predicate sample_time > 120 can only hit record 2.
        let filtered = LogicalPlan::Filter {
            input: Box::new(data_scan()),
            predicate: Expr::col("sample_time")
                .binary(BinaryOp::Gt, Expr::lit(Value::Timestamp(120))),
        };
        let plan = join_plan(&[(0, 1), (0, 2)], true, filtered);
        let (_, requested, report) = run_rewrite(&plan, true);
        assert_eq!(requested, vec![(0, 2)]);
        assert_eq!(report.pruned_pairs, 1);
        assert_eq!(report.fetched_pairs, 1);
    }

    #[test]
    fn pruning_ablation_fetches_everything() {
        let filtered = LogicalPlan::Filter {
            input: Box::new(data_scan()),
            predicate: Expr::col("sample_time")
                .binary(BinaryOp::Gt, Expr::lit(Value::Timestamp(120))),
        };
        let plan = join_plan(&[(0, 1), (0, 2)], true, filtered);
        let (_, requested, report) = run_rewrite(&plan, false);
        assert_eq!(requested, vec![(0, 1), (0, 2)], "ablation: no pruning");
        assert_eq!(report.pruned_pairs, 0);
    }

    #[test]
    fn empty_metadata_result_fetches_nothing() {
        let plan = join_plan(&[], true, data_scan());
        let (rewritten, requested, report) = run_rewrite(&plan, true);
        assert!(requested.is_empty(), "no metadata rows, no extraction");
        assert_eq!(report.fetched_pairs, 0);
        assert!(!contains_external(&rewritten));
    }

    #[test]
    fn planless_external_scan_takes_full_repository_fallback() {
        // No join at all: SELECT COUNT(*) FROM data — §3.1 worst case.
        let plan = LogicalPlan::Project {
            input: Box::new(data_scan()),
            exprs: vec![(Expr::col("sample_value"), "v".into())],
        };
        let (rewritten, requested, report) = run_rewrite(&plan, true);
        assert!(report.full_scan_fallback);
        assert_eq!(requested, vec![(0, 1), (0, 2), (1, 1)], "whole index");
        assert!(!contains_external(&rewritten));
    }

    #[test]
    fn join_without_file_id_key_defers_to_fallback() {
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::InlineData {
                label: "meta".into(),
                table: meta_table(&[(0, 1)]),
            }),
            right: Box::new(data_scan()),
            on: vec![(Expr::col("seq_no"), Expr::col("seq_no"))],
            right_label: "d".into(),
        };
        let (rewritten, requested, report) = run_rewrite(&plan, true);
        assert!(report.full_scan_fallback, "unrecognized join shape");
        assert_eq!(requested.len(), 3, "entire repository fetched");
        assert!(!contains_external(&rewritten));
        assert!(report.notes.iter().any(|n| n.contains("file_id")));
    }

    /// Index whose records exercise every shape: normal spans, a long
    /// straddler, zero-span degenerates (early and late), and a malformed
    /// end < start record.
    fn time_grid_index() -> LocatorIndex {
        let mut t = Table::empty(crate::schema::records_schema());
        let ranges = [
            (0i64, 1i64, 0i64, 100i64),
            (0, 2, 100, 200),
            (0, 3, 0, 500),   // long straddler drives max_span
            (1, 1, 50, 50),   // early degenerate
            (1, 2, 400, 400), // late degenerate
            (1, 3, 300, 250), // malformed end < start
            (2, 1, 250, 300),
        ];
        for (f, s, st, en) in ranges {
            t.append_row(vec![
                Value::Int64(f),
                Value::Int64(s),
                Value::Timestamp(st),
                Value::Timestamp(en),
                Value::Int64(10),
                Value::Float64(40.0),
                Value::Int64(0),
                Value::Int64(512),
                Value::Utf8("D".into()),
                Value::Int64(100),
                Value::Utf8("STEIM2".into()),
            ])
            .unwrap();
        }
        LocatorIndex::build(&t).unwrap()
    }

    /// The linear-sweep pruning predicate, verbatim.
    fn sweep_keeps(info: &RecordInfo, lo: Option<i64>, hi: Option<i64>) -> bool {
        lo.is_none_or(|l| info.end_us > l || info.start_us == info.end_us)
            && hi.is_none_or(|h| info.start_us <= h)
    }

    #[test]
    fn time_index_seek_equals_linear_sweep_exhaustively() {
        let idx = time_grid_index();
        let all = idx.all_pairs();
        let mut bounds: Vec<Option<i64>> = vec![None];
        bounds.extend((-50..=550).step_by(25).map(Some));
        for &lo in &bounds {
            for &hi in &bounds {
                let (seek, examined) = idx.seek_time_range(lo, hi);
                let sweep: BTreeSet<(i64, i64)> = all
                    .iter()
                    .copied()
                    .filter(|&(f, s)| sweep_keeps(idx.get(f, s).unwrap(), lo, hi))
                    .collect();
                assert_eq!(seek, sweep, "lo={lo:?} hi={hi:?}");
                assert!(examined <= all.len(), "seek never examines extra entries");
            }
        }
        // A narrow window examines strictly fewer entries than the sweep.
        let (_, examined) = idx.seek_time_range(Some(90), Some(110));
        assert!(
            examined < all.len(),
            "narrow window: {examined} < {}",
            all.len()
        );
    }

    #[test]
    fn seek_ablation_takes_linear_sweep_with_identical_results() {
        let filtered = LogicalPlan::Filter {
            input: Box::new(data_scan()),
            predicate: Expr::col("sample_time")
                .binary(BinaryOp::Gt, Expr::lit(Value::Timestamp(120))),
        };
        let plan = join_plan(&[(0, 1), (0, 2)], true, filtered);
        let idx = LocatorIndex::build(&r_table()).unwrap();
        let exec_meta = |p: &LogicalPlan| -> Result<Arc<Table>> {
            match p {
                LogicalPlan::InlineData { table, .. } => Ok(table.clone()),
                other => Err(EtlError::Internal(format!("{other:?}"))),
            }
        };
        let run = |seek: bool| {
            let ctx = RewriteContext {
                index: &idx,
                record_level_pruning: true,
                time_index_seek: seek,
            };
            let mut requested = Vec::new();
            let mut report = RewriteReport::default();
            let mut fetch = |pairs: &[(i64, i64)]| -> Result<Arc<Table>> {
                requested.extend_from_slice(pairs);
                Ok(Arc::new(Table::empty(crate::schema::data_schema())))
            };
            lazy_rewrite(&plan, &ctx, &exec_meta, &mut fetch, &mut report).unwrap();
            (requested, report)
        };
        let (with_seek, r_seek) = run(true);
        let (with_sweep, r_sweep) = run(false);
        assert_eq!(with_seek, with_sweep, "seek and sweep keep the same pairs");
        assert!(r_seek.index_seek);
        assert!(!r_sweep.index_seek);
        assert_eq!(
            r_sweep.index_entries_examined, 2,
            "sweep examines all candidates"
        );
    }

    #[test]
    fn persisted_time_index_roundtrips_and_rejects_drift() {
        let idx = time_grid_index();
        let persisted = idx.to_time_index_table().unwrap();
        // Rows come out sorted by (start, file, seq).
        let c_start = persisted.schema.index_of("start_time").unwrap();
        let starts: Vec<i64> = (0..persisted.num_rows())
            .map(|r| persisted.columns[c_start].get(r).unwrap().as_i64().unwrap())
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        // Rebuilding seeded with the persisted order adopts it and seeks
        // identically.
        let mut r = Table::empty(crate::schema::records_schema());
        for (f, s, st, en) in [
            (0i64, 1i64, 0i64, 100i64),
            (0, 2, 100, 200),
            (0, 3, 0, 500),
            (1, 1, 50, 50),
            (1, 2, 400, 400),
            (1, 3, 300, 250),
            (2, 1, 250, 300),
        ] {
            r.append_row(vec![
                Value::Int64(f),
                Value::Int64(s),
                Value::Timestamp(st),
                Value::Timestamp(en),
                Value::Int64(10),
                Value::Float64(40.0),
                Value::Int64(0),
                Value::Int64(512),
                Value::Utf8("D".into()),
                Value::Int64(100),
                Value::Utf8("STEIM2".into()),
            ])
            .unwrap();
        }
        let seeded = LocatorIndex::build_seeded(&r, Some(&persisted)).unwrap();
        assert_eq!(
            seeded.seek_time_range(Some(90), Some(260)),
            idx.seek_time_range(Some(90), Some(260))
        );
        // A drifted snapshot (extra record in R) is rejected, not adopted:
        // the rebuilt index still covers the new record.
        r.append_row(vec![
            Value::Int64(9),
            Value::Int64(1),
            Value::Timestamp(95),
            Value::Timestamp(105),
            Value::Int64(10),
            Value::Float64(40.0),
            Value::Int64(0),
            Value::Int64(512),
            Value::Utf8("D".into()),
            Value::Int64(100),
            Value::Utf8("STEIM2".into()),
        ])
        .unwrap();
        let drifted = LocatorIndex::build_seeded(&r, Some(&persisted)).unwrap();
        let (qual, _) = drifted.seek_time_range(Some(90), Some(110));
        assert!(qual.contains(&(9, 1)), "stale persisted order not adopted");
    }

    #[test]
    fn unknown_records_are_extracted_conservatively() {
        // Metadata names a record the index does not know: pruning must
        // keep it rather than silently dropping it.
        let filtered = LogicalPlan::Filter {
            input: Box::new(data_scan()),
            predicate: Expr::col("sample_time")
                .binary(BinaryOp::Gt, Expr::lit(Value::Timestamp(120))),
        };
        let plan = join_plan(&[(7, 9)], true, filtered);
        let (_, requested, _) = run_rewrite(&plan, true);
        assert_eq!(requested, vec![(7, 9)]);
    }
}
