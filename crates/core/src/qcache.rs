//! Result-level recycling: caching the **end result** of a query.
//!
//! §3.3 of the paper describes loading as "simply caching the result of a
//! view definition" via MonetDB's intermediate-result recycler \[8\], and
//! notes that "usually, the end result of a view is saved in the cache".
//! The per-record cache in [`crate::cache`] recycles the *extraction*
//! intermediates; this module adds the second recycler level: the final
//! table of a query, keyed by a fingerprint of its optimized plan.
//!
//! A recycled result is only valid while the warehouse state it was
//! computed from is unchanged. The warehouse bumps a *generation* counter
//! whenever a refresh folds repository changes into the catalog. Two
//! mechanisms keep entries useful across that bump:
//!
//! * **Scoped invalidation** — every entry carries the set of base tables
//!   it read and (when derivable) the closed `sample_time` interval its
//!   predicates imply. A refresh delta that touches disjoint tables, or a
//!   time-scoped entry whose window is disjoint from the delta's record
//!   coverage, provably contributes no rows: the entry is *kept* and
//!   re-stamped with the new generation instead of dropped.
//! * **Incremental maintenance** — entries whose plans are classified
//!   [`Maintainable`](lazyetl_query::Maintainability) by the query layer
//!   carry the augmented execution plan and its raw state table. On an
//!   insert-only refresh, [`QueryResultCache::apply_delta`] runs that plan
//!   over just the delta tables (via a caller-supplied executor) and folds
//!   the result in: appending rows for filter/project/join cores, merging
//!   SUM/COUNT/MIN/MAX/AVG group states for root aggregations with the
//!   executor's own merge ([`lazyetl_query::exec::merge_state_tables`]).
//!
//! Anything else falls back to the original behaviour — drop and recompute
//! on next query. Entries admitted under an older generation that somehow
//! bypassed `apply_delta` (e.g. a mount changed the catalog without a
//! refresh delta) are still dropped at lookup, so staleness can never leak.
//!
//! Entries are LRU-evicted under a byte budget, exactly like the record
//! cache. This layer is off by default
//! ([`crate::warehouse::WarehouseConfig::recycle_query_results`]) so that
//! per-query extraction accounting stays observable; experiments E11 and
//! E18 measure what recycling and maintenance buy.
//!
//! Like the record cache, the recycler is internally synchronized: every
//! operation takes `&self` so concurrent query threads share one recycler.
//! A single mutex (rather than lock striping) suffices here — the recycler
//! is touched at most twice per query, never per record.

use lazyetl_query::exec::merge_state_tables;
use lazyetl_query::{LogicalPlan, MaintKind};
use lazyetl_store::Table;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cumulative statistics of the result recycler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups that returned a fresh result.
    pub hits: u64,
    /// Lookups with no entry.
    pub misses: u64,
    /// Entries dropped because the warehouse generation moved on.
    pub generation_drops: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Total bytes ever admitted.
    pub inserted_bytes: u64,
    /// Entries patched in place from a refresh delta.
    pub results_patched: u64,
    /// Delta rows folded into patched entries.
    pub patch_rows_applied: u64,
    /// Entries a refresh delta forced back to recompute-on-next-query.
    pub recompute_fallbacks: u64,
    /// Bytes of results kept across refreshes by scoped invalidation —
    /// an estimate of recompute output the maintenance layer avoided.
    pub bytes_saved_estimate: u64,
    /// Entries kept verbatim across refreshes (disjoint tables/time).
    pub results_kept: u64,
}

impl ResultCacheStats {
    /// Hit rate over all lookups (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.generation_drops;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a resident entry relates to refresh deltas.
#[derive(Debug, Clone)]
pub enum ResultScope {
    /// No structural guarantees: drop whenever an intersecting refresh
    /// lands.
    Opaque,
    /// Not patchable, but every output row provably carries a data row
    /// inside the entry's `sample_time` interval — keep the entry when
    /// that interval is disjoint from the delta's record coverage.
    TimeScoped,
    /// Patchable from insert-only deltas.
    Maintainable {
        /// The augmented plan to run over the delta tables.
        exec_plan: Arc<LogicalPlan>,
        /// How the state table absorbs the delta result.
        kind: MaintKind,
        /// Raw state (for aggregations: group columns + visible and hidden
        /// aggregate columns; for appendable cores: the result itself).
        state: Arc<Table>,
    },
}

/// Invalidation metadata attached to an entry at admission.
#[derive(Debug, Clone)]
pub struct ResultMeta {
    /// Base tables the plan read; `None` when unknown (always intersects).
    pub tables: Option<Vec<String>>,
    /// Closed `sample_time` interval implied by the plan's predicates
    /// (`None` bounds are unconstrained).
    pub interval: (Option<i64>, Option<i64>),
    /// Maintenance class of the entry's plan.
    pub scope: ResultScope,
}

impl ResultMeta {
    /// Conservative metadata: unknown tables, unconstrained interval,
    /// opaque scope — invalidated by every refresh, like the pre-existing
    /// behaviour.
    pub fn opaque() -> ResultMeta {
        ResultMeta {
            tables: None,
            interval: (None, None),
            scope: ResultScope::Opaque,
        }
    }
}

/// Description of one refresh's repository delta, as seen by the recycler.
#[derive(Debug, Clone)]
pub struct RefreshDelta<'a> {
    /// Generation the warehouse was at before this refresh.
    pub prev_generation: u64,
    /// Generation after this refresh; surviving entries are re-stamped.
    pub generation: u64,
    /// True when the delta only *adds* files (nothing modified/removed) —
    /// the precondition for patching maintainable entries.
    pub insert_only: bool,
    /// Base tables the delta touches.
    pub tables: &'a [String],
    /// Record time coverage (`min(start_time)`, `max(end_time)`) of the
    /// delta; `None` bounds mean unknown (intersects everything).
    pub interval: (Option<i64>, Option<i64>),
}

/// What one [`QueryResultCache::apply_delta`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Entries kept verbatim (disjoint tables or disjoint time window).
    pub kept: usize,
    /// Bytes of results kept verbatim.
    pub kept_bytes: usize,
    /// Entries patched in place from the delta.
    pub patched: usize,
    /// Delta rows folded into patched entries.
    pub patch_rows: usize,
    /// Human-readable reason per entry dropped back to recompute.
    pub dropped: Vec<String>,
}

/// Summary of one resident recycled result (for the demo's cache browser).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEntrySummary {
    /// The plan fingerprint (first line shown by browsers).
    pub fingerprint: String,
    /// Entry size in bytes.
    pub bytes: usize,
    /// Rows held.
    pub rows: usize,
    /// Warehouse generation the result was computed under.
    pub generation: u64,
}

/// Snapshot of recycled results and occupancy.
#[derive(Debug, Clone)]
pub struct ResultCacheSnapshot {
    /// Resident entries ordered by fingerprint.
    pub entries: Vec<ResultEntrySummary>,
    /// Bytes in use.
    pub used_bytes: usize,
    /// Byte budget.
    pub budget_bytes: usize,
    /// Statistics so far.
    pub stats: ResultCacheStats,
}

#[derive(Debug)]
struct ResultEntry {
    table: Arc<Table>,
    bytes: usize,
    generation: u64,
    last_used_tick: u64,
    meta: ResultMeta,
}

#[derive(Debug)]
struct Inner {
    entries: HashMap<String, ResultEntry>,
    /// last_used_tick -> fingerprint for O(log n) LRU eviction.
    lru: BTreeMap<u64, String>,
    tick: u64,
    used_bytes: usize,
    stats: ResultCacheStats,
}

impl Inner {
    fn remove_entry(&mut self, fingerprint: &str) -> Option<ResultEntry> {
        let old = self.entries.remove(fingerprint)?;
        self.lru.remove(&old.last_used_tick);
        self.used_bytes -= old.bytes;
        Some(old)
    }

    fn evict_oldest(&mut self) {
        let oldest_key = self
            .lru
            .iter()
            .next()
            .map(|(_, k)| k.clone())
            .expect("over budget implies entries");
        self.remove_entry(&oldest_key)
            .expect("lru index consistent");
        self.stats.evictions += 1;
    }
}

/// Byte-budgeted LRU cache of final query results, safe to share between
/// query threads.
#[derive(Debug)]
pub struct QueryResultCache {
    budget_bytes: usize,
    inner: Mutex<Inner>,
}

impl QueryResultCache {
    /// A result recycler with the given byte budget.
    pub fn new(budget_bytes: usize) -> QueryResultCache {
        QueryResultCache {
            budget_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                used_bytes: 0,
                stats: ResultCacheStats::default(),
            }),
        }
    }

    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("result cache poisoned")
    }

    /// Look up a plan fingerprint; entries from older warehouse
    /// generations are dropped and reported as misses. (Refreshes that go
    /// through [`Self::apply_delta`] re-stamp surviving entries, so this
    /// only fires for generation bumps that bypassed the delta path.)
    pub fn get(&self, fingerprint: &str, current_generation: u64) -> Option<Arc<Table>> {
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(fingerprint) {
            None => {
                inner.stats.misses += 1;
                None
            }
            Some(entry) if entry.generation != current_generation => {
                inner.stats.generation_drops += 1;
                inner.remove_entry(fingerprint).expect("entry just matched");
                None
            }
            Some(entry) => {
                let table = entry.table.clone();
                let prev_tick = entry.last_used_tick;
                entry.last_used_tick = tick;
                inner.stats.hits += 1;
                inner.lru.remove(&prev_tick);
                inner.lru.insert(tick, fingerprint.to_string());
                Some(table)
            }
        }
    }

    /// Admit (or replace) a result with conservative (opaque) metadata.
    /// Returns entries evicted to make room.
    pub fn insert(&self, fingerprint: String, table: Arc<Table>, generation: u64) -> usize {
        self.insert_with_meta(fingerprint, table, generation, ResultMeta::opaque())
    }

    /// Admit (or replace) a result carrying invalidation/maintenance
    /// metadata. Returns entries evicted to make room; results larger than
    /// the whole budget are not admitted.
    pub fn insert_with_meta(
        &self,
        fingerprint: String,
        table: Arc<Table>,
        generation: u64,
        meta: ResultMeta,
    ) -> usize {
        let bytes = entry_bytes(&table, &meta);
        let mut inner = self.locked();
        inner.remove_entry(&fingerprint);
        if bytes > self.budget_bytes {
            return 0;
        }
        let mut evicted = 0usize;
        while inner.used_bytes + bytes > self.budget_bytes {
            inner.evict_oldest();
            evicted += 1;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            fingerprint.clone(),
            ResultEntry {
                table,
                bytes,
                generation,
                last_used_tick: tick,
                meta,
            },
        );
        inner.lru.insert(tick, fingerprint);
        inner.used_bytes += bytes;
        inner.stats.inserted_bytes += bytes as u64;
        evicted
    }

    /// Fold one refresh delta into the resident entries.
    ///
    /// Per entry, in order of preference:
    ///
    /// 1. **keep** — the entry's tables are disjoint from the delta's, or
    ///    the entry is time-scoped/maintainable and its `sample_time`
    ///    window is disjoint from the delta's record coverage; the entry
    ///    is re-stamped with the new generation untouched;
    /// 2. **patch** — the entry is maintainable, the delta is insert-only
    ///    and `maintenance_enabled`: `exec` runs the entry's augmented plan
    ///    over the delta tables and the result is folded into the state
    ///    (append or group-state merge); for peeled aggregations `exec` is
    ///    called a second time to re-project the merged state into the
    ///    user-visible table;
    /// 3. **drop** — everything else falls back to recompute-on-next-query.
    ///
    /// `exec` returns `None` when the plan cannot be executed (the entry is
    /// then dropped). Entries whose generation is not `prev_generation`
    /// are already stale and dropped outright.
    pub fn apply_delta(
        &self,
        delta: &RefreshDelta<'_>,
        maintenance_enabled: bool,
        exec: &mut dyn FnMut(&LogicalPlan) -> Option<Arc<Table>>,
    ) -> DeltaOutcome {
        let mut outcome = DeltaOutcome::default();
        let mut inner = self.locked();
        let keys: Vec<String> = inner.entries.keys().cloned().collect();
        for key in keys {
            let action = decide(&inner.entries[&key], delta, maintenance_enabled);
            match action {
                Action::Keep => {
                    let entry = inner.entries.get_mut(&key).expect("key just listed");
                    entry.generation = delta.generation;
                    let bytes = entry.bytes;
                    inner.stats.results_kept += 1;
                    inner.stats.bytes_saved_estimate += bytes as u64;
                    outcome.kept += 1;
                    outcome.kept_bytes += bytes;
                }
                Action::Patch => match patch_entry(&mut inner, &key, delta, exec) {
                    Ok(rows) => {
                        inner.stats.results_patched += 1;
                        inner.stats.patch_rows_applied += rows as u64;
                        outcome.patched += 1;
                        outcome.patch_rows += rows;
                    }
                    Err(reason) => {
                        inner.remove_entry(&key);
                        inner.stats.recompute_fallbacks += 1;
                        outcome.dropped.push(reason);
                    }
                },
                Action::Drop(reason) => {
                    inner.remove_entry(&key);
                    inner.stats.recompute_fallbacks += 1;
                    outcome.dropped.push(reason);
                }
                Action::DropStale => {
                    inner.remove_entry(&key);
                    inner.stats.generation_drops += 1;
                    outcome.dropped.push("stale generation".to_string());
                }
            }
        }
        // Patched entries may have grown; restore the byte budget.
        while inner.used_bytes > self.budget_bytes {
            inner.evict_oldest();
        }
        outcome
    }

    /// Drop every entry (called when invalidation cannot be scoped).
    pub fn clear(&self) {
        let mut inner = self.locked();
        inner.entries.clear();
        inner.lru.clear();
        inner.used_bytes = 0;
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> usize {
        self.locked().used_bytes
    }

    /// Configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Number of resident results.
    pub fn len(&self) -> usize {
        self.locked().entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.locked().entries.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ResultCacheStats {
        self.locked().stats
    }

    /// Snapshot of contents for the demo's cache browser.
    pub fn snapshot(&self) -> ResultCacheSnapshot {
        let inner = self.locked();
        let mut entries: Vec<ResultEntrySummary> = inner
            .entries
            .iter()
            .map(|(k, e)| ResultEntrySummary {
                fingerprint: k.clone(),
                bytes: e.bytes,
                rows: e.table.num_rows(),
                generation: e.generation,
            })
            .collect();
        entries.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        ResultCacheSnapshot {
            entries,
            used_bytes: inner.used_bytes,
            budget_bytes: self.budget_bytes,
            stats: inner.stats,
        }
    }
}

enum Action {
    Keep,
    Patch,
    Drop(String),
    DropStale,
}

/// Entry size: the visible table plus the aggregate state when it is a
/// distinct object (appendable cores reuse the same `Arc` for both).
fn entry_bytes(table: &Arc<Table>, meta: &ResultMeta) -> usize {
    let extra = match &meta.scope {
        ResultScope::Maintainable { state, .. } if !Arc::ptr_eq(state, table) => state.byte_size(),
        _ => 0,
    };
    table.byte_size() + extra
}

/// Is the entry's table set provably disjoint from the delta's? `None` on
/// the entry side means "unknown" and intersects everything.
fn tables_disjoint(entry: &Option<Vec<String>>, delta: &[String]) -> bool {
    match entry {
        None => false,
        Some(tables) => !tables.iter().any(|t| delta.contains(t)),
    }
}

/// Are two closed intervals provably disjoint? Unknown bounds (`None`)
/// extend to infinity on that side.
fn intervals_disjoint(a: (Option<i64>, Option<i64>), b: (Option<i64>, Option<i64>)) -> bool {
    let before = matches!((a.1, b.0), (Some(hi), Some(lo)) if hi < lo);
    let after = matches!((a.0, b.1), (Some(lo), Some(hi)) if lo > hi);
    before || after
}

fn decide(entry: &ResultEntry, delta: &RefreshDelta<'_>, maintenance_enabled: bool) -> Action {
    if entry.generation != delta.prev_generation {
        return Action::DropStale;
    }
    if tables_disjoint(&entry.meta.tables, delta.tables) {
        return Action::Keep;
    }
    let time_disjoint = intervals_disjoint(entry.meta.interval, delta.interval);
    match &entry.meta.scope {
        ResultScope::TimeScoped if time_disjoint => Action::Keep,
        ResultScope::TimeScoped => {
            Action::Drop("time-scoped window intersects refresh delta".to_string())
        }
        ResultScope::Maintainable { .. } if time_disjoint => {
            // Patching would also be correct (the delta run returns zero
            // rows), but the disjoint window lets us skip the delta
            // execution entirely.
            Action::Keep
        }
        ResultScope::Maintainable { .. } if !delta.insert_only => {
            Action::Drop("refresh delta is not insert-only".to_string())
        }
        ResultScope::Maintainable { .. } if !maintenance_enabled => {
            Action::Drop("result maintenance disabled".to_string())
        }
        ResultScope::Maintainable { .. } => Action::Patch,
        ResultScope::Opaque => Action::Drop("opaque plan intersects refresh delta".to_string()),
    }
}

/// Patch one maintainable entry in place. Returns the number of delta rows
/// folded in, or a reason string when the entry must fall back.
fn patch_entry(
    inner: &mut Inner,
    key: &str,
    delta: &RefreshDelta<'_>,
    exec: &mut dyn FnMut(&LogicalPlan) -> Option<Arc<Table>>,
) -> Result<usize, String> {
    let (exec_plan, kind, state) = {
        let entry = &inner.entries[key];
        match &entry.meta.scope {
            ResultScope::Maintainable {
                exec_plan,
                kind,
                state,
            } => (exec_plan.clone(), kind.clone(), state.clone()),
            _ => unreachable!("patch_entry only called for maintainable entries"),
        }
    };
    let delta_out = exec(&exec_plan).ok_or_else(|| "delta execution failed".to_string())?;
    let rows = delta_out.num_rows();
    let (new_state, new_visible) = match &kind {
        MaintKind::Append => {
            let mut merged = Table::empty(state.schema.clone());
            merged
                .append_table(&state)
                .and_then(|()| merged.append_table(&delta_out))
                .map_err(|e| format!("append merge failed: {e}"))?;
            let merged = Arc::new(merged);
            (merged.clone(), merged)
        }
        MaintKind::Aggregate {
            group_cols,
            merges,
            post_project,
        } => {
            let merged = Arc::new(
                merge_state_tables(&state, &delta_out, *group_cols, merges)
                    .map_err(|e| e.to_string())?,
            );
            let visible = match post_project {
                None => merged.clone(),
                Some(exprs) => {
                    let project = LogicalPlan::Project {
                        input: Box::new(LogicalPlan::InlineData {
                            label: "maintained-state".to_string(),
                            table: merged.clone(),
                        }),
                        exprs: exprs.clone(),
                    };
                    exec(&project).ok_or_else(|| "state re-projection failed".to_string())?
                }
            };
            (merged, visible)
        }
    };
    let entry = inner.entries.get_mut(key).expect("entry still resident");
    let old_bytes = entry.bytes;
    entry.table = new_visible;
    if let ResultScope::Maintainable { state, .. } = &mut entry.meta.scope {
        *state = new_state;
    }
    entry.bytes = entry_bytes(&entry.table, &entry.meta);
    entry.generation = delta.generation;
    let new_bytes = entry.bytes;
    inner.used_bytes = inner.used_bytes - old_bytes + new_bytes;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_query::MergeSpec;
    use lazyetl_store::{DataType, Field, Schema, Value};

    fn table_of(rows: usize) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("v", DataType::Float64)]).unwrap();
        let mut t = Table::empty(schema);
        for i in 0..rows {
            t.append_row(vec![Value::Float64(i as f64)]).unwrap();
        }
        Arc::new(t)
    }

    fn delta(
        prev: u64,
        insert_only: bool,
        tables: &[String],
        interval: (Option<i64>, Option<i64>),
    ) -> RefreshDelta<'_> {
        RefreshDelta {
            prev_generation: prev,
            generation: prev + 1,
            insert_only,
            tables,
            interval,
        }
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let c = QueryResultCache::new(1 << 20);
        assert!(c.get("plan-a", 0).is_none());
        c.insert("plan-a".into(), table_of(4), 0);
        let hit = c.get("plan-a", 0).expect("fresh entry");
        assert_eq!(hit.num_rows(), 4);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn generation_bump_invalidates() {
        // Without a delta pass, a generation bump still drops at lookup —
        // the safety net for catalog changes that bypass apply_delta.
        let c = QueryResultCache::new(1 << 20);
        c.insert("plan-a".into(), table_of(4), 0);
        assert!(c.get("plan-a", 1).is_none(), "stale generation dropped");
        assert_eq!(c.stats().generation_drops, 1);
        assert!(c.is_empty());
        // And it's a plain miss afterwards.
        assert!(c.get("plan-a", 1).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn distinct_fingerprints_do_not_collide() {
        let c = QueryResultCache::new(1 << 20);
        c.insert("plan-a".into(), table_of(1), 0);
        c.insert("plan-b".into(), table_of(2), 0);
        assert_eq!(c.get("plan-a", 0).unwrap().num_rows(), 1);
        assert_eq!(c.get("plan-b", 0).unwrap().num_rows(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_eviction_under_budget() {
        // 10-row float tables are 80 bytes each.
        let c = QueryResultCache::new(250);
        c.insert("a".into(), table_of(10), 0);
        c.insert("b".into(), table_of(10), 0);
        c.insert("c".into(), table_of(10), 0);
        assert!(c.get("a", 0).is_some(), "touch a; b becomes LRU");
        let evicted = c.insert("d".into(), table_of(10), 0);
        assert_eq!(evicted, 1);
        assert!(c.get("b", 0).is_none(), "LRU victim gone");
        assert!(c.get("a", 0).is_some());
        assert!(c.used_bytes() <= c.budget_bytes());
    }

    #[test]
    fn oversized_result_not_admitted() {
        let c = QueryResultCache::new(64);
        assert_eq!(c.insert("big".into(), table_of(1000), 0), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn replace_same_fingerprint() {
        let c = QueryResultCache::new(1 << 20);
        c.insert("a".into(), table_of(10), 0);
        c.insert("a".into(), table_of(20), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a", 1).unwrap().num_rows(), 20);
    }

    #[test]
    fn snapshot_sorted_by_fingerprint() {
        let c = QueryResultCache::new(1 << 20);
        c.insert("zeta".into(), table_of(1), 3);
        c.insert("alpha".into(), table_of(2), 3);
        let snap = c.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.entries[0].fingerprint, "alpha");
        assert_eq!(snap.entries[0].generation, 3);
        assert_eq!(snap.used_bytes, c.used_bytes());
    }

    #[test]
    fn clear_resets_occupancy_not_stats() {
        let c = QueryResultCache::new(1 << 20);
        c.insert("a".into(), table_of(10), 0);
        let _ = c.get("a", 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.stats().hits, 1, "stats survive clear");
    }

    #[test]
    fn tables_disjoint_entry_survives_refresh() {
        let c = QueryResultCache::new(1 << 20);
        let meta = ResultMeta {
            tables: Some(vec!["sensors".into()]),
            interval: (None, None),
            scope: ResultScope::Opaque,
        };
        c.insert_with_meta("plan-a".into(), table_of(4), 0, meta);
        let touched = vec!["files".to_string(), "records".to_string()];
        let out = c.apply_delta(&delta(0, true, &touched, (None, None)), true, &mut |_| None);
        assert_eq!(out.kept, 1);
        assert!(out.dropped.is_empty());
        assert!(c.get("plan-a", 1).is_some(), "kept and re-stamped");
        assert_eq!(c.stats().results_kept, 1);
        assert!(c.stats().bytes_saved_estimate > 0);
    }

    #[test]
    fn time_scoped_keep_and_drop() {
        let c = QueryResultCache::new(1 << 20);
        let touched = vec!["data".to_string()];
        let meta = |interval| ResultMeta {
            tables: Some(touched.clone()),
            interval,
            scope: ResultScope::TimeScoped,
        };
        c.insert_with_meta(
            "old-window".into(),
            table_of(2),
            0,
            meta((Some(0), Some(10))),
        );
        c.insert_with_meta("live-window".into(), table_of(2), 0, meta((Some(5), None)));
        let out = c.apply_delta(
            &delta(0, true, &touched, (Some(100), Some(200))),
            true,
            &mut |_| None,
        );
        assert_eq!(out.kept, 1, "disjoint window kept");
        assert_eq!(out.dropped.len(), 1, "overlapping window dropped");
        assert!(c.get("old-window", 1).is_some());
        assert!(c.get("live-window", 1).is_none());
        assert_eq!(c.stats().recompute_fallbacks, 1);
    }

    #[test]
    fn append_patch_folds_delta_rows() {
        let c = QueryResultCache::new(1 << 20);
        let base = table_of(4);
        let meta = ResultMeta {
            tables: Some(vec!["data".to_string()]),
            interval: (None, None),
            scope: ResultScope::Maintainable {
                exec_plan: Arc::new(LogicalPlan::OneRow),
                kind: MaintKind::Append,
                state: base.clone(),
            },
        };
        c.insert_with_meta("plan-a".into(), base, 0, meta);
        let touched = vec!["data".to_string()];
        let out = c.apply_delta(&delta(0, true, &touched, (None, None)), true, &mut |_| {
            Some(table_of(3))
        });
        assert_eq!(out.patched, 1);
        assert_eq!(out.patch_rows, 3);
        let patched = c.get("plan-a", 1).expect("patched entry resident");
        assert_eq!(patched.num_rows(), 7);
        assert_eq!(c.stats().results_patched, 1);
        assert_eq!(c.stats().patch_rows_applied, 3);
    }

    #[test]
    fn aggregate_patch_merges_group_states() {
        // State: station | COUNT(*) | SUM(v) | MIN(v)
        let schema = Schema::new(vec![
            Field::new("station", DataType::Utf8),
            Field::nullable("cnt", DataType::Int64),
            Field::nullable("sum", DataType::Float64),
            Field::nullable("min", DataType::Float64),
        ])
        .unwrap();
        let mut old = Table::empty(schema.clone());
        old.append_row(vec![
            Value::Utf8("ISK".into()),
            Value::Int64(2),
            Value::Float64(10.0),
            Value::Float64(3.0),
        ])
        .unwrap();
        let mut dstate = Table::empty(schema.clone());
        dstate
            .append_row(vec![
                Value::Utf8("ISK".into()),
                Value::Int64(3),
                Value::Float64(5.0),
                Value::Float64(1.0),
            ])
            .unwrap();
        dstate
            .append_row(vec![
                Value::Utf8("BGN".into()),
                Value::Int64(1),
                Value::Float64(7.0),
                Value::Float64(7.0),
            ])
            .unwrap();
        let dstate = Arc::new(dstate);

        let c = QueryResultCache::new(1 << 20);
        let old = Arc::new(old);
        let meta = ResultMeta {
            tables: Some(vec!["data".to_string()]),
            interval: (None, None),
            scope: ResultScope::Maintainable {
                exec_plan: Arc::new(LogicalPlan::OneRow),
                kind: MaintKind::Aggregate {
                    group_cols: 1,
                    merges: vec![MergeSpec::Count, MergeSpec::SumFloat, MergeSpec::Min],
                    post_project: None,
                },
                state: old.clone(),
            },
        };
        c.insert_with_meta("agg".into(), old, 0, meta);
        let touched = vec!["data".to_string()];
        let out = c.apply_delta(&delta(0, true, &touched, (None, None)), true, &mut |_| {
            Some(dstate.clone())
        });
        assert_eq!(out.patched, 1);
        let merged = c.get("agg", 1).expect("merged state visible");
        assert_eq!(merged.num_rows(), 2);
        assert_eq!(
            merged.row(0).unwrap(),
            vec![
                Value::Utf8("ISK".into()),
                Value::Int64(5),
                Value::Float64(15.0),
                Value::Float64(1.0),
            ]
        );
        assert_eq!(
            merged.row(1).unwrap(),
            vec![
                Value::Utf8("BGN".into()),
                Value::Int64(1),
                Value::Float64(7.0),
                Value::Float64(7.0),
            ],
            "new group appended in delta order"
        );
    }

    #[test]
    fn non_insert_only_drops_maintainable() {
        let c = QueryResultCache::new(1 << 20);
        let base = table_of(4);
        let meta = ResultMeta {
            tables: Some(vec!["data".to_string()]),
            interval: (None, None),
            scope: ResultScope::Maintainable {
                exec_plan: Arc::new(LogicalPlan::OneRow),
                kind: MaintKind::Append,
                state: base.clone(),
            },
        };
        c.insert_with_meta("plan-a".into(), base, 0, meta);
        let touched = vec!["data".to_string()];
        let out = c.apply_delta(&delta(0, false, &touched, (None, None)), true, &mut |_| {
            Some(table_of(3))
        });
        assert_eq!(out.patched, 0);
        assert_eq!(out.dropped.len(), 1);
        assert!(c.is_empty());
        assert_eq!(c.stats().recompute_fallbacks, 1);
    }
}
