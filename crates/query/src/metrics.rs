//! Execution counters: how much work the executor did, and how it did it.
//!
//! One [`ExecMetrics`] instance is typically owned by a warehouse and
//! shared (by reference) across every query it runs; the counters are
//! atomics, so concurrent queries update them without synchronization
//! beyond the hardware's. [`ExecMetrics::snapshot`] produces the plain
//! [`ExecCounters`] struct surfaced through warehouse stats and the
//! serving layer's stats frame.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative executor counters (all monotone).
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Rows produced by leaf scans (resident tables, injected extraction
    /// results, external full scans).
    pub rows_scanned: AtomicU64,
    /// Rows skipped because a scan's zone map proved its filter empty.
    pub rows_pruned: AtomicU64,
    /// Expression batches evaluated through the vectorized kernel path.
    pub vectorized_batches: AtomicU64,
    /// Expression batches the kernels declined (row-at-a-time fallback).
    pub scalar_fallbacks: AtomicU64,
    /// Morsels handed to the worker pool by parallel operators.
    pub morsels_dispatched: AtomicU64,
    /// Operator pipelines that actually ran on more than one thread.
    pub parallel_pipelines: AtomicU64,
    /// Nanoseconds spent merging per-morsel/per-partition results back
    /// into one ordered table (the serial tail of every parallel
    /// operator).
    pub merge_ns: AtomicU64,
    /// Record-level pruning passes served by the ordered time index's
    /// binary-search seek (vs. a linear candidate sweep).
    pub index_seeks: AtomicU64,
    /// Time-index entries record-level pruning examined — the seeked
    /// slice width under index seek, every candidate under the sweep.
    pub index_rows_examined: AtomicU64,
    /// Query plans the optimizer costed with table statistics.
    pub plans_estimated: AtomicU64,
    /// Result rows the cost model predicted, summed over costed plans.
    pub estimated_rows: AtomicU64,
    /// Result rows those plans actually produced.
    pub actual_rows: AtomicU64,
    /// Sum of |estimated − actual| over costed plans: the cumulative
    /// cardinality-estimation error the stats frame reports.
    pub estimate_abs_error: AtomicU64,
    /// Aggregates folded straight from a join's matches without building
    /// the joined table.
    pub aggregates_fused: AtomicU64,
}

impl ExecMetrics {
    /// A fresh all-zero counter set.
    pub fn new() -> ExecMetrics {
        ExecMetrics::default()
    }

    #[inline]
    pub(crate) fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_rows_pruned(&self, n: u64) {
        self.rows_pruned.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_vectorized_batch(&self) {
        self.vectorized_batches.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_scalar_fallback(&self) {
        self.scalar_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_morsels_dispatched(&self, n: u64) {
        self.morsels_dispatched.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_parallel_pipeline(&self) {
        self.parallel_pipelines.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_merge_ns(&self, ns: u64) {
        self.merge_ns.fetch_add(ns, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add_aggregate_fused(&self) {
        self.aggregates_fused.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one record-level pruning pass: whether the ordered time
    /// index served it, and how many entries it examined. Called by the
    /// warehouse's run-time rewriter (outside this crate).
    pub fn add_index_prune(&self, used_seek: bool, entries_examined: u64) {
        if used_seek {
            self.index_seeks.fetch_add(1, Ordering::Relaxed);
        }
        self.index_rows_examined
            .fetch_add(entries_examined, Ordering::Relaxed);
    }

    /// Record one costed plan's predicted vs. actual result cardinality.
    pub fn add_estimate(&self, estimated: u64, actual: u64) {
        self.plans_estimated.fetch_add(1, Ordering::Relaxed);
        self.estimated_rows.fetch_add(estimated, Ordering::Relaxed);
        self.actual_rows.fetch_add(actual, Ordering::Relaxed);
        self.estimate_abs_error
            .fetch_add(estimated.abs_diff(actual), Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> ExecCounters {
        ExecCounters {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_pruned: self.rows_pruned.load(Ordering::Relaxed),
            vectorized_batches: self.vectorized_batches.load(Ordering::Relaxed),
            scalar_fallbacks: self.scalar_fallbacks.load(Ordering::Relaxed),
            morsels_dispatched: self.morsels_dispatched.load(Ordering::Relaxed),
            parallel_pipelines: self.parallel_pipelines.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
            index_seeks: self.index_seeks.load(Ordering::Relaxed),
            index_rows_examined: self.index_rows_examined.load(Ordering::Relaxed),
            plans_estimated: self.plans_estimated.load(Ordering::Relaxed),
            estimated_rows: self.estimated_rows.load(Ordering::Relaxed),
            actual_rows: self.actual_rows.load(Ordering::Relaxed),
            estimate_abs_error: self.estimate_abs_error.load(Ordering::Relaxed),
            aggregates_fused: self.aggregates_fused.load(Ordering::Relaxed),
        }
    }
}

/// Plain copy of [`ExecMetrics`] for reports and stats frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Rows produced by leaf scans.
    pub rows_scanned: u64,
    /// Rows skipped by zone-map pruning.
    pub rows_pruned: u64,
    /// Expression batches evaluated vectorized.
    pub vectorized_batches: u64,
    /// Expression batches that fell back to the scalar evaluator.
    pub scalar_fallbacks: u64,
    /// Morsels handed to the worker pool by parallel operators.
    pub morsels_dispatched: u64,
    /// Operator pipelines that ran on more than one thread.
    pub parallel_pipelines: u64,
    /// Nanoseconds spent in ordered result merges.
    pub merge_ns: u64,
    /// Pruning passes served by the ordered time index.
    pub index_seeks: u64,
    /// Time-index entries examined by record-level pruning.
    pub index_rows_examined: u64,
    /// Plans costed with table statistics.
    pub plans_estimated: u64,
    /// Predicted result rows, summed over costed plans.
    pub estimated_rows: u64,
    /// Actual result rows of those plans.
    pub actual_rows: u64,
    /// Cumulative |estimated − actual| over costed plans.
    pub estimate_abs_error: u64,
    /// Aggregates folded from a join's matches without building it.
    pub aggregates_fused: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = ExecMetrics::new();
        m.add_rows_scanned(10);
        m.add_rows_scanned(5);
        m.add_rows_pruned(7);
        m.add_vectorized_batch();
        m.add_scalar_fallback();
        m.add_morsels_dispatched(3);
        m.add_parallel_pipeline();
        m.add_merge_ns(250);
        m.add_index_prune(true, 4);
        m.add_index_prune(false, 9);
        m.add_estimate(100, 80);
        m.add_estimate(10, 30);
        m.add_aggregate_fused();
        let s = m.snapshot();
        assert_eq!(s.rows_scanned, 15);
        assert_eq!(s.rows_pruned, 7);
        assert_eq!(s.vectorized_batches, 1);
        assert_eq!(s.scalar_fallbacks, 1);
        assert_eq!(s.morsels_dispatched, 3);
        assert_eq!(s.parallel_pipelines, 1);
        assert_eq!(s.merge_ns, 250);
        assert_eq!(s.index_seeks, 1, "only the seek-served pass counts");
        assert_eq!(s.index_rows_examined, 13);
        assert_eq!(s.plans_estimated, 2);
        assert_eq!(s.estimated_rows, 110);
        assert_eq!(s.actual_rows, 110);
        assert_eq!(s.estimate_abs_error, 40, "errors do not cancel out");
        assert_eq!(s.aggregates_fused, 1);
    }
}
