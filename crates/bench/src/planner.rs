//! E17: the cost-based planner and the ordered time-range index.
//!
//! Runs one deterministic mix of time-window queries, cold, through the
//! warehouse's one pipeline: plans costed on persisted/derived statistics,
//! `TimeInterval` pruning served by the sorted time index.
//!
//! Every data query in the mix has a sample-time window, so a linear sweep
//! would examine each candidate record once: its count is
//! [`PlannerRunResult::sweep_entries`], fetched plus pruned. The seek
//! examines only the index entries overlapping each window.
//!
//! Acceptance bars (exact counts in `tests/experiments.rs`): the seek
//! examines strictly fewer index entries than that sweep, and every plan
//! is estimated.

use crate::{time, ScaleName, FIGURE1_Q1};
use lazyetl_core::{Warehouse, WarehouseConfig};
use std::path::Path;
use std::time::Duration;

/// Accumulated counters over the query mix.
#[derive(Debug, Clone)]
pub struct PlannerRunResult {
    /// Number of queries in the mix.
    pub queries: usize,
    /// Total result rows across the mix.
    pub rows: usize,
    /// Wall clock for the whole cold mix.
    pub cold: Duration,
    /// Pruning passes served by the sorted index (warehouse counter).
    pub index_seeks: u64,
    /// Index entries the seeks examined.
    pub entries_examined: u64,
    /// Records actually extracted across the mix.
    pub fetched_pairs: usize,
    /// Records pruned by zone maps across the mix.
    pub pruned_pairs: usize,
    /// Plans that produced a cardinality estimate.
    pub plans_estimated: u64,
    /// Accumulated |estimated - actual| over those plans.
    pub estimate_abs_error: u64,
}

impl PlannerRunResult {
    /// Entries a linear sweep would examine over the same mix: every
    /// candidate record of every windowed query, kept or pruned.
    pub fn sweep_entries(&self) -> usize {
        self.fetched_pairs + self.pruned_pairs
    }
}

/// The deterministic window mix: Figure-1 Q1 plus narrow network-wide
/// windows — the candidate set is the whole records table, so a sweep
/// would examine every record's zone map while the ordered index answers
/// with just the entries overlapping the window.
pub fn window_queries() -> Vec<String> {
    let mut qs = vec![FIGURE1_Q1.to_string()];
    for (lo, hi) in [
        ("22:03:00.000", "22:04:00.000"),
        ("22:05:30.000", "22:06:30.000"),
        ("22:07:00.000", "22:09:00.000"),
        ("22:01:00.000", "22:01:30.000"),
    ] {
        qs.push(format!(
            "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview \
             WHERE D.sample_time >= '2010-01-12T{lo}' \
             AND D.sample_time < '2010-01-12T{hi}'"
        ));
    }
    // A three-relation metadata join written in a deliberately suboptimal
    // order: exactly the shape the reorder pass rewrites.
    qs.push(
        "SELECT f.station, COUNT(*) FROM mseed.records r \
         JOIN mseed.files f ON r.file_id = f.file_id \
         WHERE f.channel = 'BHZ' GROUP BY f.station ORDER BY f.station"
            .to_string(),
    );
    qs
}

/// Run the E17 mix against `dir` on a freshly opened warehouse.
pub fn run_planner_bench(dir: &Path) -> PlannerRunResult {
    let queries = window_queries();
    let wh = Warehouse::open_lazy(
        dir,
        WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        },
    )
    .expect("bench warehouse opens");
    let mut rows = 0usize;
    let mut fetched = 0usize;
    let mut pruned = 0usize;
    let (_, cold) = time(|| {
        for sql in &queries {
            let o = wh.query(sql).expect("bench query runs");
            rows += o.table.num_rows();
            if let Some(r) = &o.report.rewrite {
                fetched += r.fetched_pairs;
                pruned += r.pruned_pairs;
            }
        }
    });
    let exec = wh.stats_snapshot().exec;
    PlannerRunResult {
        queries: queries.len(),
        rows,
        cold,
        index_seeks: exec.index_seeks,
        entries_examined: exec.index_rows_examined,
        fetched_pairs: fetched,
        pruned_pairs: pruned,
        plans_estimated: exec.plans_estimated,
        estimate_abs_error: exec.estimate_abs_error,
    }
}

/// Convenience wrapper used by tests: run at a named scale.
pub fn run_planner_bench_at(scale: ScaleName) -> PlannerRunResult {
    run_planner_bench(&crate::scale_repo(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_bench_meets_its_acceptance_bars() {
        let r = run_planner_bench_at(ScaleName::Tiny);
        assert!(
            (r.entries_examined as usize) < r.sweep_entries(),
            "seek must examine fewer entries than a sweep: {r:?}"
        );
        assert!(r.index_seeks >= 1, "{r:?}");
        assert_eq!(r.plans_estimated, r.queries as u64, "{r:?}");
    }
}
