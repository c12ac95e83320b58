//! E17: the cost-based planner and the ordered time-range index.
//!
//! Runs one deterministic mix of time-window queries under three
//! configurations of the same warehouse:
//!
//! * `seek`      — full pipeline: cost-based planning on persisted/derived
//!   statistics, `TimeInterval` pruning served by the sorted time index.
//! * `sweep`     — `time_index_seek: false`: identical pruning decisions,
//!   but every candidate record's zone map is examined linearly.
//! * `heuristic` — `cost_based_planning: false`: the pre-cost optimizer
//!   (no statistics, no join reordering, no EXPLAIN stage).
//!
//! Acceptance bars (exact counts in `tests/experiments.rs`): the three
//! configurations agree cell for cell; the seek configuration
//! examines strictly fewer index entries than the linear sweep while
//! pruning the same records; the costed configurations estimate every
//! plan and the heuristic one estimates none.

use crate::{time, ScaleName, FIGURE1_Q1};
use lazyetl_core::{Warehouse, WarehouseConfig};
use std::path::Path;
use std::time::Duration;

/// One configuration's accumulated counters over the query mix.
#[derive(Debug, Clone)]
pub struct PlannerRunResult {
    /// Configuration label: `seek`, `sweep` or `heuristic`.
    pub config: &'static str,
    /// Number of queries in the mix.
    pub queries: usize,
    /// Total result rows across the mix.
    pub rows: usize,
    /// Wall clock for the whole cold mix.
    pub cold: Duration,
    /// Pruning passes served by the sorted index (warehouse counter).
    pub index_seeks: u64,
    /// Index entries (seek) or record zone maps (sweep) examined.
    pub entries_examined: u64,
    /// Records actually extracted across the mix.
    pub fetched_pairs: usize,
    /// Records pruned by zone maps across the mix.
    pub pruned_pairs: usize,
    /// Plans that produced a cardinality estimate.
    pub plans_estimated: u64,
    /// Accumulated |estimated - actual| over those plans.
    pub estimate_abs_error: u64,
    /// Cell-for-cell agreement with the `seek` reference run.
    pub results_match: bool,
}

/// The deterministic window mix: Figure-1 Q1 plus narrow network-wide
/// windows — the candidate set is the whole records table, so the sweep
/// must examine every record's zone map while the ordered index answers
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

fn tables_close(a: &lazyetl_store::Table, b: &lazyetl_store::Table) -> bool {
    if a.num_rows() != b.num_rows() {
        return false;
    }
    (0..a.num_rows()).all(|row| {
        let (ra, rb) = match (a.row(row), b.row(row)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            _ => return false,
        };
        ra.len() == rb.len()
            && ra
                .iter()
                .zip(&rb)
                .all(|(x, y)| match (x.as_f64(), y.as_f64()) {
                    (Some(x), Some(y)) => (x - y).abs() <= (x.abs().max(y.abs()) * 1e-9).max(1e-9),
                    _ => x == y,
                })
    })
}

/// Run the E17 mix against `dir` under all three configurations.
pub fn run_planner_bench(dir: &Path) -> Vec<PlannerRunResult> {
    let queries = window_queries();
    let configs: [(&'static str, bool, bool); 3] = [
        ("seek", true, true),
        ("sweep", true, false),
        ("heuristic", false, true),
    ];
    let mut reference: Vec<std::sync::Arc<lazyetl_store::Table>> = Vec::new();
    let mut out = Vec::new();
    for (label, cost_based, seek) in configs {
        let wh = Warehouse::open_lazy(
            dir,
            WarehouseConfig {
                auto_refresh: false,
                cost_based_planning: cost_based,
                time_index_seek: seek,
                ..Default::default()
            },
        )
        .expect("bench warehouse opens");
        let mut tables = Vec::new();
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
                tables.push(o.table);
            }
        });
        let exec = wh.stats_snapshot().exec;
        let results_match = if reference.is_empty() {
            reference = tables;
            true
        } else {
            reference.len() == tables.len()
                && reference
                    .iter()
                    .zip(&tables)
                    .all(|(a, b)| tables_close(a, b))
        };
        out.push(PlannerRunResult {
            config: label,
            queries: queries.len(),
            rows,
            cold,
            index_seeks: exec.index_seeks,
            entries_examined: exec.index_rows_examined,
            fetched_pairs: fetched,
            pruned_pairs: pruned,
            plans_estimated: exec.plans_estimated,
            estimate_abs_error: exec.estimate_abs_error,
            results_match,
        });
    }
    out
}

/// Convenience wrapper used by tests: run at a named scale.
pub fn run_planner_bench_at(scale: ScaleName) -> Vec<PlannerRunResult> {
    run_planner_bench(&crate::scale_repo(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_bench_meets_its_acceptance_bars() {
        let rows = run_planner_bench_at(ScaleName::Tiny);
        assert_eq!(rows.len(), 3);
        let seek = &rows[0];
        let sweep = &rows[1];
        let heuristic = &rows[2];
        assert!(rows.iter().all(|r| r.results_match), "{rows:?}");
        assert_eq!(seek.fetched_pairs, sweep.fetched_pairs);
        assert_eq!(seek.pruned_pairs, sweep.pruned_pairs);
        assert!(
            seek.entries_examined < sweep.entries_examined,
            "seek must examine fewer entries: {} vs {}",
            seek.entries_examined,
            sweep.entries_examined
        );
        assert!(seek.index_seeks >= 1);
        assert_eq!(sweep.index_seeks, 0);
        assert!(seek.plans_estimated >= 1);
        assert_eq!(heuristic.plans_estimated, 0);
    }
}
