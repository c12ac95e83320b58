//! Fresh-data polling (experiment E18).
//!
//! The paper's workflow ends where a live deployment begins: the
//! repository keeps growing while analysts keep re-running the same
//! dashboard queries. This module measures that steady state — a
//! deterministic stream of new files lands between polling rounds, and
//! `K` poller threads re-issue a fixed mix of maintainable queries after
//! every refresh.
//!
//! Two modes run the *identical* update + poll schedule and differ in a
//! single configuration bit:
//!
//! * **incremental** — `recycle_query_results: true`: the refresh delta
//!   patches resident recycled results in place, so every poll after the
//!   first pays O(delta);
//! * **recompute** — `recycle_query_results: false`: no result is
//!   recycled, so every poll recomputes its query from scratch (record
//!   payloads still come from the record cache).
//!
//! The harness also cross-checks the final rendered answers of both
//! modes — the bench doubles as an end-to-end incremental ≡ recompute
//! oracle at serving scale.

use crate::{mutable_copy, time};
use lazyetl_core::qcache::ResultCacheStats;
use lazyetl_core::{Warehouse, WarehouseConfig};
use lazyetl_mseed::record::SourceId;
use lazyetl_mseed::Timestamp;
use lazyetl_repo::{updates, Repository};
use std::path::Path;
use std::time::Duration;

/// The polling mix: every maintainable shape the classifier recognises
/// (append core, COUNT-only, mixed COUNT/MIN/MAX/AVG group aggregate) —
/// the same pool the `proptest_maintenance` oracle draws from.
pub const FRESH_QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM mseed.records",
    "SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value), \
     AVG(D.sample_value) FROM mseed.dataview GROUP BY F.station",
    "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) \
     FROM mseed.dataview WHERE F.network = 'NL' AND F.channel = 'BHZ' \
     GROUP BY F.station",
];

/// Shape of one E18 run.
#[derive(Debug, Clone)]
pub struct FreshConfig {
    /// Poller threads re-issuing the mix after each refresh.
    pub pollers: usize,
    /// Update rounds (one new file lands per round).
    pub rounds: usize,
}

impl Default for FreshConfig {
    fn default() -> Self {
        FreshConfig {
            pollers: 4,
            rounds: 5,
        }
    }
}

/// Measurements for one mode (incremental or recompute).
#[derive(Debug, Clone)]
pub struct FreshModeResult {
    /// `"incremental"` or `"recompute"`.
    pub mode: &'static str,
    /// Rounds run.
    pub rounds: usize,
    /// Poller threads per round.
    pub pollers: usize,
    /// Total queries issued across all poll phases.
    pub polls: usize,
    /// Time spent applying refreshes (includes in-place patching in
    /// incremental mode).
    pub refresh_total: Duration,
    /// Time spent in the poll phases (all pollers, wall clock).
    pub poll_total: Duration,
    /// Recycler counters after the run.
    pub recycler: ResultCacheStats,
    /// Final rendered answer per query, for cross-mode equivalence.
    pub final_answers: Vec<String>,
}

impl FreshModeResult {
    /// Refresh + poll wall-clock — the figure E18's table compares.
    pub fn total(&self) -> Duration {
        self.refresh_total + self.poll_total
    }
}

/// The deterministic update stream: round `i` lands one fresh NL.HGN BHZ
/// file at 2010-01-13 00:{i:02}, far from the seed data so every file is
/// genuinely new (insert-only delta, fresh file_ids).
fn land_update(dir: &Path, round: usize) {
    let mut repo = Repository::open(dir).expect("bench repo reopens");
    let src = SourceId::new("NL", "HGN", "", "BHZ").expect("static source id");
    let start = Timestamp::from_ymd_hms(2010, 1, 13, 0, round as u32, 0, 0);
    updates::add_file(&mut repo, &src, start, 10, 0xE18 + round as u64).expect("add_file");
}

/// Run one mode over its own mutable copy of `src`.
pub fn run_fresh_mode(src: &Path, cfg: &FreshConfig, incremental: bool) -> FreshModeResult {
    let mode = if incremental {
        "incremental"
    } else {
        "recompute"
    };
    let dir = mutable_copy(src, &format!("e18_{mode}"));
    let wh = Warehouse::open_lazy(
        &dir,
        WarehouseConfig {
            auto_refresh: false,
            recycle_query_results: incremental,
            ..Default::default()
        },
    )
    .expect("warehouse opens");

    // Warm: make every mix query resident in the recycler before the
    // first update lands, as a long-lived dashboard would be.
    for sql in FRESH_QUERIES {
        wh.query(sql).expect("warm query");
    }

    let mut refresh_total = Duration::ZERO;
    let mut poll_total = Duration::ZERO;
    let mut polls = 0usize;
    for round in 0..cfg.rounds {
        land_update(&dir, round);
        let (summary, t_refresh) = time(|| wh.refresh().expect("refresh"));
        assert!(summary.added > 0, "round {round} produced no delta");
        refresh_total += t_refresh;

        let (_, t_poll) = time(|| {
            std::thread::scope(|scope| {
                for _ in 0..cfg.pollers {
                    scope.spawn(|| {
                        for sql in FRESH_QUERIES {
                            wh.query(sql).expect("poll query");
                        }
                    });
                }
            });
        });
        poll_total += t_poll;
        polls += cfg.pollers * FRESH_QUERIES.len();
    }

    let final_answers = FRESH_QUERIES
        .iter()
        .map(|sql| {
            let out = wh.query(sql).expect("final query");
            out.table.to_ascii(200)
        })
        .collect();
    let recycler = wh.stats_snapshot().recycler;
    drop(wh);
    std::fs::remove_dir_all(&dir).ok();

    FreshModeResult {
        mode,
        rounds: cfg.rounds,
        pollers: cfg.pollers,
        polls,
        refresh_total,
        poll_total,
        recycler,
        final_answers,
    }
}

/// Run both modes over identical schedules; `results_match` is true when
/// every final rendered answer agrees across modes.
pub fn run_fresh_bench(src: &Path, cfg: &FreshConfig) -> (FreshModeResult, FreshModeResult, bool) {
    let incr = run_fresh_mode(src, cfg, true);
    let recomp = run_fresh_mode(src, cfg, false);
    let results_match = incr.final_answers == recomp.final_answers;
    (incr, recomp, results_match)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{materialize, scale_config, ScaleName};

    #[test]
    fn fresh_modes_agree_and_incremental_patches() {
        let src = materialize("fresh_unit", &scale_config(ScaleName::Tiny));
        let cfg = FreshConfig {
            pollers: 2,
            rounds: 2,
        };
        let (incr, recomp, results_match) = run_fresh_bench(&src, &cfg);
        assert!(results_match, "incremental and recompute answers diverged");
        assert_eq!(incr.polls, 2 * 2 * FRESH_QUERIES.len());
        assert!(
            incr.recycler.results_patched >= 1,
            "incremental mode never patched: {:?}",
            incr.recycler
        );
        assert_eq!(
            incr.recycler.recompute_fallbacks, 0,
            "mix should be fully maintainable: {:?}",
            incr.recycler
        );
        assert_eq!(
            recomp.recycler,
            ResultCacheStats::default(),
            "recompute mode must not touch the recycler"
        );
    }
}
