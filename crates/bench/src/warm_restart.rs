//! E13 "warm restart": does a durably saved lazy warehouse reopen warm?
//!
//! The paper's time-to-insight claim (§4) is about the *first* session:
//! lazy loading answers the first query orders of magnitude sooner than
//! eager ETL. The durable save path extends the claim across restarts —
//! this experiment quantifies it. One session runs the Figure-1 mix and
//! saves; then two restarts replay the identical mix:
//!
//! * **cold** — a fresh [`Warehouse::open_lazy`]: metadata rescanned,
//!   every record re-extracted;
//! * **warm** — [`Warehouse::open_saved`]: tables loaded from the
//!   snapshot, cache segments rehydrated on first touch, nothing
//!   re-extracted.
//!
//! Reported per phase: open time, first-query time, their sum
//! (**time-to-first-insight**, the headline number), whole-mix time,
//! cache hit rate and records extracted. The acceptance bar is
//! `warm.tti < cold.tti` with zero warm re-extraction.
//!
//! The mix leads with the metadata-browse query — exactly E5's "first
//! query" — so TTI compares what restart genuinely changes: a cold open
//! rescans every repository file's metadata, a warm open loads two
//! tables. The Figure-1 data queries follow and show the cache side:
//! 100% hit rate and zero re-extraction warm, full re-extraction cold.
//! (On fast local disk, re-decoding Steim-compressed records and reading
//! back materialized rows cost the same order — the warm *wall-clock*
//! win on the data queries grows with access cost, the avoided *work*
//! is structural. Cf. the paper's storage-blowup argument in §4.)

use crate::{FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY};
use lazyetl_core::persistence::save_warehouse;
use lazyetl_core::warehouse::{Warehouse, WarehouseConfig};
use std::path::Path;
use std::time::Duration;

/// The query mix both restarts replay (identical to the save session's):
/// metadata browse first (the E5 "first insight"), then the Figure-1
/// data queries.
pub const MIX: [&str; 3] = [METADATA_QUERY, FIGURE1_Q2, FIGURE1_Q1];

/// Measurements of one restart flavour.
#[derive(Debug, Clone)]
pub struct RestartPhase {
    /// Wall-clock of constructing the warehouse.
    pub open: Duration,
    /// Wall-clock of the first mix query.
    pub first_query: Duration,
    /// Wall-clock of the whole mix.
    pub mix_total: Duration,
    /// Record-cache hits over the mix.
    pub cache_hits: usize,
    /// Record-cache misses over the mix.
    pub cache_misses: usize,
    /// Records decoded over the mix.
    pub records_extracted: usize,
}

impl RestartPhase {
    /// Time from "process starts" to "first answer on screen".
    pub fn time_to_first_insight(&self) -> Duration {
        self.open + self.first_query
    }

    /// Hit rate over the mix (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The whole experiment: save cost plus both restart flavours.
#[derive(Debug, Clone)]
pub struct WarmRestartResult {
    /// Fresh-open restart.
    pub cold: RestartPhase,
    /// Reopen-from-snapshot restart.
    pub warm: RestartPhase,
    /// Wall-clock of the durable save.
    pub save: Duration,
    /// Snapshot size on disk (tables + segments).
    pub saved_bytes: u64,
    /// Cache segment files the save wrote.
    pub segments: usize,
}

fn run_phase(open: impl FnOnce() -> Warehouse) -> RestartPhase {
    let (wh, t_open) = crate::time(open);
    let mut phase = RestartPhase {
        open: t_open,
        first_query: Duration::ZERO,
        mix_total: Duration::ZERO,
        cache_hits: 0,
        cache_misses: 0,
        records_extracted: 0,
    };
    for (i, sql) in MIX.iter().enumerate() {
        let (out, t) = crate::time(|| wh.query(sql).expect("mix query succeeds"));
        if i == 0 {
            phase.first_query = t;
        }
        phase.mix_total += t;
        phase.cache_hits += out.report.cache_hits;
        phase.cache_misses += out.report.cache_misses;
        phase.records_extracted += out.report.records_extracted;
    }
    phase
}

/// Best-of-`reps` by time-to-first-insight. Every rep is a *complete*
/// restart (fresh warehouse, fresh hydration), so counters stay those of
/// one honest run; taking the minimum strips scheduler noise from the
/// timing comparison, as usual for micro-scale wall clocks.
fn best_phase(reps: usize, open: impl Fn() -> Warehouse) -> RestartPhase {
    (0..reps.max(1))
        .map(|_| run_phase(&open))
        .min_by_key(|p| p.time_to_first_insight())
        .expect("at least one rep")
}

/// Run E13 against a repository: save a warm session, then time a cold
/// open vs. a warm reopen over the identical mix (best of three complete
/// restarts each).
pub fn run_warm_restart(repo: &Path, config: &WarehouseConfig) -> WarmRestartResult {
    run_warm_restart_reps(repo, config, 3)
}

/// [`run_warm_restart`] with an explicit repetition count.
pub fn run_warm_restart_reps(
    repo: &Path,
    config: &WarehouseConfig,
    reps: usize,
) -> WarmRestartResult {
    let saved = std::env::temp_dir().join(format!("lazyetl_e13_{}", std::process::id()));
    std::fs::remove_dir_all(&saved).ok();

    // Session 0: warm up on the mix and persist.
    let wh = Warehouse::open_lazy(repo, config.clone()).expect("repo opens");
    for sql in MIX {
        wh.query(sql).expect("warmup query succeeds");
    }
    let (report, save) = crate::time(|| save_warehouse(&wh, &saved).expect("save succeeds"));
    drop(wh);

    let cold = best_phase(reps, || {
        Warehouse::open_lazy(repo, config.clone()).expect("cold open")
    });
    let warm = best_phase(reps, || {
        Warehouse::open_saved(repo, &saved, config.clone()).expect("warm reopen")
    });
    std::fs::remove_dir_all(&saved).ok();
    WarmRestartResult {
        cold,
        warm,
        save,
        saved_bytes: report.bytes,
        segments: report.segments.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_restart_beats_cold_and_skips_extraction() {
        let dir = crate::scale_repo(crate::ScaleName::Tiny);
        let config = WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        };
        let r = run_warm_restart(&dir, &config);
        assert!(r.segments > 0, "the save persisted cache segments");
        assert!(r.cold.records_extracted > 0, "cold restart re-extracts");
        assert_eq!(r.warm.records_extracted, 0, "warm restart does not");
        assert!(r.warm.hit_rate() > 0.99, "warm mix is all hits");
        // The timing claim is a release claim: unoptimized segment
        // parsing can lose to unoptimized Steim decoding.
        if !cfg!(debug_assertions) {
            assert!(
                r.warm.time_to_first_insight() < r.cold.time_to_first_insight(),
                "warm TTI {:?} must beat cold TTI {:?}",
                r.warm.time_to_first_insight(),
                r.cold.time_to_first_insight()
            );
        }
    }
}
