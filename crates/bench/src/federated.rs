//! E16 — federated lazy extraction: one warehouse over three mounted
//! backends (a local mSEED archive, a CSV survey drop, and a
//! latency-injected simulated-remote server), each holding a disjoint
//! slice of the station inventory.
//!
//! The run proves the federation story end to end:
//!
//! * a query spanning every mount answers **identically** to an eager
//!   warehouse over the union of all three directories;
//! * the warm re-query extracts **zero** records (the recycling cache is
//!   keyed by global file id, so federation does not break it);
//! * per-source accounting in [`lazyetl_core::SourceStats`] is exact —
//!   each mount reports only its own files, records, bytes and (for the
//!   remote) ranged-fetch counts and modeled WAN time.

use crate::{build_once, copy_dir, materialize, time, ScaleName};
use lazyetl_core::{SourceStats, Warehouse, WarehouseBuilder, WarehouseConfig};
use lazyetl_mseed::gen::{GeneratorConfig, RepoFormat};
use lazyetl_mseed::inventory::default_inventory;
use lazyetl_mseed::Timestamp;
use lazyetl_repo::{CsvSource, RemoteSource, Repository};
use std::path::PathBuf;
use std::time::Duration;

/// The cross-mount query: every station, one channel, deterministic
/// order — answerable only by touching all three sources.
pub const FEDERATED_QUERY: &str = "SELECT F.station, COUNT(*), \
     MIN(D.sample_value), MAX(D.sample_value) \
     FROM mseed.dataview WHERE F.channel = 'BHZ' \
     GROUP BY F.station ORDER BY F.station";

/// Accounting for one mount after the cold + warm queries.
#[derive(Debug, Clone)]
pub struct FederatedSourceRow {
    /// Cold-phase counters (cumulative since open).
    pub stats: SourceStats,
    /// Files extracted *during the warm re-query* (must be 0).
    pub warm_files_extracted: u64,
}

/// One federated run's results.
#[derive(Debug)]
pub struct FederatedResult {
    /// Opening the three-mount lazy warehouse (metadata only).
    pub federated_open: Duration,
    /// Opening the eager union warehouse (full ETL).
    pub union_open: Duration,
    /// Cold federated query (pays extraction on every mount).
    pub cold: Duration,
    /// Warm federated re-query (cache only).
    pub warm: Duration,
    /// The same query against the resident eager union.
    pub union_query: Duration,
    /// Result rows (one per station).
    pub rows: usize,
    /// Federated answer equals the eager union answer, cell for cell.
    pub union_matches: bool,
    /// Records re-extracted by the warm query (must be 0).
    pub warm_records_extracted: usize,
    /// Cache hits the warm query was served from.
    pub warm_cache_hits: usize,
    /// Per-mount accounting, in mount order.
    pub sources: Vec<FederatedSourceRow>,
}

/// Files-per-stream for a named scale (mirrors `scale_config`).
fn files_per_stream(scale: ScaleName) -> u32 {
    match scale {
        ScaleName::Tiny => 1,
        ScaleName::Small => 4,
        ScaleName::Medium => 6,
        ScaleName::Large => 10,
    }
}

/// Generator configuration for one federation slice.
fn slice_config(networks: &[&str], scale: ScaleName, format: RepoFormat) -> GeneratorConfig {
    let inv = default_inventory();
    GeneratorConfig {
        stations: inv
            .iter()
            .filter(|s| networks.contains(&s.network.as_str()))
            .cloned()
            .collect(),
        channels: vec!["BHZ".into(), "BHE".into()],
        start: Timestamp::from_ymd_hms(2010, 1, 12, 22, 0, 0, 0),
        file_duration_secs: 600,
        files_per_stream: files_per_stream(scale),
        record_length: 4096,
        events_per_file: 0.4,
        format,
        seed: 0xE16 ^ files_per_stream(scale) as u64,
        ..Default::default()
    }
}

/// Materialize the three disjoint slices: (archive, surveys, orfeus).
///
/// The CSV slice gets its own cache tag because `materialize`'s key does
/// not include the container format.
fn federation_dirs(scale: ScaleName) -> (PathBuf, PathBuf, PathBuf) {
    let tag = |part: &str| format!("e16_{part}_{}", scale.label());
    (
        materialize(
            &tag("archive"),
            &slice_config(&["NL"], scale, RepoFormat::MseedOnly),
        ),
        materialize(
            &tag("surveys_csv"),
            &slice_config(&["GR"], scale, RepoFormat::CsvOnly),
        ),
        materialize(
            &tag("orfeus"),
            &slice_config(&["KO"], scale, RepoFormat::MseedOnly),
        ),
    )
}

/// A single directory holding every file of all three slices — the
/// ground-truth input for the eager union warehouse.
fn union_dir(scale: ScaleName, parts: &[&PathBuf]) -> PathBuf {
    let dst = crate::cache_root().join(format!("e16_union_{}", scale.label()));
    // The slices' own markers come along for the ride; `build_once`
    // writes the one that counts after the last copy.
    build_once(&dst, |tmp| {
        parts.iter().try_for_each(|part| copy_dir(part, tmp))
    })
    .expect("copy federation slices into union");
    dst
}

/// Exact table equality, cell for cell (both sides decode the same
/// generated integer counts, so no float tolerance is needed).
fn tables_match(a: &lazyetl_store::Table, b: &lazyetl_store::Table) -> bool {
    if a.num_rows() != b.num_rows() {
        return false;
    }
    (0..a.num_rows()).all(|i| a.row(i).ok() == b.row(i).ok())
}

/// Run E16 at a named scale. `sleep` enables real latency injection on
/// the simulated-remote mount (the bench harness turns it on so
/// cold-touch latency is wall-clock-visible; tests keep it off).
pub fn run_federated(scale: ScaleName, sleep: bool) -> FederatedResult {
    let (archive, surveys, orfeus) = federation_dirs(scale);
    let union = union_dir(scale, &[&archive, &surveys, &orfeus]);
    let cfg = WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    };

    let (fed, federated_open) = time(|| {
        WarehouseBuilder::new()
            .config(cfg.clone())
            .source("archive", Box::new(Repository::open(&archive).unwrap()))
            .source("surveys", Box::new(CsvSource::open(&surveys).unwrap()))
            .source(
                "orfeus",
                Box::new(RemoteSource::open(&orfeus).unwrap().with_sleep(sleep)),
            )
            .open()
            .unwrap()
    });
    let (eager, union_open) = time(|| Warehouse::open_eager(&union, cfg.clone()).unwrap());

    let (cold_out, cold) = time(|| fed.query(FEDERATED_QUERY).unwrap());
    let cold_stats = fed.stats_snapshot();
    let (warm_out, warm) = time(|| fed.query(FEDERATED_QUERY).unwrap());
    let warm_stats = fed.stats_snapshot();
    let (union_out, union_query) = time(|| eager.query(FEDERATED_QUERY).unwrap());

    let sources = cold_stats
        .sources
        .iter()
        .zip(&warm_stats.sources)
        .map(|(c, w)| FederatedSourceRow {
            stats: c.clone(),
            warm_files_extracted: w.files_extracted - c.files_extracted,
        })
        .collect();

    FederatedResult {
        federated_open,
        union_open,
        cold,
        warm,
        union_query,
        rows: cold_out.table.num_rows(),
        union_matches: tables_match(&cold_out.table, &union_out.table)
            && tables_match(&cold_out.table, &warm_out.table),
        warm_records_extracted: warm_out.report.records_extracted,
        warm_cache_hits: warm_out.report.cache_hits,
        sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federated_tiny_matches_union_and_recycles() {
        let r = run_federated(ScaleName::Tiny, false);
        assert!(r.union_matches, "federated answer diverged from union");
        assert_eq!(r.rows, 8, "one row per inventory station");
        assert_eq!(r.warm_records_extracted, 0, "warm query re-extracted");
        assert!(r.warm_cache_hits > 0);
        assert_eq!(r.sources.len(), 3);
        for s in &r.sources {
            assert!(s.stats.files > 0, "{}: empty mount", s.stats.name);
            assert!(
                s.stats.records_extracted > 0,
                "{}: never extracted",
                s.stats.name
            );
            assert_eq!(
                s.warm_files_extracted, 0,
                "{}: warm re-extraction",
                s.stats.name
            );
        }
        let remote = &r.sources[2];
        assert_eq!(remote.stats.kind, "remote");
        assert!(
            remote.stats.fetch_requests > 0,
            "remote never range-fetched"
        );
        assert!(remote.stats.simulated_io > Duration::ZERO);
        // Locals never range-fetch: they are read via their paths.
        assert_eq!(r.sources[0].stats.fetch_requests, 0);
    }
}
