//! The ingest fold's equivalences: opening a warehouse is the refresh in
//! which every file is new, and one refresh over a mixed delta (files
//! removed, appended to and added together) lands on the state a fresh
//! open of the same directory builds.

mod common;

use common::{figure1_repo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::core::METADATA_QUERY;
use lazyetl::mseed::gen::generate_repository;
use lazyetl::mseed::record::SourceId;
use lazyetl::mseed::Timestamp;
use lazyetl::repo::{updates, Repository};
use lazyetl::store::Table;
use lazyetl::{EtlOp, Mode, Warehouse, WarehouseBuilder, WarehouseConfig};
use std::path::Path;

const RECORD_COUNT: &str = "SELECT COUNT(*) FROM mseed.records";
const MIX: [&str; 4] = [FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY, RECORD_COUNT];

fn open(root: &Path, mode: Mode, recycle: bool) -> Warehouse {
    WarehouseBuilder::new()
        .config(WarehouseConfig {
            auto_refresh: false,
            recycle_query_results: recycle,
            ..Default::default()
        })
        .mode(mode)
        .local_dir("repo", root)
        .unwrap()
        .open()
        .unwrap()
}

/// Result rows in a canonical order: file ids (and with them group
/// order) differ between a refreshed and a freshly opened warehouse.
fn sorted_rows(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|i| format!("{:?}", t.row(i).unwrap()))
        .collect();
    rows.sort();
    rows
}

#[test]
fn open_equals_landing_everything_then_refreshing() {
    for mode in [Mode::Lazy, Mode::Eager] {
        let repo = figure1_repo(&format!("fold_open_{mode:?}"), 4096);
        let landing = repo.root.join("_landing");
        std::fs::create_dir_all(&landing).unwrap();
        let landed = open(&landing, mode, false);
        assert_eq!(landed.load_report().files, 0);

        generate_repository(&landing, &repo.config).unwrap();
        let summary = landed.refresh().unwrap();
        assert_eq!(summary.added, repo.generated.files.len());
        assert_eq!((summary.modified, summary.removed), (0, 0));
        let opened = open(&landing, mode, false);

        let tables: &[&str] = match mode {
            Mode::Lazy => &["files", "records"],
            Mode::Eager => &["files", "records", "data"],
        };
        for name in tables {
            assert_eq!(
                landed.catalog().table(name),
                opened.catalog().table(name),
                "{mode:?}: {name} differs between refresh and open"
            );
        }
        assert_eq!(summary.records_reloaded, opened.load_report().records);
        assert_eq!(
            summary.samples_reloaded,
            opened.load_report().samples_loaded
        );
        for sql in MIX {
            assert_eq!(
                landed.query(sql).unwrap().table,
                opened.query(sql).unwrap().table,
                "{mode:?}: {sql}"
            );
        }
        // What landed was new, and the log says so.
        let stale =
            |op: &EtlOp| matches!(op, EtlOp::StaleDrop { .. } | EtlOp::MetadataRefresh { .. });
        assert_eq!(landed.etl_log().count_matching(stale), 0);
        assert_eq!(
            landed
                .etl_log()
                .count_matching(|op| matches!(op, EtlOp::MetadataLoad { .. })),
            repo.generated.files.len()
        );
    }
}

#[test]
fn one_mixed_delta_equals_a_fresh_open() {
    for (mode, recycle) in [
        (Mode::Lazy, false),
        (Mode::Eager, false),
        (Mode::Lazy, true),
    ] {
        let repo = figure1_repo(&format!("fold_mixed_{mode:?}_{recycle}"), 512);
        let wh = open(&repo.root, mode, recycle);
        // Warm the record cache (and the recycler, when it is on).
        for sql in MIX {
            wh.query(sql).unwrap();
        }

        // Two files removed, one appended to, one added; one refresh.
        let mut handle = Repository::open(&repo.root).unwrap();
        let uris: Vec<String> = handle.files().iter().map(|e| e.uri.clone()).collect();
        for uri in [&uris[1], &uris[uris.len() - 1]] {
            std::fs::remove_file(repo.root.join(uri)).unwrap();
        }
        updates::append_records(&mut handle, &uris[0], 20, 7).unwrap();
        updates::add_file(
            &mut handle,
            &SourceId::new("NL", "HGN", "", "BHZ").unwrap(),
            Timestamp::from_ymd_hms(2010, 1, 12, 22, 20, 0, 0),
            30,
            11,
        )
        .unwrap();
        let summary = wh.refresh().unwrap();
        assert_eq!(
            (summary.added, summary.modified, summary.removed),
            (1, 1, 2)
        );

        let fresh = open(&repo.root, mode, false);
        let (a, b) = (wh.stats_snapshot(), fresh.stats_snapshot());
        assert_eq!((a.files, a.records), (b.files, b.records));
        for sql in MIX {
            assert_eq!(
                sorted_rows(&wh.query(sql).unwrap().table),
                sorted_rows(&fresh.query(sql).unwrap().table),
                "{mode:?} recycle={recycle}: {sql}"
            );
        }
        // Only the replaced file logs a refresh; the added one is a load.
        assert_eq!(
            wh.etl_log()
                .count_matching(|op| matches!(op, EtlOp::MetadataRefresh { .. })),
            1
        );
        if recycle {
            // Not insert-only: nothing may be patched from table tails,
            // entries are kept by scope or recomputed.
            assert_eq!(
                wh.etl_log().count_matching(|op| matches!(
                    op,
                    EtlOp::RefreshDelta {
                        insert_only: false,
                        ..
                    }
                )),
                1
            );
            assert_eq!(a.recycler.results_patched, 0, "{:?}", a.recycler);
            assert!(a.recycler.recompute_fallbacks > 0, "{:?}", a.recycler);
        }
    }
}
