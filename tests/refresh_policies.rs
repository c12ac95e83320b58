//! Manual refresh: with `auto_refresh` off, metadata moves only on an
//! explicit `refresh()`, yet record payloads never go stale, because the
//! record cache checks file mtimes at every fetch.

mod common;

use common::figure1_repo;
use lazyetl::core::warehouse::{Warehouse, WarehouseConfig};
use lazyetl::repo::{updates, Repository};

const COUNT_RECORDS: &str = "SELECT COUNT(*) FROM mseed.records";

#[test]
fn manual_mode_sees_changes_only_after_refresh() {
    let repo = figure1_repo("stale_off", 512);
    let wh = Warehouse::open_lazy(
        &repo.root,
        WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        },
    )
    .unwrap();
    let before = wh.query(COUNT_RECORDS).unwrap().table.to_ascii(10);

    let mut raw = Repository::open(repo.root.clone()).unwrap();
    let target = raw.files()[0].uri.clone();
    updates::append_records(&mut raw, &target, 10, 3).unwrap();

    let out = wh.query(COUNT_RECORDS).unwrap();
    assert!(out.report.refresh.is_none());
    assert_eq!(out.table.to_ascii(10), before, "manual mode never rescans");

    // A manual refresh always folds the changes in.
    assert_eq!(wh.refresh().unwrap().modified, 1);
    let after = wh.query(COUNT_RECORDS).unwrap().table.to_ascii(10);
    assert_ne!(after, before, "appended records visible after refresh");
}

#[test]
fn record_payloads_stay_fresh_while_metadata_lags() {
    // Even while metadata lags (auto-refresh off: the touch events below
    // would otherwise trigger a refresh first), the record cache checks
    // file mtimes at fetch time, so payload queries never serve bytes from
    // a superseded file version.
    let repo = figure1_repo("stale_payload", 512);
    let wh = Warehouse::open_lazy(
        &repo.root,
        WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        },
    )
    .unwrap();
    // Warm the cache with the first file's first record.
    let warm_sql = "SELECT COUNT(D.sample_value) FROM mseed.dataview WHERE R.seq_no = 1";
    wh.query(warm_sql).unwrap();
    let hits_before = wh.cache_snapshot().stats.hits;

    // Touch the file: its mtime changes, so cached entries for it are stale.
    let mut raw = Repository::open(repo.root.clone()).unwrap();
    let uris: Vec<String> = raw.files().iter().map(|e| e.uri.clone()).collect();
    for uri in &uris {
        updates::touch(&mut raw, uri).unwrap();
    }

    let out = wh.query(warm_sql).unwrap();
    assert!(
        out.report.stale_drops > 0,
        "mtime change forces re-extraction while the metadata lags"
    );
    assert_eq!(
        wh.cache_snapshot().stats.hits,
        hits_before,
        "no stale payload was served"
    );
}
