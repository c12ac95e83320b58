//! Incremental result maintenance (PR 10): insert-only refresh deltas
//! *patch* resident recycled results instead of dropping them, scoped
//! invalidation keeps provably-unaffected entries, and everything else
//! falls back to the pre-existing drop-and-recompute behaviour.

mod common;

use common::{figure1_repo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::core::warehouse::{Warehouse, WarehouseConfig};
use lazyetl::core::EtlOp;
use lazyetl::mseed::record::SourceId;
use lazyetl::mseed::Timestamp;
use lazyetl::repo::{updates, Repository};

fn maint_config() -> WarehouseConfig {
    WarehouseConfig {
        recycle_query_results: true, // maintain_recycled_results defaults on
        ..Default::default()
    }
}

/// Add a brand-new file behind the warehouse's back: an insert-only delta.
fn insert_file(root: &std::path::Path, net: &str, sta: &str, chan: &str, minute: u32) {
    let mut raw = Repository::open(root.to_path_buf()).unwrap();
    let src = SourceId::new(net, sta, "", chan).unwrap();
    updates::add_file(
        &mut raw,
        &src,
        Timestamp::from_ymd_hms(2010, 1, 12, 23, minute, 0, 0),
        10,
        0xADD + minute as u64,
    )
    .unwrap();
}

#[test]
fn insert_only_refresh_patches_group_aggregate() {
    let repo = figure1_repo("maint_patch", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();

    let first = wh.query(FIGURE1_Q2).unwrap();
    assert!(!first.report.result_recycled);

    // New file for an *existing* NL/BHZ station: the cached Q2 groups'
    // MIN/MAX states must absorb its samples.
    insert_file(&repo.root, "NL", "HGN", "BHZ", 0);
    wh.refresh().unwrap();

    let stats = wh.stats_snapshot();
    assert!(
        stats.recycler.results_patched >= 1,
        "insert-only delta patches the resident aggregate: {:?}",
        stats.recycler
    );
    assert_eq!(
        stats.recycler.recompute_fallbacks, 0,
        "nothing needed a recompute: {:?}",
        stats.recycler
    );

    let second = wh.query(FIGURE1_Q2).unwrap();
    assert!(
        second.report.result_recycled,
        "the patched entry serves the re-query"
    );
    assert!(second.report.files_extracted.is_empty());

    // Ground truth: a fresh warehouse recomputing from scratch.
    let fresh = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    let truth = fresh.query(FIGURE1_Q2).unwrap();
    assert_eq!(
        second.table.to_ascii(100),
        truth.table.to_ascii(100),
        "patched result ≡ recompute"
    );
}

#[test]
fn delta_adds_a_group_and_extends_one_under_avg_min_count() {
    let repo = figure1_repo("maint_newgroup", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();
    let sql = "SELECT F.station, AVG(D.sample_value), MIN(D.sample_value), COUNT(*) \
               FROM mseed.dataview WHERE F.channel = 'BHZ' GROUP BY F.station";

    let first = wh.query(sql).unwrap();
    // One refresh, two files: HGN is already a group, ZZZ is not.
    insert_file(&repo.root, "NL", "HGN", "BHZ", 0);
    insert_file(&repo.root, "NL", "ZZZ", "BHZ", 1);
    wh.refresh().unwrap();

    let stats = wh.stats_snapshot();
    assert!(stats.recycler.results_patched >= 1, "{:?}", stats.recycler);
    assert_eq!(
        stats.recycler.recompute_fallbacks, 0,
        "{:?}",
        stats.recycler
    );

    let patched = wh.query(sql).unwrap();
    assert!(
        patched.report.result_recycled,
        "served from the patched entry"
    );
    assert_eq!(patched.table.num_rows(), first.table.num_rows() + 1);

    // Samples are integers, so every float sum is exact and the patched
    // cells must equal a from-scratch aggregate's bit for bit. Group order
    // legitimately differs (a delta's new groups come last), so rows are
    // aligned by station first.
    let by_station = |t: &lazyetl::store::Table| {
        let mut rows: Vec<_> = (0..t.num_rows()).map(|i| t.row(i).unwrap()).collect();
        rows.sort_by_key(|r| r[0].to_string());
        rows
    };
    let fresh = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    assert_eq!(
        by_station(&patched.table),
        by_station(&fresh.query(sql).unwrap().table),
        "patched result ≡ recompute, cell for cell"
    );
}

#[test]
fn patched_count_tracks_inserted_records() {
    let repo = figure1_repo("maint_count", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();
    let sql = "SELECT COUNT(*) FROM mseed.records";

    wh.query(sql).unwrap();
    insert_file(&repo.root, "NL", "OPLO", "BHZ", 5);
    wh.refresh().unwrap();

    let out = wh.query(sql).unwrap();
    assert!(out.report.result_recycled, "served from the patched entry");
    let fresh = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    assert_eq!(
        out.table.to_ascii(10),
        fresh.query(sql).unwrap().table.to_ascii(10)
    );
    let stats = wh.stats_snapshot();
    assert!(stats.recycler.results_patched >= 1);
    assert!(stats.recycler.patch_rows_applied >= 1);
}

#[test]
fn time_disjoint_delta_keeps_entries_untouched() {
    let repo = figure1_repo("maint_keep", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();

    // Q1's sample-time window is 22:15:00–22:15:02; the new file starts at
    // 23:40 — provably disjoint, so the entry survives without even
    // running the delta.
    let first = wh.query(FIGURE1_Q1).unwrap();
    insert_file(&repo.root, "KO", "ISK", "BHE", 40);
    wh.refresh().unwrap();

    let stats = wh.stats_snapshot();
    assert!(
        stats.recycler.results_kept >= 1,
        "time-disjoint entry kept: {:?}",
        stats.recycler
    );
    assert!(stats.recycler.bytes_saved_estimate > 0);

    let second = wh.query(FIGURE1_Q1).unwrap();
    assert!(second.report.result_recycled);
    assert_eq!(second.table.to_ascii(10), first.table.to_ascii(10));
}

#[test]
fn modification_delta_falls_back_to_recompute() {
    let repo = figure1_repo("maint_fallback", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();

    let before = wh.query(FIGURE1_Q2).unwrap();
    // Appending to an existing file is NOT insert-only: old rows change,
    // so the partition property does not hold and patching is unsound.
    let mut raw = Repository::open(repo.root.clone()).unwrap();
    let target = raw.files()[0].uri.clone();
    updates::append_records(&mut raw, &target, 10, 3).unwrap();
    wh.refresh().unwrap();

    let stats = wh.stats_snapshot();
    assert!(
        stats.recycler.recompute_fallbacks >= 1,
        "modified files force the drop path: {:?}",
        stats.recycler
    );
    assert_eq!(stats.recycler.results_patched, 0);

    let after = wh.query(FIGURE1_Q2).unwrap();
    assert!(!after.report.result_recycled, "stale entry was dropped");
    drop(before);
}

#[test]
fn maintenance_disabled_restores_drop_on_refresh() {
    let repo = figure1_repo("maint_off", 512);
    let cfg = WarehouseConfig {
        recycle_query_results: true,
        maintain_recycled_results: false,
        ..Default::default()
    };
    let wh = Warehouse::open_lazy(&repo.root, cfg).unwrap();

    wh.query(FIGURE1_Q2).unwrap();
    insert_file(&repo.root, "NL", "WIT", "BHZ", 10);
    wh.refresh().unwrap();

    let stats = wh.stats_snapshot();
    assert_eq!(stats.recycler.results_patched, 0, "maintenance is off");
    let again = wh.query(FIGURE1_Q2).unwrap();
    assert!(
        !again.report.result_recycled,
        "the E18 recompute baseline drops and recomputes"
    );
    // Correctness is unaffected either way.
    let fresh = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    assert_eq!(
        again.table.to_ascii(100),
        fresh.query(FIGURE1_Q2).unwrap().table.to_ascii(100)
    );
}

#[test]
fn append_core_rows_are_appended() {
    let repo = figure1_repo("maint_append", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();
    let sql = "SELECT R.file_id, R.seq_no FROM mseed.records WHERE R.seq_no >= 0";

    let before = wh.query(sql).unwrap();
    insert_file(&repo.root, "NL", "WTSB", "BHZ", 15);
    wh.refresh().unwrap();

    let out = wh.query(sql).unwrap();
    assert!(out.report.result_recycled);
    assert!(
        out.report.rows > before.report.rows,
        "delta rows appended to the resident projection"
    );
    let fresh = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    let truth = fresh.query(sql).unwrap();
    assert_eq!(out.report.rows, truth.report.rows);
    // Row-order-insensitive comparison: collect and sort rendered rows.
    let rows = |t: &lazyetl::store::Table| {
        let mut v: Vec<String> = (0..t.num_rows())
            .map(|i| format!("{:?}", t.row(i).unwrap()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(rows(&out.table), rows(&truth.table));
}

#[test]
fn maintenance_ops_are_logged() {
    let repo = figure1_repo("maint_log", 512);
    let wh = Warehouse::open_lazy(&repo.root, maint_config()).unwrap();

    wh.query(FIGURE1_Q2).unwrap();
    insert_file(&repo.root, "NL", "HGN", "BHZ", 20);
    wh.refresh().unwrap();

    let deltas = wh.etl_log().count_matching(|op| {
        matches!(
            op,
            EtlOp::RefreshDelta {
                insert_only: true,
                ..
            }
        )
    });
    let patches = wh
        .etl_log()
        .count_matching(|op| matches!(op, EtlOp::ResultPatch { .. }));
    assert_eq!(deltas, 1, "the refresh delta is journaled");
    assert!(patches >= 1, "the applied patch is journaled");
}
