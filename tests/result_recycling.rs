//! The result recycler (E11): whole query results served from the cache,
//! invalidated by repository changes — the "end result of a view is saved
//! in the cache" sentence of §3.3.

mod common;

use common::{figure1_repo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::core::warehouse::{Warehouse, WarehouseConfig};
use lazyetl::core::EtlOp;
use lazyetl::repo::{updates, Repository};

fn recycling_config() -> WarehouseConfig {
    WarehouseConfig {
        recycle_query_results: true,
        ..Default::default()
    }
}

#[test]
fn second_run_is_recycled_and_identical() {
    let repo = figure1_repo("recycle_q2", 512);
    let wh = Warehouse::open_lazy(&repo.root, recycling_config()).unwrap();

    let first = wh.query(FIGURE1_Q2).unwrap();
    assert!(!first.report.result_recycled);
    assert!(first.report.rows > 0);
    assert!(!first.report.files_extracted.is_empty());

    let second = wh.query(FIGURE1_Q2).unwrap();
    assert!(second.report.result_recycled, "identical SQL must hit");
    assert_eq!(second.report.rows, first.report.rows);
    assert_eq!(second.table.to_ascii(100), first.table.to_ascii(100));
    assert!(
        second.report.files_extracted.is_empty(),
        "a recycled result performs no extraction"
    );
    assert_eq!(second.report.records_extracted, 0);
    assert!(
        second
            .report
            .stages
            .iter()
            .any(|(name, _)| name == "recycled"),
        "the recycled stage is observable"
    );
    let snap = wh.result_cache_snapshot();
    assert_eq!(snap.stats.hits, 1);
    assert_eq!(snap.entries.len(), 1);
}

#[test]
fn recycled_hit_skips_the_front_end() {
    let repo = figure1_repo("recycle_frontend", 512);
    let wh = Warehouse::open_lazy(&repo.root, recycling_config()).unwrap();

    wh.query(FIGURE1_Q2).unwrap();
    let second = wh.query(FIGURE1_Q2).unwrap();
    assert!(second.report.result_recycled);
    let stages: Vec<&str> = second
        .report
        .stages
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(stages, vec!["recycled"], "a hit is not parsed or planned");
    let compiles = wh.etl_log().count_matching(
        |op| matches!(op, EtlOp::PlanRewrite { stage, .. } if stage == "compile-time"),
    );
    assert_eq!(compiles, 1, "only the first run compiled");
}

#[test]
fn different_literals_are_different_fingerprints() {
    let repo = figure1_repo("recycle_fp", 512);
    let wh = Warehouse::open_lazy(&repo.root, recycling_config()).unwrap();

    wh.query("SELECT COUNT(*) FROM mseed.records WHERE R.seq_no = 1")
        .unwrap();
    let out = wh
        .query("SELECT COUNT(*) FROM mseed.records WHERE R.seq_no = 2")
        .unwrap();
    assert!(
        !out.report.result_recycled,
        "changing a literal must not reuse the previous result"
    );
    assert_eq!(wh.result_cache_snapshot().entries.len(), 2);
}

#[test]
fn repository_change_invalidates_recycled_results() {
    let repo = figure1_repo("recycle_inval", 512);
    let wh = Warehouse::open_lazy(&repo.root, recycling_config()).unwrap();

    let count_sql = "SELECT COUNT(*) FROM mseed.records";
    let before = wh.query(count_sql).unwrap();
    assert!(wh.query(count_sql).unwrap().report.result_recycled);
    let gen_before = wh.generation();

    // Append records to one file behind the warehouse's back.
    let mut raw = Repository::open(repo.root.clone()).unwrap();
    let target = raw.files()[0].uri.clone();
    updates::append_records(&mut raw, &target, 10, 3).unwrap();

    // Auto-refresh at query start folds the change in and bumps the
    // generation, so the recycled COUNT(*) must not be served.
    let after = wh.query(count_sql).unwrap();
    assert!(wh.generation() > gen_before);
    assert!(!after.report.result_recycled);
    assert!(
        after.table.to_ascii(10) != before.table.to_ascii(10),
        "the recomputed count sees the appended records"
    );
    // And the fresh result is admitted again.
    assert!(wh.query(count_sql).unwrap().report.result_recycled);
}

#[test]
fn recycling_works_in_eager_mode_too() {
    let repo = figure1_repo("recycle_eager", 512);
    let wh = Warehouse::open_eager(&repo.root, recycling_config()).unwrap();
    let first = wh.query(FIGURE1_Q1).unwrap();
    let second = wh.query(FIGURE1_Q1).unwrap();
    assert!(!first.report.result_recycled);
    assert!(second.report.result_recycled);
    assert_eq!(second.table.to_ascii(10), first.table.to_ascii(10));
}

#[test]
fn recycler_disabled_by_default() {
    let repo = figure1_repo("recycle_off", 512);
    let wh = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    wh.query(FIGURE1_Q1).unwrap();
    let second = wh.query(FIGURE1_Q1).unwrap();
    assert!(!second.report.result_recycled);
    assert!(wh.result_cache_snapshot().entries.is_empty());
}

#[test]
fn recycle_ops_are_logged() {
    let repo = figure1_repo("recycle_log", 512);
    let wh = Warehouse::open_lazy(&repo.root, recycling_config()).unwrap();
    wh.query(FIGURE1_Q1).unwrap();
    wh.query(FIGURE1_Q1).unwrap();
    let admits = wh
        .etl_log()
        .count_matching(|op| matches!(op, EtlOp::ResultRecycleAdmit { .. }));
    let hits = wh
        .etl_log()
        .count_matching(|op| matches!(op, EtlOp::ResultRecycleHit { .. }));
    assert_eq!(admits, 1);
    assert_eq!(hits, 1);
}

#[test]
fn recycled_hit_matches_record_cache_path_results() {
    // Same query through a recycling warehouse and a plain one must agree.
    let repo = figure1_repo("recycle_equiv", 512);
    let plain = Warehouse::open_lazy(&repo.root, WarehouseConfig::default()).unwrap();
    let recycled = Warehouse::open_lazy(&repo.root, recycling_config()).unwrap();
    for sql in [FIGURE1_Q1, FIGURE1_Q2] {
        let a = plain.query(sql).unwrap();
        recycled.query(sql).unwrap();
        let b = recycled.query(sql).unwrap(); // recycled path
        assert!(b.report.result_recycled);
        assert_eq!(a.table.to_ascii(100), b.table.to_ascii(100));
    }
}
