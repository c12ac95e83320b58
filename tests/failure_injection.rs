//! Failure injection: corrupt inputs and concurrent repository mutations
//! must surface as errors with context — never panics — and must leave
//! the warehouse usable.

mod common;

use common::{figure1_repo, FIGURE1_Q2};
use lazyetl::core::warehouse::{Warehouse, WarehouseConfig};
use lazyetl::mseed::gen::{generate_repository, GeneratorConfig};
use lazyetl::repo::{updates, Repository};
use std::path::PathBuf;

fn no_refresh() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

fn empty_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lazyetl_fail_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    root
}

#[test]
fn garbage_mseed_file_fails_attach_not_panics() {
    let root = empty_root("garbage");
    std::fs::write(root.join("junk.mseed"), vec![0xFFu8; 4096]).unwrap();
    let err = Warehouse::open_lazy(&root, no_refresh());
    assert!(err.is_err(), "corrupt input is rejected at attach");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn truncated_file_fails_attach() {
    let repo = figure1_repo("truncated", 512);
    // Truncate the first file to two-thirds of one record.
    let victim = &repo.generated.files[0].path;
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..340]).unwrap();
    let err = Warehouse::open_lazy(&repo.root, no_refresh());
    assert!(err.is_err(), "truncated record is detected by the scan");
    let msg = format!("{}", err.err().unwrap());
    assert!(
        msg.to_lowercase().contains("truncat") || msg.to_lowercase().contains("record"),
        "error carries context: {msg}"
    );
}

#[test]
fn empty_repository_attaches_and_answers() {
    let root = empty_root("empty");
    let wh = Warehouse::open_lazy(&root, no_refresh()).unwrap();
    assert_eq!(wh.load_report().files, 0);
    let out = wh.query("SELECT COUNT(*) FROM mseed.files").unwrap();
    assert_eq!(out.table.num_rows(), 1);
    let out = wh
        .query("SELECT AVG(D.sample_value) FROM mseed.dataview WHERE F.station = 'HGN'")
        .unwrap();
    assert_eq!(out.report.records_extracted, 0);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn zero_byte_file_is_metadata_empty() {
    let root = empty_root("zerobyte");
    std::fs::write(root.join("empty.mseed"), b"").unwrap();
    let wh = Warehouse::open_lazy(&root, no_refresh()).unwrap();
    assert_eq!(wh.load_report().files, 1, "the file is registered");
    assert_eq!(wh.load_report().records, 0, "but holds no records");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn non_seismic_files_are_ignored_by_the_scan() {
    let repo = figure1_repo("ignore", 512);
    std::fs::write(repo.root.join("README.txt"), b"not waveform data").unwrap();
    std::fs::write(repo.root.join("catalog.csv"), b"a,b,c").unwrap();
    let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
    assert_eq!(
        wh.load_report().files,
        repo.generated.files.len(),
        "only *.mseed / *.sac are attached"
    );
}

#[test]
fn file_vanishing_between_attach_and_query() {
    let repo = figure1_repo("vanish", 512);
    let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
    // Remove every ISK file from disk after the metadata was loaded.
    for f in &repo.generated.files {
        if f.source.station == "ISK" {
            std::fs::remove_file(&f.path).unwrap();
        }
    }
    // A query needing ISK data fails cleanly…
    let err = wh.query("SELECT AVG(D.sample_value) FROM mseed.dataview WHERE F.station = 'ISK'");
    assert!(err.is_err(), "missing file surfaces as an error");
    // …but the warehouse survives: metadata and other streams still work.
    let meta = wh.query("SELECT COUNT(*) FROM mseed.files").unwrap();
    assert_eq!(meta.table.num_rows(), 1);
    let other = wh.query(FIGURE1_Q2).unwrap();
    assert!(other.report.rows > 0, "NL streams are unaffected");
    // A refresh purges the vanished files and repairs the dataview.
    let summary = wh.refresh().unwrap();
    assert!(summary.removed > 0);
    let fixed = wh
        .query("SELECT AVG(D.sample_value) FROM mseed.dataview WHERE F.station = 'ISK'")
        .unwrap();
    assert_eq!(fixed.report.records_extracted, 0, "nothing left to extract");
}

#[test]
fn corrupt_file_appearing_later_fails_refresh_but_not_warehouse() {
    let repo = figure1_repo("late_corrupt", 512);
    let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
    let files_before = wh.load_report().files;
    wh.query(FIGURE1_Q2).unwrap();

    std::fs::write(repo.root.join("XX.BAD.mseed"), vec![0xAAu8; 2048]).unwrap();
    assert!(
        wh.refresh().is_err(),
        "the corrupt newcomer fails the rescan"
    );

    // Existing state still answers queries.
    let out = wh.query("SELECT COUNT(*) FROM mseed.files").unwrap();
    assert_eq!(out.table.num_rows(), 1);
    let again = wh.query(FIGURE1_Q2).unwrap();
    assert!(again.report.rows > 0);
    // Removing the offender lets refresh succeed again.
    std::fs::remove_file(repo.root.join("XX.BAD.mseed")).unwrap();
    let summary = wh.refresh().unwrap();
    assert!(
        summary.is_noop(),
        "the registry never learned of the bad file"
    );
    assert_eq!(
        wh.query("SELECT COUNT(*) FROM mseed.files")
            .unwrap()
            .table
            .num_rows(),
        1
    );
    let _ = files_before;
}

#[test]
fn failed_refresh_is_a_noop_and_the_next_one_retries_it() {
    let repo = figure1_repo("refresh_atomic", 512);
    let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
    let mut handle = Repository::open(&repo.root).unwrap();
    let first = handle.files()[0].uri.clone();
    let count_first = format!("SELECT COUNT(*) FROM mseed.dataview WHERE F.uri = '{first}'");
    let records_first = format!(
        "SELECT COUNT(*) FROM mseed.records JOIN mseed.files ON R.file_id = F.file_id \
         WHERE F.uri = '{first}'"
    );
    let before = wh.query(&count_first).unwrap().table;
    let records_before = wh.query(&records_first).unwrap().table;
    let q2_before = wh.query(FIGURE1_Q2).unwrap().table;
    let generation = wh.generation();
    let stats = wh.stats_snapshot();

    // One delta holds a good change and a bad one: records appended to
    // the first file, and a garbage newcomer beside it.
    updates::append_records(&mut handle, &first, 20, 7).unwrap();
    let bad = repo.root.join("ZZ.BAD.mseed");
    std::fs::write(&bad, vec![0xAAu8; 2048]).unwrap();
    assert!(wh.refresh().is_err(), "the garbage file fails the refresh");

    // Nothing moved: same generation, same catalog, and the modified
    // file's records are all still reachable through the locator index.
    assert_eq!(wh.generation(), generation);
    let after = wh.stats_snapshot();
    assert_eq!((after.files, after.records), (stats.files, stats.records));
    assert_eq!(wh.query(&records_first).unwrap().table, records_before);
    assert_eq!(wh.query(FIGURE1_Q2).unwrap().table, q2_before);
    // (The appended file's old records still decode — an append leaves
    // them where they were — so the sample count is the old one too.)
    assert_eq!(wh.query(&count_first).unwrap().table, before);

    // With the offender gone the same delta is retried, not forgotten.
    std::fs::remove_file(&bad).unwrap();
    let summary = wh.refresh().unwrap();
    assert_eq!(
        (summary.added, summary.modified, summary.removed),
        (0, 1, 0)
    );
    assert!(summary.records_reloaded > 0);
    assert_eq!(wh.generation(), generation + 1);
    let grown = wh.query(&records_first).unwrap().table;
    assert!(
        grown.row(0).unwrap()[0].as_i64() > records_before.row(0).unwrap()[0].as_i64(),
        "the first file's record count grows"
    );
    assert!(
        wh.query(&count_first).unwrap().table.row(0).unwrap()[0].as_i64()
            > before.row(0).unwrap()[0].as_i64()
    );
}

#[test]
fn bad_sql_leaves_warehouse_usable() {
    let repo = figure1_repo("bad_sql", 512);
    let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
    for bad in [
        "SELEC 1",
        "SELECT FROM mseed.files",
        "SELECT nonexistent_column FROM mseed.files",
        "SELECT * FROM no.such.table",
        "SELECT ABS() FROM mseed.files",
        "SELECT * FROM mseed.files WHERE station BETWEEN 1",
    ] {
        assert!(wh.query(bad).is_err(), "{bad:?} must error");
    }
    let out = wh.query(FIGURE1_Q2).unwrap();
    assert!(out.report.rows > 0, "good SQL still works after errors");
}

#[test]
fn in_place_shrink_is_detected_by_staleness_check() {
    // Rewrite a file with fewer records while keeping metadata stale
    // (no refresh): the per-fetch mtime check must notice.
    let root = empty_root("shrink");
    let config = GeneratorConfig {
        files_per_stream: 1,
        file_duration_secs: 60,
        events_per_file: 0.0,
        seed: 42,
        ..GeneratorConfig::tiny(42)
    };
    let generated = generate_repository(&root, &config).unwrap();
    let wh = Warehouse::open_lazy(&root, no_refresh()).unwrap();
    wh.query("SELECT COUNT(D.sample_value) FROM mseed.dataview WHERE F.station = 'HGN'")
        .unwrap();

    // Replace the HGN file with a much shorter one (different mtime+size).
    let victim = generated
        .files
        .iter()
        .find(|f| f.source.station == "HGN")
        .unwrap();
    let short = GeneratorConfig {
        file_duration_secs: 5,
        ..config.clone()
    };
    let tmp = empty_root("shrink_src");
    let regen = generate_repository(&tmp, &short).unwrap();
    let replacement = regen
        .files
        .iter()
        .find(|f| f.source.station == "HGN")
        .unwrap();
    std::fs::copy(&replacement.path, &victim.path).unwrap();
    filetime_touch(&victim.path);

    // Without refresh, metadata still claims the old records; fetching
    // them must not serve stale cached payloads silently — the stale
    // entries get dropped, and the re-extraction of now-missing ranges
    // errors (or yields fewer rows), never panics.
    let result =
        wh.query("SELECT COUNT(D.sample_value) FROM mseed.dataview WHERE F.station = 'HGN'");
    // A clean error is equally acceptable here; only a silent stale serve
    // would be a bug.
    if let Ok(out) = result {
        assert!(out.report.stale_drops > 0 || out.report.cache_hits == 0);
    }
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&tmp).ok();
}

/// Bump a file's mtime by rewriting it (coarse but portable).
fn filetime_touch(path: &std::path::Path) {
    let bytes = std::fs::read(path).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn reopen_under_drift_invalidates_exactly_the_changed_records() {
    use lazyetl::core::save_warehouse;
    use lazyetl::repo::{updates, Repository};

    let repo = figure1_repo("drift_exact", 4096);
    let saved = repo.root.join("_saved");
    let q_hgn = "SELECT COUNT(D.sample_value) FROM mseed.dataview \
                 WHERE F.station = 'HGN' AND F.channel = 'BHZ'";
    let q_wit = "SELECT COUNT(D.sample_value) FROM mseed.dataview \
                 WHERE F.station = 'WIT' AND F.channel = 'BHZ'";
    {
        let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
        wh.query(q_hgn).unwrap();
        wh.query(q_wit).unwrap();
        save_warehouse(&wh, &saved).unwrap();
    }
    // Drift: append to every HGN/BHZ file; WIT is untouched.
    let mut r = Repository::open(&repo.root).unwrap();
    let targets: Vec<String> = r
        .files()
        .iter()
        .filter(|f| f.uri.contains("HGN") && f.uri.contains("BHZ"))
        .map(|f| f.uri.clone())
        .collect();
    let mut added = 0usize;
    for (i, uri) in targets.iter().enumerate() {
        added += updates::append_records(&mut r, uri, 10, 100 + i as u64).unwrap();
    }

    let re = Warehouse::open_saved(&repo.root, &saved, no_refresh()).unwrap();
    // Untouched station: answered entirely from rehydrated segments.
    let wit = re.query(q_wit).unwrap();
    assert_eq!(
        wit.report.records_extracted, 0,
        "unchanged file stays cached"
    );
    assert!(wit.report.cache_hits > 0);
    // Drifted station: its cached entries were invalidated, so the query
    // re-extracts — and sees the appended data.
    let hgn = re.query(q_hgn).unwrap();
    assert!(hgn.report.records_extracted > 0, "changed file re-extracts");
    let base: u64 = repo
        .generated
        .files
        .iter()
        .filter(|f| f.source.station == "HGN" && f.source.channel == "BHZ")
        .map(|f| f.num_samples as u64)
        .sum();
    assert_eq!(
        hgn.table.row(0).unwrap()[0].as_i64().unwrap() as u64,
        base + added as u64,
        "reopened warehouse sees the drifted content, not the stale cache"
    );
}

#[test]
fn concurrent_queries_during_save_serialize_correctly() {
    use lazyetl::core::save_warehouse;

    let repo = figure1_repo("save_concurrent", 4096);
    let saved = repo.root.join("_saved");
    let wh = Warehouse::open_lazy(&repo.root, no_refresh()).unwrap();
    let expected = wh.query(FIGURE1_Q2).unwrap().table;

    // Hammer the warehouse from several threads while two saves run.
    let reports = std::thread::scope(|s| {
        for _ in 0..3 {
            let wh = &wh;
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..8 {
                    let out = wh.query(FIGURE1_Q2).unwrap();
                    assert_eq!(&out.table, expected, "queries unaffected by save");
                }
            });
        }
        let r1 = save_warehouse(&wh, &saved).unwrap();
        let r2 = save_warehouse(&wh, &saved).unwrap();
        (r1, r2)
    });
    assert_eq!(reports.0.epoch, 1);
    assert_eq!(reports.1.epoch, 2);

    // The final snapshot is committed, complete and warm.
    let re = Warehouse::open_saved(&repo.root, &saved, no_refresh()).unwrap();
    let out = re.query(FIGURE1_Q2).unwrap();
    assert_eq!(out.table, expected);
    assert_eq!(
        out.report.records_extracted, 0,
        "cache survived the restart"
    );
}
