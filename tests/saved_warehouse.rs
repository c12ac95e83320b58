//! Saved-warehouse lifecycle: persist, reopen without re-ETL, reconcile
//! repository drift — and, with the v2 durable format, reopen *warm*:
//! the record cache itself survives the restart as per-shard segments.

mod common;

use common::{figure1_repo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::core::{read_manifest, replay_journal, save_warehouse, stray_files, Mode};
use lazyetl::repo::{updates, Repository};
use lazyetl::{EtlOp, Warehouse, WarehouseConfig};

fn cfg() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

#[test]
fn lazy_save_reopen_identical_answers() {
    let repo = figure1_repo("saved_lazy", 512);
    let saved = repo.root.join("_saved");
    let expected = {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        let out = wh.query(FIGURE1_Q2).unwrap();
        save_warehouse(&wh, &saved).unwrap();
        out.table
    };
    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    assert_eq!(re.mode(), Mode::Lazy);
    assert_eq!(re.load_report().files, repo.generated.files.len());
    // Bootstrap read zero repository bytes for unchanged files.
    assert_eq!(re.load_report().bytes_read, 0);
    let out = re.query(FIGURE1_Q2).unwrap();
    assert_eq!(out.table, expected);
}

#[test]
fn eager_save_reopen_skips_extraction() {
    let repo = figure1_repo("saved_eager", 4096);
    let saved = repo.root.join("_saved");
    let samples = {
        let wh = Warehouse::open_eager(&repo.root, cfg()).unwrap();
        let r = save_warehouse(&wh, &saved).unwrap();
        assert_eq!(r.tables.len(), 3);
        wh.load_report().samples_loaded
    };
    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    assert_eq!(re.mode(), Mode::Eager);
    assert_eq!(re.load_report().samples_loaded, samples);
    // No extraction happened during reopen: the ETL log records only the
    // bootstrap note.
    assert_eq!(
        re.etl_log()
            .count_matching(|op| matches!(op, lazyetl::EtlOp::Extract { .. })),
        0
    );
    let out = re.query(FIGURE1_Q2).unwrap();
    assert_eq!(out.table.num_rows(), 4);
}

#[test]
fn reopen_reconciles_drift() {
    let repo = figure1_repo("saved_drift", 512);
    let saved = repo.root.join("_saved");
    {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        save_warehouse(&wh, &saved).unwrap();
    }
    // Drift: append to one file and add a brand-new one.
    let mut r = Repository::open(&repo.root).unwrap();
    let target = r
        .files()
        .iter()
        .find(|f| f.uri.contains("HGN") && f.uri.contains("BHZ"))
        .unwrap()
        .uri
        .clone();
    let added_samples = updates::append_records(&mut r, &target, 30, 5).unwrap();
    let src = lazyetl::mseed::record::SourceId::new("NL", "HGN", "", "BHZ").unwrap();
    updates::add_file(
        &mut r,
        &src,
        lazyetl::mseed::Timestamp::from_ymd_hms(2010, 1, 13, 0, 0, 0, 0),
        60,
        9,
    )
    .unwrap();

    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    let out = re
        .query("SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'HGN' AND F.channel = 'BHZ'")
        .unwrap();
    let counted = out.table.row(0).unwrap()[0].as_i64().unwrap() as u64;
    let base: u64 = repo
        .generated
        .files
        .iter()
        .filter(|f| f.source.station == "HGN" && f.source.channel == "BHZ")
        .map(|f| f.num_samples as u64)
        .sum();
    assert_eq!(
        counted,
        base + added_samples as u64 + 2400, // 60 s at 40 Hz new file
        "reconciled warehouse sees appended + new data"
    );
}

#[test]
fn reopen_reconciles_removed_files() {
    let repo = figure1_repo("saved_removed", 512);
    let saved = repo.root.join("_saved");
    {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        save_warehouse(&wh, &saved).unwrap();
    }
    // Remove every WTSB file.
    let r = Repository::open(&repo.root).unwrap();
    for f in r.files() {
        if f.uri.contains("WTSB") {
            std::fs::remove_file(&f.path).unwrap();
        }
    }
    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    let out = re
        .query("SELECT COUNT(*) FROM mseed.files WHERE station = 'WTSB'")
        .unwrap();
    assert_eq!(out.table.row(0).unwrap()[0].as_i64().unwrap(), 0);
    // And Figure-1 Q2 now groups only the remaining three NL stations.
    let out = re.query(FIGURE1_Q2).unwrap();
    assert_eq!(out.table.num_rows(), 3);
}

#[test]
fn reopen_seeds_planner_from_snapshot_until_drift() {
    let is_bootstrap_with = |op: &EtlOp, needle: &str| {
        matches!(op, EtlOp::PlanRewrite { stage, detail }
            if stage == "bootstrap" && detail.contains(needle))
    };
    let access_data = |wh: &Warehouse| {
        let stages = wh.query(FIGURE1_Q1).unwrap().report.stages;
        let explain = &stages.iter().find(|(n, _)| n == "explain").unwrap().1;
        let line = explain.lines().find(|l| l.starts_with("access data:"));
        line.unwrap().to_string()
    };
    let repo = figure1_repo("saved_seed", 512);
    let saved = repo.root.join("_saved");
    let saver_access = {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        let line = access_data(&wh);
        save_warehouse(&wh, &saved).unwrap();
        line
    };
    // Undrifted reopen: the persisted stats seed the zone maps, the time
    // index is rebuilt from `R`, and queries answer identically.
    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    assert_eq!(
        re.etl_log()
            .count_matching(|op| is_bootstrap_with(op, "planner seed: persisted stats")),
        1,
        "undrifted reopen seeds the planner from the persisted stats"
    );
    // The rebuilt index seeks exactly like the saver's: same seek clause,
    // same examined, fetched and pruned counts.
    assert!(saver_access.contains("time-index seek"), "{saver_access}");
    assert_eq!(access_data(&re), saver_access);
    let seeded = re.query(FIGURE1_Q2).unwrap().table;

    // Drifted reopen: the persisted numbers describe rows that no longer
    // exist, so the warehouse opens statless — and still answers right.
    let mut r = Repository::open(&repo.root).unwrap();
    let target = r.files()[0].uri.clone();
    updates::append_records(&mut r, &target, 30, 2).unwrap();
    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    assert_eq!(
        re.etl_log()
            .count_matching(|op| is_bootstrap_with(op, "planner seed: skipped")),
        1,
        "drifted reopen falls back to recomputing"
    );
    let statless = re.query(FIGURE1_Q2).unwrap().table;
    assert_eq!(seeded.num_columns(), statless.num_columns());
}

#[test]
fn open_saved_rejects_bad_dir() {
    let repo = figure1_repo("saved_bad", 4096);
    let missing = repo.root.join("_nope");
    assert!(Warehouse::open_saved(&repo.root, &missing, cfg()).is_err());
}

#[test]
fn reopen_restores_warm_cache() {
    let repo = figure1_repo("saved_warm", 4096);
    let saved = repo.root.join("_saved");
    let expected = {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        let cold = wh.query(FIGURE1_Q2).unwrap();
        assert!(cold.report.records_extracted > 0, "cold run extracts");
        let report = save_warehouse(&wh, &saved).unwrap();
        assert!(!report.segments.is_empty(), "warm save persists the cache");
        cold.table
    };
    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    // Reopening attached the segments lazily: nothing was read yet.
    assert!(re.cache_snapshot().stats.segments_loaded == 0);
    let out = re.query(FIGURE1_Q2).unwrap();
    assert_eq!(out.table, expected);
    assert_eq!(
        out.report.records_extracted, 0,
        "reopened warehouse answers from the rehydrated cache"
    );
    assert!(out.report.cache_hits > 0);
    let stats = re.cache_snapshot().stats;
    assert!(stats.segments_loaded > 0, "touched shards hydrated");
    assert_eq!(stats.segments_rejected, 0);
}

#[test]
fn undrifted_reopen_reads_nothing() {
    for eager in [false, true] {
        let repo = figure1_repo(&format!("saved_quiet_{eager}"), 4096);
        let saved = repo.root.join("_saved");
        let wh = if eager {
            Warehouse::open_eager(&repo.root, cfg()).unwrap()
        } else {
            Warehouse::open_lazy(&repo.root, cfg()).unwrap()
        };
        assert!(wh.load_report().bytes_read > 0);
        save_warehouse(&wh, &saved).unwrap();
        let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
        assert_eq!(re.load_report().bytes_read, 0);
        assert_eq!(re.load_report().simulated_io, std::time::Duration::ZERO);
        assert_eq!(re.load_report().records, wh.load_report().records);
        assert_eq!(
            re.etl_log().count_matching(|op| matches!(
                op,
                lazyetl::EtlOp::MetadataLoad { .. }
                    | lazyetl::EtlOp::MetadataRefresh { .. }
                    | lazyetl::EtlOp::Extract { .. }
            )),
            0,
            "an empty difference touches nothing"
        );
        assert!(
            re.etl_log_render()
                .contains("planner seed: persisted stats"),
            "the fast path seeds the planner: {}",
            re.etl_log_render()
        );
    }
}

#[test]
fn save_leaves_a_committed_journal_and_no_debris() {
    let repo = figure1_repo("saved_clean", 4096);
    let saved = repo.root.join("_saved");
    let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
    wh.query(FIGURE1_Q2).unwrap();
    let report = save_warehouse(&wh, &saved).unwrap();
    assert!(
        stray_files(&saved).is_empty(),
        "no tmp/old-epoch files remain"
    );
    let ops = replay_journal(&saved);
    assert!(ops
        .iter()
        .any(|op| matches!(op, EtlOp::SaveCommit { epoch: 1 })));
    assert!(ops
        .iter()
        .any(|op| matches!(op, EtlOp::SaveCleanup { epoch: 1 })));
    // The warehouse's own log carries the same journal entries (the log
    // doubles as the journal).
    assert_eq!(
        wh.etl_log()
            .count_matching(|op| matches!(op, EtlOp::SaveSegment { .. })),
        report.segments.len()
    );
    let manifest = read_manifest(&saved).unwrap();
    assert_eq!(manifest.version, 2);
    assert_eq!(manifest.shards, wh.config().cache_shards);
    assert_eq!(manifest.tables.len(), 2);
}

#[test]
fn reopen_with_different_shard_count_still_warm() {
    let repo = figure1_repo("saved_reshard", 4096);
    let saved = repo.root.join("_saved");
    let expected = {
        let wh = Warehouse::open_lazy(
            &repo.root,
            WarehouseConfig {
                cache_shards: 8,
                ..cfg()
            },
        )
        .unwrap();
        let out = wh.query(FIGURE1_Q2).unwrap();
        save_warehouse(&wh, &saved).unwrap();
        out.table
    };
    // 8 shards saved, 3 opened: segments fold in eagerly but completely.
    let re = Warehouse::open_saved(
        &repo.root,
        &saved,
        WarehouseConfig {
            cache_shards: 3,
            ..cfg()
        },
    )
    .unwrap();
    let out = re.query(FIGURE1_Q2).unwrap();
    assert_eq!(out.table, expected);
    assert_eq!(out.report.records_extracted, 0);
    assert!(out.report.cache_hits > 0);
}

#[test]
fn federated_save_reopen_warm_across_mounts() {
    use lazyetl::mseed::gen::{GeneratorConfig, RepoFormat};
    use lazyetl::repo::{CsvSource, RemoteSource};
    use lazyetl::WarehouseBuilder;

    // Two disjoint slices: NL as a local mSEED archive, GR as a CSV drop,
    // KO behind the simulated-remote backend.
    let inv = lazyetl::mseed::inventory::default_inventory();
    let slice = |network: &str, format: RepoFormat| GeneratorConfig {
        stations: inv
            .iter()
            .filter(|s| s.network == network)
            .cloned()
            .collect(),
        channels: vec!["BHZ".into()],
        start: lazyetl::mseed::Timestamp::from_ymd_hms(2010, 1, 12, 22, 10, 0, 0),
        file_duration_secs: 120,
        files_per_stream: 2,
        format,
        seed: 0x5A7ED,
        ..Default::default()
    };
    let nl = common::build("fedsave_nl", slice("NL", RepoFormat::MseedOnly));
    let gr = common::build("fedsave_gr", slice("GR", RepoFormat::CsvOnly));
    let ko = common::build("fedsave_ko", slice("KO", RepoFormat::MseedOnly));
    let saved = nl.root.join("_saved");
    let sql = "SELECT F.station, COUNT(*), MIN(D.sample_value) FROM mseed.dataview \
               WHERE F.channel = 'BHZ' GROUP BY F.station ORDER BY F.station";
    let builder = || {
        WarehouseBuilder::new()
            .config(cfg())
            .source("archive", Box::new(Repository::open(&nl.root).unwrap()))
            .source("surveys", Box::new(CsvSource::open(&gr.root).unwrap()))
            .source("orfeus", Box::new(RemoteSource::open(&ko.root).unwrap()))
    };

    let expected = {
        let wh = builder().open().unwrap();
        let cold = wh.query(sql).unwrap();
        assert!(cold.report.records_extracted > 0);
        // The process "crashes" after the save commits: nothing else is
        // flushed, the warehouse is simply dropped.
        let report = save_warehouse(&wh, &saved).unwrap();
        assert!(!report.segments.is_empty(), "cache segments persisted");
        cold.table
    };

    let re = builder().open_saved(&saved).unwrap();
    assert_eq!(re.mode(), Mode::Lazy);
    assert_eq!(
        re.load_report().bytes_read,
        0,
        "bootstrap read no source bytes for unchanged mounts"
    );
    let out = re.query(sql).unwrap();
    assert_eq!(out.table, expected, "federated answers survive the restart");
    assert_eq!(
        out.report.records_extracted, 0,
        "every mount answers from the rehydrated cache"
    );
    assert!(out.report.cache_hits > 0);
    // Per-source accounting starts clean and stays clean: no mount
    // re-extracted anything after the reopen.
    for s in &re.stats_snapshot().sources {
        assert_eq!(s.records_extracted, 0, "{}: re-extracted", s.name);
    }
}

#[test]
fn snapshot_with_a_saved_time_index_still_opens() {
    use lazyetl::store::persist::{
        embedded_footer_checksum, table_to_footered_bytes, write_file_atomic,
    };
    let repo = figure1_repo("saved_legacy_index", 4096);
    let saved = repo.root.join("_saved");
    // The layout earlier saves wrote: a `timeindex.e1.lztb` section (R's
    // time ranges sorted by start) and an `index` manifest line naming it.
    let expected = {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        let out = wh.query(FIGURE1_Q2).unwrap();
        save_warehouse(&wh, &saved).unwrap();
        let index = wh
            .query(
                "SELECT file_id, seq_no, start_time, end_time FROM mseed.records \
                 ORDER BY start_time, file_id, seq_no",
            )
            .unwrap()
            .table;
        let buf = table_to_footered_bytes(&index).unwrap();
        let checksum = embedded_footer_checksum(&buf).unwrap();
        std::fs::write(saved.join("timeindex.e1.lztb"), &buf).unwrap();
        let manifest = std::fs::read_to_string(saved.join("MANIFEST")).unwrap();
        let mut legacy = String::new();
        for line in manifest.lines() {
            legacy.push_str(line);
            legacy.push('\n');
            if line.starts_with("stats ") {
                let index_line = format!("index {} {checksum:x} timeindex.e1.lztb\n", buf.len());
                legacy.push_str(&index_line);
            }
        }
        assert!(legacy.contains("\nindex "), "{legacy}");
        write_file_atomic(&saved.join("MANIFEST"), legacy.as_bytes()).unwrap();
        out.table
    };

    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    assert_eq!(re.query(FIGURE1_Q2).unwrap().table, expected);

    // The next save does not carry the section forward, and once its
    // epoch is superseded the reopen's recovery sweeps the old file.
    save_warehouse(&re, &saved).unwrap();
    drop(re);
    let again = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    assert!(!saved.join("timeindex.e1.lztb").exists());
    assert!(!saved.join("timeindex.e2.lztb").exists());
    assert!(stray_files(&saved).is_empty(), "{:?}", stray_files(&saved));
    assert_eq!(again.query(FIGURE1_Q2).unwrap().table, expected);
}

#[test]
fn damaged_stats_section_is_reported_and_ignored() {
    let repo = figure1_repo("saved_bad_stats", 4096);
    let saved = repo.root.join("_saved");
    let expected = {
        let wh = Warehouse::open_lazy(&repo.root, cfg()).unwrap();
        let out = wh.query(FIGURE1_Q2).unwrap();
        save_warehouse(&wh, &saved).unwrap();
        out.table
    };
    let stats = saved.join("stats.e1.lzst");
    let mut bytes = std::fs::read(&stats).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&stats, &bytes).unwrap();

    let re = Warehouse::open_saved(&repo.root, &saved, cfg()).unwrap();
    let log = re.etl_log_render();
    assert!(log.contains("planner seed: stats rejected ("), "{log}");
    assert_eq!(re.query(FIGURE1_Q2).unwrap().table, expected);
}
