//! Event-gated auto-refresh: a query against a quiet repository answers
//! its refresh probe from the repository's change events instead of a
//! directory walk, and every kind of change still reaches the next query.

mod common;

use common::{figure1_repo, FIGURE1_Q2};
use lazyetl::mseed::record::SourceId;
use lazyetl::mseed::Timestamp;
use lazyetl::repo::{updates, Repository};
use lazyetl::store::Table;
use lazyetl::{Mode, Warehouse, WarehouseBuilder, WarehouseConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const COUNT_FILES: &str = "SELECT COUNT(*) FROM mseed.files";

/// What a change may move: the file registry, the record metadata, and
/// the samples of every stream (which extracts, and so caches, them all).
const ANSWERS: [&str; 4] = [
    "SELECT uri, size, mtime, station, num_records, num_samples FROM mseed.files",
    "SELECT COUNT(*) FROM mseed.records",
    "SELECT F.station, F.channel, COUNT(*), SUM(D.sample_value) FROM mseed.dataview \
     GROUP BY F.station, F.channel",
    FIGURE1_Q2,
];

fn open(root: &Path, mode: Mode, auto_refresh: bool) -> Warehouse {
    WarehouseBuilder::new()
        .config(WarehouseConfig {
            auto_refresh,
            ..Default::default()
        })
        .mode(mode)
        .local_dir("repo", root)
        .unwrap()
        .open()
        .unwrap()
}

/// Result rows in a canonical order: file ids differ between a refreshed
/// and a freshly opened warehouse.
fn sorted_rows(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|i| format!("{:?}", t.row(i).unwrap()))
        .collect();
    rows.sort();
    rows
}

fn answers(wh: &Warehouse) -> Vec<Vec<String>> {
    ANSWERS
        .iter()
        .map(|sql| sorted_rows(&wh.query(sql).unwrap().table))
        .collect()
}

fn count_files(wh: &Warehouse) -> i64 {
    let out = wh.query(COUNT_FILES).unwrap();
    out.table.row(0).unwrap()[0].as_i64().unwrap()
}

/// The mount's `(walks, quiet_probes)`.
fn io(wh: &Warehouse) -> (u64, u64) {
    let s = &wh.stats_snapshot().sources[0];
    (s.walks, s.quiet_probes)
}

fn hgn_bhz() -> SourceId {
    SourceId::new("NL", "HGN", "", "BHZ").unwrap()
}

/// 2010-01-13 00:`minute`:00, after the generated data.
fn landing_time(minute: u32) -> Timestamp {
    Timestamp::from_ymd_hms(2010, 1, 13, 0, minute, 0, 0)
}

/// An empty directory beside the test repositories, removed on drop.
struct Outside(PathBuf);

impl Outside {
    fn new(tag: &str) -> Outside {
        let dir =
            std::env::temp_dir().join(format!("lazyetl_it_outside_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Outside(dir)
    }
}

impl Drop for Outside {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn every_change_kind_reaches_the_next_query() {
    for mode in [Mode::Lazy, Mode::Eager] {
        let repo = figure1_repo(&format!("events_kinds_{mode:?}"), 512);
        let wh = open(&repo.root, mode, true);
        answers(&wh);
        let check = |what: &str| {
            let fresh = open(&repo.root, mode, false);
            assert_eq!(answers(&wh), answers(&fresh), "{mode:?}: after {what}");
        };
        // Another process's view of the tree: changes go through it.
        let mut handle = Repository::open(&repo.root).unwrap();
        let uris: Vec<String> = handle.files().iter().map(|e| e.uri.clone()).collect();

        updates::add_file(&mut handle, &hgn_bhz(), landing_time(0), 30, 1).unwrap();
        check("a landed file");
        let new_station = SourceId::new("XX", "NEWST", "", "BHZ").unwrap();
        updates::add_file(&mut handle, &new_station, landing_time(1), 30, 2).unwrap();
        check("a file in a new station directory");
        updates::append_records(&mut handle, &uris[0], 20, 3).unwrap();
        check("an append to a cached file");
        updates::touch(&mut handle, &uris[1]).unwrap();
        check("a touch");
        std::fs::remove_file(repo.root.join(&uris[2])).unwrap();
        check("a removal");
        let renamed = repo.root.join(&uris[3]).with_file_name("renamed.mseed");
        std::fs::rename(repo.root.join(&uris[3]), renamed).unwrap();
        check("a rename");

        // A foreign file is a false positive: one walk that finds
        // nothing, then the watch is quiet again.
        let before = io(&wh);
        let station_dir = repo.root.join(&uris[0]);
        let station_dir = station_dir.parent().unwrap();
        std::fs::write(station_dir.join("notes.txt"), "not a waveform").unwrap();
        check("a foreign file");
        if cfg!(target_os = "linux") {
            let (walks, quiet) = io(&wh);
            assert_eq!(
                walks - before.0,
                1,
                "{mode:?}: one walk for the foreign file"
            );
            assert_eq!(quiet - before.1, ANSWERS.len() as u64 - 1);
            wh.query(COUNT_FILES).unwrap();
            assert_eq!(io(&wh), (walks, quiet + 1), "{mode:?}: quiet again");
        }
    }
}

#[cfg(target_os = "linux")]
#[test]
fn quiet_queries_walk_nothing_and_a_landed_file_costs_one_refresh() {
    let repo = figure1_repo("events_counts", 512);
    let wh = open(&repo.root, Mode::Lazy, true);
    let (walks, quiet) = io(&wh);
    assert_eq!(walks, 1, "the open walks once");
    for _ in 0..10 {
        wh.query(COUNT_FILES).unwrap();
    }
    assert_eq!(io(&wh), (walks, quiet + 10), "ten quiet probes, no walk");

    // An explicit refresh walks, whatever the events say.
    assert!(wh.refresh().unwrap().is_noop());
    assert_eq!(io(&wh), (walks + 1, quiet + 10));

    let mut handle = Repository::open(&repo.root).unwrap();
    updates::add_file(&mut handle, &hgn_bhz(), landing_time(0), 10, 5).unwrap();
    let out = wh.query(COUNT_FILES).unwrap();
    assert_eq!(out.report.refresh.map(|r| r.added), Some(1));
    // The refresh's read-locked probe and the walk its fold commits.
    assert_eq!(io(&wh), (walks + 3, quiet + 10));
    assert_eq!(count_files(&wh), repo.generated.files.len() as i64 + 1);
    assert_eq!(
        io(&wh),
        (walks + 3, quiet + 11),
        "the fold quieted the watch"
    );
}

#[test]
fn a_query_never_misses_a_file_landed_before_it_was_issued() {
    const LANDED: usize = 12;
    let repo = figure1_repo("events_race", 512);
    let wh = open(&repo.root, Mode::Lazy, true);
    let base = count_files(&wh);
    let landed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut handle = Repository::open(&repo.root).unwrap();
            for i in 0..LANDED {
                let start = landing_time(i as u32);
                updates::add_file(&mut handle, &hgn_bhz(), start, 5, i as u64).unwrap();
                landed.fetch_add(1, Ordering::SeqCst);
            }
        });
        for _ in 0..4 {
            s.spawn(|| loop {
                let done = landed.load(Ordering::SeqCst);
                let got = count_files(&wh);
                assert!(
                    got >= base + done as i64,
                    "{got} files after {done} of {LANDED} landed"
                );
                if done == LANDED {
                    break;
                }
            });
        }
    });
    assert_eq!(count_files(&wh), base + LANDED as i64);
}

/// A tree the watch cannot vouch for: every query walks, and a change
/// made through the other name is still seen.
fn assert_every_query_walks(wh: &Warehouse) {
    for _ in 0..3 {
        let (walks, quiet) = io(wh);
        wh.query(COUNT_FILES).unwrap();
        assert_eq!(io(wh), (walks + 1, quiet));
    }
}

#[cfg(unix)]
#[test]
fn a_symlinked_directory_disarms_the_watch() {
    let repo = figure1_repo("events_symlink", 512);
    let outside = Outside::new("symlink");
    let mut beyond = Repository::open(&outside.0).unwrap();
    updates::add_file(&mut beyond, &hgn_bhz(), landing_time(0), 10, 1).unwrap();
    std::os::unix::fs::symlink(&outside.0, repo.root.join("EXT")).unwrap();

    let wh = open(&repo.root, Mode::Lazy, true);
    let files = repo.generated.files.len() as i64;
    assert_eq!(count_files(&wh), files + 1);
    assert_every_query_walks(&wh);
    updates::add_file(&mut beyond, &hgn_bhz(), landing_time(1), 10, 2).unwrap();
    assert_eq!(count_files(&wh), files + 2, "a file landed behind the link");
}

#[test]
fn a_hard_linked_file_disarms_the_watch() {
    let repo = figure1_repo("events_hardlink", 512);
    let outside = Outside::new("hardlink");
    std::fs::hard_link(&repo.generated.files[0].path, outside.0.join("twin.mseed")).unwrap();

    let wh = open(&repo.root, Mode::Lazy, true);
    let records = |wh: &Warehouse| answers(wh)[1].clone();
    let before = records(&wh);
    assert_every_query_walks(&wh);
    let mut twin = Repository::open(&outside.0).unwrap();
    updates::append_records(&mut twin, "twin.mseed", 20, 3).unwrap();
    assert_ne!(records(&wh), before, "an append through the other name");
    let fresh = open(&repo.root, Mode::Lazy, false);
    assert_eq!(answers(&wh), answers(&fresh));
}

#[test]
fn many_warehouses_open_and_drop_past_the_instance_limit() {
    let repo = figure1_repo("events_many", 512);
    let files = repo.generated.files.len() as i64;
    for i in 0..200 {
        let wh = open(&repo.root, Mode::Lazy, true);
        assert_eq!(count_files(&wh), files, "warehouse {i}");
    }
    // The instances were closed, not leaked: a new one still arms.
    let wh = open(&repo.root, Mode::Lazy, true);
    assert_eq!(count_files(&wh), files);
    if cfg!(target_os = "linux") {
        assert_eq!(io(&wh), (1, 1), "the probe after open was quiet");
    }
}
