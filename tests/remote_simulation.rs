//! Simulated remote (FTP-like) access accounting: the paper's repositories
//! live behind WAN links where transferred bytes dominate. The warehouse
//! accounts a modeled transfer cost for every repository read so
//! experiments can report the remote regime without sleeping.

mod common;

use common::{figure1_repo, FIGURE1_Q1};
use lazyetl::repo::{AccessProfile, Repository};
use lazyetl::{Mode, Warehouse, WarehouseBuilder, WarehouseConfig};
use std::path::Path;
use std::time::Duration;

/// `root` as the one mount of a `mode` warehouse, its reads costed under
/// `access`.
fn open_over(root: &Path, mode: Mode, access: AccessProfile) -> Warehouse {
    let mut repo = Repository::open(root).unwrap();
    repo.access = access;
    WarehouseBuilder::new()
        .config(WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        })
        .mode(mode)
        .source("repo", Box::new(repo))
        .open()
        .unwrap()
}

#[test]
fn lazy_load_models_far_less_transfer_time() {
    let repo = figure1_repo("wan_load", 4096);
    // Bandwidth-dominated regime (no RTT): the byte asymmetry shows
    // directly — lazy reads headers, eager reads everything.
    let slow_link = AccessProfile {
        per_request: Duration::ZERO,
        bytes_per_sec: 1 << 20, // 1 MiB/s
    };
    let lazy = open_over(&repo.root, Mode::Lazy, slow_link);
    let eager = open_over(&repo.root, Mode::Eager, slow_link);
    let l = lazy.load_report().simulated_io;
    let e = eager.load_report().simulated_io;
    assert!(l > Duration::ZERO);
    assert!(
        e > l * 10,
        "bandwidth-bound: eager models {e:?}, lazy {l:?}"
    );

    // RTT-dominated regime (20 ms per request, small files): both pay one
    // round trip per file for metadata, eager pays a second for payloads —
    // the gap narrows to about 2x, which the model reports honestly.
    let wan = AccessProfile::wan();
    let lazy = open_over(&repo.root, Mode::Lazy, wan);
    let eager = open_over(&repo.root, Mode::Eager, wan);
    let l = lazy.load_report().simulated_io;
    let e = eager.load_report().simulated_io;
    assert!(e > l, "RTT-bound: eager {e:?} still exceeds lazy {l:?}");
}

#[test]
fn query_accounts_transfer_only_for_extraction() {
    let repo = figure1_repo("wan_query", 512);
    let wh = open_over(&repo.root, Mode::Lazy, AccessProfile::wan());
    // Metadata-only query: no remote transfer at query time.
    let out = wh.query("SELECT COUNT(*) FROM mseed.records").unwrap();
    assert_eq!(out.report.simulated_io, Duration::ZERO);
    // Data query: transfer cost proportional to bytes of extracted records.
    let out = wh.query(FIGURE1_Q1).unwrap();
    assert!(out.report.bytes_read > 0);
    let expected = AccessProfile::wan().cost(out.report.bytes_read);
    assert!(
        out.report.simulated_io >= expected,
        "{:?} >= {expected:?}",
        out.report.simulated_io
    );
    // Warm re-run: cache serves everything, zero transfer.
    let warm = wh.query(FIGURE1_Q1).unwrap();
    assert_eq!(warm.report.simulated_io, Duration::ZERO);
    assert_eq!(warm.report.bytes_read, 0);
}

#[test]
fn transfer_cost_scales_with_selectivity() {
    let repo = figure1_repo("wan_scale", 512);
    let narrow = open_over(&repo.root, Mode::Lazy, AccessProfile::wan());
    let broad = open_over(&repo.root, Mode::Lazy, AccessProfile::wan());
    let narrow_out = narrow
        .query("SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'")
        .unwrap();
    let broad_out = broad
        .query("SELECT COUNT(*) FROM mseed.dataview WHERE F.network = 'NL'")
        .unwrap();
    assert!(
        broad_out.report.simulated_io > narrow_out.report.simulated_io * 2,
        "broad {:?} vs narrow {:?}",
        broad_out.report.simulated_io,
        narrow_out.report.simulated_io
    );
}
