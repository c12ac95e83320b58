//! Shared helpers for integration tests: generated repositories with known
//! ground truth, and the paper's Figure-1 queries verbatim.
#![allow(dead_code, unused_imports)] // each integration test uses a different subset

use lazyetl::mseed::gen::{generate_repository, GeneratedRepository, GeneratorConfig};
use lazyetl::mseed::Timestamp;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

// The paper's Figure-1 queries, from their single source of truth.
pub use lazyetl::core::{FIGURE1_Q1, FIGURE1_Q2};

/// A generated repository rooted in a fresh temp directory; removed on
/// drop.
pub struct TestRepo {
    /// Root directory.
    pub root: PathBuf,
    /// Ground truth from the generator.
    pub generated: GeneratedRepository,
    /// The generator configuration used.
    pub config: GeneratorConfig,
}

impl Drop for TestRepo {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Build a repository whose streams cover both Figure-1 queries.
///
/// Uses the four NL stations (query 2 groups them) plus KO.ISK (query 1
/// averages its BHE channel), covering 22:10–22:20 on 2010-01-12 so the Q1
/// window (22:15:00–22:15:02) falls inside the second file of each stream.
/// Kept small enough that even full-repository extractions run quickly in
/// debug builds.
pub fn figure1_repo(tag: &str, record_length: usize) -> TestRepo {
    let inv = lazyetl::mseed::inventory::default_inventory();
    let stations: Vec<_> = inv
        .iter()
        .filter(|s| s.network == "NL" || s.station == "ISK")
        .cloned()
        .collect();
    assert_eq!(stations.len(), 5, "4 NL stations + ISK");
    let config = GeneratorConfig {
        stations,
        channels: vec!["BHZ".into(), "BHE".into()],
        start: Timestamp::from_ymd_hms(2010, 1, 12, 22, 10, 0, 0),
        file_duration_secs: 300,
        files_per_stream: 2,
        record_length,
        events_per_file: 0.3,
        seed: 0xF1_60_12,
        ..Default::default()
    };
    build(tag, config)
}

/// Build a repository from an explicit configuration.
pub fn build(tag: &str, config: GeneratorConfig) -> TestRepo {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("lazyetl_it_{tag}_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let generated = generate_repository(&root, &config).expect("generation succeeds");
    TestRepo {
        root,
        generated,
        config,
    }
}
