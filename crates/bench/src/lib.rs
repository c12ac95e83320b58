//! Shared infrastructure for the experiment harness.
//!
//! Every experiment in ARCHITECTURE.md’s inventory runs against repositories built
//! here. Generation is deterministic, so repositories are cached on disk
//! (keyed by their parameters) and reused across bench invocations.

#![warn(missing_docs)]

pub mod concurrent;
pub mod federated;
pub mod fresh;
pub mod kernels;
pub mod planner;
pub mod served;
pub mod warm_restart;

use lazyetl_mseed::gen::{generate_repository, GeneratorConfig};
use lazyetl_mseed::inventory::default_inventory;
use lazyetl_mseed::Timestamp;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// The Figure-1 mix, re-exported from its single source of truth in
// `lazyetl-core` (the serving CLI and the tests use the same constants).
pub use lazyetl_core::{FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY};

/// Named experiment scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleName {
    /// 10 files — smoke-test sized.
    Tiny,
    /// 40 files.
    Small,
    /// 96 files.
    Medium,
    /// 240 files.
    Large,
}

impl ScaleName {
    /// Parse from a CLI token.
    pub fn parse(s: &str) -> Option<ScaleName> {
        match s {
            "tiny" => Some(ScaleName::Tiny),
            "small" => Some(ScaleName::Small),
            "medium" => Some(ScaleName::Medium),
            "large" => Some(ScaleName::Large),
            _ => None,
        }
    }

    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            ScaleName::Tiny => "tiny",
            ScaleName::Small => "small",
            ScaleName::Medium => "medium",
            ScaleName::Large => "large",
        }
    }
}

/// Generator configuration for a named scale.
///
/// All scales cover 2010-01-12 starting 22:00 so the Figure-1 queries are
/// answerable; stations always include the four NL stations and KO.ISK.
pub fn scale_config(scale: ScaleName) -> GeneratorConfig {
    let inv = default_inventory();
    let (stations, channels, files_per_stream, file_secs): (Vec<_>, Vec<String>, u32, u32) =
        match scale {
            ScaleName::Tiny => (
                inv.iter()
                    .filter(|s| s.network == "NL" || s.station == "ISK")
                    .cloned()
                    .collect(),
                vec!["BHZ".into(), "BHE".into()],
                1,
                600,
            ),
            ScaleName::Small => (
                inv.iter()
                    .filter(|s| s.network == "NL" || s.station == "ISK")
                    .cloned()
                    .collect(),
                vec!["BHZ".into(), "BHE".into()],
                4,
                600,
            ),
            ScaleName::Medium => (inv.clone(), vec!["BHZ".into(), "BHE".into()], 6, 600),
            ScaleName::Large => (
                inv.clone(),
                vec!["BHZ".into(), "BHE".into(), "BHN".into()],
                10,
                600,
            ),
        };
    GeneratorConfig {
        stations,
        channels,
        start: Timestamp::from_ymd_hms(2010, 1, 12, 22, 0, 0, 0),
        file_duration_secs: file_secs,
        files_per_stream,
        record_length: 4096,
        events_per_file: 0.4,
        seed: 0xBE_4C_11 ^ files_per_stream as u64,
        ..Default::default()
    }
}

/// Root directory for cached bench repositories.
fn cache_root() -> PathBuf {
    // target/ lives next to the workspace; keep repos out of src trees.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-repos")
}

/// Materialize (or reuse) the repository for a configuration.
///
/// Generation is deterministic, so a completed directory (signalled by a
/// marker file) is reused as-is. Safe to call from several threads or
/// processes at once: each call generates into a private directory and
/// renames it into place.
pub fn materialize(tag: &str, config: &GeneratorConfig) -> PathBuf {
    let dir = cache_root().join(format!(
        "{tag}_s{}_c{}_f{}_d{}_r{}_x{:x}",
        config.stations.len(),
        config.channels.len(),
        config.files_per_stream,
        config.file_duration_secs,
        config.record_length,
        config.seed
    ));
    build_once(&dir, |tmp| generate_repository(tmp, config).map(drop))
        .expect("bench repo generation");
    dir
}

/// Build `dir` unless it is already complete. `build` fills a private
/// per-call directory, which is then renamed into place with its marker,
/// so `dir` is never seen half-written. A caller that loses the rename to
/// a concurrent one discards its own copy.
pub(crate) fn build_once<E: From<std::io::Error>>(
    dir: &Path,
    build: impl FnOnce(&Path) -> Result<(), E>,
) -> Result<(), E> {
    let marker = dir.join(".complete");
    if marker.exists() {
        return Ok(());
    }
    let name = dir.file_name().expect("cache dirs are named");
    let tmp = dir.with_file_name(format!(".{}.{}", name.to_string_lossy(), unique_suffix()));
    std::fs::create_dir_all(&tmp)?;
    build(&tmp)?;
    std::fs::write(tmp.join(".complete"), b"ok")?;
    if std::fs::rename(&tmp, dir).is_err() {
        if !marker.exists() {
            // A tree without a marker predates this scheme (an interrupted
            // in-place build): replace it.
            std::fs::remove_dir_all(dir).ok();
            std::fs::rename(&tmp, dir)?;
            return Ok(());
        }
        std::fs::remove_dir_all(&tmp)?;
    }
    Ok(())
}

/// A name part no other call, in this process or another, has used.
fn unique_suffix() -> String {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    )
}

/// Materialize the repository for a named scale.
pub fn scale_repo(scale: ScaleName) -> PathBuf {
    materialize(scale.label(), &scale_config(scale))
}

/// A fresh throwaway copy of a cached repository (for update experiments
/// that mutate files), named per call.
pub fn mutable_copy(src: &Path, tag: &str) -> PathBuf {
    let dst = cache_root().join(format!("mut_{tag}_{}", unique_suffix()));
    copy_dir(src, &dst).expect("copy repo");
    std::fs::remove_file(dst.join(".complete")).ok();
    dst
}

pub(crate) fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_dir(&from, &to)?;
        } else {
            std::fs::copy(&from, &to)?;
        }
    }
    Ok(())
}

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Format a duration compactly for result tables.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// Format a byte count compactly.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Print an aligned markdown-ish table (experiment harness output).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: Vec<String> = header
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("| {} |", line.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Queries touching a controlled fraction of NL/ISK stations, used by the
/// selectivity sweep (E4). `k` of the five stations are referenced.
pub fn selectivity_query(k: usize) -> String {
    let stations = ["HGN", "WIT", "OPLO", "WTSB", "ISK"];
    let k = k.clamp(1, stations.len());
    let list: Vec<String> = stations[..k].iter().map(|s| format!("'{s}'")).collect();
    format!(
        "SELECT COUNT(*), AVG(D.sample_value) FROM mseed.dataview \
         WHERE F.station IN ({}) AND F.channel = 'BHZ'",
        list.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_build_configs() {
        for name in ["tiny", "small", "medium", "large"] {
            let s = ScaleName::parse(name).unwrap();
            assert_eq!(s.label(), name);
            let cfg = scale_config(s);
            assert!(cfg.total_files() > 0);
        }
        assert!(ScaleName::parse("gigantic").is_none());
    }

    #[test]
    fn materialize_is_idempotent() {
        let cfg = GeneratorConfig {
            stations: default_inventory()[..1].to_vec(),
            channels: vec!["BHZ".into()],
            files_per_stream: 1,
            file_duration_secs: 10,
            ..Default::default()
        };
        let d1 = materialize("idem_test", &cfg);
        let mtime = std::fs::metadata(d1.join(".complete"))
            .unwrap()
            .modified()
            .unwrap();
        let d2 = materialize("idem_test", &cfg);
        assert_eq!(d1, d2);
        let mtime2 = std::fs::metadata(d2.join(".complete"))
            .unwrap()
            .modified()
            .unwrap();
        assert_eq!(mtime, mtime2, "second call reuses the cache");
    }

    #[test]
    fn concurrent_materialize_calls_all_see_the_complete_tree() {
        let cfg = GeneratorConfig {
            stations: default_inventory()[..2].to_vec(),
            channels: vec!["BHZ".into()],
            files_per_stream: 2,
            file_duration_secs: 10,
            seed: 0x4ACE,
            ..Default::default()
        };
        let probe = materialize("race_probe", &cfg);
        let want = sorted_listing(&probe);
        assert!(want.len() > 1, "{want:?}");
        // A tag no earlier run has used, so all four calls miss the marker.
        let tag = format!("race_{}", unique_suffix());
        let dirs: Vec<PathBuf> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| s.spawn(|| materialize(&tag, &cfg)))
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for dir in &dirs {
            assert_eq!(dir, &dirs[0]);
            assert_eq!(sorted_listing(dir), want, "{}", dir.display());
        }
        std::fs::remove_dir_all(&dirs[0]).unwrap();
        let name = dirs[0].file_name().unwrap().to_string_lossy();
        let leftovers: Vec<_> = std::fs::read_dir(cache_root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(&*name))
            .collect();
        assert!(leftovers.is_empty(), "losers discard their copies");
    }

    /// Relative paths of every file under `dir`, the marker included.
    fn sorted_listing(dir: &Path) -> Vec<PathBuf> {
        fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(root, &path, out);
                } else {
                    out.push(path.strip_prefix(root).unwrap().to_path_buf());
                }
            }
        }
        let mut out = Vec::new();
        walk(dir, dir, &mut out);
        out.sort();
        out
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_dur(Duration::from_micros(42)), "42us");
        assert_eq!(fmt_dur(Duration::from_millis(42)), "42.0ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_bytes(10), "10B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn selectivity_queries_reference_k_stations() {
        let q1 = selectivity_query(1);
        assert!(q1.contains("'HGN'"));
        assert!(!q1.contains("'ISK'"));
        let q5 = selectivity_query(5);
        assert!(q5.contains("'ISK'"));
        // Clamped.
        assert_eq!(selectivity_query(99), selectivity_query(5));
    }
}
