//! The repositories the workloads run against.
//!
//! The generator configurations are those of `ScaleName::{Small, Medium,
//! Large}` in `crates/bench`, copied so that this package does not depend
//! on a crate the roadmap rewrites. Content is fixed per scale — `--seed`
//! picks the operations, not the data — so two runs differ only in what
//! they ask, and a repository costs the same to query on every seed.

use lazyetl_mseed::gen::{generate_repository, GeneratedRepository, GeneratorConfig};
use lazyetl_mseed::inventory::{default_inventory, Station};
use lazyetl_mseed::Timestamp;
use std::path::Path;

/// Seconds of waveform per generated file.
pub const FILE_SECS: u32 = 600;

/// A named repository size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 40 files: the four NL stations and KO.ISK, BHZ + BHE, 4 files each.
    Small,
    /// 96 files: all 8 stations, BHZ + BHE, 6 files each — 2.6 MiB of
    /// Steim-2, 2.3 M samples, 74 MB decoded.
    Medium,
    /// 240 files: all 8 stations, BHZ + BHE + BHN, 10 files each —
    /// 6.6 MiB, 5.76 M samples, 184 MB decoded.
    Large,
}

impl Scale {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    fn stations(self) -> Vec<Station> {
        let inv = default_inventory();
        match self {
            Scale::Small => inv
                .into_iter()
                .filter(|s| s.network == "NL" || s.station == "ISK")
                .collect(),
            Scale::Medium | Scale::Large => inv,
        }
    }

    fn channels(self) -> &'static [&'static str] {
        match self {
            Scale::Small | Scale::Medium => &["BHZ", "BHE"],
            Scale::Large => &["BHZ", "BHE", "BHN"],
        }
    }

    /// Consecutive files per stream.
    pub fn files_per_stream(self) -> u32 {
        match self {
            Scale::Small => 4,
            Scale::Medium => 6,
            Scale::Large => 10,
        }
    }

    /// Station codes, in generation order.
    pub fn station_codes(self) -> Vec<String> {
        self.stations().into_iter().map(|s| s.station).collect()
    }

    /// Every `(station, channel)` stream, in generation order.
    pub fn streams(self) -> Vec<(String, &'static str)> {
        let mut out = Vec::new();
        for st in self.stations() {
            for ch in self.channels() {
                out.push((st.station.clone(), *ch));
            }
        }
        out
    }

    /// First sample time of every stream.
    pub fn start(self) -> Timestamp {
        Timestamp::from_ymd_hms(2010, 1, 12, 22, 0, 0, 0)
    }

    /// Seconds of waveform each stream covers.
    pub fn coverage_secs(self) -> u32 {
        self.files_per_stream() * FILE_SECS
    }

    /// The generator configuration of this scale.
    pub fn generator_config(self) -> GeneratorConfig {
        GeneratorConfig {
            stations: self.stations(),
            channels: self.channels().iter().map(|c| c.to_string()).collect(),
            start: self.start(),
            file_duration_secs: FILE_SECS,
            files_per_stream: self.files_per_stream(),
            record_length: 4096,
            events_per_file: 0.4,
            seed: 0xBE_4C_11 ^ self.files_per_stream() as u64,
            ..Default::default()
        }
    }

    /// Write this scale's repository under `dir` (created if missing).
    pub fn materialise(self, dir: &Path) -> Result<GeneratedRepository, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        generate_repository(dir, &self.generator_config())
            .map_err(|e| format!("generate {} repository: {e}", self.label()))
    }
}

/// Copy a repository tree (for the workload that lands new files).
pub fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_the_documented_file_counts() {
        assert_eq!(Scale::Small.generator_config().total_files(), 40);
        assert_eq!(Scale::Medium.generator_config().total_files(), 96);
        assert_eq!(Scale::Large.generator_config().total_files(), 240);
        assert_eq!(Scale::Medium.streams().len(), 16);
        assert_eq!(Scale::Large.streams().len(), 24);
    }
}
