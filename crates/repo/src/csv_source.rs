//! CSV-backed lazy source: a directory of `.csv` waveform files.
//!
//! The backend registers **only** CSV files — mounting the same directory
//! as both an mSEED repository and a CSV source never double-counts — and
//! otherwise behaves like a local directory: entries expose their path,
//! change detection is the usual size/mtime walk. Decoding the text into
//! columnar batches is the extractor's job (the warehouse's format
//! registry dispatches on the `.csv` extension); this module only owns
//! *which files exist* and *how their bytes are fetched*.
//!
//! The file layout the bundled extractor expects is documented in
//! [`CSV_HEADER_PREFIX`]'s docs: `#`-prefixed `key=value` header lines
//! carrying the stream identity and sample rate, then a `time_us,value`
//! column header, then one integer/decimal sample per line.

use crate::source::{read_file_range, LazySource};
use crate::{AccessProfile, ChangeSet, FileEntry, FileId, RepoError, Repository};
use lazyetl_mseed::Timestamp;
use std::path::PathBuf;

/// First line of every lazyetl CSV waveform file: a format marker the
/// extractor validates before trusting the rest of the header.
pub const CSV_HEADER_PREFIX: &str = "# lazyetl-csv v1";

/// A rooted directory of CSV waveform files.
#[derive(Debug)]
pub struct CsvSource {
    inner: Repository,
}

impl CsvSource {
    /// Open a CSV source rooted at `root`, scanning it immediately.
    pub fn open(root: impl Into<PathBuf>) -> Result<CsvSource, RepoError> {
        Ok(CsvSource {
            inner: Repository::open_with_extensions(root, &["csv"])?,
        })
    }
}

impl LazySource for CsvSource {
    fn kind(&self) -> &'static str {
        "csv"
    }

    fn files(&self) -> &[FileEntry] {
        self.inner.files()
    }

    fn by_uri(&self, uri: &str) -> Option<&FileEntry> {
        self.inner.by_uri(uri)
    }

    fn by_id(&self, id: FileId) -> Option<&FileEntry> {
        self.inner.by_id(id)
    }

    fn current_mtime(&self, uri: &str) -> Result<Timestamp, RepoError> {
        self.inner.current_mtime(uri)
    }

    fn scan_changes(&self) -> Result<ChangeSet, RepoError> {
        self.inner.scan_changes()
    }

    fn commit(&mut self, change: &ChangeSet) {
        self.inner.commit(change)
    }

    fn access(&self) -> AccessProfile {
        self.inner.access
    }

    fn set_access(&mut self, profile: AccessProfile) {
        self.inner.access = profile;
    }

    fn fetch_range(&self, entry: &FileEntry, offset: u64, len: u64) -> Result<Vec<u8>, RepoError> {
        read_file_range(&entry.path, offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_only_csv_files() {
        let dir = std::env::temp_dir().join(format!("lazyetl_csvsrc_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("NL/HGN")).unwrap();
        std::fs::write(dir.join("NL/HGN/a.csv"), "# lazyetl-csv v1\n").unwrap();
        std::fs::write(dir.join("NL/HGN/b.mseed"), b"not csv").unwrap();
        std::fs::write(dir.join("NL/HGN/c.sac"), b"not csv").unwrap();
        let src = CsvSource::open(&dir).unwrap();
        assert_eq!(src.kind(), "csv");
        assert_eq!(src.len(), 1);
        assert_eq!(src.files()[0].uri, "NL/HGN/a.csv");
        let got = src.fetch_range(&src.files()[0], 2, 7).unwrap();
        assert_eq!(got, b"lazyetl");
        std::fs::remove_dir_all(&dir).ok();
    }
}
