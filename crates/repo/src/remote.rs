//! Latency-injected simulated-remote source.
//!
//! The paper's repositories live on FTP servers at ORFEUS; this backend
//! stands in for them without a network. It wraps a local directory (the
//! "origin") but **hides its paths** from the warehouse: `local_path`
//! returns `None`, so every read — metadata scans and record-group
//! extraction alike — is forced through [`LazySource::fetch_range`],
//! exactly the shape of an HTTP range request. Each fetch is counted
//! (requests + bytes, see [`LazySource::io_stats`]), accounted under the
//! source's [`AccessProfile`], and — when real latency injection is
//! enabled via [`RemoteSource::with_sleep`] — actually slept, so
//! cold-touch latency measurements (bench E16) see wall-clock effects,
//! not just modeled ones.
//!
//! Change detection delegates to the origin directory: the simulated
//! server's content drifts exactly when the files under it do.

use crate::source::{read_file_range, LazySource, SourceIoStats};
use crate::{AccessProfile, ChangeSet, FileEntry, FileId, RepoError, Repository};
use lazyetl_mseed::Timestamp;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A simulated remote repository: range-fetch-only access to a local
/// origin directory, with per-fetch accounting and optional real latency.
#[derive(Debug)]
pub struct RemoteSource {
    inner: Repository,
    sleep: bool,
    requests: AtomicU64,
    bytes: AtomicU64,
}

impl RemoteSource {
    /// Open a simulated remote over the origin directory at `root`,
    /// costing fetches under [`AccessProfile::wan`] (accounting only; no
    /// real sleeping unless [`Self::with_sleep`] is applied).
    pub fn open(root: impl Into<PathBuf>) -> Result<RemoteSource, RepoError> {
        let mut inner = Repository::open(root)?;
        inner.access = AccessProfile::wan();
        Ok(RemoteSource {
            inner,
            sleep: false,
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// Enable (or disable) real latency injection: every fetch sleeps its
    /// modeled [`AccessProfile::cost`] before returning.
    pub fn with_sleep(mut self, sleep: bool) -> RemoteSource {
        self.sleep = sleep;
        self
    }

    /// Replace the access profile, builder-style.
    pub fn with_access(mut self, profile: AccessProfile) -> RemoteSource {
        self.inner.access = profile;
        self
    }
}

impl LazySource for RemoteSource {
    fn kind(&self) -> &'static str {
        "remote"
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

    /// No local path: the warehouse must fetch ranges, as over a WAN.
    fn local_path<'a>(&self, _entry: &'a FileEntry) -> Option<&'a Path> {
        None
    }

    fn fetch_range(&self, entry: &FileEntry, offset: u64, len: u64) -> Result<Vec<u8>, RepoError> {
        let buf = read_file_range(&entry.path, offset, len).map_err(|e| RepoError::Fetch {
            uri: entry.uri.clone(),
            detail: e.to_string(),
        })?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        if self.sleep {
            std::thread::sleep(self.inner.access.cost(buf.len() as u64));
        }
        Ok(buf)
    }

    fn io_stats(&self) -> SourceIoStats {
        SourceIoStats {
            fetch_requests: self.requests.load(Ordering::Relaxed),
            fetched_bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_mseed::gen::{generate_repository, GeneratorConfig};

    fn origin(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lazyetl_remote_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        generate_repository(&d, &GeneratorConfig::tiny(41)).unwrap();
        d
    }

    #[test]
    fn hides_paths_and_counts_fetches() {
        let dir = origin("count");
        let src = RemoteSource::open(&dir).unwrap();
        assert_eq!(src.kind(), "remote");
        assert!(!src.is_empty());
        let entry = src.files()[0].clone();
        assert!(src.local_path(&entry).is_none(), "remote exposes no path");
        assert_eq!(src.io_stats(), SourceIoStats::default());
        let head = src.fetch_range(&entry, 0, 64).unwrap();
        assert_eq!(head.len(), 64);
        let tail = src.fetch_range(&entry, entry.size - 10, 100).unwrap();
        assert_eq!(tail.len(), 10, "range truncated at EOF");
        let stats = src.io_stats();
        assert_eq!(stats.fetch_requests, 2);
        assert_eq!(stats.fetched_bytes, 74);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fetch_of_missing_origin_is_a_typed_fetch_error() {
        let dir = origin("err");
        let src = RemoteSource::open(&dir).unwrap();
        let mut entry = src.files()[0].clone();
        entry.path = PathBuf::from("/nonexistent/gone.mseed");
        let err = src.fetch_range(&entry, 0, 16).unwrap_err();
        assert_eq!(err.code(), "repo.fetch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn change_detection_delegates_to_origin() {
        let dir = origin("drift");
        let mut src = RemoteSource::open(&dir).unwrap();
        assert!(src.scan_changes().unwrap().is_empty());
        let target = src.files()[0].path.clone();
        let mut bytes = std::fs::read(&target).unwrap();
        let extra = bytes[..256.min(bytes.len())].to_vec();
        bytes.extend_from_slice(&extra);
        std::fs::write(&target, bytes).unwrap();
        let probe = src.scan_changes().unwrap();
        assert_eq!(probe.modified.len(), 1);
        let applied = src.rescan().unwrap();
        assert_eq!(applied.modified, probe.modified);
        assert!(src.scan_changes().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
