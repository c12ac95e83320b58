//! The pluggable lazy-source boundary.
//!
//! The paper's claim — ETL work deferred until a query first touches the
//! data — is format- and location-agnostic, but the original code spoke
//! only to the concrete local [`Repository`]. [`LazySource`] extracts the
//! contract the warehouse actually needs from a source of files:
//!
//! * **enumerate** — a stable registry of [`FileEntry`]s with ids, sizes
//!   and modification times ([`LazySource::files`] and friends);
//! * **detect change** — a read-only probe ([`LazySource::scan_changes`])
//!   whose report ([`ChangeSet`], whole entries) a separate
//!   [`LazySource::commit`] installs, so a consumer can do its own
//!   fallible work between the two;
//! * **fetch on first touch** — a byte-range fetch
//!   ([`LazySource::fetch_range`]), HTTP-range-shaped so remote backends
//!   map onto it directly; sources that are really local directories
//!   short-circuit it by exposing [`LazySource::local_path`];
//! * **report cost** — an [`AccessProfile`] for simulated-transfer
//!   accounting plus live fetch counters ([`LazySource::io_stats`]).
//!
//! The warehouse mounts one or more `Box<dyn LazySource>`s; everything
//! above this boundary (catalog, record cache, refresh, snapshot drift
//! validation, parallel extraction) is source-agnostic.

use crate::{AccessProfile, ChangeSet, FileEntry, FileId, RepoError, Repository};
use lazyetl_mseed::Timestamp;
use std::path::Path;

/// Cumulative fetch counters of one source (all zeros for sources that
/// never route reads through [`LazySource::fetch_range`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceIoStats {
    /// Ranged fetches issued against the source.
    pub fetch_requests: u64,
    /// Bytes transferred by those fetches.
    pub fetched_bytes: u64,
}

/// Read `len` bytes at `offset` from a local file, truncating at EOF.
///
/// The shared fetch implementation for path-backed sources: returns fewer
/// than `len` bytes when the range extends past the end of the file, and
/// an empty vector when `offset` is at or past it — callers detect short
/// reads themselves, mirroring how an HTTP range request behaves.
pub fn read_file_range(path: &Path, offset: u64, len: u64) -> Result<Vec<u8>, RepoError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = std::fs::File::open(path)?;
    let size = file.metadata()?.len();
    if offset >= size {
        return Ok(Vec::new());
    }
    let take = len.min(size - offset);
    file.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; take as usize];
    file.read_exact(&mut buf)?;
    Ok(buf)
}

/// A source of lazily-extracted files: what the warehouse needs to know
/// about *any* repository, local or remote, whatever the file format.
///
/// Object-safe on purpose — the warehouse holds `Box<dyn LazySource>`
/// mounts and extraction workers borrow `&dyn LazySource` across scoped
/// threads, hence `Send + Sync`.
pub trait LazySource: Send + Sync + std::fmt::Debug {
    /// Short backend identifier (`"local"`, `"csv"`, `"remote"`, …) used
    /// in stats reporting and logs.
    fn kind(&self) -> &'static str;

    /// All known files, sorted by URI. Ids are stable across rescans for
    /// unchanged URIs.
    fn files(&self) -> &[FileEntry];

    /// Look up a file by URI.
    fn by_uri(&self, uri: &str) -> Option<&FileEntry>;

    /// Look up a file by id.
    fn by_id(&self, id: FileId) -> Option<&FileEntry> {
        self.files().iter().find(|e| e.id == id)
    }

    /// Number of known files.
    fn len(&self) -> usize {
        self.files().len()
    }

    /// True when the source holds no files.
    fn is_empty(&self) -> bool {
        self.files().is_empty()
    }

    /// Total bytes across all files.
    fn total_bytes(&self) -> u64 {
        self.files().iter().map(|e| e.size).sum()
    }

    /// Current modification time of a URI (staleness probe without a full
    /// rescan).
    fn current_mtime(&self, uri: &str) -> Result<Timestamp, RepoError>;

    /// Compare the source with the registry **without mutating it** —
    /// the read-only probe lazy refresh runs under a shared lock. Added
    /// entries carry the ids [`Self::commit`] will register them under.
    fn scan_changes(&self) -> Result<ChangeSet, RepoError>;

    /// Install a report of [`Self::scan_changes`] into the registry. Only
    /// valid on the registry state the report was scanned from (callers
    /// hold their exclusive lock across both).
    fn commit(&mut self, change: &ChangeSet);

    /// Rescan the source, updating the registry and returning what
    /// changed. New files get fresh ids; unchanged URIs keep theirs.
    fn rescan(&mut self) -> Result<ChangeSet, RepoError> {
        let change = self.scan_changes()?;
        self.commit(&change);
        Ok(change)
    }

    /// The access-cost model reads against this source are accounted
    /// under.
    fn access(&self) -> AccessProfile;

    /// Replace the access-cost model (warehouse construction applies the
    /// configured profile to every mount).
    fn set_access(&mut self, profile: AccessProfile);

    /// The local filesystem path of an entry, when the source is a plain
    /// directory the extractor may read directly. Remote backends return
    /// `None`, forcing every read through [`Self::fetch_range`] so
    /// transfers are observable and costed.
    fn local_path<'a>(&self, entry: &'a FileEntry) -> Option<&'a Path> {
        Some(&entry.path)
    }

    /// Fetch `len` bytes of `entry` starting at `offset` (truncated at
    /// EOF, like an HTTP range request). The lazy warehouse calls this on
    /// first touch of a record group when [`Self::local_path`] is `None`.
    fn fetch_range(&self, entry: &FileEntry, offset: u64, len: u64) -> Result<Vec<u8>, RepoError>;

    /// Cumulative fetch counters (zeros for sources whose reads bypass
    /// [`Self::fetch_range`]).
    fn io_stats(&self) -> SourceIoStats {
        SourceIoStats::default()
    }
}

impl LazySource for Repository {
    fn kind(&self) -> &'static str {
        "local"
    }

    fn files(&self) -> &[FileEntry] {
        Repository::files(self)
    }

    fn by_uri(&self, uri: &str) -> Option<&FileEntry> {
        Repository::by_uri(self, uri)
    }

    fn by_id(&self, id: FileId) -> Option<&FileEntry> {
        Repository::by_id(self, id)
    }

    fn current_mtime(&self, uri: &str) -> Result<Timestamp, RepoError> {
        Repository::current_mtime(self, uri)
    }

    fn scan_changes(&self) -> Result<ChangeSet, RepoError> {
        Repository::scan_changes(self)
    }

    fn commit(&mut self, change: &ChangeSet) {
        Repository::commit(self, change)
    }

    fn access(&self) -> AccessProfile {
        self.access
    }

    fn set_access(&mut self, profile: AccessProfile) {
        self.access = profile;
    }

    fn fetch_range(&self, entry: &FileEntry, offset: u64, len: u64) -> Result<Vec<u8>, RepoError> {
        read_file_range(&entry.path, offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("lazyetl_source_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn repository_implements_the_source_contract() {
        let dir = tmpdir("contract");
        let cfg = lazyetl_mseed::gen::GeneratorConfig::tiny(31);
        lazyetl_mseed::gen::generate_repository(&dir, &cfg).unwrap();
        let repo = Repository::open(&dir).unwrap();
        let src: &dyn LazySource = &repo;
        assert_eq!(src.kind(), "local");
        assert!(!src.is_empty());
        assert_eq!(src.len(), src.files().len());
        let entry = &src.files()[0];
        assert!(src.by_uri(&entry.uri).is_some());
        assert!(src.by_id(entry.id).is_some());
        assert_eq!(src.local_path(entry), Some(entry.path.as_path()));
        assert!(src.scan_changes().unwrap().is_empty());
        assert_eq!(src.io_stats(), SourceIoStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fetch_range_truncates_at_eof() {
        let dir = tmpdir("range");
        let path = dir.join("f.csv");
        std::fs::write(&path, b"0123456789").unwrap();
        let got = read_file_range(&path, 4, 3).unwrap();
        assert_eq!(got, b"456");
        let tail = read_file_range(&path, 8, 100).unwrap();
        assert_eq!(tail, b"89");
        assert!(read_file_range(&path, 10, 5).unwrap().is_empty());
        assert!(read_file_range(&path, 99, 5).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(RepoError::Io(std::io::Error::other("x")).code(), "repo.io");
        assert_eq!(RepoError::UnknownUri("u".into()).code(), "repo.unknown_uri");
        assert_eq!(
            RepoError::Fetch {
                uri: "u".into(),
                detail: "d".into()
            }
            .code(),
            "repo.fetch"
        );
        assert_eq!(
            RepoError::Unsupported("op".into()).code(),
            "repo.unsupported"
        );
    }
}
