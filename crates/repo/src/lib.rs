//! File-repository substrate for the Lazy ETL reproduction.
//!
//! The paper's source datastore is "a repository containing files in mSEED
//! format" — millions of them on remote FTP servers in the real deployment.
//! This crate models that repository:
//!
//! * [`Repository`] — a rooted directory of MiniSEED files with a stable
//!   registry of [`FileEntry`]s (URI, size, modification time);
//! * [`ChangeSet`] — rescan-based change detection, the signal lazy
//!   refresh (§3.3 of the paper) keys on, gated on Linux by inotify
//!   events so that a quiet repository is not walked at all
//!   ([`Repository::unchanged`]);
//! * [`AccessProfile`] — a simulated remote-access cost model (per-file
//!   latency plus bandwidth), standing in for FTP access to ORFEUS;
//! * [`updates`] — update operations (append, add, touch) used by the
//!   refresh experiments.

#![warn(missing_docs)]

pub mod csv_source;
pub mod remote;
pub mod source;
pub mod updates;
mod watch;

pub use csv_source::CsvSource;
pub use remote::RemoteSource;
pub use source::{read_file_range, LazySource, SourceIoStats};

use lazyetl_mseed::Timestamp;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use watch::Watch;

/// Stable identifier of a file within a repository scan.
///
/// Assigned in URI order at scan time and kept stable across rescans for
/// files whose URI is unchanged (the warehouse's `F` table keys on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// One file known to the repository.
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    /// Stable identifier.
    pub id: FileId,
    /// Repository-relative URI with `/` separators (the paper identifies
    /// each mSEED file by its URI).
    pub uri: String,
    /// Absolute filesystem path.
    pub path: PathBuf,
    /// File size in bytes at scan time.
    pub size: u64,
    /// Last-modified time at scan time (µs since epoch). Lazy refresh
    /// compares this against cache admission timestamps.
    pub mtime: Timestamp,
}

/// Difference between a source's registry and what the source holds now,
/// as whole entries: a consumer folds it in without looking anything up.
#[derive(Debug, Clone, Default)]
pub struct ChangeSet {
    /// Files present now but not before, carrying the id the registry
    /// assigns them when the report is committed.
    pub added: Vec<FileEntry>,
    /// Files whose size or mtime changed: the registered id with the new
    /// size and mtime.
    pub modified: Vec<FileEntry>,
    /// Entries the registry forgets: files that disappeared.
    pub removed: Vec<FileEntry>,
    /// The watch's event count when the walk that produced this report
    /// started (`None`: the walk could not arm the watch). Committing the
    /// report makes the registry reflect that walk.
    mark: Option<u64>,
}

/// Two reports are equal when they list the same entries, whichever walk
/// produced them.
impl PartialEq for ChangeSet {
    fn eq(&self, other: &ChangeSet) -> bool {
        (&self.added, &self.modified, &self.removed)
            == (&other.added, &other.modified, &other.removed)
    }
}

impl ChangeSet {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.modified.is_empty() && self.removed.is_empty()
    }
}

/// Errors from repository operations.
#[derive(Debug)]
pub enum RepoError {
    /// Root directory missing or unreadable.
    Io(std::io::Error),
    /// A URI was requested that the registry does not contain.
    UnknownUri(String),
    /// A ranged fetch against a source failed (remote transfer error,
    /// range beyond the advertised file, backend-specific failure).
    Fetch {
        /// URI the fetch targeted.
        uri: String,
        /// What went wrong, in backend terms.
        detail: String,
    },
    /// The operation is not supported by this source backend.
    Unsupported(String),
    /// A mount index does not fit the high half of a warehouse-global
    /// file id (`(mount << 32) | local`): packing it would overflow i64
    /// and silently alias another mount's files.
    IdOverflow {
        /// Mount index that exceeded the packing budget.
        mount: usize,
    },
}

impl RepoError {
    /// Stable machine-readable code for this error, following the same
    /// convention as `QueryError::code` / `EtlError::code`: the serving
    /// layer's error frames carry `code` + rendered message, so
    /// source-fetch failures arrive typed instead of stringly.
    pub fn code(&self) -> &'static str {
        match self {
            RepoError::Io(_) => "repo.io",
            RepoError::UnknownUri(_) => "repo.unknown_uri",
            RepoError::Fetch { .. } => "repo.fetch",
            RepoError::Unsupported(_) => "repo.unsupported",
            RepoError::IdOverflow { .. } => "repo.id_overflow",
        }
    }
}

impl std::fmt::Display for RepoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "repository I/O error: {e}"),
            RepoError::UnknownUri(u) => write!(f, "unknown repository URI: {u}"),
            RepoError::Fetch { uri, detail } => {
                write!(f, "source fetch failed for {uri}: {detail}")
            }
            RepoError::Unsupported(what) => write!(f, "unsupported source operation: {what}"),
            RepoError::IdOverflow { mount } => write!(
                f,
                "mount index {mount} does not fit the high half of a global file id"
            ),
        }
    }
}

impl std::error::Error for RepoError {}

impl From<std::io::Error> for RepoError {
    fn from(e: std::io::Error) -> Self {
        RepoError::Io(e)
    }
}

/// Simulated remote-access cost model.
///
/// The paper's repositories live behind FTP; reading a file costs a
/// round-trip plus transfer time. The profile converts a byte count into a
/// [`Duration`] which callers may account (benchmarks) or actually sleep
/// (demos). `local()` is the zero-cost profile for on-disk repositories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Fixed per-request latency.
    pub per_request: Duration,
    /// Transfer bandwidth in bytes/second (`u64::MAX` = infinite).
    pub bytes_per_sec: u64,
}

impl AccessProfile {
    /// Zero-cost local access.
    pub fn local() -> AccessProfile {
        AccessProfile {
            per_request: Duration::ZERO,
            bytes_per_sec: u64::MAX,
        }
    }

    /// A plausible WAN FTP profile: 20 ms RTT, 20 MB/s.
    pub fn wan() -> AccessProfile {
        AccessProfile {
            per_request: Duration::from_millis(20),
            bytes_per_sec: 20 * 1024 * 1024,
        }
    }

    /// Cost of one request transferring `bytes`.
    pub fn cost(&self, bytes: u64) -> Duration {
        if self.bytes_per_sec == u64::MAX {
            return self.per_request;
        }
        let transfer = Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec as f64);
        self.per_request + transfer
    }
}

/// File extensions a default [`Repository`] scan registers: every format
/// the warehouse's extractor registry understands.
pub const DEFAULT_EXTENSIONS: &[&str] = &["mseed", "miniseed", "msd", "sac", "csv"];

/// A rooted directory of source files with a stable file registry.
#[derive(Debug)]
pub struct Repository {
    root: PathBuf,
    entries: Vec<FileEntry>,
    by_uri: BTreeMap<String, usize>,
    next_id: u32,
    extensions: Vec<String>,
    watch: Watch,
    walks: AtomicU64,
    quiet_probes: AtomicU64,
    /// Access-cost model for reads against this repository.
    pub access: AccessProfile,
}

fn mtime_of(md: &std::fs::Metadata) -> std::io::Result<Timestamp> {
    let micros = match md.modified()?.duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => d.as_micros() as i64,
        Err(e) => -(e.duration().as_micros() as i64),
    };
    Ok(Timestamp(micros))
}

/// `(device, inode)` of a directory, to tell a link back up the walk.
#[cfg(unix)]
fn dir_key(md: &std::fs::Metadata) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    Some((md.dev(), md.ino()))
}

#[cfg(not(unix))]
fn dir_key(_md: &std::fs::Metadata) -> Option<(u64, u64)> {
    None
}

/// True when a file has another name, through which a write raises no
/// event on the directory holding this one.
#[cfg(unix)]
fn has_other_links(md: &std::fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    md.nlink() > 1
}

#[cfg(not(unix))]
fn has_other_links(_md: &std::fs::Metadata) -> bool {
    false
}

/// One walk of the tree against the registry: each registered file is
/// looked up by its URI as the walk meets it, so an unchanged file costs
/// one `stat` and no allocation.
struct Walk<'a> {
    repo: &'a Repository,
    /// URI of the directory being read, `/`-terminated (empty at the root).
    uri: String,
    /// Directories on the path from the root to the one being read.
    ancestors: Vec<Option<(u64, u64)>>,
    /// Registry entries the walk has met, by index.
    met: Vec<bool>,
    change: ChangeSet,
}

impl Walk<'_> {
    fn registered(&self, name: &str) -> bool {
        Path::new(name).extension().is_some_and(|e| {
            self.repo
                .extensions
                .iter()
                .any(|x| e.eq_ignore_ascii_case(x))
        })
    }

    /// Arm `dir`, then visit its entries. Each is stat-ed relative to the
    /// open directory; only a symlink is stat-ed through.
    fn dir(&mut self, dir: &Path) -> std::io::Result<()> {
        if self.change.mark.is_some() && !self.repo.watch.arm(dir) {
            self.change.mark = None;
        }
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let kind = entry.file_type()?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let registered = self.registered(&name);
            let md = if kind.is_symlink() {
                // A change behind a link raises no event on this tree.
                self.change.mark = None;
                match std::fs::metadata(entry.path()) {
                    Ok(md) => md,
                    Err(_) if !registered => continue,
                    Err(e) => return Err(e),
                }
            } else if kind.is_dir() || registered {
                entry.metadata()?
            } else {
                continue;
            };
            if md.is_dir() {
                self.subdir(&entry.path(), &name, &md)?;
            } else if registered {
                self.file(&entry, &name, &md)?;
            }
        }
        Ok(())
    }

    fn subdir(&mut self, path: &Path, name: &str, md: &std::fs::Metadata) -> std::io::Result<()> {
        let key = dir_key(md);
        if key.is_some() && self.ancestors.contains(&key) {
            // A link back up the path: following it would register the
            // same files again under ever longer URIs.
            return Ok(());
        }
        let len = self.uri.len();
        self.uri.push_str(name);
        self.uri.push('/');
        self.ancestors.push(key);
        let walked = self.dir(path);
        self.ancestors.pop();
        self.uri.truncate(len);
        walked
    }

    fn file(
        &mut self,
        entry: &std::fs::DirEntry,
        name: &str,
        md: &std::fs::Metadata,
    ) -> std::io::Result<()> {
        if has_other_links(md) {
            self.change.mark = None;
        }
        let (size, mtime) = (md.len(), mtime_of(md)?);
        let len = self.uri.len();
        self.uri.push_str(name);
        match self.repo.by_uri.get(self.uri.as_str()) {
            Some(&idx) => {
                self.met[idx] = true;
                let old = &self.repo.entries[idx];
                if old.size != size || old.mtime != mtime {
                    self.change.modified.push(FileEntry {
                        size,
                        mtime,
                        ..old.clone()
                    });
                }
            }
            None => self.change.added.push(FileEntry {
                id: FileId(0), // assigned once the walk is sorted
                uri: self.uri.clone(),
                path: entry.path(),
                size,
                mtime,
            }),
        }
        self.uri.truncate(len);
        Ok(())
    }
}

impl Repository {
    /// Open a repository rooted at `root`, scanning it immediately for
    /// every extension in [`DEFAULT_EXTENSIONS`].
    pub fn open(root: impl Into<PathBuf>) -> Result<Repository, RepoError> {
        Self::open_with_extensions(root, DEFAULT_EXTENSIONS)
    }

    /// Open a repository registering only files with the given extensions
    /// (case-insensitive, without the leading dot).
    pub fn open_with_extensions(
        root: impl Into<PathBuf>,
        extensions: &[&str],
    ) -> Result<Repository, RepoError> {
        let mut repo = Repository {
            root: root.into(),
            entries: Vec::new(),
            by_uri: BTreeMap::new(),
            next_id: 0,
            extensions: extensions.iter().map(|s| s.to_string()).collect(),
            watch: Watch::new(),
            walks: AtomicU64::new(0),
            quiet_probes: AtomicU64::new(0),
            access: AccessProfile::local(),
        };
        repo.rescan()?;
        Ok(repo)
    }

    /// Root directory of the repository.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// All known files, sorted by URI.
    pub fn files(&self) -> &[FileEntry] {
        &self.entries
    }

    /// Number of known files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the repository holds no files.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Look up a file by URI.
    pub fn by_uri(&self, uri: &str) -> Option<&FileEntry> {
        self.by_uri.get(uri).map(|&i| &self.entries[i])
    }

    /// Look up a file by id.
    pub fn by_id(&self, id: FileId) -> Option<&FileEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Current on-disk mtime of a URI (for staleness checks without a full
    /// rescan).
    pub fn current_mtime(&self, uri: &str) -> Result<Timestamp, RepoError> {
        let e = self
            .by_uri(uri)
            .ok_or_else(|| RepoError::UnknownUri(uri.to_string()))?;
        Ok(mtime_of(&std::fs::metadata(&e.path)?)?)
    }

    /// Compare the directory tree with the registry **without mutating
    /// it**: one walk, one `stat` per file, one size/mtime comparison.
    /// Added files are reported in URI order with the ids
    /// [`Self::commit`] will register them under. A directory that links
    /// back to one on the path from the root is not entered again.
    ///
    /// Lets read-mostly callers (the warehouse's refresh) detect the
    /// no-change case under a shared lock and only escalate to an
    /// exclusive commit when something actually changed.
    pub fn scan_changes(&self) -> Result<ChangeSet, RepoError> {
        self.walks.fetch_add(1, Ordering::Relaxed);
        let mut walk = Walk {
            repo: self,
            uri: String::new(),
            ancestors: vec![dir_key(&std::fs::metadata(&self.root)?)],
            met: vec![false; self.entries.len()],
            change: ChangeSet {
                mark: self.watch.begin_walk(),
                ..ChangeSet::default()
            },
        };
        walk.dir(&self.root)?;
        let Walk {
            met, mut change, ..
        } = walk;
        change.removed.extend(
            self.entries
                .iter()
                .zip(met)
                .filter(|(_, met)| !met)
                .map(|(e, _)| e.clone()),
        );
        change.modified.sort_by(|a, b| a.uri.cmp(&b.uri));
        change.added.sort_by(|a, b| a.uri.cmp(&b.uri));
        for (i, e) in change.added.iter_mut().enumerate() {
            e.id = FileId(self.next_id + i as u32);
        }
        if change.is_empty() {
            self.watch.settle(change.mark);
        }
        Ok(change)
    }

    /// True when the watch has seen no event since the start of the last
    /// walk the registry reflects: nothing can have changed, so a caller
    /// about to [`Self::scan_changes`] for drift may skip the walk. Costs
    /// one `read(2)` of an empty queue. False whenever in doubt: any
    /// event, an overflowed queue, no inotify instance (not Linux, or
    /// the per-user limit reached), a directory that could not be
    /// armed, a symlink in the tree or a registered file with another
    /// hard link.
    pub fn unchanged(&self) -> bool {
        let quiet = self.watch.quiet();
        if quiet {
            self.quiet_probes.fetch_add(1, Ordering::Relaxed);
        }
        quiet
    }

    /// Full directory walks ([`Self::scan_changes`] calls) and probes
    /// [`Self::unchanged`] answered without one, since open.
    pub fn io_stats(&self) -> SourceIoStats {
        SourceIoStats {
            walks: self.walks.load(Ordering::Relaxed),
            quiet_probes: self.quiet_probes.load(Ordering::Relaxed),
            ..SourceIoStats::default()
        }
    }

    /// Install a report of [`Self::scan_changes`] into the registry.
    /// Only valid on the registry state the report was scanned from: the
    /// added entries' ids were assigned against it.
    pub fn commit(&mut self, change: &ChangeSet) {
        self.watch.settle(change.mark);
        for e in &change.modified {
            let idx = *self
                .by_uri
                .get(&e.uri)
                .expect("report was scanned from this registry state");
            self.entries[idx] = e.clone();
        }
        if change.added.is_empty() && change.removed.is_empty() {
            return;
        }
        let gone: HashSet<FileId> = change.removed.iter().map(|e| e.id).collect();
        self.entries.retain(|e| !gone.contains(&e.id));
        self.entries.extend(change.added.iter().cloned());
        self.entries.sort_by(|a, b| a.uri.cmp(&b.uri));
        self.by_uri = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.uri.clone(), i))
            .collect();
        self.next_id += change.added.len() as u32;
    }

    /// Rescan the directory tree, updating the registry and returning what
    /// changed. New files get fresh ids; unchanged URIs keep theirs.
    pub fn rescan(&mut self) -> Result<ChangeSet, RepoError> {
        let change = self.scan_changes()?;
        self.commit(&change);
        Ok(change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_mseed::gen::{generate_repository, GeneratorConfig};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lazyetl_repo_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn scan_finds_generated_files() {
        let dir = tmpdir("scan");
        let cfg = GeneratorConfig::tiny(1);
        let gen = generate_repository(&dir, &cfg).unwrap();
        let repo = Repository::open(&dir).unwrap();
        assert_eq!(repo.len(), gen.files.len());
        assert_eq!(repo.total_bytes(), gen.total_bytes);
        // URIs are relative with forward slashes and stable ordering.
        let uris: Vec<_> = repo.files().iter().map(|e| e.uri.clone()).collect();
        let mut sorted = uris.clone();
        sorted.sort();
        assert_eq!(uris, sorted);
        assert!(uris[0].contains('/'));
        assert!(repo.by_uri(&uris[0]).is_some());
        assert!(repo.by_id(repo.files()[0].id).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rescan_detects_changes_and_keeps_ids() {
        let dir = tmpdir("rescan");
        let cfg = GeneratorConfig::tiny(2);
        generate_repository(&dir, &cfg).unwrap();
        let mut repo = Repository::open(&dir).unwrap();
        let first_uri = repo.files()[0].uri.clone();
        let first_id = repo.files()[0].id;
        let unchanged = repo.rescan().unwrap();
        assert!(unchanged.is_empty());

        // Modify one file (grow it so size changes even if mtime is coarse).
        let path = repo.by_uri(&first_uri).unwrap().path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let extra = bytes[..512.min(bytes.len())].to_vec();
        bytes.extend_from_slice(&extra);
        std::fs::write(&path, bytes).unwrap();
        // Add one file.
        let new_path = dir.join("XX/NEW/XX.NEW.--.BHZ.2020.001.000000.mseed");
        std::fs::create_dir_all(new_path.parent().unwrap()).unwrap();
        std::fs::write(&new_path, b"not-yet-real").unwrap();

        let change = repo.rescan().unwrap();
        assert_eq!(change.modified.len(), 1);
        assert_eq!(change.modified[0].uri, first_uri);
        assert_eq!(change.modified[0].id, first_id);
        assert_eq!(change.added.len(), 1);
        assert!(change.removed.is_empty());
        assert_eq!(repo.by_uri(&first_uri).unwrap().id, first_id, "id stable");

        // Remove the added file.
        std::fs::remove_file(&new_path).unwrap();
        let change = repo.rescan().unwrap();
        assert_eq!(change.removed.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_changes_previews_rescan_without_mutating() {
        let dir = tmpdir("scan_changes");
        let cfg = GeneratorConfig::tiny(2);
        generate_repository(&dir, &cfg).unwrap();
        let mut repo = Repository::open(&dir).unwrap();
        assert!(repo.scan_changes().unwrap().is_empty());

        // Grow one file and add another.
        let first_uri = repo.files()[0].uri.clone();
        let path = repo.by_uri(&first_uri).unwrap().path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let extra = bytes[..512.min(bytes.len())].to_vec();
        bytes.extend_from_slice(&extra);
        std::fs::write(&path, bytes).unwrap();
        let new_path = dir.join("XX/NEW/XX.NEW.--.BHZ.2020.001.000000.mseed");
        std::fs::create_dir_all(new_path.parent().unwrap()).unwrap();
        std::fs::write(&new_path, b"not-yet-real").unwrap();

        // …and remove a third.
        let gone = repo.files()[1].clone();
        std::fs::remove_file(&gone.path).unwrap();

        let before = repo.files().to_vec();
        let preview = repo.scan_changes().unwrap();
        assert_eq!(preview.modified.len(), 1);
        assert_eq!(preview.modified[0].uri, first_uri);
        assert_eq!(
            preview.modified[0].id, before[0].id,
            "modified keeps its id"
        );
        assert!(preview.modified[0].size > before[0].size);
        assert_eq!(preview.added.len(), 1);
        assert!(
            before.iter().all(|e| e.id != preview.added[0].id),
            "added carries a fresh id"
        );
        assert_eq!(preview.removed, vec![gone]);
        // The registry was not touched, so a second preview is identical…
        assert_eq!(repo.files(), &before[..]);
        assert_eq!(repo.scan_changes().unwrap(), preview);
        // …and a subsequent rescan reports the same changeset, ids
        // included, and registers exactly those entries.
        let applied = repo.rescan().unwrap();
        assert_eq!(applied, preview);
        for e in preview.added.iter().chain(&preview.modified) {
            assert_eq!(repo.by_id(e.id), Some(e));
            assert_eq!(repo.by_uri(&e.uri), Some(e));
        }
        assert!(repo.by_id(preview.removed[0].id).is_none());
        assert_eq!(repo.len(), before.len());
        // Once applied, the preview is empty.
        assert!(repo.scan_changes().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn a_symlink_back_up_the_tree_registers_nothing_twice() {
        let dir = tmpdir("cycle");
        for sta in ["HGN", "DBN"] {
            std::fs::create_dir_all(dir.join("NL").join(sta)).unwrap();
            for i in 0..4 {
                std::fs::write(dir.join(format!("NL/{sta}/{i}.mseed")), b"x").unwrap();
            }
        }
        std::os::unix::fs::symlink("..", dir.join("NL/HGN/up")).unwrap();
        let repo = Repository::open(&dir).unwrap();
        assert_eq!(repo.len(), 8, "{:?}", repo.files());
        assert!(repo.files().iter().all(|e| !e.uri.contains("up/")));
        // A change behind a link raises no event here, so the watch
        // never vouches for this tree.
        assert!(!repo.unchanged());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn events_gate_the_walk() {
        let dir = tmpdir("events");
        generate_repository(&dir, &GeneratorConfig::tiny(4)).unwrap();
        let mut repo = Repository::open(&dir).unwrap();
        assert!(repo.unchanged() && repo.unchanged());
        assert_eq!(
            (repo.io_stats().walks, repo.io_stats().quiet_probes),
            (1, 2)
        );

        // A landed file is an event; the walk that commits it quiets the
        // watch again.
        let landed = dir.join("XX/NEW/XX.NEW.--.BHZ.2020.001.000000.mseed");
        std::fs::create_dir_all(landed.parent().unwrap()).unwrap();
        std::fs::write(&landed, b"new").unwrap();
        assert!(!repo.unchanged());
        assert_eq!(repo.rescan().unwrap().added.len(), 1);
        assert!(repo.unchanged());
        // A write into the new directory is heard: the walk armed it.
        std::fs::write(&landed, b"newer").unwrap();
        assert!(!repo.unchanged());
        assert_eq!(repo.rescan().unwrap().modified.len(), 1);

        // A foreign file costs one walk that finds nothing.
        std::fs::write(dir.join("XX/notes.txt"), b"hi").unwrap();
        assert!(!repo.unchanged());
        assert!(repo.scan_changes().unwrap().is_empty());
        assert!(repo.unchanged());

        // A second name for a registered file disarms the watch.
        std::fs::hard_link(&landed, dir.join("elsewhere.bin")).unwrap();
        repo.rescan().unwrap();
        assert!(!repo.unchanged());
        std::fs::remove_file(dir.join("elsewhere.bin")).unwrap();
        repo.rescan().unwrap();
        assert!(repo.unchanged());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn access_profile_costs() {
        let local = AccessProfile::local();
        assert_eq!(local.cost(1 << 30), Duration::ZERO);
        let wan = AccessProfile::wan();
        let c = wan.cost(20 * 1024 * 1024);
        assert!(c >= Duration::from_millis(1019) && c <= Duration::from_millis(1021));
        // Metadata-sized read is dominated by the round trip.
        let small = wan.cost(64);
        assert!(small < Duration::from_millis(21));
    }

    #[test]
    fn unknown_uri_is_an_error() {
        let dir = tmpdir("unknown");
        let repo = Repository::open(&dir).unwrap();
        assert!(matches!(
            repo.current_mtime("nope/missing.mseed"),
            Err(RepoError::UnknownUri(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_root_fails() {
        let missing = std::env::temp_dir().join("lazyetl_repo_definitely_missing_xyz");
        std::fs::remove_dir_all(&missing).ok();
        assert!(Repository::open(&missing).is_err());
    }
}
