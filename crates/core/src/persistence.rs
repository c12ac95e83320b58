//! Saving and reopening warehouses without re-running ETL.
//!
//! The paper's amortization argument — lazy extraction pays for itself
//! across a *session* — extends across process lifetimes here: a save
//! persists not just the metadata tables (`F`/`R`, plus `D` for eager
//! warehouses) but the **record cache itself**, one checksummed segment
//! file per shard, so a reopened lazy warehouse answers its first query
//! from a warm cache instead of re-paying extraction.
//!
//! # On-disk layout (`lazy-warehouse-v2`)
//!
//! ```text
//! MANIFEST                     committed snapshot descriptor (see below)
//! JOURNAL                      replayable save journal (ETL-log lines)
//! files.e<N>.lztb              F table, footered (epoch N)
//! records.e<N>.lztb            R table, footered
//! data.e<N>.lztb               D table, footered (eager saves only)
//! stats.e<N>.lzst              per-table column statistics, footered
//! timeindex.e<N>.lztb          ordered record time-range index, footered
//! segments.e<N>/shard_KKK.lzsg one record-cache shard each (lazy saves)
//! ```
//!
//! The `stats` and `timeindex` sections feed cost-based planning and the
//! record-level pruning seek on reopen; manifests written before they
//! existed simply lack the lines, and such snapshots open **statless** —
//! zone maps recompute on demand and the optimizer falls back to its
//! heuristics, exactly as before the upgrade.
//!
//! # Crash consistency
//!
//! Every file is written via temp-file + fsync + rename
//! ([`lazyetl_store::persist::write_file_atomic`]) and carries an
//! integrity footer. A save writes the *next* epoch's files beside the
//! current epoch's, then atomically renames `MANIFEST.tmp` over
//! `MANIFEST` — **that rename is the commit point**. Only after the
//! commit are the previous epoch's files deleted. The ETL log doubles as
//! a replayable journal: each durable step appends one fsynced line to
//! `JOURNAL` ([`crate::log::EtlOp::journal_line`]), so recovery can
//! replay exactly how far an interrupted save got. A crash at any
//! instant therefore leaves either the old snapshot (manifest not yet
//! renamed; partial next-epoch files are swept by [`recover_saved_dir`])
//! or the new one (manifest renamed; leftover old-epoch files are swept)
//! — never a torn state. `tests/crash_recovery.rs` proves this by
//! enumerating every durable step via [`save_warehouse_crashing_at`] and
//! killing the save at each one.

use crate::cache::PendingSegment;
use crate::error::{EtlError, Result};
use crate::log::{EtlLog, EtlOp};
use crate::parallel::parallel_map;
use crate::rewrite::LocatorIndex;
use crate::schema::{DATA_TABLE, FILES_TABLE, RECORDS_TABLE};
use crate::segment::{encode_segment, segment_info, SegmentEntry};
use crate::warehouse::{mode_tables, Mode, Warehouse};
use lazyetl_store::persist::{
    append_footer, embedded_footer_checksum, load_table_verified, split_footer, sync_parent_dir,
    table_to_footered_bytes, tmp_path,
};
use lazyetl_store::stats::{stats_from_bytes, stats_to_bytes, table_stats, ColumnStats};
use lazyetl_store::Table;
use std::io::Write;
use std::path::Path;

/// Name of the manifest file inside a saved-warehouse directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Name of the save journal inside a saved-warehouse directory.
pub const JOURNAL_NAME: &str = "JOURNAL";
const MANIFEST_V2: &str = "lazyetl-warehouse-v2";
/// Base name of the persisted statistics file (`stats.e<N>.lzst`).
const STATS_BASE: &str = "stats";
/// Base name of the persisted time index (`timeindex.e<N>.lztb`).
const TIMEINDEX_BASE: &str = "timeindex";
/// Error-message marker of an injected crash (test hook).
pub const CRASH_MARKER: &str = "crash-injected";

fn internal(e: impl std::fmt::Display) -> EtlError {
    EtlError::Internal(e.to_string())
}

/// What [`save_warehouse`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Mode that was saved.
    pub mode: Mode,
    /// Total bytes written (tables + segments, footers included).
    pub bytes: u64,
    /// Table files written.
    pub tables: Vec<String>,
    /// Cache segment files written (lazy saves; empty shards skipped).
    pub segments: Vec<String>,
    /// Column-statistics file written alongside the tables.
    pub stats_file: Option<String>,
    /// Ordered time-range index file written alongside the tables.
    pub index_file: Option<String>,
    /// Snapshot epoch this save committed.
    pub epoch: u64,
    /// Number of durable steps the save performed — the domain of
    /// [`save_warehouse_crashing_at`]'s crash points.
    pub crash_points: usize,
}

/// One file recorded in a v2 manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedFile {
    /// Path relative to the saved directory.
    pub name: String,
    /// File size in bytes (footer included).
    pub bytes: u64,
    /// Body checksum (what the footer carries).
    pub checksum: u64,
    /// Entries (segments) — 0 for tables.
    pub entries: usize,
    /// Source cache shard (segments) — 0 for tables.
    pub shard: usize,
}

/// Parsed contents of a saved-warehouse manifest.
#[derive(Debug, Clone)]
pub struct SavedManifest {
    /// Format version (2; anything else is rejected on read).
    pub version: u16,
    /// Mode that was saved.
    pub mode: Mode,
    /// Snapshot epoch.
    pub epoch: u64,
    /// Cache shard count at save time (0 for eager saves).
    pub shards: usize,
    /// Catalog table files in F, R\[, D\] order.
    pub tables: Vec<SavedFile>,
    /// Cache segment files.
    pub segments: Vec<SavedFile>,
    /// Persisted column statistics (absent in pre-upgrade snapshots —
    /// those open statless).
    pub stats: Option<SavedFile>,
    /// Persisted ordered time-range index (absent pre-upgrade).
    pub time_index: Option<SavedFile>,
}

fn mode_str(mode: Mode) -> &'static str {
    match mode {
        Mode::Lazy => "lazy",
        Mode::Eager => "eager",
    }
}

/// Read and parse the manifest of a saved-warehouse directory.
pub fn read_manifest(dir: &Path) -> Result<SavedManifest> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME))
        .map_err(|e| internal(format!("no warehouse manifest in {dir:?}: {e}")))?;
    let mut lines = lines_of(&text);
    let version = match lines.next() {
        Some(MANIFEST_V2) => 2u16,
        other => {
            return Err(internal(format!(
                "unsupported warehouse manifest version {other:?} in {dir:?}"
            )))
        }
    };
    let mode = match lines.next() {
        Some("mode=lazy") => Mode::Lazy,
        Some("mode=eager") => Mode::Eager,
        other => return Err(internal(format!("bad manifest mode line {other:?}"))),
    };
    let epoch = kv_line(lines.next(), "epoch")?
        .parse::<u64>()
        .map_err(|e| internal(format!("bad manifest epoch: {e}")))?;
    let shards = kv_line(lines.next(), "shards")?
        .parse::<usize>()
        .map_err(|e| internal(format!("bad manifest shards: {e}")))?;
    let mut tables = Vec::new();
    let mut segments = Vec::new();
    let mut stats = None;
    let mut time_index = None;
    for line in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(kind @ ("stats" | "index")) => {
                // stats|index <bytes> <checksum-hex> <name>
                let bytes = parse_num(parts.next(), "stats bytes")?;
                let checksum = parse_hex(parts.next(), "stats checksum")?;
                let name = parts.collect::<Vec<_>>().join(" ");
                let file = SavedFile {
                    name,
                    bytes,
                    checksum,
                    entries: 0,
                    shard: 0,
                };
                if kind == "stats" {
                    stats = Some(file);
                } else {
                    time_index = Some(file);
                }
            }
            Some("table") => {
                // table <bytes> <checksum-hex> <name>
                let bytes = parse_num(parts.next(), "table bytes")?;
                let checksum = parse_hex(parts.next(), "table checksum")?;
                let name = parts.collect::<Vec<_>>().join(" ");
                tables.push(SavedFile {
                    name,
                    bytes,
                    checksum,
                    entries: 0,
                    shard: 0,
                });
            }
            Some("segment") => {
                // segment <shard> <entries> <bytes> <checksum-hex> <path>
                let shard = parse_num(parts.next(), "segment shard")? as usize;
                let entries = parse_num(parts.next(), "segment entries")? as usize;
                let bytes = parse_num(parts.next(), "segment bytes")?;
                let checksum = parse_hex(parts.next(), "segment checksum")?;
                let name = parts.collect::<Vec<_>>().join(" ");
                segments.push(SavedFile {
                    name,
                    bytes,
                    checksum,
                    entries,
                    shard,
                });
            }
            Some(other) => return Err(internal(format!("unknown manifest line kind {other:?}"))),
            None => {}
        }
    }
    if tables.len() < 2 {
        return Err(internal("manifest lists fewer than two tables"));
    }
    Ok(SavedManifest {
        version,
        mode,
        epoch,
        shards,
        tables,
        segments,
        stats,
        time_index,
    })
}

fn lines_of(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim).filter(|l| !l.is_empty())
}

fn kv_line<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str> {
    line.and_then(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| internal(format!("manifest missing {key}= line")))
}

fn parse_num(tok: Option<&str>, what: &str) -> Result<u64> {
    tok.and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| internal(format!("bad manifest field: {what}")))
}

fn parse_hex(tok: Option<&str>, what: &str) -> Result<u64> {
    tok.and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| internal(format!("bad manifest field: {what}")))
}

/// Read the mode recorded in a saved-warehouse directory.
pub fn saved_mode(dir: &Path) -> Result<Mode> {
    Ok(read_manifest(dir)?.mode)
}

/// Load the persisted catalog tables of a saved warehouse.
///
/// Returns `(files, records, data)`; `data` is present for eager saves.
/// Tables are checksum-verified against both their footer and the
/// manifest.
pub fn load_saved_tables(dir: &Path) -> Result<(Table, Table, Option<Table>)> {
    let manifest = read_manifest(dir)?;
    let mut loaded = Vec::with_capacity(manifest.tables.len());
    for f in &manifest.tables {
        let (table, sum) = load_table_verified(&dir.join(&f.name))?;
        if sum != f.checksum {
            return Err(internal(format!(
                "table {} checksum {sum:#x} != manifest {:#x}",
                f.name, f.checksum
            )));
        }
        loaded.push(table);
    }
    let mut it = loaded.into_iter();
    let files = it.next().ok_or_else(|| internal("files table missing"))?;
    let records = it.next().ok_or_else(|| internal("records table missing"))?;
    Ok((files, records, it.next()))
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// Append-only, fsynced writer for the on-disk save journal. Every
/// appended op is also pushed to the warehouse's ETL log, which is what
/// makes the log "double as" the journal.
struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Start a fresh journal for one save (truncates any previous one —
    /// recovery has already consumed it by the time a save begins).
    fn create(dir: &Path) -> Result<Journal> {
        let file = std::fs::File::create(dir.join(JOURNAL_NAME)).map_err(internal)?;
        Ok(Journal { file })
    }

    fn append(&mut self, log: &EtlLog, op: EtlOp) -> Result<()> {
        let line = op
            .journal_line()
            .ok_or_else(|| internal("op is not journalable"))?;
        self.file
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|_| self.file.sync_all())
            .map_err(internal)?;
        log.push(op);
        Ok(())
    }
}

/// Replay the journal of a saved directory into operations, oldest
/// first. Torn or foreign lines (a crash can cut the last append short)
/// are skipped.
pub fn replay_journal(dir: &Path) -> Vec<EtlOp> {
    let Ok(text) = std::fs::read_to_string(dir.join(JOURNAL_NAME)) else {
        return Vec::new();
    };
    text.lines().filter_map(EtlOp::parse_journal_line).collect()
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What [`recover_saved_dir`] did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch of an interrupted (begun, never committed) save that was
    /// rolled back, if any.
    pub rolled_back: Option<u64>,
    /// Files and directories removed (relative names).
    pub removed: Vec<String>,
    /// Journal operations replayed (for the reopened warehouse's log).
    pub replayed: Vec<EtlOp>,
}

fn epoch_of_table_file(name: &str) -> Option<u64> {
    let rest = name
        .strip_suffix(".lztb")
        .or_else(|| name.strip_suffix(".lzst"))?;
    let (base, epoch) = rest.rsplit_once(".e")?;
    if base != FILES_TABLE
        && base != RECORDS_TABLE
        && base != DATA_TABLE
        && base != STATS_BASE
        && base != TIMEINDEX_BASE
    {
        return None;
    }
    epoch.parse().ok()
}

fn epoch_of_segments_dir(name: &str) -> Option<u64> {
    name.strip_prefix("segments.e")?.parse().ok()
}

/// The single definition of save-directory debris: stray temp files and
/// epoch-stamped files/directories not belonging to the committed epoch.
/// Shared by the recovery sweep and the [`stray_files`] diagnostic so the
/// two can never drift apart.
fn is_stale_name(name: &str, live_epoch: Option<u64>) -> bool {
    if name.ends_with(".tmp") {
        return true;
    }
    epoch_of_table_file(name)
        .or_else(|| epoch_of_segments_dir(name))
        .is_some_and(|ep| live_epoch != Some(ep))
}

/// Does a (possibly `.tmp`-suffixed) name carry epoch `epoch`'s stamp?
fn belongs_to_epoch(name: &str, epoch: u64) -> bool {
    let base = name.strip_suffix(".tmp").unwrap_or(name);
    epoch_of_table_file(base)
        .or_else(|| epoch_of_segments_dir(base))
        .is_some_and(|ep| ep == epoch)
}

/// Bring a saved directory back to a consistent snapshot after a crash.
///
/// Replays the journal, then sweeps the directory: stray `*.tmp` files
/// always go; epoch-stamped files and segment directories that do not
/// belong to the committed manifest epoch are removed (they are either a
/// rolled-back in-flight save or an already-superseded old snapshot whose
/// cleanup was interrupted). With no manifest at all, any epoch debris is
/// from a first save that never committed and is likewise removed. A
/// *corrupt* manifest is left alone — recovery cannot tell which epoch is
/// live, and the subsequent open fails loudly instead. Idempotent; called
/// by both [`save_warehouse`] and `Warehouse::open_saved`.
pub fn recover_saved_dir(dir: &Path) -> Result<RecoveryReport> {
    let mut report = RecoveryReport {
        replayed: replay_journal(dir),
        ..Default::default()
    };
    if !dir.exists() {
        return Ok(report);
    }
    let manifest_exists = dir.join(MANIFEST_NAME).exists();
    let manifest = read_manifest(dir).ok();
    if manifest_exists && manifest.is_none() {
        // Corrupt manifest: sweep nothing we could regret.
        return Ok(report);
    }
    let live_epoch = manifest.as_ref().map(|m| m.epoch);

    // Which epoch did an interrupted save try to write?
    let mut begun: Option<u64> = None;
    let mut committed: Option<u64> = None;
    for op in &report.replayed {
        match op {
            EtlOp::SaveBegin { epoch } => begun = Some(*epoch),
            EtlOp::SaveCommit { epoch } => committed = Some(*epoch),
            _ => {}
        }
    }
    if manifest.is_none() && committed.is_some() {
        // The journal proves a commit happened, yet the manifest is gone
        // — external damage (partial copy, stray delete), not a crashed
        // save, which always leaves the old or new manifest in place.
        // Same policy as a corrupt manifest: preserve everything so a
        // backup of MANIFEST can restore the warehouse.
        return Ok(report);
    }

    let entries = std::fs::read_dir(dir).map_err(internal)?;
    for entry in entries {
        let entry = entry.map_err(internal)?;
        let name = entry.file_name().to_string_lossy().to_string();
        let path = entry.path();
        if is_stale_name(&name, live_epoch) {
            let removed = if path.is_dir() {
                std::fs::remove_dir_all(&path).is_ok()
            } else {
                std::fs::remove_file(&path).is_ok()
            };
            if removed {
                report.removed.push(name);
            }
        }
    }

    // A rollback is only reported when this sweep actually removed the
    // interrupted epoch's files — the journal keeps its begin-without-
    // commit record until the next save truncates it, and re-announcing
    // an already-completed rollback on every reopen would read as
    // repeated crashes.
    if let (Some(b), true) = (begun, committed != begun) {
        if live_epoch != Some(b) && report.removed.iter().any(|n| belongs_to_epoch(n, b)) {
            report.rolled_back = Some(b);
        }
    }
    if report.rolled_back.is_some() || !report.removed.is_empty() {
        sync_parent_dir(&dir.join(MANIFEST_NAME));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Counts the save's durable steps and, in the crash-injection harness,
/// aborts the save exactly where a kill signal would have caught it.
struct SaveCtx {
    stop_at: Option<usize>,
    steps: usize,
}

impl SaveCtx {
    /// One crash point: a place where the process could die with all
    /// previous side effects on disk and none of the following ones.
    fn step(&mut self) -> Result<()> {
        self.steps += 1;
        if self.stop_at == Some(self.steps) {
            return Err(internal(format!("{CRASH_MARKER} at step {}", self.steps)));
        }
        Ok(())
    }

    /// Atomic file write instrumented with three crash points: before
    /// anything, after a *torn* temp file (the half-written page a real
    /// kill leaves behind), and after the durable temp but before the
    /// rename.
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.step()?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(internal)?;
        }
        let tmp = tmp_path(path);
        self.steps += 1;
        if self.stop_at == Some(self.steps) {
            std::fs::write(&tmp, &bytes[..bytes.len() / 2]).map_err(internal)?;
            return Err(internal(format!("{CRASH_MARKER} at step {}", self.steps)));
        }
        {
            let mut f = std::fs::File::create(&tmp).map_err(internal)?;
            f.write_all(bytes)
                .and_then(|_| f.sync_all())
                .map_err(internal)?;
        }
        self.step()?;
        std::fs::rename(&tmp, path).map_err(internal)?;
        sync_parent_dir(path);
        Ok(())
    }

    fn remove(&mut self, path: &Path, removed: &mut u64) -> Result<()> {
        self.step()?;
        let ok = if path.is_dir() {
            std::fs::remove_dir_all(path).is_ok()
        } else {
            std::fs::remove_file(path).is_ok()
        };
        *removed += u64::from(ok);
        Ok(())
    }
}

/// Persist a warehouse durably under `dir` (format v2; see the module
/// docs for the layout and the crash-consistency protocol).
///
/// Concurrent queries may keep running — the catalog is snapshotted under
/// the shared read lock and the cache shard by shard — but two *saves*
/// into the same directory must not overlap.
pub fn save_warehouse(wh: &Warehouse, dir: &Path) -> Result<SaveReport> {
    save_inner(wh, dir, None)
}

/// Crash-injection variant of [`save_warehouse`]: performs the save's
/// durable steps up to (but excluding) step `crash_at`, then aborts with
/// a [`CRASH_MARKER`] error — on-disk state is exactly what a process
/// kill at that instant would leave. [`SaveReport::crash_points`] of a
/// completed save enumerates the valid range. Test/bench hook.
pub fn save_warehouse_crashing_at(
    wh: &Warehouse,
    dir: &Path,
    crash_at: usize,
) -> Result<SaveReport> {
    save_inner(wh, dir, Some(crash_at))
}

fn save_inner(wh: &Warehouse, dir: &Path, stop_at: Option<usize>) -> Result<SaveReport> {
    std::fs::create_dir_all(dir).map_err(internal)?;
    let recovery = recover_saved_dir(dir)?;
    // A manifest that is unreadable — or missing while the journal
    // proves a commit happened — is externally damaged state recovery
    // deliberately preserved for offline repair; writing over its epoch
    // files here would destroy that option. Fail loudly, like
    // `open_saved` does.
    let prev = match read_manifest(dir) {
        Ok(m) => Some(m),
        Err(_) if !dir.join(MANIFEST_NAME).exists() => {
            if recovery
                .replayed
                .iter()
                .any(|op| matches!(op, EtlOp::SaveCommit { .. }))
            {
                return Err(internal(format!(
                    "refusing to save over {dir:?}: its manifest is missing but the \
                     journal records a committed snapshot"
                )));
            }
            None
        }
        Err(e) => {
            return Err(internal(format!(
                "refusing to save over an unreadable manifest in {dir:?}: {e}"
            )))
        }
    };
    let epoch = prev.as_ref().map_or(0, |m| m.epoch) + 1;
    let mode = wh.mode();
    let log = wh.etl_log();
    let mut ctx = SaveCtx { stop_at, steps: 0 };

    ctx.step()?;
    let mut journal = Journal::create(dir)?;
    journal.append(log, EtlOp::SaveBegin { epoch })?;

    // Snapshot the catalog tables under the shared read lock, then let
    // queries flow again while everything is encoded and written.
    let snapshots: Vec<(String, Table)> = {
        let catalog = wh.catalog();
        mode_tables(mode)
            .iter()
            .map(|name| {
                catalog
                    .table(name)
                    .cloned()
                    .map(|t| (name.to_string(), t))
                    .ok_or_else(|| internal(format!("table {name} missing")))
            })
            .collect::<Result<_>>()?
    };

    let mut bytes_total = 0u64;
    let mut tables = Vec::new();
    let mut manifest_tables = Vec::new();
    for (name, table) in &snapshots {
        let fname = format!("{name}.e{epoch}.lztb");
        let buf = table_to_footered_bytes(table)?;
        let checksum =
            embedded_footer_checksum(&buf).expect("footered tables always carry a footer");
        ctx.write_atomic(&dir.join(&fname), &buf)?;
        ctx.step()?;
        journal.append(
            log,
            EtlOp::SaveTable {
                name: fname.clone(),
                bytes: buf.len() as u64,
                checksum,
            },
        )?;
        bytes_total += buf.len() as u64;
        manifest_tables.push(SavedFile {
            name: fname.clone(),
            bytes: buf.len() as u64,
            checksum,
            entries: 0,
            shard: 0,
        });
        tables.push(fname);
    }

    // Column statistics + the ordered time index ride along with every
    // save, computed from the very snapshots written above so they can
    // never describe different rows. Reopen seeds zone maps and the
    // pruning seek from them instead of recomputing.
    let stats_payload: Vec<(String, Vec<ColumnStats>)> = snapshots
        .iter()
        .map(|(name, table)| (name.clone(), table_stats(table)))
        .collect();
    let mut stats_buf = stats_to_bytes(&stats_payload);
    append_footer(&mut stats_buf);
    let stats_name = format!("{STATS_BASE}.e{epoch}.lzst");
    let stats_checksum = embedded_footer_checksum(&stats_buf).expect("footer appended just above");
    ctx.write_atomic(&dir.join(&stats_name), &stats_buf)?;
    ctx.step()?;
    journal.append(
        log,
        EtlOp::SaveTable {
            name: stats_name.clone(),
            bytes: stats_buf.len() as u64,
            checksum: stats_checksum,
        },
    )?;
    bytes_total += stats_buf.len() as u64;
    let manifest_stats = SavedFile {
        name: stats_name,
        bytes: stats_buf.len() as u64,
        checksum: stats_checksum,
        entries: 0,
        shard: 0,
    };

    let records_snapshot = snapshots
        .iter()
        .find(|(n, _)| n == RECORDS_TABLE)
        .map(|(_, t)| t)
        .ok_or_else(|| internal("records snapshot missing"))?;
    let index_table = LocatorIndex::build(records_snapshot)?.to_time_index_table()?;
    let index_buf = table_to_footered_bytes(&index_table)?;
    let index_name = format!("{TIMEINDEX_BASE}.e{epoch}.lztb");
    let index_checksum =
        embedded_footer_checksum(&index_buf).expect("footered tables always carry a footer");
    ctx.write_atomic(&dir.join(&index_name), &index_buf)?;
    ctx.step()?;
    journal.append(
        log,
        EtlOp::SaveTable {
            name: index_name.clone(),
            bytes: index_buf.len() as u64,
            checksum: index_checksum,
        },
    )?;
    bytes_total += index_buf.len() as u64;
    let manifest_index = SavedFile {
        name: index_name,
        bytes: index_buf.len() as u64,
        checksum: index_checksum,
        entries: 0,
        shard: 0,
    };

    // Cache segments (lazy mode): encode shards in parallel on the same
    // worker pool as extraction, write sequentially (ordered crash
    // points). Empty shards produce no file.
    let mut segments = Vec::new();
    let mut manifest_segments = Vec::new();
    let mut saved_shards = 0usize;
    if mode == Mode::Lazy {
        let shards = wh.record_cache().export_shards();
        saved_shards = shards.len();
        let threads = if stop_at.is_some() {
            1
        } else {
            wh.config().extraction_threads.max(1)
        };
        let indexed: Vec<(usize, &Vec<SegmentEntry>)> = shards
            .iter()
            .enumerate()
            .filter(|(_, entries)| !entries.is_empty())
            .collect();
        let encoded: Vec<Result<Vec<u8>>> =
            parallel_map(&indexed, threads, |(_, entries)| encode_segment(entries));
        for ((shard, entries), buf) in indexed.into_iter().zip(encoded) {
            let buf = buf?;
            let info = segment_info(entries.len(), &buf);
            let rel = format!("segments.e{epoch}/shard_{shard:03}.lzsg");
            ctx.write_atomic(&dir.join(&rel), &buf)?;
            ctx.step()?;
            journal.append(
                log,
                EtlOp::SaveSegment {
                    shard,
                    path: rel.clone(),
                    entries: info.entries,
                    bytes: info.bytes,
                    checksum: info.checksum,
                },
            )?;
            bytes_total += info.bytes;
            manifest_segments.push(SavedFile {
                name: rel.clone(),
                bytes: info.bytes,
                checksum: info.checksum,
                entries: info.entries,
                shard,
            });
            segments.push(rel);
        }
    }

    // Commit: render the manifest and rename it into place.
    let mut manifest = format!(
        "{MANIFEST_V2}\nmode={}\nepoch={epoch}\nshards={saved_shards}\n",
        mode_str(mode)
    );
    for t in &manifest_tables {
        manifest.push_str(&format!("table {} {:x} {}\n", t.bytes, t.checksum, t.name));
    }
    manifest.push_str(&format!(
        "stats {} {:x} {}\n",
        manifest_stats.bytes, manifest_stats.checksum, manifest_stats.name
    ));
    manifest.push_str(&format!(
        "index {} {:x} {}\n",
        manifest_index.bytes, manifest_index.checksum, manifest_index.name
    ));
    for s in &manifest_segments {
        manifest.push_str(&format!(
            "segment {} {} {} {:x} {}\n",
            s.shard, s.entries, s.bytes, s.checksum, s.name
        ));
    }
    ctx.write_atomic(&dir.join(MANIFEST_NAME), manifest.as_bytes())?;
    ctx.step()?;
    journal.append(log, EtlOp::SaveCommit { epoch })?;

    // Cleanup: the previous epoch's files are now unreachable.
    let mut removed = 0u64;
    if let Some(prev) = &prev {
        for f in prev
            .tables
            .iter()
            .chain(&prev.segments)
            .chain(&prev.stats)
            .chain(&prev.time_index)
        {
            ctx.remove(&dir.join(&f.name), &mut removed)?;
        }
        ctx.remove(&dir.join(format!("segments.e{}", prev.epoch)), &mut removed)?;
    }
    ctx.step()?;
    journal.append(log, EtlOp::SaveCleanup { epoch })?;

    Ok(SaveReport {
        mode,
        bytes: bytes_total,
        tables,
        segments,
        stats_file: Some(manifest_stats.name.clone()),
        index_file: Some(manifest_index.name.clone()),
        epoch,
        crash_points: ctx.steps,
    })
}

/// Per-table column statistics as persisted in the snapshot's stats
/// section: one `(table name, per-column stats)` entry per saved table.
pub type SavedStats = Vec<(String, Vec<ColumnStats>)>;

/// Load the persisted column statistics of a saved warehouse, verified
/// against both the embedded footer and the manifest checksum. Returns
/// `Ok(None)` for snapshots that predate the stats section.
pub fn load_saved_stats(dir: &Path, manifest: &SavedManifest) -> Result<Option<SavedStats>> {
    let Some(f) = &manifest.stats else {
        return Ok(None);
    };
    let bytes = std::fs::read(dir.join(&f.name)).map_err(internal)?;
    let (payload, sum) = split_footer(&bytes)?;
    if sum != f.checksum {
        return Err(internal(format!(
            "stats {} checksum {sum:#x} != manifest {:#x}",
            f.name, f.checksum
        )));
    }
    Ok(Some(stats_from_bytes(payload)?))
}

/// Load the persisted ordered time index of a saved warehouse, verified
/// against the manifest checksum. Returns `Ok(None)` for snapshots that
/// predate the index section.
pub fn load_saved_time_index(dir: &Path, manifest: &SavedManifest) -> Result<Option<Table>> {
    let Some(f) = &manifest.time_index else {
        return Ok(None);
    };
    let (table, sum) = load_table_verified(&dir.join(&f.name))?;
    if sum != f.checksum {
        return Err(internal(format!(
            "time index {} checksum {sum:#x} != manifest {:#x}",
            f.name, f.checksum
        )));
    }
    Ok(Some(table))
}

/// The segments a reopening warehouse should attach for rehydration:
/// `(saved shard count, [(shard, pending segment)])`. `valid` maps
/// file_id → current mtime for files whose saved rows survived the
/// reopen reconciliation unchanged.
pub fn segments_to_attach(
    dir: &Path,
    manifest: &SavedManifest,
    valid: std::collections::HashMap<i64, lazyetl_mseed::Timestamp>,
) -> (usize, Vec<(usize, PendingSegment)>) {
    // One shared map: the reconciliation verdict is per-file, so every
    // segment reads (and every revocation writes) the same instance.
    let valid = std::sync::Arc::new(std::sync::Mutex::new(valid));
    let segs = manifest
        .segments
        .iter()
        .map(|s| {
            (
                s.shard,
                PendingSegment {
                    path: dir.join(&s.name),
                    checksum: s.checksum,
                    valid: valid.clone(),
                },
            )
        })
        .collect();
    (manifest.shards, segs)
}

/// Stray temp files or epoch debris present in a saved directory —
/// diagnostics for tests asserting a directory is clean.
pub fn stray_files(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let live = read_manifest(dir).ok().map(|m| m.epoch);
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().to_string())
        .filter(|name| is_stale_name(name, live))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warehouse::WarehouseConfig;
    use lazyetl_mseed::gen::{generate_repository, GeneratorConfig};
    use std::path::PathBuf;

    fn setup(tag: &str) -> (PathBuf, PathBuf) {
        let root =
            std::env::temp_dir().join(format!("lazyetl_persist_wh_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let repo = root.join("repo");
        std::fs::create_dir_all(&repo).unwrap();
        generate_repository(&repo, &GeneratorConfig::tiny(31)).unwrap();
        (root, repo)
    }

    fn cfg() -> WarehouseConfig {
        WarehouseConfig {
            auto_refresh: false,
            ..Default::default()
        }
    }

    #[test]
    fn save_and_reload_lazy() {
        let (root, repo) = setup("lazy");
        let wh = Warehouse::open_lazy(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        let report = save_warehouse(&wh, &saved).unwrap();
        assert_eq!(report.mode, Mode::Lazy);
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.epoch, 1);
        assert!(report.bytes > 0);
        assert!(report.crash_points > 5);
        assert_eq!(saved_mode(&saved).unwrap(), Mode::Lazy);
        let (files, records, data) = load_saved_tables(&saved).unwrap();
        assert_eq!(files.num_rows(), wh.load_report().files);
        assert_eq!(records.num_rows(), wh.load_report().records);
        assert!(data.is_none());
        // Stats + time index ride along with every v2 save.
        assert_eq!(report.stats_file.as_deref(), Some("stats.e1.lzst"));
        assert_eq!(report.index_file.as_deref(), Some("timeindex.e1.lztb"));
        let manifest = read_manifest(&saved).unwrap();
        let stats = load_saved_stats(&saved, &manifest)
            .unwrap()
            .expect("stats persisted");
        assert!(stats.iter().any(|(n, _)| n == FILES_TABLE));
        assert!(stats.iter().any(|(n, _)| n == RECORDS_TABLE));
        let idx = load_saved_time_index(&saved, &manifest)
            .unwrap()
            .expect("time index persisted");
        assert_eq!(idx.num_rows(), wh.load_report().records);
        assert!(stray_files(&saved).is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pre_upgrade_v2_manifest_opens_statless() {
        let (root, repo) = setup("statless");
        let wh = Warehouse::open_lazy(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        save_warehouse(&wh, &saved).unwrap();
        // Rewrite the manifest without its stats/index lines — exactly
        // what a snapshot written before the sections existed looks like
        // — and delete the now-unreferenced files.
        let text = std::fs::read_to_string(saved.join(MANIFEST_NAME)).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("stats ") && !l.starts_with("index "))
            .map(|l| format!("{l}\n"))
            .collect();
        lazyetl_store::persist::write_file_atomic(&saved.join(MANIFEST_NAME), stripped.as_bytes())
            .unwrap();
        std::fs::remove_file(saved.join("stats.e1.lzst")).unwrap();
        std::fs::remove_file(saved.join("timeindex.e1.lztb")).unwrap();
        let manifest = read_manifest(&saved).unwrap();
        assert!(manifest.stats.is_none());
        assert!(manifest.time_index.is_none());
        assert!(load_saved_stats(&saved, &manifest).unwrap().is_none());
        assert!(load_saved_time_index(&saved, &manifest).unwrap().is_none());
        // The tables themselves still load: the snapshot is usable.
        assert!(load_saved_tables(&saved).is_ok());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn save_and_reload_eager_keeps_data() {
        let (root, repo) = setup("eager");
        let wh = Warehouse::open_eager(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        let report = save_warehouse(&wh, &saved).unwrap();
        assert_eq!(report.tables.len(), 3);
        assert!(report.segments.is_empty(), "eager mode has no record cache");
        let (_, _, data) = load_saved_tables(&saved).unwrap();
        let d = data.expect("eager saves D");
        assert_eq!(d.num_rows() as u64, wh.load_report().samples_loaded);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_or_corrupt_manifest_rejected() {
        let dir = std::env::temp_dir().join(format!("lazyetl_persist_bad_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(saved_mode(&dir).is_err());
        std::fs::write(dir.join(MANIFEST_NAME), "garbage\nmode=lazy\n").unwrap();
        assert!(saved_mode(&dir).is_err());
        std::fs::write(
            dir.join(MANIFEST_NAME),
            "lazyetl-warehouse-v1\nmode=sideways\n",
        )
        .unwrap();
        assert!(saved_mode(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_save_bumps_epoch_and_cleans_previous() {
        let (root, repo) = setup("epochs");
        let wh = Warehouse::open_lazy(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        let r1 = save_warehouse(&wh, &saved).unwrap();
        // Warm the cache so the second save has segments too.
        wh.query("SELECT COUNT(D.sample_value) FROM mseed.dataview")
            .unwrap();
        let r2 = save_warehouse(&wh, &saved).unwrap();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r2.epoch, 2);
        assert!(!r2.segments.is_empty(), "warm cache produced segments");
        assert!(saved.join("files.e2.lztb").exists());
        assert!(!saved.join("files.e1.lztb").exists(), "old epoch swept");
        assert!(saved.join("stats.e2.lzst").exists());
        assert!(!saved.join("stats.e1.lzst").exists(), "old stats swept");
        assert!(saved.join("timeindex.e2.lztb").exists());
        assert!(!saved.join("timeindex.e1.lztb").exists());
        assert!(stray_files(&saved).is_empty());
        let manifest = read_manifest(&saved).unwrap();
        assert_eq!(manifest.epoch, 2);
        assert_eq!(manifest.segments.len(), r2.segments.len());
        // The journal replays begin → tables → segments → commit → cleanup.
        let ops = replay_journal(&saved);
        assert!(matches!(ops.first(), Some(EtlOp::SaveBegin { epoch: 2 })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, EtlOp::SaveCommit { epoch: 2 })));
        assert!(ops
            .iter()
            .any(|op| matches!(op, EtlOp::SaveCleanup { epoch: 2 })));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn v1_manifest_is_an_unsupported_version() {
        let (root, repo) = setup("v1gone");
        let wh = Warehouse::open_lazy(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        save_warehouse(&wh, &saved).unwrap();
        std::fs::write(
            saved.join(MANIFEST_NAME),
            "lazyetl-warehouse-v1\nmode=lazy\n",
        )
        .unwrap();
        for err in [
            read_manifest(&saved).unwrap_err(),
            Warehouse::open_saved(&repo, &saved, cfg()).err().unwrap(),
        ] {
            assert!(
                err.to_string()
                    .contains("unsupported warehouse manifest version"),
                "{err}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_manifest_with_committed_journal_is_preserved() {
        let (root, repo) = setup("lostmani");
        let wh = Warehouse::open_lazy(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        save_warehouse(&wh, &saved).unwrap();
        std::fs::remove_file(saved.join(MANIFEST_NAME)).unwrap();
        // The journal proves a commit: recovery must not sweep, the open
        // must fail loudly, and a fresh save must refuse to clobber.
        let report = recover_saved_dir(&saved).unwrap();
        assert!(report.removed.is_empty(), "swept: {:?}", report.removed);
        assert!(saved.join("files.e1.lztb").exists());
        assert!(saved.join("records.e1.lztb").exists());
        assert!(read_manifest(&saved).is_err());
        let err = save_warehouse(&wh, &saved).unwrap_err();
        assert!(err.to_string().contains("refusing"), "{err}");
        assert!(saved.join("files.e1.lztb").exists(), "data survived");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn recovery_sweeps_uncommitted_epoch() {
        let (root, repo) = setup("recover");
        let wh = Warehouse::open_lazy(&repo, cfg()).unwrap();
        let saved = root.join("saved");
        save_warehouse(&wh, &saved).unwrap();
        // Fake an interrupted second save: epoch-2 debris + tmp + journal
        // with begin but no commit.
        std::fs::write(saved.join("files.e2.lztb"), b"partial").unwrap();
        std::fs::write(saved.join("MANIFEST.tmp"), b"half a manifest").unwrap();
        std::fs::create_dir_all(saved.join("segments.e2")).unwrap();
        std::fs::write(saved.join(JOURNAL_NAME), "begin epoch=2\n").unwrap();
        let report = recover_saved_dir(&saved).unwrap();
        assert_eq!(report.rolled_back, Some(2));
        assert!(!saved.join("files.e2.lztb").exists());
        assert!(!saved.join("MANIFEST.tmp").exists());
        assert!(!saved.join("segments.e2").exists());
        // Epoch 1 (committed) is untouched and still opens.
        assert_eq!(read_manifest(&saved).unwrap().epoch, 1);
        assert!(load_saved_tables(&saved).is_ok());
        std::fs::remove_dir_all(&root).ok();
    }
}
