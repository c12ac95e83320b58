//! The ETL operations log.
//!
//! Demo item (8): "looking through the log to see what operations are
//! performed and in which order". Every warehouse operation appends an
//! entry; tests and the observability example read them back.
//!
//! The log is internally synchronized (a mutex around the entry list), so
//! appending takes `&self` and concurrent queries interleave their entries
//! in arrival order — one total order, exactly what the demo's "in which
//! order" item needs.
//!
//! It is a window, not an archive: at most `LOG_CAPACITY` (65 536) entries are
//! held and the oldest is dropped to admit a new one, so a server that
//! answers queries for weeks holds a bounded log. Sequence numbers keep
//! counting, and [`EtlLog::dropped`] says how many entries have left.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One operation category.
#[derive(Debug, Clone, PartialEq)]
pub enum EtlOp {
    /// Metadata of one file loaded into F/R.
    MetadataLoad {
        /// Repository URI.
        uri: String,
        /// Number of record-metadata rows produced.
        records: usize,
        /// Bytes read to scan the metadata.
        bytes_read: u64,
    },
    /// Actual data extracted from a file (lazy or eager).
    Extract {
        /// Repository URI.
        uri: String,
        /// Number of records decoded.
        records: usize,
        /// Number of samples produced.
        samples: usize,
    },
    /// A needed record range was served from the cache.
    CacheHit {
        /// Repository URI.
        uri: String,
        /// Records served.
        records: usize,
    },
    /// Entries evicted to make room.
    CacheEvict {
        /// Number of entries evicted.
        entries: usize,
        /// Bytes reclaimed.
        bytes: usize,
    },
    /// A stale cache entry was detected and dropped (lazy refresh).
    StaleDrop {
        /// Repository URI whose entries were dropped.
        uri: String,
    },
    /// Metadata rows of a changed file were re-loaded.
    MetadataRefresh {
        /// Repository URI.
        uri: String,
    },
    /// A compile-time or run-time plan rewrite took place.
    PlanRewrite {
        /// Which stage ("optimize", "lazy-extract", …).
        stage: String,
        /// Short description of what changed.
        detail: String,
    },
    /// A whole query result was served by the result recycler.
    ResultRecycleHit {
        /// Rows served.
        rows: usize,
    },
    /// A query result was admitted to the result recycler.
    ResultRecycleAdmit {
        /// Rows admitted.
        rows: usize,
        /// Bytes admitted.
        bytes: usize,
    },
    /// A query started.
    QueryStart {
        /// The SQL text.
        sql: String,
    },
    /// A query finished.
    QueryFinish {
        /// Result row count.
        rows: usize,
        /// Elapsed microseconds.
        elapsed_us: u64,
    },
    /// A durable save started (journaled).
    SaveBegin {
        /// Snapshot epoch being written.
        epoch: u64,
    },
    /// A catalog table reached disk during a durable save (journaled).
    SaveTable {
        /// File name inside the saved directory.
        name: String,
        /// Bytes written (footer included).
        bytes: u64,
        /// Body checksum.
        checksum: u64,
    },
    /// A cache shard segment reached disk during a durable save
    /// (journaled).
    SaveSegment {
        /// Shard index the segment was exported from.
        shard: usize,
        /// Relative path inside the saved directory.
        path: String,
        /// Entries written.
        entries: usize,
        /// Bytes written (footer included).
        bytes: u64,
        /// Body checksum.
        checksum: u64,
    },
    /// The manifest rename made a new snapshot epoch authoritative
    /// (journaled — the commit point of a durable save).
    SaveCommit {
        /// Now-authoritative epoch.
        epoch: u64,
    },
    /// Obsolete files of the previous epoch were removed (journaled).
    SaveCleanup {
        /// The epoch whose save completed cleanup.
        epoch: u64,
    },
    /// Journal replay at reopen rolled back an interrupted save.
    RecoveryRollback {
        /// The epoch whose partial files were discarded.
        epoch: u64,
    },
    /// A refresh produced a record-level delta for incremental result
    /// maintenance (new generation, what changed, whether the change was
    /// insert-only — the precondition for patching).
    RefreshDelta {
        /// The generation the refresh moved the warehouse to.
        generation: u64,
        /// Files that newly appeared.
        added_files: usize,
        /// Record-metadata rows the added files contributed.
        added_records: usize,
        /// True when nothing was modified or removed (patchable delta).
        insert_only: bool,
    },
    /// A resident recycled result was patched in place from a refresh
    /// delta instead of being dropped.
    ResultPatch {
        /// Delta rows folded into the entry (appended rows or touched
        /// group states).
        rows: usize,
    },
    /// A resident recycled result survived a refresh untouched because its
    /// referenced tables/time window do not intersect the delta.
    ResultKeep {
        /// Bytes that did not need recomputing.
        bytes: usize,
    },
    /// A resident recycled result could not be maintained and was dropped
    /// for recompute on next access.
    ResultRecomputeFallback {
        /// Why the entry fell back ("opaque plan", "dirty delta", …).
        reason: String,
    },
}

impl EtlOp {
    /// Serialize a save-related operation as one journal line, or `None`
    /// for operations that are not journaled. The ETL log doubles as the
    /// save path's replayable journal: these lines are appended (and
    /// fsynced) to the `JOURNAL` file in a saved-warehouse directory, and
    /// [`EtlOp::parse_journal_line`] replays them at recovery.
    pub fn journal_line(&self) -> Option<String> {
        Some(match self {
            EtlOp::SaveBegin { epoch } => format!("begin epoch={epoch}"),
            EtlOp::SaveTable {
                name,
                bytes,
                checksum,
            } => format!("table bytes={bytes} checksum={checksum:x} name={name}"),
            EtlOp::SaveSegment {
                shard,
                path,
                entries,
                bytes,
                checksum,
            } => format!(
                "segment shard={shard} entries={entries} bytes={bytes} \
                 checksum={checksum:x} path={path}"
            ),
            EtlOp::SaveCommit { epoch } => format!("commit epoch={epoch}"),
            EtlOp::SaveCleanup { epoch } => format!("cleanup epoch={epoch}"),
            EtlOp::RecoveryRollback { epoch } => format!("rollback epoch={epoch}"),
            _ => return None,
        })
    }

    /// Parse one journal line back into its operation. Unknown or torn
    /// lines (a crash can cut the final append short) yield `None` and
    /// are skipped by replay.
    pub fn parse_journal_line(line: &str) -> Option<EtlOp> {
        let line = line.trim();
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        // `name=`/`path=` come last and may contain spaces; numeric fields
        // are space-separated key=value pairs before them.
        let field = |key: &str| -> Option<&str> {
            rest.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        };
        let tail = |key: &str| -> Option<&str> {
            rest.split_once(&format!("{key}="))
                .map(|(_, v)| v.trim_end())
        };
        let num = |key: &str| field(key).and_then(|v| v.parse::<u64>().ok());
        let hex = |key: &str| field(key).and_then(|v| u64::from_str_radix(v, 16).ok());
        match verb {
            "begin" => Some(EtlOp::SaveBegin {
                epoch: num("epoch")?,
            }),
            "table" => Some(EtlOp::SaveTable {
                name: tail("name")?.to_string(),
                bytes: num("bytes")?,
                checksum: hex("checksum")?,
            }),
            "segment" => Some(EtlOp::SaveSegment {
                shard: num("shard")? as usize,
                path: tail("path")?.to_string(),
                entries: num("entries")? as usize,
                bytes: num("bytes")?,
                checksum: hex("checksum")?,
            }),
            "commit" => Some(EtlOp::SaveCommit {
                epoch: num("epoch")?,
            }),
            "cleanup" => Some(EtlOp::SaveCleanup {
                epoch: num("epoch")?,
            }),
            "rollback" => Some(EtlOp::RecoveryRollback {
                epoch: num("epoch")?,
            }),
            _ => None,
        }
    }
}

/// A timestamped log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Monotone sequence number.
    pub seq: u64,
    /// Microseconds since the log was created.
    pub at_us: u64,
    /// What happened.
    pub op: EtlOp,
}

/// Entries the log holds before it starts dropping the oldest: at the ~6
/// entries a query pushes, the last ten thousand queries.
pub(crate) const LOG_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct LogInner {
    entries: VecDeque<LogEntry>,
    next_seq: u64,
}

impl LogInner {
    fn dropped(&self) -> u64 {
        self.next_seq - self.entries.len() as u64
    }
}

/// Operations log over the most recent 65 536 entries, safe to share
/// between query threads.
#[derive(Debug)]
pub struct EtlLog {
    started: Instant,
    inner: Mutex<LogInner>,
}

impl Default for EtlLog {
    fn default() -> Self {
        EtlLog::new()
    }
}

impl EtlLog {
    /// A fresh, empty log.
    pub fn new() -> EtlLog {
        EtlLog {
            started: Instant::now(),
            inner: Mutex::new(LogInner {
                entries: VecDeque::new(),
                next_seq: 0,
            }),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("etl log poisoned")
    }

    /// Append one operation, dropping the oldest entry when the log is
    /// full.
    pub fn push(&self, op: EtlOp) {
        let mut inner = self.locked();
        // Read the clock under the lock so `at_us` is monotone in `seq`
        // even when concurrent pushers race to acquire it.
        let at_us = self.started.elapsed().as_micros() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.entries.len() == LOG_CAPACITY {
            inner.entries.pop_front();
        }
        inner.entries.push_back(LogEntry { seq, at_us, op });
    }

    /// A snapshot of the held entries, oldest first.
    pub fn entries(&self) -> Vec<LogEntry> {
        self.locked().entries.iter().cloned().collect()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.locked().entries.len()
    }

    /// Entries pushed but no longer held: overwritten when the log was
    /// full, or cleared.
    pub fn dropped(&self) -> u64 {
        self.locked().dropped()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.locked().entries.is_empty()
    }

    /// Drop all entries (sequence numbers keep increasing).
    pub fn clear(&self) {
        self.locked().entries.clear();
    }

    /// Render the log as text, one line per entry; when entries have been
    /// dropped, a first line says how many.
    pub fn render(&self) -> String {
        let inner = self.locked();
        let mut out = String::new();
        let dropped = inner.dropped();
        if dropped > 0 {
            out.push_str(&format!("[{dropped} older entries dropped]\n"));
        }
        for e in inner.entries.iter() {
            out.push_str(&format!("[{:>6}] t+{:>9}us {:?}\n", e.seq, e.at_us, e.op));
        }
        out
    }

    /// Count entries matching a predicate.
    pub fn count_matching(&self, pred: impl Fn(&EtlOp) -> bool) -> usize {
        self.locked().entries.iter().filter(|e| pred(&e.op)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_and_ordering() {
        let log = EtlLog::new();
        log.push(EtlOp::QueryStart {
            sql: "SELECT 1".into(),
        });
        log.push(EtlOp::QueryFinish {
            rows: 1,
            elapsed_us: 10,
        });
        assert_eq!(log.len(), 2);
        let entries = log.entries();
        assert_eq!(entries[0].seq, 0);
        assert_eq!(entries[1].seq, 1);
        assert!(entries[0].at_us <= entries[1].at_us);
        let rendered = log.render();
        assert!(rendered.contains("QueryStart"));
        assert!(rendered.lines().count() == 2);
    }

    #[test]
    fn clear_keeps_sequence_monotone() {
        let log = EtlLog::new();
        log.push(EtlOp::StaleDrop { uri: "x".into() });
        log.clear();
        assert!(log.is_empty());
        log.push(EtlOp::StaleDrop { uri: "y".into() });
        assert_eq!(log.entries()[0].seq, 1, "seq continues after clear");
    }

    #[test]
    fn full_log_drops_the_oldest_entry() {
        let log = EtlLog::new();
        for _ in 0..LOG_CAPACITY + 10 {
            log.push(EtlOp::CacheEvict {
                entries: 1,
                bytes: 0,
            });
        }
        assert_eq!(log.len(), LOG_CAPACITY);
        assert_eq!(log.entries()[0].seq, 10);
        assert_eq!(log.dropped(), 10);
        assert!(log.render().starts_with("[10 older entries dropped]\n"));
    }

    #[test]
    fn count_matching_filters() {
        let log = EtlLog::new();
        for i in 0..5 {
            log.push(EtlOp::CacheHit {
                uri: format!("f{i}"),
                records: i,
            });
        }
        log.push(EtlOp::StaleDrop { uri: "f0".into() });
        assert_eq!(
            log.count_matching(|op| matches!(op, EtlOp::CacheHit { .. })),
            5
        );
    }

    #[test]
    fn journal_lines_roundtrip() {
        let ops = vec![
            EtlOp::SaveBegin { epoch: 3 },
            EtlOp::SaveTable {
                name: "files.e3.lztb".into(),
                bytes: 1234,
                checksum: 0xdead_beef,
            },
            EtlOp::SaveSegment {
                shard: 2,
                path: "segments.e3/shard_002.lzsg".into(),
                entries: 17,
                bytes: 999,
                checksum: 0xff,
            },
            EtlOp::SaveCommit { epoch: 3 },
            EtlOp::SaveCleanup { epoch: 3 },
            EtlOp::RecoveryRollback { epoch: 4 },
        ];
        for op in &ops {
            let line = op.journal_line().expect("save ops are journaled");
            let back = EtlOp::parse_journal_line(&line).expect("line parses");
            assert_eq!(&back, op, "roundtrip of {line:?}");
        }
        // Non-save ops are not journaled.
        assert!(EtlOp::QueryStart { sql: "q".into() }
            .journal_line()
            .is_none());
        // Torn/garbage lines are skipped, not panicked on.
        for bad in [
            "",
            "beg",
            "begin",
            "begin epoch=",
            "table name=x",
            "commit epoch=zz",
        ] {
            assert!(EtlOp::parse_journal_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn concurrent_pushes_get_distinct_sequence_numbers() {
        let log = EtlLog::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..25 {
                        log.push(EtlOp::CacheHit {
                            uri: format!("t{t}_{i}"),
                            records: i,
                        });
                    }
                });
            }
        });
        let entries = log.entries();
        assert_eq!(entries.len(), 100);
        let mut seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 100, "no duplicate sequence numbers");
        // Timestamps are monotone in sequence order: the clock is read
        // under the same lock that assigns `seq`.
        for pair in entries.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].at_us <= pair[1].at_us, "at_us regressed");
        }
    }
}
