//! Parallel lazy extraction: decode several files' records concurrently.
//!
//! The lazy rewriter hands the warehouse a set of (file, record) pairs to
//! materialize. Files are independent — each has its own byte ranges and
//! codec state — so extraction parallelizes at file granularity with no
//! shared mutable state beyond the lock-striped record cache. Workers
//! **admit each record to the cache as soon as it is materialized**
//! ([`extract_groups_into`]): a record's shard is the hash of its
//! `(file_id, seq_no)` key, so concurrent workers land on different
//! stripes and never serialize on one global lock. Cache triage before
//! and row assembly after stay sequential in the caller, so the assembled
//! `D` rows are byte-identical to the sequential path regardless of
//! thread count, and the set of cached records is too (only intra-shard
//! admission *order* can vary when workers share a stripe).
//!
//! This is an extension beyond the paper's single-threaded demo (its
//! "near real-time ETL" outlook, §1); experiment E10 measures the
//! speedup against extraction-bound queries and E12 drives it from many
//! client threads at once.

use crate::cache::RecyclingCache;
use crate::error::{EtlError, Result};
use crate::extract::{FormatRegistry, RecordLocator};
use lazyetl_mseed::Timestamp;
use lazyetl_repo::{FileEntry, LazySource};
use lazyetl_store::Table;
use std::sync::Arc;

pub use lazyetl_store::parallel::{parallel_map, try_parallel_map, WorkerPanic};

/// One record decoded and materialized into its `D`-schema rows.
#[derive(Debug, Clone)]
pub struct ExtractedRecord {
    /// Record sequence number (the cache key component).
    pub seq_no: i64,
    /// Samples decoded.
    pub samples: usize,
    /// The record's `D` rows, ready to append and cache.
    pub table: Arc<Table>,
    /// Entries evicted from the record's cache shard when this record was
    /// admitted by the extraction worker (0 when no cache was supplied).
    pub evicted_on_admit: usize,
}

/// One file's worth of work for the fetch pipeline: the cache triage
/// result (phase A) and the extraction input (phase B).
///
/// Carries the [`LazySource`] the entry came from — extraction workers
/// route reads through it — and the **warehouse-global** file id, which
/// in a federated warehouse differs from `entry.id` (the mount-local id).
#[derive(Debug)]
pub struct FileGroup<'a> {
    /// The source the entry belongs to (reads go through it).
    pub source: &'a dyn LazySource,
    /// Warehouse-global file id: the cache key and `D.file_id` value.
    pub file_id: i64,
    /// Mount-qualified URI for logs and accounting.
    pub display_uri: String,
    /// The repository entry to extract from.
    pub entry: FileEntry,
    /// The file's modification time observed at triage; extracted records
    /// are admitted to the cache under this timestamp.
    pub current_mtime: Timestamp,
    /// Tables served from the cache, in the order the pairs were seen.
    pub hit_tables: Vec<Arc<Table>>,
    /// Locators still requiring extraction, sorted by byte offset.
    pub to_extract: Vec<RecordLocator>,
}

/// Extract every group's records, materialize their `D` rows, and — when a
/// cache is supplied — **admit each record to its cache shard from the
/// worker that decoded it**, using up to `threads` worker threads.
///
/// Decoding, columnar materialization and cache admission all run on the
/// workers — the per-record costs that are independent across files.
/// Admission from workers is what lets N extraction threads feed the
/// lock-striped cache without serializing on one lock; the per-record
/// eviction count is reported in [`ExtractedRecord::evicted_on_admit`] so
/// the caller can keep its accounting. Results are positionally aligned
/// with `groups` (and within a group with its `to_extract` list); groups
/// with nothing to extract yield an empty vector without touching the
/// file. With `threads <= 1` the work runs on the calling thread in group
/// order, which is the paper's sequential behaviour — including admission,
/// so cached contents match the parallel path.
pub fn extract_groups_into(
    extractor: &FormatRegistry,
    groups: &[FileGroup<'_>],
    threads: usize,
    cache: Option<&RecyclingCache>,
) -> Vec<Result<Vec<ExtractedRecord>>> {
    let work: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.to_extract.is_empty())
        .map(|(i, _)| i)
        .collect();
    // Panics in a worker are contained per file: one poisoned record
    // fails that group with an `EtlError` instead of unwinding through
    // the pool and killing every other group (and the serving worker
    // that issued the query).
    let results = try_parallel_map(&work, threads, |&i| {
        extract_one(extractor, &groups[i], cache)
    });
    let mut out: Vec<Result<Vec<ExtractedRecord>>> =
        groups.iter().map(|_| Ok(Vec::new())).collect();
    for (&i, r) in work.iter().zip(results) {
        out[i] = match r {
            Ok(r) => r,
            Err(p) => Err(EtlError::Internal(format!("extraction {p}"))),
        };
    }
    out
}

fn extract_one(
    extractor: &FormatRegistry,
    group: &FileGroup<'_>,
    cache: Option<&RecyclingCache>,
) -> Result<Vec<ExtractedRecord>> {
    let file_id = group.file_id;
    extractor
        .for_entry(&group.entry)?
        .extract_records(group.source, &group.entry, &group.to_extract)?
        .into_iter()
        .map(|rd| {
            let table = Arc::new(rd.to_table(file_id)?);
            let evicted_on_admit = match cache {
                Some(c) => c.insert((file_id, rd.seq_no), table.clone(), group.current_mtime),
                None => 0,
            };
            Ok(ExtractedRecord {
                seq_no: rd.seq_no,
                samples: rd.values.len(),
                table,
                evicted_on_admit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyetl_mseed::gen::{generate_repository, GeneratorConfig};
    use lazyetl_repo::Repository;

    fn temp_repo(tag: &str) -> (std::path::PathBuf, Repository) {
        let root = std::env::temp_dir().join(format!("lazyetl_par_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        let config = GeneratorConfig {
            files_per_stream: 3,
            file_duration_secs: 60,
            seed: 0xAA17,
            ..Default::default()
        };
        generate_repository(&root, &config).unwrap();
        let repo = Repository::open(root.clone()).unwrap();
        (root, repo)
    }

    fn groups_for<'a>(repo: &'a Repository, extractor: &FormatRegistry) -> Vec<FileGroup<'a>> {
        repo.files()
            .iter()
            .map(|entry| {
                let md = extractor
                    .for_entry(entry)
                    .unwrap()
                    .scan_metadata(repo, entry)
                    .unwrap();
                FileGroup {
                    source: repo,
                    file_id: entry.id.0 as i64,
                    display_uri: entry.uri.clone(),
                    entry: entry.clone(),
                    current_mtime: entry.mtime,
                    hit_tables: Vec::new(),
                    to_extract: md
                        .records
                        .iter()
                        .map(|r| RecordLocator {
                            seq_no: r.seq_no,
                            byte_offset: r.byte_offset as u64,
                            record_length: r.record_length as u32,
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let (root, repo) = temp_repo("eq");
        let extractor = FormatRegistry::default();
        let groups = groups_for(&repo, &extractor);
        assert!(groups.len() > 2, "need several files to parallelize");

        let seq = extract_groups_into(&extractor, &groups, 1, None);
        for threads in [2, 4, 8] {
            let par = extract_groups_into(&extractor, &groups, threads, None);
            assert_eq!(par.len(), seq.len());
            for (a, b) in seq.iter().zip(&par) {
                let a = a.as_ref().unwrap();
                let b = b.as_ref().unwrap();
                assert_eq!(a.len(), b.len());
                for (ra, rb) in a.iter().zip(b) {
                    assert_eq!(ra.seq_no, rb.seq_no);
                    assert_eq!(ra.samples, rb.samples);
                    assert_eq!(
                        ra.table.to_ascii(ra.samples + 1),
                        rb.table.to_ascii(rb.samples + 1)
                    );
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_groups_do_not_touch_files() {
        let (root, repo) = temp_repo("empty");
        let extractor = FormatRegistry::default();
        let mut groups = groups_for(&repo, &extractor);
        for g in &mut groups {
            g.to_extract.clear();
        }
        // Even with a bogus path the empty group must not error, because
        // the file is never opened.
        groups[0].entry.path = std::path::PathBuf::from("/nonexistent/file.mseed");
        let results = extract_groups_into(&extractor, &groups, 4, None);
        for r in results {
            assert!(r.unwrap().is_empty());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn workers_admit_records_to_the_sharded_cache() {
        let (root, repo) = temp_repo("admit");
        let extractor = FormatRegistry::default();
        let groups = groups_for(&repo, &extractor);
        let cache = RecyclingCache::new(256 << 20);
        let results = extract_groups_into(&extractor, &groups, 4, Some(&cache));
        let total: usize = results.iter().map(|r| r.as_ref().unwrap().len()).sum();
        assert!(total > 0);
        assert_eq!(cache.len(), total, "every extracted record was admitted");
        // Every admitted record serves a hit at its triage mtime.
        for (g, rs) in groups.iter().zip(&results) {
            for r in rs.as_ref().unwrap() {
                assert!(matches!(
                    cache.get((g.entry.id.0 as i64, r.seq_no), g.current_mtime),
                    crate::cache::CacheLookup::Hit(_)
                ));
                assert_eq!(r.evicted_on_admit, 0, "ample budget evicts nothing");
            }
        }
        // The no-cache variant leaves the cache untouched.
        let cache2 = RecyclingCache::new(256 << 20);
        let _ = extract_groups_into(&extractor, &groups, 4, None);
        assert!(cache2.is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn parallel_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [0usize, 1, 2, 4, 16] {
            assert_eq!(parallel_map(&items, threads, |&x| x * x), expect);
        }
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x: &u64| x).is_empty());
    }

    #[test]
    fn extraction_errors_are_reported_per_group() {
        let (root, repo) = temp_repo("err");
        let extractor = FormatRegistry::default();
        let mut groups = groups_for(&repo, &extractor);
        groups[1].entry.path = std::path::PathBuf::from("/nonexistent/file.mseed");
        let results = extract_groups_into(&extractor, &groups, 4, None);
        assert!(results[0].is_ok());
        assert!(
            results[1].is_err(),
            "missing file surfaces as that group's error"
        );
        if results.len() > 2 {
            assert!(results[2].is_ok(), "other groups are unaffected");
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
