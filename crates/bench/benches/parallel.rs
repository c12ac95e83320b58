//! E10: parallel lazy extraction — wall-clock speedup of decoding
//! independent files concurrently, with results proven byte-identical by
//! `tests/parallel_extraction.rs`.
//!
//! The workload is extraction-bound: one record from *every* file of the
//! repository (a calibration sweep, in seismology terms), so per-query
//! time is dominated by per-file decode + materialize work that the
//! thread pool can overlap. The cache is disabled so each iteration
//! re-extracts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lazyetl_bench::{scale_repo, ScaleName};
use lazyetl_core::warehouse::{Warehouse, WarehouseConfig};
use std::hint::black_box;

/// Touches every file (seq_no 1 exists in each) but keeps the result and
/// the downstream join/aggregate small.
const SWEEP: &str = "SELECT COUNT(D.sample_value) FROM mseed.dataview WHERE R.seq_no = 1";

fn bench_parallel(c: &mut Criterion) {
    let repo = scale_repo(ScaleName::Medium);
    let mut group = c.benchmark_group("parallel_extraction");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let wh = Warehouse::open_lazy(
            &repo,
            WarehouseConfig {
                auto_refresh: false,
                cache_budget_bytes: 0,
                extraction_threads: threads,
                ..Default::default()
            },
        )
        .expect("attach");
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                let out = wh.query(black_box(SWEEP)).expect("query");
                black_box(out.report.samples_extracted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
