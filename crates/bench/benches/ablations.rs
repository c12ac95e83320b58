//! E4b ablations: what each §3.1 mechanism buys.
//!
//! The same selective query (Figure-1 Q1) runs with individual lazy-ETL
//! mechanisms disabled. Caching is off throughout so every iteration pays
//! the true extraction cost of its configuration:
//!
//! * `full`              — metadata-predicates-first + record pruning;
//! * `no-metadata-first` — compile-time pushdown disabled: the rewriter
//!   sees no metadata join it can execute early, degenerating to a
//!   full-repository extraction (the paper's worst case);
//! * `no-record-pruning` — file-level selection only: every record of the
//!   qualifying files is decoded, including those outside the two-second
//!   sample window.

use criterion::{criterion_group, criterion_main, Criterion};
use lazyetl_bench::{scale_repo, ScaleName, FIGURE1_Q1};
use lazyetl_core::warehouse::{Warehouse, WarehouseConfig};
use std::hint::black_box;

fn config(metadata_first: bool, pruning: bool) -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        cache_budget_bytes: 0,
        metadata_predicate_first: metadata_first,
        record_level_pruning: pruning,
        ..Default::default()
    }
}

fn bench_ablations(c: &mut Criterion) {
    let repo = scale_repo(ScaleName::Small);
    let mut group = c.benchmark_group("ablation_q1");
    group.sample_size(10);
    for (label, meta_first, pruning) in [
        ("full", true, true),
        ("no-metadata-first", false, true),
        ("no-record-pruning", true, false),
    ] {
        let wh = Warehouse::open_lazy(&repo, config(meta_first, pruning)).expect("attach");
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = wh.query(black_box(FIGURE1_Q1)).expect("query");
                black_box(out.report.records_extracted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
