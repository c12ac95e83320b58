//! E11: the two recycler levels of §3.3 compared on a warm repeated query.
//!
//! * `cold`           — no caching at all: every run re-extracts;
//! * `record-cache`   — the paper's recycler: extracted record payloads
//!   are reused, but transformation + query execution re-run;
//! * `result-recycler` — the "end result of a view" level: the final
//!   table is served directly from the cache keyed by the SQL text.

use criterion::{criterion_group, criterion_main, Criterion};
use lazyetl_bench::{scale_repo, ScaleName, FIGURE1_Q2};
use lazyetl_core::warehouse::{Warehouse, WarehouseConfig};
use std::hint::black_box;

fn bench_recycling(c: &mut Criterion) {
    let repo = scale_repo(ScaleName::Small);
    let mut group = c.benchmark_group("recycling_q2");
    group.sample_size(10);

    let variants: [(&str, WarehouseConfig); 3] = [
        (
            "cold",
            WarehouseConfig {
                auto_refresh: false,
                cache_budget_bytes: 0,
                ..Default::default()
            },
        ),
        (
            "record-cache",
            WarehouseConfig {
                auto_refresh: false,
                ..Default::default()
            },
        ),
        (
            "result-recycler",
            WarehouseConfig {
                auto_refresh: false,
                recycle_query_results: true,
                ..Default::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let wh = Warehouse::open_lazy(&repo, cfg).expect("attach");
        // Warm both cache levels before measuring.
        wh.query(FIGURE1_Q2).expect("warmup");
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = wh.query(black_box(FIGURE1_Q2)).expect("query");
                black_box(out.report.rows)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recycling);
criterion_main!(benches);
