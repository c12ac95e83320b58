//! End-to-end equivalence and cost-asymmetry tests: the lazy warehouse
//! must answer every query identically to the eager baseline, while
//! reading far less data up front.

mod common;

use common::{figure1_repo, FIGURE1_Q1, FIGURE1_Q2};
use lazyetl::store::Value;
use lazyetl::{Mode, Warehouse, WarehouseConfig};

fn no_refresh_config() -> WarehouseConfig {
    WarehouseConfig {
        auto_refresh: false,
        ..Default::default()
    }
}

#[test]
fn figure1_queries_agree_between_modes() {
    let repo = figure1_repo("agree", 512);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let eager = Warehouse::open_eager(&repo.root, no_refresh_config()).unwrap();
    assert_eq!(lazy.mode(), Mode::Lazy);
    assert_eq!(eager.mode(), Mode::Eager);

    for (name, sql) in [("Q1", FIGURE1_Q1), ("Q2", FIGURE1_Q2)] {
        let l = lazy.query(sql).unwrap();
        let e = eager.query(sql).unwrap();
        assert_eq!(
            l.table.num_rows(),
            e.table.num_rows(),
            "{name}: row counts diverge"
        );
        for row in 0..l.table.num_rows() {
            let lr = l.table.row(row).unwrap();
            let er = e.table.row(row).unwrap();
            for (a, b) in lr.iter().zip(&er) {
                match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() < 1e-9, "{name} row {row}: {x} vs {y}")
                    }
                    _ => assert_eq!(a, b, "{name} row {row}"),
                }
            }
        }
    }
}

#[test]
fn q1_produces_a_real_average() {
    let repo = figure1_repo("avg", 512);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let out = lazy.query(FIGURE1_Q1).unwrap();
    assert_eq!(out.table.num_rows(), 1);
    let v = out.table.row(0).unwrap()[0].clone();
    assert!(!v.is_null(), "Q1 window must contain samples");
    // 2 seconds at 40 Hz: candidate sample count is bounded.
    let rewrite = out.report.rewrite.expect("lazy query rewrites");
    assert!(rewrite.fetched_pairs >= 1);
    assert!(!out.report.files_extracted.is_empty());
}

#[test]
fn q2_groups_every_nl_station() {
    let repo = figure1_repo("group", 512);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let out = lazy.query(FIGURE1_Q2).unwrap();
    // The default inventory has 4 NL stations, each with a BHZ channel.
    assert_eq!(out.table.num_rows(), 4);
    for row in 0..out.table.num_rows() {
        let vals = out.table.row(row).unwrap();
        assert!(matches!(vals[0], Value::Utf8(_)));
        let min = vals[1].as_f64().unwrap();
        let max = vals[2].as_f64().unwrap();
        assert!(min < max, "min {min} < max {max}");
    }
}

#[test]
fn lazy_load_is_cheaper_in_bytes_and_rows() {
    let repo = figure1_repo("cheap", 4096);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let eager = Warehouse::open_eager(&repo.root, no_refresh_config()).unwrap();
    let lr = lazy.load_report();
    let er = eager.load_report();
    assert_eq!(lr.files, er.files);
    assert_eq!(lr.records, er.records);
    assert_eq!(lr.samples_loaded, 0, "lazy loads no samples");
    assert!(er.samples_loaded > 0);
    assert!(
        lr.bytes_read * 5 < er.bytes_read,
        "lazy read {} bytes, eager {} bytes",
        lr.bytes_read,
        er.bytes_read
    );
    // Warehouse footprint: eager must hold the inflated D table.
    assert!(
        lazy.resident_bytes() * 4 < eager.resident_bytes(),
        "lazy {} bytes resident, eager {}",
        lazy.resident_bytes(),
        eager.resident_bytes()
    );
}

#[test]
fn metadata_queries_extract_nothing() {
    let repo = figure1_repo("meta", 4096);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let out = lazy
        .query(
            "SELECT station, COUNT(*) AS files FROM mseed.files GROUP BY station ORDER BY station",
        )
        .unwrap();
    assert!(out.table.num_rows() >= 4);
    assert!(out.report.files_extracted.is_empty());
    assert_eq!(out.report.records_extracted, 0);
    assert!(out.report.rewrite.is_none(), "no external scan, no rewrite");

    let out = lazy.query("SELECT COUNT(*) FROM mseed.records").unwrap();
    let n = out.table.row(0).unwrap()[0].as_i64().unwrap();
    assert_eq!(n as usize, lazy.load_report().records);
    assert_eq!(out.report.records_extracted, 0);
}

#[test]
fn selective_query_touches_only_matching_files() {
    let repo = figure1_repo("selective", 512);
    let total_files = repo.generated.files.len();
    let isk_bhe_files: Vec<String> = repo
        .generated
        .files
        .iter()
        .filter(|f| f.source.station == "ISK" && f.source.channel == "BHE")
        .map(|f| {
            f.path
                .strip_prefix(&repo.root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let out = lazy
        .query("SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE'")
        .unwrap();
    assert!(out.table.row(0).unwrap()[0].as_i64().unwrap() > 0);
    assert!(
        out.report.files_extracted.len() < total_files,
        "must not touch all {total_files} files"
    );
    for uri in &out.report.files_extracted {
        assert!(
            isk_bhe_files.contains(uri),
            "extracted {uri} which is not an ISK/BHE file"
        );
    }
    assert_eq!(out.report.files_extracted.len(), isk_bhe_files.len());
}

#[test]
fn record_pruning_limits_extraction_for_narrow_windows() {
    let repo = figure1_repo("prune", 512);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let out = lazy.query(FIGURE1_Q1).unwrap();
    let rewrite = out.report.rewrite.expect("rewrite happened");
    assert!(
        rewrite.pruned_pairs > 0,
        "2-second window must prune records: {rewrite:?}"
    );
    assert!(rewrite.fetched_pairs < rewrite.candidate_pairs);
}

#[test]
fn direct_data_query_falls_back_to_full_scan() {
    let repo = figure1_repo("fallback", 4096);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let out = lazy.query("SELECT COUNT(*) FROM mseed.data").unwrap();
    let rewrite = out.report.rewrite.unwrap();
    assert!(rewrite.full_scan_fallback, "no metadata join available");
    let (stage, explain) = out.report.stages.last().unwrap();
    assert_eq!(stage, "explain");
    assert!(
        explain.contains("access data: full-repository fallback;"),
        "{explain}"
    );
    let n = out.table.row(0).unwrap()[0].as_i64().unwrap();
    assert_eq!(n as u64, repo.generated.total_samples);
}

#[test]
fn partially_cached_file_assembles_in_record_order() {
    let repo = figure1_repo("order", 512);
    let primed = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let files = primed
        .query(
            "SELECT uri FROM mseed.files WHERE station = 'ISK' AND channel = 'BHE' \
             ORDER BY start_time LIMIT 1",
        )
        .unwrap();
    let uri = files.table.row(0).unwrap()[0].as_str().unwrap().to_string();
    // Half a second in the middle of the file's five minutes: one record,
    // neither the file's first nor its last, lands in the cache.
    let prime = primed
        .query(
            "SELECT COUNT(*) FROM mseed.dataview WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND D.sample_time > '2010-01-12T22:12:30.000' \
             AND D.sample_time < '2010-01-12T22:12:30.500'",
        )
        .unwrap();
    assert_eq!(
        prime.report.records_extracted, 1,
        "one middle record primed"
    );

    // No ORDER BY: the rows come in the order `D` was assembled.
    let sql =
        format!("SELECT D.sample_time, D.sample_value FROM mseed.dataview WHERE F.uri = '{uri}'");
    let partly_cached = primed.query(&sql).unwrap();
    assert_eq!(partly_cached.report.cache_hits, 1);
    assert!(partly_cached.report.records_extracted > 1);
    let fresh = Warehouse::open_lazy(&repo.root, no_refresh_config())
        .unwrap()
        .query(&sql)
        .unwrap();
    assert_eq!(fresh.report.cache_hits, 0);
    assert!(
        partly_cached.table == fresh.table,
        "a cached record takes its place in record order"
    );
}

/// `(station, COUNT, MIN, MAX, SUM)` of `D.sample_value` per `F.station`
/// in first-appearance order, folded row by row over the materialized
/// join — the answer a fused aggregate must reproduce to the bit.
fn per_station_reference(w: &Warehouse, filter: &str) -> Vec<(Value, i64, f64, f64, f64)> {
    let rows = w
        .query(&format!(
            "SELECT F.station, D.sample_value FROM mseed.dataview {filter}"
        ))
        .unwrap()
        .table;
    let mut out: Vec<(Value, i64, f64, f64, f64)> = Vec::new();
    for i in 0..rows.num_rows() {
        let row = rows.row(i).unwrap();
        let x = row[1].as_f64().unwrap();
        match out.iter_mut().find(|g| g.0 == row[0]) {
            Some(g) => {
                g.1 += 1;
                g.2 = if x < g.2 { x } else { g.2 };
                g.3 = if x > g.3 { x } else { g.3 };
                g.4 += x;
            }
            None => out.push((row[0].clone(), 1, x, x, x)),
        }
    }
    out
}

/// Bit-exact comparison of one result row against expected cells.
fn assert_row_bits(got: &[Value], want: &[Value], what: &str) {
    let bits = |v: &Value| match v {
        Value::Float64(x) => format!("{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    };
    let got: Vec<String> = got.iter().map(bits).collect();
    let want: Vec<String> = want.iter().map(bits).collect();
    assert_eq!(got, want, "{what}");
}

#[test]
fn spine_shaped_aggregates_fuse() {
    // E18's FRESH_QUERIES[1], the per-station dashboard aggregate.
    const PER_STATION: &str = "SELECT F.station, COUNT(*), MIN(D.sample_value), \
        MAX(D.sample_value), AVG(D.sample_value) FROM mseed.dataview GROUP BY F.station";
    const STREAM_FILTER: &str = "WHERE F.station = 'HGN' AND F.channel = 'BHZ'";
    let repo = figure1_repo("fuse", 512);
    for (mode, recycle) in [
        ("lazy", false),
        ("eager", false),
        ("lazy", true),
        ("eager", true),
    ] {
        let config = WarehouseConfig {
            recycle_query_results: recycle,
            ..no_refresh_config()
        };
        let w = match mode {
            "lazy" => Warehouse::open_lazy(&repo.root, config),
            _ => Warehouse::open_eager(&repo.root, config),
        }
        .unwrap();
        let what = format!("{mode}, recycle={recycle}");
        let fused_by = |sql: &str| {
            let before = w.stats_snapshot().exec.aggregates_fused;
            let out = w.query(sql).unwrap().table;
            (w.stats_snapshot().exec.aggregates_fused - before, out)
        };

        let (n, q2) = fused_by(FIGURE1_Q2);
        assert_eq!(n, 1, "FIGURE1_Q2 fuses ({what})");
        let want = per_station_reference(&w, "WHERE F.network = 'NL' AND F.channel = 'BHZ'");
        assert_eq!(q2.num_rows(), want.len());
        for (i, (station, _, min, max, _)) in want.iter().enumerate() {
            let cells = [station.clone(), Value::Float64(*min), Value::Float64(*max)];
            assert_row_bits(&q2.row(i).unwrap(), &cells, &format!("Q2 ({what})"));
        }

        let stream_sql = format!(
            "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value), AVG(D.sample_value) \
             FROM mseed.dataview {STREAM_FILTER}"
        );
        let (n, stream) = fused_by(&stream_sql);
        assert_eq!(n, 1, "the per-stream aggregate fuses ({what})");
        let [(_, count, min, max, sum)] = per_station_reference(&w, STREAM_FILTER)[..] else {
            panic!("one stream, one station");
        };
        let cells = [
            Value::Int64(count),
            Value::Float64(min),
            Value::Float64(max),
            Value::Float64(sum / count as f64),
        ];
        assert_row_bits(&stream.row(0).unwrap(), &cells, &format!("stream ({what})"));

        let (n, per_station) = fused_by(PER_STATION);
        assert_eq!(n, 1, "FRESH_QUERIES[1] fuses ({what})");
        let want = per_station_reference(&w, "");
        assert_eq!(per_station.num_rows(), want.len());
        for (i, (station, count, min, max, sum)) in want.iter().enumerate() {
            let cells = [
                station.clone(),
                Value::Int64(*count),
                Value::Float64(*min),
                Value::Float64(*max),
                Value::Float64(sum / *count as f64),
            ];
            let row = per_station.row(i).unwrap();
            assert_row_bits(&row, &cells, &format!("per station ({what})"));
        }

        let (n, by_record) =
            fused_by("SELECT D.seq_no, COUNT(*) FROM mseed.dataview GROUP BY D.seq_no");
        assert_eq!(
            n, 0,
            "a probe-side group key materializes the join ({what})"
        );
        assert!(by_record.num_rows() > 1);
    }
}

#[test]
fn explain_shows_three_stages_with_injection() {
    let repo = figure1_repo("explain", 512);
    let lazy = Warehouse::open_lazy(&repo.root, no_refresh_config()).unwrap();
    let stages = lazy.explain(FIGURE1_Q1).unwrap();
    let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["logical", "optimized", "rewritten", "explain"]);
    let logical = &stages[0].1;
    let optimized = &stages[1].1;
    let rewritten = &stages[2].1;
    assert!(logical.contains("ExternalScan"), "{logical}");
    assert!(
        optimized.contains("ExternalScan"),
        "still unresolved before runtime: {optimized}"
    );
    assert!(
        rewritten.contains("InlineData: lazy-extract"),
        "runtime injection visible: {rewritten}"
    );
    assert!(!rewritten.contains("ExternalScan"));
}
