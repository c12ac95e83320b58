//! The six workloads: what one operation is, which configuration it runs
//! under, and the seeded stream of operations of one round.
//!
//! Every workload is a closed loop: a client sends its next operation only
//! after the previous reply. Names are final — later issues cite them.

use crate::rng::Rng;
use crate::scales::Scale;
use lazyetl_core::{WarehouseConfig, FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY};
use lazyetl_mseed::Timestamp;

/// Fresh child processes each workload's operations are split over.
pub const ROUNDS: usize = 5;

/// Share of a round's operations run before the timed ones and discarded.
pub const WARMUP_SHARE: f64 = 0.05;

/// The three maintainable dashboard queries of experiment E18, copied so
/// that this package does not depend on `crates/bench`.
pub const FRESH_QUERIES: [&str; 3] = [
    "SELECT COUNT(*) FROM mseed.records",
    "SELECT F.station, COUNT(*), MIN(D.sample_value), MAX(D.sample_value), \
     AVG(D.sample_value) FROM mseed.dataview GROUP BY F.station",
    "SELECT F.station, MIN(D.sample_value), MAX(D.sample_value) \
     FROM mseed.dataview WHERE F.network = 'NL' AND F.channel = 'BHZ' \
     GROUP BY F.station",
];

/// Two minutes of one stream's waveform: ~4 800 rows, many result batches.
pub const WAVEFORM_FETCH: &str = "SELECT D.sample_time, D.sample_value FROM mseed.dataview \
     WHERE F.station = 'HGN' AND F.channel = 'BHZ' \
     AND D.sample_time > '2010-01-12T22:10:00.000' \
     AND D.sample_time < '2010-01-12T22:12:00.000'";

/// Metadata-only count.
pub const COUNT_FILES: &str = "SELECT COUNT(*) FROM mseed.files";

/// A query the recycler cannot maintain: a refresh forces its recompute.
pub const DISTINCT_STATIONS: &str = "SELECT DISTINCT station FROM mseed.files";

/// The dashboard pool of `warm.point` / `served.point`: exact repeats of
/// these hit the result recycler.
pub const DASHBOARD: [&str; 8] = [
    FIGURE1_Q1,
    FIGURE1_Q2,
    METADATA_QUERY,
    FRESH_QUERIES[0],
    FRESH_QUERIES[1],
    FRESH_QUERIES[2],
    WAVEFORM_FETCH,
    COUNT_FILES,
];

/// What `fresh.poll` asks after each landed file.
pub const FRESH_POLLS: [&str; 5] = [
    FRESH_QUERIES[0],
    FRESH_QUERIES[1],
    FRESH_QUERIES[2],
    FIGURE1_Q1,
    DISTINCT_STATIONS,
];

/// Seconds of waveform in each file `fresh.poll` lands.
pub const LANDED_FILE_SECS: u32 = 10;

/// Width of a `FIGURE1_Q1`-shaped window, in µs.
pub const WINDOW_US: i64 = 2_000_000;

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// `cold.first-answer`
    ColdFirstAnswer,
    /// `warm.scan`
    WarmScan,
    /// `warm.point`
    WarmPoint,
    /// `scan.over-cache`
    ScanOverCache,
    /// `served.point`
    ServedPoint,
    /// `fresh.poll`
    FreshPoll,
}

/// Every workload, in the order rounds are interleaved.
pub const ALL: [Workload; 6] = [
    Workload::ColdFirstAnswer,
    Workload::WarmScan,
    Workload::WarmPoint,
    Workload::ScanOverCache,
    Workload::ServedPoint,
    Workload::FreshPoll,
];

/// The fixed description of a workload.
#[derive(Debug)]
pub struct Spec {
    /// Final name.
    pub name: &'static str,
    /// Why the benchmark has it (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Repository size.
    pub scale: Scale,
    /// `true`: `min(nproc, 4)` TCP clients; `false`: one in-process client.
    pub served: bool,
    /// Operations (over all rounds) per second of `--seconds`. Frozen on
    /// the 2-core reference box so that the timed sections of a run add up
    /// to about `--seconds` there; a run is sized in operations, not in
    /// time, so that the same seed asks the same work of every commit.
    pub ops_per_second: f64,
    /// Deviations from `WarehouseConfig::default()`.
    pub deviations: &'static str,
    /// Queries in one operation.
    pub queries_per_op: usize,
    /// The traced run replays the layer probes on every n-th operation.
    pub replay_stride: usize,
    /// Operations in one block of fixed composition (1: all alike); a
    /// round times a whole number of blocks.
    pub block: usize,
}

static SPECS: [Spec; 6] = [
    Spec {
        name: "cold.first-answer",
        why: "time to first insight: open + Figure-1 mix with nothing cached, so repo scan, mseed decode and core extract/admit run on every op",
        op: "open a lazy warehouse (metadata-only attach), run FIGURE1_Q1, FIGURE1_Q2 and METADATA_QUERY once in seeded order, drop it",
        scale: Scale::Medium,
        served: false,
        ops_per_second: 8.0,
        deviations: "none",
        queries_per_op: 3,
        replay_stride: 1,
        block: 1,
    },
    Spec {
        name: "warm.scan",
        why: "100 % record-cache hits and zero decode: core fetch-assemble and query exec do the work, front end, repo probe and server almost none",
        op: "7/8 per-stream COUNT/MIN/MAX/AVG over one of 16 streams (42 cache hits), 1/8 FIGURE1_Q2 (168 hits)",
        scale: Scale::Medium,
        served: false,
        ops_per_second: 35.0,
        deviations: "none (recycler off, 256 MiB cache holds the 74 MB working set); set-up primes every record",
        queries_per_op: 1,
        replay_stride: 1,
        block: 8,
    },
    Spec {
        name: "warm.point",
        why: "sub-millisecond ops where query front end, recycler lookup, the per-query repo refresh probe and ETL-log pushes are the whole cost; bypass twin of warm.scan",
        op: "50 % exact repeat from a pool of 8 dashboard queries (recycler hit), 50 % FIGURE1_Q1-shaped AVG over a random station and random 2 s window (recycler miss, 1-2 cache hits)",
        scale: Scale::Medium,
        served: false,
        ops_per_second: 1000.0,
        deviations: "recycle_query_results: true",
        queries_per_op: 1,
        replay_stride: 8,
        block: 16,
    },
    Spec {
        name: "scan.over-cache",
        why: "working set 3x the record cache: inserts, evictions and re-extraction instead of hits, so a faster get paid for by insert/evict or residency shows",
        op: "per-stream COUNT/MIN/MAX/AVG over the 24 streams, visited cyclically in a seeded order (70 records each)",
        scale: Scale::Large,
        served: false,
        ops_per_second: 30.0,
        deviations: "cache_budget_bytes: 64 MiB (working set 184 MB)",
        queries_per_op: 1,
        replay_stride: 1,
        block: 1,
    },
    Spec {
        name: "served.point",
        why: "the warm.point stream over TCP: the difference is the server layer (poller, queue wait, encode, wire); cpu_ms_per_op exposes the idle-sweep poller",
        op: "the warm.point operation sent by min(nproc, 4) v2 clients to an in-process Server with nproc workers, no think time",
        scale: Scale::Medium,
        served: true,
        ops_per_second: 850.0,
        deviations: "recycle_query_results: true; ServerConfig { workers: nproc, queue_depth: 1024 }",
        queries_per_op: 1,
        replay_stride: 8,
        block: 16,
    },
    Spec {
        name: "fresh.poll",
        why: "freshness latency (file landed -> dashboards current): recycler and repo scan used for writes, so a read-path gain bought with a slower refresh shows",
        op: "land one 10 s NL.HGN BHZ file (untimed), then timed: the three E18 dashboard queries, FIGURE1_Q1 and SELECT DISTINCT station, in seeded order; the first one's auto-refresh folds the delta",
        scale: Scale::Small,
        served: false,
        ops_per_second: 100.0,
        deviations: "recycle_query_results: true (incremental maintenance on by default); a mutable copy of the repository per round",
        queries_per_op: 5,
        replay_stride: 1,
        block: 1,
    },
];

impl Workload {
    /// The fixed description.
    pub fn spec(self) -> &'static Spec {
        &SPECS[self as usize]
    }

    /// Final name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Look a workload up by its final name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The warehouse configuration: the product default (`auto_refresh`
    /// on) with only the deviations named in the spec.
    pub fn config(self) -> WarehouseConfig {
        let default = WarehouseConfig::default();
        match self {
            Workload::ColdFirstAnswer | Workload::WarmScan => default,
            Workload::ScanOverCache => WarehouseConfig {
                cache_budget_bytes: 64 << 20,
                ..default
            },
            Workload::WarmPoint | Workload::ServedPoint | Workload::FreshPoll => WarehouseConfig {
                recycle_query_results: true,
                ..default
            },
        }
    }

    /// Queries run once, untimed, before the first operation: they leave
    /// every record in the cache and every dashboard query in the recycler.
    pub fn priming(self) -> Vec<Query> {
        match self {
            Workload::ColdFirstAnswer | Workload::ScanOverCache => Vec::new(),
            // Stream by stream, so that the resident-set high-water mark
            // is the cache plus one op, not one repository-wide query.
            Workload::WarmScan => self
                .spec()
                .scale
                .streams()
                .into_iter()
                .map(|(station, channel)| Query::StreamAgg { station, channel })
                .collect(),
            Workload::WarmPoint | Workload::ServedPoint => {
                DASHBOARD.into_iter().map(Query::Fixed).collect()
            }
            Workload::FreshPoll => FRESH_POLLS.into_iter().map(Query::Fixed).collect(),
        }
    }

    /// Timed operations of one round for a run of `seconds`.
    pub fn timed_ops_per_round(self, seconds: f64) -> usize {
        let total = (self.spec().ops_per_second * seconds).ceil() as usize;
        let block = self.spec().block;
        total.div_ceil(ROUNDS).max(1).div_ceil(block) * block
    }

    /// Warm-up operations run before the timed ones of a round.
    pub fn warmup_ops(self, timed: usize) -> usize {
        let share = (timed as f64 * WARMUP_SHARE).ceil() as usize;
        match self {
            // The cache must fill (about 8 of the 24 streams fit) before
            // evictions reach their steady rate.
            Workload::ScanOverCache => share.max(10),
            _ => share.max(1),
        }
    }

    /// `served.point` draws from the `warm.point` stream: identical SQL
    /// for the same seed, so their difference is the server.
    fn stream_id(self) -> u64 {
        match self {
            Workload::ServedPoint => Workload::WarmPoint as u64,
            w => w as u64,
        }
    }
}

/// One query of an operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// A literal text.
    Fixed(&'static str),
    /// COUNT/MIN/MAX/AVG over one whole stream.
    StreamAgg {
        /// Station code.
        station: String,
        /// Channel code.
        channel: &'static str,
    },
    /// `FIGURE1_Q1` with the station and the 2 s window replaced.
    Window {
        /// Station code (channel is always BHE, as in the paper).
        station: String,
        /// Window start, µs since the epoch; the window is exclusive at
        /// both ends, as in the paper.
        start_us: i64,
    },
}

impl Query {
    /// The SQL text sent to the system.
    pub fn sql(&self) -> String {
        match self {
            Query::Fixed(sql) => sql.to_string(),
            Query::StreamAgg { station, channel } => format!(
                "SELECT COUNT(*), MIN(D.sample_value), MAX(D.sample_value), AVG(D.sample_value) \
                 FROM mseed.dataview WHERE F.station = '{station}' AND F.channel = '{channel}'"
            ),
            Query::Window { station, start_us } => format!(
                "SELECT AVG(D.sample_value)\nFROM mseed.dataview\nWHERE F.station = '{station}'\n\
                 AND F.channel = 'BHE'\nAND R.start_time > '2010-01-12T00:00:00.000'\n\
                 AND R.start_time < '2010-01-12T23:59:59.999'\nAND D.sample_time > '{}'\n\
                 AND D.sample_time < '{}';",
                Timestamp(*start_us),
                Timestamp(start_us + WINDOW_US)
            ),
        }
    }
}

/// A file `fresh.poll` lands before an operation's timed part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandedFile {
    /// First sample time.
    pub start: Timestamp,
    /// Seed of its synthetic waveform.
    pub seed: u64,
}

/// One operation: what a client sends before it looks at the clock again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Its queries, in order.
    pub queries: Vec<Query>,
    /// The file landed first (`fresh.poll` only).
    pub land: Option<LandedFile>,
}

impl Op {
    fn of(queries: Vec<Query>) -> Op {
        Op {
            queries,
            land: None,
        }
    }
}

/// Single-query operations made of whole shuffled blocks: `warmup` of
/// them (the last block cut short), then `timed` starting on a block
/// boundary.
fn in_blocks(
    rng: &mut Rng,
    warmup: usize,
    timed: usize,
    mut block: impl FnMut(&mut Rng) -> Vec<Query>,
) -> Vec<Op> {
    let mut out = Vec::with_capacity(warmup + timed);
    for n in [warmup, warmup + timed] {
        while out.len() < n {
            let mut queries = block(rng);
            rng.shuffle(&mut queries);
            out.extend(queries.into_iter().map(|q| Op::of(vec![q])));
        }
        out.truncate(n);
    }
    out
}

/// The operations of one round — `warmup` untimed ones, then `timed` — a
/// pure function of `(workload, seed, round)` and the two counts.
///
/// Where operations differ in cost, the mix is stratified: the timed part
/// is made of shuffled blocks with a fixed composition, so that every
/// round of every seed times the same number of each kind and a mean does
/// not move with the luck of the draw.
pub fn op_stream(
    workload: Workload,
    seed: u64,
    round: usize,
    warmup: usize,
    timed: usize,
) -> Vec<Op> {
    let mut rng = Rng::for_round(seed, workload.stream_id(), round as u64);
    let scale = workload.spec().scale;
    let n = warmup + timed;
    match workload {
        Workload::ColdFirstAnswer => (0..n)
            .map(|_| {
                let mut mix = [FIGURE1_Q1, FIGURE1_Q2, METADATA_QUERY];
                rng.shuffle(&mut mix);
                Op::of(mix.into_iter().map(Query::Fixed).collect())
            })
            .collect(),
        Workload::WarmScan => {
            let streams = scale.streams();
            // 7 per-stream aggregates and 1 FIGURE1_Q2.
            let block = |rng: &mut Rng| {
                let mut queries = vec![Query::Fixed(FIGURE1_Q2)];
                for _ in 1..workload.spec().block {
                    let (station, channel) =
                        streams[rng.below(streams.len() as u64) as usize].clone();
                    queries.push(Query::StreamAgg { station, channel });
                }
                queries
            };
            in_blocks(&mut rng, warmup, timed, block)
        }
        Workload::WarmPoint | Workload::ServedPoint => {
            let stations = scale.station_codes();
            let span_ms = (scale.coverage_secs() as u64 - 2) * 1000;
            // Every dashboard query once, and as many random windows.
            let block = |rng: &mut Rng| {
                let mut queries: Vec<Query> = DASHBOARD.into_iter().map(Query::Fixed).collect();
                for _ in 0..DASHBOARD.len() {
                    queries.push(Query::Window {
                        station: stations[rng.below(stations.len() as u64) as usize].clone(),
                        start_us: scale.start().micros() + rng.below(span_ms) as i64 * 1000,
                    });
                }
                queries
            };
            in_blocks(&mut rng, warmup, timed, block)
        }
        Workload::ScanOverCache => {
            // One seeded order, walked cyclically: under LRU every stream
            // has been evicted by the time it comes round again, so each
            // op re-extracts — the steady state the workload is for.
            let mut streams = scale.streams();
            rng.shuffle(&mut streams);
            (0..n)
                .map(|i| {
                    let (station, channel) = streams[i % streams.len()].clone();
                    Op::of(vec![Query::StreamAgg { station, channel }])
                })
                .collect()
        }
        Workload::FreshPoll => (0..n)
            .map(|i| {
                let mut polls = FRESH_POLLS;
                rng.shuffle(&mut polls);
                // 2010-01-13 00:00 onward, far from the seed data: every
                // landed file is new (an insert-only delta).
                let start = Timestamp::from_ymd_hms(2010, 1, 13, 0, 0, 0, 0)
                    .add_micros(i as i64 * LANDED_FILE_SECS as i64 * 1_000_000);
                Op {
                    queries: polls.into_iter().map(Query::Fixed).collect(),
                    land: Some(LandedFile {
                        start,
                        seed: rng.next_u64(),
                    }),
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(workload: Workload, seed: u64, round: usize) -> String {
        format!("{:?}", op_stream(workload, seed, round, 4, 64))
    }

    #[test]
    fn names_are_the_final_ones_and_parse_back() {
        let names: Vec<_> = ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "cold.first-answer",
                "warm.scan",
                "warm.point",
                "scan.over-cache",
                "served.point",
                "fresh.poll"
            ]
        );
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.spec().why.len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("warm"), None);
    }

    #[test]
    fn same_seed_and_round_give_a_byte_identical_stream() {
        for w in ALL {
            assert_eq!(rendered(w, 11, 2), rendered(w, 11, 2), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_or_round_gives_another_stream() {
        for w in ALL {
            assert_ne!(rendered(w, 11, 2), rendered(w, 12, 2), "{} seed", w.name());
            assert_ne!(rendered(w, 11, 2), rendered(w, 11, 3), "{} round", w.name());
        }
    }

    #[test]
    fn served_point_sends_the_warm_point_stream() {
        assert_eq!(
            rendered(Workload::ServedPoint, 11, 0),
            rendered(Workload::WarmPoint, 11, 0)
        );
    }

    #[test]
    fn every_op_has_the_declared_number_of_queries() {
        for w in ALL {
            for op in op_stream(w, 11, 0, 3, 32) {
                assert_eq!(op.queries.len(), w.spec().queries_per_op, "{}", w.name());
                assert_eq!(op.land.is_some(), w == Workload::FreshPoll);
            }
        }
    }

    #[test]
    fn over_cache_visits_every_stream_before_repeating() {
        let ops = op_stream(Workload::ScanOverCache, 11, 0, 0, 48);
        let first: Vec<_> = ops[..24].iter().map(|o| o.queries[0].clone()).collect();
        let second: Vec<_> = ops[24..].iter().map(|o| o.queries[0].clone()).collect();
        assert_eq!(first, second);
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 24);
    }

    #[test]
    fn timed_blocks_have_a_fixed_composition() {
        for seed in [11, 12] {
            let ops = op_stream(Workload::WarmScan, seed, 1, 4, 80);
            let q2 = ops[4..]
                .iter()
                .filter(|o| o.queries[0] == Query::Fixed(FIGURE1_Q2))
                .count();
            assert_eq!(q2, 10);
            let ops = op_stream(Workload::WarmPoint, seed, 1, 5, 160);
            for sql in DASHBOARD {
                let n = ops[5..]
                    .iter()
                    .filter(|o| o.queries[0] == Query::Fixed(sql))
                    .count();
                assert_eq!(n, 10, "{sql}");
            }
        }
    }

    #[test]
    fn op_counts_scale_with_seconds() {
        let w = Workload::WarmScan;
        assert_eq!(w.timed_ops_per_round(10.0), 72);
        assert_eq!(w.timed_ops_per_round(0.01), 8, "one whole block at least");
        assert_eq!(w.warmup_ops(72), 4);
        assert_eq!(Workload::ScanOverCache.warmup_ops(40), 10);
    }
}
