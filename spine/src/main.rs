//! `spine` — the end-to-end driver and the orchestrator of a run.
//!
//! ```text
//! spine [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!       [--smoke] [--check-agreement]
//! ```
//!
//! Without `--workload` it runs all six, rounds interleaved, and prints
//! every metric by name with its unit. With `--workload` it runs one and
//! ends with the one-line JSON result the repository's `BENCHMARK.json`
//! contract asks for. Each (workload, round) runs in a fresh child process
//! (`spine round …`, or `spine-trace round …` for traced rounds).

use spine::metrics::{END_TO_END, PER_LAYER};
use spine::oracle::write_expected;
use spine::round::{self, named_args, required, RoundArgs, RoundResult, COUNT_NAMES};
use spine::scales::Scale;
use spine::stats::{highest_supported_percentile, median, percentile, spread};
use spine::trace::Tracer;
use spine::workloads::{Workload, ALL, ROUNDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: spine [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--smoke] [--check-agreement]";

#[derive(Debug, Clone)]
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_agreement: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        smoke: false,
        check_agreement: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                cli.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
                i += 1;
            }
            "--seed" => {
                cli.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                cli.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--check-agreement" => cli.check_agreement = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn child_round(args: &[String]) -> Result<(), String> {
    let args = RoundArgs::from_named(&named_args(args)?)?;
    let out = round::run(&args, &mut Tracer::off())?;
    print!("{}", out.result.to_lines());
    out.cleanup();
    Ok(())
}

fn child_oracle(args: &[String]) -> Result<(), String> {
    let m = named_args(args)?;
    let workload = required(&m, "workload")?;
    write_expected(
        Path::new(required(&m, "out")?),
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        required(&m, "seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        required(&m, "timed-ops")?
            .parse()
            .map_err(|e| format!("--timed-ops: {e}"))?,
        Path::new(required(&m, "repo")?),
    )
}

/// The directory a run works in; removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let work = match std::env::var_os("SPINE_WORK") {
            Some(dir) => PathBuf::from(dir),
            None => std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|d| d.join("spine-work")))
                .ok_or("cannot place the work directory: set SPINE_WORK")?,
        };
        let dir = work.join(format!("run_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// Where traces outlive the run.
    fn trace_path(&self, workload: Workload) -> PathBuf {
        let parent = self.0.parent().expect("run dir has a parent");
        parent.join(format!("trace_{}.jsonl", workload.name()))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The argument list of an internal subcommand: its name, then
/// `--key value` pairs.
fn subcommand(name: &str, flags: &[(&str, String)]) -> Vec<String> {
    let mut args = vec![name.to_string()];
    for (key, value) in flags {
        args.push(format!("--{key}"));
        args.push(value.clone());
    }
    args
}

/// Run a child to its end and return its standard output.
fn run_child(exe: &Path, args: &[String]) -> Result<String, String> {
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} ended with {}",
            exe.display(),
            args.join(" "),
            out.status
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// How many operations a set runs and how its rounds are traced.
#[derive(Debug, Clone, Copy)]
struct Plan {
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

impl Plan {
    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    /// A traced set alternates untraced and traced rounds, so that what
    /// tracing costs is measured inside the set.
    fn round_is_traced(&self, round: usize) -> bool {
        self.traced && (self.smoke || round % 2 == 1)
    }

    fn timed_ops(&self, w: Workload) -> usize {
        if self.smoke {
            // About a second of operations, sixteen at most.
            ((w.spec().ops_per_second.ceil()) as usize).clamp(2, 16)
        } else {
            w.timed_ops_per_round(self.seconds)
        }
    }
}

/// One finished round of a set.
struct RoundRun {
    traced: bool,
    result: RoundResult,
    /// `layer.*` / `share.*` lines of a traced round.
    layers: BTreeMap<String, f64>,
}

/// Everything a set measured for one workload.
struct WorkloadRun {
    workload: Workload,
    materialise_s: f64,
    oracle_s: f64,
    rounds: Vec<RoundRun>,
}

fn run_set(workloads: &[Workload], plan: Plan) -> Result<Vec<WorkloadRun>, String> {
    let run_dir = RunDir::create()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_exe = exe.with_file_name("spine-trace");
    if plan.traced && !trace_exe.exists() {
        return Err(format!(
            "{} is not built (cargo build --release --bin spine-trace)",
            trace_exe.display()
        ));
    }

    let mut repos: BTreeMap<&'static str, (PathBuf, f64)> = BTreeMap::new();
    let mut runs = Vec::new();
    for &w in workloads {
        let scale: Scale = w.spec().scale;
        if !repos.contains_key(scale.label()) {
            let dir = run_dir.0.join(format!("repo_{}", scale.label()));
            let t0 = Instant::now();
            scale.materialise(&dir)?;
            repos.insert(scale.label(), (dir, t0.elapsed().as_secs_f64()));
        }
        let (repo, materialise_s) = repos[scale.label()].clone();
        let timed = plan.timed_ops(w);
        let oracle = run_dir.0.join(format!("oracle_{}.txt", w.name()));
        let t0 = Instant::now();
        run_child(
            &exe,
            &subcommand(
                "oracle",
                &[
                    ("workload", w.name().to_string()),
                    ("seed", plan.seed.to_string()),
                    ("timed-ops", timed.to_string()),
                    ("repo", repo.display().to_string()),
                    ("out", oracle.display().to_string()),
                ],
            ),
        )?;
        runs.push((
            WorkloadRun {
                workload: w,
                materialise_s,
                oracle_s: t0.elapsed().as_secs_f64(),
                rounds: Vec::new(),
            },
            repo,
            oracle,
            timed,
        ));
    }

    // Round-robin over the workloads, so that a slow phase of the shared
    // machine is spread over all of them.
    for round in 0..plan.rounds() {
        for (run, repo, oracle, timed) in &mut runs {
            let traced = plan.round_is_traced(round);
            let mut flags = vec![
                ("workload", run.workload.name().to_string()),
                ("seed", plan.seed.to_string()),
                ("round", round.to_string()),
                ("timed-ops", timed.to_string()),
                ("repo", repo.display().to_string()),
                ("oracle", oracle.display().to_string()),
                ("scratch", run_dir.0.display().to_string()),
            ];
            if traced {
                let spans = run_dir.trace_path(run.workload);
                flags.push(("spans", spans.display().to_string()));
            }
            let args = subcommand("round", &flags);
            let text = run_child(if traced { &trace_exe } else { &exe }, &args)?;
            let layers = text
                .lines()
                .filter(|l| l.starts_with("layer.") || l.starts_with("share."))
                .filter_map(|l| l.split_once('='))
                .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .collect();
            run.rounds.push(RoundRun {
                traced,
                result: RoundResult::parse(&text)?,
                layers,
            });
        }
    }
    Ok(runs.into_iter().map(|(run, ..)| run).collect())
}

/// A metric of one workload: its per-round values, the value reported
/// for them, and how far the rounds disagree.
#[derive(Debug, Clone)]
struct Metric {
    value: f64,
    spread: f64,
    rounds: Vec<f64>,
}

impl Metric {
    fn new(rounds: Vec<f64>, value: f64) -> Metric {
        Metric {
            value,
            spread: spread(&rounds),
            rounds,
        }
    }

    /// The second-best round (the lower quartile of five). What the shared
    /// machine does to a round only ever adds time, so a low quantile of
    /// the rounds is a steadier estimate of what the operations cost than
    /// their median; the very best round is left out because a round is
    /// now and then lucky (fewer page faults under its largest ops). A
    /// change that makes every round slower moves this as it moves a median.
    fn second_best(rounds: Vec<f64>, lower_is_better: bool) -> Metric {
        let mut sorted = rounds.clone();
        sorted.sort_by(f64::total_cmp);
        if !lower_is_better {
            sorted.reverse();
        }
        let value = sorted[1.min(sorted.len() - 1)];
        Metric::new(rounds, value)
    }
}

fn round_p50_ms(r: &RoundResult) -> f64 {
    let mut lat = r.latencies_ns.clone();
    lat.sort_unstable();
    if lat.is_empty() {
        return 0.0;
    }
    percentile(&lat, 50.0) as f64 / 1e6
}

impl WorkloadRun {
    fn rounds_where(&self, traced: bool) -> Vec<&RoundResult> {
        self.rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| &r.result)
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.result.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.result.failed).sum()
    }

    fn first_failure(&self) -> Option<&str> {
        self.rounds
            .iter()
            .find_map(|r| r.result.first_failure.as_deref())
    }

    /// The end-to-end metrics, from the untraced rounds.
    fn end_to_end(&self) -> BTreeMap<&'static str, Metric> {
        let rounds = self.rounds_where(false);
        let per =
            |f: &dyn Fn(&RoundResult) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(r)).collect() };
        let mut out = BTreeMap::new();
        let setup = per(&|r| r.setup_ns as f64 / 1e9);
        let setup_s = self.materialise_s + self.oracle_s + median(&setup);
        out.insert("setup_s", Metric::new(setup, setup_s));
        out.insert(
            "latency_ms_p50",
            Metric::second_best(per(&round_p50_ms), true),
        );
        out.insert(
            "throughput_ops_s",
            Metric::second_best(
                per(&|r| r.latencies_ns.len() as f64 / (r.wall_ns.max(1) as f64 / 1e9)),
                false,
            ),
        );
        out.insert(
            "cpu_ms_per_op",
            Metric::second_best(
                per(&|r| r.cpu_ns as f64 / 1e6 / r.latencies_ns.len().max(1) as f64),
                true,
            ),
        );
        // Deterministic but for the allocator: the median round.
        let rss = per(&|r| r.peak_rss_kib as f64 / 1024.0);
        let rss_mb = median(&rss);
        out.insert("peak_rss_mb", Metric::new(rss, rss_mb));
        out
    }

    /// The diagnostic tail latency: the highest percentile that leaves ten
    /// samples beyond it, pooled over the untraced rounds.
    fn tail_latency(&self) -> (f64, f64, usize) {
        let mut lat: Vec<u64> = self
            .rounds_where(false)
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        if lat.is_empty() {
            return (50.0, 0.0, 0);
        }
        let p = highest_supported_percentile(lat.len());
        (p, percentile(&lat, p) as f64 / 1e6, lat.len())
    }

    /// Counts summed over the rounds (`traced` picks which).
    fn counts(&self, traced: bool) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = COUNT_NAMES.iter().map(|n| (*n, 0)).collect();
        for r in self.rounds_where(traced) {
            for (name, v) in &r.counts {
                *out.entry(name).or_default() += v;
            }
        }
        out
    }

    /// The per-layer metrics, from the traced rounds (counts from the
    /// public reports, times from the spans and probes of `spine-trace`).
    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let traced: Vec<&RoundRun> = self.rounds.iter().filter(|r| r.traced).collect();
        let c = self.counts(true);
        let ops: f64 = traced
            .iter()
            .map(|r| r.result.latencies_ns.len() as f64)
            .sum::<f64>()
            .max(1.0);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, ..) in PER_LAYER {
            let key = format!("layer.{name}");
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(&key).copied())
                .collect();
            out.insert(
                name,
                if values.is_empty() {
                    0.0
                } else {
                    median(&values)
                },
            );
        }
        for (metric, count) in [
            ("mseed.samples_decoded_per_op", "samples_extracted"),
            ("repo.bytes_read_per_op", "bytes_read"),
            ("query.scalar_fallbacks_per_op", "scalar_fallbacks"),
            ("core.cache_evictions_per_op", "cache_evictions"),
            ("core.records_extracted_per_op", "records_extracted"),
            ("core.results_patched_per_op", "results_patched"),
            ("core.recompute_fallbacks_per_op", "recompute_fallbacks"),
        ] {
            out.insert(metric, c[count] as f64 / ops);
        }
        for (metric, part, rest) in [
            ("query.rows_scanned_per_result_row", "rows_scanned", None),
            ("core.cache_hit_rate", "cache_hits", Some("cache_misses")),
            (
                "core.recycler_hit_rate",
                "recycler_hits",
                Some("recycler_misses"),
            ),
        ] {
            let whole = match rest {
                Some(rest) => c[part] + c[rest],
                None => c["result_rows"],
            };
            out.insert(metric, ratio(c[part], whole));
        }
        if self.workload.spec().served {
            let round_trip_us: f64 = traced
                .iter()
                .flat_map(|r| r.result.latencies_ns.iter())
                .map(|&ns| ns as f64 / 1e3)
                .sum();
            out.insert(
                "server.overhead_us",
                (round_trip_us - c["server_exec_us"] as f64) / ops,
            );
            out.insert("server.queue_wait_us", c["queue_wait_us"] as f64 / ops);
            out.insert(
                "server.busy_rate",
                ratio(c["server_busy"], self.attempted().max(1)),
            );
        }
        // Best round against best round: two rounds of each kind at least.
        let best_p50 = |traced: bool| {
            self.rounds_where(traced)
                .iter()
                .map(|r| round_p50_ms(r))
                .fold(f64::INFINITY, f64::min)
        };
        let (t, u) = (best_p50(true), best_p50(false));
        if t.is_finite() && u.is_finite() && u > 0.0 {
            out.insert("trace_overhead_pct", (t / u - 1.0) * 100.0);
        }
        out
    }

    /// Each layer's share of the traced parent span, from the traced
    /// rounds (`share.*` lines), as medians.
    fn shares(&self) -> BTreeMap<String, f64> {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in self.rounds.iter().filter(|r| r.traced) {
            for (k, v) in &r.layers {
                if let Some(name) = k.strip_prefix("share.") {
                    by_name.entry(name.to_string()).or_default().push(*v);
                }
            }
        }
        by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }
}

fn print_end_to_end(run: &WorkloadRun) {
    let w = run.workload;
    let spec = w.spec();
    let clients = if spec.served {
        spine::proc::client_count()
    } else {
        1
    };
    println!(
        "\n## {} — {} repository, {} client(s), closed loop",
        spec.name,
        spec.scale.label(),
        clients
    );
    println!("   op: {}", spec.op);
    println!("   config: {}", spec.deviations);
    let rounds = run.rounds_where(false);
    let timed: usize = rounds.iter().map(|r| r.latencies_ns.len()).sum();
    let wall: f64 = rounds.iter().map(|r| r.wall_ns as f64 / 1e9).sum();
    println!(
        "   {} untraced round(s), {timed} timed ops in {wall:.2} s of timed work",
        rounds.len()
    );
    println!(
        "   setup_s = materialise {:.3} + oracle {:.3} + median round set-up",
        run.materialise_s, run.oracle_s
    );
    println!(
        "   {:<22} {:>14} {:<7} {:>8}",
        "metric", "value", "unit", "spread"
    );
    let metrics = run.end_to_end();
    for (name, unit, ..) in END_TO_END {
        let m = &metrics[name];
        let rounds: Vec<String> = m.rounds.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "   {:<22} {:>14.4} {:<7} {:>7.1}%   rounds: {}",
            name,
            m.value,
            unit,
            m.spread * 100.0,
            rounds.join(" ")
        );
    }
    println!(
        "   {:<22} {:>14.6} {:<7} ({} failed of {} attempted)",
        "fail_rate",
        run.failed() as f64 / run.attempted().max(1) as f64,
        "ratio",
        run.failed(),
        run.attempted()
    );
    let (p, ms, n) = run.tail_latency();
    println!(
        "   {:<22} {:>14.4} {:<7} (diagnostic, pooled over {n} samples)",
        format!("latency_ms_p{p:.0}"),
        ms,
        "ms"
    );
    if let Some(f) = run.first_failure() {
        println!("   FIRST FAILURE: {f}");
    }
    let counts: Vec<String> = run
        .counts(false)
        .iter()
        .filter(|(_, v)| **v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("   counts: {}", counts.join(" "));
}

fn print_per_layer(run: &WorkloadRun) {
    println!(
        "\n## {} — per-layer metrics ({} traced round(s))",
        run.workload.name(),
        run.rounds.iter().filter(|r| r.traced).count()
    );
    let layers = run.per_layer();
    for (name, unit, _) in PER_LAYER {
        println!("   {:<36} {:>14.4} {}", name, layers[name], unit);
    }
    let shares = run.shares();
    if !shares.is_empty() {
        println!("   self time of each probe as a share of the traced parent span:");
        for (name, share) in shares {
            println!("   {:<36} {:>13.1}%", name, share * 100.0);
        }
    }
}

fn json_line(run: &WorkloadRun, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        let layers = run.per_layer();
        PER_LAYER
            .iter()
            .filter(|(.., every_workload)| *every_workload)
            .map(|(name, unit, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    layers[name]
                )
            })
            .collect()
    } else {
        let e2e = run.end_to_end();
        END_TO_END
            .iter()
            .map(|(name, unit, ..)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    e2e[name].value
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed() == 0,
        run.attempted(),
        run.failed(),
        metrics.join(", ")
    )
}

fn print_header(plan: Plan) {
    println!(
        "# spine: seed {}, {} s per workload, {} core(s); load from one process, \
         OS page cache warm (latencies are this sandbox's CPU cost, not a device's)",
        plan.seed,
        plan.seconds,
        spine::proc::nproc()
    );
}

/// `--check-agreement`: two sets on one build must tell the same story.
fn check_agreement(plan: Plan) -> Result<bool, String> {
    print_header(plan);
    let a = run_set(&ALL, plan)?;
    let b = run_set(&ALL, plan)?;
    let mut ok = true;
    println!("\n| workload | metric | set A | set B | Δ % | bound % | spread A % | spread B % | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (ra, rb) in a.iter().zip(&b) {
        let (ma, mb) = (ra.end_to_end(), rb.end_to_end());
        for (name, _, _, bound) in END_TO_END {
            let (x, y) = (&ma[name], &mb[name]);
            // The sets are peers: either may be the worse one.
            let worse = (x.value - y.value).abs() / x.value.min(y.value);
            let pass = worse <= bound;
            ok &= pass;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.1} | {:.0} | {:.1} | {:.1} | {} |",
                ra.workload.name(),
                name,
                x.value,
                y.value,
                worse * 100.0,
                bound * 100.0,
                x.spread * 100.0,
                y.spread * 100.0,
                if pass { "ok" } else { "DISAGREE" }
            );
        }
        let fails = ra.failed() + rb.failed();
        ok &= fails == 0;
        println!(
            "| {} | fail_rate | {} | {} | | 0 | | | {} |",
            ra.workload.name(),
            ra.failed(),
            rb.failed(),
            if fails == 0 { "ok" } else { "FAILED" }
        );
        if !ra.workload.spec().served {
            let same = ra.counts(false) == rb.counts(false);
            ok &= same;
            println!(
                "| {} | counts | | | | exact | | | {} |",
                ra.workload.name(),
                if same { "ok" } else { "DIFFER" }
            );
        }
    }
    Ok(ok)
}

fn orchestrate(cli: Cli) -> Result<bool, String> {
    let plan = Plan {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: false,
        smoke: cli.smoke,
    };
    if cli.check_agreement {
        return check_agreement(plan);
    }
    if cli.smoke {
        // One traced round of every workload: oracle, spans and probes.
        let runs = run_set(
            &ALL,
            Plan {
                traced: true,
                ..plan
            },
        )?;
        let mut ok = true;
        for run in &runs {
            println!(
                "smoke {:<18} {} ({} of {} ops failed{})",
                run.workload.name(),
                if run.failed() == 0 { "ok" } else { "FAILED" },
                run.failed(),
                run.attempted(),
                run.first_failure()
                    .map_or(String::new(), |f| format!(": {f}"))
            );
            ok &= run.failed() == 0;
        }
        return Ok(ok);
    }
    print_header(plan);
    match cli.workload {
        // The contract's shape: one workload, one JSON result line. A wrong
        // answer is reported in the result, not by the exit code.
        Some(w) => {
            let runs = run_set(
                &[w],
                Plan {
                    traced: cli.trace,
                    ..plan
                },
            )?;
            if cli.trace {
                print_per_layer(&runs[0]);
            } else {
                print_end_to_end(&runs[0]);
            }
            println!("{}", json_line(&runs[0], cli.trace));
            Ok(true)
        }
        None => {
            let runs = run_set(&ALL, plan)?;
            runs.iter().for_each(print_end_to_end);
            let mut ok = runs.iter().all(|r| r.failed() == 0);
            if cli.trace {
                let traced = run_set(
                    &ALL,
                    Plan {
                        traced: true,
                        ..plan
                    },
                )?;
                traced.iter().for_each(print_per_layer);
                ok &= traced.iter().all(|r| r.failed() == 0);
            }
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("round") => child_round(&args[1..]).map(|()| true),
        Some("oracle") => child_oracle(&args[1..]).map(|()| true),
        _ => parse_cli(&args).and_then(orchestrate),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("spine: FAILED (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}
