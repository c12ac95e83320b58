//! `lazyetl-serve` — boot a warehouse and serve it over TCP.
//!
//! ```sh
//! lazyetl-serve --root /data/mseed --addr 127.0.0.1:7744 \
//!     --workers 4 --queue-depth 32 --save-dir /var/lib/lazyetl/snap
//! ```
//!
//! When `--save-dir` holds a snapshot from a previous graceful shutdown,
//! the warehouse **warm-restarts** from it (metadata and the hot record
//! cache come back without rescanning); otherwise it cold-opens from
//! `--root`. SIGTERM (or SIGINT, or a wire `Shutdown` frame) triggers the
//! drain→snapshot sequence and the process exits 0 — so a supervisor
//! restart loop gets warmer every cycle.
//!
//! `--ready-file PATH` writes the bound address to `PATH` once the
//! listener is live (how scripts wait for boot without parsing logs).

use lazyetl_core::{Mode, Warehouse, WarehouseBuilder, WarehouseConfig};
use lazyetl_repo::{CsvSource, LazySource, RemoteSource, Repository};
use lazyetl_server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handler() {
    // `signal(2)` via the C runtime every Rust binary already links —
    // the container policy is no new crates, and std exposes no signal
    // API. The handler only flips an atomic (async-signal-safe).
    extern "C" fn on_signal(_sig: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handler() {}

struct Args {
    root: PathBuf,
    mounts: Vec<(String, String)>,
    addr: String,
    workers: usize,
    queue_depth: usize,
    parallelism: usize,
    batch_rows: u32,
    initial_credit: u32,
    max_outbuf_kib: usize,
    cost_budget_rows: Option<u64>,
    save_dir: Option<PathBuf>,
    ready_file: Option<PathBuf>,
    eager: bool,
    no_auto_refresh: bool,
    refresh_ms: Option<u64>,
    recycle_results: bool,
}

fn usage() -> &'static str {
    "usage: lazyetl-serve (--root DIR | --mount NAME=SPEC ...) [options]\n\
     \n\
     options:\n\
       --root DIR         repository to serve (single local mount)\n\
       --mount NAME=SPEC  mount a named lazy source; repeatable. SPEC is\n\
                          DIR (local), csv:DIR (CSV waveforms only) or\n\
                          remote:DIR (simulated remote, range fetches)\n\
       --addr HOST:PORT   listen address (default 127.0.0.1:7744; port 0 = ephemeral)\n\
       --workers N        query worker threads (default 4)\n\
       --queue-depth N    admission queue depth before BUSY (default 32)\n\
       --parallelism N    worker threads per query's execution pipelines\n\
                          (default 1 = serial executor)\n\
       --batch-rows N     rows per streamed result batch (default 4096)\n\
       --initial-credit N batches a cursor streams before the client must\n\
                          grant credit (default 4)\n\
       --max-outbuf-kib N per-connection outbound buffer ceiling in KiB\n\
                          (default 256); cursor pumping pauses above it\n\
       --cost-budget N    admission cost budget in estimated rows\n\
                          (default off = queue-depth admission only)\n\
       --save-dir DIR     snapshot dir: warm-restart from it when present,\n\
                          write it on graceful shutdown\n\
       --ready-file PATH  write the bound address here once listening\n\
       --eager            open the warehouse eagerly (baseline mode)\n\
       --no-auto-refresh  skip the per-query repository rescan\n\
       --refresh-ms N     poll the repository every N ms server-side and\n\
                          push updated results to live-tail subscribers\n\
                          (default off)\n\
       --recycle-results  keep finished query results resident and patch\n\
                          them in place from refresh deltas (the O(delta)\n\
                          path behind live-tail pushes; default off)"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::new(),
        mounts: Vec::new(),
        addr: "127.0.0.1:7744".into(),
        workers: 4,
        queue_depth: 32,
        parallelism: 1,
        batch_rows: 4096,
        initial_credit: 4,
        max_outbuf_kib: 256,
        cost_budget_rows: None,
        save_dir: None,
        ready_file: None,
        eager: false,
        no_auto_refresh: false,
        refresh_ms: None,
        recycle_results: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--root" => {
                args.root = PathBuf::from(value(&argv, i, "--root")?);
                i += 2;
            }
            "--mount" => {
                let spec = value(&argv, i, "--mount")?;
                let (name, src) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--mount wants NAME=SPEC, got {spec:?}"))?;
                args.mounts.push((name.to_string(), src.to_string()));
                i += 2;
            }
            "--addr" => {
                args.addr = value(&argv, i, "--addr")?;
                i += 2;
            }
            "--workers" => {
                args.workers = value(&argv, i, "--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
                i += 2;
            }
            "--queue-depth" => {
                args.queue_depth = value(&argv, i, "--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs an integer".to_string())?;
                i += 2;
            }
            "--parallelism" => {
                args.parallelism = value(&argv, i, "--parallelism")?
                    .parse()
                    .map_err(|_| "--parallelism needs an integer".to_string())?;
                i += 2;
            }
            "--batch-rows" => {
                args.batch_rows = value(&argv, i, "--batch-rows")?
                    .parse()
                    .map_err(|_| "--batch-rows needs an integer".to_string())?;
                i += 2;
            }
            "--initial-credit" => {
                args.initial_credit = value(&argv, i, "--initial-credit")?
                    .parse()
                    .map_err(|_| "--initial-credit needs an integer".to_string())?;
                i += 2;
            }
            "--max-outbuf-kib" => {
                args.max_outbuf_kib = value(&argv, i, "--max-outbuf-kib")?
                    .parse()
                    .map_err(|_| "--max-outbuf-kib needs an integer".to_string())?;
                i += 2;
            }
            "--cost-budget" => {
                args.cost_budget_rows = Some(
                    value(&argv, i, "--cost-budget")?
                        .parse()
                        .map_err(|_| "--cost-budget needs an integer".to_string())?,
                );
                i += 2;
            }
            "--save-dir" => {
                args.save_dir = Some(PathBuf::from(value(&argv, i, "--save-dir")?));
                i += 2;
            }
            "--ready-file" => {
                args.ready_file = Some(PathBuf::from(value(&argv, i, "--ready-file")?));
                i += 2;
            }
            "--eager" => {
                args.eager = true;
                i += 1;
            }
            "--no-auto-refresh" => {
                args.no_auto_refresh = true;
                i += 1;
            }
            "--refresh-ms" => {
                args.refresh_ms = Some(
                    value(&argv, i, "--refresh-ms")?
                        .parse()
                        .map_err(|_| "--refresh-ms needs an integer".to_string())?,
                );
                i += 2;
            }
            "--recycle-results" => {
                args.recycle_results = true;
                i += 1;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.root.as_os_str().is_empty() && args.mounts.is_empty() {
        return Err(format!("--root or --mount is required\n{}", usage()));
    }
    if !args.root.as_os_str().is_empty() && !args.mounts.is_empty() {
        return Err(format!("--root and --mount are exclusive\n{}", usage()));
    }
    Ok(args)
}

/// Build the lazy source a `--mount` SPEC names.
fn open_source(spec: &str) -> Result<Box<dyn LazySource>, lazyetl_repo::RepoError> {
    Ok(match spec.split_once(':') {
        Some(("csv", dir)) => Box::new(CsvSource::open(dir)?),
        Some(("remote", dir)) => Box::new(RemoteSource::open(dir)?),
        Some(("local", dir)) => Box::new(Repository::open(dir)?),
        _ => Box::new(Repository::open(spec)?),
    })
}

/// A snapshot directory is usable when its manifest commit point exists.
fn has_snapshot(dir: &Path) -> bool {
    dir.join(lazyetl_core::MANIFEST_NAME).exists()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    install_signal_handler();

    let config = WarehouseConfig {
        auto_refresh: !args.no_auto_refresh,
        parallelism: args.parallelism.max(1),
        recycle_query_results: args.recycle_results,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let warm_from = args
        .save_dir
        .as_deref()
        .filter(|d| has_snapshot(d))
        .map(Path::to_path_buf);
    // A snapshot fixes the warehouse mode; booting it under the other
    // mode's flag must fail loudly, not silently serve the wrong mode.
    if let Some(snap) = &warm_from {
        let requested = if args.eager { Mode::Eager } else { Mode::Lazy };
        match lazyetl_core::saved_mode(snap) {
            Ok(saved) if saved != requested => {
                eprintln!(
                    "lazyetl-serve: snapshot at {} was saved in {saved:?} mode but \
                     {requested:?} was requested; clear the snapshot directory or \
                     drop the conflicting flag",
                    snap.display()
                );
                return ExitCode::from(2);
            }
            _ => {}
        }
    }
    let wh = if args.mounts.is_empty() {
        // Classic single-root serving: the builder shims, bare URIs.
        match &warm_from {
            Some(snap) => Warehouse::open_saved(&args.root, snap, config),
            None if args.eager => Warehouse::open_eager(&args.root, config),
            None => Warehouse::open_lazy(&args.root, config),
        }
    } else {
        // Federated serving: every --mount becomes a named source.
        let mut builder = WarehouseBuilder::new().config(config).mode(if args.eager {
            Mode::Eager
        } else {
            Mode::Lazy
        });
        let mut failed = None;
        for (name, spec) in &args.mounts {
            match open_source(spec) {
                Ok(src) => builder = builder.source(name.clone(), src),
                Err(e) => {
                    failed = Some(format!("mount {name}={spec}: {e}"));
                    break;
                }
            }
        }
        match failed {
            Some(msg) => {
                eprintln!("lazyetl-serve: cannot open warehouse: {msg}");
                return ExitCode::FAILURE;
            }
            None => match &warm_from {
                Some(snap) => builder.open_saved(snap),
                None => builder.open(),
            },
        }
    };
    let wh = match wh {
        Ok(w) => Arc::new(w),
        Err(e) => {
            eprintln!("lazyetl-serve: cannot open warehouse: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = wh.stats_snapshot();
    println!(
        "lazyetl-serve: mode={} files={} records={} open={:?} warm={} segments_attachable={}",
        match stats.mode {
            Mode::Lazy => "lazy",
            Mode::Eager => "eager",
        },
        stats.files,
        stats.records,
        t0.elapsed(),
        warm_from.is_some(),
        stats.pending_segments,
    );

    let server = match Server::start(
        Arc::clone(&wh),
        args.addr.as_str(),
        ServerConfig {
            workers: args.workers,
            queue_depth: args.queue_depth,
            batch_rows: args.batch_rows.max(1),
            initial_credit: args.initial_credit.max(1),
            max_outbuf_bytes: args.max_outbuf_kib.max(1) * 1024,
            cost_budget_rows: args.cost_budget_rows,
            save_dir: args.save_dir.clone(),
            refresh_interval: args.refresh_ms.map(Duration::from_millis),
            ..Default::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lazyetl-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", server.addr());
    if let Some(path) = &args.ready_file {
        if let Err(e) = std::fs::write(path, server.addr().to_string()) {
            eprintln!("lazyetl-serve: cannot write ready file: {e}");
        }
    }

    // Serve until a signal or a wire shutdown request.
    while !TERMINATE.load(Ordering::SeqCst) && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("lazyetl-serve: shutting down (drain + snapshot)");
    match server.stop() {
        Ok(report) => {
            println!(
                "lazyetl-serve: served ok={} err={} busy={} dropped={} cursors={} batches={} stalls={}",
                report.stats.queries_ok,
                report.stats.queries_err,
                report.stats.busy_rejections,
                report.stats.dropped_replies,
                report.stats.cursors_opened,
                report.stats.batches_streamed,
                report.stats.credit_stalls,
            );
            if let Some(save) = report.save {
                println!(
                    "SNAPSHOT epoch={} bytes={} tables={} segments={}",
                    save.epoch,
                    save.bytes,
                    save.tables.len(),
                    save.segments.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lazyetl-serve: shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}
