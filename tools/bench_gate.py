#!/usr/bin/env python3
"""Bench-regression gate: compare fresh BENCH_*.json against committed
baselines with per-metric tolerances.

Usage:
    python3 tools/bench_gate.py [--baseline-dir bench/baselines]
                                [--scale FACTOR] BENCH_e3.json ...
    python3 tools/bench_gate.py --write-baselines BENCH_e3.json ...

Dependency-free (stdlib json only). Exit 0 when every gate passes,
1 on any regression, 2 on usage/schema problems.

Philosophy: counters that the system fully determines (rows, re-extraction
counts, hit-rate floors, busy-rejection presence, throughput monotonicity
across worker counts) are gated tightly — they regress only when behaviour
regresses. Wall-clock metrics are gated loosely (default: >25% throughput
loss, >4x p99 blow-up) because baselines and CI runners are different
machines; `--scale` (or BENCH_GATE_SCALE) loosens all timing tolerances
at once for known-slow environments. The E14 warm sweep is deliberately
sleep-dominated, so its absolute throughput IS portable and the 25% gate
has teeth there.
"""

import json
import os
import sys

# Per-experiment gate rules. Fields:
#   key        row-identity fields (baseline rows matched to current rows)
#   only       restrict gating to rows matching these field values
#   equal      behavioural counters that must match the baseline exactly
#   faster     higher-is-better metrics: (name, max fractional loss)
#   slower     lower-is-better metrics: (name, max blow-up factor)
#   floor      metric minimums: (name, min value)
#   monotone   (metric, order-field): metric must be non-decreasing when
#              rows are sorted by order-field (2% slack for jitter)
GATES = {
    "e3": dict(
        key=("query",),
        only={},
        equal=("records_extracted", "files_extracted"),
        faster=(),
        slower=(("lazy_warm_us", 4.0),),
        floor=(),
        monotone=None,
    ),
    # E12 is CPU-bound (in-process threads, no think time), so its
    # absolute qps is NOT portable across hosts — no `faster` gate here;
    # the hit-rate floor and the loose p99 ceiling still catch behavioural
    # and catastrophic regressions. E14's sweep is sleep-dominated by
    # design, which is why *it* carries the 25% throughput gate.
    "e12": dict(
        key=("shards", "phase"),
        only={"phase": "warm"},
        equal=(),
        faster=(),
        slower=(("p99_us", 4.0),),
        floor=(("cache_hit_rate", 0.95),),
        monotone=None,
    ),
    "e13": dict(
        key=("phase",),
        only={"phase": "warm"},
        equal=("records_extracted",),
        faster=(),
        slower=(("tti_us", 4.0),),
        floor=(("cache_hit_rate", 0.99),),
        monotone=None,
    ),
    "e14": dict(
        key=("phase", "workers"),
        only={"phase": "warm"},
        equal=("records_extracted",),
        faster=(("throughput_qps", 0.25),),
        slower=(("p99_us", 4.0),),
        floor=(("cache_hit_rate", 0.95),),
        monotone=("throughput_qps", "workers"),
    ),
    # E15 gates the vectorized execution path. `results_match` and the
    # row counts are behavioural (the kernels must agree with the scalar
    # reference); the speedup floor is the acceptance bar that keeps the
    # fast path from silently rotting (≥2x at tiny scale is conservative —
    # release builds measure ~3-11x); `rows_pruned` (zonemap row only)
    # proves the zone-map short-circuit fires. Floors are deliberately
    # NOT scaled by BENCH_GATE_SCALE: a speedup is a ratio on one host.
    # The agg_parallel sweep rows (keyed by workers), the row set and the
    # row schema are gated by the custom block below, not by these floors.
    "e15": dict(
        key=("kernel", "workers"),
        only={},
        equal=("rows", "out_rows", "results_match"),
        faster=(),
        slower=(("vectorized_us", 4.0),),
        floor=(("speedup", 2.0), ("rows_pruned", 1)),
        monotone=None,
    ),
    # E16 gates the federation story. The per-source rows carry fully
    # deterministic extraction counters (same generated repositories,
    # same pruning) — gated exactly; `warm_files_extracted == 0` is the
    # zero-re-extraction acceptance bar per mount. The `_query` row's
    # `union_matches` is the correctness bar (federated ≡ eager union);
    # its timings get the usual loose cross-machine ceilings. The row
    # set, the row schema, the per-mount kinds and the remote-specific
    # checks (fetches actually happened, WAN time modeled) live in the
    # custom block below.
    # E17 gates the cost-based planner and the ordered time index. The
    # per-config counters are fully deterministic (same generated
    # repository, same pruning decisions) — gated exactly; the seek-vs-
    # sweep comparison (strictly fewer entries examined), the row set and
    # schema, and the estimation accounting (costed configs estimate
    # plans, the heuristic ablation none) live in the custom block below.
    # Timings
    # get the usual loose cross-machine ceiling.
    "e17": dict(
        key=("config",),
        only={},
        equal=(
            "queries", "rows", "index_seeks", "entries_examined",
            "fetched_pairs", "pruned_pairs", "plans_estimated",
            "estimate_abs_error", "results_match",
        ),
        faster=(),
        slower=(("cold_us", 4.0),),
        floor=(),
        monotone=None,
    ),
    # E18 fresh-data polling: the deterministic schedule (rounds, pollers,
    # polls) and the recycler's patch accounting must not drift; the
    # actual bar — incremental strictly beating recompute on the same
    # host, patches landing only in incremental mode, answers agreeing —
    # lives in the custom block below. Timings get the loose ceiling.
    "e18": dict(
        key=("mode",),
        only={},
        equal=(
            "rounds", "pollers", "polls", "results_patched",
            "patch_rows_applied", "recompute_fallbacks", "results_match",
        ),
        faster=(),
        slower=(("total_us", 4.0),),
        floor=(),
        monotone=None,
    ),
    "e16": dict(
        key=("source",),
        only={},
        equal=(
            "kind", "files", "files_extracted", "records_extracted",
            "samples_extracted", "warm_files_extracted", "rows",
            "union_matches", "warm_records_extracted",
        ),
        faster=(),
        slower=(("cold_us", 4.0), ("warm_us", 4.0)),
        floor=(),
        monotone=None,
    ),
}

# E12's row schema: the perf-trajectory fields every row must carry.
E12_FIELDS = ("shards", "threads", "throughput_qps", "p50_us", "p99_us", "cache_hit_rate")

# E13's row set and schema: one cold open and one warm reopen, each with
# the fields of the warm-restart acceptance bar.
E13_PHASES = {"cold", "warm"}
E13_FIELDS = (
    "open_us", "first_query_us", "tti_us", "mix_total_us", "cache_hit_rate",
    "records_extracted", "save_us", "saved_bytes", "segments", "warm_beats_cold",
)

# E14's admission row exists to prove backpressure fires; gate that too.
E14_ADMISSION_MIN_BUSY = 1

# E14's connection sweep: the event-driven server must complete these
# client counts over a 2-worker pool (timings are informational — p99 at
# 100x oversubscription is contention noise, not a regression signal).
E14_CONNSWEEP_CLIENTS = (50, 100, 200)

# E14's row schema: the worker counts the warm sweep covers, and the
# fields every Figure-1-mix row (cold / warm / admission / connsweep) and
# the memceil row must carry — CI consumers read them by name.
E14_WARM_WORKERS = [1, 2, 4]
E14_MIX_FIELDS = (
    "phase", "workers", "clients", "queue_depth", "total_queries",
    "busy_rejections", "busy_rate", "throughput_qps", "p50_us", "p99_us",
    "cache_hit_rate", "records_extracted",
    "cursors_opened", "batches_streamed", "credit_stalls",
)
E14_MEMCEIL_FIELDS = (
    "batch_rows", "initial_credit", "max_outbuf_bytes", "rows",
    "batches_streamed", "credit_stalls", "outbuf_hwm_bytes",
    "ceiling_bytes", "ceiling_ok", "elapsed_us",
)

# E15's agg_parallel sweep: 2 execution workers must beat 1 by this factor.
# Loose on purpose (perfect scaling would be 2.0) and only applied when the
# measuring host reports >= 2 cores — on a single-core runner the workers
# time-slice one CPU and the ratio is meaningless (the equivalence gate
# `results_match` still applies there).
E15_PARALLEL_MIN_SPEEDUP = 1.3

# E15's row schema: the kernel rows, the worker counts of the agg_parallel
# sweep, and the fields each carries — a floor cannot fire on a field that
# is not there, so presence is gated first.
E15_KERNELS = {"filter", "project", "aggregate", "zonemap"}
E15_KERNEL_FIELDS = (
    "rows", "out_rows", "scalar_us", "vectorized_us", "speedup",
    "rows_per_sec_vectorized", "results_match",
)
E15_SWEEP_WORKERS = [1, 2, 4]
E15_SWEEP_FIELDS = ("workers", "elapsed_us", "parallel_speedup", "cores", "results_match")

# E16's row set and schema: one row per mount (with its backend kind)
# plus the `_query` summary row.
E16_MOUNT_KINDS = {"archive": "local", "surveys": "csv", "orfeus": "remote"}
E16_MOUNT_FIELDS = (
    "kind", "files", "files_extracted", "records_extracted", "samples_extracted",
    "bytes_read", "simulated_io_us", "fetch_requests", "fetched_bytes",
    "warm_files_extracted",
)
E16_QUERY_FIELDS = (
    "rows", "union_matches", "cold_us", "warm_us", "warm_records_extracted",
    "warm_cache_hits",
)

# E17's row set and schema: the three planner configurations.
E17_CONFIGS = {"seek", "sweep", "heuristic"}
E17_FIELDS = (
    "queries", "rows", "cold_us", "index_seeks", "entries_examined",
    "fetched_pairs", "pruned_pairs", "plans_estimated", "estimate_abs_error",
    "results_match",
)

# E18's row set: exactly the two modes.
E18_MODES = {"incremental", "recompute"}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        raise SystemExit(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def row_key(row, fields):
    return tuple(row.get(f) for f in fields)


def matches(row, only):
    return all(row.get(k) == v for k, v in only.items())


def gate_experiment(exp, current_doc, baseline_doc, scale, failures, notes):
    rules = GATES[exp]
    cur_rows = {row_key(r, rules["key"]): r for r in current_doc["rows"] if matches(r, rules["only"])}
    base_rows = {row_key(r, rules["key"]): r for r in baseline_doc["rows"] if matches(r, rules["only"])}

    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            failures.append(f"{exp}{list(key)}: row present in baseline but missing from current run")
            continue
        for metric in rules["equal"]:
            if cur.get(metric) != base.get(metric):
                failures.append(
                    f"{exp}{list(key)}.{metric}: behavioural counter changed "
                    f"(baseline {base.get(metric)!r}, current {cur.get(metric)!r})"
                )
        for metric, max_loss in rules["faster"]:
            b, c = base.get(metric), cur.get(metric)
            if isinstance(b, (int, float)) and isinstance(c, (int, float)) and b > 0:
                floor = b * (1.0 - min(0.95, max_loss * scale))
                if c < floor:
                    failures.append(
                        f"{exp}{list(key)}.{metric}: {c:.1f} lost more than "
                        f"{100 * max_loss * scale:.0f}% vs baseline {b:.1f}"
                    )
                else:
                    notes.append(f"{exp}{list(key)}.{metric}: {c:.1f} (baseline {b:.1f}) ok")
        for metric, max_factor in rules["slower"]:
            b, c = base.get(metric), cur.get(metric)
            if isinstance(b, (int, float)) and isinstance(c, (int, float)) and b > 0:
                ceiling = b * max_factor * scale
                if c > ceiling:
                    failures.append(
                        f"{exp}{list(key)}.{metric}: {c:.0f} blew past "
                        f"{max_factor * scale:.1f}x baseline {b:.0f}"
                    )
                else:
                    notes.append(f"{exp}{list(key)}.{metric}: {c:.0f} (baseline {b:.0f}) ok")
        for metric, minimum in rules["floor"]:
            c = cur.get(metric)
            if isinstance(c, (int, float)) and c < minimum:
                failures.append(f"{exp}{list(key)}.{metric}: {c} below floor {minimum}")

    if rules["monotone"]:
        metric, order = rules["monotone"]
        swept = sorted(cur_rows.values(), key=lambda r: r.get(order, 0))
        for prev, nxt in zip(swept, swept[1:]):
            p, n = prev.get(metric), nxt.get(metric)
            if isinstance(p, (int, float)) and isinstance(n, (int, float)) and n < p * 0.98:
                failures.append(
                    f"{exp}: {metric} not monotone over {order} "
                    f"({order}={prev.get(order)}→{nxt.get(order)}: {p:.1f}→{n:.1f})"
                )
        if swept:
            notes.append(
                f"{exp}: {metric} over {order} " +
                " → ".join(f"{r.get(metric):.0f}" for r in swept)
            )

    if exp == "e12":
        if not current_doc["rows"]:
            failures.append("e12: no rows in current run")
        for row in current_doc["rows"]:
            for field in E12_FIELDS:
                if field not in row:
                    failures.append(f"e12[{row.get('phase')}]: field {field} missing")

    # E13: the warm-restart acceptance bar — a reopened warehouse must beat
    # the cold open to first insight, answer the mix without re-extraction,
    # and hit its rehydrated cache.
    if exp == "e13":
        by_phase = {r.get("phase"): r for r in current_doc["rows"]}
        if set(by_phase) != E13_PHASES or len(current_doc["rows"]) != len(E13_PHASES):
            failures.append(
                f"e13: phase rows {sorted(map(str, by_phase))}, want {sorted(E13_PHASES)}"
            )
        else:
            cold, warm = by_phase["cold"], by_phase["warm"]
            for phase, row in by_phase.items():
                for field in E13_FIELDS:
                    if field not in row:
                        failures.append(f"e13[{phase}]: field {field} missing")
            if warm.get("records_extracted") != 0:
                failures.append("e13[warm]: the warm reopen re-extracted records")
            if not cold.get("records_extracted", 0) > 0:
                failures.append("e13[cold]: the cold open never extracted")
            if not warm.get("cache_hit_rate", 0) > 0.99:
                failures.append(f"e13[warm]: cache hit rate {warm.get('cache_hit_rate')} not above 0.99")
            if not warm.get("segments", 0) > 0:
                failures.append("e13[warm]: the warm reopen loaded no segments")
            if not warm.get("tti_us", 0) < cold.get("tti_us", 0):
                failures.append(
                    f"e13: warm TTI {warm.get('tti_us')}us does not beat cold "
                    f"{cold.get('tti_us')}us to first insight"
                )
            else:
                notes.append(
                    f"e13: warm TTI {warm['tti_us']}us < cold {cold['tti_us']}us ok"
                )

    if exp == "e15":
        sweep = [r for r in current_doc["rows"] if r.get("kernel") == "agg_parallel"]
        kernels = {
            r.get("kernel"): r for r in current_doc["rows"] if r.get("kernel") != "agg_parallel"
        }
        if set(kernels) != E15_KERNELS:
            failures.append(f"e15: kernel rows {sorted(map(str, kernels))}, want {sorted(E15_KERNELS)}")
        for name, row in kernels.items():
            for field in E15_KERNEL_FIELDS if name != "zonemap" else ("results_match",):
                if field not in row:
                    failures.append(f"e15[{name}]: field {field} missing")
        zonemap = kernels.get("zonemap", {})
        if not zonemap.get("rows_pruned", 0) > 0:
            failures.append(f"e15[zonemap]: zone-map pruning never fired: {zonemap}")
        workers = [r.get("workers") for r in sweep]
        if workers != E15_SWEEP_WORKERS:
            failures.append(f"e15[agg_parallel]: worker sweep {workers}, want {E15_SWEEP_WORKERS}")
        for row in sweep:
            for field in E15_SWEEP_FIELDS:
                if field not in row:
                    failures.append(
                        f"e15[agg_parallel workers={row.get('workers')}]: field {field} missing"
                    )
            if row.get("results_match") is not True:
                failures.append(
                    f"e15[agg_parallel workers={row.get('workers')}]: parallel result "
                    "diverged from the serial run"
                )
        two = next((r for r in sweep if r.get("workers") == 2), None)
        if two is not None:
            cores = two.get("cores", 1)
            speedup = two.get("parallel_speedup", 0.0)
            if cores >= 2 and isinstance(speedup, (int, float)) and speedup < E15_PARALLEL_MIN_SPEEDUP:
                failures.append(
                    f"e15[agg_parallel workers=2]: speedup {speedup:.2f} below "
                    f"{E15_PARALLEL_MIN_SPEEDUP}x floor on a {cores}-core host"
                )
            elif cores < 2:
                notes.append(
                    f"e15[agg_parallel workers=2]: speedup floor skipped on a "
                    f"{cores}-core host (equivalence still gated)"
                )
            else:
                notes.append(
                    f"e15[agg_parallel workers=2]: speedup {speedup:.2f} "
                    f"(floor {E15_PARALLEL_MIN_SPEEDUP}) ok"
                )

    if exp == "e16":
        by_source = {r.get("source"): r for r in current_doc["rows"]}
        want = set(E16_MOUNT_KINDS) | {"_query"}
        if set(by_source) != want:
            failures.append(f"e16: source rows {sorted(map(str, by_source))}, want {sorted(want)}")
        query = by_source.get("_query", {})
        for field in E16_QUERY_FIELDS:
            if field not in query:
                failures.append(f"e16[_query]: field {field} missing")
        if query.get("union_matches") is not True:
            failures.append("e16[_query]: federated answer diverged from the eager union")
        if query.get("warm_records_extracted") != 0:
            failures.append("e16[_query]: the warm query re-extracted records")
        if not query.get("warm_cache_hits", 0) > 0:
            failures.append("e16[_query]: the warm query never hit the record cache")
        for name, kind in E16_MOUNT_KINDS.items():
            row = by_source.get(name)
            if row is None:
                continue  # reported by the row-set check above
            for field in E16_MOUNT_FIELDS:
                if field not in row:
                    failures.append(f"e16[{name}]: field {field} missing")
            if row.get("kind") != kind:
                failures.append(f"e16[{name}]: kind {row.get('kind')!r}, want {kind!r}")
            if not row.get("files_extracted", 0) > 0:
                failures.append(f"e16[{name}]: mount never extracted")
            if row.get("warm_files_extracted") != 0:
                failures.append(f"e16[{name}]: warm re-extraction")
        remotes = [r for r in current_doc["rows"] if r.get("kind") == "remote"]
        if not remotes:
            failures.append("e16: no remote mount in current run")
        for row in remotes:
            if row.get("fetch_requests", 0) < 1:
                failures.append(
                    f"e16[{row.get('source')}]: remote mount never range-fetched"
                )
            elif row.get("simulated_io_us", 0) < 1:
                failures.append(
                    f"e16[{row.get('source')}]: remote extraction has no modeled WAN time"
                )
            else:
                notes.append(
                    f"e16[{row.get('source')}]: {row['fetch_requests']} fetches, "
                    f"{row.get('fetched_bytes', 0)} bytes over the simulated WAN ok"
                )

    if exp == "e17":
        by_config = {r.get("config"): r for r in current_doc["rows"]}
        if set(by_config) != E17_CONFIGS:
            failures.append(
                f"e17: config rows {sorted(map(str, by_config))}, want {sorted(E17_CONFIGS)}"
            )
        else:
            seek, sweep, heuristic = by_config["seek"], by_config["sweep"], by_config["heuristic"]
            for cfg, row in by_config.items():
                for field in E17_FIELDS:
                    if field not in row:
                        failures.append(f"e17[{cfg}]: field {field} missing")
                if row.get("results_match") is not True:
                    failures.append(f"e17[{cfg}]: answers diverged from the seek reference")
            if seek.get("entries_examined", 0) >= sweep.get("entries_examined", 0):
                failures.append(
                    f"e17: index seek examined {seek.get('entries_examined')} entries, "
                    f"not strictly below the linear sweep's {sweep.get('entries_examined')}"
                )
            else:
                notes.append(
                    f"e17: seek examined {seek['entries_examined']} entries vs "
                    f"sweep's {sweep['entries_examined']} ok"
                )
            if seek.get("index_seeks", 0) < 1:
                failures.append("e17[seek]: the ordered time index never served a pruning pass")
            if sweep.get("index_seeks", 0) != 0:
                failures.append("e17[sweep]: seek-disabled ablation still used the index")
            for cfg in ("seek", "sweep"):
                if by_config[cfg].get("plans_estimated", 0) < 1:
                    failures.append(
                        f"e17[{cfg}]: cost-based pipeline produced no cardinality estimates"
                    )
            if heuristic.get("plans_estimated", 0) != 0:
                failures.append("e17[heuristic]: no-cost ablation still estimated plans")
            if seek.get("fetched_pairs") != sweep.get("fetched_pairs") or \
                    seek.get("pruned_pairs") != sweep.get("pruned_pairs"):
                failures.append(
                    "e17: seek and sweep disagree on extraction counts — the index "
                    "changed pruning decisions instead of only accelerating them"
                )

    if exp == "e18":
        by_mode = {r.get("mode"): r for r in current_doc["rows"]}
        if set(by_mode) != E18_MODES:
            failures.append(f"e18: mode rows {sorted(map(str, by_mode))}, want {sorted(E18_MODES)}")
        else:
            incr, recomp = by_mode["incremental"], by_mode["recompute"]
            for mode, row in by_mode.items():
                if row.get("results_match") is not True:
                    failures.append(f"e18[{mode}]: incremental and recompute answers diverged")
            if incr.get("total_us", 0) >= recomp.get("total_us", 0):
                failures.append(
                    f"e18: incremental total {incr.get('total_us')}us did not beat "
                    f"recompute's {recomp.get('total_us')}us on the same host"
                )
            else:
                ratio = recomp.get("total_us", 1) / max(incr.get("total_us", 1), 1)
                notes.append(f"e18: incremental {ratio:.1f}x faster than recompute ok")
            if incr.get("results_patched", 0) < 1:
                failures.append("e18[incremental]: the recycler never patched a resident result")
            if incr.get("recompute_fallbacks", 0) != 0:
                failures.append(
                    "e18[incremental]: maintainable mix fell back to recompute — "
                    "the delta classifier regressed"
                )
            if recomp.get("results_patched", 0) != 0:
                failures.append("e18[recompute]: maintenance-disabled ablation still patched")

    if exp == "e14":
        warm = sorted(r.get("workers") for r in current_doc["rows"] if r.get("phase") == "warm")
        if warm != E14_WARM_WORKERS:
            failures.append(f"e14[warm]: worker sweep {warm}, want {E14_WARM_WORKERS}")

        admission = [r for r in current_doc["rows"] if r.get("phase") == "admission"]
        if not admission:
            failures.append("e14: admission row missing from current run")
        for row in admission:
            if row.get("busy_rejections", 0) < E14_ADMISSION_MIN_BUSY:
                failures.append(
                    "e14[admission]: no busy rejections — admission control did not fire"
                )
            else:
                notes.append(
                    f"e14[admission]: {row['busy_rejections']} busy rejections "
                    f"(rate {row.get('busy_rate', 0):.2f}) ok"
                )

        # Every mix row carries the full schema, and the streaming counters
        # actually move: every served query opens a cursor and streams at
        # least one batch.
        for row in current_doc["rows"]:
            if row.get("phase") in ("cold", "warm", "admission", "connsweep"):
                for field in E14_MIX_FIELDS:
                    if field not in row:
                        failures.append(f"e14[{row.get('phase')}]: field {field} missing")
                if row.get("cursors_opened", 0) < row.get("total_queries", 0):
                    failures.append(
                        f"e14[{row.get('phase')}]: {row.get('cursors_opened')} cursors for "
                        f"{row.get('total_queries')} queries — results not streamed"
                    )

        # Connection sweep: hundreds of clients over a 2-worker pool must
        # all complete through the event-driven connection layer.
        sweep = {r.get("clients"): r for r in current_doc["rows"] if r.get("phase") == "connsweep"}
        missing = [c for c in E14_CONNSWEEP_CLIENTS if c not in sweep]
        if missing:
            failures.append(f"e14[connsweep]: client counts missing from current run: {missing}")
        for clients, row in sorted(sweep.items()):
            want = clients * 2  # queries_per_client is fixed at 2
            if row.get("total_queries") != want:
                failures.append(
                    f"e14[connsweep clients={clients}]: {row.get('total_queries')} queries "
                    f"completed, want {want} — connections lost under load"
                )
            else:
                notes.append(
                    f"e14[connsweep clients={clients}]: {want} queries, "
                    f"p99 {row.get('p99_us', 0) / 1000:.0f}ms ok"
                )

        # Memory ceiling: a stalled reader must suspend its cursor (credit
        # stalls observed) while the outbound high-water mark stays under
        # the configured ceiling — the O(batch)-not-O(result) guarantee.
        memceils = [r for r in current_doc["rows"] if r.get("phase") == "memceil"]
        if len(memceils) != 1:
            failures.append(f"e14: {len(memceils)} memceil rows in current run, want exactly 1")
        else:
            memceil = memceils[0]
            for field in E14_MEMCEIL_FIELDS:
                if field not in memceil:
                    failures.append(f"e14[memceil]: field {field} missing")
            if memceil.get("ceiling_ok") is not True:
                failures.append(
                    f"e14[memceil]: outbuf high water {memceil.get('outbuf_hwm_bytes')}B "
                    f"blew the {memceil.get('ceiling_bytes')}B ceiling"
                )
            if memceil.get("credit_stalls", 0) < 1:
                failures.append(
                    "e14[memceil]: stalled reader never suspended its cursor — "
                    "credit backpressure did not fire"
                )
            min_batches = memceil.get("rows", 0) // max(1, memceil.get("batch_rows", 1))
            if memceil.get("batches_streamed", 0) < min_batches:
                failures.append(
                    f"e14[memceil]: only {memceil.get('batches_streamed')} batches for "
                    f"{memceil.get('rows')} rows at {memceil.get('batch_rows')} rows/batch"
                )
            if not failures or all("memceil" not in f for f in failures):
                notes.append(
                    f"e14[memceil]: hwm {memceil.get('outbuf_hwm_bytes')}B <= "
                    f"ceiling {memceil.get('ceiling_bytes')}B, "
                    f"{memceil.get('credit_stalls')} credit stalls ok"
                )


def main(argv):
    baseline_dir = "bench/baselines"
    scale = float(os.environ.get("BENCH_GATE_SCALE", "1.0"))
    write_baselines = False
    files = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--baseline-dir":
            baseline_dir = argv[i + 1]
            i += 2
        elif arg == "--scale":
            scale = float(argv[i + 1])
            i += 2
        elif arg == "--write-baselines":
            write_baselines = True
            i += 1
        else:
            files.append(arg)
            i += 1
    if not files:
        print(__doc__)
        return 2

    if write_baselines:
        os.makedirs(baseline_dir, exist_ok=True)
        for path in files:
            doc = load(path)
            dest = os.path.join(baseline_dir, f"{doc['experiment']}.json")
            with open(dest, "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
            print(f"baseline written: {dest}")
        return 0

    failures, notes = [], []
    for path in files:
        doc = load(path)
        exp = doc["experiment"]
        if exp not in GATES:
            print(f"(no gate rules for {exp}; skipping {path})")
            continue
        base_path = os.path.join(baseline_dir, f"{exp}.json")
        if not os.path.exists(base_path):
            failures.append(f"{exp}: baseline {base_path} missing — commit one with --write-baselines")
            continue
        baseline = load(base_path)
        if doc.get("scale") != baseline.get("scale"):
            raise SystemExit(
                f"{path}: scale {doc.get('scale')!r} does not match baseline scale "
                f"{baseline.get('scale')!r} — comparing across scales is meaningless; "
                f"run the gated scale or refresh the baseline"
            )
        gate_experiment(exp, doc, baseline, scale, failures, notes)

    for line in notes:
        print(f"  ok: {line}")
    if failures:
        print(f"\nBENCH GATE FAILED ({len(failures)} regression(s)):")
        for line in failures:
            print(f"  FAIL: {line}")
        return 1
    print(f"\nbench gate passed: {len(notes)} checks, 0 regressions (timing scale {scale})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
