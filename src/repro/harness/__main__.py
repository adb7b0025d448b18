"""CLI: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.harness table3
    python -m repro.harness fig9  [--scale 1.0] [--threads 8] [--jobs 4]
    python -m repro.harness fig10 [--scale 0.5] [--cores 16,32,64]
    python -m repro.harness fig11 [--scale 1.0]
    python -m repro.harness fig12 [--scale 1.0]
    python -m repro.harness misspec
    python -m repro.harness ablations
    python -m repro.harness all   [--scale 0.5] [--jobs 0]
    python -m repro.harness trace array_swaps --design PMEMSpec \
        --trace-out trace.json
    python -m repro.harness metrics tpcc --design PMEM-Spec --summary
    python -m repro.harness profile tatp --design PMEM-Spec \
        --profile-out tatp.folded
    python -m repro.harness bench-history artifacts/ --html trends.html
    python -m repro.harness fig9 --events-out events.jsonl
    python -m repro.harness validate --planner stratified --budget 200 \
        --jobs 4 --report-out campaign.json
    python -m repro.harness validate --snapshot-every 50 \
        --snapshot-dir snaps/   # warm-start trials from rung snapshots
    python -m repro.harness snapshot capture --benchmark hashmap \
        --design PMEM-Spec --snapshot-every 50 --snapshot-dir snaps/
    python -m repro.harness snapshot inspect --snapshot-dir snaps/
    python -m repro.harness snapshot verify --benchmark hashmap \
        --design PMEM-Spec --snapshot-every 50 --snapshot-dir snaps/
    python -m repro.harness validate --resume runs/c1 --jobs 4 \
        --budget 40   # journal task outcomes; rerun after a kill resumes

``--jobs N`` fans the experiment grid out over N worker processes
(``0`` = all cores).  Results are cached per grid cell (keyed by a
content hash of the resolved run spec) so re-running an unchanged
figure is free; ``--no-cache`` disables the cache and ``--cache-dir``
relocates it.

Output channels: experiment *data* (tables, figures, JSON, traces) goes
to stdout; diagnostics (timings, cache provenance, progress) go to the
``repro.*`` loggers on stderr (``--log-level`` adjusts verbosity), so
``... fig9 > fig9.txt`` captures clean data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import signal
import sys
import tempfile
import time

from ..telemetry import configure_logging, console, get_logger, run_context
from .configs import DESIGNS, format_table3
from .experiments import (
    figure2_annotation_burden,
    figure9,
    figure10,
    figure10_summary,
    figure11,
    figure12,
    lazy_vs_eager_recovery,
    misspeculation_rates,
    naive_tagging_ablation,
    undo_vs_redo_ablation,
)
from .report import (
    format_bar_chart,
    format_misspec_table,
    format_normalized_table,
    format_series,
    format_timeseries,
)

log = get_logger("harness.cli")


class _Interrupted(BaseException):
    """SIGINT/SIGTERM arrived mid-command; unwind, flush, exit clean.

    A ``BaseException``, like ``KeyboardInterrupt``, so no task-failure
    handler (the pool retries tasks that raise ``Exception``) absorbs
    it."""

    def __init__(self, signum: int):
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def _install_signal_handlers():
    """Long-running commands (validate, sweeps) must not die with a
    traceback and half-written artifacts: a signal raises
    :class:`_Interrupted`, the dispatch loop's ``finally`` flushes the
    event log and metrics exposition, and the process exits with the
    conventional ``128 + signum``.  A ``validate --resume`` run stopped
    this way keeps every task outcome it journaled, so rerunning the
    same command finishes it.

    Returns the displaced ``(signum, handler)`` pairs so the dispatch
    loop can put them back -- in-process callers (the test suite, a
    notebook) must not keep our handlers after ``main()`` returns.
    Forked pool workers restore defaults on their own
    (:func:`repro.harness.pool.reset_worker_signals`)."""
    previous = []

    def handler(signum, _frame):
        raise _Interrupted(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((signum, signal.signal(signum, handler)))
        except (ValueError, OSError):   # non-main thread / platform
            pass
    return previous


def _restore_signal_handlers(previous) -> None:
    for signum, handler in previous:
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):
            pass


def _maybe_save(args, name, payload):
    if getattr(args, "save", None):
        from .artifacts import save_artifact
        path = save_artifact(args.save, name, payload,
                             meta={"scale": args.scale, "seed": args.seed})
        log.info("saved %s", path)


def _timed(label, fn):
    start = time.time()
    with run_context(run_id=label):
        result = fn()
    log.info("%s done in %.1fs", label, time.time() - start)
    return result


def cmd_table3(args) -> None:
    console(format_table3())


def cmd_fig9(args) -> None:
    rows = _timed("fig9", lambda: figure9(n_threads=args.threads,
                                          scale=args.scale, seed=args.seed,
                                          executor=args.executor))
    _maybe_save(args, "fig9", rows)
    console(format_normalized_table(
        rows, DESIGNS,
        f"Figure 9: throughput normalised to IntelX86 "
        f"({args.threads}-core system)"))
    from ..sim import geomean
    console()
    console(format_bar_chart(
        {design: geomean([rows[b][design] for b in rows])
         for design in DESIGNS},
        "Figure 9 geomean (|= baseline)", reference=1.0))


def cmd_fig10(args) -> None:
    cores = [int(c) for c in args.cores.split(",")]
    results = _timed("fig10", lambda: figure10(core_counts=cores,
                                               scale=args.scale,
                                               seed=args.seed,
                                               executor=args.executor))
    _maybe_save(args, "fig10", results)
    for count, rows in results.items():
        console(format_normalized_table(
            rows, DESIGNS,
            f"Figure 10: normalised throughput ({count}-core system)"))
        console()
    summary = figure10_summary(results)
    console(format_series(summary, "cores", "geomean vs IntelX86",
                          "Figure 10 summary (geomean per design)"))


def cmd_fig11(args) -> None:
    series = _timed("fig11", lambda: figure11(scale=args.scale,
                                              seed=args.seed,
                                              executor=args.executor))
    _maybe_save(args, "fig11", series)
    console(format_series(
        series, "buffer entries", "throughput vs 16-entry",
        "Figure 11: speculation-buffer size sensitivity (8 cores)"))


def cmd_fig12(args) -> None:
    series = _timed("fig12", lambda: figure12(scale=args.scale,
                                              seed=args.seed,
                                              executor=args.executor))
    _maybe_save(args, "fig12", series)
    console(format_series(
        series, "persist-path ns", "geomean vs IntelX86",
        "Figure 12: persist-path latency sensitivity"))


def cmd_misspec(args) -> None:
    rows = _timed("misspec", lambda: misspeculation_rates(
        scale=args.scale, seed=args.seed, executor=args.executor))
    _maybe_save(args, "misspec", {"rows": rows})
    console(format_misspec_table(
        rows, "Section 8.4: misspeculation rates under PMEM-Spec"))


def cmd_fig2(args) -> None:
    rows = _timed("fig2", figure2_annotation_burden)
    console(format_series(
        rows, "benchmark", "annotations/FASE per flavor",
        "Figure 2 quantified: programmer-visible ordering annotations"))


def cmd_ablations(args) -> None:
    recovery = _timed("lazy-vs-eager",
                      lambda: lazy_vs_eager_recovery(scale=args.scale,
                                                     seed=args.seed,
                                                     executor=args.executor))
    console(format_series(recovery, "recovery mode", "outcome",
                          "Ablation: lazy vs eager recovery (§6.2)"))
    console()
    tagging = _timed("tagging", lambda: naive_tagging_ablation(
        scale=args.scale, seed=args.seed, executor=args.executor))
    console(format_series(
        {name: {"slowdown_naive": row["slowdown"],
                "naive_overflows": row["naive_overflows"]}
         for name, row in tagging.items()},
        "benchmark", "naive tagging cost",
        "Ablation: spec-tagging without escape analysis (§5.2.2)"))
    console()
    redo = _timed("undo-vs-redo", lambda: undo_vs_redo_ablation(
        scale=args.scale, seed=args.seed, executor=args.executor))
    console(format_series(
        {name: {key: value for key, value in row.items()
                if key.endswith("speedup")}
         for name, row in redo.items()},
        "benchmark", "redo/undo throughput",
        "Ablation: undo vs redo logging (writeback-dropping designs)"))


def _print_run_summary(result) -> None:
    console(repr(result))
    console(f"  throughput        : {result.throughput / 1e6:.3f} M FASEs/s")
    console(f"  committed/aborted : {result.fases_committed}/"
            f"{result.fases_aborted}")
    console(f"  misspeculations   : {result.load_misspeculations} load, "
            f"{result.store_misspeculations} store")
    for section in ("design", "spec_buffer", "pmc", "hierarchy"):
        stats = result.stats.get(section, {})
        if stats:
            rendered = ", ".join(f"{k}={v}" for k, v in
                                 sorted(stats.items())[:8])
            console(f"  {section:<18}: {rendered}")


def cmd_run(args) -> None:
    from .sweep import RunSpec
    spec = RunSpec(benchmark=args.benchmark, design=args.design,
                   n_threads=args.threads, seed=args.seed)
    result = _timed(
        f"{args.benchmark}/{args.design}",
        lambda: args.executor.run(spec)[0])
    if args.json:
        console(result.to_json())
        return
    _print_run_summary(result)


def _observed_spec(args):
    """The RunSpec the trace/metrics commands simulate (benchmark from
    the positional target, falling back to --benchmark)."""
    from .sweep import RunSpec
    benchmark = args.target or args.benchmark
    return RunSpec(benchmark=benchmark, design=args.design,
                   n_threads=args.threads, seed=args.seed)


def cmd_trace(args) -> None:
    """Run one spec with tracing on; write Chrome trace-event JSON."""
    from ..sim import (
        MetricsCollector,
        TraceRecorder,
        validate_trace_document,
    )
    from .sweep import execute_spec
    spec = _observed_spec(args)
    config = spec.resolved_config()
    tracer = TraceRecorder(cycle_ns=config.cycle_ns)
    metrics = MetricsCollector(window_cycles=args.metrics_window)
    out = args.trace_out or f"{spec.benchmark}-{spec.design}.trace.json"
    start = time.time()
    with run_context(run_id=f"trace/{spec.benchmark}",
                     spec_hash=spec.cache_key()[:12]):
        result = execute_spec(spec, tracer=tracer, metrics=metrics)
        log.info("%s done in %.1fs (%d trace events, %d dropped)",
                 spec.describe(), time.time() - start, len(tracer),
                 tracer.dropped)
    document = tracer.to_dict()
    problems = validate_trace_document(document)
    if problems:
        for problem in problems[:10]:
            log.error("trace schema: %s", problem)
        raise ValueError(f"trace failed schema check "
                         f"({len(problems)} problems)")
    tracer.save(out)
    console(f"trace written to {out} "
            f"({len(tracer)} events on {len(tracer.tracks)} tracks; "
            f"open in Perfetto / chrome://tracing)")
    console()
    _print_run_summary(result)
    if result.timeseries:
        console()
        console(format_timeseries(
            result.timeseries,
            f"Time series: {spec.benchmark}/{spec.design}"))


def cmd_profile(args) -> None:
    """Run one spec traced, attribute every simulated cycle to a
    component, and write collapsed stacks for flamegraph tools."""
    from ..obsv import get_bus, profile_run
    from ..sim import TraceRecorder
    from .sweep import execute_spec
    spec = _observed_spec(args)
    config = spec.resolved_config()
    tracer = TraceRecorder(cycle_ns=config.cycle_ns)
    start = time.time()
    with run_context(run_id=f"profile/{spec.benchmark}",
                     spec_hash=spec.cache_key()[:12]):
        result = execute_spec(spec, tracer=tracer)
        elapsed = time.time() - start
        log.info("%s done in %.1fs (%d trace events)", spec.describe(),
                 elapsed, len(tracer))
        bus = get_bus()
        if bus.enabled:
            bus.emit("spec_start", index=0, describe=spec.describe())
            bus.emit("spec_finish", index=0, describe=spec.describe(),
                     elapsed_s=elapsed, cache_hit=False, retried=False,
                     source="profile", cycles=result.cycles)
    profile = profile_run(tracer, result.cycles, wall_s=elapsed,
                          label=spec.describe())
    out = args.profile_out or f"{spec.benchmark}-{spec.design}.folded"
    profile.save_collapsed(out)
    console(profile.table())
    console()
    console(f"collapsed stacks written to {out} "
            f"(feed to flamegraph.pl / speedscope / inferno)")


def cmd_bench_history(args) -> None:
    """Trend report over a directory of BENCH_*.json payloads and
    *events*.jsonl event logs (CI artifact collections)."""
    from ..obsv import HistoryReport, collect_records
    root = args.target or "."
    report = HistoryReport(collect_records(root))
    console(report.render_terminal())
    if args.html:
        report.save_html(args.html)
        console(f"HTML trend report written to {args.html}")


def cmd_metrics(args) -> None:
    """Run one spec with windowed metrics; print series or sparklines."""
    from ..sim import MetricsCollector
    from .sweep import execute_spec
    spec = _observed_spec(args)
    metrics = MetricsCollector(window_cycles=args.metrics_window)
    start = time.time()
    with run_context(run_id=f"metrics/{spec.benchmark}",
                     spec_hash=spec.cache_key()[:12]):
        result = execute_spec(spec, metrics=metrics)
        log.info("%s done in %.1fs", spec.describe(), time.time() - start)
    if args.summary:
        console(format_timeseries(
            result.timeseries or {},
            f"Time series: {spec.benchmark}/{spec.design} "
            f"({spec.n_threads} cores)"))
    else:
        console(json.dumps(result.timeseries or {}, indent=2))


def cmd_validate(args) -> int:
    """Crash-consistency campaign over benchmarks x designs (exits 1 on
    any violation, so CI can gate on it).  ``--resume DIR`` runs it
    over a task journal in DIR, so rerunning a killed campaign
    simulates only the tasks it never finished."""
    from ..validation import run_campaign
    from .report import format_campaign_table
    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    if args.litmus:
        if args.resume:
            raise ValueError("--resume journals campaign tasks; "
                             "--litmus runs none")
        from ..crashstates.litmus import format_litmus_table, run_litmus
        # The litmus tier covers every design (incl. StrandWeaver, which
        # the campaign default leaves out) unless --designs narrows it.
        explicit = args.designs != ",".join(DESIGNS)
        litmus = run_litmus(designs=designs if explicit else None)
        console(format_litmus_table(litmus))
        if args.report_out:
            with open(args.report_out, "w") as fh:
                json.dump(litmus, fh, indent=2, sort_keys=True)
            console(f"litmus report written to {args.report_out}")
        return 0 if litmus["ok"] else 1
    executor = args.executor
    if args.resume:
        from .resume import JournaledExecutor
        executor = JournaledExecutor(args.resume, jobs=executor.jobs,
                                     progress=executor.progress)
    progress_log = get_logger("validation.progress")
    with run_context(run_id="validate"):
        report = run_campaign(
            benchmarks, designs,
            planner=args.planner, fault=args.fault, budget=args.budget,
            seed=args.seed, n_threads=args.val_threads,
            fases_per_thread=args.val_fases, log_mode=args.log_mode,
            shrink=args.shrink, executor=executor,
            progress=progress_log.info if args.progress else None,
            snapshot_dir=(args.snapshot_dir
                          if args.snapshot_every or args.snapshot_rungs
                          else None),
            snapshot_every=args.snapshot_every,
            snapshot_rungs=args.snapshot_rungs,
            batch=args.batch,
            crash_states=args.crash_states,
            image_budget=args.image_budget)
    console(format_campaign_table(
        report.rows(),
        f"Crash-consistency campaign: fault={args.fault} "
        f"planner={args.planner} budget={args.budget}/cell "
        f"seed={args.seed}"))
    console()
    status = "CONSISTENT" if report.consistent else (
        f"{report.total_failures} FAILING TRIALS "
        f"{report.violation_kinds()}")
    console(f"{report.total_trials} trials in {report.elapsed_s:.1f}s: "
            f"{status}")
    if report.crash_states is not None:
        cells = report.crash_states["cells"]
        images = sum(c.get("images_enumerated", 0) for c in cells)
        failed = sum(c.get("images_failed", 0) for c in cells)
        cs_status = ("CONSISTENT" if report.crash_states_ok
                     else f"{failed} FAILING IMAGES")
        console(f"crash states: {images} images over {len(cells)} cells "
                f"(budget {args.image_budget}/cycle): {cs_status}")
    console(f"seed={args.seed} report fingerprint "
            f"{report.fingerprint()[:16]}")
    if args.resume:
        console(f"resume {args.resume}: "
                f"{executor.stats['tasks_from_journal']} tasks from the "
                f"journal, {executor.stats['tasks_executed']} executed")
    if args.report_out:
        report.save(args.report_out)
        console(f"campaign report written to {args.report_out}")
    return 0 if report.consistent and report.crash_states_ok else 1


def cmd_snapshot(args) -> int:
    """Snapshot-ladder management: capture / inspect / verify.

    ``capture`` runs one cell's canonical laddered run and stores its
    rungs; ``inspect`` lists stored indexes (or one cell's rungs);
    ``verify`` replays every stored rung and checks each lands on the
    straight-line run's end fingerprint (exit 1 on any mismatch or on a
    rung the store cannot return intact).
    """
    from ..snapshot import SnapshotStore
    from ..validation.campaign import (TrialSpec, _cell_index_name,
                                       snapshot_cell, verify_cell)
    action = args.target or "inspect"
    if action not in ("capture", "inspect", "verify"):
        raise ValueError(f"unknown snapshot action {action!r}; choose "
                         f"capture, inspect, or verify")
    if not args.snapshot_dir:
        raise ValueError("snapshot command needs --snapshot-dir")

    def cell_spec() -> TrialSpec:
        if not args.snapshot_every:
            raise ValueError(f"snapshot {action} needs --snapshot-every")
        return TrialSpec(
            workload=args.benchmark, design=args.design, fault=args.fault,
            n_threads=args.val_threads, fases_per_thread=args.val_fases,
            seed=args.seed, log_mode=args.log_mode,
            snapshot_every=args.snapshot_every,
            snapshot_dir=args.snapshot_dir)

    if action == "capture":
        spec = cell_spec()
        rungs = _timed("snapshot-capture", lambda: snapshot_cell(spec))
        console(f"captured {len(rungs)} rungs for {spec.describe()} "
                f"(index {_cell_index_name(spec)})")
        for rung in rungs:
            console(f"  rung {rung['rung']:>3} @ cycle {rung['cycle']:>8} "
                    f"fp {rung['fingerprint'][:16]}")
        return 0
    if action == "inspect":
        store = SnapshotStore(args.snapshot_dir)
        names = store.indexes()
        console(f"store {args.snapshot_dir}: {len(names)} indexes, "
                f"{store.total_bytes()} bytes")
        for name in names:
            rungs = store.load_index(name)
            cycles = [r["cycle"] for r in rungs]
            span = (f"cycles {min(cycles)}..{max(cycles)}"
                    if cycles else "empty")
            console(f"  {name}: {len(rungs)} rungs ({span})")
        return 0
    spec = cell_spec()
    outcome = _timed("snapshot-verify", lambda: verify_cell(spec))
    for check in outcome["checks"]:
        if "error" in check:
            status = f"CORRUPT ({check['error']})"
        else:
            status = "ok" if check["fingerprint_ok"] else "MISMATCH"
        console(f"  rung {check['rung']:>3} @ cycle {check['cycle']:>8} "
                f"{status}")
    verdict = "deterministic" if outcome["ok"] else "NON-DETERMINISTIC"
    console(f"{spec.describe()}: {len(outcome['checks'])} rungs, {verdict}")
    return 0 if outcome["ok"] else 1


def cmd_all(args) -> None:
    cmd_table3(args)
    console()
    cmd_fig9(args)
    console()
    cmd_fig10(args)
    console()
    cmd_fig11(args)
    console()
    cmd_fig12(args)
    console()
    cmd_misspec(args)
    console()
    cmd_ablations(args)


COMMANDS = {
    "table3": cmd_table3,
    "fig2": cmd_fig2,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "fig12": cmd_fig12,
    "misspec": cmd_misspec,
    "ablations": cmd_ablations,
    "run": cmd_run,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "profile": cmd_profile,
    "bench-history": cmd_bench_history,
    "snapshot": cmd_snapshot,
    "validate": cmd_validate,
    "all": cmd_all,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the PMEM-Spec paper's tables and figures.")
    parser.add_argument("experiment", choices=sorted(COMMANDS))
    parser.add_argument("target", nargs="?", default=None,
                        help="benchmark name (trace/metrics/profile "
                             "commands) or artifact directory "
                             "(bench-history)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="FASE-count multiplier (default 1.0)")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--cores", default="16,32,64",
                        help="core counts for fig10")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--benchmark", default="tpcc",
                        help="benchmark for the `run` command")
    parser.add_argument("--design", default="PMEM-Spec",
                        help="design for the `run`/`trace`/`metrics` "
                             "commands")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON (run command)")
    parser.add_argument("--save", default=None, metavar="DIR",
                        help="also write the experiment's data as JSON")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment grid "
                             "(0 = all cores; default 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-spec result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: "
                             "<tmpdir>/repro-harness-cache)")
    parser.add_argument("--progress", action="store_true",
                        help="log one line per completed grid cell")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="trace command: output path for the Chrome "
                             "trace-event JSON")
    parser.add_argument("--events-out", default=None, metavar="FILE",
                        help="write the run's lifecycle events as "
                             "JSON-Lines (any command)")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="profile command: collapsed-stack output "
                             "path (default <benchmark>-<design>.folded)")
    parser.add_argument("--html", default=None, metavar="FILE",
                        help="bench-history command: also write an HTML "
                             "trend report")
    parser.add_argument("--metrics-window", type=int, default=10_000,
                        metavar="CYCLES",
                        help="trace and metrics commands: aggregation "
                             "window for time-series metrics (default "
                             "10000 cycles)")
    parser.add_argument("--summary", action="store_true",
                        help="metrics command: sparkline summary instead "
                             "of JSON")
    from ..validation.faults import FAULT_NAMES
    from ..validation.planners import PLANNER_NAMES
    parser.add_argument("--planner", default="stratified",
                        choices=PLANNER_NAMES,
                        help="validate command: crash-cycle planner")
    parser.add_argument("--fault", default="power-cut",
                        choices=FAULT_NAMES,
                        help="validate command: fault model to inject")
    parser.add_argument("--budget", type=int, default=200,
                        help="validate command: trial budget per "
                             "workload x design cell (default 200)")
    parser.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="validate command: shrink failing crash "
                             "cycles to a minimal reproducer")
    parser.add_argument("--benchmarks",
                        default="array_swaps,queue,hashmap,rbtree",
                        help="validate command: comma-separated benchmark "
                             "list")
    parser.add_argument("--designs", default=",".join(DESIGNS),
                        help="validate command: comma-separated design "
                             "list (default: all)")
    parser.add_argument("--val-threads", type=int, default=2,
                        help="validate command: threads per trial "
                             "(default 2)")
    parser.add_argument("--val-fases", type=int, default=10,
                        help="validate command: FASEs per thread per "
                             "trial (default 10)")
    parser.add_argument("--log-mode", default="undo",
                        choices=("undo", "redo"),
                        help="validate command: logging flavor under test")
    parser.add_argument("--report-out", default=None, metavar="FILE",
                        help="validate command: write the CampaignReport "
                             "JSON artifact here")
    parser.add_argument("--snapshot-dir", default=None, metavar="DIR",
                        help="snapshot/validate commands: rung-snapshot "
                             "store directory")
    parser.add_argument("--snapshot-every", type=int, default=0,
                        metavar="K",
                        help="snapshot ladder interval in persist events "
                             "(0 = off; validate restores trials from "
                             "the nearest rung when on)")
    parser.add_argument("--snapshot-rungs", type=int, default=0,
                        metavar="N",
                        help="validate command: size each cell's ladder "
                             "to ~N rungs from a probe run instead of a "
                             "fixed --snapshot-every interval")
    parser.add_argument("--crash-states", action="store_true",
                        help="validate command: after the trial campaign, "
                             "enumerate every durable state each design's "
                             "persistency model allows at sampled crash "
                             "cycles and prove recovery converges from "
                             "all of them")
    parser.add_argument("--litmus", action="store_true",
                        help="validate command: run only the hand-written "
                             "crash-state litmus tier (seconds, no "
                             "campaign) and exit 1 on any mismatch")
    parser.add_argument("--image-budget", type=int, default=64,
                        metavar="N",
                        help="validate command: durable-state images "
                             "enumerated per crash cycle before falling "
                             "back to seeded stratified sampling "
                             "(default 64)")
    parser.add_argument("--batch", type=int, default=0, metavar="N",
                        help="validate command: cap each (cell, chunk) "
                             "task at N trials (0 = one chunk per "
                             "cell); smaller chunks spread a cell over "
                             "more workers.  Every chunk is served from "
                             "a resident per-cell run, and outcomes are "
                             "identical for any N")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="validate command: journal each campaign "
                             "task's outcome in DIR/tasks.jsonl and "
                             "replay the journaled ones, so rerunning "
                             "a killed campaign simulates only what it "
                             "never finished")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="diagnostic verbosity on stderr")
    args = parser.parse_args(argv)
    configure_logging(getattr(logging, args.log_level.upper()))
    from .sweep import ParallelExecutor
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or os.path.join(
            tempfile.gettempdir(), "repro-harness-cache")
    progress_log = get_logger("harness.progress")
    args.executor = ParallelExecutor(
        jobs=args.jobs if args.jobs > 0 else None,
        cache_dir=cache_dir,
        progress=progress_log.info if args.progress else None)

    # Observability: --events-out installs an event bus as the
    # process-current bus for the duration of the command, so the
    # executor, the campaign engine, and the snapshot manager all
    # publish to it without any of them knowing about the CLI.
    bus = sink = None
    if args.events_out:
        from ..obsv import EventBus, JsonlSink, bus_scope
        bus = EventBus()
        sink = JsonlSink(args.events_out)
        bus.subscribe(sink)
    scope = (bus_scope(bus) if bus is not None
             else contextlib.nullcontext())
    previous_handlers = _install_signal_handlers()
    try:
        with scope:
            status = COMMANDS[args.experiment](args)
    except ValueError as exc:
        # Bad spec inputs (unknown design/benchmark, config mismatch)
        # are user errors, not crashes.
        log.error("%s", exc)
        return 2
    except _Interrupted as exc:
        # Graceful stop: no traceback, partial artifacts flushed by
        # the finally below, conventional 128+signum exit code.
        log.warning("interrupted by %s; flushing partial artifacts "
                    "and event log", exc)
        if bus is not None:
            bus.emit("interrupted", signal_name=str(exc),
                     command=args.experiment)
        return 128 + exc.signum
    finally:
        _restore_signal_handlers(previous_handlers)
        if sink is not None:
            sink.close()
            log.info("%d events written to %s", sink.written,
                     args.events_out)
    return status or 0


if __name__ == "__main__":
    sys.exit(main())
