"""CLI: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.harness table3
    python -m repro.harness fig2
    python -m repro.harness fig9 --scale 1.0 --threads 8 --jobs 4
    python -m repro.harness fig10 --scale 0.5 --cores 16,32,64
    python -m repro.harness fig11 --scale 1.0 --save results/
    python -m repro.harness fig12 --scale 1.0 --seed 42
    python -m repro.harness misspec --no-cache
    python -m repro.harness ablations --scale 0.5
    python -m repro.harness all --scale 0.5 --jobs 0
    python -m repro.harness run --benchmark tatp --design HOPS --json
    python -m repro.harness trace array_swaps --design PMEMSpec \
        --trace-out trace.json
    python -m repro.harness metrics tpcc --design PMEM-Spec --summary
    python -m repro.harness profile tatp --design PMEM-Spec \
        --profile-out tatp.folded
    python -m repro.harness bench-history artifacts/ --html trends.html
    python -m repro.harness fig9 --events-out events.jsonl
    python -m repro.harness validate --planner stratified --budget 200 \
        --jobs 4 --report-out campaign.json
    python -m repro.harness validate --snapshot-rungs 16 \
        --snapshot-dir snaps/   # trials restore from rung snapshots
    python -m repro.harness snapshot capture --benchmark hashmap \
        --design PMEM-Spec --snapshot-every 50 --snapshot-dir snaps/
    python -m repro.harness snapshot inspect --snapshot-dir snaps/
    python -m repro.harness snapshot verify --benchmark hashmap \
        --design PMEM-Spec --snapshot-every 50 --snapshot-dir snaps/
    python -m repro.harness validate --resume runs/c1 --jobs 4 \
        --budget 40   # journal task outcomes; rerun after a kill resumes

Each command accepts only the flags its handler reads (:data:`COMMANDS`,
``COMMAND --help``); any other flag is a usage error, exit status 2.
A flag the command's mode would ignore exits 2 too, before anything
runs (:func:`check_modes`): ``validate --litmus`` runs no campaign and
takes no campaign flag, ``validate --snapshot-dir`` needs
``--snapshot-rungs``, and ``--cache-dir`` names the store that
``--no-cache`` turns off.

``--jobs N`` fans the experiment grid out over N worker processes
(``0`` = all cores).  Every command that fans work out can keep one
outcome store, a task journal (:mod:`repro.harness.resume`) keyed by
the code, the function and the argument of each task: a figure's
grid cells go to ``--cache-dir`` (default
``<tmpdir>/repro-harness-cache``) unless ``--no-cache`` is given, so
re-running an unchanged figure on an unchanged tree is free and any
code change recomputes; ``validate`` keeps no store unless ``--resume
DIR`` names one, so rerunning a killed campaign simulates only the
tasks it never finished.  Journal lines written by older code are
skipped, not pruned.

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


def _pool(args) -> dict:
    """The executor keywords of ``--jobs`` and ``--progress``."""
    progress = get_logger("harness.progress").info if args.progress else None
    return {"jobs": args.jobs if args.jobs > 0 else None,
            "progress": progress}


def _executor(args):
    """The sweep executor: the pool flags plus the outcome store."""
    from .sweep import ParallelExecutor
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.path.join(
            tempfile.gettempdir(), "repro-harness-cache")
    return ParallelExecutor(cache_dir=cache_dir, **_pool(args))


def _maybe_save(args, name, payload):
    if args.save:
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
    """Table 3: the simulated machine's configuration."""
    console(format_table3())


def cmd_fig9(args) -> None:
    """Figure 9: throughput of every design at 8 cores."""
    rows = _timed("fig9", lambda: figure9(n_threads=args.threads,
                                          scale=args.scale, seed=args.seed,
                                          executor=_executor(args)))
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
    """Figure 10: the same comparison at larger core counts."""
    cores = [int(c) for c in args.cores.split(",")]
    results = _timed("fig10", lambda: figure10(core_counts=cores,
                                               scale=args.scale,
                                               seed=args.seed,
                                               executor=_executor(args)))
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
    """Figure 11: speculation-buffer size sensitivity."""
    series = _timed("fig11", lambda: figure11(scale=args.scale,
                                              seed=args.seed,
                                              executor=_executor(args)))
    _maybe_save(args, "fig11", series)
    console(format_series(
        series, "buffer entries", "throughput vs 16-entry",
        "Figure 11: speculation-buffer size sensitivity (8 cores)"))


def cmd_fig12(args) -> None:
    """Figure 12: persist-path latency sensitivity."""
    series = _timed("fig12", lambda: figure12(scale=args.scale,
                                              seed=args.seed,
                                              executor=_executor(args)))
    _maybe_save(args, "fig12", series)
    console(format_series(
        series, "persist-path ns", "geomean vs IntelX86",
        "Figure 12: persist-path latency sensitivity"))


def cmd_misspec(args) -> None:
    """Section 8.4: misspeculation rates, with the probe rows."""
    rows = _timed("misspec", lambda: misspeculation_rates(
        scale=args.scale, seed=args.seed, executor=_executor(args)))
    _maybe_save(args, "misspec", {"rows": rows})
    console(format_misspec_table(
        rows, "Section 8.4: misspeculation rates under PMEM-Spec"))


def cmd_fig2(args) -> None:
    """Figure 2 quantified: ordering annotations per FASE."""
    rows = _timed("fig2", figure2_annotation_burden)
    console(format_series(
        rows, "benchmark", "annotations/FASE per flavor",
        "Figure 2 quantified: programmer-visible ordering annotations"))


def cmd_ablations(args) -> None:
    """Ablations: lazy vs eager recovery, naive tagging, undo vs redo."""
    executor = _executor(args)
    recovery = _timed("lazy-vs-eager",
                      lambda: lazy_vs_eager_recovery(scale=args.scale,
                                                     seed=args.seed,
                                                     executor=executor))
    console(format_series(recovery, "recovery mode", "outcome",
                          "Ablation: lazy vs eager recovery (§6.2)"))
    console()
    tagging = _timed("tagging", lambda: naive_tagging_ablation(
        scale=args.scale, seed=args.seed, executor=executor))
    console(format_series(
        {name: {"slowdown_naive": row["slowdown"],
                "naive_overflows": row["naive_overflows"]}
         for name, row in tagging.items()},
        "benchmark", "naive tagging cost",
        "Ablation: spec-tagging without escape analysis (§5.2.2)"))
    console()
    redo = _timed("undo-vs-redo", lambda: undo_vs_redo_ablation(
        scale=args.scale, seed=args.seed, executor=executor))
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
    """One benchmark on one design, through the outcome store."""
    spec = _cell_spec(args)
    result = _timed(
        f"{args.benchmark}/{args.design}",
        lambda: _executor(args).run(spec)[0])
    if args.json:
        console(result.to_json())
        return
    _print_run_summary(result)


def _cell_spec(args):
    """The RunSpec of the single-cell commands' flags."""
    from .sweep import RunSpec
    return RunSpec(benchmark=args.benchmark, design=args.design,
                   n_threads=args.threads, seed=args.seed)


def cmd_trace(args) -> None:
    """Run one spec with tracing on; write Chrome trace-event JSON."""
    from ..sim import (
        MetricsCollector,
        TraceRecorder,
        validate_trace_document,
    )
    from .sweep import execute_spec, spec_hash
    spec = _cell_spec(args)
    config = spec.resolved_config()
    tracer = TraceRecorder(cycle_ns=config.cycle_ns)
    metrics = MetricsCollector(window_cycles=args.metrics_window)
    out = args.trace_out or f"{spec.benchmark}-{spec.design}.trace.json"
    start = time.time()
    with run_context(run_id=f"trace/{spec.benchmark}",
                     spec_hash=spec_hash(spec)):
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
    from .sweep import execute_spec, spec_hash
    spec = _cell_spec(args)
    config = spec.resolved_config()
    tracer = TraceRecorder(cycle_ns=config.cycle_ns)
    start = time.time()
    with run_context(run_id=f"profile/{spec.benchmark}",
                     spec_hash=spec_hash(spec)):
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
    report = HistoryReport(collect_records(args.directory))
    console(report.render_terminal())
    if args.html:
        report.save_html(args.html)
        console(f"HTML trend report written to {args.html}")


def cmd_metrics(args) -> None:
    """Run one spec with windowed metrics; print series or sparklines."""
    from ..sim import MetricsCollector
    from .sweep import execute_spec, spec_hash
    spec = _cell_spec(args)
    metrics = MetricsCollector(window_cycles=args.metrics_window)
    start = time.time()
    with run_context(run_id=f"metrics/{spec.benchmark}",
                     spec_hash=spec_hash(spec)):
        result = execute_spec(spec, metrics=metrics)
        log.info("%s done in %.1fs", spec.describe(), time.time() - start)
    if args.summary:
        console(format_timeseries(
            result.timeseries or {},
            f"Time series: {spec.benchmark}/{spec.design} "
            f"({spec.n_threads} cores)"))
    else:
        console(json.dumps(result.timeseries or {}, indent=2))


def _names(text: str) -> list:
    """The names in a comma-separated flag value."""
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_validate(args) -> int:
    """Crash-consistency campaign over benchmarks x designs (exits 1 on
    any violation, so CI can gate on it).  ``--resume DIR`` runs it
    over the outcome store in DIR, so rerunning a killed campaign
    simulates only the tasks it never finished."""
    from ..validation import run_campaign
    from .report import format_campaign_table
    designs = _names(args.designs) if args.designs else None
    if args.litmus:
        from ..crashstates.litmus import format_litmus_table, run_litmus
        # The litmus tier covers every design (incl. StrandWeaver, which
        # the campaign default leaves out) unless --designs narrows it.
        litmus = run_litmus(designs=designs)
        console(format_litmus_table(litmus))
        if args.report_out:
            with open(args.report_out, "w") as fh:
                json.dump(litmus, fh, indent=2, sort_keys=True)
            console(f"litmus report written to {args.report_out}")
        return 0 if litmus["ok"] else 1
    from .sweep import ParallelExecutor
    executor = ParallelExecutor(cache_dir=args.resume, **_pool(args))
    with run_context(run_id="validate"):
        report = run_campaign(
            _names(args.benchmarks), designs or DESIGNS,
            planner=args.planner, fault=args.fault, budget=args.budget,
            seed=args.seed, n_threads=args.val_threads,
            fases_per_thread=args.val_fases, log_mode=args.log_mode,
            shrink=args.shrink, executor=executor,
            snapshot_dir=args.snapshot_dir if args.snapshot_rungs else None,
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
    action = args.action
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
    """Table 3, Figures 9-12, Section 8.4 and the ablations, in order."""
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


#: Flag groups shared by several commands; every command takes COMMON.
COMMON = ("--log-level", "--events-out")
POOL = ("--jobs", "--progress")                 # work fans out
SWEEP = POOL + ("--no-cache", "--cache-dir")    # ... over a stored grid
GRID = SWEEP + ("--scale", "--seed")            # an experiment grid
FIGURE = GRID + ("--save",)                     # ... that saves its data
CELL = ("--design", "--threads", "--seed")      # one simulated run
TRIAL = ("--seed", "--fault", "--val-threads", "--val-fases",
         "--log-mode", "--snapshot-dir")        # one crash-trial cell

#: Each command's handler and the arguments it reads beyond COMMON
#: (a name without dashes is positional).
COMMANDS = {
    "table3": (cmd_table3, ()),
    "fig2": (cmd_fig2, ()),
    "fig9": (cmd_fig9, FIGURE + ("--threads",)),
    "fig10": (cmd_fig10, FIGURE + ("--cores",)),
    "fig11": (cmd_fig11, FIGURE),
    "fig12": (cmd_fig12, FIGURE),
    "misspec": (cmd_misspec, FIGURE),
    "ablations": (cmd_ablations, GRID),
    "run": (cmd_run, SWEEP + CELL + ("--benchmark", "--json")),
    "trace": (cmd_trace, ("benchmark",) + CELL
              + ("--trace-out", "--metrics-window")),
    "metrics": (cmd_metrics, ("benchmark",) + CELL
                + ("--metrics-window", "--summary")),
    "profile": (cmd_profile, ("benchmark",) + CELL + ("--profile-out",)),
    "bench-history": (cmd_bench_history, ("directory", "--html")),
    "snapshot": (cmd_snapshot, ("action", "--benchmark", "--design",
                                "--snapshot-every") + TRIAL),
    "validate": (cmd_validate, POOL + TRIAL + (
        "--planner", "--budget", "--shrink", "--benchmarks", "--designs",
        "--report-out", "--snapshot-rungs", "--crash-states", "--litmus",
        "--image-budget", "--batch", "--resume")),
    "all": (cmd_all, FIGURE + ("--threads", "--cores")),
}


#: The validate flags a ``--litmus`` run reads; it runs no campaign.
LITMUS_FLAGS = ("--litmus", "--designs", "--report-out") + COMMON


def check_modes(args, argv) -> None:
    """Refuse a flag that the command's mode would ignore.

    A command's parser takes every flag the command reads, but a mode
    inside the command may read fewer: ``validate --litmus`` runs no
    campaign, ``validate --snapshot-dir`` stores rungs only with
    ``--snapshot-rungs``, and ``--no-cache`` keeps no store for
    ``--cache-dir`` to name.  ``argv`` is the parsed command line;
    flags are never abbreviated, so its flags are its words that start
    with ``--``.  Raises ValueError, a usage error (exit 2)."""
    if getattr(args, "no_cache", False) and args.cache_dir is not None:
        raise ValueError(f"{args.command} takes one of --cache-dir, "
                         f"--no-cache: --no-cache keeps no outcome store "
                         f"for --cache-dir to name")
    if args.command != "validate":
        return
    if args.litmus:
        typed = {word.partition("=")[0] for word in argv
                 if word.startswith("--")}
        ignored = sorted(typed.difference(LITMUS_FLAGS))
        if ignored:
            raise ValueError(f"validate --litmus runs no campaign, so it "
                             f"takes none of {', '.join(ignored)}")
    elif args.snapshot_dir is not None and not args.snapshot_rungs:
        raise ValueError("validate --snapshot-dir stores ladder rungs: "
                         "it needs --snapshot-rungs N with N > 0")


def _arguments() -> dict:
    """``add_argument`` keywords for every name in :data:`COMMANDS`."""
    from ..validation.faults import FAULT_NAMES
    from ..validation.planners import PLANNER_NAMES
    return {
        "--log-level": dict(default="info",
                            choices=("debug", "info", "warning", "error"),
                            help="diagnostic verbosity on stderr"),
        "--events-out": dict(metavar="FILE", help="write the run's "
                             "lifecycle events as JSON-Lines"),
        "--jobs": dict(type=int, default=1, help="worker processes "
                       "(0 = all cores; default 1 = serial)"),
        "--progress": dict(action="store_true",
                           help="log one line per completed task"),
        "--no-cache": dict(action="store_true",
                           help="keep no outcome store: simulate every "
                                "grid cell"),
        "--cache-dir": dict(metavar="DIR", help="outcome-store directory: "
                            "each grid cell is journaled in "
                            "DIR/tasks.jsonl, keyed by the code "
                            "(default: <tmpdir>/repro-harness-cache)"),
        "--scale": dict(type=float, default=1.0,
                        help="FASE-count multiplier (default 1.0)"),
        "--seed": dict(type=int, default=42),
        "--save": dict(metavar="DIR",
                       help="also write the experiment's data as JSON"),
        "--threads": dict(type=int, default=8),
        "--cores": dict(default="16,32,64", help="Figure 10's core counts"),
        "benchmark": dict(nargs="?", default="tpcc",
                          help="benchmark to simulate (default tpcc)"),
        "--benchmark": dict(default="tpcc"),
        "--design": dict(default="PMEM-Spec"),
        "--json": dict(action="store_true", help="emit JSON"),
        "--trace-out": dict(metavar="FILE", help="Chrome trace JSON path "
                            "(default <benchmark>-<design>.trace.json)"),
        "--metrics-window": dict(type=int, default=10_000,
                                 metavar="CYCLES",
                                 help="aggregation window for time-series "
                                      "metrics (default 10000 cycles)"),
        "--summary": dict(action="store_true",
                          help="sparkline summary instead of JSON"),
        "--profile-out": dict(metavar="FILE", help="collapsed-stack path "
                              "(default <benchmark>-<design>.folded)"),
        "directory": dict(nargs="?", default=".",
                          help="artifact directory (default .)"),
        "--html": dict(metavar="FILE",
                       help="also write an HTML trend report"),
        "action": dict(nargs="?", default="inspect",
                       choices=("capture", "inspect", "verify")),
        "--fault": dict(default="power-cut", choices=FAULT_NAMES,
                        help="fault model to inject"),
        "--val-threads": dict(type=int, default=2,
                              help="threads per trial (default 2)"),
        "--val-fases": dict(type=int, default=10,
                            help="FASEs per thread per trial (default 10)"),
        "--log-mode": dict(default="undo", choices=("undo", "redo"),
                           help="logging flavor under test"),
        "--snapshot-dir": dict(metavar="DIR",
                               help="rung-snapshot store directory"),
        "--snapshot-every": dict(type=int, default=0, metavar="K",
                                 help="ladder interval in persist events"),
        "--planner": dict(default="stratified", choices=PLANNER_NAMES,
                          help="crash-cycle planner"),
        "--budget": dict(type=int, default=200,
                         help="trial budget per workload x design cell "
                              "(default 200)"),
        "--shrink": dict(action=argparse.BooleanOptionalAction,
                         default=True,
                         help="shrink failing crash cycles to a minimal "
                              "reproducer"),
        "--benchmarks": dict(default="array_swaps,queue,hashmap,rbtree",
                             help="comma-separated benchmark list"),
        "--designs": dict(help="comma-separated design list (default: "
                          "the four campaign designs; --litmus also "
                          "checks StrandWeaver)"),
        "--report-out": dict(metavar="FILE",
                             help="write the report JSON artifact here"),
        "--snapshot-rungs": dict(type=int, default=0, metavar="N",
                                 help="size each cell's ladder to ~N rungs "
                                      "from a probe run (0 = no ladder); "
                                      "rungs are stored in --snapshot-dir"),
        "--crash-states": dict(action="store_true", help="then enumerate "
                               "every durable state each design's model "
                               "allows at sampled crash cycles and prove "
                               "recovery converges from all of them"),
        "--litmus": dict(action="store_true",
                         help="run only the hand-written crash-state "
                              "litmus tier (seconds, no campaign) and "
                              "exit 1 on any mismatch"),
        "--image-budget": dict(type=int, default=64, metavar="N",
                               help="durable-state images enumerated per "
                                    "crash cycle before falling back to "
                                    "seeded stratified sampling "
                                    "(default 64)"),
        "--batch": dict(type=int, default=0, metavar="N",
                        help="cap each (cell, chunk) task at N trials "
                             "(0 = one chunk per cell), spreading a cell "
                             "over more workers; outcomes are identical "
                             "for any N"),
        "--resume": dict(metavar="DIR", help="journal each campaign "
                         "task's outcome in DIR/tasks.jsonl and replay "
                         "the journaled ones, so rerunning a killed "
                         "campaign simulates only what it never finished "
                         "(the store --cache-dir keeps for figures)"),
    }


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, accepting exactly its :data:`COMMANDS`
    entry plus :data:`COMMON` (unabbreviated: a prefix of a flag the
    command does not read must not reach one it does)."""
    arguments = _arguments()
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the PMEM-Spec paper's tables and figures.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, names) in COMMANDS.items():
        summary = " ".join(handler.__doc__.split()).partition(". ")[0]
        command = commands.add_parser(name, help=summary.rstrip("."),
                                      allow_abbrev=False)
        for argument in COMMON + names:
            command.add_argument(argument, **arguments[argument])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    configure_logging(getattr(logging, args.log_level.upper()))

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
            check_modes(args, argv)
            status = COMMANDS[args.command][0](args)
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
                     command=args.command)
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
