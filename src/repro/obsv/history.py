"""Cross-run bench history: trend reports over ``BENCH_*.json`` runs.

The repo's benchmark gates (``benchmarks/bench_engine.py --check``,
``BENCH_snapshot.json``) each freeze ONE payload; regressions show up
only as a binary pass/fail against that single baseline.  This module
turns a *directory of* bench payloads -- e.g. CI artifacts collected
over time, one timestamped copy per run -- into per-metric trend
series, so a slow 3%-per-week drift that never trips the 25%% gate is
still visible.

Inputs
------
* ``BENCH_*.json`` files (recursively).  Every top-level numeric
  scalar in the payload becomes a metric sample; the ``bench`` key
  names the series.  Files sort by modification time (ties broken by
  path) so "ingest the artifact directory" yields chronological
  trends without requiring embedded timestamps.
* ``*events*.jsonl`` event logs from the :mod:`repro.obsv.bus`.
  Sweep and campaign summary events contribute throughput samples
  (specs simulated per second -- executed, not served from the
  journal --, trials per second, journal ratio) to synthetic
  ``sweep`` / ``campaign`` series.

Outputs
-------
* :meth:`HistoryReport.render_terminal` -- sparkline per metric with
  first/last/delta annotations (pure ASCII + unicode ticks, no deps).
* :meth:`HistoryReport.render_html` -- a standalone HTML page with
  inline SVG line charts, suitable as a CI artifact.
"""

from __future__ import annotations

import html
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry import get_logger
from .bus import read_event_log

log = get_logger("obsv.history")


class BenchRecord:
    """One bench payload (or event-log summary) flattened to metrics."""

    def __init__(self, series: str, source: str,
                 metrics: Dict[str, float], order: Tuple):
        self.series = series
        self.source = source
        self.metrics = metrics
        self.order = order

    def to_dict(self) -> Dict:
        return {"series": self.series, "source": self.source,
                "metrics": self.metrics}


def _numeric_scalars(payload: Dict) -> Dict[str, float]:
    out = {}
    for key, value in payload.items():
        if isinstance(value, bool):
            out[key] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def load_bench_file(path: str) -> Optional[BenchRecord]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as err:
        log.warning("skipping unreadable bench file %s: %s", path, err)
        return None
    if not isinstance(payload, dict):
        return None
    metrics = _numeric_scalars(payload)
    if not metrics:
        return None
    series = str(payload.get("bench", os.path.basename(path)))
    order = (os.path.getmtime(path), path)
    return BenchRecord(series, path, metrics, order)


def _summarize_events(path: str) -> List[BenchRecord]:
    """Throughput samples from one event log's summary events."""
    try:
        events = read_event_log(path)
    except (OSError, ValueError) as err:
        log.warning("skipping unreadable event log %s: %s", path, err)
        return []
    records: List[BenchRecord] = []
    order = (os.path.getmtime(path), path)
    for event in events:
        kind = event.get("kind")
        if kind == "sweep_finish":
            metrics: Dict[str, float] = {}
            elapsed = float(event.get("elapsed_s") or 0.0)
            stored = float(event.get("from_journal") or 0.0)
            executed = float(event.get("executed") or 0.0)
            if elapsed > 0:
                # Specs *simulated* per second: a journaled spec costs
                # a file read, not a simulation, so counting it would
                # read a warm journal as a faster simulator.
                metrics["specs_per_sec"] = executed / elapsed
                metrics["sweep_elapsed_s"] = elapsed
            if stored + executed > 0:
                metrics["journal_ratio"] = stored / (stored + executed)
            metrics["retries"] = float(event.get("retries") or 0.0)
            if metrics:
                records.append(BenchRecord("sweep", path, metrics,
                                           order))
        elif kind == "campaign_finish":
            metrics = {}
            elapsed = float(event.get("elapsed_s") or 0.0)
            trials = float(event.get("trials") or 0.0)
            if elapsed > 0 and trials:
                metrics["trials_per_sec"] = trials / elapsed
            metrics["failures"] = float(event.get("failures") or 0.0)
            if metrics:
                records.append(BenchRecord("campaign", path, metrics,
                                           order))
    return records


def collect_records(root: str) -> List[BenchRecord]:
    """Walk ``root`` for bench payloads and event logs.  Accepts a
    single file too."""
    paths: List[str] = []
    if os.path.isfile(root):
        paths = [root]
    else:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                paths.append(os.path.join(dirpath, name))
    records: List[BenchRecord] = []
    for path in paths:
        base = os.path.basename(path)
        if base.startswith("BENCH") and base.endswith(".json"):
            record = load_bench_file(path)
            if record:
                records.append(record)
        elif base.endswith(".jsonl") and "events" in base:
            records.extend(_summarize_events(path))
    records.sort(key=lambda r: (r.series, r.order))
    return records


class HistoryReport:
    """Per-series, per-metric trend lines built from bench records."""

    def __init__(self, records: Sequence[BenchRecord]):
        self.records = list(records)
        # series -> metric -> [samples in chronological order]
        self.trends: Dict[str, Dict[str, List[float]]] = {}
        self.sources: Dict[str, List[str]] = {}
        for record in self.records:
            series = self.trends.setdefault(record.series, {})
            self.sources.setdefault(record.series,
                                    []).append(record.source)
            for metric, value in record.metrics.items():
                series.setdefault(metric, []).append(value)

    @property
    def empty(self) -> bool:
        return not self.trends

    # ------------------------------------------------------- terminal

    def render_terminal(self, width: int = 40) -> str:
        # Imported here, not at module top: repro.harness imports
        # repro.obsv (sweep's event bus), so a module-level import
        # back into the harness would be circular.
        from ..harness.report import sparkline
        if self.empty:
            return ("bench history: no BENCH_*.json or *events*.jsonl "
                    "found")
        lines: List[str] = []
        for series in sorted(self.trends):
            metrics = self.trends[series]
            runs = max(len(v) for v in metrics.values())
            title = f"{series}  ({runs} run{'s' if runs != 1 else ''})"
            lines.append(title)
            lines.append("=" * max(len(title), 40))
            name_width = max(len(m) for m in metrics) + 2
            for metric in sorted(metrics):
                values = metrics[metric]
                spark = sparkline(values, width=width)
                first, last = values[0], values[-1]
                note = f"first={first:g} last={last:g}"
                if first:
                    delta = (last - first) / abs(first)
                    note += f" ({delta:+.1%})"
                lines.append(f"  {metric:<{name_width}}{spark}  {note}")
            lines.append("")
        return "\n".join(lines).rstrip("\n")

    # ----------------------------------------------------------- html

    def render_html(self) -> str:
        parts = [
            "<!doctype html><html><head><meta charset='utf-8'>",
            "<title>repro bench history</title>",
            "<style>body{font-family:monospace;background:#111;"
            "color:#ddd;margin:2em}h2{color:#8cf}"
            ".chart{display:inline-block;margin:0 1.5em 1.5em 0}"
            ".chart figcaption{font-size:12px;color:#aaa}"
            "svg{background:#1a1a1a;border:1px solid #333}"
            "</style></head><body>",
            "<h1>repro bench history</h1>",
        ]
        if self.empty:
            parts.append("<p>(no records)</p>")
        for series in sorted(self.trends):
            metrics = self.trends[series]
            runs = max(len(v) for v in metrics.values())
            parts.append(f"<h2>{html.escape(series)}</h2>"
                         f"<p>{runs} runs</p>")
            for metric in sorted(metrics):
                values = metrics[metric]
                caption = (f"{html.escape(metric)}: "
                           f"{values[0]:g} → {values[-1]:g}")
                parts.append(
                    "<figure class='chart'>"
                    + _svg_line(values)
                    + f"<figcaption>{caption}</figcaption></figure>")
        parts.append("</body></html>")
        return "".join(parts)

    def save_html(self, path: str) -> str:
        with open(path, "w") as handle:
            handle.write(self.render_html())
        return path

    def to_dict(self) -> Dict:
        return {"series": {name: dict(metrics)
                           for name, metrics in self.trends.items()},
                "sources": self.sources}


def _svg_line(values: Sequence[float], width: int = 260,
              height: int = 80, pad: int = 6) -> str:
    """A single-series inline SVG polyline (no external assets)."""
    values = [float(v) for v in values]
    if not values:
        return f"<svg width='{width}' height='{height}'></svg>"
    low, high = min(values), max(values)
    span = high - low
    n = len(values)
    points = []
    for i, value in enumerate(values):
        x = pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        y_norm = (value - low) / span if span else 0.5
        y = height - pad - (height - 2 * pad) * y_norm
        points.append(f"{x:.1f},{y:.1f}")
    dots = "".join(
        f"<circle cx='{p.split(',')[0]}' cy='{p.split(',')[1]}' "
        "r='2' fill='#8cf'/>" for p in points)
    return (f"<svg width='{width}' height='{height}'>"
            f"<polyline points='{' '.join(points)}' fill='none' "
            "stroke='#8cf' stroke-width='1.5'/>" + dots + "</svg>")
