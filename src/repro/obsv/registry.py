"""Live aggregate metrics: counters/gauges/histograms + Prometheus text.

A :class:`MetricsRegistry` is the campaign-scale sibling of the
per-run :class:`repro.sim.metrics.MetricsCollector`: where the
collector windows *simulated-cycle* series inside one run, the
registry aggregates *wall-clock* operational metrics across a whole
sweep or campaign -- trials/sec, worker utilization, cache hit ratio,
engine cycles/sec, WPQ depth percentiles -- and exposes them two ways:

* :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP``/``# TYPE`` + samples), written
  periodically to a textfile by :class:`TextfileExporter` (the
  node-exporter textfile-collector pattern: scrape-able without a
  server).
* :meth:`MetricsRegistry.snapshot` -- a JSON-ready dict folded into
  ``SweepResult.stats["obsv"]`` / ``CampaignReport.to_dict()["obsv"]``
  at the end of a run.

:meth:`MetricsRegistry.observe_event` is a bus subscriber that derives
the standard metric set from lifecycle events, so wiring is one line:
``bus.subscribe(registry.observe_event)``.
"""

from __future__ import annotations

import bisect
import math
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

# Default histogram buckets (seconds) for per-spec / per-trial wall
# times: sub-second cells through multi-minute simulations.
SECONDS_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                   60.0, 120.0, 300.0)
#: Buckets for engine throughput (simulated cycles per wall second).
CYCLES_PER_SEC_BUCKETS = (1e3, 1e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2e6,
                          5e6)
#: Buckets for queue-depth style gauges (WPQ occupancy, restore depth
#: rides its own scale below).
DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
#: Buckets for snapshot-restore depth in cycles (how far a warm trial
#: started ahead of cycle zero).
CYCLE_DEPTH_BUCKETS = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelItems:
    return tuple(sorted((labels or {}).items()))


def _format_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    """One named metric family: help text, type, per-label-set state."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self.series: Dict[LabelItems, object] = {}

    def exposition(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for labels in sorted(self.series):
            lines.extend(self._series_lines(labels))
        return lines

    def _series_lines(self, labels: LabelItems) -> List[str]:
        raise NotImplementedError


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1,
            labels: Optional[Dict[str, str]] = None) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def value(self, labels: Optional[Dict[str, str]] = None) -> float:
        return self.series.get(_label_key(labels), 0)

    def _series_lines(self, labels: LabelItems) -> List[str]:
        return [f"{self.name}{_format_labels(labels)} "
                f"{_format_value(self.series[labels])}"]


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float,
            labels: Optional[Dict[str, str]] = None) -> None:
        self.series[_label_key(labels)] = value

    def value(self, labels: Optional[Dict[str, str]] = None) -> float:
        return self.series.get(_label_key(labels), 0)

    def _series_lines(self, labels: LabelItems) -> List[str]:
        return [f"{self.name}{_format_labels(labels)} "
                f"{_format_value(self.series[labels])}"]


class _HistogramState:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)   # +1 for +Inf
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative-bucket histogram (the Prometheus flavor).

    ``percentile`` interpolates within the winning bucket, which is
    exact enough for the p50/p90/p99 summary the JSON snapshot carries.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = SECONDS_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = sorted(float(b) for b in buckets)
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")

    def observe(self, value: float,
                labels: Optional[Dict[str, str]] = None) -> None:
        key = _label_key(labels)
        state = self.series.get(key)
        if state is None:
            state = _HistogramState(len(self.buckets))
            self.series[key] = state
        state.counts[bisect.bisect_left(self.buckets, value)] += 1
        state.total += value
        state.count += 1

    def percentile(self, q: float,
                   labels: Optional[Dict[str, str]] = None) -> float:
        """Approximate ``q``-th percentile (0 <= q <= 100)."""
        state = self.series.get(_label_key(labels))
        if state is None or state.count == 0:
            return 0.0
        rank = q / 100.0 * state.count
        cumulative = 0
        lower = 0.0
        for index, upper in enumerate(self.buckets):
            bucket_n = state.counts[index]
            if cumulative + bucket_n >= rank and bucket_n:
                within = (rank - cumulative) / bucket_n
                return lower + (upper - lower) * min(max(within, 0.0),
                                                     1.0)
            cumulative += bucket_n
            lower = upper
        return self.buckets[-1]

    def _series_lines(self, labels: LabelItems) -> List[str]:
        state = self.series[labels]
        lines = []
        cumulative = 0
        for index, upper in enumerate(self.buckets):
            cumulative += state.counts[index]
            le = _format_labels(labels, f'le="{_format_value(upper)}"')
            lines.append(f"{self.name}_bucket{le} {cumulative}")
        le = _format_labels(labels, 'le="+Inf"')
        lines.append(f"{self.name}_bucket{le} {state.count}")
        lines.append(f"{self.name}_sum{_format_labels(labels)} "
                     f"{_format_value(state.total)}")
        lines.append(f"{self.name}_count{_format_labels(labels)} "
                     f"{state.count}")
        return lines


class MetricsRegistry:
    """Named metric families + the event-derived standard set."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self.created_unix = time.time()
        self._sweep_started: Dict[str, float] = {}

    # ---------------------------------------------------- registration

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = SECONDS_BUCKETS
                  ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help_text, buckets=buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"{name!r} is a {metric.kind}, "
                             f"not a histogram")
        return metric

    def _get_or_create(self, cls, name: str, help_text: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help_text)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"{name!r} is a {metric.kind}, "
                             f"not a {cls.kind}")
        return metric

    # -------------------------------------------------- the standard set

    def observe_event(self, event: Dict) -> None:
        """Bus subscriber: fold one lifecycle event into the registry.

        Unknown kinds count toward ``repro_events_total`` only, so the
        registry stays forward-compatible with new event kinds.
        """
        kind = event.get("kind", "?")
        self.counter("repro_events_total",
                     "Lifecycle events observed on the bus"
                     ).inc(labels={"kind": kind})
        handler = getattr(self, f"_on_{kind}", None)
        if handler is not None:
            handler(event)

    # Per-kind derivations.  Each is tolerant of missing fields: a
    # half-filled event must never raise out of the hot path.

    def _on_sweep_start(self, event: Dict) -> None:
        self.gauge("repro_sweep_jobs",
                   "Worker processes of the active sweep"
                   ).set(event.get("jobs", 1))
        self.gauge("repro_sweep_specs",
                   "Spec count of the active sweep"
                   ).set(event.get("n_specs", 0))
        self._sweep_started[event.get("run_id", "-")] = \
            event.get("ts", time.time())

    def _on_spec_finish(self, event: Dict) -> None:
        source = str(event.get("source", "?"))
        self.counter("repro_specs_total", "Completed sweep specs"
                     ).inc(labels={"source": source})
        elapsed = event.get("elapsed_s")
        if elapsed is not None and not event.get("cache_hit"):
            self.histogram("repro_spec_seconds",
                           "Wall time per simulated spec"
                           ).observe(float(elapsed))
            cycles = event.get("cycles")
            if cycles and elapsed > 0:
                self.histogram(
                    "repro_engine_cycles_per_sec",
                    "Simulated cycles per wall second per spec",
                    buckets=CYCLES_PER_SEC_BUCKETS,
                ).observe(cycles / elapsed)
        if event.get("retried"):
            self.counter("repro_spec_retries_total",
                         "Specs that succeeded after a failed "
                         "attempt").inc()
        for depth in event.get("wpq_depth_means") or ():
            self.histogram("repro_wpq_depth",
                           "Per-window mean WPQ occupancy",
                           buckets=DEPTH_BUCKETS).observe(depth)

    def _on_spec_error(self, event: Dict) -> None:
        self.counter("repro_spec_errors_total",
                     "Specs that failed in a worker").inc()

    def _on_cache_hit(self, event: Dict) -> None:
        self.counter("repro_cache_hits_total",
                     "Sweep specs served from the result cache").inc()

    def _on_cache_miss(self, event: Dict) -> None:
        self.counter("repro_cache_misses_total",
                     "Sweep specs that had to simulate").inc()

    def _on_sweep_finish(self, event: Dict) -> None:
        self.counter("repro_sweeps_total", "Completed sweeps").inc()
        elapsed = float(event.get("elapsed_s") or 0.0)
        jobs = self.gauge("repro_sweep_jobs").value() or 1
        busy = float(event.get("busy_s") or 0.0)
        if elapsed > 0:
            self.gauge(
                "repro_worker_utilization",
                "Busy worker-seconds / (wall x jobs) of the last sweep"
            ).set(round(min(busy / (elapsed * jobs), 1.0), 4))
            n_simulated = event.get("cache_misses", 0)
            self.gauge("repro_specs_per_sec",
                       "Specs simulated per wall second, last sweep"
                       ).set(round(n_simulated / elapsed, 4))

    def _on_task_finish(self, event: Dict) -> None:
        self.counter("repro_tasks_total",
                     "Completed generic fan-out tasks").inc()
        elapsed = event.get("elapsed_s")
        if elapsed is not None:
            self.histogram("repro_task_seconds",
                           "Wall time per fan-out task"
                           ).observe(float(elapsed))

    def _on_batch_finish(self, event: Dict) -> None:
        self.counter("repro_batches_total",
                     "Completed affinity-batched fan-out chunks").inc()
        size = event.get("size")
        if size is not None:
            self.histogram("repro_batch_size",
                           "Items per shipped batch chunk",
                           buckets=DEPTH_BUCKETS).observe(float(size))
        elapsed = event.get("elapsed_s")
        if elapsed is not None:
            self.histogram("repro_batch_seconds",
                           "Wall time per batch chunk"
                           ).observe(float(elapsed))

    def _on_trial_finish(self, event: Dict) -> None:
        consistent = ("true" if event.get("consistent", True)
                      else "false")
        self.counter("repro_trials_total", "Completed crash trials"
                     ).inc(labels={"consistent": consistent})
        violations = event.get("violations")
        if violations:
            self.counter("repro_trial_violations_total",
                         "Oracle + structural violations observed"
                         ).inc(violations)

    def _on_oracle_violation(self, event: Dict) -> None:
        self.counter(
            "repro_oracle_violations_total",
            "Persist-order oracle violations by kind"
        ).inc(labels={"kind": str(event.get("violation_kind", "?"))})

    def _on_campaign_finish(self, event: Dict) -> None:
        self.counter("repro_campaigns_total",
                     "Completed crash campaigns").inc()
        elapsed = float(event.get("elapsed_s") or 0.0)
        trials = event.get("trials", 0)
        if elapsed > 0:
            self.gauge("repro_trials_per_sec",
                       "Trials per wall second of the last campaign"
                       ).set(round(trials / elapsed, 4))

    def _on_image_enumerated(self, event: Dict) -> None:
        labels = {"workload": str(event.get("workload", "?")),
                  "design": str(event.get("design", "?"))}
        n_images = event.get("n_images", 0)
        self.counter("repro_images_enumerated_total",
                     "Durable-state images enumerated per cell"
                     ).inc(n_images, labels=labels)
        if event.get("truncated"):
            self.counter("repro_image_enumerations_truncated_total",
                         "Crash cycles whose durable-state set hit the "
                         "enumeration budget").inc(labels=labels)
        self.histogram("repro_images_per_crash_cycle",
                       "Enumerated durable states per crash cycle",
                       buckets=DEPTH_BUCKETS).observe(float(n_images))

    def _on_image_check(self, event: Dict) -> None:
        consistent = ("true" if event.get("consistent", True)
                      else "false")
        self.counter("repro_image_checks_total",
                     "Verdicts on enumerated durable states, by outcome "
                     "and source (judged now, or reused from the memo)"
                     ).inc(labels={"consistent": consistent,
                                   "source": str(event.get("source",
                                                           "judged"))})
        if not event.get("consistent", True):
            self.counter("repro_image_check_failures_total",
                         "Enumerated images recovery failed to "
                         "converge from").inc()

    def _on_snapshot_restore(self, event: Dict) -> None:
        if event.get("outcome") == "cold_fallback":
            # A restore that should have been warm degraded to a cold
            # start (damaged store): silent performance loss, surfaced.
            self.counter("repro_snapshot_cold_fallbacks_total",
                         "Trials degraded to a cold start by snapshot "
                         "damage").inc()
            return
        source = str(event.get("source", "store"))
        self.counter("repro_snapshot_restores_total",
                     "Trial starts by source (forward live run, "
                     "resident LRU, store read, cold start)"
                     ).inc(labels={"source": source})
        total = sum(self.counter("repro_snapshot_restores_total")
                    .series.values())
        warm = sum(
            value for labels, value in
            self.counter("repro_snapshot_restores_total").series.items()
            if dict(labels).get("source") != "cold")
        if total:
            self.gauge("repro_rung_cache_hit_ratio",
                       "Trials started without rebuilding "
                       "(forward + resident + store) / all trials"
                       ).set(round(warm / total, 4))
        rung_cycle = event.get("rung_cycle")
        if rung_cycle:
            self.histogram("repro_snapshot_restore_depth_cycles",
                           "Simulated cycles skipped by restoring a "
                           "rung instead of cold-starting",
                           buckets=CYCLE_DEPTH_BUCKETS
                           ).observe(float(rung_cycle))

    def _on_rung_capture(self, event: Dict) -> None:
        self.counter("repro_rungs_captured_total",
                     "Snapshot-ladder rungs captured").inc()

    def _on_task_retry(self, event: Dict) -> None:
        self.counter("repro_task_retries_total",
                     "Task re-executions after a failure "
                     "(the worker pool)").inc()

    def _on_task_quarantine(self, event: Dict) -> None:
        self.counter("repro_task_quarantines_total",
                     "Poison tasks set aside after exhausting the "
                     "retry policy").inc()

    def _on_steal(self, event: Dict) -> None:
        self.counter("repro_steals_total",
                     "Tasks stolen by idle workers from the busiest "
                     "queue").inc()

    # ------------------------------------------------------------ export

    def to_prometheus(self) -> str:
        """The Prometheus text exposition (version 0.0.4) document."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].exposition())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict:
        """JSON-ready summary: every family with values, histograms as
        count/sum/percentiles."""
        out: Dict[str, Dict] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                series = {}
                for labels, state in sorted(metric.series.items()):
                    series[_format_labels(labels) or "_"] = {
                        "count": state.count,
                        "sum": round(state.total, 6),
                        "p50": round(metric.percentile(50, dict(labels)),
                                     6),
                        "p90": round(metric.percentile(90, dict(labels)),
                                     6),
                        "p99": round(metric.percentile(99, dict(labels)),
                                     6),
                    }
            else:
                series = {
                    (_format_labels(labels) or "_"): value
                    for labels, value in sorted(metric.series.items())}
            out[name] = {"type": metric.kind, "series": series}
        return out


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a text exposition back into ``{sample_name: value}``.

    Intentionally minimal (no escapes-in-labels support): enough for
    tests and the bench-history ingester to round-trip what
    :meth:`MetricsRegistry.to_prometheus` writes, and to fail loudly
    on malformed lines.
    """
    samples: Dict[str, float] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, value = line.rsplit(None, 1)
        except ValueError:
            raise ValueError(f"line {line_no}: not 'name value': "
                             f"{line!r}") from None
        samples[name] = (math.inf if value == "+Inf"
                         else float(value))
    return samples


class TextfileExporter:
    """Writes the exposition to a textfile, rate-limited + atomic.

    Subscribe :meth:`on_event` to a bus: every event refreshes the file
    at most once per ``every_s`` seconds (plus a forced final
    :meth:`write` at end of run).  Writes are tempfile+rename so a
    scraper never reads a torn file -- the same discipline as the
    artifact store.
    """

    def __init__(self, registry: MetricsRegistry, path: str,
                 every_s: float = 2.0,
                 clock=time.monotonic):
        self.registry = registry
        self.path = path
        self.every_s = every_s
        self._clock = clock
        self._last_write: Optional[float] = None
        self.writes = 0

    def on_event(self, event: Dict) -> None:
        now = self._clock()
        if (self._last_write is not None
                and now - self._last_write < self.every_s):
            return
        self.write()

    def write(self) -> str:
        parent = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(parent, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=parent, suffix=".prom.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.registry.to_prometheus())
            os.replace(temp, self.path)
        except BaseException:
            if os.path.exists(temp):
                os.unlink(temp)
            raise
        self._last_write = self._clock()
        self.writes += 1
        return self.path
