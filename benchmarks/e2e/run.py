"""End-to-end benchmark of the four north-star commands.

Every pass of a workload runs in a fresh process (``one_pass.py``), one
at a time, on the inputs of ``--seed``; a run is one discarded warm-up
pass, then timed passes, each checked against the warm-up's outputs.
Each metric is reported as its median over the timed passes, with
quartiles and the sample count; timings other than ``wall_s`` are
scaled to the reference host speed of :mod:`hostspeed`, sampled around
every pass.  A trace run adds in-process passes with spans and with
cProfile for the per-layer split (see README.md).

Standalone, all four workloads, table on stdout, JSON to ``--out``::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 42] \\
        [--workloads fig9-sweep,crash-states] [--out run.json]

One workload, one JSON line last on stdout (``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload fig9-sweep --seed 7 \\
        --seconds 25 --trace 0

Compare two standalone runs; exits 1 when a median moved by more than
its bound, or the error rate rose::

    python3 benchmarks/e2e/run.py --compare run1.json run2.json
"""

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from workloads import CRASHSTATES_METRICS, WORKLOADS  # noqa: E402

#: Standalone-only end-to-end metrics.  ``wall_s``, the one unscaled
#: timing, follows the work the seed's inputs ask for (fig9's by 13-20%
#: across seeds), so BENCHMARK.json, whose runs are compared across
#: seeds, gets ``ref_ops_per_s`` instead; ``accuracy_gap_pp`` is fig9
#: only.
EXTRA_E2E = {
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
    # Deterministic per input, so any increase counts.
    "accuracy_gap_pp": {"unit": "pp", "better": "lower", "bound": 0.0,
                        "workloads": ["fig9-sweep"]},
}
#: Timed passes of a standalone run, and the floor and ceiling of a
#: single-workload run.
DEFAULT_PASSES = 7
MIN_PASSES = 3
MAX_PASSES = 25
#: Untraced passes a trace run after timed passes measures overhead
#: against.
TRACE_BASELINE_PASSES = 2
PASS_TIMEOUT_S = 150


#: Per-layer units the naming rule in :func:`unit_of` does not give.
UNITS = {"sim.ns_per_event": "ns", "sim.cycles_per_s": "cycles/s",
         "harness.pool.utilization": "ratio", "trace.overhead": "ratio",
         "trace.cprofile_overhead": "ratio"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    if name.startswith("host_share."):
        return "share"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("cycles"):
        return "cycles"
    return "count"


# ------------------------------------------------------------ passes


@contextlib.contextmanager
def one_cpu():
    """Pins the runner, and every pass it spawns meanwhile, to one CPU.

    Contention on a shared host differs from one vCPU to the next, so a
    host-speed sample describes a pass only if both ran on the same CPU.
    The runner waits while a pass runs, so the two never compete."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Runner:
    """Starts passes and judges their outputs for one workload."""

    def __init__(self, workload: str, seed: int, tiny: bool, work_root):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work_root = work_root
        self.reference = None     # {group: [ops, failed, digest]}
        self.host = hostspeed.HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, mode: str = "plain") -> dict:
        """One fresh-process pass on the inputs of the seed, between two
        host-speed samples; judged."""
        started = time.monotonic()
        speed_before = self.host.sample()
        workdir = tempfile.mkdtemp(dir=self.work_root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        command = [sys.executable, str(HERE / "one_pass.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--mode", mode, "--workdir", workdir]
        if self.tiny:
            command.append("--tiny")
        spawned_at = time.monotonic()
        process = subprocess.Popen(
            command + ["--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, start_new_session=True)
        try:
            stdout, stderr = process.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            stdout, stderr = process.communicate()
            stderr += f"\npass timed out after {PASS_TIMEOUT_S}s"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if process.returncode == 0 and stdout.strip():
            result = json.loads(stdout.strip().splitlines()[-1])
        else:
            tail = (stderr.strip().splitlines() or ["no output"])[-1]
            result = {"error": f"{mode} pass exited "
                               f"{process.returncode}: {tail}"}
        result["host_speed"] = (speed_before + self.host.sample()) / 2
        result["elapsed_s"] = time.monotonic() - started
        self._judge(result)
        return result

    def _judge(self, result: dict) -> None:
        """Count ops and failed ops: a pass that raised or failed a
        workload-level check fails all its ops; otherwise each op group
        fails its own failed ops, or all of them when its digest differs
        from the first pass of the run."""
        reference = self.reference
        if "error" in result:
            ops = max(1, sum(n for n, _, _ in (reference or {}).values()))
            failed = ops
            self.problems.append(result["error"])
        else:
            groups = result["groups"]
            ops = sum(n for n, _, _ in groups.values())
            if result["problems"]:
                failed = ops
                self.problems.extend(result["problems"])
            elif reference is None:
                failed = sum(f for _, f, _ in groups.values())
                self.reference = groups
            else:
                failed = 0
                for key, (n, group_failed, group_digest) in groups.items():
                    if reference.get(key, [0, 0, None])[2] != group_digest:
                        failed += n
                        self.problems.append(f"{key}: output differs "
                                             f"from an earlier pass")
                    else:
                        failed += group_failed
        self.attempted += ops
        self.failed += failed
        result["ops"] = ops
        result["failed"] = failed

    def timed(self, passes=None, seconds=None) -> list:
        """Warm-up, then ``passes`` timed passes, or as many as fit in
        ``seconds`` (at least :data:`MIN_PASSES`), all on one CPU."""
        with one_cpu():
            self.run_pass()
            results, started = [], time.monotonic()
            while True:
                if passes is not None:
                    if len(results) >= passes:
                        break
                elif len(results) >= MIN_PASSES:
                    typical = statistics.median(
                        r["elapsed_s"] for r in results)
                    used = time.monotonic() - started
                    if used + typical > seconds or \
                            len(results) >= MAX_PASSES:
                        break
                results.append(self.run_pass())
        return results

    def traced(self) -> dict:
        """The per-layer metrics: spans, cProfile shares, pool tallies,
        and the overhead of each instrument over untraced passes.

        Without timed passes before it, the first untraced pass is also
        the warm-up and gives the reference digests; there is then one
        baseline pass rather than :data:`TRACE_BASELINE_PASSES`, to keep
        a trace run near a timed one in length."""
        import layers
        base = [self.run_pass() for _ in range(
            1 if self.reference is None else TRACE_BASELINE_PASSES)]
        spans = self.run_pass("spans")
        profile = self.run_pass("profile")
        out = dict(spans.get("layers", {}))
        out.update(profile.get("layers", {}))
        if self.workload == "campaign-short":
            out.update(self.run_pass("pooled").get("layers", {}))
        else:
            out.update(layers.PoolTap().metrics())     # all zero
        extra = spans.get("extra", {})
        for key in CRASHSTATES_METRICS:
            out[key] = extra.get(key, 0)
        walls = [r["wall_s"] for r in base if "wall_s" in r]
        untraced = statistics.median(walls) if walls else math.nan
        out["trace.overhead"] = spans.get("wall_s", math.nan) / untraced - 1
        out["trace.cprofile_overhead"] = \
            profile.get("wall_s", math.nan) / untraced - 1
        return out


# ------------------------------------------------------------ summaries


def summarize(samples: list) -> dict:
    if not samples:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan,
                "iqr": math.nan, "n": 0, "samples": []}
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(samples), "samples": samples}


def end_to_end_samples(name: str, results: list) -> list:
    """Per-pass samples of one metric.  Scaled timings follow the run's
    median host speed, not each pass's own: one short sample before and
    after a pass is noisier than the drift it corrects, and the drift is
    what runs minutes apart disagree on."""
    ok = [r for r in results if "error" not in r]
    factor = hostspeed.scale(statistics.median(
        r["host_speed"] for r in ok)) if ok else 1.0
    if name == "wall_s":
        return [r["wall_s"] for r in ok]
    if name == "ref_ops_per_s":
        return [r["ops"] / r["wall_s"] / factor for r in ok]
    if name == "setup_s":
        return [r["setup_s"] * factor for r in ok]
    if name == "peak_rss_mb":
        return [r[name] for r in ok]
    if name == "accuracy_gap_pp":
        return [r["extra"]["accuracy_gap_pp"] for r in ok]
    raise KeyError(f"no end-to-end metric {name!r}")


def end_to_end_defs(spec: dict) -> dict:
    defs = {m["name"]: {key: m[key] for key in ("unit", "better", "bound")}
            for m in spec["end_to_end"]}
    defs.update(EXTRA_E2E)
    return defs


def measure(workload: str, seed: int, spec: dict, tiny=False,
            passes=None, seconds=None, timed=True, trace=True) -> dict:
    """One workload: timed passes and/or the trace run."""
    work_root = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    results, end_to_end, per_layer = [], {}, {}
    try:
        runner = Runner(workload, seed, tiny, work_root)
        if timed:
            results = runner.timed(passes=passes, seconds=seconds)
            for name, definition in end_to_end_defs(spec).items():
                if workload in definition.get("workloads", [workload]):
                    end_to_end[name] = {
                        **{k: definition[k]
                           for k in ("unit", "better", "bound")},
                        **summarize(end_to_end_samples(name, results))}
        if trace:
            per_layer = runner.traced()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    speeds = [r["host_speed"] for r in results if "error" not in r]
    return {"command": WORKLOADS[workload].command,
            "attempted": runner.attempted, "failed": runner.failed,
            "error_rate": runner.failed / max(1, runner.attempted),
            "correct": runner.failed == 0 and not runner.problems,
            "problems": runner.problems[:20],
            "host_speed": summarize(speeds),
            "end_to_end": end_to_end,
            "per_layer": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in sorted(per_layer.items())}}


# ------------------------------------------------------------ reports


def format_report(report: dict) -> str:
    lines = [f"e2e bench: seed {report['seed']}, {report['passes']} timed "
             f"passes per workload (fewer than 10: no tail percentile "
             f"qualifies), host {report['host']['cpus']} CPUs"]
    for name, workload in report["workloads"].items():
        status = "ok" if workload["correct"] else "FAILED: " + "; ".join(
            workload["problems"][:3])
        lines.append(f"\n{name} (repro.harness {workload['command']}): "
                     f"{workload['failed']}/{workload['attempted']} ops "
                     f"failed, error_rate {workload['error_rate']:.4g} "
                     f"[{status}]; host speed "
                     f"{workload['host_speed']['median']:.3g}x reference")
        lines.append(f"  {'metric':<18}{'unit':<10}{'median':>14}"
                     f"{'IQR':>12}{'IQR %':>8}{'n':>4}{'bound':>8}")
        for metric, entry in workload["end_to_end"].items():
            share = _share(entry["iqr"], entry["median"])
            lines.append(
                f"  {metric:<18}{entry['unit']:<10}{entry['median']:>14.6g}"
                f"{entry['iqr']:>12.4g}{share:>8.1%}{entry['n']:>4}"
                f"{entry['bound']:>8.0%}")
        for metric, entry in workload["per_layer"].items():
            if entry["value"]:
                lines.append(f"    {metric:<40}{entry['value']:>14.6g} "
                             f"{entry['unit']}")
    return "\n".join(lines)


def _finite(value) -> float:
    """A failed pass leaves no number; the JSON line still needs one
    (the failure itself shows in ``correct`` and ``failed``)."""
    return value if isinstance(value, (int, float)) and math.isfinite(
        value) else 0.0


def _share(part, whole) -> float:
    return abs(part / whole) if whole else 0.0


def compare(path_a: str, path_b: str) -> int:
    """Median ratio per workload x metric against its bound, and the
    error rate of all ops of each run; 1 when any pair is outside its
    bound and not unresolved, or B failed any op A did not."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    disagreements = 0
    print(f"{'workload':<16}{'metric':<18}{'A':>12}{'B':>12}{'B/A':>8}"
          f"{'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<16}missing from {path_b}")
            disagreements += 1
            continue
        for metric, ea in a["workloads"][name]["end_to_end"].items():
            eb = b["workloads"][name]["end_to_end"].get(metric)
            if eb is None:
                continue
            verdict = _verdict(ea, eb)
            disagreements += verdict.startswith("DISAGREE")
            ratio = eb["median"] / ea["median"] if ea["median"] else math.nan
            print(f"{name:<16}{metric:<18}{ea['median']:>12.5g}"
                  f"{eb['median']:>12.5g}{ratio:>8.3f}"
                  f"{ea['bound']:>7.0%}  {verdict}")
        # Over every op of the run, not a per-pass median: one failed
        # pass in seven must count.
        wa, wb = a["workloads"][name], b["workloads"][name]
        rate_a = wa["failed"] / max(1, wa["attempted"])
        rate_b = wb["failed"] / max(1, wb["attempted"])
        if rate_b > rate_a or (wa["correct"] and not wb["correct"]):
            verdict = "DISAGREE (exact, worse)"
            disagreements += 1
        else:
            verdict = "ok (exact)"
        print(f"{name:<16}{'error_rate':<18}{rate_a:>12.5g}{rate_b:>12.5g}"
              f"{'':>8}{0:>7.0%}  {verdict}")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


def _verdict(ea: dict, eb: dict) -> str:
    bound, lower = ea["bound"], ea["better"] == "lower"
    worse = eb["median"] > ea["median"] if lower \
        else eb["median"] < ea["median"]
    if bound == 0:
        return "DISAGREE (exact, worse)" if worse else "ok (exact)"
    change = _share(eb["median"] - ea["median"], ea["median"])
    spread = max(_share(ea["iqr"], ea["median"]),
                 _share(eb["iqr"], eb["median"]))
    if spread > bound:
        return f"unresolved (IQR {spread:.0%} > bound)"
    if change <= bound:
        return "ok"
    return f"DISAGREE ({'worse' if worse else 'better'} by {change:.0%})"


# ------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; prints one JSON line last")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time the timed passes of --workload get")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: per-layer metrics instead")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated, for a standalone run")
    parser.add_argument("--out", help="standalone: write the JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()

    if args.workload:
        result = measure(args.workload, args.seed, spec,
                         seconds=args.seconds, timed=not args.trace,
                         trace=bool(args.trace))
        if args.trace:
            metrics = {m["name"]: {
                "value": _finite(result["per_layer"].get(
                    m["name"], {}).get("value")),
                "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {
                "value": _finite(result["end_to_end"][m["name"]]["median"]),
                "unit": m["unit"]} for m in spec["end_to_end"]}
        for problem in result["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        if not args.trace:
            print(f"host speed: {result['host_speed']['median']!r}x "
                  f"reference", file=sys.stderr)
        print(json.dumps({"correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0

    names = [name for name in args.workloads.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from "
                     f"{list(WORKLOADS)}")
    report = {"schema": 1, "seed": args.seed, "passes": DEFAULT_PASSES,
              "host": {"cpus": os.cpu_count(),
                       "python": platform.python_version(),
                       "machine": platform.machine()},
              "workloads": {}}
    for name in names:
        report["workloads"][name] = measure(name, args.seed, spec,
                                            passes=DEFAULT_PASSES)
        print(f"{name} done", file=sys.stderr)
    print(format_report(report))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
