"""The four end-to-end workloads: inputs from a seed, one run, a verdict.

Each workload has three steps, and only ``run`` is timed:

* ``setup(seed, tiny, workdir)`` imports what the command imports and
  builds its inputs from the seed -- this is the set-up time a user pays
  on every CLI call;
* ``run(inputs, pooled)`` hands the inputs to the program;
* ``judge(inputs, output)`` checks the output and splits it into *op
  groups*: ``{key: [ops, failed, digest]}``.  A group is the smallest
  unit whose outcome can be digested (one fig9 benchmark row, one
  campaign cell, one crash-states cell, the litmus tier); a group whose
  digest differs from an earlier pass of the same run counts all its
  ops as failed.

Each workload is one real command line (see ``command``).  Parameters
that choose a code path keep their CLI defaults; only sizes (trial
budget, FASEs, fig9 scale) are cut so one pass takes a few seconds.

Every command runs in-process, as the CLI does at its default
``--jobs 1``: a pool on a 2-vCPU host times the scheduler as much as
the program.  ``pooled`` asks ``campaign-short`` for its ``--jobs 2``
shape instead; only the trace run uses it, for the pool's per-layer
numbers.  ``tiny`` shrinks every workload to a sub-second pass for the
smoke test.
"""

import hashlib
import json
import os
import tempfile

#: The paper's PMEM-Spec geomean gain over the x86 baseline (Figure 9).
PAPER_PMEM_SPEC_GAIN_PCT = 27.2

#: Report fields that are wall-clock or location, not outcome.
#: ``CampaignReport.fingerprint()`` keeps ``params.snapshot_dir`` and the
#: service's ``report_fingerprint`` keeps crash-states ``timings``; the
#: bench's own digest drops both so identical passes digest equally.
VOLATILE_KEYS = frozenset({"elapsed_s", "timings", "obsv", "snapshot_dir"})


#: Per-layer metrics read off crash-states' own report (zero elsewhere).
CRASHSTATES_METRICS = (
    "crashstates.images", "crashstates.truncated_ratio",
    "crashstates.canonical_s", "crashstates.acquire_s",
    "crashstates.enumerate_s", "crashstates.judge_s")


def scrub(value):
    """``value`` without :data:`VOLATILE_KEYS`, recursively."""
    if isinstance(value, dict):
        return {key: scrub(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [scrub(item) for item in value]
    return value


def digest(value) -> str:
    blob = json.dumps(scrub(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _campaign_groups(report) -> dict:
    return {f"{cell['workload']}/{cell['design']}":
            [cell["trials"], len(cell["failures"]), digest(cell)]
            for cell in report.cells}


def _campaign_problems(report) -> list:
    return [] if report.consistent else [
        f"{report.total_failures} inconsistent trials"]


class Fig9Sweep:
    name = "fig9-sweep"
    why = ("fig9 --scale 0.25: the paper's headline and the pure "
           "simulator path; no snapshot, validation or pool work")
    command = "fig9 --scale 0.25 --no-cache"

    def setup(self, seed, tiny, workdir):
        import repro.harness.experiments  # noqa: F401  (import cost)
        if tiny:
            return {"seed": seed, "scale": 0.05, "n_threads": 4,
                    "benchmarks": ("tpcc", "rbtree")}
        return {"seed": seed, "scale": 0.25}

    def run(self, params, pooled):
        from repro.harness import ParallelExecutor
        from repro.harness.experiments import figure9

        class Keeping(ParallelExecutor):
            """Keeps the sweep result figure9() reduces to ratios."""

            def run(self, sweep):
                self.done = super().run(sweep)
                return self.done

        executor = Keeping(jobs=1, cache_dir=None)
        return figure9(executor=executor, **params), executor.done

    def judge(self, params, output):
        from repro.sim import geomean
        rows, done = output
        # An op is 1,000 simulated cycles: a cell's cycles vary with the
        # seed (memcached's by ~2x), host time per cycle does not.  A
        # benchmark row digests its normalised throughputs and cycles.
        cycles = {}
        for spec, result in done:
            cycles.setdefault(spec.benchmark, []).append(result.cycles)
        groups = {bench: [sum(cycles[bench]) // 1000, 0,
                          digest([row, cycles[bench]])]
                  for bench, row in rows.items()}
        gm = {design: geomean([row[design] for row in rows.values()])
              for design in ("IntelX86", "DPO", "HOPS", "PMEM-Spec")}
        problems = []
        if not gm["PMEM-Spec"] > gm["HOPS"] > gm["IntelX86"] > gm["DPO"]:
            problems.append(f"geomean order broken: {gm}")
        if abs(gm["IntelX86"] - 1.0) > 1e-9:
            problems.append(f"baseline geomean {gm['IntelX86']} != 1")
        gain_pct = (gm["PMEM-Spec"] - 1.0) * 100.0
        extra = {"accuracy_gap_pp": abs(PAPER_PMEM_SPEC_GAIN_PCT - gain_pct)}
        return groups, problems, extra


class CampaignShort:
    name = "campaign-short"
    why = ("validate --budget 25: the default stratified campaign, ~400 "
           "tiny trials where a ladder cannot help, so per-trial fixed "
           "costs dominate")
    command = "validate --budget 25"

    def setup(self, seed, tiny, workdir):
        import repro.validation.campaign  # noqa: F401  (import cost)
        from repro.harness import DESIGNS, ParallelExecutor  # noqa: F401
        # The CLI's default grid, planner, fault, threads and FASEs.
        return {"workloads": ["array_swaps", "queue", "hashmap", "rbtree"],
                "designs": list(DESIGNS), "budget": 6 if tiny else 25,
                "seed": seed}

    def run(self, params, pooled):
        from repro.harness import ParallelExecutor
        from repro.validation.campaign import run_campaign
        executor = None
        if pooled:
            executor = ParallelExecutor(jobs=min(2, os.cpu_count() or 1))
        return run_campaign(executor=executor, **params)

    def judge(self, params, report):
        return _campaign_groups(report), _campaign_problems(report), {}


class CampaignLadder:
    name = "campaign-ladder"
    why = ("long laddered runs, batched in-process: each trial restores a "
           "resident rung, so snapshot and history-prefix caches do the work")
    command = ("validate --benchmarks hashmap,queue "
               "--designs PMEM-Spec,IntelX86 --val-fases 120 --budget 40 "
               "--snapshot-dir DIR --snapshot-rungs 16 --batch 10")

    def setup(self, seed, tiny, workdir):
        import repro.validation.campaign  # noqa: F401  (import cost)
        return {"workloads": ["hashmap", "queue"],
                "designs": ["PMEM-Spec", "IntelX86"],
                "budget": 8 if tiny else 40, "seed": seed,
                "fases_per_thread": 60 if tiny else 120,
                "snapshot_rungs": 16, "batch": 10,
                "snapshot_dir": tempfile.mkdtemp(prefix="rungs-",
                                                 dir=workdir)}

    def run(self, params, pooled):
        from repro.validation.campaign import run_campaign
        return run_campaign(**params)

    def judge(self, params, report):
        return _campaign_groups(report), _campaign_problems(report), {}


class CrashStates:
    name = "crash-states"
    why = ("validate --crash-states plus --litmus: the only workload "
           "running the durable-state models and per-image recovery")
    command = ("validate --crash-states --benchmarks hashmap,queue "
               "--val-fases 40 --budget 8; validate --litmus")

    def setup(self, seed, tiny, workdir):
        import repro.crashstates.checker  # noqa: F401  (import cost)
        import repro.crashstates.litmus  # noqa: F401
        from repro.harness import DESIGNS
        # The CLI's default image budget (64), planner and fault.
        return {"workloads": ["hashmap", "queue"], "designs": list(DESIGNS),
                "budget": 4 if tiny else 8, "seed": seed,
                "fases_per_thread": 12 if tiny else 40,
                "crash_states": True}

    def run(self, params, pooled):
        from repro.crashstates import litmus
        from repro.validation.campaign import run_campaign
        # Through the module attribute, so a traced pass sees the call.
        return run_campaign(**params), litmus.run_litmus()

    def judge(self, params, output):
        report, lit = output
        cells = report.crash_states["cells"]
        groups = {f"{cell['workload']}/{cell['design']}":
                  [cell["images_checked"], cell["images_failed"],
                   digest(cell)] for cell in cells}
        groups["litmus"] = [lit["checks"], lit["failures"], digest(lit)]
        extra = {"crashstates.images": sum(c["images_checked"]
                                           for c in cells),
                 "crashstates.truncated_ratio": (
                     sum(c["truncated_cycles"] for c in cells)
                     / max(1, sum(c["cycles_checked"] for c in cells)))}
        # check_cell's own timings; "check_s" is the judging phase.
        for phase, key in (("canonical", "canonical_s"),
                           ("acquire", "acquire_s"),
                           ("enumerate", "enumerate_s"),
                           ("judge", "check_s")):
            extra[f"crashstates.{phase}_s"] = sum(c["timings"][key]
                                                  for c in cells)
        problems = _campaign_problems(report)
        if not report.crash_states_ok:
            problems.append("a durable state failed recovery")
        if not lit["ok"]:
            problems.append(f"litmus {lit['failures']}/{lit['checks']} "
                            f"checks failed")
        return groups, problems, extra


WORKLOADS = {workload.name: workload for workload in (
    Fig9Sweep(), CampaignShort(), CampaignLadder(), CrashStates())}
