"""The paper's experiments, one entry point per table/figure.

Every function builds a declarative :class:`~repro.harness.sweep.Sweep`
and hands it to a :class:`~repro.harness.sweep.ParallelExecutor`; each
accepts an optional ``executor`` argument (default: in-process serial,
no store) so the CLI's ``--jobs``/``--cache-dir`` flags and the
benchmark drivers can share one pool and one outcome store across
figures: the store journals each spec's result keyed by the code, the
function and the spec (:mod:`repro.harness.resume`), so a figure rerun
on an unchanged tree simulates nothing and any code change
recomputes.  Results are plain data (dictionaries of normalised
throughput or event counts); rendering lives in
:mod:`repro.harness.report`.

``scale`` multiplies the per-thread FASE counts: 1.0 is the default
test-friendly size; larger values tighten the statistics at the cost of
runtime (the paper runs 100K FASEs per thread on gem5 -- see DESIGN.md
for the scaling substitution).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..sim import geomean
from ..workloads import (
    BENCHMARKS,
    LoadMisspecProbe,
    StoreMisspecProbe,
)
from .configs import BENCHMARK_ORDER, DESIGNS
from .runner import normalized_throughput
from .sweep import ParallelExecutor, RunSpec, Sweep


def _fases(benchmark: str, scale: float) -> int:
    return max(5, round(BENCHMARKS[benchmark].default_fases * scale))


def _executor(executor: Optional[ParallelExecutor]) -> ParallelExecutor:
    return executor if executor is not None else ParallelExecutor(jobs=1)


def figure9(n_threads: int = 8, scale: float = 1.0, seed: int = 42,
            designs: Sequence[str] = DESIGNS,
            benchmarks: Sequence[str] = BENCHMARK_ORDER,
            config: Optional[SystemConfig] = None,
            executor: Optional[ParallelExecutor] = None
            ) -> Dict[str, Dict[str, float]]:
    """Figure 9: normalised throughput, all designs, 8-core system."""
    sweep = Sweep.grid(
        benchmarks=benchmarks, designs=designs, n_threads=n_threads,
        seeds=seed, config=config,
        fases_per_thread={b: _fases(b, scale) for b in benchmarks},
        name="fig9")
    table = _executor(executor).run(sweep).table(
        lambda spec: spec.benchmark, lambda spec: spec.design)
    return {benchmark: normalized_throughput(results)
            for benchmark, results in table.items()}


def figure10(core_counts: Sequence[int] = (16, 32, 64), scale: float = 1.0,
             seed: int = 42, designs: Sequence[str] = DESIGNS,
             benchmarks: Sequence[str] = BENCHMARK_ORDER,
             executor: Optional[ParallelExecutor] = None
             ) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Figure 10: the same comparison at 16/32/64 cores.

    One sweep covers the whole cores x benchmarks x designs grid, so a
    parallel executor overlaps cells across core counts too.
    """
    sweep = Sweep.grid(
        benchmarks=benchmarks, designs=designs,
        n_threads=list(core_counts), seeds=seed,
        fases_per_thread={b: _fases(b, scale) for b in benchmarks},
        name="fig10")
    done = _executor(executor).run(sweep)
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for cores in core_counts:
        table = done.filter(lambda s, c=cores: s.n_threads == c).table(
            lambda spec: spec.benchmark, lambda spec: spec.design)
        out[cores] = {benchmark: normalized_throughput(results)
                      for benchmark, results in table.items()}
    return out


def figure10_summary(results: Dict[int, Dict[str, Dict[str, float]]]
                     ) -> Dict[int, Dict[str, float]]:
    """Geomean per design per core count (the margins §8.3.1 quotes)."""
    summary: Dict[int, Dict[str, float]] = {}
    for cores, rows in results.items():
        summary[cores] = {
            design: geomean([rows[b][design] for b in rows])
            for design in next(iter(rows.values()))}
    return summary


def figure11(buffer_sizes: Sequence[int] = (1, 2, 4, 8, 16),
             n_threads: int = 8, scale: float = 1.0, seed: int = 42,
             benchmarks: Sequence[str] = BENCHMARK_ORDER,
             executor: Optional[ParallelExecutor] = None
             ) -> Dict[int, float]:
    """Figure 11: PMEM-Spec average throughput vs speculation-buffer
    size, normalised to the largest (overflow-free) size.

    Runs with the *paper's* compiler behaviour (§5.2.2: every store in a
    critical section is tagged) -- the buffer pressure that makes this
    figure interesting comes from those tagged persists; this repo's
    escape-analysis refinement is evaluated separately as an ablation.
    """
    specs = [
        RunSpec(benchmark=benchmark, design="PMEM-Spec",
                n_threads=n_threads,
                fases_per_thread=_fases(benchmark, scale), seed=seed,
                config_overrides={"spec_buffer_entries": size,
                                  "extra": {"tag_private_stores": 1}})
        for size in buffer_sizes for benchmark in benchmarks]
    done = _executor(executor).run(Sweep(specs, name="fig11"))
    by_size = done.table(
        lambda spec: spec.config_overrides["spec_buffer_entries"],
        lambda spec: spec.benchmark)
    throughput = {
        size: geomean([result.throughput for result in row.values()])
        for size, row in by_size.items()}
    top = throughput[max(buffer_sizes)]
    return {size: value / top for size, value in throughput.items()}


def figure12(latencies_ns: Sequence[float] = (20, 40, 60, 80, 100),
             n_threads: int = 8, scale: float = 1.0, seed: int = 42,
             benchmarks: Sequence[str] = BENCHMARK_ORDER,
             executor: Optional[ParallelExecutor] = None
             ) -> Dict[float, Dict[str, float]]:
    """Figure 12: geomean throughput of HOPS and PMEM-Spec (normalised
    to the IntelX86 baseline) as the persist-path latency grows."""
    designs = ("IntelX86", "HOPS", "PMEM-Spec")
    specs = [
        RunSpec(benchmark=benchmark, design=design, n_threads=n_threads,
                fases_per_thread=_fases(benchmark, scale), seed=seed,
                config_overrides={"persist_path_ns": float(latency)})
        for latency in latencies_ns
        for benchmark in benchmarks
        for design in designs]
    done = _executor(executor).run(Sweep(specs, name="fig12"))
    out: Dict[float, Dict[str, float]] = {}
    for latency in latencies_ns:
        table = done.filter(
            lambda s, l=float(latency):
            s.config_overrides["persist_path_ns"] == l
        ).table(lambda spec: spec.benchmark, lambda spec: spec.design)
        rows = {benchmark: normalized_throughput(results)
                for benchmark, results in table.items()}
        out[latency] = {
            design: geomean([rows[b][design] for b in rows])
            for design in ("HOPS", "PMEM-Spec")}
    return out


def misspeculation_rates(n_threads: int = 8, scale: float = 1.0,
                         seed: int = 42,
                         executor: Optional[ParallelExecutor] = None
                         ) -> List[Dict]:
    """§8.4: misspeculation counts.

    Every Table 4 benchmark under the default configuration (expected:
    zero), plus the two synthetic probes that force each violation kind
    (expected: detections with successful recovery), plus the load probe
    at the paper's 20 ns latency (expected: zero again).
    """
    specs = [RunSpec(benchmark=benchmark, design="PMEM-Spec",
                     n_threads=n_threads,
                     fases_per_thread=_fases(benchmark, scale), seed=seed,
                     label="table3")
             for benchmark in BENCHMARK_ORDER]
    specs.append(RunSpec(
        benchmark=LoadMisspecProbe.name, design="PMEM-Spec", n_threads=2,
        fases_per_thread=max(5, round(10 * scale)), seed=seed,
        config=LoadMisspecProbe.recommended_config(2, True),
        label="125x path"))
    specs.append(RunSpec(
        benchmark=LoadMisspecProbe.name, design="PMEM-Spec", n_threads=2,
        fases_per_thread=max(5, round(10 * scale)), seed=seed,
        config=LoadMisspecProbe.recommended_config(2, False),
        label="20ns path"))
    specs.append(RunSpec(
        benchmark=StoreMisspecProbe.name, design="PMEM-Spec", n_threads=2,
        fases_per_thread=max(5, round(20 * scale)), seed=seed,
        config=StoreMisspecProbe.recommended_config(2),
        core_extra_cycles=(0, StoreMisspecProbe.slow_core_extra_cycles()),
        label="congested ring"))

    done = _executor(executor).run(Sweep(specs, name="misspec"))
    return [{
        "workload": spec.benchmark,
        "config": spec.label,
        "load_misspec": result.load_misspeculations,
        "store_misspec": result.store_misspeculations,
        "stale_loads": result.stale_loads,
        "aborts": result.fases_aborted,
        "commits": result.fases_committed,
    } for spec, result in done]


def lazy_vs_eager_recovery(scale: float = 1.0, seed: int = 42,
                           executor: Optional[ParallelExecutor] = None
                           ) -> Dict:
    """Ablation (§6.2): recovery-scheme cost under forced misspeculation.

    Runs the store-misspeculation probe under both recovery modes and
    reports cycles and abort counts.
    """
    specs = [RunSpec(
        benchmark=StoreMisspecProbe.name, design="PMEM-Spec", n_threads=2,
        fases_per_thread=max(10, round(30 * scale)), seed=seed,
        config=StoreMisspecProbe.recommended_config(2),
        core_extra_cycles=(0, StoreMisspecProbe.slow_core_extra_cycles()),
        recovery_mode=mode, label=mode) for mode in ("lazy", "eager")]
    done = _executor(executor).run(Sweep(specs, name="recovery-ablation"))
    return {spec.recovery_mode: {"cycles": result.cycles,
                                 "aborts": result.fases_aborted,
                                 "store_misspec":
                                     result.store_misspeculations,
                                 "commits": result.fases_committed}
            for spec, result in done}


def undo_vs_redo_ablation(n_threads: int = 4, scale: float = 1.0,
                          seed: int = 42,
                          benchmarks: Sequence[str] = ("hashmap", "tpcc",
                                                       "memcached"),
                          designs: Sequence[str] = ("PMEM-Spec", "HOPS"),
                          executor: Optional[ParallelExecutor] = None
                          ) -> Dict[str, Dict[str, float]]:
    """Ablation: undo vs redo logging on the writeback-dropping designs.

    Redo needs no intra-FASE ordering points at all under a FIFO
    persistence channel (see :mod:`repro.runtime.redo_log`), at the cost
    of commit-time replay stores; this reports the throughput ratio.
    """
    specs = [RunSpec(benchmark=benchmark, design=design,
                     n_threads=n_threads,
                     fases_per_thread=_fases(benchmark, scale), seed=seed,
                     log_mode=log_mode)
             for benchmark in benchmarks
             for design in designs
             for log_mode in ("undo", "redo")]
    done = _executor(executor).run(Sweep(specs, name="log-ablation"))
    table = done.table(lambda spec: spec.benchmark,
                       lambda spec: f"{spec.design}/{spec.log_mode}")
    out: Dict[str, Dict[str, float]] = {}
    for benchmark, results in table.items():
        row = {key: result.throughput for key, result in results.items()}
        for design in designs:
            row[f"{design}_redo_speedup"] = (
                row[f"{design}/redo"] / row[f"{design}/undo"])
        out[benchmark] = row
    return out


def figure2_annotation_burden(benchmarks: Sequence[str] = ("queue",
                                                           "tpcc"),
                              seed: int = 42) -> Dict[str, Dict[str, float]]:
    """Figure 2, quantified: average programmer-visible ordering
    annotations per FASE under each model's ISA."""
    from ..compiler import annotation_burden
    from ..workloads import workload_by_name
    out: Dict[str, Dict[str, float]] = {}
    for benchmark in benchmarks:
        workload = workload_by_name(benchmark, seed=seed)
        program = workload.build(2, 10)
        totals = {"x86": 0, "hops": 0, "strand": 0, "pmemspec": 0}
        count = 0
        for thread in program.threads:
            for fase in thread.fases:
                if not fase.writes:
                    continue
                count += 1
                for flavor in totals:
                    totals[flavor] += annotation_burden(
                        fase, flavor)["programmer_visible"]
        out[benchmark] = {flavor: total / max(1, count)
                          for flavor, total in totals.items()}
    return out


def naive_tagging_ablation(n_threads: int = 8, scale: float = 1.0,
                           seed: int = 42,
                           benchmarks: Sequence[str] = ("array_swaps",
                                                        "rbtree", "tpcc"),
                           executor: Optional[ParallelExecutor] = None
                           ) -> Dict[str, Dict[str, float]]:
    """Ablation: spec-tagging *every* critical-section store (a compiler
    without escape analysis) vs tagging only provably-shared ones.
    Reports normalised throughput and buffer overflows."""
    modes = (("escape-analysis", {}),
             ("naive", {"tag_private_stores": 1}))
    specs = [RunSpec(benchmark=benchmark, design="PMEM-Spec",
                     n_threads=n_threads,
                     fases_per_thread=_fases(benchmark, scale), seed=seed,
                     config_overrides={"extra": dict(extra)}, label=label)
             for benchmark in benchmarks for label, extra in modes]
    done = _executor(executor).run(Sweep(specs, name="tagging-ablation"))
    table = done.table(lambda spec: spec.benchmark,
                       lambda spec: spec.label)
    out: Dict[str, Dict[str, float]] = {}
    for benchmark, results in table.items():
        row: Dict[str, float] = {}
        for label, result in results.items():
            row[label] = result.throughput
            row[f"{label}_overflows"] = float(result.spec_buffer_overflows)
        row["slowdown"] = row["escape-analysis"] / row["naive"]
        out[benchmark] = row
    return out
