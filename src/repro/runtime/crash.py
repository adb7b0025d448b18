"""The one build path for crash-injection runs.

The failure-atomicity contract (§2.1) says a crash at *any* cycle must
recover to a state where every FASE is all-or-nothing.  A crash trial
runs a workload under a design, cuts power at a chosen cycle, snapshots
the PM device (exactly what ADR preserves), runs the undo- or redo-log
recovery protocol, and lets the workload check its structural
invariants on the recovered data image.  Trials are defined once, by
:func:`repro.validation.run_trial`; this module builds the system they
run.

PMEM-Spec treats misspeculation as a *virtual* power failure (§4.4);
these are the real ones, exercising the same log and recovery code.
"""

from __future__ import annotations

from typing import Optional, Type

from ..config import SystemConfig, table3_config


def build_crash_system(workload_cls: Type, design_name: str,
                       n_threads: int, fases_per_thread: int, seed: int,
                       config: Optional[SystemConfig] = None,
                       log_mode: str = "undo", tracer=None,
                       prebuilt=None):
    """Build the ``(workload, system)`` pair of one crash-injection run,
    ready to run (the validation campaign attaches a tracer, so a
    measured uninterrupted run and the crashed run are built identically
    by construction).

    ``prebuilt`` is an optional ``(workload, program)`` pair from a
    previous build with the same (workload_cls, n_threads,
    fases_per_thread, seed): program materialisation dominates build
    time at large fase counts, and both objects are immutable after
    ``build()`` (the system copies the initial heap), so callers running
    many trials of one cell can pregenerate once.
    """
    from ..persistency import design_by_name
    from ..system import build_system
    if prebuilt is not None:
        workload, program = prebuilt
    else:
        workload = workload_cls(seed=seed)
        program = workload.build(n_threads, fases_per_thread)
    cfg = config or table3_config(n_cores=n_threads)
    system = build_system(program, design_by_name(design_name), cfg,
                          log_mode=log_mode, tracer=tracer)
    return workload, system
