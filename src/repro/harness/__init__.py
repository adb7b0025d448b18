"""Experiment harness: per-figure drivers, sweeps, and reporting."""

from .artifacts import save_artifact
from .configs import (
    BASELINE,
    BENCHMARK_ORDER,
    DESIGNS,
    default_config,
    format_table3,
    table3_rows,
)
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
    sparkline,
)
from .runner import normalized_throughput
from .sweep import (
    ParallelExecutor,
    RunSpec,
    Sweep,
    SweepError,
    SweepResult,
    WorkerTaskError,
    build_spec_system,
    execute_spec,
    plan_batches,
)

__all__ = [
    "BASELINE", "save_artifact",
    "BENCHMARK_ORDER", "DESIGNS",
    "default_config", "figure9", "figure10", "figure10_summary",
    "figure11", "figure12", "format_bar_chart", "format_misspec_table",
    "format_normalized_table", "format_series", "format_table3",
    "format_timeseries", "sparkline", "execute_spec",
    "figure2_annotation_burden",
    "lazy_vs_eager_recovery", "misspeculation_rates",
    "ParallelExecutor", "RunSpec", "Sweep",
    "SweepError", "SweepResult", "build_spec_system",
    "undo_vs_redo_ablation",
    "naive_tagging_ablation", "normalized_throughput",
    "table3_rows",
    "WorkerTaskError", "plan_batches",
]
