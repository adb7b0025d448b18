"""Discrete-event simulation kernel (events, processes, resources,
stats, tracing, metrics)."""

from .engine import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .metrics import (
    NULL_METRICS,
    Metrics,
    MetricsCollector,
    NullMetrics,
)
from .resources import (
    CapacityQueue,
    Mutex,
    OccupancyQueue,
    TimelineResource,
)
from .stats import Counter, geomean
from .trace import (
    NULL_TRACER,
    NullTracer,
    TraceRecorder,
    Tracer,
    validate_trace_document,
)

__all__ = [
    "AllOf",
    "CapacityQueue",
    "Counter",
    "Environment",
    "Event",
    "Metrics",
    "MetricsCollector",
    "Mutex",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "OccupancyQueue",
    "Process",
    "SimulationError",
    "Timeout",
    "TimelineResource",
    "TraceRecorder",
    "Tracer",
    "geomean",
    "validate_trace_document",
]
