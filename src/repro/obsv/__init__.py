"""Campaign-scale observability: event bus, profiler, history.

The package is wall-clock-side only: nothing in here touches the
simulator, so enabling any of it leaves ``SimResult`` payloads and
snapshot fingerprints bit-identical to an unobserved run (the
neutrality property ``tests/obsv/test_neutrality.py`` pins down).

* :mod:`repro.obsv.bus` -- schema-versioned JSON-Lines lifecycle
  events with run-context correlation IDs; multiprocessing-safe.
* :mod:`repro.obsv.profiler` -- deterministic cycle attribution over
  trace spans; collapsed-stack output for flamegraph tools.
* :mod:`repro.obsv.history` -- cross-run bench trend reports
  (terminal sparklines + standalone HTML).
"""

from .bus import (  # noqa: F401
    ENVELOPE_FIELDS,
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    NULL_BUS,
    Bus,
    EventBus,
    JsonlSink,
    NullBus,
    QueueEmitter,
    bus_scope,
    drain_queue,
    get_bus,
    read_event_log,
    set_bus,
    validate_event_log,
    validate_events,
)
from .history import (  # noqa: F401
    BenchRecord,
    HistoryReport,
    collect_records,
)
from .profiler import (  # noqa: F401
    COMPONENT_PRIORITY,
    CycleProfile,
    profile_run,
)

__all__ = [
    "ENVELOPE_FIELDS",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "NULL_BUS",
    "Bus",
    "EventBus",
    "JsonlSink",
    "NullBus",
    "QueueEmitter",
    "bus_scope",
    "drain_queue",
    "get_bus",
    "read_event_log",
    "set_bus",
    "validate_event_log",
    "validate_events",
    "BenchRecord",
    "HistoryReport",
    "collect_records",
    "COMPONENT_PRIORITY",
    "CycleProfile",
    "profile_run",
]
