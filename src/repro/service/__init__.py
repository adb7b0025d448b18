"""repro.service: simulation-as-a-service campaign fabric.

Promotes the harness from a CLI you babysit to a long-running service
you submit work to: a durable job queue (:mod:`repro.service.jobs`),
a work-stealing worker pool (:mod:`repro.service.workers`), resumable
execution that replays journaled task outcomes instead of
re-simulating (:mod:`repro.service.runner`), and a stdlib asyncio
HTTP/JSON front end with streaming NDJSON events
(:mod:`repro.service.api`).  See ``docs/SERVICE.md``.
"""

from .client import ServiceClient, ServiceError
from .jobs import (
    JOB_KINDS,
    JOB_SCHEMA_VERSION,
    JOB_STATES,
    RESUMABLE_STATES,
    TERMINAL_STATES,
    JobError,
    JobRecord,
    JobSpec,
    JobStore,
)
from ..validation.campaign import report_fingerprint
from .runner import (
    JobCancelled,
    JobRunner,
    ServiceExecutor,
    task_key,
)
from .workers import (
    PoolCancelled,
    Task,
    TaskOutcome,
    WorkStealingPool,
)

__all__ = [
    "JOB_KINDS", "JOB_SCHEMA_VERSION", "JOB_STATES",
    "RESUMABLE_STATES", "TERMINAL_STATES",
    "JobError", "JobRecord", "JobSpec", "JobStore",
    "JobCancelled", "JobRunner", "ServiceExecutor",
    "report_fingerprint", "task_key",
    "PoolCancelled", "Task", "TaskOutcome", "WorkStealingPool",
    "ServiceClient", "ServiceError",
]
