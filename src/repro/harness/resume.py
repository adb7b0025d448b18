"""Journaled resume: a killed campaign reruns only what it never finished.

``validate --resume DIR`` runs its campaign over
:class:`JournaledExecutor`, a :class:`ParallelExecutor` whose one
fan-out step first gives every task a **durable identity**
(:func:`task_key`: a content hash of the function's qualified name and
the canonical JSON of its argument) and looks it up in the journal,
``DIR/tasks.jsonl``.  Journaled outcomes settle at once (counted as
``tasks_from_journal``); only the rest go to the worker pool, and each
is journaled the moment it settles (``tasks_executed``).  Chunking is
the executor's own :func:`repro.harness.plan_batches`, so a rerun
builds the same tasks, and the rebuilt report equals an uninterrupted
run's (:func:`repro.validation.campaign.report_fingerprint`).

The journal is append-only JSON Lines: one ``{"key", "value"}`` record
per settled task, the last record per key winning.  Each record is one
``write``, so a kill tears at most the line being written.  The reader
skips a line it cannot decode, and a resumed journal first ends a torn
last line, so a tear costs one task a rerun and hides nothing after it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable, Dict, List

from ..obsv.bus import Bus
from ..validation.planners import RunProfile
from .pool import Task, TaskOutcome
from .sweep import ParallelExecutor

#: Part of every task key: a bump invalidates journaled outcomes,
#: mirroring ``RunSpec.cache_key``.
JOURNAL_SCHEMA_VERSION = 1

JOURNAL_NAME = "tasks.jsonl"


def _jsonify(value):
    """Canonical JSON-ready form of a task argument."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


def task_key(fn, arg) -> str:
    """Durable task identity: function qualname + canonical argument
    JSON + :data:`JOURNAL_SCHEMA_VERSION`."""
    blob = json.dumps(
        {"fn": f"{fn.__module__}.{fn.__qualname__}",
         "arg": _jsonify(arg), "schema": JOURNAL_SCHEMA_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _encode(value) -> Dict:
    """Journal encoding for task outcomes.  Campaign trials are plain
    dicts; profiling returns :class:`RunProfile` dataclasses, which are
    tagged so :func:`_decode` can rebuild the real object on resume."""
    if isinstance(value, RunProfile):
        return {"type": "RunProfile",
                "value": dataclasses.asdict(value)}
    return {"type": "json", "value": value}


def _decode(payload):
    if payload["type"] == "RunProfile":
        value = dict(payload["value"])
        value["fase_intervals"] = [tuple(pair) for pair
                                   in value["fase_intervals"]]
        return RunProfile(**value)
    return payload["value"]


def _append(path: str, data: bytes) -> None:
    """One ``write`` on an ``O_APPEND`` descriptor: a signal handler
    runs before or after it, never between a record and its newline."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def append_journal(path: str, key: str, value) -> None:
    """Journal one settled task's outcome (``value`` JSON-ready)."""
    record = json.dumps({"key": key, "value": value}, sort_keys=True,
                        separators=(",", ":"))
    _append(path, (record + "\n").encode())


def load_journal(path: str) -> Dict[str, object]:
    """Every journaled outcome by key, the last write per key winning.

    A line that does not decode (a tear) is skipped, not the end of
    the journal; a torn last line is ended here so the next append
    starts on a line of its own."""
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return {}
    outcomes: Dict[str, object] = {}
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "key" in record:
            outcomes[record["key"]] = record.get("value")
    if lines[-1]:
        _append(path, b"\n")
    return outcomes


class JournaledExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` that journals every task outcome in
    ``directory`` and replays the journaled ones.

    Drop-in where :func:`repro.validation.run_campaign` expects an
    executor; only the fan-out step differs.  ``stats`` counts
    ``tasks_from_journal`` and ``tasks_executed`` over the executor's
    life.  Outcomes must be JSON-ready or :class:`RunProfile`, which
    is what campaigns fan out; sweeps resume through the per-spec
    result cache instead.  Keyword arguments go to
    :class:`ParallelExecutor`.
    """

    def __init__(self, directory: str, **kwargs):
        super().__init__(**kwargs)
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.journaled = load_journal(self.path)
        self.stats = {"tasks_from_journal": 0, "tasks_executed": 0}

    def _fan_out(self, tasks: List[Task], bus: Bus,
                 settle: Callable[[int, TaskOutcome], None]) -> None:
        keys = [task_key(task.fn, task.arg) for task in tasks]
        missing: List[int] = []
        for position, key in enumerate(keys):
            if key in self.journaled:
                self.stats["tasks_from_journal"] += 1
                settle(position, TaskOutcome(
                    key=key, status="ok", attempts=0, index=position,
                    value=_decode(self.journaled[key])))
            else:
                missing.append(position)

        def journal(index: int, outcome: TaskOutcome) -> None:
            if outcome.ok:
                encoded = _encode(outcome.value)
                append_journal(self.path, outcome.key, encoded)
                self.journaled[outcome.key] = encoded
            self.stats["tasks_executed"] += 1
            settle(missing[index], outcome)

        super()._fan_out([dataclasses.replace(tasks[position],
                                              key=keys[position])
                          for position in missing], bus, journal)
