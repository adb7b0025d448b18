"""The durable outcome store: one task journal keyed by code, function
and argument.

``ParallelExecutor(cache_dir=DIR)`` -- what ``fig9 --cache-dir DIR``
and ``validate --resume DIR`` build -- journals every task that
``run``, ``map`` and ``map_batched`` fan out in ``DIR/tasks.jsonl``.
Each task has a **durable identity**, :func:`task_key`: a content hash
of the function's qualified name (a lambda or nested function has none
and is refused), the canonical JSON of its argument and
:func:`source_digest`, a digest of the ``repro`` package's ``.py``
sources.  A task whose key the journal holds settles at once from it;
the rest go to the worker pool and are journaled as each settles.  So
rerunning a killed campaign simulates only what it never finished, a
figure rerun on an unchanged tree simulates nothing, and any edit to
the code misses every outcome journaled before it.  Lines written by
older code are skipped, never pruned: the journal only grows.

The journal is append-only JSON Lines: one ``{"key", "value"}`` record
per settled task, the last record per key winning.  Each record is one
``write``, so a kill tears at most the line being written.  The reader
skips a line it cannot decode, and a reopened journal first ends a torn
last line, so a tear costs one task a rerun and hides nothing after it.

This module imports nothing from :mod:`repro.validation`, so a figure
sweep that journals its specs does not load the campaign engine.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from typing import Dict

from ..system import SimResult

JOURNAL_NAME = "tasks.jsonl"


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over every ``.py`` file of the ``repro`` package, by
    relative path and content; computed once per process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for directory, subdirectories, names in os.walk(root):
        subdirectories.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read() + b"\0")
    return digest.hexdigest()


def _jsonify(value):
    """Canonical JSON-ready form of a task argument.  A dataclass field
    declared ``compare=False`` (``RunSpec.label``) is left out: it does
    not make two arguments different."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {item.name: _jsonify(getattr(value, item.name))
                for item in dataclasses.fields(value) if item.compare}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


def _task_name(fn):
    """The durable name of a task function: its qualified name, or for
    a :func:`functools.partial` its function's name plus the bound
    arguments.  A lambda or a nested function has none: two of them in
    one scope would share a name, and a pool cannot pickle them."""
    if isinstance(fn, functools.partial):
        return {"fn": _task_name(fn.func), "args": _jsonify(fn.args),
                "keywords": _jsonify(fn.keywords)}
    name = f"{fn.__module__}.{fn.__qualname__}"
    if "<locals>" in name or "<lambda>" in name:
        raise ValueError(f"task function {name} has no durable name: "
                         f"journal a module-level function instead")
    return name


def task_key(fn, arg) -> str:
    """Durable task identity: function name (:func:`_task_name`) +
    canonical argument JSON + :func:`source_digest`."""
    blob = json.dumps(
        {"fn": _task_name(fn), "arg": _jsonify(arg),
         "code": source_digest()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def encode_outcome(value) -> Dict:
    """Journal form of a task outcome.  Campaign trials are plain
    dicts; sweep specs return :class:`SimResult` and campaign profiling
    :class:`~repro.validation.planners.RunProfile`, which are tagged so
    :func:`decode_outcome` rebuilds the real object."""
    if isinstance(value, SimResult):
        return {"type": "SimResult", "value": value.to_dict()}
    if dataclasses.is_dataclass(value):
        # Only a campaign returns one, so a sweep never imports it.
        from ..validation.planners import RunProfile
        if isinstance(value, RunProfile):
            return {"type": "RunProfile",
                    "value": dataclasses.asdict(value)}
    return {"type": "json", "value": value}


def decode_outcome(payload: Dict):
    kind, value = payload["type"], payload["value"]
    if kind == "SimResult":
        return SimResult.from_dict(value)
    if kind == "RunProfile":
        from ..validation.planners import RunProfile
        return RunProfile(**dict(value, fase_intervals=[
            tuple(pair) for pair in value["fase_intervals"]]))
    return value


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
