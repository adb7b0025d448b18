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
the code misses every outcome journaled before it.

The journal is append-only JSON Lines: one ``{"code", "key", "value"}``
record per settled task, the last record per key winning, where
``code`` is the start of :func:`source_digest`.  Each record is one
``write``, so a kill tears at most the line being written.  The journal
holds only the running code's outcomes: reading it keeps the records
stamped with that code and, when it meets any other line -- another
tree's, an unstamped one written before stamping, or a tear -- rewrites
the file with exactly the kept records (through a temporary file and
``os.replace``).  So a tear costs one task a rerun, hides nothing after
it and leaves the next record a line of its own, and a code change
drops every older outcome at its first read.  A record that another
process appends while this one rewrites the journal can be lost; that
costs its task a rerun, never a wrong answer.

This module imports nothing from :mod:`repro.validation`, so a figure
sweep that journals its specs does not load the campaign engine.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import types
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
    not make two arguments different.  A function or a partial is
    keyed by its durable name (:func:`_task_name`)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {item.name: _jsonify(getattr(value, item.name))
                for item in dataclasses.fields(value) if item.compare}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (functools.partial, types.FunctionType,
                          types.BuiltinFunctionType)):
        return _task_name(value)
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


def _code() -> str:
    """The stamp on the running code's journal records."""
    return source_digest()[:16]


def _record(key: str, value) -> bytes:
    """One journal line: ``key``'s outcome, stamped with the code."""
    record = json.dumps({"code": _code(), "key": key, "value": value},
                        sort_keys=True, separators=(",", ":"))
    return (record + "\n").encode()


def append_journal(path: str, key: str, value) -> None:
    """Journal one settled task's outcome (``value`` JSON-ready)."""
    _append(path, _record(key, value))


def load_journal(path: str) -> Dict[str, object]:
    """The running code's journaled outcomes by key, the last write per
    key winning.

    Any other line -- another code's record, an unstamped one, or one
    that does not decode (a tear) -- is dropped, and the journal is
    rewritten with exactly the kept records."""
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return {}
    code = _code()
    outcomes: Dict[str, object] = {}
    stale = lines.pop() != b""              # a torn last line
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if (isinstance(record, dict) and record.get("code") == code
                and "key" in record):
            outcomes[record["key"]] = record.get("value")
        else:
            stale = True
    if stale:
        temporary = f"{path}.{os.getpid()}.tmp"
        with open(temporary, "wb") as handle:
            handle.write(b"".join(_record(key, value)
                                  for key, value in outcomes.items()))
        os.replace(temporary, path)
    return outcomes
