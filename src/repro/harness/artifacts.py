"""Experiment artifacts: persist regenerated figures as JSON.

``python -m repro.harness fig9 --save results/`` drops one
timestamp-free, diff-friendly JSON file per experiment so runs can be
compared across commits; :func:`load_artifact` reads them back and
:func:`diff_artifacts` reports which series moved by more than a
tolerance -- a poor man's regression tracker for the figures.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple


def _normalise(obj):
    """JSON can't key dicts by int/float: stringify keys recursively."""
    if isinstance(obj, dict):
        return {str(key): _normalise(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalise(item) for item in obj]
    return obj


def save_artifact(directory: str, name: str, payload,
                  meta: Dict = None) -> str:
    """Write ``<directory>/<name>.json``; returns the path.

    The write is atomic (temp file + rename) so concurrent executors
    sharing a result-cache directory never observe a torn artifact; a
    failed write removes its staging file.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    document = {"experiment": name, "meta": _normalise(meta or {}),
                "data": _normalise(payload)}
    staging = f"{path}.tmp.{os.getpid()}"
    try:
        with open(staging, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(staging, path)
    except BaseException:
        if os.path.exists(staging):
            os.unlink(staging)
        raise
    return path


def load_artifact(path: str) -> Dict:
    with open(path) as handle:
        document = json.load(handle)
    for key in ("experiment", "data"):
        if key not in document:
            raise ValueError(f"{path} is not an experiment artifact "
                             f"(missing {key!r})")
    return document


def _flatten(prefix: str, obj, out: Dict[str, float]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}/{key}" if prefix else str(key), value, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


def diff_artifacts(old: Dict, new: Dict,
                   tolerance: float = 0.02) -> List[Tuple[str, float, float]]:
    """Numeric leaves that moved by more than ``tolerance`` (relative).

    Returns ``(path, old_value, new_value)`` tuples; missing/extra paths
    are reported with ``float('nan')`` on the absent side.
    """
    if old["experiment"] != new["experiment"]:
        raise ValueError(
            f"comparing different experiments: {old['experiment']} "
            f"vs {new['experiment']}")
    old_leaves: Dict[str, float] = {}
    new_leaves: Dict[str, float] = {}
    _flatten("", old["data"], old_leaves)
    _flatten("", new["data"], new_leaves)
    moved = []
    for path in sorted(set(old_leaves) | set(new_leaves)):
        before = old_leaves.get(path)
        after = new_leaves.get(path)
        if before is None or after is None:
            moved.append((path, float("nan") if before is None else before,
                          float("nan") if after is None else after))
            continue
        scale = max(abs(before), abs(after), 1e-12)
        if abs(after - before) / scale > tolerance:
            moved.append((path, before, after))
    return moved
