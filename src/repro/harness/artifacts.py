"""Experiment artifacts: persist regenerated figures as JSON.

``python -m repro.harness fig9 --save results/`` drops one
timestamp-free, diff-friendly JSON file per experiment so runs can be
compared across commits; :func:`load_artifact` reads them back.
"""

from __future__ import annotations

import json
import os
from typing import Dict


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
