"""Content-addressed on-disk snapshot store.

Layout under the store root::

    objects/<k0k1>/<key>.snap   pickled snapshot payloads, keyed by the
                                sha256 of their bytes
    index/<name>.json           rung indexes: which snapshots form the
                                ladder of one campaign cell / sweep base

Writes are atomic (temp file + ``os.replace``) so a crashed or killed
run can never leave a torn object behind -- a truncated or otherwise
unreadable object raises :class:`SnapshotError`, which callers treat as
"snapshot unavailable, fall back to cold start".  The store never
evicts: deleting its directory is the way to reclaim the space.

The store sits beside the PR 1 artifact cache on purpose: artifacts are
*results* keyed by spec, snapshots are *machine states* keyed by
content, and their lifetimes differ (snapshots are a pure accelerator
-- losing one costs time, never correctness).

The store deals in bytes: :func:`encode_payload` pickles a captured
state, ``put`` writes the bytes under their sha256, and every ``get``
reads the object from disk and checks its sha256 against its key before
returning the bytes, so a damaged object -- truncated, bit-flipped or
overwritten at any time after it was written -- raises
:class:`SnapshotError` instead of decoding (:func:`decode_payload`)
into a different machine state.  Nothing caches the verified bytes:
every campaign trial (:mod:`repro.validation.campaign`) reads its
nearest rung from the store, so every process sees the same rungs,
damaged or not.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from typing import Dict, List

INDEX_SCHEMA_VERSION = 1


class SnapshotError(RuntimeError):
    """A snapshot could not be stored, found, or decoded."""


def encode_payload(payload: dict) -> bytes:
    """The bytes a captured state is stored as."""
    try:
        return pickle.dumps(payload, protocol=4)
    except Exception as exc:
        raise SnapshotError(f"unpicklable snapshot payload: {exc}")


def decode_payload(blob: bytes, key: str) -> dict:
    """A fresh captured state from :func:`encode_payload` bytes (``key``
    names them in the error)."""
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(f"snapshot {key[:12]} undecodable: {exc}")


class SnapshotStore:
    """Content-addressed byte store with atomic writes."""

    def __init__(self, root: str):
        self.root = root
        self._objects = os.path.join(root, "objects")
        self._index_dir = os.path.join(root, "index")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._index_dir, exist_ok=True)

    # -------------------------------------------------------------- objects

    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + ".snap")

    def put(self, blob: bytes) -> str:
        """Store encoded bytes; returns their content key (idempotent)."""
        key = hashlib.sha256(blob).hexdigest()
        path = self._object_path(key)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return key

    def get(self, key: str) -> bytes:
        """The verified bytes stored under ``key``; raises
        :class:`SnapshotError` when the object is missing, truncated, or
        corrupt."""
        path = self._object_path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise SnapshotError(f"snapshot {key[:12]} unavailable: {exc}")
        if hashlib.sha256(blob).hexdigest() != key:
            raise SnapshotError(
                f"snapshot {key[:12]} corrupt: content hash mismatch")
        return blob

    def total_bytes(self) -> int:
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            total += sum(os.path.getsize(os.path.join(dirpath, name))
                         for name in filenames if name.endswith(".snap"))
        return total

    # -------------------------------------------------------------- indexes

    def _index_path(self, name: str) -> str:
        return os.path.join(self._index_dir, name + ".json")

    def save_index(self, name: str, rungs: List[Dict]) -> str:
        """Atomically write a ladder index: ``[{cycle, key}, ...]``."""
        path = self._index_path(name)
        document = {"schema_version": INDEX_SCHEMA_VERSION, "rungs": rungs}
        fd, tmp = tempfile.mkstemp(dir=self._index_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # One compact line from the C encoder: json.dump and any
                # indent take the pure-Python encoder, whose recursive
                # closures are cyclic garbage on every call.
                handle.write(json.dumps(document) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def load_index(self, name: str) -> List[Dict]:
        """Load a ladder index; raises :class:`SnapshotError` if absent
        or unreadable."""
        path = self._index_path(name)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"snapshot index {name!r} unavailable: {exc}")
        if document.get("schema_version") != INDEX_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot index {name!r} has schema "
                f"{document.get('schema_version')!r}, "
                f"expected {INDEX_SCHEMA_VERSION}")
        return list(document.get("rungs", []))

    def indexes(self) -> List[str]:
        return sorted(name[:-5] for name in os.listdir(self._index_dir)
                      if name.endswith(".json"))
