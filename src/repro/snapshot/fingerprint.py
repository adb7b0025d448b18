"""Canonical encoding + stable hashing of captured simulator state.

``pickle`` output is not a sound fingerprint (memo numbering depends on
object identity and sharing), so fingerprints use a purpose-built
canonical byte encoding: type-tagged, length-prefixed, with dict items
emitted in sorted key order.  Two captured states encode identically
iff they are value-equal -- which is exactly the property the
restore-then-replay determinism check needs.

Only plain data may appear in a captured state: ``None``, ``bool``,
``int``, ``float``, ``str``, ``bytes``, and lists/tuples/dicts thereof.
Anything else is a capture bug and raises immediately (better a loud
error at capture time than a fingerprint that silently depends on
``repr`` addresses).
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Any


class FingerprintError(TypeError):
    """A captured state contained a non-plain-data value."""


def _key_order(key: Any):
    # Dict keys are ints (addresses, blocks, ids) or strings (field
    # names); sort ints before strings, each kind among itself.
    if isinstance(key, bool):
        raise FingerprintError(f"bool dict key {key!r} in captured state")
    if isinstance(key, int):
        return (0, key, "")
    if isinstance(key, str):
        return (1, 0, key)
    raise FingerprintError(f"unsupported dict key {key!r} in captured state")


#: The exact-type set of an all-int sequence.  ``bool`` is an int
#: subclass but encodes as T/F, so the bulk paths below guard on exact
#: types (``set(map(type, ...))``, C speed), never on isinstance.
_INTS = {int}
_ROWS = {tuple, list}


def _int_rows(obj, out: bytearray) -> bool:
    """Bulk-emit a sequence of equal-length int-only tuples/lists (PM
    images, cache line data, captured dict items) in one ``%`` call;
    False (emitting nothing) if any row doesn't conform."""
    if not set(map(type, obj)) <= _ROWS:
        return False
    widths = set(map(len, obj))
    if len(widths) != 1:
        return False
    flat = tuple(chain.from_iterable(obj))
    if flat and set(map(type, flat)) != _INTS:
        return False
    width = widths.pop()
    out += (b"l%d:" % width + b"i%d;" * width) * len(obj) % flat
    return True


def _encode(obj: Any, out: bytearray) -> None:
    # Captured states are overwhelmingly int-heavy (PM images, cache
    # sets, per-address maps), and this encoder runs over the *entire*
    # state at every rung capture -- so containers inline their leaf
    # elements and format int-only rows and int-to-int maps with one
    # C-level ``%`` call instead of recursing once per element.  Output
    # bytes are identical to the element-wise encoding either way.
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, (list, tuple)):
        # Containers before leaves: by the time _encode recurses, the
        # inlined paths below have already consumed most leaf values,
        # so what reaches this ladder is overwhelmingly containers.
        # Lists and tuples encode identically: a restored state may
        # legitimately turn tuples into lists (JSON round trips do).
        out += b"l%d:" % len(obj)
        if obj:
            head = type(obj[0])
            if head is int:
                if set(map(type, obj)) == _INTS:
                    out += b"i%d;" * len(obj) % tuple(obj)
                    return
            elif (head is tuple or head is list) and _int_rows(obj, out):
                return
        for item in obj:
            kind = type(item)
            if kind is int:
                out += b"i%d;" % item
            elif kind is str:
                body = item.encode("utf-8")
                out += b"s%d:" % len(body) + body
            else:
                _encode(item, out)
    elif isinstance(obj, dict):
        out += b"d%d:" % len(obj)
        key_types = set(map(type, obj))
        if key_types <= _INTS:
            # Keys are unique, so sorting (key, value) pairs compares
            # keys only -- the order _key_order gives all-int keys.
            items = sorted(obj.items())
            if set(map(type, obj.values())) <= _INTS:
                out += (b"i%d;i%d;" * len(items)
                        % tuple(chain.from_iterable(items)))
                return
            for key, value in items:
                out += b"i%d;" % key
                kind = type(value)
                if kind is int:
                    out += b"i%d;" % value
                elif kind is str:
                    body = value.encode("utf-8")
                    out += b"s%d:" % len(body) + body
                else:
                    _encode(value, out)
            return
        if key_types == {str}:
            # Unique keys again: sorting pairs compares keys only.
            for key, value in sorted(obj.items()):
                body = key.encode("utf-8")
                out += b"s%d:" % len(body) + body
                kind = type(value)
                if kind is int:
                    out += b"i%d;" % value
                elif kind is str:
                    body = value.encode("utf-8")
                    out += b"s%d:" % len(body) + body
                else:
                    _encode(value, out)
            return
        for key in sorted(obj, key=_key_order):
            if isinstance(key, str):
                body = key.encode("utf-8")
                out += b"s%d:" % len(body) + body
            else:
                out += b"i%d;" % key
            value = obj[key]
            kind = type(value)
            if kind is int:
                out += b"i%d;" % value
            elif kind is str:
                body = value.encode("utf-8")
                out += b"s%d:" % len(body) + body
            else:
                _encode(value, out)
    elif isinstance(obj, int):
        out += b"i%d;" % obj
    elif isinstance(obj, float):
        out += b"f" + obj.hex().encode() + b";"
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out += b"s%d:" % len(body) + body
    elif isinstance(obj, bytes):
        out += b"b%d:" % len(obj) + obj
    else:
        raise FingerprintError(
            f"unsupported value {obj!r} ({type(obj).__name__}) "
            f"in captured state")


def canonical_bytes(obj: Any) -> bytes:
    """The canonical byte encoding of a plain-data value."""
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def fingerprint_state(payload: dict) -> str:
    """Stable sha256 fingerprint of a captured system state.

    Hashes the architectural content: ``cycle`` plus every component
    state.  Deliberately excluded: the event-heap ``sequence`` counter
    (restarts benignly on restore), the trace-event prefix and the
    ladder bookkeeping (observability, not architecture).
    """
    digest = hashlib.sha256()
    digest.update(canonical_bytes({
        "cycle": payload.get("cycle", 0),
        "components": payload.get("components", {}),
    }))
    return digest.hexdigest()
