"""``canonical_bytes`` against its element-wise reference encoder.

Every state fingerprint and pinned digest in the repo is a sha256 of
``canonical_bytes``, so its C-speed bulk paths (int rows and int-keyed
maps formatted in one ``%`` call) must never change a byte.  The
reference below is the encoder those digests were first pinned with,
kept here verbatim but for one fix both encoders share: a ``str``
subclass dict key encodes as its string, as a ``str`` subclass value
always has (it used to reach ``%d`` and raise ``TypeError``).
Hypothesis checks the two agree byte for byte on random plain data, and
that both reject the same bad inputs.
"""

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snapshot import canonical_bytes
from repro.snapshot.fingerprint import FingerprintError


# ------------------------------------------------------------- reference


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


def _all_plain_ints(items) -> bool:
    # bool is an int subclass but encodes as T/F, so `type is int`
    # exactly (not isinstance) guards the bulk paths below.
    return all(type(item) is int for item in items)


def _all_plain_strs(items) -> bool:
    return all(type(item) is str for item in items)


def _int_rows(obj, out: bytearray) -> bool:
    """Bulk-emit a sequence of int-only tuples/lists (PM images, cache
    tag arrays); False (emitting nothing) if any row doesn't conform."""
    chunk = bytearray()
    for item in obj:
        if type(item) not in (tuple, list):
            return False
        if len(item) == 2:
            first, second = item
            if type(first) is int and type(second) is int:
                chunk += b"l2:i%d;i%d;" % (first, second)
                continue
            return False
        if not _all_plain_ints(item):
            return False
        chunk += b"l%d:" % len(item)
        for value in item:
            chunk += b"i%d;" % value
    out += chunk
    return True


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, (list, tuple)):
        out += b"l%d:" % len(obj)
        if obj:
            head = type(obj[0])
            if head is int:
                if _all_plain_ints(obj):
                    out += b"".join(b"i%d;" % item for item in obj)
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
        if _all_plain_ints(obj):
            for key, value in sorted(obj.items()):
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
        if _all_plain_strs(obj):
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


def reference_bytes(obj: Any) -> bytes:
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


# ------------------------------------------------------------ strategies


class IntSub(int):
    pass


class ListSub(list):
    pass


class DictSub(dict):
    pass


class StrSub(str):
    pass


ints = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
small_ints = st.integers(min_value=-3, max_value=3)

leaves = st.one_of(
    st.none(), st.booleans(), ints, small_ints, st.floats(),
    st.binary(max_size=6), st.text(max_size=6), ints.map(IntSub),
    st.text(max_size=6).map(StrSub))

#: Row shapes the bulk paths take or must decline: int pairs, equal
#: rows of other widths, and rows that differ in width or hold a
#: non-int (bool included).
int_rows = st.one_of(
    st.lists(st.tuples(ints, ints), max_size=6),
    st.integers(min_value=0, max_value=4).flatmap(
        lambda width: st.lists(
            st.lists(small_ints, min_size=width, max_size=width)
            .map(tuple), max_size=5)),
    st.lists(st.one_of(st.tuples(ints, ints), st.lists(ints, max_size=3),
                       st.tuples(ints, st.booleans()),
                       st.tuples(ints, ints.map(IntSub))), max_size=5))

int_maps = st.dictionaries(
    st.one_of(ints, small_ints),
    st.one_of(ints, small_ints, st.booleans(), ints.map(IntSub)),
    max_size=6)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(ListSub),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(ints, children, max_size=5),
        st.dictionaries(st.one_of(ints, st.text(max_size=4),
                                  ints.map(IntSub),
                                  st.text(max_size=4).map(StrSub)),
                        children, max_size=5),
        st.dictionaries(st.text(max_size=4), children,
                        max_size=5).map(DictSub))


plain = st.recursive(st.one_of(leaves, int_rows, int_maps), containers,
                     max_leaves=40)

#: Plain data with bad values mixed in: bool or tuple dict keys and
#: object leaves.
bad_keys = st.one_of(st.booleans(), st.tuples(small_ints, small_ints))
maybe_bad = st.recursive(
    st.one_of(leaves, int_rows, int_maps, st.builds(object)),
    lambda children: st.one_of(
        containers(children),
        st.dictionaries(st.one_of(ints, st.text(max_size=4), bad_keys),
                        children, max_size=5)),
    max_leaves=30)


# ----------------------------------------------------------------- tests


@settings(max_examples=400, deadline=None)
@given(plain)
def test_canonical_bytes_equals_the_reference(value):
    assert canonical_bytes(value) == reference_bytes(value)


def outcome(encode, value):
    try:
        return encode(value)
    except FingerprintError:
        return FingerprintError


@settings(max_examples=300, deadline=None)
@given(maybe_bad)
def test_both_encoders_reject_the_same_inputs(value):
    assert outcome(canonical_bytes, value) == \
        outcome(reference_bytes, value)


def test_a_str_subclass_key_encodes_as_its_string():
    for value in ({StrSub("a"): 1}, {StrSub("a"): 1, 2: 3},
                  {StrSub("b"): [1], "a": StrSub("c")}):
        plain = {(str(key) if isinstance(key, str) else key): item
                 for key, item in value.items()}
        assert canonical_bytes(value) == reference_bytes(value) == \
            reference_bytes(plain)


BAD = {
    "bool-key": {True: 1},
    "bool-among-int-keys": {1: 2, False: 3},
    "bool-among-str-keys": {"a": 1, True: 2},
    "tuple-key": {(1, 2): 3},
    "tuple-among-int-keys": {1: 2, (3,): 4},
    "object": object(),
    "object-in-list": [object()],
    "object-after-ints": [1, 2, object()],
    "object-in-a-row": [(1, 2), (3, object())],
    "object-in-int-map": {1: object()},
    "object-nested": {"a": [object()]},
}


@pytest.mark.parametrize("name", sorted(BAD))
def test_bad_inputs_raise_in_both(name):
    for encode in (canonical_bytes, reference_bytes):
        with pytest.raises(FingerprintError):
            encode(BAD[name])
