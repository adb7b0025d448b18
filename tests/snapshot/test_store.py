"""SnapshotStore: content addressing, atomicity, corruption, no eviction.

The store deals in bytes.  These tests store payloads through
:class:`PayloadStore`, which encodes and decodes with the codec the
ladder uses, so each property is checked on the bytes a ladder writes.
"""

import os
import pickle

import pytest

from repro.snapshot import SnapshotError, SnapshotStore
from repro.snapshot.store import decode_payload, encode_payload


class PayloadStore(SnapshotStore):
    """The store with ``put``/``get`` taking and giving payloads, through
    :func:`encode_payload` and :func:`decode_payload`."""

    def put(self, payload):
        return super().put(encode_payload(payload))

    def get(self, key):
        return decode_payload(super().get(key), key)


@pytest.fixture
def store(tmp_path):
    return PayloadStore(str(tmp_path / "snaps"))


class TestContentAddressing:
    def test_round_trip(self, store):
        payload = {"cycle": 42, "components": {"core": [1, 2, 3]}}
        key = store.put(payload)
        assert store.get(key) == payload

    def test_same_content_same_key(self, store):
        assert store.put({"a": 1}) == store.put({"a": 1})

    def test_different_content_different_key(self, store):
        assert store.put({"a": 1}) != store.put({"a": 2})

    def test_get_finds_only_what_was_put(self, store):
        key = store.put({"x": 1})
        assert store.get(key) == {"x": 1}
        with pytest.raises(SnapshotError, match="unavailable"):
            store.get("0" * 64)

    def test_missing_key_raises(self, store):
        with pytest.raises(SnapshotError, match="unavailable"):
            store.get("f" * 64)


class TestCorruption:
    def test_truncated_object_raises_clean_error(self, store):
        key = store.put({"cycle": 1, "big": list(range(1000))})
        path = store._object_path(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError, match="corrupt"):
            store.get(key)

    def test_bitflip_detected(self, store):
        key = store.put({"cycle": 7})
        path = store._object_path(key)
        with open(path, "r+b") as handle:
            handle.seek(3)
            byte = handle.read(1)
            handle.seek(3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SnapshotError, match="corrupt"):
            store.get(key)

    def test_no_temp_litter_after_put(self, store):
        store.put({"cycle": 1})
        leftovers = [name for _dir, _sub, names in os.walk(store.root)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_unpicklable_payload_raises(self, store):
        with pytest.raises(SnapshotError, match="unpicklable"):
            store.put({"fn": lambda: None})

    def test_get_returns_the_verified_bytes(self, store):
        blob = encode_payload({"cycle": 9})
        key = SnapshotStore.put(store, blob)
        assert SnapshotStore.get(store, key) == blob


class TestLRUCap:
    """The store has no size cap: it keeps every object it wrote."""

    def test_no_cap_keeps_everything(self, store):
        keys = [store.put({"n": n, "pad": list(range(50))})
                for n in range(5)]
        assert [store.get(key)["n"] for key in keys] == list(range(5))
        assert store.total_bytes() > 0


class TestEveryReadChecksTheHash:
    """The store caches nothing: every `get` reads the object from disk
    and checks its sha256, so damage is caught whenever it happens."""

    def test_damage_after_a_good_read_is_caught(self, store):
        key = store.put({"cycle": 40})
        assert store.get(key) == {"cycle": 40}
        path = store._object_path(key)
        with open(path, "rb") as handle:
            blob = handle.read()
        # Flip the pickled small int 40 (BININT1 opcode "K", one data
        # byte) to 41: the damaged blob still unpickles, into a
        # different state, so only the hash check can catch it.
        at = blob.index(b"K\x28") + 1
        damaged = blob[:at] + b"\x29" + blob[at + 1:]
        assert pickle.loads(damaged) == {"cycle": 41}
        with open(path, "wb") as handle:
            handle.write(damaged)
        with pytest.raises(SnapshotError, match="corrupt"):
            store.get(key)

    def test_truncated_after_put_is_caught(self, store):
        key = store.put({"cycle": 3})
        with open(store._object_path(key), "r+b") as handle:
            handle.truncate(4)
        with pytest.raises(SnapshotError, match="corrupt"):
            store.get(key)

    def test_disk_eviction_makes_a_read_object_unavailable(self, tmp_path):
        store = PayloadStore(str(tmp_path))
        first = store.put({"n": 1, "pad": list(range(100))})
        store.get(first)
        os.unlink(store._object_path(first))
        with pytest.raises(SnapshotError, match="unavailable"):
            store.get(first)


class TestIndexes:
    def test_round_trip(self, store):
        rungs = [{"cycle": 10, "rung": 0, "key": "a" * 64,
                  "fingerprint": "b" * 64}]
        store.save_index("cell1", rungs)
        assert store.load_index("cell1") == rungs
        assert store.indexes() == ["cell1"]

    def test_missing_index_raises(self, store):
        with pytest.raises(SnapshotError, match="unavailable"):
            store.load_index("nope")

    def test_wrong_schema_raises(self, store, tmp_path):
        store.save_index("cell", [])
        path = store._index_path("cell")
        with open(path, "w") as handle:
            handle.write('{"schema_version": 999, "rungs": []}')
        with pytest.raises(SnapshotError, match="schema"):
            store.load_index("cell")

    def test_garbage_index_raises(self, store):
        with open(store._index_path("bad"), "w") as handle:
            handle.write("not json {")
        with pytest.raises(SnapshotError, match="unavailable"):
            store.load_index("bad")
