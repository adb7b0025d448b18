"""Persistent-memory device model.

The device holds the *persisted image*: the byte values that would
survive a power failure right now.  The architectural (volatile) image
lives in :class:`repro.mem.hierarchy.MemoryImage`; crash-consistency
tests diff the two.

Following the paper's ADR assumption (§8.1), data is durable as soon as
it is *accepted at the PM controller*, so the controller calls
:meth:`persist_store` / :meth:`persist_block` at message-arrival time
and the device merely records content plus a persist history for
offline inspection.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..isa import CACHE_BLOCK_BYTES, block_base, index_by_block


class PMDevice:
    """Byte-addressable persistent memory with a persisted-value image."""

    __slots__ = ("_image", "_blocks", "_initial_blocks", "record_history",
                 "history", "stores_persisted", "blocks_persisted",
                 "on_persist")

    def __init__(self, initial_image: Optional[Dict[int, int]] = None,
                 record_history: bool = False,
                 initial_blocks: Optional[Dict[int, Dict[int, int]]] = None):
        self._image: Dict[int, int] = dict(initial_image or {})
        # Per-block view of the same image, so block_content is O(words
        # in block) instead of an O(image) scan per PM read.  Both maps
        # receive every write in the same order, so a block's insertion
        # order here matches a block-filtered scan of ``_image`` exactly
        # (the image only ever grows) -- keeping replay and snapshot
        # encodings byte-identical with the single-map implementation.
        #
        # The view is two-level.  ``_initial_blocks`` indexes the initial
        # image and is never written: a system passes its program's
        # memoised index (``Program.heap_blocks``), which every device
        # built for that program shares.  ``_blocks`` holds the blocks
        # this device has written, each copied from its initial block on
        # its first write.
        self._initial_blocks = (index_by_block(self._image)
                                if initial_blocks is None
                                else initial_blocks)
        self._blocks: Dict[int, Dict[int, int]] = {}
        self.record_history = record_history
        # (time, addr, value, origin) tuples, origin in
        # {"persist-path", "writeback", "recovery"}.
        self.history: List[Tuple[int, int, int, str]] = []
        self.stores_persisted = 0
        self.blocks_persisted = 0
        # Snapshot-ladder hook: fired once per persist_store/persist_block
        # call.  The device is the one durability point every design
        # funnels through (ADR acceptance for the x86 paths, buffer drain
        # for DPO/HOPS), so it is where persist events are counted.
        self.on_persist = None

    def read(self, addr: int) -> int:
        """Persisted value at ``addr`` (0 if never written)."""
        return self._image.get(addr, 0)

    def block_content(self, block: int) -> Dict[int, int]:
        """All persisted values inside cache block number ``block``
        (a fresh dict -- callers may mutate it)."""
        bucket = self._blocks.get(block)
        if bucket is None:
            bucket = self._initial_blocks.get(block)
        return dict(bucket) if bucket else {}

    def _written_block(self, block: int) -> Dict[int, int]:
        """This device's own copy of ``block``, made on its first write."""
        initial = self._initial_blocks.get(block)
        bucket = self._blocks[block] = (
            {} if initial is None else dict(initial))
        return bucket

    def persist_store(self, addr: int, value: int, now: int,
                      origin: str = "persist-path") -> None:
        """Persist one store (persist-path message accepted at the PMC).
        ``origin`` is read only when ``record_history`` is on."""
        self._image[addr] = value
        bucket = self._blocks.get(addr >> 6)
        if bucket is None:
            bucket = self._written_block(addr >> 6)
        bucket[addr] = value
        self.stores_persisted += 1
        if self.record_history:
            self.history.append((now, addr, value, origin))
        if self.on_persist is not None:
            self.on_persist()

    def persist_block(self, addr: int, data: Dict[int, int], now: int,
                      origin: str = "writeback") -> None:
        """Persist a whole cache block (CLWB / LLC writeback accepted)."""
        base = block_base(addr)
        block = base // CACHE_BLOCK_BYTES
        bucket = self._blocks.get(block)
        if bucket is None:
            bucket = self._written_block(block)
        image = self._image
        for byte_addr, value in data.items():
            if not base <= byte_addr < base + CACHE_BLOCK_BYTES:
                raise ValueError(
                    f"block persist at 0x{base:x} carries out-of-block "
                    f"address 0x{byte_addr:x}")
            image[byte_addr] = value
            bucket[byte_addr] = value
            if self.record_history:
                self.history.append((now, byte_addr, value, origin))
        self.blocks_persisted += 1
        if self.on_persist is not None:
            self.on_persist()

    def snapshot(self) -> Dict[int, int]:
        """Copy of the full persisted image (crash-test capture)."""
        return dict(self._image)

    def addresses(self) -> Iterator[int]:
        return iter(self._image)

    def __len__(self) -> int:
        return len(self._image)

    def capture_state(self) -> dict:
        return {"image": list(self._image.items()),
                "history": [list(entry) for entry in self.history],
                "stores_persisted": self.stores_persisted,
                "blocks_persisted": self.blocks_persisted}

    def restore_state(self, state: dict) -> None:
        self._image = {addr: value for addr, value in state["image"]}
        # The restored image is all this device's own: index it whole.
        self._initial_blocks = {}
        self._blocks = index_by_block(self._image)
        self.history = [tuple(entry) for entry in state["history"]]
        self.stores_persisted = state["stores_persisted"]
        self.blocks_persisted = state["blocks_persisted"]
