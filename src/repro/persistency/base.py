"""Design abstraction: one class per evaluated persistency-model
implementation (§8.1's four designs).

A :class:`Design` owns the persistency-specific behaviour on both sides:

* **core side** -- what each lowered machine op costs and which state it
  touches (``store``, ``clwb``, the four fences, spec-assign/revoke).
  Every method is synchronous: it mutates timing resources and returns
  the completion time; the CPU core converts that into store-queue
  occupancy and stalls.
* **PMC side** -- via :meth:`build_pmc_policy`, the policy that decides
  what happens to writebacks/reads/persists arriving at the controller.

The compiler selects the instruction *flavor* (which lowering to emit)
from :attr:`Design.flavor`; the system builder wires a design to the
machine through :meth:`bind`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List

from ..mem import PMCPolicy
from ..sim import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem import PMDevice
    from ..sim import Environment
    from ..system import System


class UnsupportedOp(RuntimeError):
    """An op foreign to this design's ISA reached the core (compiler bug)."""


class Design:
    """Base class; subclasses are IntelX86Epoch, DPO, HOPS, PMEMSpec,
    StrandWeaver.  The system that a design is bound to owns it, so the
    design holds that system weakly (see :meth:`bind`)."""

    name = "base"
    flavor = "x86"          # which compiler lowering this design executes
    drops_llc_writebacks = False
    uses_persist_path = False

    def __init__(self) -> None:
        self.system: "System" = None
        self.stats = Counter()

    # ------------------------------------------------------------- wiring

    def bind(self, system: "System") -> None:
        """Attach to a built system; called once before simulation.
        The system owns its design, so ``system`` is kept as a weak
        proxy and the two form no reference cycle."""
        self.system = weakref.proxy(system)

    def build_pmc_policy(self, index: int = 0) -> PMCPolicy:
        """The policy installed into PM controller ``index`` (multi-PMC
        systems build one per controller; baselines persist everything)."""
        return PMCPolicy()

    @property
    def bus_extra_cycles(self) -> int:
        """Extra L1<->LLC bus cycles (HOPS' sticky bit, §8.2.2)."""
        return 0

    # -------------------------------------------------------------- stores

    def store(self, core_id: int, addr: int, value: int, now: int,
              to_pm: bool = True, kind: str = "data",
              shared: bool = True) -> int:
        """Perform a committed store; returns its completion time."""
        return self.system.hierarchy.store(core_id, addr, value, now)

    # ----------------------------------------------------- flushes/fences

    def clwb(self, core_id: int, addr: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement clwb")

    def sfence(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement sfence")

    def ofence(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement ofence")

    def dfence(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement dfence")

    def spec_barrier(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement spec_barrier")

    def spec_assign(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement spec_assign")

    def spec_revoke(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement spec_revoke")

    def new_strand(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement new_strand")

    def strand_barrier(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement strand_barrier")

    def join_strand(self, core_id: int, now: int) -> int:
        raise UnsupportedOp(f"{self.name} does not implement join_strand")

    # ----------------------------------------------------- program events

    def on_lock_op(self, core_id: int, now: int) -> int:
        """Hook for volatile synchronisation ops.  DPO orders persists at
        *every* barrier inherited in the program (§8.2.2); other designs
        return ``now`` unchanged."""
        return now

    # -------------------------------------------------------- snapshotting

    def capture_state(self) -> dict:
        """Stats only in the base; stateful designs extend the dict."""
        return {"stats": self.stats.capture_state()}

    def restore_state(self, state: dict) -> None:
        self.stats.restore_state(state["stats"])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} design>"


def drain_origins(n_cores: int) -> List[str]:
    """The device-history origin of each core's buffered drains, made
    once per design rather than once per persist."""
    return [f"drain:c{core_id}" for core_id in range(n_cores)]


class PersistLog:
    """Shared helper: schedule device persists for buffered designs.

    HOPS, DPO and StrandWeaver buffer (addr, value) pairs and persist
    them when their buffers drain; this helper schedules the device
    update at the drain acceptance time so crash snapshots observe
    buffered-but-undrained data as *lost* -- the semantics persist
    buffers actually have.  It is handed the event loop and the device
    it needs, not the system that owns them.
    """

    def __init__(self, env: "Environment", device: "PMDevice"):
        self.env = env
        self.device = device

    def persist_at(self, addr: int, value: int, when: int,
                   origin: str = "drain") -> None:
        env = self.env
        device = self.device
        if when <= env.now:
            device.persist_store(addr, value, env.now, origin)
        else:
            env.schedule_at(when, _StoreLanding(device, addr, value, when,
                                                origin))

    def persist_block_at(self, block_addr: int, data: Dict[int, int],
                         when: int, origin: str = "drain") -> None:
        env = self.env
        device = self.device
        snapshot = dict(data)
        if when <= env.now:
            device.persist_block(block_addr, snapshot, env.now, origin)
        else:
            env.schedule_at(when, _BlockLanding(device, block_addr,
                                                snapshot, when, origin))


class _StoreLanding:
    """A buffered store reaching the device at its drain cycle."""

    __slots__ = ("device", "addr", "value", "when", "origin")

    def __init__(self, device: "PMDevice", addr: int, value, when: int,
                 origin: str):
        self.device = device
        self.addr = addr
        self.value = value
        self.when = when
        self.origin = origin

    def __call__(self) -> None:
        self.device.persist_store(self.addr, self.value, self.when,
                                  self.origin)


class _BlockLanding(_StoreLanding):
    """A buffered block (``value`` is its word map) reaching the device
    at its drain cycle."""

    __slots__ = ()

    def __call__(self) -> None:
        self.device.persist_block(self.addr, self.value, self.when,
                                  self.origin)
