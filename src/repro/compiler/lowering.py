"""Lowering: one abstract program -> per-design machine-op streams.

This is the compiler/runtime-library half of the HW/SW codesign: the
*same* unannotated program body is combined with the undo-logging
protocol of :mod:`repro.runtime.undo_log` and the ordering primitives of
the target design (Figure 2):

========== =============================================================
flavor      per-FASE ordering ops emitted
========== =============================================================
``x86``     CLWB per dirty line + SFENCE per ordering point (one per
            undo-log group, one after the data, one after the epoch
            bump).
``hops``    ofence after the log and after the data; one dfence at the
            end of the FASE.
``pmemspec`` exactly one spec-barrier at the end; spec-assign /
            spec-revoke are compiler-inserted around critical sections.
``strand``  NewStrand + persist-barrier per log group (groups drain as
            independent strands), JoinStrand before the commit record,
            one dfence at the end (the StrandWeaver extension).
========== =============================================================

DPO executes the ``x86`` flavor unchanged (§8.1: "shares the same
benchmarks with the Intel X86 design").

Orthogonally to the flavor, ``log_mode`` selects the crash-consistency
protocol: ``"undo"`` (default, write-time logging as above) or
``"redo"`` (volatile in-place updates + commit-time replay; see
:mod:`repro.runtime.redo_log`), the latter only on writeback-dropping
flavors.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

from ..isa import (
    Clwb,
    Comp,
    Compute,
    Dfence,
    Fase,
    FaseBegin,
    FaseEnd,
    JoinStrand,
    Ld,
    Lock,
    LockAcquire,
    LockRelease,
    MachineOp,
    MirrorOld,
    NewStrand,
    Ofence,
    PRead,
    Program,
    PWrite,
    Sfence,
    SpecAssign,
    SpecBarrier,
    SpecRevoke,
    St,
    StrandBarrier,
    Unlock,
    block_base,
)
from ..runtime.redo_log import commit_word_addr
from ..runtime.undo_log import TARGET_OFFSET, UndoLogLayout, stamp_target

LOG_MODES = ("undo", "redo")

FLAVORS = ("x86", "hops", "pmemspec", "strand")


class LoweringError(ValueError):
    """Raised for programs the lowering cannot handle."""


class LoweredFase:
    """One FASE's machine ops: the unit a core executes and re-executes."""

    __slots__ = ("fase", "thread_id", "ops", "flavor", "log_mode")

    def __init__(self, fase: Fase, thread_id: int, ops: List[MachineOp],
                 flavor: str, log_mode: str = "undo"):
        self.fase = fase
        self.thread_id = thread_id
        self.ops = ops
        self.flavor = flavor
        self.log_mode = log_mode

    @property
    def fase_id(self) -> int:
        return self.fase.fase_id

    def count(self, op_type: type) -> int:
        return sum(1 for op in self.ops if isinstance(op, op_type))

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (f"LoweredFase(fase={self.fase_id}, tid={self.thread_id}, "
                f"ops={len(self.ops)}, flavor={self.flavor})")


class LoweredThread:
    __slots__ = ("thread_id", "fases", "think_cycles")

    def __init__(self, thread_id: int, fases: List[LoweredFase],
                 think_cycles: int):
        self.thread_id = thread_id
        self.fases = fases
        self.think_cycles = think_cycles


class LoweredProgram:
    """One program's machine-op streams for one flavor.

    The program keeps this in its lowering memo, so this points back at
    the program only weakly: :attr:`program` is None once the program is
    gone, and the pair never forms a reference cycle.
    """

    __slots__ = ("_program", "flavor", "threads")

    def __init__(self, program: Program, flavor: str,
                 threads: List[LoweredThread]):
        self._program = weakref.ref(program)
        self.flavor = flavor
        self.threads = threads

    @property
    def program(self) -> Optional[Program]:
        return self._program()

    @property
    def total_ops(self) -> int:
        return sum(len(f) for t in self.threads for f in t.fases)


def _split_fase(fase: Fase) -> Tuple[List[int], Sequence, List[int]]:
    """Leading lock acquires, body ops, trailing lock releases."""
    ops = fase.ops
    lead = 0
    while lead < len(ops) and isinstance(ops[lead], LockAcquire):
        lead += 1
    trail = len(ops)
    while trail > lead and isinstance(ops[trail - 1], LockRelease):
        trail -= 1
    leading = [op.lock_id for op in ops[:lead]]
    trailing = [op.lock_id for op in ops[trail:]]
    return leading, ops[lead:trail], trailing


def _clwb_blocks(addresses) -> List[int]:
    """Distinct block base addresses, in first-touch order."""
    seen = set()
    blocks = []
    for addr in addresses:
        base = block_base(addr)
        if base not in seen:
            seen.add(base)
            blocks.append(base)
    return blocks


def lower_fase(fase: Fase, thread_id: int, flavor: str,
               epoch: int = 0, log_mode: str = "undo") -> LoweredFase:
    """Lower one FASE for one design flavor.

    ``epoch`` is the FASE's position in its thread's stream: the log
    stamps entries with it and the commit bumps it (see
    :mod:`repro.runtime.undo_log` / :mod:`repro.runtime.redo_log`).

    ``log_mode="redo"`` keeps uncommitted data volatile and replays it
    at commit; it is only sound on designs that drop LLC dirty
    writebacks (uncommitted cache lines must never persist), so the
    ``x86`` flavor -- whose writebacks go to PM -- rejects it."""
    return _lower_fase(fase, fase.writes, thread_id, flavor, epoch,
                       log_mode)


def _lower_fase(fase: Fase, writes: List[int], thread_id: int, flavor: str,
                epoch: int, log_mode: str) -> LoweredFase:
    """:func:`lower_fase`, handed ``fase.writes``: :func:`lower_program`
    needs them too, to count epochs, and makes them once per FASE."""
    if flavor not in FLAVORS:
        raise LoweringError(f"unknown flavor {flavor!r}")
    if log_mode not in LOG_MODES:
        raise LoweringError(f"unknown log mode {log_mode!r}")
    if log_mode == "redo" and flavor == "x86":
        raise LoweringError(
            "redo logging needs writeback-dropping hardware; the x86 "
            "flavor persists LLC writebacks, leaking uncommitted data")
    layout = UndoLogLayout(thread_id)
    leading, body, trailing = _split_fase(fase)
    tagged = flavor == "pmemspec" and bool(leading)

    ops: List[MachineOp] = [FaseBegin(fase.fase_id)]
    for lock_id in leading:
        ops.append(Lock(lock_id))
    if tagged:
        ops.append(SpecAssign())

    # ---- body with write-time undo logging --------------------------------
    # Real undo-logging runtimes (Mnemosyne, ATLAS) do not know the write
    # set up front: each transactional write appends its undo record and
    # makes the log durable *before* the data store.  We batch maximal
    # runs of consecutive writes to one cache block into a single log
    # group (one ordering point per dirtied block), which is what gives
    # the x86 baseline its per-write SFENCE tax on long transactions
    # (§8.2.1) while PMEM-Spec needs no per-write ordering at all.
    def emit_redo_group(run: List[PWrite]) -> None:
        nonlocal log_index
        for write in run:
            old_addr = layout.entry_old_addr(log_index)
            ops.append(Ld(write.addr))
            ops.append(MirrorOld(write.addr))
            ops.append(St(old_addr, write.value, kind="log"))
            ops.append(St(old_addr + TARGET_OFFSET,
                          stamp_target(epoch, write.addr), kind="log"))
            log_index += 1
        # No ordering point at all: the FIFO persistence channel already
        # orders entries before the commit word; the in-place update
        # stays volatile until the commit replay.
        for write in run:
            ops.append(St(write.addr, write.value, to_pm=False,
                          kind="data", shared=write.shared))

    def emit_log_group(run: List[PWrite]) -> None:
        nonlocal log_index
        if log_mode == "redo":
            emit_redo_group(run)
            return
        entry_addrs = []
        if flavor == "strand":
            # Each log group is its own strand: groups drain in parallel.
            ops.append(NewStrand())
        for write in run:
            old_addr = layout.entry_old_addr(log_index)
            ops.append(Ld(write.addr))
            # Old value first, stamped target last: the stamp is the
            # entry's validity marker (self-validating entries need no
            # separate count word -- see repro.runtime.undo_log).
            ops.append(St(old_addr, kind="log", log_of=write.addr))
            ops.append(St(old_addr + TARGET_OFFSET,
                          stamp_target(epoch, write.addr), kind="log"))
            entry_addrs.append(old_addr)
            log_index += 1
        if flavor == "x86":
            for base in _clwb_blocks(entry_addrs):
                ops.append(Clwb(base))
            ops.append(Sfence())
        elif flavor == "hops":
            ops.append(Ofence())
        elif flavor == "strand":
            # Intra-strand order (log before data), no stall.
            ops.append(StrandBarrier())
        # pmemspec: the persist path already orders log before data.
        for write in run:
            ops.append(St(write.addr, write.value, kind="data",
                          shared=write.shared))

    log_index = 0
    depth = len(leading)
    run: List[PWrite] = []
    for op in body:
        if isinstance(op, PWrite):
            if run and block_base(run[-1].addr) != block_base(op.addr):
                emit_log_group(run)
                run = []
            run.append(op)
            continue
        if run:
            emit_log_group(run)
            run = []
        if isinstance(op, PRead):
            ops.append(Ld(op.addr))
        elif isinstance(op, Compute):
            ops.append(Comp(op.cycles))
        elif isinstance(op, LockAcquire):
            ops.append(Lock(op.lock_id))
            depth += 1
            if flavor == "pmemspec" and depth == 1:
                ops.append(SpecAssign())
        elif isinstance(op, LockRelease):
            if flavor == "pmemspec" and depth == 1:
                ops.append(SpecRevoke())
            depth -= 1
            ops.append(Unlock(op.lock_id))
        else:
            raise LoweringError(f"cannot lower {op!r}")
    if run:
        emit_log_group(run)

    # ---- commit: make data durable, then bump the epoch -------------------
    if writes and log_mode == "redo":
        # Commit word -> in-place replay -> epoch bump, all carried in
        # order by the FIFO channel; one durability barrier at the end.
        ops.append(St(commit_word_addr(thread_id), epoch, kind="commit"))
        final = fase.final_values()
        shared_map = {op_.addr: op_.shared for op_ in fase.ops
                      if isinstance(op_, PWrite)}
        for addr in writes:
            ops.append(St(addr, final[addr], kind="data",
                          shared=shared_map.get(addr, True)))
        ops.append(St(layout.epoch_addr, epoch + 1, kind="commit"))
        if flavor in ("hops", "strand"):
            ops.append(Dfence())
        else:
            ops.append(SpecBarrier())
    elif writes:
        if flavor == "x86":
            for base in _clwb_blocks(writes):
                ops.append(Clwb(base))
            ops.append(Sfence())
            ops.append(St(layout.epoch_addr, epoch + 1, kind="commit"))
            ops.append(Clwb(layout.epoch_addr))
            ops.append(Sfence())
        elif flavor == "hops":
            ops.append(Ofence())
            ops.append(St(layout.epoch_addr, epoch + 1, kind="commit"))
            ops.append(Dfence())
        elif flavor == "strand":
            # The epoch bump must follow every strand of this FASE.
            ops.append(JoinStrand())
            ops.append(St(layout.epoch_addr, epoch + 1, kind="commit"))
            ops.append(Dfence())
        else:
            ops.append(St(layout.epoch_addr, epoch + 1, kind="commit"))
            ops.append(SpecBarrier())

    if tagged:
        ops.append(SpecRevoke())
    for lock_id in reversed(trailing):
        ops.append(Unlock(lock_id))
    ops.append(FaseEnd(fase.fase_id))
    return LoweredFase(fase, thread_id, ops, flavor, log_mode=log_mode)


def lower_rollback(writes, thread_id: int, flavor: str,
                   log_mode: str = "undo") -> List[MachineOp]:
    """Machine ops for the abort handler: re-write the old values (newest
    first) and make the rollback durable so the FASE can restart against
    clean PM state.

    The log is deliberately *not* truncated: undo application is
    idempotent, so leaving the entries live keeps recovery correct even
    if the machine crashes anywhere around the abort/retry.

    Under redo logging nothing uncommitted ever persisted, so rollback
    only restores the *volatile* view (cache-only stores, no barrier)."""
    ops: List[MachineOp] = []
    if log_mode == "redo":
        return [St(addr, old_value, to_pm=False, kind="rollback")
                for addr, old_value in writes]
    for addr, old_value in writes:
        ops.append(St(addr, old_value, kind="rollback"))
    if not writes:
        return ops
    if flavor == "x86":
        for base in _clwb_blocks([addr for addr, _ in writes]):
            ops.append(Clwb(base))
        ops.append(Sfence())
    elif flavor in ("hops", "strand"):
        ops.append(Dfence())
    else:
        ops.append(SpecBarrier())
    return ops


# Lowering is a pure function of (program, flavor, log_mode), its
# output is never mutated at runtime (machine ops are init-only value
# objects), and campaign-style callers lower the *same* program once per
# trial -- memoise on the program instance so the memo lives exactly as
# long as its program, and is freed with it by reference counting (a
# LoweredProgram refers back to its program only weakly).
_MEMO_ATTR = "_lowered_by_flavor"


def clear_lowered_memo(program: Program) -> None:
    """Drop ``program``'s lowering memo (test hook)."""
    program.__dict__.pop(_MEMO_ATTR, None)


def lower_program(program: Program, flavor: str,
                  log_mode: str = "undo") -> LoweredProgram:
    """Lower every thread of a workload program.

    Epochs count only *writing* FASEs: read-only FASEs emit no commit
    (nothing to make durable), so they must not consume an epoch number
    -- otherwise a later FASE would stamp entries with a value the
    persisted epoch word can never reach and recovery would ignore its
    undo records.
    """
    per_program = program.__dict__.setdefault(_MEMO_ATTR, {})
    cached = per_program.get((flavor, log_mode))
    if cached is not None:
        return cached
    threads = []
    for thread in program.threads:
        fases = []
        epoch = 0
        for fase in thread.fases:
            writes = fase.writes
            fases.append(_lower_fase(fase, writes, thread.thread_id,
                                     flavor, epoch, log_mode))
            if writes:
                epoch += 1
        threads.append(LoweredThread(thread.thread_id, fases,
                                     thread.think_cycles))
    lowered = LoweredProgram(program, flavor, threads)
    per_program[(flavor, log_mode)] = lowered
    return lowered
