"""Px86-style litmus programs with declared durable-state sets.

Each :class:`Program` is a tiny hand-written persist history -- records
plus the flush/fence ordering instants a real run would trace -- with
the **expected durable-state set declared per design**.  Running the
suite enumerates each (program, design) pair through the real models
(:mod:`.models`) and demands an *exact* set match: any extra state is
an unsoundness (the model admits an image the design forbids), any
missing state is incompleteness (the checker would under-test).

Two programs additionally carry a recovery check: their records target
real undo-log addresses (:mod:`repro.runtime.undo_log`), every
enumerated image is run through :func:`repro.runtime.recovery
.run_recovery`, and a tiny validator decides convergence.  The
``undo-torn-tail`` program is the suite's negative control: with the
fence between log entries and data *removed*, the epoch model
enumerates an image holding the data write but not its log entry, and
recovery cannot roll back -- the bug class trial-based campaigns can
miss when the simulator never materializes that image.

States in expectations are written as full kept-record label sets
(floor included).  See docs/VALIDATION.md part II for the authoring
guide.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..runtime.heap import log_region_base  # noqa: F401  (docs anchor)
from ..runtime.recovery import run_recovery
from ..runtime.undo_log import UndoLogLayout, stamp_target
from .models import (OrderContext, PersistRecord, enumerate_durable_states,
                     parse_origin)

LITMUS_SCHEMA_VERSION = 1

ALL_DESIGNS = ("IntelX86", "DPO", "HOPS", "StrandWeaver", "PMEM-Spec")

#: Exhaustive headroom for the suite: the largest declared set is 20
#: states (undo-torn-tail under the epoch model), so truncation at the
#: default budget would itself be a bug the runner reports.
DEFAULT_LITMUS_BUDGET = 256

StateFamily = Set[FrozenSet[str]]


# ------------------------------------------------- expectation algebra


def prefixes(*labels: str) -> StateFamily:
    """A chain's ideals: every prefix of ``labels``, empty included."""
    return {frozenset(labels[:k]) for k in range(len(labels) + 1)}


def powerset(*labels: str) -> StateFamily:
    """An antichain's ideals: every subset of ``labels``."""
    return {frozenset(combo)
            for k in range(len(labels) + 1)
            for combo in itertools.combinations(labels, k)}


def fixed(*labels: str) -> StateFamily:
    """A floor: exactly one state holding all of ``labels``."""
    return {frozenset(labels)}


def product(*families: StateFamily) -> StateFamily:
    """Ideals of a disjoint union: one pick per family, unioned."""
    return {frozenset().union(*combo)
            for combo in itertools.product(*families)}


# ------------------------------------------------------------ programs


class Program:
    """One litmus program: records, ordering instants, expectations."""

    def __init__(self, name: str, description: str,
                 crash_cycle: int = 100, window: int = 320,
                 base_image: Optional[Dict[int, int]] = None,
                 note: str = ""):
        self.name = name
        self.description = description
        self.crash_cycle = crash_cycle
        self.window = window
        self.base_image = dict(base_image or {})
        self.note = note
        self.labels: List[str] = []
        self.records: List[PersistRecord] = []
        self.flushes: List[Tuple[int, int, int]] = []
        self.fences: List[Tuple[int, int]] = []
        self.expected: Dict[str, StateFamily] = {}
        # design -> True when at least one enumerated image must fail
        # recovery (negative control), False when all must converge.
        self.recovery_expect: Dict[str, bool] = {}
        self.validator: Optional[Callable[[Dict[int, int]], List[str]]] \
            = None
        self.n_threads = 1
        self.log_mode = "undo"

    def persist(self, label: str, cycle: int, block: int,
                core: Optional[int] = None, spec: Optional[int] = None,
                addr: Optional[int] = None, value: int = 1,
                flushed_by: Optional[int] = None) -> None:
        """Add one single-write record.  ``core``/``spec`` pick the
        origin shape (drain / tagged persist / plain writeback);
        ``flushed_by`` also records the clwb instant the epoch model
        attributes with."""
        if spec is not None:
            origin = f"persist:c{core or 0}:s{spec}"
        elif core is not None:
            origin = f"drain:c{core}"
        else:
            origin = "writeback"
        parsed_core, parsed_spec = parse_origin(origin)
        if addr is None:
            addr = block * 64
        self.records.append(PersistRecord(
            len(self.records), cycle, block, ((addr, value),), origin,
            parsed_core, parsed_spec))
        self.labels.append(label)
        if flushed_by is not None:
            self.flushes.append((flushed_by, block, cycle))

    def fence(self, core: int, cycle: int) -> None:
        self.fences.append((core, cycle))

    def expect(self, design: str, family: StateFamily) -> None:
        self.expected[design] = family

    def expect_recovery(self, design: str, fails: bool) -> None:
        self.recovery_expect[design] = fails

    def context(self) -> OrderContext:
        return OrderContext(self.crash_cycle, self.window,
                            tuple(self.flushes), tuple(self.fences))

    def enumerate(self, design: str, budget: int):
        return enumerate_durable_states(
            design, self.records, self.crash_cycle,
            context=self.context(), budget=budget, seed=0)

    def label_sets(self, stateset) -> StateFamily:
        return {frozenset(self.labels[i]
                          for i in stateset.kept_indices(state))
                for state in stateset.states}


def _fmt_family(family: StateFamily) -> List[str]:
    return sorted("{" + ",".join(sorted(s)) + "}" for s in family)


# Data addresses used by the recovery programs (well below the log
# region and the stamp range).
_X = 0x1000
_Y = 0x2000


def _pair_validator(image: Dict[int, int]) -> List[str]:
    """A message unless ``(X, Y)`` holds one FASE's pair whole.  Like a
    workload's validator, it reads only its own two words of the full
    recovered image."""
    pair = (image.get(_X), image.get(_Y))
    if pair in ((5, 6), (7, 8)):
        return []
    return [f"FASE torn: (X, Y) = {pair}, "
            f"expected (5, 6) or (7, 8)"]


def _build_programs() -> List[Program]:
    programs: List[Program] = []

    # -- 1. store-store: two buffered drains, one core, no fence.
    p = Program("store-store",
                "Two same-core drains with no durability fence")
    p.persist("a", 10, block=0, core=0)
    p.persist("b", 20, block=1, core=0)
    p.expect("DPO", prefixes("a", "b"))
    p.expect("HOPS", prefixes("a", "b"))
    p.expect("StrandWeaver", prefixes("a", "b"))
    p.expect("PMEM-Spec", prefixes("a", "b"))
    p.expect("IntelX86", fixed("a", "b"))  # unattributed -> floor
    programs.append(p)

    # -- 2. flush-fence ordering: sfence closes a's epoch, b stays open.
    p = Program("flush-fence",
                "clwb a; sfence; clwb b; crash -- a pinned, b droppable")
    p.persist("a", 10, block=0, flushed_by=0)
    p.persist("b", 30, block=1, flushed_by=0)
    p.fence(0, 20)
    p.expect("IntelX86", product(fixed("a"), powerset("b")))
    p.expect("DPO", prefixes("a", "b"))
    p.expect("HOPS", fixed("a", "b"))
    p.expect("StrandWeaver", fixed("a", "b"))
    p.expect("PMEM-Spec", prefixes("a", "b"))
    programs.append(p)

    # -- 3. open epoch = powerset (Px86): three unfenced flushes.
    p = Program("open-epoch-powerset",
                "Three flushes in one open epoch drop in any order")
    p.persist("a", 10, block=0, flushed_by=0)
    p.persist("b", 20, block=1, flushed_by=0)
    p.persist("c", 30, block=2, flushed_by=0)
    p.expect("IntelX86", powerset("a", "b", "c"))
    p.expect("DPO", prefixes("a", "b", "c"))
    p.expect("HOPS", fixed("a", "b", "c"))
    p.expect("StrandWeaver", fixed("a", "b", "c"))
    p.expect("PMEM-Spec", prefixes("a", "b", "c"))
    programs.append(p)

    # -- 4. same-block chain inside an open epoch.
    p = Program("epoch-block-chain",
                "Same-line writes stay ordered even in an open epoch")
    p.persist("a", 10, block=0, flushed_by=0)
    p.persist("b", 20, block=0, flushed_by=0)
    p.persist("c", 30, block=1, flushed_by=0)
    p.expect("IntelX86", product(prefixes("a", "b"), powerset("c")))
    p.expect("DPO", prefixes("a", "b", "c"))
    p.expect("HOPS", fixed("a", "b", "c"))
    p.expect("StrandWeaver", fixed("a", "b", "c"))
    p.expect("PMEM-Spec", prefixes("a", "b", "c"))
    programs.append(p)

    # -- 5. natural eviction: unattributed writebacks are floor.
    p = Program("eviction-floor",
                "An unflushed LLC eviction is already durable (ADR)")
    p.persist("a", 10, block=0)                # no flush instant
    p.persist("b", 20, block=1, flushed_by=0)  # open-epoch flush
    p.expect("IntelX86", product(fixed("a"), powerset("b")))
    p.expect("DPO", prefixes("a", "b"))
    p.expect("HOPS", fixed("a", "b"))
    p.expect("StrandWeaver", fixed("a", "b"))
    p.expect("PMEM-Spec", prefixes("a", "b"))
    programs.append(p)

    # -- 6. epochs are per core: core 0 fenced, core 1 open.
    p = Program("epoch-cross-core",
                "One core's sfence does not close another core's epoch")
    p.persist("a", 10, block=0, flushed_by=0)
    p.persist("b", 20, block=1, flushed_by=1)
    p.fence(0, 15)
    p.expect("IntelX86", product(fixed("a"), powerset("b")))
    p.expect("DPO", prefixes("a", "b"))
    p.expect("HOPS", fixed("a", "b"))
    p.expect("StrandWeaver", fixed("a", "b"))
    p.expect("PMEM-Spec", prefixes("a", "b"))
    programs.append(p)

    # -- 7. per-core chains compose as a product.
    p = Program("percore-product",
                "Two cores' unfenced drain tails drop independently")
    p.persist("a", 10, block=0, core=0)
    p.persist("b", 14, block=1, core=1)
    p.persist("c", 20, block=2, core=0)
    p.persist("d", 24, block=3, core=1)
    p.expect("HOPS", product(prefixes("a", "c"), prefixes("b", "d")))
    p.expect("StrandWeaver",
             product(prefixes("a", "c"), prefixes("b", "d")))
    p.expect("DPO", prefixes("a", "b", "c", "d"))
    p.expect("PMEM-Spec", prefixes("a", "b", "c", "d"))
    p.expect("IntelX86", fixed("a", "b", "c", "d"))
    programs.append(p)

    # -- 8. dfence floors the core's accepted drains.
    p = Program("dfence-floor",
                "Drains accepted at or before a retired dfence are pinned")
    p.persist("a", 10, block=0, core=0)
    p.persist("b", 20, block=1, core=0)
    p.persist("c", 30, block=2, core=1)
    p.fence(0, 25)
    p.expect("HOPS", product(fixed("a", "b"), prefixes("c")))
    p.expect("StrandWeaver", product(fixed("a", "b"), prefixes("c")))
    p.expect("DPO", prefixes("a", "b", "c"))
    p.expect("PMEM-Spec", prefixes("a", "b", "c"))
    p.expect("IntelX86", fixed("a", "b", "c"))
    programs.append(p)

    # -- 9. strand conservatism, documented: true strand semantics
    # would also admit {b} alone; the per-core chain model deliberately
    # enumerates a subset (sound, never a false positive).
    p = Program("strand-conservative",
                "Independent strands modelled as one per-core chain",
                note="conservative approximation: formal StrandWeaver "
                     "would also allow {b}")
    p.persist("a", 10, block=0, core=0)
    p.persist("b", 12, block=1, core=0)
    p.expect("StrandWeaver", prefixes("a", "b"))
    p.expect("HOPS", prefixes("a", "b"))
    p.expect("DPO", prefixes("a", "b"))
    p.expect("PMEM-Spec", prefixes("a", "b"))
    p.expect("IntelX86", fixed("a", "b"))
    programs.append(p)

    # -- 10. in-flight speculative persists are holes, not prefix cuts.
    p = Program("spec-holes",
                "Unresolved tagged persists drop out of the middle")
    p.persist("L", 10, block=0, core=0, spec=0)
    p.persist("D1", 12, block=1, core=0, spec=1)
    p.persist("U", 13, block=3, core=1, spec=0)
    p.persist("D2", 14, block=2, core=0, spec=1)
    p.expect("PMEM-Spec", {
        frozenset(), frozenset({"L"}), frozenset({"L", "D1"}),
        frozenset({"L", "U"}), frozenset({"L", "D1", "U"}),
        frozenset({"L", "D1", "U", "D2"})})
    p.expect("DPO", prefixes("L", "D1", "U", "D2"))
    p.expect("HOPS",
             product(prefixes("L", "D1", "D2"), prefixes("U")))
    p.expect("StrandWeaver",
             product(prefixes("L", "D1", "D2"), prefixes("U")))
    p.expect("IntelX86", fixed("L", "D1", "U", "D2"))
    programs.append(p)

    # -- 11. a later untagged persist (the commit) resolves the holes.
    p = Program("spec-committed",
                "A committed FASE's tagged persists are pinned into "
                "the backbone")
    p.persist("L", 10, block=0, core=0, spec=0)
    p.persist("D1", 12, block=1, core=0, spec=1)
    p.persist("C", 14, block=2, core=0, spec=0)
    p.expect("PMEM-Spec", prefixes("L", "D1", "C"))
    p.expect("DPO", prefixes("L", "D1", "C"))
    p.expect("HOPS", prefixes("L", "D1", "C"))
    p.expect("StrandWeaver", prefixes("L", "D1", "C"))
    p.expect("IntelX86", fixed("L", "D1", "C"))
    programs.append(p)

    # -- 12. the speculation window bounds how long a hole stays open.
    p = Program("spec-window-expired",
                "A tagged persist older than the window is resolved",
                crash_cycle=500, window=320)
    p.persist("U", 5, block=0, core=1, spec=0)
    p.persist("D1", 10, block=1, core=0, spec=1)
    p.persist("U2", 15, block=3, core=1, spec=0)
    p.expect("PMEM-Spec", prefixes("U", "D1", "U2"))
    p.expect("DPO", prefixes("U", "D1", "U2"))
    p.expect("HOPS", product(prefixes("U", "U2"), prefixes("D1")))
    p.expect("StrandWeaver", product(prefixes("U", "U2"), prefixes("D1")))
    p.expect("IntelX86", fixed("U", "D1", "U2"))
    programs.append(p)

    # -- 13. same history, crash inside the window: D1 is a live hole.
    p = Program("spec-window-live",
                "Inside the window the tagged persist is still a hole",
                crash_cycle=300, window=320)
    p.persist("U", 5, block=0, core=1, spec=0)
    p.persist("D1", 10, block=1, core=0, spec=1)
    p.persist("U2", 15, block=3, core=1, spec=0)
    p.expect("PMEM-Spec", {
        frozenset(), frozenset({"U"}), frozenset({"U", "D1"}),
        frozenset({"U", "U2"}), frozenset({"U", "D1", "U2"})})
    p.expect("DPO", prefixes("U", "D1", "U2"))
    p.expect("HOPS", product(prefixes("U", "U2"), prefixes("D1")))
    p.expect("StrandWeaver", product(prefixes("U", "U2"), prefixes("D1")))
    p.expect("IntelX86", fixed("U", "D1", "U2"))
    programs.append(p)

    # -- 14/15. undo-log protocol against real recovery, good and torn.
    layout = UndoLogLayout(0)
    entry_block = layout.entry_old_addr(0) >> 6
    epoch_block = layout.epoch_addr >> 6
    base = {_X: 5, _Y: 6, layout.epoch_addr: 0}

    def _log_writes(p: Program) -> None:
        p.persist("e0o", 10, block=entry_block,
                  addr=layout.entry_old_addr(0), value=5, flushed_by=0)
        p.persist("e0t", 12, block=entry_block,
                  addr=layout.entry_target_addr(0),
                  value=stamp_target(0, _X), flushed_by=0)
        p.persist("e1o", 14, block=entry_block,
                  addr=layout.entry_old_addr(1), value=6, flushed_by=0)
        p.persist("e1t", 16, block=entry_block,
                  addr=layout.entry_target_addr(1),
                  value=stamp_target(0, _Y), flushed_by=0)

    p = Program("undo-protocol-good",
                "Entries fenced before data, data fenced before the "
                "epoch bump: every image recovers",
                base_image=base)
    _log_writes(p)
    p.fence(0, 20)
    p.persist("dx", 30, block=_X >> 6, addr=_X, value=7, flushed_by=0)
    p.persist("dy", 34, block=_Y >> 6, addr=_Y, value=8, flushed_by=0)
    p.fence(0, 40)
    p.persist("E", 50, block=epoch_block, addr=layout.epoch_addr,
              value=1, flushed_by=0)
    p.expect("IntelX86",
             product(fixed("e0o", "e0t", "e1o", "e1t", "dx", "dy"),
                     powerset("E")))
    p.expect("DPO",
             prefixes("e0o", "e0t", "e1o", "e1t", "dx", "dy", "E"))
    p.validator = _pair_validator
    p.expect_recovery("IntelX86", False)
    p.expect_recovery("DPO", False)
    programs.append(p)

    p = Program("undo-torn-tail",
                "No fence between entries and data: the epoch model "
                "admits data-without-log images recovery cannot undo",
                base_image=base,
                note="negative control -- strict (DPO) converges from "
                     "every prefix, epoch (IntelX86) does not")
    _log_writes(p)
    p.persist("dx", 30, block=_X >> 6, addr=_X, value=7, flushed_by=0)
    p.persist("dy", 34, block=_Y >> 6, addr=_Y, value=8, flushed_by=0)
    p.expect("IntelX86",
             product(prefixes("e0o", "e0t", "e1o", "e1t"),
                     powerset("dx"), powerset("dy")))
    p.expect("DPO", prefixes("e0o", "e0t", "e1o", "e1t", "dx", "dy"))
    p.validator = _pair_validator
    p.expect_recovery("IntelX86", True)   # e.g. {dx} alone: (7, 6)
    p.expect_recovery("DPO", False)       # strict trumps relaxed
    programs.append(p)

    return programs


LITMUS_PROGRAMS: List[Program] = _build_programs()


# -------------------------------------------------------------- runner


def _check_pair(program: Program, design: str, budget: int) -> Dict:
    stateset = program.enumerate(design, budget)
    got = program.label_sets(stateset)
    expected = program.expected[design]
    missing = _fmt_family(expected - got)
    unexpected = _fmt_family(got - expected)
    entry = {
        "program": program.name,
        "design": design,
        "model": stateset.model,
        "n_states": stateset.n_states,
        "truncated": stateset.truncated,
        "missing": missing,
        "unexpected": unexpected,
        "ok": not missing and not unexpected and not stateset.truncated,
    }
    if program.validator is not None and design in program.recovery_expect:
        failed = 0
        checked = 0
        for state, image in stateset.images(program.base_image):
            report = run_recovery(image, program.n_threads,
                                  log_mode=program.log_mode)
            problems = program.validator(report.image)
            checked += 1
            if problems:
                failed += 1
        expect_failure = program.recovery_expect[design]
        recovery_ok = (failed > 0) == expect_failure
        entry.update({
            "recovery_checked": checked,
            "recovery_failed": failed,
            "recovery_expect_failure": expect_failure,
            "recovery_ok": recovery_ok,
        })
        entry["ok"] = entry["ok"] and recovery_ok
    return entry


def run_litmus(designs=None, budget: int = DEFAULT_LITMUS_BUDGET,
               programs: Optional[List[Program]] = None) -> Dict:
    """Run the litmus tier; returns a JSON-ready report.

    ``designs`` restricts which declared expectations are checked
    (programs without a declaration for a design are skipped for it,
    never failed).
    """
    selected = tuple(designs) if designs else ALL_DESIGNS
    if programs is not None:
        by_name = {p.name: p for p in LITMUS_PROGRAMS}
        programs = [p if isinstance(p, Program) else by_name[p]
                    for p in programs]
    results: List[Dict] = []
    for program in (programs if programs is not None
                    else LITMUS_PROGRAMS):
        for design in selected:
            if design not in program.expected:
                continue
            results.append(_check_pair(program, design, budget))
    return {
        "schema_version": LITMUS_SCHEMA_VERSION,
        "budget": budget,
        "designs": list(selected),
        "programs": len(programs if programs is not None
                        else LITMUS_PROGRAMS),
        "checks": len(results),
        "failures": sum(1 for entry in results if not entry["ok"]),
        "ok": all(entry["ok"] for entry in results),
        "results": results,
    }


def format_litmus_table(report: Dict) -> str:
    """Terminal table for ``validate --litmus`` (the CLI prints it)."""
    header = (f"{'program':<24} {'design':<14} {'model':<8} "
              f"{'states':>6}  verdict")
    lines = [header, "-" * len(header)]
    for entry in report["results"]:
        verdict = "ok"
        if not entry["ok"]:
            parts = []
            if entry["missing"]:
                parts.append(f"missing {len(entry['missing'])}")
            if entry["unexpected"]:
                parts.append(f"unexpected {len(entry['unexpected'])}")
            if entry["truncated"]:
                parts.append("truncated")
            if not entry.get("recovery_ok", True):
                parts.append("recovery")
            verdict = "FAIL: " + ", ".join(parts or ["?"])
        elif "recovery_checked" in entry:
            verdict = (f"ok ({entry['recovery_failed']}/"
                       f"{entry['recovery_checked']} images fail "
                       f"recovery, expected "
                       f"{'>0' if entry['recovery_expect_failure'] else '0'})")
        lines.append(f"{entry['program']:<24} {entry['design']:<14} "
                     f"{entry['model']:<8} {entry['n_states']:>6}  "
                     f"{verdict}")
    lines.append(f"{report['checks']} checks over "
                 f"{report['programs']} programs: "
                 f"{'OK' if report['ok'] else str(report['failures']) + ' FAILURES'}")
    return "\n".join(lines)
