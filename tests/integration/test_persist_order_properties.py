"""System-level persist-order properties, checked against the PM
device's persist history (``system.device.record_history = True``).

These are the invariants the crash-consistency protocols rest on, so
they get their own direct checks in addition to the crash sweeps:

* strict intra-thread persist order under PMEM-Spec: one core's PM
  stores reach durability in commit order;
* the undo protocol's (A): an entry is durable no later than the first
  persist of the data write it protects;
* commit ordering (B)+(C): the epoch bump persists after the FASE's
  last data persist.
"""

from repro.compiler import lower_program
from repro.config import table3_config
from repro.isa import Fase, Program, PWrite, ThreadProgram
from repro.persistency import design_by_name
from repro.runtime import DATA_BASE
from repro.runtime.undo_log import UndoLogLayout, unpack_stamp
from repro.system import System
from repro.workloads import workload_by_name


def run_with_history(design_name, program, **config_overrides):
    config = table3_config(n_cores=program.n_threads, **config_overrides)
    design = design_by_name(design_name)
    lowered = lower_program(program, design.flavor)
    system = System(config, design, lowered)
    system.device.record_history = True
    system.run()
    return system


def spread_writes_program(n_threads=2, fases=8, writes_per_fase=3):
    threads = []
    fase_id = 0
    for tid in range(n_threads):
        fase_list = []
        for index in range(fases):
            base = DATA_BASE + (tid * fases + index) * 4096
            ops = [PWrite(base + i * 64, fase_id * 100 + i + 1)
                   for i in range(writes_per_fase)]
            fase_list.append(Fase(fase_id, ops))
            fase_id += 1
        threads.append(ThreadProgram(tid, fase_list, think_cycles=30))
    return Program("order", threads)


class TestStrictIntraThreadOrder:
    def test_pmem_spec_persists_in_commit_order(self):
        """For a single-core run, the device's persist-path history must
        be monotone in program order (strict persistency, §4.2)."""
        program = spread_writes_program(n_threads=1, fases=10)
        system = run_with_history("PMEM-Spec", program)
        # Persist-path origins carry core/spec-ID attribution
        # ("persist:c<core>:s<spec>") for the durable-state models.
        history = [record for record in system.device.history
                   if record[3].startswith("persist")]
        assert history, "no persist-path history recorded"
        times = [record[0] for record in history]
        assert times == sorted(times)
        # Data writes appear in issue order per address sequence.
        data_addrs = [record[1] for record in history
                      if record[1] < UndoLogLayout(0).base]
        issue_order = []
        for thread in program.threads:
            for fase in thread.fases:
                issue_order.extend(fase.writes)
        # Every address is written once, so the persist sequence of data
        # addresses must be exactly the program-order write sequence.
        seen = set(data_addrs)
        assert data_addrs == [addr for addr in issue_order
                              if addr in seen]


class TestUndoProtocolOrdering:
    def _first_persist_times(self, system):
        first = {}
        for time, addr, _value, _origin in system.device.history:
            first.setdefault(addr, time)
        return first

    def _check_entries_before_data(self, system, thread_ids):
        first = self._first_persist_times(system)
        checked = 0
        for tid in thread_ids:
            layout = UndoLogLayout(tid)
            for index in range(layout.max_entries):
                marker_addr = layout.entry_target_addr(index)
                if marker_addr not in first:
                    break
                stamped = system.device.read(marker_addr)
                _epoch, target = unpack_stamp(stamped)
                if target in first:
                    assert first[marker_addr] <= first[target], (
                        f"entry {index} of thread {tid} persisted after "
                        f"its data write")
                    checked += 1
        assert checked > 0, "no (entry, data) pairs to check"

    def test_entries_persist_before_data_pmem_spec(self):
        program = spread_writes_program()
        system = run_with_history("PMEM-Spec", program)
        self._check_entries_before_data(system, range(2))

    def test_entries_persist_before_data_x86(self):
        program = spread_writes_program()
        system = run_with_history("IntelX86", program)
        self._check_entries_before_data(system, range(2))

    def test_entries_persist_before_data_hops(self):
        program = spread_writes_program()
        system = run_with_history("HOPS", program)
        self._check_entries_before_data(system, range(2))


class TestCommitOrdering:
    def test_epoch_bump_after_fase_data(self):
        """(B)+(C): by each epoch-bump persist, every data write of that
        FASE has already persisted at least once."""
        workload = workload_by_name("tatp", seed=5)
        program = workload.build(2, 8)
        system = run_with_history("PMEM-Spec", program)
        lowered_threads = system.lowered.threads
        history = system.device.history
        for thread in lowered_threads:
            tid = thread.thread_id
            epoch_addr = UndoLogLayout(tid).epoch_addr
            bump_times = {}
            for time, addr, value, _origin in history:
                if addr == epoch_addr and value not in bump_times:
                    bump_times[value] = time
            first = {}
            for time, addr, _value, _origin in history:
                first.setdefault(addr, time)
            epoch = 0
            for fase in thread.fases:
                writes = fase.fase.writes
                if not writes:
                    continue
                bump = bump_times.get(epoch + 1)
                assert bump is not None
                for addr in writes:
                    assert first[addr] <= bump, (
                        f"data 0x{addr:x} persisted only after the "
                        f"epoch-{epoch + 1} bump")
                epoch += 1
