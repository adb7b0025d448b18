"""Unit tests for the Table 4 workload generators."""

import pytest

from repro.compiler import fase_profile
from repro.isa import PWrite, sequential_reference_heap
from repro.workloads import (
    BENCHMARKS,
    ArraySwaps,
    ConcurrentQueue,
    Hashmap,
    LoadMisspecProbe,
    Memcached,
    RBTree,
    StoreMisspecProbe,
    TATP,
    TPCC,
    Vacation,
    workload_by_name,
)

ALL = sorted(BENCHMARKS)


class TestFramework:
    @pytest.mark.parametrize("name", ALL)
    def test_build_produces_valid_program(self, name):
        workload = workload_by_name(name, seed=7)
        program = workload.build(n_threads=2, fases_per_thread=8)
        assert program.n_threads == 2
        assert program.total_fases == 16
        assert program.name == name

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic_given_seed(self, name):
        def fingerprint():
            workload = workload_by_name(name, seed=13)
            program = workload.build(2, 6)
            return [(type(op).__name__, getattr(op, "addr", None),
                     getattr(op, "value", None))
                    for thread in program.threads
                    for fase in thread.fases for op in fase.ops]

        assert fingerprint() == fingerprint()

    @pytest.mark.parametrize("name", ALL)
    def test_seeds_differ(self, name):
        a = workload_by_name(name, seed=1).build(2, 6)
        b = workload_by_name(name, seed=2).build(2, 6)

        def sig(program):
            return [(getattr(op, "addr", None), getattr(op, "value", None))
                    for t in program.threads for f in t.fases
                    for op in f.ops]

        assert sig(a) != sig(b)

    @pytest.mark.parametrize("name", ALL)
    def test_clean_final_image_validates(self, name):
        workload = workload_by_name(name, seed=5)
        workload.build(2, 12)
        assert workload.validate_recovered(workload.image) == []

    @pytest.mark.parametrize("name", ALL)
    def test_initial_heap_validates(self, name):
        """The init-phase state must itself be consistent."""
        workload = workload_by_name(name, seed=5)
        program = workload.build(2, 4)
        assert workload.validate_recovered(dict(program.initial_heap)) == []

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            workload_by_name("redis")

    def test_recorder_rejects_negative_values(self):
        from repro.workloads import TraceRecorder
        recorder = TraceRecorder({})
        with pytest.raises(ValueError):
            recorder.write(0x40, -1)


class TestFaseShapes:
    """§8.2: the comparison depends on FASE length per benchmark."""

    def avg_ops(self, workload_cls):
        workload = workload_cls(seed=3)
        program = workload.build(2, 10)
        total = sum(len(f) for t in program.threads for f in t.fases)
        return total / program.total_fases

    def test_queue_and_hashmap_are_short(self):
        assert self.avg_ops(ConcurrentQueue) < 12
        assert self.avg_ops(Hashmap) < 10

    def test_tpcc_and_rbtree_are_long(self):
        assert self.avg_ops(TPCC) > 20
        assert self.avg_ops(RBTree) > 20

    def test_vacation_is_read_heavy(self):
        workload = Vacation(seed=3)
        program = workload.build(2, 10)
        reads = writes = 0
        for thread in program.threads:
            for fase in thread.fases:
                profile = fase_profile(fase)
                reads += profile["preads"]
                writes += profile["pwrites"]
        assert reads > 2 * writes

    def test_memcached_set_writes_1024_bytes(self):
        workload = Memcached(seed=3, set_fraction=1.0)
        program = workload.build(1, 1)
        fase = program.threads[0].fases[0]
        data_writes = [op for op in fase.ops if isinstance(op, PWrite)]
        # 128 value words + 1 metadata word.
        assert len(data_writes) == 129

    def test_microbench_writes_stay_in_one_block(self):
        """Array swaps: the paper's 64B-per-FASE data size."""
        workload = ArraySwaps(seed=3)
        program = workload.build(2, 20)
        for thread in program.threads:
            for fase in thread.fases:
                blocks = {addr >> 6 for addr in fase.writes}
                assert len(blocks) == 1


class TestStructuralValidators:
    def test_array_swaps_detects_torn_swap(self):
        workload = ArraySwaps(seed=3)
        workload.build(2, 5)
        image = dict(workload.image)
        base = workload.partitions[0]
        image[base] = image[base + 8]  # duplicate: multiset broken
        assert workload.validate_recovered(image)

    def test_queue_detects_wrong_element(self):
        workload = ConcurrentQueue(seed=3)
        workload.build(1, 5)
        image = dict(workload.image)
        head = image[workload.head_addrs[0]]
        image[workload._slot(0, head)] = 12345
        assert workload.validate_recovered(image)

    def test_hashmap_detects_torn_pair(self):
        workload = Hashmap(seed=3)
        workload.build(1, 5)
        image = dict(workload.image)
        image[workload._gen_addr(0)] = 99999  # gen without matching value
        assert workload.validate_recovered(image)

    def test_rbtree_detects_red_red(self):
        from repro.workloads.rbtree import COLOR, RED
        workload = RBTree(seed=3, initial_keys=32)
        workload.build(1, 5)
        image = dict(workload.image)
        # Paint every node red: must break red-red or root-colour rules.
        for node in workload.live_keys[0].values():
            image[node + COLOR * 8] = RED
        assert workload.validate_recovered(image)

    def test_tpcc_detects_missing_order(self):
        workload = TPCC(seed=3)
        workload.build(1, 5)
        image = dict(workload.image)
        image[workload._order_addr(0, 0)] = 0  # stamp gone
        assert workload.validate_recovered(image)

    def test_tatp_detects_foreign_location(self):
        workload = TATP(seed=3)
        workload.build(1, 5)
        image = dict(workload.image)
        record = workload._record(0, 0)
        image[workload.word(record, 3)] = 1
        assert workload.validate_recovered(image)

    def test_vacation_detects_counted_but_torn_reservation(self):
        workload = Vacation(seed=3)
        workload.build(1, 5)
        image = dict(workload.image)
        customer = workload._customer(0, 0)
        image[workload.word(customer, 1)] = (
            image.get(workload.word(customer, 1), 0) + 50)
        assert workload.validate_recovered(image)

    def test_memcached_detects_generation_mismatch(self):
        workload = Memcached(seed=3, set_fraction=1.0)
        workload.build(1, 3)
        image = dict(workload.image)
        key = 0
        image[workload._value_addr(key, 5)] = 1  # word from wrong gen
        assert workload.validate_recovered(image)


class TestSyntheticProbes:
    def test_load_probe_needs_two_threads(self):
        with pytest.raises(ValueError):
            LoadMisspecProbe().build(1, 5)

    def test_load_probe_configs_differ_in_path(self):
        slow = LoadMisspecProbe.recommended_config(2, slow_path=True)
        fast = LoadMisspecProbe.recommended_config(2, slow_path=False)
        assert slow.persist_path_ns > 50 * fast.persist_path_ns

    def test_store_probe_shared_word_is_tagged_writable(self):
        probe = StoreMisspecProbe(seed=1)
        program = probe.build(2, 4)
        shared_writes = [
            op for t in program.threads for f in t.fases
            for op in f.ops
            if isinstance(op, PWrite) and op.addr == probe.shared]
        assert shared_writes
        assert all(op.shared for op in shared_writes)

    def test_reference_heap_matches_generator_image(self):
        workload = ArraySwaps(seed=3)
        program = workload.build(2, 10)
        assert sequential_reference_heap(program) == workload.image


class TestInspectorCLI:
    def test_list(self, capsys):
        from repro.workloads.__main__ import main
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "tpcc" in out and "memcached" in out

    def test_inspect_ir(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["hashmap", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "average ops/FASE" in out

    def test_inspect_lowered(self, capsys):
        from repro.workloads.__main__ import main
        assert main(["queue", "--flavor", "pmemspec"]) == 0
        out = capsys.readouterr().out
        assert "flavor pmemspec" in out
