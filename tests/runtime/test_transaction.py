"""Unit tests for the failure-atomic runtime's FASE and recovery logic."""

import pytest

from repro.core import MisspeculationEvent
from repro.runtime import EAGER, LAZY, FailureAtomicRuntime, run_recovery
from repro.runtime.heap import LOG_BASE
from repro.runtime.undo_log import UndoLogLayout, stamp_target


def event(kind="load"):
    return MisspeculationEvent(kind, block=1, core_id=0, time=100)


class TestFaseLifecycle:
    def test_commit_path(self):
        rt = FailureAtomicRuntime(2)
        rt.fase_begin(0, fase_id=7, now=0)
        rt.log_write(0, 0x100, 1)
        rt.fase_commit(0, now=50)
        assert rt.total_commits == 1
        assert rt.commit_log == [(0, 7, 50)]

    def test_nested_fase_rejected(self):
        rt = FailureAtomicRuntime(1)
        rt.fase_begin(0, 0, 0)
        with pytest.raises(RuntimeError):
            rt.fase_begin(0, 1, 10)

    def test_commit_outside_fase_rejected(self):
        with pytest.raises(RuntimeError):
            FailureAtomicRuntime(1).fase_commit(0, 0)

    def test_log_write_outside_fase_rejected(self):
        with pytest.raises(RuntimeError):
            FailureAtomicRuntime(1).log_write(0, 0x100, 1)

    def test_abort_returns_rollback_writes_newest_first(self):
        rt = FailureAtomicRuntime(1)
        rt.fase_begin(0, 0, 0)
        rt.log_write(0, 0x100, 1)
        rt.log_write(0, 0x108, 2)
        writes = rt.fase_abort(0, now=10)
        assert writes == [(0x108, 2), (0x100, 1)]
        assert rt.total_aborts == 1

    def test_abort_outside_fase_rejected(self):
        with pytest.raises(RuntimeError):
            FailureAtomicRuntime(1).fase_abort(0, 0)


class TestMisspeculationFlags:
    def test_flags_only_in_fase_threads(self):
        rt = FailureAtomicRuntime(3)
        rt.fase_begin(0, 0, 0)
        rt.fase_begin(2, 0, 0)
        flagged = rt.on_misspeculation(event(), now=10)
        assert flagged == 2
        assert rt.threads[0].misspec_flag
        assert not rt.threads[1].misspec_flag
        assert rt.threads[2].misspec_flag

    def test_new_fase_clears_flag(self):
        rt = FailureAtomicRuntime(1)
        rt.fase_begin(0, 0, 0)
        rt.on_misspeculation(event(), 10)
        rt.fase_abort(0, 20)
        rt.fase_begin(0, 0, 30)
        assert not rt.threads[0].misspec_flag

    def test_lazy_aborts_only_at_boundary(self):
        rt = FailureAtomicRuntime(1, recovery_mode=LAZY)
        rt.fase_begin(0, 0, 0)
        rt.on_misspeculation(event(), 10)
        assert not rt.must_abort(0, at_boundary=False)
        assert rt.must_abort(0, at_boundary=True)

    def test_eager_aborts_mid_fase(self):
        rt = FailureAtomicRuntime(1, recovery_mode=EAGER)
        rt.fase_begin(0, 0, 0)
        rt.on_misspeculation(event(), 10)
        assert rt.must_abort(0, at_boundary=False)

    def test_unflagged_thread_never_aborts(self):
        rt = FailureAtomicRuntime(1, recovery_mode=EAGER)
        rt.fase_begin(0, 0, 0)
        assert not rt.must_abort(0, at_boundary=True)

    def test_out_of_fase_thread_never_aborts(self):
        rt = FailureAtomicRuntime(1)
        rt.on_misspeculation(event(), 10)
        assert not rt.must_abort(0, at_boundary=True)

    def test_events_recorded(self):
        rt = FailureAtomicRuntime(1)
        rt.on_misspeculation(event("store"), 10)
        assert rt.stats["misspec_store"] == 1
        assert len(rt.misspec_events) == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            FailureAtomicRuntime(1, recovery_mode="sometimes")


class TestRecoveryReport:
    def test_report_identifies_rolled_back_threads(self):
        layout = UndoLogLayout(0)
        image = {0x100: 99,
                 layout.epoch_addr: 2,
                 layout.entry_target_addr(0): stamp_target(2, 0x100),
                 layout.entry_old_addr(0): 5}
        report = run_recovery(image, n_threads=2)
        assert report.rolled_back_threads == [0]
        assert report.total_undo_writes == 1
        assert report.image[0x100] == 5
        # Original image untouched (recovery copies).
        assert image[0x100] == 99

    def test_data_image_strips_log_region(self):
        layout = UndoLogLayout(0)
        image = {0x100: 1, layout.epoch_addr: 3, LOG_BASE - 8: 2}
        report = run_recovery(image, 1)
        assert list(report.data_image().items()) == [(0x100, 1),
                                                     (LOG_BASE - 8, 2)]
        # Log words interleaved with data words, as a device persists
        # them, and a live entry rolled back in place: data values and
        # their insertion order survive.
        image = {0x300: 4, layout.epoch_addr: 2, 0x100: 1,
                 layout.entry_target_addr(0): stamp_target(2, 0x100),
                 LOG_BASE - 8: 2, layout.entry_old_addr(0): 5,
                 LOG_BASE + (1 << 20): 6, 0x200: 0}
        report = run_recovery(image, 1)
        assert report.total_undo_writes == 1
        assert list(report.data_image().items()) == [
            (0x300, 4), (0x100, 5), (LOG_BASE - 8, 2), (0x200, 0)]
