"""Tests for the DemonMonitor facade (the Figure 11 problem space)."""

from collections import Counter

import pytest

from repro.core.blocks import make_block
from repro.core.bss import WindowIndependentBSS, WindowRelativeBSS
from repro.core.monitor import DemonMonitor
from repro.core.windows import MostRecentWindow, UnrestrictedWindow
from tests.core.test_maintainer import BagMaintainer


def block(i):
    return make_block(i, [(i,)])


def model_ids(model: Counter) -> set[int]:
    return {t[0] for t in model}


class TestSpanRouting:
    def test_defaults_to_unrestricted_window(self):
        monitor = DemonMonitor(BagMaintainer())
        for i in range(1, 5):
            monitor.observe(block(i))
        assert model_ids(monitor.current_model()) == {1, 2, 3, 4}

    def test_most_recent_window_uses_gemm(self):
        monitor = DemonMonitor(BagMaintainer(), span=MostRecentWindow(2))
        for i in range(1, 5):
            report = monitor.observe(block(i))
        if report.gemm is None:
            # A deferring scheduler parks the GEMM update; catch up so
            # the report carries the batched slide instead.
            monitor.maintain(report)
        assert report.gemm is not None
        assert model_ids(monitor.current_model()) == {3, 4}

    def test_uw_reports_have_no_gemm_section(self):
        monitor = DemonMonitor(BagMaintainer(), span=UnrestrictedWindow())
        report = monitor.observe(block(1))
        assert report.gemm is None


class TestBSSValidation:
    def test_window_relative_requires_mrw(self):
        with pytest.raises(ValueError, match="window-relative"):
            DemonMonitor(BagMaintainer(), bss=WindowRelativeBSS([1, 0]))

    def test_window_relative_with_mrw(self):
        monitor = DemonMonitor(
            BagMaintainer(),
            span=MostRecentWindow(3),
            bss=WindowRelativeBSS([1, 0, 1]),
        )
        for i in range(1, 6):
            monitor.observe(block(i))
        assert model_ids(monitor.current_model()) == {3, 5}

    def test_window_independent_with_uw(self):
        monitor = DemonMonitor(
            BagMaintainer(), bss=WindowIndependentBSS([1, 0, 1, 0])
        )
        for i in range(1, 5):
            monitor.observe(block(i))
        assert monitor.current_selection() == [1, 3]


class TestReports:
    def test_model_updated_flag(self):
        # Per-arrival flag semantics are the eager scheduler's: a
        # deferring scheduler reports model_updated=False until
        # catch-up (covered by tests/core/test_scheduler_session.py).
        monitor = DemonMonitor(
            BagMaintainer(),
            bss=WindowIndependentBSS([1, 0, 1]),
            scheduler="eager",
        )
        assert monitor.observe(block(1)).model_updated
        assert not monitor.observe(block(2)).model_updated
        assert monitor.observe(block(3)).model_updated

    def test_t_advances(self):
        monitor = DemonMonitor(BagMaintainer())
        assert monitor.t == 0
        monitor.observe(block(1))
        assert monitor.t == 1


class TestSnapshotRetention:
    def test_snapshot_kept_when_requested(self):
        monitor = DemonMonitor(BagMaintainer(), keep_snapshot=True)
        monitor.observe(block(1))
        monitor.observe(block(2))
        assert monitor.snapshot is not None
        assert monitor.snapshot.t == 2

    def test_no_snapshot_by_default(self):
        monitor = DemonMonitor(BagMaintainer())
        monitor.observe(block(1))
        assert monitor.snapshot is None


class TestPatternIntegration:
    def test_pattern_miner_observes_blocks(self):
        class FakeMiner:
            def __init__(self):
                self.seen = []
                self.t = 0  # the session's cursor into pending blocks

            def observe(self, blk):
                self.seen.append(blk.block_id)
                self.t = blk.block_id
                return f"report-{blk.block_id}"

            def distinct_sequences(self, min_length=2):
                return ["sequence"]

        miner = FakeMiner()
        monitor = DemonMonitor(BagMaintainer(), pattern_miner=miner)
        report = monitor.observe(block(1))
        assert miner.seen == [1]
        assert report.patterns == "report-1"
        assert monitor.discovered_patterns() == ["sequence"]

    def test_no_patterns_without_miner(self):
        monitor = DemonMonitor(BagMaintainer())
        monitor.observe(block(1))
        assert monitor.discovered_patterns() == []
