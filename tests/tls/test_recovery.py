"""Recovery-policy tests."""

from repro.profiler.report import DependencyProfile
from repro.tls.recovery import RecoveryAction, decide_recovery


def profile_with(warps):
    p = DependencyProfile(iterations=100)
    p.td_warps = set(warps)
    p.td_pairs = len(warps)
    return p


class TestDecision:
    def test_no_profile_relaunches(self):
        d = decide_recovery(None, violating_warp=3)
        assert d.action is RecoveryAction.RELAUNCH_GPU

    def test_clear_lookahead_relaunches(self):
        p = profile_with({20})
        d = decide_recovery(p, violating_warp=3, lookahead=2)
        assert d.action is RecoveryAction.RELAUNCH_GPU

    def test_td_ahead_goes_cpu(self):
        p = profile_with({5})
        d = decide_recovery(p, violating_warp=4, lookahead=2)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 2

    def test_lookahead_window_boundaries(self):
        p = profile_with({7})
        # window is warps [violating+1, violating+lookahead]
        assert (
            decide_recovery(p, 6, lookahead=1).action
            is RecoveryAction.CPU_SEQUENTIAL
        )
        assert (
            decide_recovery(p, 7, lookahead=1).action
            is RecoveryAction.RELAUNCH_GPU
        )

    def test_cpu_warps_at_least_one(self):
        p = profile_with({1})
        d = decide_recovery(p, 0, lookahead=0)
        if d.action is RecoveryAction.CPU_SEQUENTIAL:
            assert d.cpu_warps >= 1


class TestClamping:
    """cpu_warps never overshoots the warps actually remaining."""

    def test_clamped_to_remaining(self):
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=3)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 3

    def test_single_remaining_warp(self):
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=1)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 1

    def test_no_clamp_when_plenty_remain(self):
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=100)
        assert d.cpu_warps == 8

    def test_default_is_unclamped(self):
        p = profile_with({5})
        assert decide_recovery(p, 4, lookahead=8).cpu_warps == 8

    def test_zero_lookahead_keeps_forward_progress(self):
        # the inspection window floors at one warp, so a TD directly
        # ahead still hands exactly one warp to the CPU — never zero
        p = profile_with({1, 2, 3})
        d = decide_recovery(p, 0, lookahead=0, warps_remaining=5)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 1

    def test_clamp_floor_is_one(self):
        # even a degenerate remaining count keeps at least one warp
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=0)
        if d.action is RecoveryAction.CPU_SEQUENTIAL:
            assert d.cpu_warps == 1


class TestBuffers:
    def test_metadata_and_bytes_helpers(self):
        import numpy as np

        from repro.ir.interpreter import ArrayStorage
        from repro.tls.buffers import (
            buffered_bytes,
            buffered_cells,
            metadata_entries,
        )

        from ..speclog import build_log, lane

        storage = ArrayStorage({"x": np.zeros(8)})
        lanes = build_log(
            {0: lane(reads=[("x", 0)], writes=[("x", 1)], value=2.0)}, [0]
        )
        assert metadata_entries(lanes) == 2
        assert buffered_cells(lanes) == 1
        assert buffered_bytes(lanes, storage) == 8
        assert buffered_bytes(lanes, storage, iterations=[5]) == 0
