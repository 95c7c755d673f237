"""Coalescing-estimation tests."""

import pytest

from repro.profiler.coalesce import estimate_coalescing

from ..speclog import Lane, Record, build_log


def lane_with(accesses):
    """accesses: list of (op, kind, array, flat)."""
    state = Lane()
    for op, kind, array, flat in accesses:
        rec = Record(op, kind, array, flat)
        (state.reads if kind == "R" else state.writes).append(rec)
    return state


def estimate(lanes, order, warp_size=32, floor=0.1):
    """Coalescing estimate of per-lane fixtures launched in ``order``."""
    return estimate_coalescing(build_log(lanes, order), warp_size, floor)


class TestEstimate:
    def test_unit_stride_is_perfect(self):
        lanes = {i: lane_with([(0, "R", "a", i)]) for i in range(64)}
        assert estimate(lanes, list(range(64))) == 1.0

    def test_broadcast_is_perfect(self):
        lanes = {i: lane_with([(0, "R", "k", 0)]) for i in range(64)}
        assert estimate(lanes, list(range(64))) == 1.0

    def test_large_stride_poor(self):
        lanes = {i: lane_with([(0, "R", "a", i * 128)]) for i in range(64)}
        est = estimate(lanes, list(range(64)))
        assert est == pytest.approx(0.1)  # floor

    def test_mixed_accesses(self):
        lanes = {
            i: lane_with([(0, "R", "a", i), (1, "R", "b", i * 100)])
            for i in range(32)
        }
        est = estimate(lanes, list(range(32)))
        assert est == pytest.approx(0.5)

    def test_no_comparable_pairs_defaults_to_one(self):
        lanes = {0: lane_with([(0, "R", "a", 0)])}
        assert estimate(lanes, [0]) == 1.0

    def test_cross_warp_pairs_ignored(self):
        # lanes 31 and 32 are adjacent positions but different warps:
        # their huge address delta must not count against coalescing
        lanes = {i: lane_with([(0, "R", "a", i)]) for i in range(32)}
        lanes[32] = lane_with([(0, "R", "a", 1_000_000)])
        est = estimate(lanes, list(range(33)), warp_size=32)
        assert est == 1.0  # the bad pair spans a warp boundary

    def test_floor_respected(self):
        lanes = {i: lane_with([(0, "W", "a", (i * 7919) % 65536)]) for i in range(32)}
        assert estimate(lanes, list(range(32)), floor=0.25) >= 0.25
