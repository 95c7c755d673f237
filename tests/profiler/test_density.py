"""Dependency-density analysis tests, incl. a brute-force oracle property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.profiler.density import analyze_lanes

from ..speclog import build_log, lane


def analyze(lanes, order, warp_size=32):
    """Profile per-lane fixtures launched in ``order``."""
    return analyze_lanes(build_log(lanes, order), warp_size=warp_size)


class TestTrueDeps:
    def test_no_deps(self):
        lanes = {i: lane(writes=[("x", i)]) for i in range(8)}
        p = analyze(lanes, list(range(8)))
        assert p.td_pairs == 0 and p.fd_pairs == 0
        assert p.td_density == 0.0

    def test_chain_has_full_density(self):
        # i reads x[i-1], writes x[i]
        lanes = {
            i: lane(
                reads=[("x", i - 1)] if i > 0 else [],
                writes=[("x", i)],
            )
            for i in range(10)
        }
        p = analyze(lanes, list(range(10)))
        assert p.has_true
        assert p.td_density == pytest.approx(1.0)
        assert p.td_distances == {1: 9}

    def test_sparse_density(self):
        # every 5th iteration reads cell written by iteration 0
        lanes = {}
        for i in range(100):
            reads = [("x", 0)] if (i % 5 == 0 and i > 0) else []
            lanes[i] = lane(reads=reads, writes=[("x", i + 1000), ("x", 0)] if i == 0 else [("x", i + 1000)])
        p = analyze(lanes, list(range(100)))
        assert p.has_true
        assert p.td_density == pytest.approx(19 / 99)

    def test_read_before_any_writer_is_clean(self):
        lanes = {
            0: lane(reads=[("x", 5)]),
            1: lane(writes=[("x", 5)]),
        }
        p = analyze(lanes, [0, 1])
        assert p.td_pairs == 0
        assert p.fd_pairs == 1  # WAR

    def test_warp_classification(self):
        lanes = {
            0: lane(writes=[("x", 0)]),
            1: lane(reads=[("x", 0)]),  # same warp as 0
            40: lane(reads=[("x", 0)]),  # different warp
        }
        p = analyze(lanes, [0, 1] + list(range(2, 41)), warp_size=32)
        assert p.intra_warp_td == 1
        assert p.inter_warp_td == 1
        assert 0 in p.td_warps and 1 in p.td_warps

    def test_td_arrays_tracked(self):
        lanes = {
            0: lane(writes=[("x", 0)]),
            1: lane(reads=[("x", 0)], writes=[("y", 1)]),
        }
        p = analyze(lanes, [0, 1])
        assert p.td_arrays == {"x"}


class TestFalseDeps:
    def test_waw_only(self):
        lanes = {i: lane(writes=[("t", 0)]) for i in range(6)}
        p = analyze(lanes, list(range(6)))
        assert not p.has_true
        assert p.has_false
        assert p.fd_pairs == 5
        assert p.privatizable
        assert p.privatizable_arrays == {"t"}

    def test_privatizable_excludes_td_arrays(self):
        lanes = {
            0: lane(writes=[("t", 0), ("x", 0)]),
            1: lane(reads=[("x", 0)], writes=[("t", 0), ("x", 1)]),
        }
        p = analyze(lanes, [0, 1])
        assert p.td_arrays == {"x"}
        assert "t" in p.privatizable_arrays
        assert not p.privatizable  # x carries a TD

    def test_uniform_write_sets(self):
        lanes = {i: lane(writes=[("t", 0), ("t", 1)]) for i in range(4)}
        p = analyze(lanes, list(range(4)))
        assert "t" in p.uniform_write_arrays

    def test_non_uniform_write_sets(self):
        lanes = {
            i: lane(writes=[("t", i % 2)]) for i in range(4)
        }
        p = analyze(lanes, list(range(4)))
        assert "t" not in p.uniform_write_arrays

    def test_skipping_iteration_breaks_uniformity(self):
        lanes = {
            0: lane(writes=[("t", 0)]),
            1: lane(),
            2: lane(writes=[("t", 0)]),
        }
        p = analyze(lanes, [0, 1, 2])
        assert "t" not in p.uniform_write_arrays


class TestDensityClass:
    def test_classes(self):
        lanes = {i: lane(writes=[("x", i)]) for i in range(4)}
        p = analyze(lanes, list(range(4)))
        assert p.density_class() == "zero"

        chain = {
            i: lane(reads=[("x", i - 1)] if i else [], writes=[("x", i)])
            for i in range(4)
        }
        p2 = analyze(chain, list(range(4)))
        assert p2.density_class(threshold=0.3) == "high"
        assert p2.density_class(threshold=2.0) == "low"


@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_density_matches_bruteforce_oracle(n, seed):
    """TD targets from analyze_lanes == brute-force pairwise scan."""
    rng = np.random.default_rng(seed)
    cells = 6
    lanes = {}
    reads_of = {}
    writes_of = {}
    for i in range(n):
        r = {("m", int(c)) for c in rng.integers(0, cells, rng.integers(0, 3))}
        w = {("m", int(c)) for c in rng.integers(0, cells, rng.integers(0, 3))}
        reads_of[i], writes_of[i] = r, w
        lanes[i] = lane(reads=sorted(r), writes=sorted(w))

    oracle_targets = set()
    for j in range(n):
        for i in range(j):
            if writes_of[i] & reads_of[j]:
                oracle_targets.add(j)
    p = analyze(lanes, list(range(n)))
    assert p.td_density == pytest.approx(len(oracle_targets) / (n - 1))
