"""DC-phase tests with a brute-force oracle property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tls.depcheck import check_subloop

from ..speclog import build_log, lane


def dc_check(lanes, order):
    """DC phase over per-lane fixtures launched in ``order``."""
    return check_subloop(build_log(lanes, order))


class TestCheck:
    def test_clean_subloop(self):
        lanes = {i: lane(writes=[("x", i)]) for i in range(8)}
        assert dc_check(lanes, list(range(8))).ok

    def test_raw_violation_found(self):
        lanes = {
            0: lane(writes=[("x", 3)]),
            1: lane(reads=[("x", 3)]),
        }
        dc = dc_check(lanes, [0, 1])
        assert not dc.ok
        v = dc.violations[0]
        assert (v.iteration, v.src_iteration) == (1, 0)
        assert dc.first_violation_pos == 1

    def test_war_is_not_a_violation(self):
        # read at 0, write at 1: buffered read saw the pre-state, correct
        lanes = {
            0: lane(reads=[("x", 3)]),
            1: lane(writes=[("x", 3)]),
        }
        assert dc_check(lanes, [0, 1]).ok

    def test_waw_is_not_a_violation(self):
        lanes = {i: lane(writes=[("x", 0)]) for i in range(4)}
        assert dc_check(lanes, list(range(4))).ok

    def test_earliest_violation_position(self):
        lanes = {
            0: lane(writes=[("x", 0), ("x", 5)]),
            1: lane(),
            2: lane(reads=[("x", 5)]),
            3: lane(reads=[("x", 0)]),
        }
        dc = dc_check(lanes, [0, 1, 2, 3])
        assert dc.first_violation_pos == 2
        assert dc.violating_iterations == {2, 3}

    def test_one_violation_per_iteration(self):
        lanes = {
            0: lane(writes=[("x", 0), ("x", 1)]),
            1: lane(reads=[("x", 0), ("x", 1)]),
        }
        dc = dc_check(lanes, [0, 1])
        assert len(dc.violations) == 1

    def test_position_zero_cannot_violate(self):
        # the first iteration of a sub-loop has no earlier writer
        lanes = {
            7: lane(reads=[("x", 0)]),
            8: lane(writes=[("x", 0)]),
        }
        # order is [7, 8]: 7 reads before 8 writes -> fine
        assert dc_check(lanes, [7, 8]).ok

    def test_order_is_what_matters_not_ids(self):
        lanes = {
            7: lane(reads=[("x", 0)]),
            8: lane(writes=[("x", 0)]),
        }
        dc = dc_check(lanes, [8, 7])  # 8 writes first in order
        assert not dc.ok
        assert dc.violations[0].iteration == 7


@given(n=st.integers(2, 20), seed=st.integers(0, 99_999))
@settings(max_examples=50, deadline=None)
def test_violations_match_oracle(n, seed):
    rng = np.random.default_rng(seed)
    cells = 5
    lanes = {}
    reads_of, writes_of = {}, {}
    for i in range(n):
        r = {("m", int(c)) for c in rng.integers(0, cells, rng.integers(0, 3))}
        w = {("m", int(c)) for c in rng.integers(0, cells, rng.integers(0, 3))}
        reads_of[i], writes_of[i] = r, w
        lanes[i] = lane(reads=sorted(r), writes=sorted(w))

    oracle = set()
    for j in range(n):
        for i in range(j):
            if writes_of[i] & reads_of[j]:
                oracle.add(j)
    dc = dc_check(lanes, list(range(n)))
    assert dc.violating_iterations == oracle
    if oracle:
        assert dc.first_violation_pos == min(oracle)
