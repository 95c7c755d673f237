"""SD3-style stride compression tests (+ intersection oracle property)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.profiler.strides import (
    StridePattern,
    any_intersection,
    compress_addresses,
    compress_lane,
    compression_ratio,
    patterns_intersect,
)

from ..speclog import build_log


class TestCompression:
    def test_unit_stride_run(self):
        out = compress_addresses(list(range(100, 200)))
        assert out == [StridePattern(100, 1, 100)]

    def test_strided_run(self):
        out = compress_addresses([0, 8, 16, 24])
        assert out == [StridePattern(0, 8, 4)]

    def test_negative_stride(self):
        out = compress_addresses([30, 20, 10])
        assert out == [StridePattern(30, -10, 3)]
        assert out[0].lo == 10 and out[0].hi == 30

    def test_irregular_falls_apart(self):
        out = compress_addresses([5, 100, 3, 77])
        assert len(out) >= 2

    def test_stride_change_splits(self):
        out = compress_addresses([0, 1, 2, 10, 20, 30])
        assert out == [StridePattern(0, 1, 3), StridePattern(10, 10, 3)]

    def test_duplicates_collapse(self):
        out = compress_addresses([7, 7, 7, 7])
        assert out == [StridePattern(7, 0, 1)]

    def test_empty(self):
        assert compress_addresses([]) == []

    def test_single(self):
        assert compress_addresses([42]) == [StridePattern(42, 0, 1)]

    @given(st.lists(st.integers(0, 10_000), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_compression_is_lossless_as_a_set(self, addrs):
        patterns = compress_addresses(addrs)
        covered = set()
        for p in patterns:
            covered.update(p.addresses())
        assert covered == set(addrs)


class TestIntersection:
    def test_disjoint_boxes(self):
        a = StridePattern(0, 1, 10)
        b = StridePattern(100, 1, 10)
        assert not patterns_intersect(a, b)

    def test_shared_address(self):
        a = StridePattern(0, 3, 10)  # 0,3,...,27
        b = StridePattern(1, 4, 10)  # 1,5,9,...,37
        # 9 and 21 are shared
        assert patterns_intersect(a, b)

    def test_gcd_filter(self):
        a = StridePattern(0, 2, 50)  # evens
        b = StridePattern(1, 2, 50)  # odds
        assert not patterns_intersect(a, b)

    def test_singleton_membership(self):
        a = StridePattern(12, 0, 1)
        b = StridePattern(0, 4, 10)
        assert patterns_intersect(a, b)
        assert not patterns_intersect(StridePattern(13, 0, 1), b)

    def test_any_intersection(self):
        writes = [StridePattern(0, 1, 10)]
        reads = [StridePattern(50, 1, 10), StridePattern(5, 0, 1)]
        assert any_intersection(writes, reads)
        assert not any_intersection(writes, [StridePattern(99, 1, 3)])

    @given(
        b1=st.integers(0, 60), s1=st.integers(-7, 7), c1=st.integers(1, 12),
        b2=st.integers(0, 60), s2=st.integers(-7, 7), c2=st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_intersection_matches_set_oracle(self, b1, s1, c1, b2, s2, c2):
        if s1 == 0:
            c1 = 1
        if s2 == 0:
            c2 = 1
        a = StridePattern(b1, s1, c1)
        b = StridePattern(b2, s2, c2)
        oracle = bool(set(a.addresses()) & set(b.addresses()))
        assert patterns_intersect(a, b) == oracle


class TestRatio:
    def test_profiled_affine_loop_compresses_well(self):
        from repro.gpusim.device import GpuDevice
        from repro.ir import ArrayStorage
        from repro.profiler.trace import profile_loop
        from repro.runtime.costmodel import CostModel
        from repro.runtime.platform import paper_platform

        from ..conftest import lowered

        # each iteration touches a strided row: compresses to 2 patterns
        src = """
        class T { static void f(double[][] M, double[] out, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            double s = 0.0;
            for (int j = 0; j < n; j++) { s += M[i][j]; }
            out[(i * 1) % 64] = s;
          }
        } }
        """
        _, fn = lowered(src)
        platform = paper_platform()
        device = GpuDevice(platform.gpu, CostModel(platform))
        n = 64
        storage = ArrayStorage(
            {"M": np.ones((n, n)), "out": np.zeros(64)}
        )
        run = profile_loop(device, fn, range(n), {"n": n}, storage)
        # 64 row reads + 1 write per iteration -> ~2 patterns
        assert run.profile.compression_ratio > 10

    def test_empty_lanes(self):
        assert compression_ratio(build_log({}, [])) == 1.0

    def test_compress_lane(self):
        trace = compress_lane([0, 1, 2, 3], [100])
        assert trace.entries == 2
