"""Vectorized SE kernel vs. the scalar buffered tiers: log identity.

Straight-line kernels take the buffered vector tier; every other kernel
runs through the interpreter / generated-source buffered tiers.  Both
write the same columnar access log, and the hard contract is that they
write *the same* log: for any straight-line kernel, the vector-tier log
must equal the one the scalar tiers build column by column
(buffer values bitwise, NaN-aware).  On top of that each production
analysis (density, coalescing, stride compression, dependency checking,
commit, buffer volumes) must agree with its per-record reference oracle
(:mod:`tests.oracles`) over the same columns.

The scalar tiers are forced by substituting ``can_vectorize`` in the
kernel dispatcher, the one place a launch's tier is chosen.  The suite
drives randomized parametrized kernels (hypothesis) through both paths
side by side.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ir.native.dispatch as dispatch_mod
from repro.ir import ArrayStorage
from repro.ir.columnar import log_differences
from repro.profiler.coalesce import estimate_coalescing
from repro.profiler.density import analyze_lanes
from repro.profiler.strides import compression_ratio
from repro.profiler.trace import profile_loop
from repro.scheduler.context import ExecutionContext
from repro.tls.buffers import buffered_bytes, buffered_cells, metadata_entries
from repro.tls.commit import commit_iterations
from repro.tls.depcheck import check_subloop

from ..conftest import lowered
from ..oracles import (
    analyze_lanes_scalar,
    check_subloop_scalar,
    commit_iterations_scalar,
    compression_ratio_scalar,
    estimate_coalescing_scalar,
)
from ..speclog import lane_view

# ---------------------------------------------------------------------------
# Randomized straight-line kernel templates.  Strides/offsets are drawn
# by hypothesis; modular addressing keeps every access in bounds while
# letting collisions produce RAW/WAR/WAW patterns across iterations.
# ---------------------------------------------------------------------------

RAW_CHAIN = """
class T {{ static void f(double[] a, double[] b, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    a[(i * {s} + {o}) % n] = a[(i * {t} + {p}) % n] + b[i];
  }}
}} }}
"""

SCATTER_WAW = """
class T {{ static void f(double[] c, double[] b, int n, int m) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    c[(i * {s} + {o}) % m] = b[i] * 2.0 + c[(i + {p}) % m];
  }}
}} }}
"""

GATHER = """
class T {{ static void f(double[] v, int[] idx, double[] out, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    out[(i + {o}) % n] = v[idx[i]] + v[(i + {p}) % n];
  }}
}} }}
"""

SCRATCH_REUSE = """
class T {{ static void f(double[] t, double[] b, double[] d, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    t[i % {m}] = b[i];
    t[i % {m}] = t[i % {m}] + 1.0;
    d[i] = t[i % {m}] * 0.5;
  }}
}} }}
"""

INT_MIX = """
class T {{ static void f(int[] x, int[] y, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    int w = x[(i * {s} + {o}) % n] * 1103515245 + 12345;
    y[(i * {t}) % n] = (w ^ (w >>> {k})) % 1000 + y[i % n];
  }}
}} }}
"""


def _make_case(template_id, n, s, o, t, p, k, m, seed):
    rng = np.random.default_rng(seed)
    if template_id == 0:
        src = RAW_CHAIN.format(s=s, o=o, t=t, p=p)
        arrays = {"a": rng.standard_normal(n), "b": rng.standard_normal(n)}
        env = {"n": n}
    elif template_id == 1:
        mm = max(1, min(m, n))
        src = SCATTER_WAW.format(s=s, o=o, p=p)
        arrays = {"c": rng.standard_normal(mm), "b": rng.standard_normal(n)}
        env = {"n": n, "m": mm}
    elif template_id == 2:
        src = GATHER.format(o=o, p=p)
        arrays = {
            "v": rng.standard_normal(n),
            "idx": rng.integers(0, n, n, dtype=np.int32),
            "out": np.zeros(n),
        }
        env = {"n": n}
    elif template_id == 3:
        mm = max(1, min(m, 8))
        src = SCRATCH_REUSE.format(m=mm)
        arrays = {
            "t": rng.standard_normal(mm),
            "b": rng.standard_normal(n),
            "d": np.zeros(n),
        }
        env = {"n": n}
    else:
        src = INT_MIX.format(s=s, o=o, t=t, k=1 + k % 30)
        arrays = {
            "x": rng.integers(-(2**31), 2**31, n, dtype=np.int32),
            "y": rng.integers(-1000, 1000, n, dtype=np.int32),
        }
        env = {"n": n}
    return src, arrays, env


@contextlib.contextmanager
def scalar_tiers():
    """Every launch inside takes the interp/src tiers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispatch_mod, "can_vectorize", lambda fn: False)
        yield


def _both_launches(src, arrays, env, n):
    """Launch the kernel buffered through both paths; return launches."""
    _, fn = lowered(src)
    indices = list(range(n))

    st_fast = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    st_slow = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    fast = ExecutionContext().device.launch(
        fn, indices, env, st_fast, mode="buffered", check_allocations=False
    )
    with scalar_tiers():
        slow = ExecutionContext().device.launch(
            fn, indices, env, st_slow, mode="buffered",
            check_allocations=False,
        )
    return fn, indices, fast, st_fast, slow, st_slow


def assert_profiles_equal(p_fast, p_slow):
    d_fast = dataclasses.asdict(p_fast)
    d_slow = dataclasses.asdict(p_slow)
    for field in d_slow:
        assert d_fast[field] == d_slow[field], (
            f"profile field {field!r}: {d_fast[field]!r} != {d_slow[field]!r}"
        )


def assert_matches_oracles(log, indices, arrays):
    """Every production analysis of ``log`` equals its oracle's."""
    view = lane_view(log)
    assert list(view) == indices

    p_prod = analyze_lanes(log, warp_size=32)
    p_ref = analyze_lanes_scalar(view, indices, warp_size=32)
    p_prod.coalescing = estimate_coalescing(log, 32)
    p_ref.coalescing = estimate_coalescing_scalar(view, indices, 32)
    p_prod.compression_ratio = compression_ratio(log)
    p_ref.compression_ratio = compression_ratio_scalar(view)
    assert_profiles_equal(p_prod, p_ref)

    c_prod = check_subloop(log)
    c_ref = check_subloop_scalar(view, indices)
    assert c_prod.violations == c_ref.violations
    assert c_prod.first_violation_pos == c_ref.first_violation_pos

    # committing the buffers leaves memory bit-identical
    st_prod = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    st_ref = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    assert commit_iterations(log, st_prod, indices) == (
        commit_iterations_scalar(view, st_ref, indices)
    )
    for name in arrays:
        assert np.array_equal(
            st_prod.arrays[name], st_ref.arrays[name], equal_nan=True
        ), name

    # buffer-volume metrics the TLS engine charges
    assert buffered_cells(log) == sum(len(s.buffer) for s in view.values())
    assert buffered_bytes(log, st_prod) == sum(
        st_prod.arrays[name].dtype.itemsize
        for s in view.values()
        for (name, _flat) in s.buffer
    )
    assert metadata_entries(log) == sum(
        len(s.reads) + len(s.writes) for s in view.values()
    )


def assert_equivalent(src, arrays, env, n):
    fn, indices, fast, st_fast, slow, st_slow = _both_launches(
        src, arrays, env, n
    )
    if n > 0:
        assert fast.vectorized, "vector tier not taken"
    assert not slow.vectorized
    assert fast.counts == slow.counts
    assert fast.sim_time_s == slow.sim_time_s

    # the two paths write the same log, column by column
    assert log_differences(fast.lanes, slow.lanes) == []

    for log in (fast.lanes, slow.lanes):
        assert_matches_oracles(log, indices, arrays)

    # buffered launches never touch memory
    for name in arrays:
        assert np.array_equal(st_fast.arrays[name], arrays[name]), name
        assert np.array_equal(st_slow.arrays[name], arrays[name]), name


class TestPropertyEquivalence:
    @given(
        template_id=st.integers(0, 4),
        n=st.integers(1, 96),
        s=st.integers(0, 7),
        o=st.integers(0, 5),
        t=st.integers(0, 7),
        p=st.integers(0, 5),
        k=st.integers(0, 29),
        m=st.integers(1, 9),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_kernels(self, template_id, n, s, o, t, p, k, m, seed):
        src, arrays, env = _make_case(template_id, n, s, o, t, p, k, m, seed)
        assert_equivalent(src, arrays, env, n)

    def test_dense_collisions(self):
        # every iteration hits the same two cells: maximal TD/FD density
        src, arrays, env = _make_case(1, 64, 0, 0, 0, 0, 0, 2, 11)
        assert_equivalent(src, arrays, env, 64)

    def test_single_iteration(self):
        src, arrays, env = _make_case(0, 1, 1, 0, 1, 0, 0, 1, 3)
        assert_equivalent(src, arrays, env, 1)


class TestProfileLoopEndToEnd:
    def test_profile_loop_equal_profiles(self):
        src, arrays, env = _make_case(0, 80, 2, 1, 3, 0, 0, 1, 21)
        _, fn = lowered(src)
        run_fast = profile_loop(
            ExecutionContext().device, fn, range(80), env,
            ArrayStorage({k: v.copy() for k, v in arrays.items()}),
            max_sample=64,
        )
        with scalar_tiers():
            run_slow = profile_loop(
                ExecutionContext().device, fn, range(80), env,
                ArrayStorage({k: v.copy() for k, v in arrays.items()}),
                max_sample=64,
            )
        assert run_fast.sampled_iterations == run_slow.sampled_iterations
        assert_profiles_equal(run_fast.profile, run_slow.profile)
        assert run_fast.profile.profile_time_s == run_slow.profile.profile_time_s
