"""Host-performance plane: observational identity across all workloads.

The vector tier (one NumPy kernel for buffered and direct launches)
must be invisible to everything above it: for every Table-II workload,
running the full japonica strategy normally and with every launch, GPU
and CPU executor alike, forced off the vector tier (``can_vectorize``
substituted where the kernel dispatcher looks it up) must produce
bit-identical array results, the same simulated times, and equal cached
dependency profiles.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.ir.native.dispatch as dispatch_mod
from repro.workloads import ALL_WORKLOADS


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_columnar_identity(workload, monkeypatch):
    ctx_fast = workload.make_context()
    ctx_slow = workload.make_context()

    r_fast = workload.run("japonica", context=ctx_fast)
    monkeypatch.setattr(dispatch_mod, "can_vectorize", lambda fn: False)
    r_slow = workload.run("japonica", context=ctx_slow)

    assert r_fast.sim_time_s == r_slow.sim_time_s
    assert r_fast.scalars == r_slow.scalars
    for name, arr in r_slow.arrays.items():
        assert np.array_equal(r_fast.arrays[name], arr, equal_nan=True), name

    # dependency profiles (when the run profiled at all) match field for
    # field — the scheduler must see exactly the same evidence
    assert set(ctx_fast.profiles) == set(ctx_slow.profiles)
    for loop_id, p_slow in ctx_slow.profiles.items():
        d_fast = dataclasses.asdict(ctx_fast.profiles[loop_id])
        d_slow = dataclasses.asdict(p_slow)
        assert d_fast == d_slow, loop_id

    # per-loop execution evidence: same modes, same per-loop times
    assert [
        (lid, res.mode, res.sim_time_s) for lid, res in r_fast.loop_results
    ] == [
        (lid, res.mode, res.sim_time_s) for lid, res in r_slow.loop_results
    ]
