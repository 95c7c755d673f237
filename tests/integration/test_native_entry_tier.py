"""Native kernels run on the generated-source tier from their first launch.

The loop-heavy apps below launch each kernel on fewer than 256 indices
per run (GEMM 40 over 5 launches, MVT 96 per kernel, BICG 24 per
kernel, 2MM 32 per kernel, Guass-Seidel 62 buffered plus 124 direct), so
any per-run warm-up rung before ``src`` would leave them interpreted.
"""

from __future__ import annotations

import pytest

from repro.obs import Instrumentation
from repro.workloads import BY_NAME

APPS = ("GEMM", "MVT", "Guass-Seidel", "BICG", "2MM")


def _run(name: str, native: bool):
    workload = BY_NAME[name]
    obs = Instrumentation.recording()
    context = workload.make_context(obs=obs, native=native)
    return workload.run(context=context), obs.metrics


@pytest.mark.parametrize("name", APPS)
def test_default_run_never_interprets(name):
    native, m_native = _run(name, native=True)
    interp, m_interp = _run(name, native=False)

    assert m_native.counter("kernel.tier.interp").value == 0
    assert m_native.counter("kernel.tier.src").value > 0
    assert m_interp.counter("kernel.tier.interp").value > 0
    assert m_interp.counter("kernel.tier.src").value == 0

    assert native.sim_time_ms == interp.sim_time_ms
    assert native.scalars == interp.scalars
    assert native.arrays.keys() == interp.arrays.keys()
    for key, arr in interp.arrays.items():
        assert native.arrays[key].dtype == arr.dtype, key
        assert native.arrays[key].tobytes() == arr.tobytes(), key
