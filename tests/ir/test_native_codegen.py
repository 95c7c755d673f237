"""Native src-tier codegen: semantics vs the interpreter, per flavor."""

import numpy as np
import pytest

from repro.errors import JaponicaError, MemoryFault
from repro.ir import (
    ArrayStorage,
    CompiledKernel,
    DirectBackend,
    FuelExhausted,
    SpeculativeBackend,
)
from repro.ir.columnar import log_differences
from repro.ir.interpreter import C_TOTAL, Counts, N_COUNTERS
from repro.ir.native.codegen import FLAVORS, NativeKernel, generate_source

from ..conftest import lowered

BRANCHY = """
class T { static void f(int[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    int v = a[i];
    double s = 0.0;
    int k = 0;
    while (k < v) {
      if (k % 2 == 1) { s = s + 1.5; } else { s = s - 0.5; }
      k = k + 1;
    }
    b[i] = s;
  }
} }
"""


def _interp(fn, flavor, indices, env, storage, fuel=None):
    kern = CompiledKernel(fn) if fuel is None else CompiledKernel(fn, fuel=fuel)
    backend = {
        "direct": DirectBackend,
        "buffered": SpeculativeBackend,
    }[flavor](storage)
    per_lane = []
    err = None
    try:
        for i in indices:
            before = kern.counters[C_TOTAL]
            kern.run_index(i, env, backend)
            per_lane.append(kern.counters[C_TOTAL] - before)
    except Exception as exc:  # noqa: BLE001 - compared structurally
        err = exc
    aux = None
    if flavor == "buffered" and err is None:
        aux = backend.finish(list(indices))
    return per_lane, kern.take_counts(), aux, err


def _native(fn, flavor, indices, env, storage, fuel=None):
    kern = (
        NativeKernel(fn, flavor)
        if fuel is None
        else NativeKernel(fn, flavor, fuel)
    )
    raw = [0] * N_COUNTERS
    per_lane = []
    err = None
    aux = None
    try:
        aux = kern.run(indices, env, storage, raw, per_lane)
    except Exception as exc:  # noqa: BLE001
        err = exc
    return per_lane, Counts.from_raw(raw), aux, err


def _storage():
    return ArrayStorage(
        {"a": np.arange(-2, 6, dtype=np.int32), "b": np.zeros(8)}
    )


class TestFlavors:
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_branchy_matches_interpreter(self, flavor):
        _, fn = lowered(BRANCHY)
        env = {"n": 8}
        s1, s2 = _storage(), _storage()
        pl1, c1, aux1, e1 = _interp(fn, flavor, range(8), env, s1)
        pl2, c2, aux2, e2 = _native(fn, flavor, list(range(8)), env, s2)
        assert e1 is None and e2 is None
        assert pl1 == pl2
        assert c1 == c2
        if flavor == "buffered":
            assert log_differences(aux1, aux2) == []
        else:
            assert aux1 is aux2 is None
        for name in s1.arrays:
            assert np.array_equal(s1.arrays[name], s2.arrays[name])
            assert s1.arrays[name].dtype == s2.arrays[name].dtype

    def test_buffered_leaves_storage_untouched(self):
        _, fn = lowered(BRANCHY)
        storage = _storage()
        before = storage.arrays["b"].copy()
        _, _, lanes, err = _native(
            fn, "buffered", list(range(8)), {"n": 8}, storage
        )
        assert err is None
        assert np.array_equal(storage.arrays["b"], before)
        assert lanes.order.tolist() == list(range(8))


class TestFaults:
    def test_memory_fault_message_identical(self):
        _, fn = lowered(BRANCHY)
        env = {"n": 12}  # past the bound arrays
        _, _, _, e1 = _interp(fn, "direct", range(12), env, _storage())
        _, _, _, e2 = _native(fn, "direct", list(range(12)), env, _storage())
        assert type(e1) is type(e2) is MemoryFault
        assert str(e1) == str(e2)

    def test_unbound_array_message_identical(self):
        _, fn = lowered(BRANCHY)
        s1 = ArrayStorage({"a": np.arange(4, dtype=np.int32)})
        s2 = ArrayStorage({"a": np.arange(4, dtype=np.int32)})
        _, _, _, e1 = _interp(fn, "direct", range(4), {"n": 4}, s1)
        _, _, _, e2 = _native(fn, "direct", list(range(4)), {"n": 4}, s2)
        assert type(e1) is type(e2) is MemoryFault
        assert str(e1) == str(e2)

    def test_missing_scalar_message_identical(self):
        src = """
        class T { static void f(double[] b, double alpha, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { b[i] = b[i] * alpha; }
        } }
        """
        _, fn = lowered(src)
        s1 = ArrayStorage({"b": np.zeros(4)})
        s2 = ArrayStorage({"b": np.zeros(4)})
        _, _, _, e1 = _interp(fn, "direct", range(4), {}, s1)
        _, _, _, e2 = _native(fn, "direct", [0, 1], {}, s2)
        assert isinstance(e2, JaponicaError)
        assert str(e1) == str(e2)

    def test_fuel_exhaustion_identical(self):
        src = """
        class T { static void f(double[] a, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            int k = 1;
            while (k > 0) { k = 1; }
            a[i] = 0.0;
          }
        } }
        """
        _, fn = lowered(src)
        s1 = ArrayStorage({"a": np.zeros(2)})
        s2 = ArrayStorage({"a": np.zeros(2)})
        pl1, c1, _, e1 = _interp(fn, "direct", range(2), {"n": 2}, s1, 10_000)
        pl2, c2, _, e2 = _native(
            fn, "direct", [0, 1], {"n": 2}, s2, 10_000
        )
        assert type(e1) is type(e2) is FuelExhausted
        assert str(e1) == str(e2)
        # partial counts survive the exception identically on both sides
        assert c1 == c2
        assert pl1 == pl2 == []


class TestSource:
    def test_source_is_deterministic(self):
        _, fn = lowered(BRANCHY)
        assert generate_source(fn) == generate_source(fn)

    def test_flavors_differ_only_in_memory_ops(self):
        _, fn = lowered(BRANCHY)
        direct = generate_source(fn, "direct")
        buffered = generate_source(fn, "buffered")
        assert "_buf" not in direct
        assert "_buf" in buffered

    def test_unknown_flavor_rejected(self):
        _, fn = lowered(BRANCHY)
        with pytest.raises(JaponicaError, match="flavor"):
            generate_source(fn, "warp")

    def test_counter_folds_are_static(self):
        # every block folds its work counters as literals, no per-instr
        # increments in the emitted source
        _, fn = lowered(BRANCHY)
        src = generate_source(fn)
        assert "_c7" in src
        assert "_raw[7] += _c7 + _t" in src


class TestNumbaSourceOnly:
    """The numba emitter's source is validated un-jitted (no numba here)."""

    def test_generates_compilable_source(self):
        from repro.ir.native._numba_codegen import generate_numba

        _, fn = lowered(BRANCHY)
        source, meta = generate_numba(fn)
        compile(source, "<t>", "exec")
        assert "_nkernel" in source
        assert meta["plan"] is not None

    def test_unjitted_matches_interpreter(self):
        import math

        from repro.ir.native._numba_codegen import generate_numba

        def jdiv(a, b):
            if b == -1:
                return -a
            q = a // b
            if a % b != 0 and (a < 0) != (b < 0):
                q += 1
            return q

        def jrem(a, b):
            if b == -1:
                return a - a
            r = a % b
            if r != 0 and (a < 0) != (b < 0):
                r -= b
            return r

        _, fn = lowered(BRANCHY)
        source, meta = generate_numba(fn)
        ns = {
            "np": np, "math": math, "_NAN": float("nan"),
            "_INF": float("inf"), "_jdiv": jdiv, "_jrem": jrem,
            "_dconsts": meta["dconsts"],
        }
        exec(compile(source, "<t>", "exec"), ns)
        s1, s2 = _storage(), _storage()
        pl1, c1, _, e1 = _interp(fn, "direct", range(8), {"n": 8}, s1)
        assert e1 is None
        sci = np.array([8], dtype=np.int64)
        scf = np.zeros(1, dtype=np.float64)
        raw = np.zeros(N_COUNTERS, dtype=np.int64)
        pl = np.zeros(8, dtype=np.int64)
        plan = meta["plan"]
        arrays = [s2.arrays[name] for name in plan.arrays]
        code, pos, *_ = ns["_nkernel"](
            np.arange(8, dtype=np.int64), sci, scf, *arrays, raw, pl
        )
        assert (code, pos) == (0, 8)
        assert [int(x) for x in pl] == pl1
        assert Counts.from_raw([int(x) for x in raw]) == c1
        assert np.array_equal(s1.arrays["b"], s2.arrays["b"])
