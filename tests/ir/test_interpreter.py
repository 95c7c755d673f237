"""Interpreter tests: execution semantics, backends, work metering."""

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.ir import (
    ArrayStorage,
    CompiledKernel,
    DirectBackend,
    FuelExhausted,
    SpeculativeBackend,
    run_sequential,
)
from repro.ir.interpreter import Counts

from ..conftest import lowered
from ..speclog import lane_view


def _run(src, arrays, env, start, stop, params=None):
    _, fn = lowered(src)
    storage = ArrayStorage(arrays)
    counts = run_sequential(fn, storage, env, start, stop)
    return storage, counts, fn


VEC = """
class T { static void f(double[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { b[i] = a[i] * 3.0 + 1.0; }
} }
"""


class TestExecution:
    def test_vector_body(self):
        a = np.arange(8, dtype=np.float64)
        st, counts, _ = _run(VEC, {"a": a, "b": np.zeros(8)}, {"n": 8}, 0, 8)
        assert np.array_equal(st.arrays["b"], a * 3.0 + 1.0)

    def test_partial_range(self):
        a = np.ones(8)
        st, _, _ = _run(VEC, {"a": a, "b": np.zeros(8)}, {"n": 8}, 2, 5)
        b = st.arrays["b"]
        assert np.array_equal(b[2:5], np.full(3, 4.0))
        assert np.array_equal(b[:2], np.zeros(2))

    def test_control_flow(self):
        src = """
        class T { static void f(double[] a, double[] b, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            if (a[i] > 0.0) { b[i] = 1.0; } else { b[i] = -1.0; }
          }
        } }
        """
        a = np.array([1.0, -2.0, 3.0, 0.0])
        st, _, _ = _run(src, {"a": a, "b": np.zeros(4)}, {"n": 4}, 0, 4)
        assert list(st.arrays["b"]) == [1.0, -1.0, 1.0, -1.0]

    def test_inner_while(self):
        src = """
        class T { static void f(double[] a, double[] b, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            int k = i;
            double s = 0.0;
            while (k > 0) { s = s + 1.0; k = k - 1; }
            b[i] = s;
          }
        } }
        """
        st, _, _ = _run(src, {"a": np.zeros(5), "b": np.zeros(5)}, {"n": 5}, 0, 5)
        assert list(st.arrays["b"]) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_sequential_order_respected(self):
        # x[i] = x[i-1] + 1 builds a prefix chain only if run in order
        src = """
        class T { static void f(double[] x, int n) {
          /* acc parallel */
          for (int i = 1; i < n; i++) { x[i] = x[i - 1] + 1.0; }
        } }
        """
        st, _, _ = _run(src, {"x": np.zeros(6)}, {"n": 6}, 1, 6)
        assert list(st.arrays["x"]) == [0, 1, 2, 3, 4, 5]

    def test_missing_scalar_raises(self):
        src = """
        class T { static void f(double[] a, double alpha, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { a[i] = a[i] * alpha; }
        } }
        """
        _, fn = lowered(src)
        storage = ArrayStorage({"a": np.zeros(4)})
        kern = CompiledKernel(fn)
        with pytest.raises(Exception, match="missing scalar"):
            kern.run_index(0, {}, DirectBackend(storage))

    def test_out_of_bounds_faults(self):
        with pytest.raises(MemoryFault):
            _run(VEC, {"a": np.zeros(4), "b": np.zeros(4)}, {"n": 8}, 0, 8)

    def test_fuel_exhaustion(self):
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
        kern = CompiledKernel(fn, fuel=10_000)
        storage = ArrayStorage({"a": np.zeros(2)})
        with pytest.raises(FuelExhausted):
            kern.run_index(0, {"n": 2}, DirectBackend(storage))


class TestCounts:
    def test_counts_accumulate(self):
        _, counts, _ = _run(
            VEC, {"a": np.zeros(10), "b": np.zeros(10)}, {"n": 10}, 0, 10
        )
        assert counts.loads == 10
        assert counts.stores == 10
        assert counts.float_ops == 20  # mul + add per iteration
        assert counts.instructions > 0

    def test_counts_add_and_scale(self):
        c1 = Counts(int_ops=2, loads=1, instructions=5)
        c2 = Counts(int_ops=3, stores=4, instructions=7)
        s = c1 + c2
        assert s.int_ops == 5 and s.loads == 1 and s.stores == 4
        assert s.instructions == 12
        assert c1.scaled(2.0).int_ops == 4

    def test_take_counts_resets(self):
        _, fn = lowered(VEC)
        kern = CompiledKernel(fn)
        storage = ArrayStorage({"a": np.zeros(4), "b": np.zeros(4)})
        kern.run_index(0, {"n": 4}, DirectBackend(storage))
        first = kern.take_counts()
        assert first.instructions > 0
        assert kern.peek_counts().instructions == 0


class TestBackends:
    def _kernel_and_storage(self):
        src = """
        class T { static void f(double[] x, double[] y, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            y[i] = x[0] + 1.0;
            x[i] = y[i] * 2.0;
          }
        } }
        """
        _, fn = lowered(src)
        storage = ArrayStorage({"x": np.ones(4), "y": np.zeros(4)})
        return CompiledKernel(fn), storage

    def test_speculative_buffers_writes(self):
        kern, storage = self._kernel_and_storage()
        before = storage.snapshot()
        backend = SpeculativeBackend(storage)
        kern.run_index(1, {"n": 4}, backend)
        # memory untouched
        for name in before:
            assert np.array_equal(storage.arrays[name], before[name])
        state = lane_view(backend.finish([1]))[1]
        assert (("y", 1) in state.buffer) and (("x", 1) in state.buffer)

    def test_speculative_read_own_write_not_logged(self):
        kern, storage = self._kernel_and_storage()
        backend = SpeculativeBackend(storage)
        kern.run_index(1, {"n": 4}, backend)
        state = lane_view(backend.finish([1]))[1]
        # reads: x[0] (upward-exposed), y[1] is covered by own write
        assert [(r.array, r.flat) for r in state.reads] == [("x", 0)]
        # every access takes an op stamp, forwarded reads included
        assert [r.op for r in state.writes] == [1, 3]

    def test_speculative_reads_own_value(self):
        kern, storage = self._kernel_and_storage()
        backend = SpeculativeBackend(storage)
        kern.run_index(1, {"n": 4}, backend)
        # y[1] = x[0]+1 = 2 ; x[1] = 4
        assert lane_view(backend.finish([1]))[1].buffer[("x", 1)] == 4.0


class TestArrayStorage:
    def test_flat_2d(self):
        storage = ArrayStorage({"m": np.zeros((3, 4))})
        assert storage.flat("m", (2, 1)) == 9

    def test_bounds_per_axis(self):
        storage = ArrayStorage({"m": np.zeros((3, 4))})
        with pytest.raises(MemoryFault):
            storage.flat("m", (0, 4))
        with pytest.raises(MemoryFault):
            storage.flat("m", (3, 0))
        with pytest.raises(MemoryFault):
            storage.flat("m", (-1, 0))

    def test_dim_mismatch(self):
        storage = ArrayStorage({"v": np.zeros(3)})
        with pytest.raises(MemoryFault):
            storage.flat("v", (0, 0))

    def test_unbound_array(self):
        storage = ArrayStorage({})
        with pytest.raises(MemoryFault):
            storage.flat("q", (0,))

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(MemoryFault):
            ArrayStorage({"c": np.zeros(3, dtype=np.complex128)})

    def test_3d_rejected(self):
        with pytest.raises(MemoryFault):
            ArrayStorage({"t": np.zeros((2, 2, 2))})
