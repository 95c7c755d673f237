"""Vectorized-executor tests: must match the scalar interpreter exactly."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JaponicaError, MemoryFault
from repro.ir import ArrayStorage, IRBuilder, JType, run_sequential
from repro.ir.columnar import log_differences
from repro.ir.vectorizer import FLAVORS, VectorizedKernel, can_vectorize

from ..conftest import lowered
from .test_native_codegen import _interp


def both_paths(src, arrays, env, n):
    """Run scalar and vector paths on copies; return both storages+counts."""
    _, fn = lowered(src)
    assert can_vectorize(fn), "test kernel must be straight-line"
    st1 = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    c1 = run_sequential(fn, st1, env, 0, n)
    st2 = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    c2, _ = VectorizedKernel(fn).run_range(st2, env, np.arange(n))
    return st1, c1, st2, c2


def assert_equivalent(src, arrays, env, n):
    st1, c1, st2, c2 = both_paths(src, arrays, env, n)
    for name in arrays:
        got, want = st2.arrays[name], st1.arrays[name]
        assert np.array_equal(got, want, equal_nan=True), name
    assert c1 == c2


DOUBLE_SRC = """
class T { static void f(double[] a, double[] b, double[] c, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    c[i] = a[i] * 2.5 - b[i] / (a[i] + 10.0) + Math.sqrt(Math.abs(b[i]));
  }
} }
"""

INT_SRC = """
class T { static void f(int[] x, int[] y, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    int w = x[i] * 1103515245 + 12345;
    w = (w ^ (w >>> 13)) & 0x7FFFFFFF;
    int q = w / 97;
    y[i] = w % 1000 - q % 13 + (w << 5) - (w >> 3) + ~x[i];
  }
} }
"""

LONG_SRC = """
class T { static void f(int[] x, int[] y, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    long m = (long) x[i] * 2654435761L % 65537L;
    y[i] = (int) m;
  }
} }
"""

GATHER_SRC = """
class T { static void f(double[] v, int[] idx, double[] out, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { out[i] = v[idx[i]] * 2.0; }
} }
"""

TWO_D_SRC = """
class T { static void f(double[][] M, double[] row, int j, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { row[i] = M[i][j] + M[0][i]; }
} }
"""


class TestEquivalence:
    def test_double_kernel(self):
        rng = np.random.default_rng(1)
        n = 257
        assert_equivalent(
            DOUBLE_SRC,
            {
                "a": rng.standard_normal(n),
                "b": rng.standard_normal(n),
                "c": np.zeros(n),
            },
            {"n": n},
            n,
        )

    def test_int_kernel_bitwise(self):
        rng = np.random.default_rng(2)
        n = 500
        assert_equivalent(
            INT_SRC,
            {
                "x": rng.integers(-(2**31), 2**31, n, dtype=np.int32),
                "y": np.zeros(n, dtype=np.int32),
            },
            {"n": n},
            n,
        )

    def test_long_kernel(self):
        rng = np.random.default_rng(3)
        n = 300
        assert_equivalent(
            LONG_SRC,
            {
                "x": rng.integers(0, 2**31, n, dtype=np.int32),
                "y": np.zeros(n, dtype=np.int32),
            },
            {"n": n},
            n,
        )

    def test_gather(self):
        rng = np.random.default_rng(4)
        n = 64
        assert_equivalent(
            GATHER_SRC,
            {
                "v": rng.standard_normal(n),
                "idx": rng.integers(0, n, n, dtype=np.int32),
                "out": np.zeros(n),
            },
            {"n": n},
            n,
        )

    def test_2d_access(self):
        rng = np.random.default_rng(5)
        n = 16
        assert_equivalent(
            TWO_D_SRC,
            {"M": rng.standard_normal((n, n)), "row": np.zeros(n)},
            {"j": 3, "n": n},
            n,
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_property_random_ints(self, seed, n):
        rng = np.random.default_rng(seed)
        assert_equivalent(
            INT_SRC,
            {
                "x": rng.integers(-(2**31), 2**31, n, dtype=np.int32),
                "y": np.zeros(n, dtype=np.int32),
            },
            {"n": n},
            n,
        )


class TestGuards:
    def test_control_flow_not_vectorizable(self):
        src = """
        class T { static void f(double[] a, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            if (a[i] > 0.0) { a[i] = 0.0; }
          }
        } }
        """
        _, fn = lowered(src)
        assert not can_vectorize(fn)
        with pytest.raises(JaponicaError):
            VectorizedKernel(fn)

    def test_oob_gather_faults(self):
        _, fn = lowered(GATHER_SRC)
        storage = ArrayStorage(
            {
                "v": np.zeros(4),
                "idx": np.array([0, 1, 9, 2], dtype=np.int32),
                "out": np.zeros(4),
            }
        )
        with pytest.raises(MemoryFault):
            VectorizedKernel(fn).run_range(storage, {"n": 4}, np.arange(4))

    def test_empty_range(self):
        _, fn = lowered(DOUBLE_SRC)
        storage = ArrayStorage(
            {"a": np.zeros(4), "b": np.zeros(4), "c": np.zeros(4)}
        )
        counts, _ = VectorizedKernel(fn).run_range(
            storage, {"n": 4}, np.arange(0)
        )
        assert counts.instructions == 0

    def test_int_div_by_zero_faults(self):
        src = """
        class T { static void f(int[] x, int[] y, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { y[i] = 10 / x[i]; }
        } }
        """
        _, fn = lowered(src)
        storage = ArrayStorage(
            {
                "x": np.array([1, 0, 2], dtype=np.int32),
                "y": np.zeros(3, dtype=np.int32),
            }
        )
        with pytest.raises(ZeroDivisionError):
            VectorizedKernel(fn).run_range(storage, {"n": 3}, np.arange(3))


_DTYPE = {
    JType.INT: np.int32,
    JType.LONG: np.int64,
    JType.DOUBLE: np.float64,
}


def _kernel(jt, out, emit):
    """``o[i] = emit(b, x[i], y[i])`` over arrays of element type jt."""
    b = IRBuilder("edge")
    i = b.declare_index("i")
    b.declare_array("x", jt, 1)
    b.declare_array("y", jt, 1)
    b.declare_array("o", out, 1)
    b.set_insert(b.new_block("entry"))
    x = b.load("x", (i,), jt)
    y = b.load("y", (i,), jt)
    b.store("o", (i,), emit(b, x, y))
    b.ret()
    return b.finish()


def assert_matches_interpreter(fn, xs, ys, jt, out):
    """Both vector flavors equal the interpreter bitwise, counts included."""
    n = len(xs)
    arrays = {
        "x": np.array(xs, dtype=_DTYPE[jt]),
        "y": np.array(ys, dtype=_DTYPE[jt]),
        "o": np.zeros(n, dtype=_DTYPE[out]),
    }
    for flavor in FLAVORS:
        st_i = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        st_v = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        _pl, c_i, log_i, err = _interp(fn, flavor, range(n), {}, st_i)
        assert err is None
        c_v, log_v = VectorizedKernel(fn, flavor).run_range(
            st_v, {}, np.arange(n)
        )
        assert c_v == c_i
        got, want = st_v.arrays["o"], st_i.arrays["o"]
        bad = [
            (xs[k], ys[k], want[k], got[k])
            for k in range(n)
            if got[k].tobytes() != want[k].tobytes()
        ]
        assert not bad, (flavor, bad[:4])
        if flavor == "buffered":
            assert log_differences(log_i, log_v) == []


NAN = float("nan")
INF = float("inf")
SPECIAL = [
    0.0, -0.0, NAN, -NAN, INF, -INF, 1.0, -1.0, 1.5, -1.5, -3.0, 0.5,
    2.0, 1e308, -1e308, 5e-324, 709.8, 1e19, -1e19,
]
PAIRS = list(itertools.product(SPECIAL, SPECIAL))


class TestJavaEdgeSemantics:
    """Directed edge cases where NumPy's defaults differ from java_ops."""

    @pytest.mark.parametrize("jt", [JType.INT, JType.LONG], ids=str)
    def test_min_value_division(self, jt):
        # np.abs(MIN) overflows: MIN / 3 must truncate toward zero, and
        # MIN / -1 wraps to MIN with a zero remainder
        lo = int(np.iinfo(_DTYPE[jt]).min)
        xs = [lo, lo, lo, lo, lo + 1, 7, -7, -lo - 1]
        ys = [3, -3, -1, 1, -1, -2, 2, -1]
        for op in ("/", "%"):
            fn = _kernel(jt, jt, lambda b, x, y: b.bin(op, x, y, jt))
            assert_matches_interpreter(fn, xs, ys, jt, jt)

    def test_modulo_by_zero_names_its_operator(self):
        fn = _kernel(JType.INT, JType.INT,
                     lambda b, x, y: b.bin("%", x, y, JType.INT))
        storage = ArrayStorage({
            "x": np.ones(2, dtype=np.int32),
            "y": np.zeros(2, dtype=np.int32),
            "o": np.zeros(2, dtype=np.int32),
        })
        with pytest.raises(ZeroDivisionError, match="% by zero"):
            VectorizedKernel(fn).run_range(storage, {}, np.arange(2))

    @pytest.mark.parametrize("name", [
        "Math.sqrt", "Math.exp", "Math.log", "Math.abs", "Math.floor",
        "Math.ceil", "Math.sin", "Math.cos", "Math.tan",
    ])
    def test_unary_intrinsic(self, name):
        fn = _kernel(JType.DOUBLE, JType.DOUBLE,
                     lambda b, x, y: b.call(name, (x,), JType.DOUBLE))
        xs, ys = zip(*PAIRS)
        assert_matches_interpreter(fn, xs, ys, JType.DOUBLE, JType.DOUBLE)

    @pytest.mark.parametrize("name", ["Math.min", "Math.max", "Math.pow"])
    def test_binary_intrinsic(self, name):
        # min(0.0, -0.0) and min(0.0, NaN) keep the first argument like
        # the interpreter's Python min; pow(-0.0, -3.0) is +inf and
        # pow(-1.5, 1.5) is +NaN under java_ops._safe_pow
        fn = _kernel(JType.DOUBLE, JType.DOUBLE,
                     lambda b, x, y: b.call(name, (x, y), JType.DOUBLE))
        xs, ys = zip(*PAIRS)
        assert_matches_interpreter(fn, xs, ys, JType.DOUBLE, JType.DOUBLE)

    def test_pow_is_libm_exact_on_finite_operands(self):
        # SIMD pow may differ from libm in the last bit
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 50.0, 4000).tolist()
        ys = rng.uniform(-8.0, 8.0, 4000).tolist()
        fn = _kernel(JType.DOUBLE, JType.DOUBLE,
                     lambda b, x, y: b.call("Math.pow", (x, y), JType.DOUBLE))
        assert_matches_interpreter(fn, xs, ys, JType.DOUBLE, JType.DOUBLE)

    @pytest.mark.parametrize("jt", [JType.INT, JType.LONG], ids=str)
    def test_double_to_integral_cast_saturates(self, jt):
        # float(LONG max) is 2**63, which does not fit in a long
        fn = _kernel(JType.DOUBLE, jt, lambda b, x, y: b.cast(x, jt))
        xs, ys = zip(*PAIRS)
        assert_matches_interpreter(fn, xs, ys, JType.DOUBLE, jt)
