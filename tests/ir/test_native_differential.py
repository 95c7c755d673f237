"""Property-based differential suite: every kernel tier vs the interpreter.

Hypothesis generates random small IR kernels straight through
:class:`IRBuilder` — mixed int/long/double arithmetic, guarded division,
float32 round-trips, intrinsics, data-dependent branches, and bounded
loops — and runs each through the interpreter, the generated-source tier,
and the numba emitter (executed un-jitted, since this container has no
numba); straight-line draws also run through the NumPy vector tier in
both flavors.  Arrays must be bitwise identical, per-lane instruction
counts and :class:`Counts` equal, buffered logs equal column by column,
and fuel exhaustion must surface the same exception with the same message
at the same point.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import ArrayStorage, IRBuilder, JType, VectorizedKernel
from repro.ir.columnar import log_differences
from repro.ir.interpreter import Counts, N_COUNTERS
from repro.ir.native._numba_codegen import generate_numba
from repro.ir.native.numba_backend import NumbaFallback

from .test_native_codegen import _interp, _native

N = 8

INT_OPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", ">>>"]
LONG_OPS = ["+", "-", "*", "^", ">>>"]
DBL_OPS = ["+", "-", "*", "/", "%"]
CMP_OPS = ["<", "<=", ">", ">=", "==", "!="]
INTR1 = ["Math.abs", "Math.floor", "Math.ceil", "Math.sin", "Math.cos"]
INTR2 = ["Math.min", "Math.max", "Math.pow"]

_idx = st.integers(0, 15)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ibin"), st.sampled_from(INT_OPS), _idx, _idx),
        st.tuples(st.just("idiv"), st.sampled_from(["/", "%"]), _idx, _idx),
        st.tuples(st.just("lbin"), st.sampled_from(LONG_OPS), _idx, _idx),
        st.tuples(st.just("dbin"), st.sampled_from(DBL_OPS), _idx, _idx),
        st.tuples(st.just("iun"), st.sampled_from(["-", "~"]), _idx, _idx),
        st.tuples(st.just("dun"), st.just("-"), _idx, _idx),
        st.tuples(st.just("i2d"), st.just(""), _idx, _idx),
        st.tuples(st.just("d2i"), st.just(""), _idx, _idx),
        st.tuples(st.just("f32"), st.just(""), _idx, _idx),
        st.tuples(st.just("intr1"), st.sampled_from(INTR1), _idx, _idx),
        st.tuples(st.just("intr2"), st.sampled_from(INTR2), _idx, _idx),
    ),
    min_size=1,
    max_size=10,
)
_branch = st.none() | st.tuples(st.sampled_from(CMP_OPS), _idx, _idx, _idx, _idx)
_loop = st.none() | st.tuples(st.integers(0, 3), _idx)
_shape = {
    "int_consts": st.lists(st.integers(-(2**31), 2**31 - 1), max_size=3),
    "dbl_consts": st.lists(st.floats(width=64), max_size=3),
    "ops": _ops,
}
_programs = st.fixed_dictionaries(
    {**_shape, "branch": _branch, "loop": _loop}
)
#: single-block kernels: the ones the vector tier runs
_straight_programs = st.fixed_dictionaries(
    {**_shape, "branch": st.none(), "loop": st.none()}
)
_i32 = st.lists(
    st.integers(-(2**31), 2**31 - 1), min_size=N, max_size=N
)
_f64 = st.lists(st.floats(width=64), min_size=N, max_size=N)


def _pick(pool, k):
    return pool[k % len(pool)]


def build(prog):
    """A random but well-formed kernel: no faults except by fuel."""
    b = IRBuilder("hk")
    i = b.declare_index("i")
    sn = b.declare_scalar("n", JType.INT)
    ss = b.declare_scalar("s", JType.DOUBLE)
    b.declare_array("ai", JType.INT, 1)
    b.declare_array("ad", JType.DOUBLE, 1)
    b.declare_array("oi", JType.INT, 1)
    b.declare_array("od", JType.DOUBLE, 1)
    entry = b.new_block("entry")
    b.set_insert(entry)
    ints = [i, sn, b.load("ai", (i,), JType.INT)]
    dbls = [ss, b.load("ad", (i,), JType.DOUBLE)]
    for c in prog["int_consts"]:
        ints.append(b.const(c, JType.INT))
    for c in prog["dbl_consts"]:
        dbls.append(b.const(c, JType.DOUBLE))
    for kind, op, x, y in prog["ops"]:
        if kind == "ibin":
            ints.append(b.bin(op, _pick(ints, x), _pick(ints, y), JType.INT))
        elif kind == "idiv":
            # `| 1` keeps the divisor nonzero so only fuel can fault
            one = b.const(1, JType.INT)
            d = b.bin("|", _pick(ints, y), one, JType.INT)
            ints.append(b.bin(op, _pick(ints, x), d, JType.INT))
        elif kind == "lbin":
            la = b.cast(_pick(ints, x), JType.LONG)
            lb = b.cast(_pick(ints, y), JType.LONG)
            ints.append(b.cast(b.bin(op, la, lb, JType.LONG), JType.INT))
        elif kind == "dbin":
            dbls.append(
                b.bin(op, _pick(dbls, x), _pick(dbls, y), JType.DOUBLE)
            )
        elif kind == "iun":
            ints.append(b.un(op, _pick(ints, x), JType.INT))
        elif kind == "dun":
            dbls.append(b.un("-", _pick(dbls, x), JType.DOUBLE))
        elif kind == "i2d":
            dbls.append(b.cast(_pick(ints, x), JType.DOUBLE))
        elif kind == "d2i":
            ints.append(b.cast(_pick(dbls, x), JType.INT))
        elif kind == "f32":
            dbls.append(
                b.cast(b.cast(_pick(dbls, x), JType.FLOAT), JType.DOUBLE)
            )
        elif kind == "intr1":
            dbls.append(b.call(op, (_pick(dbls, x),), JType.DOUBLE))
        elif kind == "intr2":
            dbls.append(
                b.call(op, (_pick(dbls, x), _pick(dbls, y)), JType.DOUBLE)
            )
    if prog["branch"] is not None:
        op, x, y, ti, ei = prog["branch"]
        cond = b.bin(op, _pick(ints, x), _pick(ints, y), JType.BOOL)
        then = b.new_block("then")
        els = b.new_block("else")
        join = b.new_block("join")
        b.cbr(cond, then, els)
        b.set_insert(then)
        b.store("oi", (i,), _pick(ints, ti))
        b.br(join)
        b.set_insert(els)
        b.store("oi", (i,), _pick(ints, ei))
        b.br(join)
        b.set_insert(join)
    else:
        b.store("oi", (i,), ints[-1])
    if prog["loop"] is not None:
        mask, di = prog["loop"]
        acc = b.new_reg(JType.DOUBLE, "acc")
        b.mov(acc, b.const(0.0, JType.DOUBLE))
        k = b.new_reg(JType.INT, "k")
        b.mov(k, b.const(0, JType.INT))
        bound = b.bin("&", i, b.const(mask, JType.INT), JType.INT)
        one = b.const(1, JType.INT)
        head = b.new_block("head")
        body = b.new_block("body")
        done = b.new_block("done")
        b.br(head)
        b.set_insert(head)
        cond = b.bin("<=", k, bound, JType.BOOL)
        b.cbr(cond, body, done)
        b.set_insert(body)
        b.mov(acc, b.bin("+", acc, _pick(dbls, di), JType.DOUBLE))
        b.mov(k, b.bin("+", k, one, JType.INT))
        b.br(head)
        b.set_insert(done)
        b.store("od", (i,), acc)
    else:
        b.store("od", (i,), dbls[-1])
    b.ret()
    return b.finish()


def _storage(ai, ad):
    return ArrayStorage(
        {
            "ai": np.array(ai, dtype=np.int32),
            "ad": np.array(ad, dtype=np.float64),
            "oi": np.zeros(N, dtype=np.int32),
            "od": np.zeros(N, dtype=np.float64),
        }
    )


def _same_arrays(s1, s2):
    for name in s1.arrays:
        a, b = s1.arrays[name], s2.arrays[name]
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), name  # bitwise, NaN-safe


def _check_vector_tier(fn, env, ai, ad, want, counts):
    """Both vector flavors against the interpreter's direct result
    ``want``/``counts`` and its buffered log, bitwise."""
    for flavor in ("direct", "buffered"):
        s_v = _storage(ai, ad)
        c_v, log_v = VectorizedKernel(fn, flavor).run_range(
            s_v, env, np.arange(N)
        )
        assert c_v == counts
        if flavor == "direct":
            _same_arrays(want, s_v)
            continue
        s_i = _storage(ai, ad)
        _, _, log_i, err = _interp(fn, "buffered", range(N), env, s_i)
        assert err is None
        assert log_differences(log_i, log_v) == []
        _same_arrays(s_i, s_v)  # buffered launches never write memory


def _jdiv(a, b):
    if b == -1:
        return -a
    q = a // b
    if a % b != 0 and (a < 0) != (b < 0):
        q += 1
    return q


def _jrem(a, b):
    if b == -1:
        return a - a
    r = a % b
    if r != 0 and (a < 0) != (b < 0):
        r -= b
    return r


def _jpow(a, b):  # java_ops._safe_pow, as the njit helper emulates it
    import math

    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        return float("nan") if a < 0 else float("inf")


def _run_unjitted(fn, env, storage, fuel=None):
    """Execute the numba emitter's source as plain python."""
    import math

    source, meta = (
        generate_numba(fn) if fuel is None else generate_numba(fn, fuel)
    )
    ns = {
        "np": np,
        "math": math,
        "_NAN": float("nan"),
        "_INF": float("inf"),
        "_jdiv": _jdiv,
        "_jrem": _jrem,
        "_jpow": _jpow,
        "_dconsts": meta["dconsts"],
    }
    exec(compile(source, "<unjit>", "exec"), ns)
    sci = np.zeros(max(1, meta["n_sci"]), dtype=np.int64)
    scf = np.zeros(max(1, meta["n_scf"]), dtype=np.float64)
    for p in fn.scalars:
        arr, slot = meta["scalar_slot"][p.name]
        if arr == "_sci":
            sci[slot] = int(env[p.name])
        else:
            scf[slot] = float(env[p.name])
    raw = np.zeros(N_COUNTERS, dtype=np.int64)
    pl = np.zeros(N, dtype=np.int64)
    arrays = [storage.arrays[name] for name in meta["plan"].arrays]
    with np.errstate(all="ignore"):
        result = ns["_nkernel"](
            np.arange(N, dtype=np.int64), sci, scf, *arrays, raw, pl
        )
    return result, [int(x) for x in pl], Counts.from_raw([int(x) for x in raw])


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestDifferential:
    def test_zero_over_zero_is_positive_nan_in_every_tier(self):
        """0.0/0.0 must be +NaN bitwise in all tiers (hardware division
        yields the negative QNaN; java_ops._fdiv substitutes +NaN)."""
        prog = {
            "int_consts": [],
            "dbl_consts": [],
            "ops": [("dbin", "/", 0, 0)],
            "branch": None,
            "loop": None,
        }
        fn = build(prog)
        env = {"n": N, "s": 0.0}
        pos_nan = np.float64("nan").tobytes()
        s1, s2 = _storage([0] * N, [0.0] * N), _storage([0] * N, [0.0] * N)
        _, _, _, e1 = _interp(fn, "direct", range(N), env, s1)
        _, _, _, e2 = _native(fn, "direct", list(range(N)), env, s2)
        assert e1 is None and e2 is None
        for s_ in (s1, s2):
            assert s_.arrays["od"].tobytes() == pos_nan * N
        s3 = _storage([0] * N, [0.0] * N)
        (code, _pos, *_), _, _ = _run_unjitted(fn, env, s3)
        assert code == 0
        assert s3.arrays["od"].tobytes() == pos_nan * N

    @given(prog=_programs, ai=_i32, ad=_f64, s=st.floats(width=64))
    @settings(max_examples=60, **COMMON)
    def test_all_tiers_bitwise_identical(self, prog, ai, ad, s):
        fn = build(prog)
        env = {"n": N, "s": s}
        s1, s2 = _storage(ai, ad), _storage(ai, ad)
        pl1, c1, _, e1 = _interp(fn, "direct", range(N), env, s1)
        pl2, c2, _, e2 = _native(fn, "direct", list(range(N)), env, s2)
        assert type(e1) is type(e2)
        if e1 is not None:
            assert str(e1) == str(e2)
        assert pl1 == pl2
        assert c1 == c2
        _same_arrays(s1, s2)
        if e1 is not None:
            return
        if prog["branch"] is None and prog["loop"] is None:
            _check_vector_tier(fn, env, ai, ad, s1, c1)
        s3 = _storage(ai, ad)
        try:
            (code, pos, *_rest), pl3, c3 = _run_unjitted(fn, env, s3)
        except NumbaFallback:
            return
        assert (code, pos) == (0, N)
        assert pl3 == pl1
        assert c3 == c1
        _same_arrays(s1, s3)

    @given(prog=_straight_programs, ai=_i32, ad=_f64, s=st.floats(width=64))
    @settings(max_examples=150, **COMMON)
    def test_vector_tier_bitwise_identical(self, prog, ai, ad, s):
        fn = build(prog)
        env = {"n": N, "s": s}
        s1 = _storage(ai, ad)
        _, c1, _, e1 = _interp(fn, "direct", range(N), env, s1)
        assert e1 is None
        _check_vector_tier(fn, env, ai, ad, s1, c1)

    @given(
        prog=_programs,
        ai=_i32,
        ad=_f64,
        s=st.floats(width=64),
        fuel=st.integers(5, 120),
    )
    @settings(max_examples=40, **COMMON)
    def test_fuel_exhaustion_identical(self, prog, ai, ad, s, fuel):
        fn = build(prog)
        env = {"n": N, "s": s}
        s1, s2 = _storage(ai, ad), _storage(ai, ad)
        pl1, c1, _, e1 = _interp(fn, "direct", range(N), env, s1, fuel)
        pl2, c2, _, e2 = _native(
            fn, "direct", list(range(N)), env, s2, fuel
        )
        assert type(e1) is type(e2)
        if e1 is not None:
            assert str(e1) == str(e2)
        assert pl1 == pl2
        assert c1 == c2
        _same_arrays(s1, s2)
        s3 = _storage(ai, ad)
        try:
            (code, pos, *_rest), pl3, _ = _run_unjitted(fn, env, s3, fuel)
        except NumbaFallback:
            return
        if e1 is None:
            assert (code, pos) == (0, N)
            assert pl3 == pl1
        else:
            # host-side reconstruction must reproduce the message exactly
            assert code == 1
            msg = (
                f"kernel {fn.name!r} exceeded {fuel} instructions "
                f"at index {pos}"
            )
            assert msg == str(e1)
            assert pl3[:pos] == pl1[:pos]
