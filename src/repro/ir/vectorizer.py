"""Vectorized executor for straight-line kernels: the ``vector`` tier.

Kernels whose body is a single basic block (no data-dependent control
flow) run for a whole iteration range at once with NumPy instead of one
index at a time.  This is the reproduction's stand-in for the SIMD
throughput of real hardware: it keeps big DOALL loops (VectorAdd, Sepia,
the straight-line SE/profiling launches) tractable at realistic sizes.

One :class:`VectorizedKernel` serves both launch flavors.  The register
walk is shared; only memory differs:

``direct``
    loads read storage and stores write it, in instruction order (for
    overlapping stores the highest lane wins, as in ascending order).
``buffered``
    the SE-phase twin of the interpreter's ``SpeculativeBackend``: a
    store lands in the lane's write buffer, a load is forwarded from the
    lane's own buffer when it holds the cell, and the result is a
    :class:`ColumnarLanes` log.  A read is logged only for lanes whose
    cell is not buffered, a write always, and the per-lane ``op`` ordinal
    is the static memory-op index (uniform across lanes in straight-line
    code).  Storage is never written.

The tier must be observationally identical to the scalar interpreter:
bit-identical values (Java wrap/truncation semantics, and the
:mod:`repro.ir.java_ops` edge cases down to the sign of NaN) and the same
dynamic work counts.  Faults are raised before the faulting instruction
has any effect, but their identity may differ from the scalar tiers: the
vector walk reports the first faulting *instruction* across all lanes,
the scalar tiers the first faulting *lane*.
"""

from __future__ import annotations

import numpy as np

from ..errors import JaponicaError, MemoryFault
from .columnar import ColumnarLanes
from .instructions import IRFunction, JType, Opcode
from .interpreter import ArrayStorage, Counts, block_counts
from .java_ops import INTRINSIC_FNS

_NP_TYPE = {
    JType.INT: np.int32,
    JType.LONG: np.int64,
    JType.FLOAT: np.float32,
    JType.DOUBLE: np.float64,
    JType.BOOL: np.bool_,
}

_INT_INFO = {JType.INT: np.iinfo(np.int32), JType.LONG: np.iinfo(np.int64)}

_CMP = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}
_BOOL_OPS = {"&": np.logical_and, "|": np.logical_or, "^": np.logical_xor}

FLAVORS = ("direct", "buffered")


def can_vectorize(fn: IRFunction) -> bool:
    """True when the kernel body is a single straight-line block."""
    return fn.is_straightline


class VectorizedKernel:
    """Executes a straight-line kernel over a full index range at once."""

    def __init__(self, fn: IRFunction, flavor: str = "direct"):
        if not can_vectorize(fn):
            raise JaponicaError(
                f"kernel {fn.name!r} has control flow and cannot be vectorized"
            )
        if flavor not in FLAVORS:
            raise JaponicaError(f"unknown vector kernel flavor {flavor!r}")
        self.fn = fn
        self.flavor = flavor
        self._instrs = fn.entry.instrs
        #: per-lane raw counters: every lane runs the same block once
        self._per_lane = block_counts(self._instrs)

    def run_range(
        self,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: np.ndarray,
    ) -> tuple[Counts, "ColumnarLanes | None"]:
        """Execute every index in ``indices``; return ``(counts, log)``.

        ``log`` is the launch's :class:`ColumnarLanes` for the buffered
        flavor and None for the direct one.
        """
        fn = self.fn
        n = int(indices.shape[0])
        log = _SpecLog(n) if self.flavor == "buffered" else None
        if n == 0:
            return Counts(), None if log is None else log.finish(indices)
        regs: list = [None] * fn.num_regs
        regs[fn.index.id] = indices.astype(np.int32)
        for param in fn.scalars:
            try:
                value = scalar_env[param.name]
            except KeyError:
                raise JaponicaError(
                    f"kernel {fn.name!r} missing scalar {param.name!r}"
                ) from None
            regs[fn.scalar_regs[param.name].id] = _NP_TYPE[param.type](value)

        with np.errstate(all="ignore"):
            for instr in self._instrs:
                op = instr.op
                if op is Opcode.CONST:
                    regs[instr.dst.id] = _NP_TYPE[instr.dst.type](instr.value)
                elif op is Opcode.MOV:
                    regs[instr.dst.id] = regs[instr.a.id]
                elif op is Opcode.BIN:
                    regs[instr.dst.id] = _vbinop(
                        instr.binop,
                        regs[instr.a.id],
                        regs[instr.b.id],
                        instr.a.type,
                    )
                elif op is Opcode.UN:
                    regs[instr.dst.id] = _vunop(instr.binop, regs[instr.a.id])
                elif op is Opcode.CAST:
                    regs[instr.dst.id] = _vcast(
                        regs[instr.a.id], instr.a.type, instr.dst.type
                    )
                elif op is Opcode.LOAD:
                    vecs, flats = _addresses(
                        storage, instr.array,
                        [regs[r.id] for r in instr.idx], n,
                    )
                    arr = storage.arrays[instr.array]
                    value = arr[tuple(vecs)]
                    if log is not None:
                        value = log.load(instr.array, flats, value)
                    regs[instr.dst.id] = value
                elif op is Opcode.STORE:
                    vecs, flats = _addresses(
                        storage, instr.array,
                        [regs[r.id] for r in instr.idx], n,
                    )
                    arr = storage.arrays[instr.array]
                    value = _broadcast(regs[instr.a.id], n, arr.dtype)
                    if log is None:
                        arr[tuple(vecs)] = value
                    else:
                        log.store(instr.array, flats, value)
                elif op is Opcode.CALL:
                    regs[instr.dst.id] = _vintrinsic(
                        instr.intrinsic,
                        [regs[r.id] for r in instr.args],
                        instr.dst.type,
                        n,
                    )
                elif op is not Opcode.RET:  # BR/CBR: not single-block
                    raise JaponicaError(
                        f"unexpected opcode {op} in vector path"
                    )
        counts = Counts.from_raw([c * n for c in self._per_lane])
        return counts, None if log is None else log.finish(indices)


class _SpecLog:
    """Per-lane write buffers and read/write logs of a buffered launch."""

    def __init__(self, n: int):
        self.n = n
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._slot = 0
        #: array_id -> ordered list of (flats[n], values[n]) store sites
        self._stores: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        #: logged reads and writes: (op slot, array_id, lane positions, flats)
        self._reads: list[tuple] = []
        self._writes: list[tuple] = []

    def _array_id(self, name: str) -> int:
        a = self._ids.get(name)
        if a is None:
            a = self._ids[name] = len(self.names)
            self.names.append(name)
        return a

    def load(self, name: str, flats: np.ndarray, value: np.ndarray):
        """Forward each lane's own buffered cell; log the other reads."""
        a_id = self._array_id(name)
        unhit = np.ones(self.n, dtype=bool)
        for s_flats, s_vals in self._stores.get(a_id, ()):
            m = s_flats == flats
            value = np.where(m, s_vals, value)
            unhit &= ~m
        self._reads.append((self._slot, a_id, np.nonzero(unhit)[0],
                            flats[unhit]))
        self._slot += 1
        return value

    def store(self, name: str, flats: np.ndarray, value: np.ndarray) -> None:
        a_id = self._array_id(name)
        self._writes.append((self._slot, a_id, np.arange(self.n), flats))
        self._stores.setdefault(a_id, []).append((flats, value))
        self._slot += 1

    def finish(self, indices: np.ndarray) -> ColumnarLanes:
        n = self.n
        lane_pos = np.arange(n, dtype=np.int64)
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for a_id, sites in self._stores.items():
            # keep the last store per (lane, cell): sort by site within it
            f = np.concatenate([flats for flats, _v in sites])
            v = np.concatenate([vals for _f, vals in sites])
            pos = np.tile(lane_pos, len(sites))
            site_ord = np.repeat(np.arange(len(sites)), n)
            s = np.lexsort((site_ord, f, pos))
            pos, f, v = pos[s], f[s], v[s]
            last = np.ones(len(pos), dtype=bool)
            last[:-1] = (pos[:-1] != pos[1:]) | (f[:-1] != f[1:])
            buffers[a_id] = (pos[last], f[last], v[last])
        return ColumnarLanes(
            indices.astype(np.int64),
            self.names,
            _log_columns(self._reads),
            _log_columns(self._writes),
            buffers,
        )


def _log_columns(parts):
    """Concatenate per-site log fragments into (pos, op, arr, flat) columns
    sorted by (pos, op) — i.e. grouped per lane in log order."""
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), e.copy()
    pos = np.concatenate([p for _s, _a, p, _f in parts])
    op = np.concatenate([np.full(len(p), s, np.int64)
                         for s, _, p, _ in parts])
    arr = np.concatenate([np.full(len(p), a, np.int64)
                          for _, a, p, _ in parts])
    flat = np.concatenate([f for _s, _a, _p, f in parts])
    s = np.lexsort((op, pos))
    return pos[s], op[s], arr[s], flat[s]


def _addresses(storage: ArrayStorage, name: str, idx, n: int):
    """Bounds-check one access; return (per-axis index vectors, flats)."""
    shape = storage.shapes.get(name)
    if shape is None:
        raise MemoryFault(f"unbound array {name!r}")
    vecs = [_broadcast(v, n, np.int64) for v in idx]
    for k, (v, d) in enumerate(zip(vecs, shape)):
        bad = (v < 0) | (v >= d)
        if np.any(bad):
            i = int(v[np.argmax(bad)])
            raise MemoryFault(
                f"index {i} out of bounds for axis {k} of {name!r} (size {d})"
            )
    flats = vecs[0] * shape[1] + vecs[1] if len(vecs) > 1 else vecs[0]
    return vecs, flats


def _broadcast(value, n: int, dtype) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (n,))
    return arr


def _vbinop(op: str, a, b, jt: JType):
    if op in _CMP:
        return _CMP[op](a, b)
    if jt is JType.BOOL:
        return _BOOL_OPS[op](a, b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if jt.is_floating:
        if op == "/":
            # hardware 0/0 and nan/0 give -NaN; java_ops._fdiv gives +NaN
            r = np.divide(a, b)
            return _nan_where((b == 0) & ((a == 0) | np.isnan(a)), r)
        if op == "%":
            # java_ops._frem gives +NaN for inf % y and x % 0
            return _nan_where(np.isinf(a) | (b == 0), np.fmod(a, b))
        raise JaponicaError(f"bad float op {op!r}")
    # integral: numpy ints wrap modularly, like Java
    bits = 32 if jt is JType.INT else 64
    if op in ("/", "%"):
        return _trunc_divmod(op, np.asarray(a), np.asarray(b))
    if op == "<<":
        return a << _mask_shift(b, bits)
    if op == ">>":
        return a >> _mask_shift(b, bits)
    if op == ">>>":
        unsigned = np.uint32 if jt is JType.INT else np.uint64
        return (
            a.astype(unsigned) >> _mask_shift(b, bits).astype(unsigned)
        ).astype(_NP_TYPE[jt])
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    raise JaponicaError(f"bad int op {op!r}")


def _nan_where(bad, value):
    """``value`` with +NaN where ``bad`` (no copy when nothing is)."""
    if not np.any(bad):
        return value
    return np.where(bad, np.nan, value).astype(value.dtype)


def _mask_shift(count, bits: int):
    return np.asarray(count) & np.int32(bits - 1)


def _trunc_divmod(op: str, a: np.ndarray, b: np.ndarray):
    """Java ``/`` and ``%``: truncation toward zero; a zero divisor faults.

    Floor division plus a correction, never ``abs``: |MIN| overflows.
    MIN / -1 wraps to MIN (and MIN % -1 is 0), so -1 divisors negate.
    """
    if np.any(b == 0):
        raise ZeroDivisionError(f"{op} by zero")
    minus_one = b == -1
    b = np.where(minus_one, 1, b).astype(b.dtype)
    q, r = np.divmod(a, b)
    fix = (r != 0) & ((a < 0) != (b < 0))
    if op == "/":
        return np.where(minus_one, -a, q + fix).astype(q.dtype)
    return np.where(minus_one, 0, r - fix * b).astype(r.dtype)


def _vunop(op: str, a):
    if op == "-":
        return -np.asarray(a)
    if op == "!":
        return np.logical_not(a)
    if op == "~":
        return ~np.asarray(a)
    raise JaponicaError(f"bad unary op {op!r}")


def _vcast(value, src: JType, dst: JType):
    if dst is JType.BOOL:
        return np.asarray(value).astype(np.bool_)
    if dst in (JType.INT, JType.LONG) and src.is_floating:
        # NaN -> 0, saturate at the bounds (float(LONG max) is 2**63,
        # which does not fit: compare before the cast, not after)
        info = _INT_INFO[dst]
        f = np.asarray(value, dtype=np.float64)
        out = np.clip(np.where(np.isnan(f), 0.0, f), info.min, info.max)
        return np.where(f >= info.max, info.max, out.astype(_NP_TYPE[dst]))
    if dst is JType.FLOAT:
        # java_ops widens to a Python float first: round once via double
        return np.asarray(value).astype(np.float64).astype(np.float32)
    return np.asarray(value).astype(_NP_TYPE[dst])


def _vintrinsic(name: str, args, jt: JType, n: int):
    if name == "Math.abs":
        result = np.abs(args[0])
    elif name in ("Math.min", "Math.max"):
        # Python min/max keep the first argument unless the second is
        # strictly smaller/larger (so NaN and signed zeros are positional)
        a, b = args
        result = np.where(b < a if name == "Math.min" else b > a, b, a)
    else:
        x = [np.asarray(v, dtype=np.float64) for v in args]
        if name == "Math.sqrt":
            result = np.where(x[0] >= 0, np.sqrt(x[0]), np.nan)
        elif name in ("Math.floor", "Math.ceil"):
            rnd = np.floor if name == "Math.floor" else np.ceil
            result = np.where(np.isfinite(x[0]), rnd(x[0]), x[0])
        else:
            # NumPy's SIMD exp/log/pow/tan differ from libm in the last
            # bit: evaluate the interpreter's own functions per lane
            cols = [np.broadcast_to(v, (n,)).tolist() for v in x]
            result = np.fromiter(
                map(INTRINSIC_FNS[name], *cols), dtype=np.float64, count=n
            )
    return np.asarray(result).astype(_NP_TYPE[jt])
