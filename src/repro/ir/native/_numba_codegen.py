"""Numba lowering of direct-flavor kernels (the top tier).

The kernel body is generated as a plain Python function over typed
NumPy operands — int64 arithmetic everywhere with explicit 32-bit
wrapping, float64 with explicit float32 rounding — and compiled with
``numba.njit``.  Java-visible failures cannot raise inside nopython
code with dynamic messages, so the compiled function uses an
error-code protocol: it returns ``(code, pos, a, b, c)`` and the host
side re-raises the byte-identical exception (``storage.flat`` for
memory faults, literal messages for fuel and division by zero).

Counter fidelity matches the "src" tier: per-block static folds, fuel
checked after every block, partial counts dumped before every early
return.  The same mid-block divergence caveat applies (a lane aborted
mid-block by a fault has not folded that block's categories yet); such
counts are never consumed because the launch that raised them aborts.

This module is only imported behind :func:`numba_backend.available`,
which also runs a one-time compile-and-verify self-test; any failure
here surfaces as :class:`NumbaFallback` and the dispatcher silently
drops to the generated-source tier.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import JaponicaError
from ..instructions import IRFunction, JType, Opcode
from ..interpreter import C_TOTAL, FuelExhausted, N_COUNTERS, block_counts
from .codegen import DEFAULT_FUEL, _Emitter, _KernelPlan
from .numba_backend import NumbaFallback

_INT_TYPES = (JType.INT, JType.LONG)

_HELPERS = None


def _helpers():
    """Compile the shared njit helper library once per process."""
    global _HELPERS
    if _HELPERS is None:
        import numba

        @numba.njit(cache=False)
        def jdiv(a, b):
            # truncating division; caller has rejected b == 0.  int64
            # negation wraps in machine code, so LONG_MIN / -1 lands on
            # LONG_MIN exactly like Java (and never executes a trapping
            # sdiv).
            if b == -1:
                return -a
            q = a // b
            if a % b != 0 and (a < 0) != (b < 0):
                q += 1
            return q

        @numba.njit(cache=False)
        def jrem(a, b):
            # remainder with the dividend's sign; caller rejected b == 0
            if b == -1:
                return a - a
            r = a % b
            if r != 0 and (a < 0) != (b < 0):
                r -= b
            return r

        @numba.njit(cache=False)
        def jpow(a, b):
            # java_ops._safe_pow substitutes +inf / +nan where CPython's
            # math.pow raises (finite args, non-finite libm result);
            # non-finite args pass the libm result through untouched
            r = a**b
            if -np.inf < a < np.inf and -np.inf < b < np.inf:
                if r != r:
                    return np.float64(np.nan)
                if r == np.inf or r == -np.inf:
                    if a < 0:
                        return np.float64(np.nan)
                    return np.float64(np.inf)
            return r

        _HELPERS = {"_jdiv": jdiv, "_jrem": jrem, "_jpow": jpow}
    return _HELPERS


#: numba-safe expressions for the ``Math.*`` intrinsics, matching
#: ``java_ops.INTRINSIC_FNS``: libm gives C semantics (inf/nan instead
#: of OverflowError/ValueError), which is mostly what the safe wrappers
#: return; sqrt/log need explicit domain guards and pow goes through
#: the ``_jpow`` helper to reproduce ``_safe_pow``'s substitutions
_INTRINSIC_EXPRS = {
    "Math.sqrt": lambda a: f"(math.sqrt({a[0]}) if {a[0]} >= 0 else _NAN)",
    "Math.exp": lambda a: f"np.exp({a[0]})",
    "Math.log": (
        lambda a: f"(math.log({a[0]}) if {a[0]} > 0"
        f" else (-_INF if {a[0]} == 0 else _NAN))"
    ),
    "Math.pow": lambda a: f"_jpow({a[0]}, {a[1]})",
    "Math.abs": lambda a: f"abs({a[0]})",
    "Math.min": lambda a: f"min({a[0]}, {a[1]})",
    "Math.max": lambda a: f"max({a[0]}, {a[1]})",
    "Math.floor": lambda a: f"np.floor({a[0]})",
    "Math.ceil": lambda a: f"np.ceil({a[0]})",
    # infinities substitute the interpreter's +NaN, not libm's -NaN
    "Math.sin": (
        lambda a: f"(_NAN if {a[0]} == _INF or {a[0]} == -_INF"
        f" else np.sin({a[0]}))"
    ),
    "Math.cos": (
        lambda a: f"(_NAN if {a[0]} == _INF or {a[0]} == -_INF"
        f" else np.cos({a[0]}))"
    ),
    "Math.tan": (
        lambda a: f"(_NAN if {a[0]} == _INF or {a[0]} == -_INF"
        f" else np.tan({a[0]}))"
    ),
}


def _w32(core: str) -> str:
    """32-bit two's-complement wrap of an int64 expression."""
    return f"((({core}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000"


def _nb_bin(e, indent, instr, fault_exit) -> None:
    """Emit a BIN instruction; ``fault_exit`` emits an error return."""
    op = instr.binop
    a, b = f"r{instr.a.id}", f"r{instr.b.id}"
    d = f"r{instr.dst.id}"
    jt = instr.a.type
    if op in ("<", "<=", ">", ">=", "==", "!="):
        e.emit(indent, f"{d} = {a} {op} {b}")
        return
    if jt is JType.BOOL:
        if op == "&":
            e.emit(indent, f"{d} = {a} and {b}")
        elif op == "|":
            e.emit(indent, f"{d} = {a} or {b}")
        elif op == "^":
            e.emit(indent, f"{d} = {a} != {b}")
        else:
            raise NumbaFallback(f"boolean operator {op!r}")
        return
    if jt.is_floating:
        if op == "+":
            core = f"{a} + {b}"
        elif op == "-":
            core = f"{a} - {b}"
        elif op == "*":
            core = f"{a} * {b}"
        elif op == "/":
            # hardware 0/0 (and nan/0) yields the negative QNaN; the
            # interpreter's _fdiv substitutes +NaN, and the sign bit
            # matters bitwise.  x/0 stays +-inf, matching _fdiv's
            # copysign product
            core = (
                f"((_NAN if {a} == 0.0 or {a} != {a}"
                f" else math.copysign(_INF, math.copysign(1.0, {a})"
                f" * math.copysign(1.0, {b})))"
                f" if {b} == 0.0 else {a} / {b})"
            )
        elif op == "%":
            # Java %: NaN for zero divisor or infinite dividend, with
            # the interpreter's +NaN rather than libm's result
            core = (
                f"(_NAN if {b} == 0.0 or {a} == _INF or {a} == -_INF"
                f" else math.fmod({a}, {b}))"
            )
        else:
            raise NumbaFallback(f"float operator {op!r}")
        if jt is JType.FLOAT:
            core = f"np.float64(np.float32({core}))"
        e.emit(indent, f"{d} = {core}")
        return
    is_int = jt is JType.INT
    if op in ("/", "%"):
        e.emit(indent, f"if {b} == 0:")
        fault_exit(e, indent + 1, "3" if op == "/" else "4")
        helper = "_jdiv" if op == "/" else "_jrem"
        core = f"{helper}({a}, {b})"
        e.emit(indent, f"{d} = {_w32(core) if is_int and op == '/' else core}")
        return
    mask = 31 if is_int else 63
    if op == "<<":
        core = f"{a} << ({b} & {mask})"
    elif op == ">>":
        core = f"{a} >> ({b} & {mask})"
    elif op == ">>>":
        if is_int:
            core = f"({a} & 0xFFFFFFFF) >> ({b} & 31)"
        else:
            core = f"np.int64(np.uint64({a}) >> np.uint64({b} & 63))"
    elif op in ("+", "-", "*", "&", "|", "^"):
        core = f"{a} {op} {b}"
    else:
        raise NumbaFallback(f"integer operator {op!r}")
    # int64 arithmetic wraps natively in machine code, so only the
    # 32-bit type needs the explicit wrap; >>> lands in range already
    if is_int:
        core = _w32(core)
    e.emit(indent, f"{d} = {core}")


def _nb_f2int(e, indent, d, a, dst) -> None:
    """Saturating NaN-zeroing float->int conversion (java_ops.cast)."""
    if dst is JType.INT:
        hi, lo = "2147483647", "-2147483648"
        hif, lof = "2147483647.0", "-2147483648.0"
    else:
        hi, lo = "9223372036854775807", "-9223372036854775808"
        hif, lof = "9223372036854775808.0", "-9223372036854775808.0"
    e.emit(indent, f"if {a} != {a}:")
    e.emit(indent + 1, f"{d} = np.int64(0)")
    e.emit(indent, f"elif {a} >= {hif}:")
    e.emit(indent + 1, f"{d} = np.int64({hi})")
    e.emit(indent, f"elif {a} <= {lof}:")
    e.emit(indent + 1, f"{d} = np.int64({lo})")
    e.emit(indent, "else:")
    e.emit(indent + 1, f"{d} = np.int64({a})")


def _nb_cast(e, indent, instr) -> None:
    a = f"r{instr.a.id}"
    d = f"r{instr.dst.id}"
    src, dst = instr.a.type, instr.dst.type
    if dst is JType.BOOL:
        e.emit(indent, f"{d} = {a} != 0")
        return
    if dst is JType.DOUBLE:
        e.emit(indent, f"{d} = np.float64({a})")
        return
    if dst is JType.FLOAT:
        e.emit(indent, f"{d} = np.float64(np.float32({a}))")
        return
    if src.is_floating:
        _nb_f2int(e, indent, d, a, dst)
        return
    if dst is JType.INT:
        e.emit(indent, f"{d} = {_w32(f'np.int64({a})')}")
    else:
        e.emit(indent, f"{d} = np.int64({a})")


def _nb_call(e, indent, instr) -> None:
    expr_fn = _INTRINSIC_EXPRS.get(instr.intrinsic)
    if expr_fn is None:
        raise NumbaFallback(f"intrinsic {instr.intrinsic!r}")
    args = [f"r{r.id}" for r in instr.args]
    core = expr_fn(args)
    d = f"r{instr.dst.id}"
    dst = instr.dst.type
    if dst is JType.DOUBLE:
        e.emit(indent, f"{d} = np.float64({core})")
    elif dst is JType.FLOAT:
        e.emit(indent, f"{d} = np.float64(np.float32({core}))")
    elif dst in _INT_TYPES:
        e.emit(indent, f"_v = np.float64({core})")
        _nb_f2int(e, indent, d, "_v", dst)
    else:
        raise NumbaFallback("boolean intrinsic result")


def generate_numba(fn: IRFunction, fuel: int = DEFAULT_FUEL):
    """(source, metadata) of the numba-compilable kernel function.

    The function signature is positional and fixed per kernel::

        _nkernel(_idx, _sci, _scf, <one arg per array>, _raw, _pl)

    with ``_idx`` int64[:] (index values), ``_sci``/``_scf`` the
    integer/floating scalars in declaration order, ``_raw`` int64[8],
    ``_pl`` int64[len(_idx)].  Returns ``(code, pos, a, b, c)``:

    ====  =============================================================
    0     success (``pos`` = number of lanes completed)
    1     fuel exhausted at lane position ``pos``
    2     memory fault at lane ``pos``: array ordinal ``a``, index
          ``(b,)`` or ``(b, c)``
    3/4   integer ``/`` / ``%`` by zero at lane position ``pos``
    ====  =============================================================
    """
    plan = _KernelPlan(fn)
    for name, nidx in plan.arrays_nidx.items():
        if len(nidx) != 1:
            raise NumbaFallback(f"array {name!r} used at mixed ranks")
    e = _Emitter()
    array_args = [plan.array_var[name] for name in plan.arrays]
    e.emit(0, "def _nkernel(_idx, _sci, _scf, "
              + "".join(a + ", " for a in array_args) + "_raw, _pl):")
    # -- shape hoists ----------------------------------------------------
    for name in plan.arrays:
        av = plan.array_var[name]
        if 1 in plan.arrays_nidx[name]:
            e.emit(1, f"{av}_e0 = {av}.shape[0]")
        else:
            e.emit(1, f"{av}_f0 = {av}.shape[0]")
            e.emit(1, f"{av}_f1 = {av}.shape[1]")

    def fault_exit(em, indent, code, a="0", b="0", c="0"):
        for k in range(N_COUNTERS - 1):
            em.emit(indent, f"_raw[{k}] += _c{k}")
        em.emit(indent, f"_raw[{N_COUNTERS - 1}] += _c7 + _t")
        em.emit(indent, f"return ({code}, _k, {a}, {b}, {c})")

    # -- scalar binds (presence is checked host-side) --------------------
    n_sci = n_scf = 0
    scalar_slot: dict[str, tuple[str, int]] = {}
    for p in fn.scalars:
        if p.type.is_floating:
            scalar_slot[p.name] = ("_scf", n_scf)
            n_scf += 1
        else:
            scalar_slot[p.name] = ("_sci", n_sci)
            n_sci += 1

    def bind_scalar(indent, p):
        arr, slot = scalar_slot[p.name]
        rid = plan.scalar_reg[p.name]
        if p.type is JType.BOOL:
            e.emit(indent, f"r{rid} = {arr}[{slot}] != 0")
        else:
            e.emit(indent, f"r{rid} = {arr}[{slot}]")

    for p in fn.scalars:
        if plan.scalar_reg[p.name] not in plan.writes:
            bind_scalar(1, p)
    e.emit(1, "_c0 = _c1 = _c2 = _c3 = _c4 = _c5 = _c6 = _c7 = 0")
    e.emit(1, "_t = 0")
    e.emit(1, "_k = 0")
    e.emit(1, "for _k in range(_idx.shape[0]):")
    e.emit(2, f"r{fn.index.id} = _idx[_k]")
    for p in fn.scalars:
        if plan.scalar_reg[p.name] in plan.writes:
            bind_scalar(2, p)
    # type-stable zero-inits replace the interpreter's None chain; a
    # well-formed kernel never reads a register before writing it, and
    # the self-test/crosscheck guard the tier against malformed IR
    reg_types: dict[int, JType] = {}
    for blk in fn.blocks:
        for instr in blk.instrs:
            if instr.dst is not None:
                reg_types.setdefault(instr.dst.id, instr.dst.type)
            for r in (instr.a, instr.b, *instr.idx, *instr.args):
                if r is not None:
                    reg_types.setdefault(r.id, r.type)
    scalar_ids = set(plan.scalar_reg.values())
    for rid in sorted(plan.reads - scalar_ids - {fn.index.id}):
        jt = reg_types.get(rid, JType.LONG)
        if jt is JType.BOOL:
            e.emit(2, f"r{rid} = False")
        elif jt.is_floating:
            e.emit(2, f"r{rid} = 0.0")
        else:
            e.emit(2, f"r{rid} = np.int64(0)")
    e.emit(2, "_t = 0")
    e.emit(2, "_blk = 0")
    e.emit(2, "while True:")
    const_ords = iter(range(len(plan.consts)))
    block_ids = {blk.name: k for k, blk in enumerate(fn.blocks)}
    array_ord = {name: k for k, name in enumerate(plan.arrays)}
    for bid, blk in enumerate(fn.blocks):
        kw = "if" if bid == 0 else "elif"
        e.emit(3, f"{kw} _blk == {bid}:  # {blk.name}")
        ind = 4
        fold = block_counts(blk.instrs)
        for instr in blk.instrs[:-1]:
            _nb_instr(e, ind, instr, plan, const_ords, array_ord, fault_exit)
        for cat in range(N_COUNTERS - 1):
            if fold[cat]:
                e.emit(ind, f"_c{cat} += {fold[cat]}")
        e.emit(ind, f"_t += {fold[C_TOTAL]}")
        term = blk.instrs[-1]
        if term.op is Opcode.BR:
            e.emit(ind, f"_blk = {block_ids[term.target]}")
        elif term.op is Opcode.CBR:
            t_id = block_ids[term.target]
            f_id = block_ids[term.else_target]
            e.emit(ind, f"_blk = {t_id} if r{term.a.id} else {f_id}")
        else:
            e.emit(ind, "_blk = -1")
    e.emit(3, f"if _t > {fuel}:")
    fault_exit(e, 4, "1")
    e.emit(3, "if _blk < 0:")
    e.emit(4, "break")
    e.emit(2, "_c7 += _t")
    e.emit(2, "_pl[_k] = _t")
    e.emit(2, "_t = 0")
    for k in range(N_COUNTERS - 1):
        e.emit(1, f"_raw[{k}] += _c{k}")
    e.emit(1, f"_raw[{N_COUNTERS - 1}] += _c7")
    e.emit(1, "return (0, _idx.shape[0], 0, 0, 0)")
    dconsts = np.zeros(max(1, len(plan.consts)), dtype=np.float64)
    for k, v in enumerate(plan.consts):
        if not isinstance(v, bool):
            try:
                dconsts[k] = float(v)
            except (TypeError, OverflowError):
                pass  # non-float slot; never read by a floating CONST
    dconsts.setflags(write=False)
    meta = {
        "plan": plan,
        "scalar_slot": scalar_slot,
        "n_sci": n_sci,
        "n_scf": n_scf,
        "dconsts": dconsts,
    }
    return e.source(), meta


def _nb_instr(e, ind, instr, plan, const_ords, array_ord, fault_exit):
    op = instr.op
    if op is Opcode.CONST:
        ordn = next(const_ords)
        value = plan.consts[ordn]
        d = f"r{instr.dst.id}"
        jt = instr.dst.type
        if jt is JType.BOOL:
            e.emit(ind, f"{d} = {bool(value)}")
        elif jt.is_floating:
            # the _dconsts global preserves exact bits (inf, NaN
            # payloads) that a repr literal cannot round-trip
            e.emit(ind, f"{d} = _dconsts[{ordn}]")
        else:
            e.emit(ind, f"{d} = np.int64({int(value)})")
        return
    if op is Opcode.MOV:
        e.emit(ind, f"r{instr.dst.id} = r{instr.a.id}")
        return
    if op is Opcode.BIN:
        _nb_bin(e, ind, instr, fault_exit)
        return
    if op is Opcode.UN:
        d = f"r{instr.dst.id}"
        a = f"r{instr.a.id}"
        jt = instr.dst.type
        if instr.binop == "!":
            e.emit(ind, f"{d} = not {a}")
        elif instr.binop == "-" and jt.is_floating:
            e.emit(ind, f"{d} = -{a}")
        elif instr.binop in ("-", "~") and jt in _INT_TYPES:
            core = f"{instr.binop}{a}"
            e.emit(ind, f"{d} = {_w32(core) if jt is JType.INT else core}")
        else:
            raise NumbaFallback(f"unary {instr.binop!r} at {jt}")
        return
    if op is Opcode.CAST:
        _nb_cast(e, ind, instr)
        return
    if op is Opcode.CALL:
        _nb_call(e, ind, instr)
        return
    av = plan.array_var[instr.array]
    aord = array_ord[instr.array]
    idx = [f"r{r.id}" for r in instr.idx]
    if len(idx) == 1:
        e.emit(ind, f"_x = np.int64({idx[0]})")
        e.emit(ind, f"if not (0 <= _x < {av}_e0):")
        fault_exit(e, ind + 1, "2", str(aord), "_x")
        flat = "_x"
    else:
        e.emit(ind, f"_x = np.int64({idx[0]})")
        e.emit(ind, f"_y = np.int64({idx[1]})")
        e.emit(ind, f"if not (0 <= _x < {av}_f0 and 0 <= _y < {av}_f1):")
        fault_exit(e, ind + 1, "2", str(aord), "_x", "_y")
        flat = "_x, _y"
    if op is Opcode.LOAD:
        d = f"r{instr.dst.id}"
        jt = instr.dst.type
        if jt is JType.BOOL:
            e.emit(ind, f"{d} = {av}[{flat}] != 0")
        elif jt.is_floating:
            e.emit(ind, f"{d} = np.float64({av}[{flat}])")
        else:
            e.emit(ind, f"{d} = np.int64({av}[{flat}])")
    else:
        e.emit(ind, f"{av}[{flat}] = r{instr.a.id}")


class NumbaKernel:
    """One eagerly-njit-compiled direct-flavor kernel."""

    tier = "numba"

    def __init__(self, fn: IRFunction, fuel: int = DEFAULT_FUEL):
        import numba

        self.fn = fn
        self.fuel = fuel
        source, meta = generate_numba(fn, fuel)
        self.source = source
        self._plan = meta["plan"]
        self._scalar_slot = meta["scalar_slot"]
        self._n_sci = meta["n_sci"]
        self._n_scf = meta["n_scf"]
        ns = {"np": np, "math": math,
              "_NAN": float("nan"), "_INF": float("inf"),
              "_dconsts": meta["dconsts"]}
        ns.update(_helpers())
        code = compile(source, f"<numba:{fn.fingerprint()}>", "exec")
        exec(code, ns)
        self._compiled = numba.njit(cache=False)(ns["_nkernel"])
        self._dtypes = {
            name: np.dtype(fn.array(name).type.numpy_dtype)
            for name in self._plan.arrays
        }
        # eager compile against zero-size stand-ins so the (one) real
        # signature is ready before the first hot launch
        dummies = [
            np.zeros((0,) * self._ndim(name), dtype=self._dtypes[name])
            for name in self._plan.arrays
        ]
        self._compiled(
            np.zeros(0, dtype=np.int64),
            np.zeros(max(1, self._n_sci), dtype=np.int64),
            np.zeros(max(1, self._n_scf), dtype=np.float64),
            *dummies,
            np.zeros(N_COUNTERS, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )

    def _ndim(self, name: str) -> int:
        return next(iter(self._plan.arrays_nidx[name]))

    def run(self, indices, scalar_env, storage, raw, per_lane):
        fn = self.fn
        plan = self._plan
        arrays = []
        for name in plan.arrays:
            arr = storage.arrays.get(name)
            if (
                arr is None
                or arr.ndim != self._ndim(name)
                or arr.dtype != self._dtypes[name]
                or not arr.flags.c_contiguous
            ):
                # unbound / mismatched operands take the src tier, which
                # reproduces the interpreter's exact MemoryFault text
                raise NumbaFallback(f"array operand {name!r} shape/dtype")
            arrays.append(arr)
        sci = np.zeros(max(1, self._n_sci), dtype=np.int64)
        scf = np.zeros(max(1, self._n_scf), dtype=np.float64)
        for p in fn.scalars:
            try:
                value = scalar_env[p.name]
            except KeyError:
                raise JaponicaError(
                    f"kernel {fn.name!r} missing scalar {p.name!r}"
                ) from None
            slot_arr, slot = self._scalar_slot[p.name]
            if slot_arr == "_sci":
                sci[slot] = int(value)
            else:
                scf[slot] = float(value)
        idx = np.asarray(list(indices), dtype=np.int64)
        raw_arr = np.zeros(N_COUNTERS, dtype=np.int64)
        pl = np.zeros(idx.shape[0], dtype=np.int64)
        code, pos, a, b, c = self._compiled(
            idx, sci, scf, *arrays, raw_arr, pl
        )
        code, pos = int(code), int(pos)
        for k in range(N_COUNTERS):
            raw[k] += int(raw_arr[k])
        per_lane.extend(int(x) for x in pl[: pos if code else len(pl)])
        if code == 0:
            return None
        if code == 1:
            raise FuelExhausted(
                f"kernel {fn.name!r} exceeded {self.fuel} instructions "
                f"at index {int(idx[pos])}"
            )
        if code == 2:
            name = plan.arrays[int(a)]
            if self._ndim(name) == 1:
                storage.flat(name, (int(b),))
            else:
                storage.flat(name, (int(b), int(c)))
            raise NumbaFallback("memory fault did not reproduce")
        if code == 3:
            raise ZeroDivisionError("/ by zero")
        if code == 4:
            raise ZeroDivisionError("% by zero")
        raise NumbaFallback(f"unknown error code {code}")
