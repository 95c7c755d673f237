"""Type-specialized Python codegen for IR kernels (the "src" tier).

An :class:`IRFunction` is lowered to one plain Python function per
memory-backend flavor:

* registers become Python locals (``r{id}``),
* the CFG becomes a block-dispatch loop (``_blk`` integer + ``if/elif``
  chain; CBR lowers to a conditional expression),
* Java numeric semantics are inlined (two's-complement wrap as a masked
  expression) or pre-bound from :mod:`repro.ir.java_ops` (division,
  remainder, float32 rounding, intrinsics),
* loads/stores inline the bounds check against hoisted shapes and fall
  back to :meth:`ArrayStorage.flat` on failure so every error message is
  byte-identical to the interpreter's,
* dynamic work counters are folded statically per basic block and the
  fuel check runs after every block — including RET — exactly like
  :class:`repro.ir.interpreter.CompiledKernel`.

Counter fidelity: counts are exact for every execution that completes,
runs out of fuel, or is cut short at an index boundary (worker faults).
The one tolerated divergence is an execution aborted *mid-block* by a
``MemoryFault``/``ZeroDivisionError``: the interpreter has counted the
instructions before the faulting one, the generated code folds the block
at its end and therefore has not.  Such counts are never consumed — the
launch that raised them aborts.

The generated function is stateless and reentrant: all mutable state
(counters, per-lane totals, speculative buffers) lives in caller-owned
arguments or per-invocation locals, so one compiled kernel is safely
shared process-wide across threads.

Flavors mirror the interpreter's memory backends:

``direct``    reads/writes go straight to storage (DirectBackend).
``buffered``  per-lane write buffers + read/write logs appended to flat
              int lists and returned as the launch's
              :class:`~repro.ir.columnar.ColumnarLanes`
              (SpeculativeBackend).
"""

from __future__ import annotations

import linecache
import math

from ...errors import JaponicaError
from .. import java_ops
from ..columnar import ColumnarLanes
from ..instructions import IRFunction, JType, Opcode
from ..interpreter import C_TOTAL, FuelExhausted, N_COUNTERS, block_counts

DEFAULT_FUEL = 200_000_000

FLAVORS = ("direct", "buffered")

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _divi(a, b):
    return java_ops.wrap_int(java_ops.java_div_int(a, b))


def _divl(a, b):
    return java_ops.wrap_long(java_ops.java_div_int(a, b))


def _remi(a, b):
    return java_ops.wrap_int(java_ops.java_rem_int(a, b))


def _reml(a, b):
    return java_ops.wrap_long(java_ops.java_rem_int(a, b))


def _cast_f2i(v):
    return java_ops.cast(v, JType.DOUBLE, JType.INT)


def _cast_f2l(v):
    return java_ops.cast(v, JType.DOUBLE, JType.LONG)


#: Names injected into every generated function's globals.
_BASE_GLOBALS = {
    "_JErr": JaponicaError,
    "_Fuel": FuelExhausted,
    "_LOG": ColumnarLanes.build,
    "_NAN": float("nan"),
    "_fdiv": java_ops._fdiv,
    "_fmod": java_ops._frem,
    "_rf": java_ops._round_float,
    "_divi": _divi,
    "_divl": _divl,
    "_remi": _remi,
    "_reml": _reml,
    "_c_fi": _cast_f2i,
    "_c_fl": _cast_f2l,
    "_binop": java_ops.binop,
    "_unop": java_ops.unop,
    "_JT": {t.value: t for t in JType},
}


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _wrap_expr(core: str, jt: JType) -> str:
    """Two's-complement wrap of ``core`` as a branch-free expression.

    ``((x & MASK) ^ SIGN) - SIGN`` is equivalent to
    :func:`java_ops.wrap_int`/``wrap_long`` for every integer ``x``.
    """
    if jt is JType.INT:
        return f"((({core}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000"
    return (
        f"((({core}) & 0xFFFFFFFFFFFFFFFF) ^ 0x8000000000000000)"
        f" - 0x8000000000000000"
    )


def _bin_expr(op: str, a: str, b: str, jt: JType) -> str:
    """Expression for ``BIN`` matching :func:`java_ops.binop` exactly."""
    if op in _CMP_OPS:
        return f"{a} {op} {b}"
    if jt is JType.BOOL:
        if op == "&":
            return f"bool({a}) and bool({b})"
        if op == "|":
            return f"bool({a}) or bool({b})"
        if op == "^":
            return f"bool({a}) != bool({b})"
        # undefined on boolean: defer to java_ops for the exact error
        return f"_binop({op!r}, {a}, {b}, _JT[{jt.value!r}])"
    if jt.is_floating:
        if op == "+":
            core = f"{a} + {b}"
        elif op == "-":
            core = f"{a} - {b}"
        elif op == "*":
            core = f"{a} * {b}"
        elif op == "/":
            core = f"_fdiv({a}, {b})"
        elif op == "%":
            core = f"_fmod({a}, {b})"
        else:
            return f"_binop({op!r}, {a}, {b}, _JT[{jt.value!r}])"
        return f"_rf({core})" if jt is JType.FLOAT else core
    # integral int/long
    shift_mask = 31 if jt is JType.INT else 63
    umask = "0xFFFFFFFF" if jt is JType.INT else "0xFFFFFFFFFFFFFFFF"
    if op == "/":
        return f"_divi({a}, {b})" if jt is JType.INT else f"_divl({a}, {b})"
    if op == "%":
        return f"_remi({a}, {b})" if jt is JType.INT else f"_reml({a}, {b})"
    if op == "<<":
        core = f"{a} << ({b} & {shift_mask})"
    elif op == ">>":
        core = f"{a} >> ({b} & {shift_mask})"
    elif op == ">>>":
        core = f"({a} & {umask}) >> ({b} & {shift_mask})"
    elif op in ("+", "-", "*", "&", "|", "^"):
        core = f"{a} {op} {b}"
    else:
        return f"_binop({op!r}, {a}, {b}, _JT[{jt.value!r}])"
    return _wrap_expr(core, jt)


def _un_expr(op: str, a: str, jt: JType) -> str:
    """Expression for ``UN`` matching :func:`java_ops.unop` exactly."""
    if op == "!":
        return f"not {a}"
    if op == "-" and jt.is_floating:
        return f"-{a}"
    if op in ("-", "~") and jt in (JType.INT, JType.LONG):
        return _wrap_expr(f"{op}{a}", jt)
    return f"_unop({op!r}, {a}, _JT[{jt.value!r}])"


def _cast_expr(a: str, src: JType, dst: JType) -> str:
    """Expression for ``CAST`` matching :func:`java_ops.cast` exactly."""
    if dst is JType.BOOL:
        return f"bool({a})"
    if dst is JType.DOUBLE:
        return f"float({a})"
    if dst is JType.FLOAT:
        return f"_rf(float({a}))"
    if src.is_floating:
        return f"_c_fi({a})" if dst is JType.INT else f"_c_fl({a})"
    return _wrap_expr(f"int({a})", dst)


def _intr_expr(var: str, args: str, dst: JType) -> str:
    """Expression for ``CALL`` matching :func:`java_ops.intrinsic`."""
    core = f"{var}({args})"
    if dst is JType.FLOAT:
        return f"_rf(float({core}))"
    if dst is JType.DOUBLE:
        return f"float({core})"
    # non-floating result conversion (_wrap treats BOOL like LONG)
    return _wrap_expr(f"int({core})", JType.INT if dst is JType.INT else JType.LONG)


class _KernelPlan:
    """Static facts the emitter needs: register roles, array usage."""

    def __init__(self, fn: IRFunction):
        self.fn = fn
        reads: set[int] = set()
        writes: set[int] = set()
        arrays_nidx: dict[str, set[int]] = {}
        arrays_loaded: set[str] = set()
        arrays_stored: set[str] = set()
        intrinsics: list[str] = []
        consts: list[object] = []
        for blk in fn.blocks:
            for instr in blk.instrs:
                if instr.dst is not None:
                    writes.add(instr.dst.id)
                for r in (instr.a, instr.b):
                    if r is not None:
                        reads.add(r.id)
                for r in instr.idx:
                    reads.add(r.id)
                for r in instr.args:
                    reads.add(r.id)
                if instr.op in (Opcode.LOAD, Opcode.STORE):
                    arrays_nidx.setdefault(instr.array, set()).add(
                        len(instr.idx)
                    )
                    if instr.op is Opcode.LOAD:
                        arrays_loaded.add(instr.array)
                    else:
                        arrays_stored.add(instr.array)
                if instr.op is Opcode.CALL and instr.intrinsic not in intrinsics:
                    intrinsics.append(instr.intrinsic)
                if instr.op is Opcode.CONST:
                    consts.append(instr.value)
        self.reads = reads
        self.writes = writes
        self.arrays = list(arrays_nidx)  # order of first use
        self.array_var = {name: f"_a{k}" for k, name in enumerate(self.arrays)}
        self.arrays_nidx = arrays_nidx
        self.arrays_loaded = arrays_loaded
        self.arrays_stored = arrays_stored
        self.intrinsics = intrinsics
        self.intr_var = {name: f"_in{k}" for k, name in enumerate(intrinsics)}
        self.consts = consts
        self.scalar_var = {
            p.name: f"_s{k}" for k, p in enumerate(fn.scalars)
        }
        self.scalar_reg = {
            p.name: fn.scalar_regs[p.name].id for p in fn.scalars
        }


def generate(
    fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
) -> tuple[str, dict]:
    """Generate (source, globals) for one kernel/flavor pair."""
    if flavor not in FLAVORS:
        raise JaponicaError(f"unknown native kernel flavor {flavor!r}")
    plan = _KernelPlan(fn)
    e = _Emitter()
    g = dict(_BASE_GLOBALS)
    const_var: dict[int, str] = {}
    for k, value in enumerate(plan.consts):
        g[f"_K{k}"] = value
    for name, var in plan.intr_var.items():
        g[var] = java_ops.INTRINSIC_FNS[name]

    writes_mem = flavor == "direct"
    e.emit(0, "def _kernel(_indices, _env, _storage, _raw, _per_lane):")
    e.emit(1, "_arrays = _storage.arrays")
    e.emit(1, "_flat = _storage.flat")
    # -- array hoists ---------------------------------------------------
    for name in plan.arrays:
        av = plan.array_var[name]
        e.emit(1, f"{av} = _arrays.get({name!r})")
        if 1 in plan.arrays_nidx[name]:
            e.emit(
                1,
                f"{av}_e0 = {av}.shape[0] "
                f"if {av} is not None and {av}.ndim == 1 else -1",
            )
        if 2 in plan.arrays_nidx[name]:
            e.emit(1, f"if {av} is not None and {av}.ndim == 2:")
            e.emit(2, f"{av}_f0, {av}_f1 = {av}.shape")
            e.emit(1, "else:")
            e.emit(2, f"{av}_f0 = {av}_f1 = -1")
        if name in plan.arrays_loaded:
            e.emit(1, f"{av}_item = {av}.item if {av} is not None else None")
        if name in plan.arrays_stored:
            if writes_mem:
                e.emit(
                    1, f"{av}_fl = {av}.flat if {av} is not None else None"
                )
            else:
                # read-own-write forwarding: {(lane position, flat): value}
                e.emit(1, f"{av}_buf = {{}}")
    # -- scalar binds (interpreter order and error message) -------------
    for p in fn.scalars:
        sv = plan.scalar_var[p.name]
        msg = f"kernel {fn.name!r} missing scalar {p.name!r}"
        e.emit(1, "try:")
        e.emit(2, f"{sv} = _env[{p.name!r}]")
        e.emit(1, "except KeyError:")
        e.emit(2, f"raise _JErr({msg!r}) from None")
    # scalar registers never written inside the kernel bind once
    hoisted_scalars = []
    looped_scalars = []
    for p in fn.scalars:
        rid = plan.scalar_reg[p.name]
        (looped_scalars if rid in plan.writes else hoisted_scalars).append(p)
    for p in hoisted_scalars:
        e.emit(1, f"r{plan.scalar_reg[p.name]} = {plan.scalar_var[p.name]}")
    # registers that are read anywhere start each index as None, exactly
    # like the interpreter's fresh regs list (scalar and index registers
    # are bound explicitly, so they stay out of the None chain)
    scalar_ids = set(plan.scalar_reg.values())
    init_ids = sorted(plan.reads - scalar_ids - {fn.index.id})
    e.emit(1, "_c0 = _c1 = _c2 = _c3 = _c4 = _c5 = _c6 = _c7 = 0")
    e.emit(1, "_t = 0")
    if flavor == "buffered":
        # flat (pos, op, array_id, flat) rows, lane by lane
        e.emit(1, "_R = []")
        e.emit(1, "_W = []")
    e.emit(1, "try:")
    if flavor == "buffered":
        e.emit(2, "for _p, _i in enumerate(_indices):")
    else:
        e.emit(2, "for _i in _indices:")
    e.emit(3, f"r{fn.index.id} = _i")
    for p in looped_scalars:
        e.emit(3, f"r{plan.scalar_reg[p.name]} = {plan.scalar_var[p.name]}")
    if init_ids:
        chain = " = ".join(f"r{rid}" for rid in init_ids)
        e.emit(3, f"{chain} = None")
    if flavor == "buffered":
        e.emit(3, "_op = 0")
    e.emit(3, "_t = 0")
    e.emit(3, "_blk = 0")
    e.emit(3, "while True:")
    # -- blocks ---------------------------------------------------------
    const_iter = iter(range(len(plan.consts)))
    block_ids = {blk.name: k for k, blk in enumerate(fn.blocks)}
    for bid, blk in enumerate(fn.blocks):
        kw = "if" if bid == 0 else "elif"
        e.emit(4, f"{kw} _blk == {bid}:  # {blk.name}")
        body_indent = 5
        fold = block_counts(blk.instrs)
        for instr in blk.instrs[:-1]:
            _emit_instr(
                e, body_indent, instr, plan, flavor, const_iter
            )
        # fold the block's statically-known work before the terminator
        for cat in range(N_COUNTERS - 1):
            if fold[cat]:
                e.emit(body_indent, f"_c{cat} += {fold[cat]}")
        e.emit(body_indent, f"_t += {fold[C_TOTAL]}")
        term = blk.instrs[-1]
        if term.op is Opcode.BR:
            e.emit(body_indent, f"_blk = {block_ids[term.target]}")
        elif term.op is Opcode.CBR:
            t_id = block_ids[term.target]
            f_id = block_ids[term.else_target]
            e.emit(
                body_indent,
                f"_blk = {t_id} if r{term.a.id} else {f_id}",
            )
        else:  # RET
            e.emit(body_indent, "_blk = -1")
    # the interpreter checks fuel after *every* terminator, RET included
    fuel_msg = f"kernel {fn.name!r} exceeded {fuel} instructions at index "
    e.emit(4, f"if _t > {fuel}:")
    e.emit(5, f"raise _Fuel({fuel_msg!r} + str(_i))")
    e.emit(4, "if _blk < 0:")
    e.emit(5, "break")
    # -- index epilogue -------------------------------------------------
    e.emit(3, "_c7 += _t")
    e.emit(3, "_per_lane.append(_t)")
    e.emit(3, "_t = 0")
    e.emit(1, "finally:")
    for k in range(N_COUNTERS - 1):
        e.emit(2, f"_raw[{k}] += _c{k}")
    e.emit(2, "_raw[7] += _c7 + _t")
    if flavor == "buffered":
        g["_NAMES"] = plan.arrays
        bufs = ", ".join(
            f"{k}: {plan.array_var[name]}_buf"
            for k, name in enumerate(plan.arrays)
            if name in plan.arrays_stored
        )
        e.emit(
            1,
            f"return _LOG(_indices, _NAMES, _R, _W, {{{bufs}}}, _arrays)",
        )
    else:
        e.emit(1, "return None")
    return e.source(), g


def _emit_flat(
    e: _Emitter,
    indent: int,
    instr,
    plan: _KernelPlan,
    out_var: str,
) -> None:
    """Emit the bounds check + flat-address computation into ``out_var``.

    The fast path reproduces :meth:`ArrayStorage.flat` for the
    bound-and-shape-matching case; every other case (unbound array, dim
    mismatch, out of bounds) falls back to the real ``storage.flat``,
    which raises the byte-identical MemoryFault.
    """
    av = plan.array_var[instr.array]
    idx = [f"r{r.id}" for r in instr.idx]
    if len(idx) == 1:
        e.emit(indent, f"_x = {idx[0]}")
        e.emit(indent, f"if 0 <= _x < {av}_e0:")
        e.emit(indent + 1, f"{out_var} = _x")
        e.emit(indent, "else:")
        e.emit(indent + 1, f"{out_var} = _flat({instr.array!r}, (_x,))")
    else:
        e.emit(indent, f"_x = {idx[0]}")
        e.emit(indent, f"_y = {idx[1]}")
        e.emit(indent, f"if 0 <= _x < {av}_f0 and 0 <= _y < {av}_f1:")
        e.emit(indent + 1, f"{out_var} = _x * {av}_f1 + _y")
        e.emit(indent, "else:")
        e.emit(indent + 1, f"{out_var} = _flat({instr.array!r}, (_x, _y))")


def _emit_instr(
    e: _Emitter,
    indent: int,
    instr,
    plan: _KernelPlan,
    flavor: str,
    const_iter,
) -> None:
    op = instr.op
    if op is Opcode.CONST:
        e.emit(indent, f"r{instr.dst.id} = _K{next(const_iter)}")
        return
    if op is Opcode.MOV:
        e.emit(indent, f"r{instr.dst.id} = r{instr.a.id}")
        return
    if op is Opcode.BIN:
        expr = _bin_expr(
            instr.binop, f"r{instr.a.id}", f"r{instr.b.id}", instr.a.type
        )
        e.emit(indent, f"r{instr.dst.id} = {expr}")
        return
    if op is Opcode.UN:
        expr = _un_expr(instr.binop, f"r{instr.a.id}", instr.dst.type)
        e.emit(indent, f"r{instr.dst.id} = {expr}")
        return
    if op is Opcode.CAST:
        expr = _cast_expr(f"r{instr.a.id}", instr.a.type, instr.dst.type)
        e.emit(indent, f"r{instr.dst.id} = {expr}")
        return
    if op is Opcode.CALL:
        args = ", ".join(f"r{r.id}" for r in instr.args)
        expr = _intr_expr(
            plan.intr_var[instr.intrinsic], args, instr.dst.type
        )
        e.emit(indent, f"r{instr.dst.id} = {expr}")
        return
    av = plan.array_var[instr.array]
    a_id = plan.arrays.index(instr.array)
    _emit_flat(e, indent, instr, plan, "_f")
    if op is Opcode.LOAD:
        dst = f"r{instr.dst.id}"
        if flavor == "direct":
            e.emit(indent, f"{dst} = {av}_item(_f)")
            return
        if instr.array in plan.arrays_stored:
            e.emit(indent, "_k = (_p, _f)")
            e.emit(indent, f"if _k in {av}_buf:")
            e.emit(indent + 1, f"{dst} = {av}_buf[_k]")
            e.emit(indent, "else:")
            e.emit(indent + 1, f"_R += (_p, _op, {a_id}, _f)")
            e.emit(indent + 1, f"{dst} = {av}_item(_f)")
        else:  # never buffered: every read is upward-exposed
            e.emit(indent, f"_R += (_p, _op, {a_id}, _f)")
            e.emit(indent, f"{dst} = {av}_item(_f)")
        e.emit(indent, "_op += 1")
        return
    if op is Opcode.STORE:
        src = f"r{instr.a.id}"
        if flavor == "direct":
            e.emit(indent, f"{av}_fl[_f] = {src}")
        else:
            e.emit(indent, f"_W += (_p, _op, {a_id}, _f)")
            e.emit(indent, "_op += 1")
            e.emit(indent, f"{av}_buf[(_p, _f)] = {src}")
        return
    raise JaponicaError(f"non-terminator expected, got {op}")


def generate_source(
    fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
) -> str:
    """The generated Python source alone (diagnostics, tests, docs)."""
    return generate(fn, flavor, fuel)[0]


class NativeKernel:
    """One compiled (fingerprint, flavor) pair of the "src" tier.

    ``run`` executes every index in order, accumulating raw work
    counters into the caller-owned ``raw`` list (survives exceptions via
    ``try/finally`` in the generated code) and appending each index's
    instruction total to ``per_lane``.  Returns the flavor's auxiliary
    structure: ``None`` (direct) or the launch's
    :class:`~repro.ir.columnar.ColumnarLanes` (buffered).
    """

    __slots__ = ("fn", "flavor", "fuel", "source", "_run")

    tier = "src"

    def __init__(
        self, fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
    ):
        self.fn = fn
        self.flavor = flavor
        self.fuel = fuel
        source, ns = generate(fn, flavor, fuel)
        self.source = source
        filename = f"<native:{fn.fingerprint()}:{flavor}>"
        code = compile(source, filename, "exec")
        exec(code, ns)
        self._run = ns["_kernel"]
        # make generated lines visible in tracebacks
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename,
        )

    def run(self, indices, scalar_env, storage, raw, per_lane):
        return self._run(indices, scalar_env, storage, raw, per_lane)
