"""Structural decompiler: canonical bytecode -> mini-Java statements.

The lifter is a recursive-descent parser over the normalized instruction
stream (``bytecode.normalize``): it simulates the value stack with AST
expression fragments and re-nests control flow by following the exact
jump shapes CPython emits for ``for range(...)`` loops, ``if``/``else``
chains and ``and``/``or`` conditions.  Anything outside those shapes
raises :class:`LiftError` with a stable reason code — the decorator
turns that into a fallback, never a crash.

The output is *untyped* mini-Java (markers like ``/t`` for Python true
division survive in ``Binary.op``); ``typing.py`` resolves types against
the call-site signature and rewrites the markers into exact Java
equivalents.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ...lang import ast_nodes as A
from ...lang.tokens import Pos
from .bytecode import NInstr, index_by_offset, normalize, resolve_target
from .errors import LiftError

#: Synthetic scalar holding a tail ``return <expr>`` value.
RET_NAME = "_jit_ret"

#: Globals a liftable function may reference.
_SUPPORTED_GLOBALS = {"range", "len", "math", "abs", "min", "max", "int", "float"}

#: ``math.<name>`` -> intrinsic (floor/ceil handled separately: Python
#: returns an int where Java returns a double, so they lift as a cast).
#: Only these four lift; exp/log/tan/pow fall back as
#: ``inexact-intrinsic`` (numpy's ufuncs for them are not bit-identical
#: to the ``math`` module's libm calls, so the vector tier evaluates
#: them per lane through libm instead).
_MATH_INTRINSICS = {
    "sqrt": "Math.sqrt",
    "sin": "Math.sin",
    "cos": "Math.cos",
    "fabs": "Math.abs",
}

# Opaque stack markers (never valid as mini-Java expressions).


class _Marker:
    pass


class _GlobalVal(_Marker):
    def __init__(self, name: str):
        self.name = name


class _MathFn(_Marker):
    def __init__(self, name: str):
        self.name = name


class _ShapeVal(_Marker):
    def __init__(self, var: A.VarRef):
        self.var = var


class _RangeVal(_Marker):
    def __init__(self, args: list):
        self.args = args


class _NoneVal(_Marker):
    pass


class _ConstTuple(_Marker):
    def __init__(self, values: tuple):
        self.values = values


class _TupleIdx(_Marker):
    def __init__(self, items: list):
        self.items = items


_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Expression-only canonical ops handled by :meth:`_Lifter._step`.
_EXPR_OPS = frozenset({
    "LOAD_CONST", "LOAD_FAST", "LOAD_GLOBAL", "LOAD_ATTR", "BINOP",
    "UNARY", "COMPARE", "SUBSCR", "BUILD_TUPLE", "CALL", "COPY",
    "SWAP", "ROT",
})


@dataclass
class LiftedBody:
    """Untyped lift result for one function body."""

    stmts: List[A.Stmt]
    has_ret: bool
    loop_vars: Set[str] = field(default_factory=set)
    n_loops: int = 0


def _pos(ins: Optional[NInstr]) -> Pos:
    line = ins.lineno if ins is not None and ins.lineno else 0
    return Pos(line or 0, 0)


class _Lifter:
    def __init__(self, instrs: List[NInstr]):
        self.instrs = instrs
        self.off2idx = index_by_offset(instrs)
        self.has_ret = False
        self.loop_vars: Set[str] = set()
        self.active_vars: List[str] = []  # counters of enclosing loops
        self.n_loops = 0

    # -- stack helpers ---------------------------------------------------

    def _pop(self, stack: list, ins: NInstr):
        if not stack:
            raise LiftError("stack-imbalance", f"pop on empty stack at {ins.op}")
        return stack.pop()

    def _pop_expr(self, stack: list, ins: NInstr) -> A.Expr:
        v = self._pop(stack, ins)
        if isinstance(v, _Marker):
            raise LiftError(
                "opaque-store", f"{type(v).__name__} used as a value at {ins.op}"
            )
        return v

    # -- expression simulation -------------------------------------------

    def _step(self, ins: NInstr, stack: list) -> None:
        """Apply one expression op to the simulated stack."""
        op = ins.op
        p = _pos(ins)
        if op == "LOAD_CONST":
            stack.append(self._const(ins.arg, p))
        elif op == "LOAD_FAST":
            stack.append(A.VarRef(p, ins.arg))
        elif op == "LOAD_GLOBAL":
            name = ins.arg
            if name not in _SUPPORTED_GLOBALS:
                raise LiftError("unsupported-global", repr(name))
            stack.append(_GlobalVal(name))
        elif op == "LOAD_ATTR":
            base = self._pop(stack, ins)
            if isinstance(base, _GlobalVal) and base.name == "math":
                stack.append(_MathFn(ins.arg))
            elif isinstance(base, A.VarRef) and ins.arg == "shape":
                stack.append(_ShapeVal(base))
            else:
                raise LiftError("unsupported-global", f"attribute {ins.arg!r}")
        elif op == "BINOP":
            r = self._pop_expr(stack, ins)
            l = self._pop_expr(stack, ins)
            stack.append(self._binop(ins.arg, l, r, p))
        elif op == "UNARY":
            v = self._pop_expr(stack, ins)
            stack.append(v if ins.arg == "+" else A.Unary(p, ins.arg, v))
        elif op == "COMPARE":
            r = self._pop_expr(stack, ins)
            l = self._pop_expr(stack, ins)
            stack.append(A.Binary(p, ins.arg, l, r))
        elif op == "SUBSCR":
            idx = self._pop(stack, ins)
            base = self._pop(stack, ins)
            stack.append(self._subscript(base, idx, p))
        elif op == "BUILD_TUPLE":
            n = ins.arg
            if n < 1 or n > 2:
                raise LiftError("unsupported-subscript", f"{n}-tuple")
            items = [self._pop_expr(stack, ins) for _ in range(n)][::-1]
            stack.append(_TupleIdx(items))
        elif op == "CALL":
            argc = ins.arg
            args = [self._pop(stack, ins) for _ in range(argc)][::-1]
            fn = self._pop(stack, ins)
            stack.append(self._call(fn, args, p))
        elif op == "COPY":
            k = ins.arg
            if k < 1 or k > len(stack):
                raise LiftError("stack-imbalance", f"COPY {k}")
            stack.append(copy.deepcopy(stack[-k]))
        elif op == "SWAP":
            k = ins.arg
            if k < 2 or k > len(stack):
                raise LiftError("stack-imbalance", f"SWAP {k}")
            stack[-1], stack[-k] = stack[-k], stack[-1]
        elif op == "ROT":
            k = ins.arg
            if k < 2 or k > len(stack):
                raise LiftError("stack-imbalance", f"ROT {k}")
            stack[-k:] = [stack[-1]] + stack[-k:-1]
        else:  # pragma: no cover - guarded by _EXPR_OPS
            raise LiftError("unsupported-opcode", op)

    def _const(self, value, p: Pos):
        if value is None:
            return _NoneVal()
        if isinstance(value, bool):
            return A.BoolLit(p, value)
        if isinstance(value, int):
            if _INT32_MIN <= value <= _INT32_MAX:
                return A.IntLit(p, value)
            if _INT64_MIN <= value <= _INT64_MAX:
                return A.LongLit(p, value)
            raise LiftError("unsupported-constant", f"int {value} overflows long")
        if isinstance(value, float):
            return A.DoubleLit(p, value)
        if isinstance(value, tuple) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            return _ConstTuple(value)
        raise LiftError("unsupported-constant", repr(value))

    def _binop(self, sym: str, l: A.Expr, r: A.Expr, p: Pos) -> A.Expr:
        # Markers survive in Binary.op for ops whose Java spelling depends
        # on operand types; typing.py rewrites them.
        if sym == "**":
            raise LiftError("pow-operator", "use math.pow for a bit-exact lift")
        if sym == "/":
            return A.Binary(p, "/t", l, r)
        if sym == "//":
            return A.Binary(p, "/f", l, r)
        if sym == "%":
            return A.Binary(p, "%p", l, r)
        return A.Binary(p, sym, l, r)

    def _subscript(self, base, idx, p: Pos) -> A.Expr:
        if isinstance(base, _ShapeVal):
            if isinstance(idx, A.IntLit) and idx.value in (0, 1):
                return A.Length(p, base.var, axis=idx.value)
            raise LiftError("unsupported-subscript", "shape[<non-const>]")
        if isinstance(idx, _TupleIdx):
            indices = idx.items
        elif isinstance(idx, _ConstTuple):
            indices = [A.IntLit(p, v) for v in idx.values]
        elif isinstance(idx, _Marker):
            raise LiftError("unsupported-subscript", type(idx).__name__)
        else:
            indices = [idx]
        if len(indices) > 2:
            raise LiftError("unsupported-subscript", f"{len(indices)} indices")
        if isinstance(base, A.VarRef):
            return A.ArrayRef(p, base, indices)
        if isinstance(base, A.ArrayRef):
            if len(base.indices) + len(indices) > 2:
                raise LiftError("unsupported-subscript", ">2 chained indices")
            return A.ArrayRef(p, base.base, base.indices + indices)
        raise LiftError("unsupported-subscript", type(base).__name__)

    def _call(self, fn, args: list, p: Pos):
        if isinstance(fn, _GlobalVal):
            name = fn.name
            if name == "range":
                if not 1 <= len(args) <= 3:
                    raise LiftError("unsupported-call", f"range/{len(args)}")
                for a in args:
                    if isinstance(a, _Marker):
                        raise LiftError("unsupported-call", "opaque range bound")
                return _RangeVal(args)
            if name == "len":
                if len(args) == 1 and isinstance(args[0], A.VarRef):
                    return A.Length(p, args[0], axis=0)
                raise LiftError("unsupported-call", "len of non-array")
            if name == "int":
                return A.Cast(p, A.LONG, self._expr_arg(args, 1, name)[0])
            if name == "float":
                return A.Cast(p, A.DOUBLE, self._expr_arg(args, 1, name)[0])
            if name == "abs":
                return A.Call(p, "Math.abs", self._expr_arg(args, 1, name))
            if name in ("min", "max"):
                return A.Call(p, f"Math.{name}", self._expr_arg(args, 2, name))
            raise LiftError("unsupported-call", name)
        if isinstance(fn, _MathFn):
            if fn.name in ("floor", "ceil"):
                arg = self._expr_arg(args, 1, fn.name)
                # Python math.floor/ceil return int; Java's return double.
                return A.Cast(p, A.LONG, A.Call(p, f"Math.{fn.name}", arg))
            intr = _MATH_INTRINSICS.get(fn.name)
            if intr is None:
                if fn.name in ("exp", "log", "tan", "pow"):
                    raise LiftError("inexact-intrinsic", f"math.{fn.name}")
                raise LiftError("unsupported-call", f"math.{fn.name}")
            return A.Call(p, intr, self._expr_arg(args, 1, fn.name))
        raise LiftError("unsupported-call", type(fn).__name__)

    def _expr_arg(self, args: list, n: int, name: str) -> List[A.Expr]:
        if len(args) != n:
            raise LiftError("unsupported-call", f"{name}/{len(args)}")
        for a in args:
            if isinstance(a, _Marker):
                raise LiftError("unsupported-call", f"opaque argument to {name}")
        return args

    # -- control-flow recovery -------------------------------------------

    def _resolve(self, target: int) -> int:
        return resolve_target(self.instrs, self.off2idx, target)

    def lift(self) -> List[A.Stmt]:
        return self._lift_range(0, len(self.instrs), [], tail=True, outer=True)

    def _fold_ors(self, ors: list, cond: A.Expr, then_start_idx: int,
                  ins: NInstr) -> A.Expr:
        """Fold a pending ``or``-chain into the final condition."""
        for c, target in ors:
            if self._resolve(target) != then_start_idx:
                raise LiftError("complex-condition", "or-chain jump shape")
            cond = A.Binary(_pos(ins), "||", c, cond)
        del ors[:]
        return cond

    def _lift_range(self, lo: int, hi: int, loop_heads: List[int],
                    tail: bool, outer: bool = False) -> List[A.Stmt]:
        """Lift instrs[lo:hi) into a statement list.

        ``loop_heads`` holds the FOR_ITER offsets of enclosing lifted
        loops (innermost last); ``tail`` is True when the region ends at
        function exit on every path (where CPython duplicates ``return``
        instead of jumping); ``outer`` marks the function's top region,
        the only place a value ``return`` is representable.
        """
        instrs = self.instrs
        stmts: List[A.Stmt] = []
        stack: list = []
        ors: list = []  # pending (cond, PJIT target) of an or-chain
        i = lo
        while i < hi:
            ins = instrs[i]
            op = ins.op
            if op in _EXPR_OPS:
                if op == "LOAD_FAST" and ins.arg in self.loop_vars:
                    # reads are legal inside the owning loop; the escape
                    # check in lift_function rejects the rest.
                    pass
                self._step(ins, stack)
                i += 1
                continue
            if ors and op not in ("PJIF", "PJIT"):
                raise LiftError("complex-condition", f"{op} inside or-chain")

            if op == "STORE_FAST":
                val = self._pop(stack, ins)
                if isinstance(val, _Marker):
                    raise LiftError("opaque-store", f"{ins.arg} = {type(val).__name__}")
                stmts.append(A.Assign(_pos(ins), A.VarRef(_pos(ins), ins.arg), "", val))
                i += 1
            elif op == "STORE_SUBSCR":
                key = self._pop(stack, ins)
                container = self._pop(stack, ins)
                val = self._pop_expr(stack, ins)
                target = self._subscript(container, key, _pos(ins))
                if not isinstance(target, A.ArrayRef):
                    raise LiftError("unsupported-subscript", "store to non-array")
                stmts.append(A.Assign(_pos(ins), target, "", val))
                i += 1
            elif op == "POP_TOP":
                val = self._pop(stack, ins)
                if isinstance(val, A.Call):
                    stmts.append(A.ExprStmt(_pos(ins), val))
                i += 1
            elif op == "GET_ITER":
                i = self._lift_loop(i, hi, stack, stmts, loop_heads)
            elif op in ("PJIF", "PJIT"):
                i = self._lift_cond(i, hi, stack, stmts, ors, loop_heads, tail)
            elif op == "JUMP":
                if ins.target < ins.offset:
                    raise LiftError("while-loop", "backward jump outside for-range")
                raise LiftError("irreducible-control-flow", "break/continue")
            elif op == "RETURN":
                val = self._pop(stack, ins)
                if stack:
                    raise LiftError("stack-imbalance", "operands live at return")
                if isinstance(val, _NoneVal):
                    if loop_heads or not tail:
                        raise LiftError("early-return", "return inside a branch")
                    i += 1
                    if i != hi:
                        raise LiftError("irreducible-control-flow", "code after return")
                elif isinstance(val, _Marker):
                    raise LiftError("unsupported-constant", "return of opaque value")
                else:
                    if not (outer and tail) or loop_heads or i != hi - 1:
                        raise LiftError("early-return", "value return before tail")
                    stmts.append(
                        A.Assign(_pos(ins), A.VarRef(_pos(ins), RET_NAME), "", val)
                    )
                    self.has_ret = True
                    i += 1
            else:
                raise LiftError("irreducible-control-flow", f"unexpected {op}")
        if ors:
            raise LiftError("complex-condition", "dangling or-chain")
        if stack:
            raise LiftError("stack-imbalance", f"{len(stack)} operands at region end")
        return stmts

    def _lift_loop(self, i: int, hi: int, stack: list, stmts: List[A.Stmt],
                   loop_heads: List[int]) -> int:
        """GET_ITER at ``i``: recognize ``for <v> in range(...)``."""
        instrs = self.instrs
        ins = instrs[i]
        rng = self._pop(stack, ins)
        if not isinstance(rng, _RangeVal):
            raise LiftError("unsupported-call", "for over a non-range iterable")
        if stack:
            raise LiftError("stack-imbalance", "operands live at loop entry")
        fi = i + 1
        if fi >= hi or instrs[fi].op != "FOR_ITER":
            raise LiftError("irreducible-control-flow", "GET_ITER without FOR_ITER")
        head_off = instrs[fi].offset
        exit_idx = self._resolve(instrs[fi].target)
        if exit_idx > hi or exit_idx <= fi:
            raise LiftError("irreducible-control-flow", "loop exit leaves region")
        cont_idx = exit_idx
        if exit_idx < len(instrs) and instrs[exit_idx].op == "END_FOR":
            cont_idx = exit_idx + 1  # 3.12 epilogue
        body_end = exit_idx - 1
        back = instrs[body_end]
        if not (back.op == "JUMP" and back.target == head_off):
            raise LiftError("irreducible-control-flow", "missing loop back-edge")
        sv = instrs[fi + 1]
        if sv.op != "STORE_FAST":
            raise LiftError("irreducible-control-flow", "loop target is not a name")
        var = sv.arg
        if var in self.active_vars:
            raise LiftError(
                "irreducible-control-flow",
                f"loop counter {var!r} reused by a nested loop",
            )
        self.loop_vars.add(var)
        self.n_loops += 1

        p = _pos(instrs[fi])
        args = rng.args
        for bound in args:
            if isinstance(bound, A.Expr):
                for sub in A.walk(bound):
                    if isinstance(sub, A.VarRef) and sub.name == var:
                        # range(i) over a prior loop's final counter: the
                        # lifted VarDecl would shadow the value read here.
                        raise LiftError(
                            "loop-var-escapes", f"{var} used in its own bounds"
                        )
        if len(args) == 1:
            lo_e, hi_e, step = A.IntLit(p, 0), args[0], 1
        elif len(args) == 2:
            lo_e, hi_e, step = args[0], args[1], 1
        else:
            lo_e, hi_e = args[0], args[1]
            st = args[2]
            if not (isinstance(st, A.IntLit) and st.value > 0):
                raise LiftError("dynamic-step", "range step must be a positive const")
            step = st.value

        self.active_vars.append(var)
        try:
            body = self._lift_range(fi + 2, body_end, loop_heads + [head_off],
                                    tail=False)
        finally:
            self.active_vars.pop()
        init = A.VarDecl(p, A.INT, var, lo_e)
        cond = A.Binary(p, "<", A.VarRef(p, var), hi_e)
        if step == 1:
            update: A.Stmt = A.IncDec(p, A.VarRef(p, var), "++")
        else:
            update = A.Assign(p, A.VarRef(p, var), "+", A.IntLit(p, step))
        stmts.append(A.For(p, init, cond, update, A.Block(p, body), None))
        return cont_idx

    def _lift_cond(self, i: int, hi: int, stack: list, stmts: List[A.Stmt],
                   ors: list, loop_heads: List[int], tail: bool) -> int:
        """PJIF/PJIT at ``i``: if/else, or-chains, loop-tail conditionals."""
        instrs = self.instrs
        ins = instrs[i]
        cond = self._pop_expr(stack, ins)
        if ins.op == "PJIT":
            if ins.target > ins.offset:
                ors.append((cond, ins.target))
                return i + 1
            # `if c: continue`-style: true jumps back to the loop head,
            # so the rest of the body runs under !c.
            if ors:
                raise LiftError("complex-condition", "or-chain into backward jump")
            if not (loop_heads and ins.target == loop_heads[-1]):
                raise LiftError("while-loop", "conditional backward jump")
            if stack:
                raise LiftError("stack-imbalance", "operands live at branch")
            rest = self._lift_range(i + 1, hi, loop_heads, tail)
            p = _pos(ins)
            stmts.append(A.If(p, A.Unary(p, "!", cond), A.Block(p, rest), None))
            return hi

        # PJIF: false-jump to the else/merge point.
        if ins.target < ins.offset:
            if ors:
                raise LiftError("complex-condition", "or-chain into backward jump")
            if not (loop_heads and ins.target == loop_heads[-1]):
                raise LiftError("while-loop", "conditional backward jump")
            if stack:
                raise LiftError("stack-imbalance", "operands live at branch")
            rest = self._lift_range(i + 1, hi, loop_heads, tail)
            p = _pos(ins)
            stmts.append(A.If(p, cond, A.Block(p, rest), None))
            return hi

        cond = self._fold_ors(ors, cond, i + 1, ins)
        if stack:
            raise LiftError("stack-imbalance", "operands live at branch")
        t_idx = self._resolve(ins.target)
        if t_idx > hi:
            raise LiftError("irreducible-control-flow", "branch leaves region")
        p = _pos(ins)
        last = instrs[t_idx - 1] if t_idx - 1 > i else None
        if (
            last is not None
            and last.op == "JUMP"
            and last.target < last.offset
            and i < self._resolve(last.target) < t_idx
        ):
            # back-edge of a loop nested inside the then-branch; the
            # branch falls through to the merge -> plain if, no else.
            last = None
        if last is not None and last.op == "JUMP":
            if last.target < last.offset:
                # then-branch ends with the loop back-edge: if/else at the
                # bottom of a loop body; the else is the rest of the body.
                if not (loop_heads and last.target == loop_heads[-1]):
                    raise LiftError("while-loop", "backward jump outside for-range")
                then = self._lift_range(i + 1, t_idx - 1, loop_heads, False)
                els = self._lift_range(t_idx, hi, loop_heads, tail)
                stmts.append(A.If(p, cond, A.Block(p, then), A.Block(p, els)))
                return hi
            m_idx = self._resolve(last.target)
            if not (t_idx <= m_idx <= hi):
                raise LiftError("irreducible-control-flow", "if/else merge shape")
            branch_tail = tail and m_idx == hi
            then = self._lift_range(i + 1, t_idx - 1, loop_heads, branch_tail)
            els = self._lift_range(t_idx, m_idx, loop_heads, branch_tail)
            stmts.append(A.If(p, cond, A.Block(p, then), A.Block(p, els)))
            return m_idx
        if (
            tail
            and not loop_heads
            and t_idx < hi
            and t_idx - 2 > i
            and instrs[t_idx - 1].op == "RETURN"
            and instrs[t_idx - 2].op == "LOAD_CONST"
            and instrs[t_idx - 2].arg is None
        ):
            # the then-branch ends with its own duplicated ``return
            # None`` epilogue and the false-edge target starts the else
            # side; both run to function exit, so this is an if/else.
            then = self._lift_range(i + 1, t_idx - 2, loop_heads, False)
            els = self._lift_range(t_idx, hi, loop_heads, tail)
            stmts.append(A.If(p, cond, A.Block(p, then), A.Block(p, els)))
            return hi
        branch_tail = tail and t_idx == hi
        then = self._lift_range(i + 1, t_idx, loop_heads, branch_tail)
        stmts.append(A.If(p, cond, A.Block(p, then), None))
        return t_idx


# -- function-level entry ------------------------------------------------

_CO_GENERATOR = 0x20
_CO_COROUTINE = 0x80
_CO_ASYNC_GENERATOR = 0x200
_CO_VARARGS = 0x04
_CO_VARKEYWORDS = 0x08


def check_code_shape(fn) -> None:
    """Structural gates that need no bytecode walk.

    Raised before call-site argument typing so a ``*args`` function
    reports ``varargs`` (its real problem), not the type of whatever
    tuple happened to bind to the star parameter.
    """
    code = fn.__code__
    if code.co_flags & (_CO_GENERATOR | _CO_COROUTINE | _CO_ASYNC_GENERATOR):
        raise LiftError("generator", fn.__qualname__)
    if code.co_freevars or fn.__closure__:
        raise LiftError("closure", f"captures {code.co_freevars!r}")
    if code.co_cellvars:
        raise LiftError("closure", f"cells {code.co_cellvars!r}")
    if code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS) or code.co_kwonlyargcount:
        raise LiftError("varargs", fn.__qualname__)


def lift_function(fn) -> LiftedBody:
    """Lift ``fn``'s bytecode into untyped mini-Java statements.

    Raises :class:`LiftError` (with a FALLBACK_REASONS code) when the
    function is outside the liftable subset.
    """
    check_code_shape(fn)
    instrs = normalize(fn.__code__)
    lifter = _Lifter(instrs)
    stmts = lifter.lift()
    body = LiftedBody(
        stmts=stmts,
        has_ret=lifter.has_ret,
        loop_vars=set(lifter.loop_vars),
        n_loops=lifter.n_loops,
    )
    _check_loop_var_escapes(stmts, body.loop_vars)
    _check_bound_mutation(stmts)
    return body


def _check_bound_mutation(stmts: List[A.Stmt]) -> None:
    """Reject loops whose range() bounds are reassigned in the body.

    Python evaluates ``range(lo, hi, step)`` once at loop entry; the
    lifted ``for`` re-evaluates its condition every iteration, so a body
    write to a bound variable would change the trip count.
    """
    root = A.Block(Pos(0, 0), list(stmts))
    for node in A.walk(root):
        if not isinstance(node, A.For):
            continue
        bound_names = set()
        for e in (node.init.init if isinstance(node.init, A.VarDecl) else None,
                  node.cond.right if isinstance(node.cond, A.Binary) else None):
            if e is not None:
                for sub in A.walk(e):
                    if isinstance(sub, A.VarRef):
                        bound_names.add(sub.name)
                    elif isinstance(sub, A.Length):
                        bound_names.add(sub.array.name)
        if not bound_names:
            continue
        for sub in A.walk(node.body):
            if isinstance(sub, A.Assign) and isinstance(sub.target, A.VarRef) \
                    and sub.target.name in bound_names:
                raise LiftError("bound-mutated", sub.target.name)


def _check_loop_var_escapes(stmts: List[A.Stmt], loop_vars: Set[str]) -> None:
    """Reject any use of a loop counter outside its owning loop.

    Python keeps the counter's final value after the loop; the lifted
    ``for (int i = ...)`` scopes it inside, so an outside use (read *or*
    write — writes inside the body also diverge, since FOR_ITER would
    overwrite them) cannot be represented.
    """
    root = A.Block(Pos(0, 0), list(stmts))
    owned: Dict[str, Set[int]] = {v: set() for v in loop_vars}
    for node in A.walk(root):
        if isinstance(node, A.For) and isinstance(node.init, A.VarDecl):
            v = node.init.name
            if v in owned:
                inner = {id(n) for n in A.walk(node)}
                owned[v] |= inner
                # a write to the counter inside the body still diverges
                for sub in A.walk(node.body):
                    if isinstance(sub, A.Assign) and isinstance(sub.target, A.VarRef) \
                            and sub.target.name == v:
                        raise LiftError("index-assigned", v)
    for node in A.walk(root):
        if isinstance(node, A.VarRef) and node.name in owned:
            if id(node) not in owned[node.name]:
                raise LiftError("loop-var-escapes", node.name)
