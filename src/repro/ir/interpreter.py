"""Reference interpreter for the kernel IR.

Each :class:`IRFunction` is compiled once into per-block lists of Python
closures ("threaded code"), then executed per iteration index.  Memory is
accessed through a pluggable backend so that the same compiled kernel
serves:

* sequential / CPU-thread execution (:class:`DirectBackend`), and
* TLS speculative execution and dependency profiling
  (:class:`SpeculativeBackend` buffers writes per lane and logs read/write
  sets with per-lane memory-op timestamps, the SE-phase metadata of
  GPU-TLS, as a :class:`~repro.ir.columnar.ColumnarLanes`).

The interpreter also meters executed work (integer/float/special ops,
loads, stores, branches) — the dynamic instruction counts the runtime cost
model converts into simulated device time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import JaponicaError, MemoryFault
from . import java_ops
from .columnar import ColumnarLanes
from .instructions import (
    IRFunction,
    JType,
    Opcode,
    SPECIAL_OPS,
)


class FuelExhausted(JaponicaError):
    """Raised when a kernel exceeds its instruction budget (runaway loop)."""


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------

# Counter indices (kept as a plain list for speed in closures).
C_INT = 0
C_FLOAT = 1
C_SPECIAL = 2
C_LOAD = 3
C_STORE = 4
C_BRANCH = 5
C_INTRINSIC = 6
C_TOTAL = 7
N_COUNTERS = 8


def _instr_category(instr) -> tuple[int, ...]:
    """Counter indices (besides C_TOTAL) one instruction increments."""
    op = instr.op
    if op in (Opcode.CONST, Opcode.MOV, Opcode.RET):
        return ()
    if op is Opcode.BIN:
        if instr.binop in SPECIAL_OPS:
            return (C_SPECIAL,)
        return (C_FLOAT,) if instr.a.type.is_floating else (C_INT,)
    if op is Opcode.UN:
        return (C_FLOAT,) if instr.dst.type.is_floating else (C_INT,)
    if op is Opcode.CAST:
        return (C_INT,)
    if op is Opcode.LOAD:
        return (C_LOAD,)
    if op is Opcode.STORE:
        return (C_STORE,)
    if op is Opcode.CALL:
        return (C_INTRINSIC,)
    if op in (Opcode.BR, Opcode.CBR):
        return (C_BRANCH,)
    raise JaponicaError(f"unknown opcode {op}")


def block_counts(instrs) -> list[int]:
    """Raw counters one execution of a basic block adds: the static
    per-block fold every compiled tier charges."""
    fold = [0] * N_COUNTERS
    for instr in instrs:
        for cat in _instr_category(instr):
            fold[cat] += 1
        fold[C_TOTAL] += 1
    return fold


@dataclass
class Counts:
    """Dynamic work executed by one or more kernel iterations."""

    int_ops: int = 0
    float_ops: int = 0
    special_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    intrinsics: int = 0
    instructions: int = 0

    @classmethod
    def from_raw(cls, raw: list[int]) -> "Counts":
        return cls(
            int_ops=raw[C_INT],
            float_ops=raw[C_FLOAT],
            special_ops=raw[C_SPECIAL],
            loads=raw[C_LOAD],
            stores=raw[C_STORE],
            branches=raw[C_BRANCH],
            intrinsics=raw[C_INTRINSIC],
            instructions=raw[C_TOTAL],
        )

    def add_to_raw(self, raw: list[int]) -> None:
        """Accumulate into a raw counter list (hot-loop alternative to
        ``__add__``, which allocates a dataclass per step)."""
        raw[C_INT] += self.int_ops
        raw[C_FLOAT] += self.float_ops
        raw[C_SPECIAL] += self.special_ops
        raw[C_LOAD] += self.loads
        raw[C_STORE] += self.stores
        raw[C_BRANCH] += self.branches
        raw[C_INTRINSIC] += self.intrinsics
        raw[C_TOTAL] += self.instructions

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            self.int_ops + other.int_ops,
            self.float_ops + other.float_ops,
            self.special_ops + other.special_ops,
            self.loads + other.loads,
            self.stores + other.stores,
            self.branches + other.branches,
            self.intrinsics + other.intrinsics,
            self.instructions + other.instructions,
        )

    def scaled(self, factor: float) -> "Counts":
        """Counts scaled by a multiplicative factor (for extrapolation)."""
        return Counts(
            *(
                int(round(getattr(self, f) * factor))
                for f in (
                    "int_ops",
                    "float_ops",
                    "special_ops",
                    "loads",
                    "stores",
                    "branches",
                    "intrinsics",
                    "instructions",
                )
            )
        )

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores

    @property
    def flops(self) -> int:
        return self.float_ops + self.intrinsics


# ---------------------------------------------------------------------------
# Array storage
# ---------------------------------------------------------------------------

_JTYPE_FOR_DTYPE = {
    np.dtype("int32"): JType.INT,
    np.dtype("int64"): JType.LONG,
    np.dtype("float32"): JType.FLOAT,
    np.dtype("float64"): JType.DOUBLE,
    np.dtype("bool"): JType.BOOL,
}


class ArrayStorage:
    """Named nd-array memory spaces with bounds checking and flat addresses.

    Flat addresses (``row * ncols + col`` for 2-D) identify memory cells in
    dependence analysis and TLS metadata.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays: dict[str, np.ndarray] = {}
        self.shapes: dict[str, tuple[int, ...]] = {}
        for name, arr in arrays.items():
            self.bind(name, arr)

    def bind(self, name: str, arr: np.ndarray) -> None:
        if arr.dtype not in _JTYPE_FOR_DTYPE:
            raise MemoryFault(f"unsupported dtype {arr.dtype} for array {name!r}")
        if arr.ndim not in (1, 2):
            raise MemoryFault(f"array {name!r} must be 1-D or 2-D")
        self.arrays[name] = arr
        self.shapes[name] = arr.shape

    def flat(self, name: str, idx: tuple[int, ...]) -> int:
        """Bounds-check ``idx`` and return the flat cell address."""
        shape = self.shapes.get(name)
        if shape is None:
            raise MemoryFault(f"unbound array {name!r}")
        if len(idx) != len(shape):
            raise MemoryFault(
                f"array {name!r} has {len(shape)} dims, got {len(idx)} indices"
            )
        for k, (i, d) in enumerate(zip(idx, shape)):
            if not 0 <= i < d:
                raise MemoryFault(
                    f"index {i} out of bounds for axis {k} of {name!r} "
                    f"(size {d})"
                )
        if len(idx) == 1:
            return idx[0]
        return idx[0] * shape[1] + idx[1]

    def read_flat(self, name: str, flat: int):
        arr = self.arrays[name]
        value = arr.flat[flat]
        return value.item() if arr.dtype != np.bool_ else bool(value)

    def write_flat(self, name: str, flat: int, value) -> None:
        self.arrays[name].flat[flat] = value

    def snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of all arrays (for result verification)."""
        return {name: arr.copy() for name, arr in self.arrays.items()}


# ---------------------------------------------------------------------------
# Memory backends
# ---------------------------------------------------------------------------


class DirectBackend:
    """Reads and writes go straight to storage."""

    __slots__ = ("storage",)

    def __init__(self, storage: ArrayStorage):
        self.storage = storage

    def load(self, name: str, idx: tuple[int, ...]):
        flat = self.storage.flat(name, idx)
        return self.storage.read_flat(name, flat)

    def store(self, name: str, idx: tuple[int, ...], value) -> None:
        flat = self.storage.flat(name, idx)
        self.storage.write_flat(name, flat, value)

    def begin_lane(self) -> None:  # pragma: no cover - interface
        pass


class SpeculativeBackend:
    """SE-phase memory of GPU-TLS: buffered writes + read/write logs.

    Writes never touch global memory; they land in a per-array buffer
    keyed by (lane position, flat).  Reads are satisfied from the lane's
    own buffered writes when possible (intra-lane RAW can never
    violate), otherwise from global memory and logged for the
    dependency-checking phase.  Lanes must run in launch order: the
    n-th :meth:`begin_lane` is lane position n.  :meth:`finish` turns
    the logs into the launch's :class:`ColumnarLanes`.
    """

    __slots__ = ("storage", "names", "reads", "writes", "buffers", "_ids",
                 "_pos", "_op")

    def __init__(self, storage: ArrayStorage):
        self.storage = storage
        self.names: list[str] = []
        #: flat (pos, op, array_id, flat) rows, lane by lane
        self.reads: list[int] = []
        self.writes: list[int] = []
        #: array_id -> {(pos, flat): value}
        self.buffers: dict[int, dict[tuple[int, int], object]] = {}
        self._ids: dict[str, int] = {}
        self._pos = -1
        self._op = 0

    def begin_lane(self) -> None:
        self._pos += 1
        self._op = 0

    def _array_id(self, name: str) -> int:
        a = self._ids.get(name)
        if a is None:
            a = self._ids[name] = len(self.names)
            self.names.append(name)
            self.buffers[a] = {}
        return a

    def load(self, name: str, idx: tuple[int, ...]):
        flat = self.storage.flat(name, idx)
        a = self._array_id(name)
        cells = self.buffers[a]
        key = (self._pos, flat)
        if key in cells:
            value = cells[key]
        else:
            self.reads += (self._pos, self._op, a, flat)
            value = self.storage.read_flat(name, flat)
        self._op += 1
        return value

    def store(self, name: str, idx: tuple[int, ...], value) -> None:
        flat = self.storage.flat(name, idx)
        a = self._array_id(name)
        self.writes += (self._pos, self._op, a, flat)
        self._op += 1
        self.buffers[a][(self._pos, flat)] = value

    def finish(self, indices: Sequence[int]) -> ColumnarLanes:
        """The launch's log; ``indices`` are the iterations, in lane order."""
        return ColumnarLanes.build(
            indices, self.names, self.reads, self.writes, self.buffers,
            self.storage.arrays,
        )


# ---------------------------------------------------------------------------
# Compiled kernel
# ---------------------------------------------------------------------------


class CompiledKernel:
    """An :class:`IRFunction` compiled to per-block closure lists.

    Block bodies become lists of ``fn(regs) -> None`` closures over the
    shared memory backend and counters; terminators become
    ``fn(regs) -> int`` returning the next block id (or -1 for RET).
    """

    def __init__(self, fn: IRFunction, fuel: int = 200_000_000):
        self.fn = fn
        self.fuel = fuel
        self.counters = [0] * N_COUNTERS
        self.backend: Optional[object] = None
        self._block_ids = {blk.name: k for k, blk in enumerate(fn.blocks)}
        self._bodies: list[list[Callable]] = []
        self._terms: list[Callable] = []
        for blk in fn.blocks:
            body = [self._compile(instr) for instr in blk.instrs[:-1]]
            self._bodies.append(body)
            self._terms.append(self._compile_term(blk.instrs[-1]))

    # -- compilation ----------------------------------------------------

    def _compile(self, instr) -> Callable:
        counters = self.counters
        op = instr.op
        if op is Opcode.CONST:
            d = instr.dst.id
            v = instr.value
            def run(regs, d=d, v=v):
                regs[d] = v
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.MOV:
            d, a = instr.dst.id, instr.a.id
            def run(regs, d=d, a=a):
                regs[d] = regs[a]
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.BIN:
            d, a, b = instr.dst.id, instr.a.id, instr.b.id
            binop = instr.binop
            jt = instr.a.type
            cat = self._op_category(binop, jt)
            fn = java_ops.binop
            def run(regs, d=d, a=a, b=b, binop=binop, jt=jt, cat=cat, fn=fn):
                regs[d] = fn(binop, regs[a], regs[b], jt)
                counters[cat] += 1
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.UN:
            d, a = instr.dst.id, instr.a.id
            unop = instr.binop
            jt = instr.dst.type
            cat = C_FLOAT if jt.is_floating else C_INT
            fn = java_ops.unop
            def run(regs, d=d, a=a, unop=unop, jt=jt, cat=cat, fn=fn):
                regs[d] = fn(unop, regs[a], jt)
                counters[cat] += 1
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.CAST:
            d, a = instr.dst.id, instr.a.id
            src_t, dst_t = instr.a.type, instr.dst.type
            fn = java_ops.cast
            def run(regs, d=d, a=a, src_t=src_t, dst_t=dst_t, fn=fn):
                regs[d] = fn(regs[a], src_t, dst_t)
                counters[C_INT] += 1
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.LOAD:
            d = instr.dst.id
            array = instr.array
            idx_ids = tuple(r.id for r in instr.idx)
            def run(regs, d=d, array=array, idx_ids=idx_ids):
                idx = tuple(regs[i] for i in idx_ids)
                regs[d] = self.backend.load(array, idx)
                counters[C_LOAD] += 1
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.STORE:
            a = instr.a.id
            array = instr.array
            idx_ids = tuple(r.id for r in instr.idx)
            def run(regs, a=a, array=array, idx_ids=idx_ids):
                idx = tuple(regs[i] for i in idx_ids)
                self.backend.store(array, idx, regs[a])
                counters[C_STORE] += 1
                counters[C_TOTAL] += 1
            return run
        if op is Opcode.CALL:
            d = instr.dst.id
            name = instr.intrinsic
            arg_ids = tuple(r.id for r in instr.args)
            jt = instr.dst.type
            fn = java_ops.intrinsic
            def run(regs, d=d, name=name, arg_ids=arg_ids, jt=jt, fn=fn):
                regs[d] = fn(name, [regs[i] for i in arg_ids], jt)
                counters[C_INTRINSIC] += 1
                counters[C_TOTAL] += 1
            return run
        raise JaponicaError(f"non-terminator expected, got {op}")

    def _compile_term(self, instr) -> Callable:
        counters = self.counters
        op = instr.op
        if op is Opcode.BR:
            target = self._block_ids[instr.target]
            def run(regs, target=target):
                counters[C_BRANCH] += 1
                counters[C_TOTAL] += 1
                return target
            return run
        if op is Opcode.CBR:
            a = instr.a.id
            then_id = self._block_ids[instr.target]
            else_id = self._block_ids[instr.else_target]
            def run(regs, a=a, then_id=then_id, else_id=else_id):
                counters[C_BRANCH] += 1
                counters[C_TOTAL] += 1
                return then_id if regs[a] else else_id
            return run
        if op is Opcode.RET:
            def run(regs):
                counters[C_TOTAL] += 1
                return -1
            return run
        raise JaponicaError(f"terminator expected, got {op}")

    @staticmethod
    def _op_category(binop: str, jt: JType) -> int:
        if binop in SPECIAL_OPS:
            return C_SPECIAL
        if jt.is_floating:
            return C_FLOAT
        return C_INT

    # -- execution -------------------------------------------------------

    def run_index(
        self,
        index_value: int,
        scalar_env: dict[str, object],
        backend,
    ) -> None:
        """Execute the kernel body for one iteration index.

        ``scalar_env`` must bind every scalar parameter by name; a
        buffered backend takes successive calls as successive lanes.
        """
        self.backend = backend
        backend.begin_lane()
        regs: list = [None] * self.fn.num_regs
        regs[self.fn.index.id] = index_value
        for param in self.fn.scalars:
            try:
                regs[self.fn.scalar_regs[param.name].id] = scalar_env[param.name]
            except KeyError:
                raise JaponicaError(
                    f"kernel {self.fn.name!r} missing scalar {param.name!r}"
                ) from None

        counters = self.counters
        budget = self.fuel
        bodies = self._bodies
        terms = self._terms
        block = 0
        start_total = counters[C_TOTAL]
        while block >= 0:
            for fn in bodies[block]:
                fn(regs)
            block = terms[block](regs)
            if counters[C_TOTAL] - start_total > budget:
                raise FuelExhausted(
                    f"kernel {self.fn.name!r} exceeded {budget} instructions "
                    f"at index {index_value}"
                )

    def take_counts(self) -> Counts:
        """Return and reset the accumulated work counters."""
        counts = Counts.from_raw(self.counters)
        for k in range(N_COUNTERS):
            self.counters[k] = 0
        return counts

    def peek_counts(self) -> Counts:
        """Return accumulated counters without resetting."""
        return Counts.from_raw(self.counters)


def run_sequential(
    fn: IRFunction,
    storage: ArrayStorage,
    scalar_env: dict[str, object],
    start: int,
    stop: int,
    step: int = 1,
    kernel: Optional[CompiledKernel] = None,
) -> Counts:
    """Run iterations ``start, start+step, ... < stop`` in order.

    This is the sequential reference semantics every parallel execution
    must reproduce bit-for-bit.
    """
    kern = kernel or CompiledKernel(fn)
    backend = DirectBackend(storage)
    for i in range(start, stop, step):
        kern.run_index(i, scalar_env, backend)
    return kern.take_counts()
