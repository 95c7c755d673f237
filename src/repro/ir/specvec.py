"""Vectorized speculative execution for straight-line kernels.

The SE phase of GPU-TLS (and every buffered profiling launch) runs the
kernel with a :class:`SpeculativeBackend`: writes land in per-lane
buffers, reads are forwarded from the lane's own buffer when possible,
and read/write sets are logged for dependency checking.  For
single-block kernels the whole launch is data-independent per lane, so
the address streams, buffers and logs can be produced with NumPy over
all lanes at once — this module is the buffered-mode twin of
:class:`repro.ir.vectorizer.VectorizedKernel` and must match the scalar
backend observationally:

* identical work :class:`Counts` (every LOAD/STORE is metered whether or
  not the read hits the lane buffer, exactly like the closure path);
* identical logs — a read is logged only for lanes whose cell is *not*
  in their buffer, a write is always logged, and the per-lane ``op``
  timestamp is the memory-op ordinal, which in straight-line code is the
  static site index and therefore uniform across lanes;
* identical buffered values — store operands are coerced to the array
  element type (lowering inserts the cast, ``java_ops`` rounds FLOAT
  registers to binary32), so buffering them at ``arr.dtype`` forwards
  bit-identical values.

Bounds faults are raised before any observable effect (buffered mode
never mutates storage), though fault *identity* may differ from the
scalar path: this path reports the first faulting instruction across
lanes, the scalar loop the first faulting lane — the same trade the
direct vectorized path already makes.
"""

from __future__ import annotations

import numpy as np

from ..errors import JaponicaError, MemoryFault
from .columnar import ColumnarLanes
from .instructions import IRFunction, Opcode, SPECIAL_OPS
from .interpreter import (
    ArrayStorage,
    C_FLOAT,
    C_INT,
    C_INTRINSIC,
    C_LOAD,
    C_SPECIAL,
    C_STORE,
    C_TOTAL,
    Counts,
    N_COUNTERS,
)
from .vectorizer import (
    _NP_TYPE,
    _broadcast,
    _vbinop,
    _vcast,
    _vintrinsic,
    _vunop,
    can_vectorize,
)


class VectorizedSpecKernel:
    """Buffered (speculative) execution of a straight-line kernel."""

    def __init__(self, fn: IRFunction):
        if not can_vectorize(fn):
            raise JaponicaError(
                f"kernel {fn.name!r} has control flow and cannot be vectorized"
            )
        self.fn = fn
        self._instrs = fn.entry.instrs

    def run_buffered(
        self,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: np.ndarray,
    ) -> tuple[Counts, ColumnarLanes]:
        """Execute all lanes speculatively; return (counts, columnar lanes)."""
        fn = self.fn
        n = int(indices.shape[0])
        order = indices.astype(np.int64)
        names: list[str] = []
        aid: dict[str, int] = {}

        def array_id(name: str) -> int:
            a = aid.get(name)
            if a is None:
                a = aid[name] = len(names)
                names.append(name)
            return a

        if n == 0:
            empty = (np.empty(0, np.int64),) * 4
            return Counts(), ColumnarLanes(order, names, empty, empty, {})

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

        raw = [0] * N_COUNTERS
        op_slot = 0
        #: array_id -> ordered list of (op slot, flats[n], values[n])
        store_sites: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        #: logged reads: (op slot, array_id, lane positions, flats)
        read_parts: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        #: logged writes: (op slot, array_id, flats[n])
        write_parts: list[tuple[int, int, np.ndarray]] = []

        for instr in self._instrs:
            op = instr.op
            if op is Opcode.CONST:
                regs[instr.dst.id] = _NP_TYPE[instr.dst.type](instr.value)
                raw[C_TOTAL] += n
            elif op is Opcode.MOV:
                regs[instr.dst.id] = regs[instr.a.id]
                raw[C_TOTAL] += n
            elif op is Opcode.BIN:
                regs[instr.dst.id] = _vbinop(
                    instr.binop,
                    regs[instr.a.id],
                    regs[instr.b.id],
                    instr.a.type,
                )
                cat = (
                    C_SPECIAL
                    if instr.binop in SPECIAL_OPS
                    else (C_FLOAT if instr.a.type.is_floating else C_INT)
                )
                raw[cat] += n
                raw[C_TOTAL] += n
            elif op is Opcode.UN:
                regs[instr.dst.id] = _vunop(
                    instr.binop, regs[instr.a.id], instr.dst.type
                )
                raw[C_FLOAT if instr.dst.type.is_floating else C_INT] += n
                raw[C_TOTAL] += n
            elif op is Opcode.CAST:
                regs[instr.dst.id] = _vcast(
                    regs[instr.a.id], instr.a.type, instr.dst.type
                )
                raw[C_INT] += n
                raw[C_TOTAL] += n
            elif op is Opcode.LOAD:
                a_id = array_id(instr.array)
                vecs, flats = _flat_addresses(
                    storage, instr.array, [regs[r.id] for r in instr.idx], n
                )
                arr = storage.arrays[instr.array]
                cur = arr[tuple(vecs)] if len(vecs) > 1 else arr[vecs[0]]
                unhit = np.ones(n, dtype=bool)
                for _slot, s_flats, s_vals in store_sites.get(a_id, ()):
                    m = s_flats == flats
                    cur = np.where(m, s_vals, cur)
                    unhit &= ~m
                read_parts.append(
                    (op_slot, a_id, np.nonzero(unhit)[0], flats[unhit])
                )
                regs[instr.dst.id] = cur
                op_slot += 1
                raw[C_LOAD] += n
                raw[C_TOTAL] += n
            elif op is Opcode.STORE:
                a_id = array_id(instr.array)
                _vecs, flats = _flat_addresses(
                    storage, instr.array, [regs[r.id] for r in instr.idx], n
                )
                arr = storage.arrays[instr.array]
                vals = _broadcast(regs[instr.a.id], n, arr.dtype)
                if arr.dtype.kind in "iu":
                    with np.errstate(over="ignore"):
                        vals = np.asarray(vals).astype(arr.dtype)
                else:
                    vals = np.asarray(vals, dtype=arr.dtype)
                write_parts.append((op_slot, a_id, flats))
                store_sites.setdefault(a_id, []).append(
                    (op_slot, flats, vals.copy())
                )
                op_slot += 1
                raw[C_STORE] += n
                raw[C_TOTAL] += n
            elif op is Opcode.CALL:
                regs[instr.dst.id] = _vintrinsic(
                    instr.intrinsic,
                    [regs[r.id] for r in instr.args],
                    instr.dst.type,
                )
                raw[C_INTRINSIC] += n
                raw[C_TOTAL] += n
            elif op is Opcode.RET:
                raw[C_TOTAL] += n
            else:  # BR/CBR cannot appear in a single-block kernel
                raise JaponicaError(f"unexpected opcode {op} in vector path")

        reads = _finalize_log(
            [(s, a, p, f) for (s, a, p, f) in read_parts]
        )
        writes = _finalize_log(
            [(s, a, np.arange(n, dtype=np.int64), f)
             for (s, a, f) in write_parts]
        )
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        lane_pos = np.arange(n, dtype=np.int64)
        for a_id, sites in store_sites.items():
            f = np.concatenate([flats for _s, flats, _v in sites])
            v = np.concatenate([vals for _s, _f, vals in sites])
            pos = np.tile(lane_pos, len(sites))
            site_ord = np.repeat(np.arange(len(sites)), n)
            s = np.lexsort((site_ord, f, pos))
            pos, f, v = pos[s], f[s], v[s]
            last = np.ones(len(pos), dtype=bool)
            last[:-1] = (pos[:-1] != pos[1:]) | (f[:-1] != f[1:])
            buffers[a_id] = (pos[last], f[last], v[last])

        lanes = ColumnarLanes(order, names, reads, writes, buffers)
        return Counts.from_raw(raw), lanes


def _flat_addresses(storage: ArrayStorage, name: str, idx, n: int):
    """Bounds-check index vectors and return (vecs, flat addresses)."""
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
    if len(vecs) > 1:
        flats = vecs[0] * shape[1] + vecs[1]
    else:
        flats = vecs[0].astype(np.int64, copy=False)
    return vecs, flats


def _finalize_log(parts):
    """Concatenate per-site log fragments into (pos, op, arr, flat) columns
    sorted by (pos, op) — i.e. grouped per lane in log order."""
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), e.copy()
    pos = np.concatenate([p for _s, _a, p, _f in parts])
    op = np.concatenate([
        np.full(len(p), s, dtype=np.int64) for s, _a, p, _f in parts
    ])
    arr = np.concatenate([
        np.full(len(p), a, dtype=np.int64) for _s, a, p, _f in parts
    ])
    flat = np.concatenate([f for _s, _a, _p, f in parts]).astype(
        np.int64, copy=False
    )
    s = np.lexsort((op, pos))
    return pos[s], op[s], arr[s], flat[s]
