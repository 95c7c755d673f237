"""Test-only helpers around the columnar SE log.

``build_log`` turns hand-written per-lane fixtures into a
:class:`ColumnarLanes`; ``lane_view`` reads a log back as per-lane
records, the shape the reference oracles in :mod:`tests.oracles`
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.ir.columnar import ColumnarLanes


class Record(NamedTuple):
    """One logged memory access: per-lane op timestamp, kind, cell."""

    op: int
    kind: str  # 'R' or 'W'
    array: str
    flat: int


@dataclass
class Lane:
    """One lane's speculative state: write buffer plus access logs."""

    buffer: dict[tuple[str, int], object] = field(default_factory=dict)
    reads: list[Record] = field(default_factory=list)
    writes: list[Record] = field(default_factory=list)


def lane(reads=(), writes=(), value=0.0) -> Lane:
    """Reads then writes of ``(array, flat)`` cells, with consecutive op
    stamps; every write buffers ``value``."""
    state = Lane()
    op = 0
    for array, flat in reads:
        state.reads.append(Record(op, "R", array, flat))
        op += 1
    for array, flat in writes:
        state.writes.append(Record(op, "W", array, flat))
        state.buffer[(array, flat)] = value
        op += 1
    return state


def build_log(
    lanes: Mapping[int, Lane], order: Sequence[int]
) -> ColumnarLanes:
    """The columnar log of per-lane fixtures launched in ``order``.

    Iterations of ``order`` without a fixture ran with empty logs.
    """
    names: list[str] = []
    ids: dict[str, int] = {}

    def array_id(name: str) -> int:
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    rows: dict[str, list[tuple[int, int, int, int]]] = {"R": [], "W": []}
    cells: dict[int, list[tuple[int, int, object]]] = {}
    for pos, it in enumerate(order):
        state = lanes.get(it)
        if state is None:
            continue
        for rec in sorted(state.reads + state.writes, key=lambda r: r.op):
            rows[rec.kind].append((pos, rec.op, array_id(rec.array), rec.flat))
        for (name, flat), value in state.buffer.items():
            cells.setdefault(array_id(name), []).append((pos, flat, value))

    def columns(kind):
        if not rows[kind]:
            return (np.empty(0, dtype=np.int64),) * 4
        return tuple(np.array(rows[kind], dtype=np.int64).T.copy())

    buffers = {}
    for a_id, entries in cells.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        pos, flat, value = zip(*entries)
        buffers[a_id] = (
            np.array(pos, dtype=np.int64),
            np.array(flat, dtype=np.int64),
            np.asarray(value),
        )
    return ColumnarLanes(
        np.asarray(order, dtype=np.int64), names,
        columns("R"), columns("W"), buffers,
    )


def lane_view(log: ColumnarLanes) -> dict[int, Lane]:
    """Per-lane records of a log, keyed by iteration in lane order."""
    names = log.names
    view: dict[int, Lane] = {}
    for pos, it in enumerate(log.order):
        state = Lane()
        lo, hi = np.searchsorted(log.r_pos, [pos, pos + 1])
        for o, a, f in zip(
            log.r_op[lo:hi], log.r_arr[lo:hi], log.r_flat[lo:hi]
        ):
            state.reads.append(Record(int(o), "R", names[a], int(f)))
        lo, hi = np.searchsorted(log.w_pos, [pos, pos + 1])
        for o, a, f in zip(
            log.w_op[lo:hi], log.w_arr[lo:hi], log.w_flat[lo:hi]
        ):
            state.writes.append(Record(int(o), "W", names[a], int(f)))
        for a_id, (b_pos, b_flat, b_val) in log.buffers.items():
            lo, hi = np.searchsorted(b_pos, [pos, pos + 1])
            for f, v in zip(b_flat[lo:hi], b_val[lo:hi]):
                state.buffer[(names[a_id], int(f))] = v.item()
        view[int(it)] = state
    return view
