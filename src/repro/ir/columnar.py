"""Columnar speculative-access logs: the one form of the SE-phase log.

A buffered launch over ``n`` lanes produces, per lane, a write buffer
plus read/write logs.  Every buffered tier — the interpreter's
:class:`~repro.ir.interpreter.SpeculativeBackend`, the generated-source
``buffered`` kernel and the buffered vector tier — writes them straight
into NumPy columns, and every analysis (density, coalescing, stride
compression, dependency checking, commit) reads those columns:

* ``order`` — iteration id per lane *position*;
* read/write columns ``(pos, op, array_id, flat)`` sorted by
  ``(pos, op)`` — i.e. grouped per lane in log order;
* per-array buffer columns ``(pos, flat, value)`` with one row per
  final buffered cell, sorted by ``(pos, flat)``, values at the array's
  element dtype.

Invariant relied upon by the analyses: within a lane the log rows are
op-ascending (every builder appends with a monotonically increasing op
counter).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .interpreter import ArrayStorage

_EMPTY = np.empty(0, dtype=np.int64)


def _log_columns(rows: list[int]) -> tuple[np.ndarray, ...]:
    """Split a flat ``(pos, op, array_id, flat)*`` int list into columns."""
    if not rows:
        return (_EMPTY,) * 4
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy())


class ColumnarLanes:
    """Columnar per-lane speculative state of one buffered launch."""

    def __init__(
        self,
        order: np.ndarray,
        names: list[str],
        reads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        writes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
    ):
        self.order = order
        self.names = names
        self.r_pos, self.r_op, self.r_arr, self.r_flat = reads
        self.w_pos, self.w_op, self.w_arr, self.w_flat = writes
        #: array_id -> (pos, flat, value) final buffered cells, unique per
        #: (pos, flat), sorted by (pos, flat)
        self.buffers = buffers

    @classmethod
    def build(
        cls,
        indices: Sequence[int],
        names: list[str],
        reads: list[int],
        writes: list[int],
        buffers: Mapping[int, Mapping[tuple[int, int], object]],
        arrays: Mapping[str, np.ndarray],
    ) -> "ColumnarLanes":
        """Columns from an interp or src buffered launch.

        ``reads``/``writes`` are flat ``(pos, op, array_id, flat)`` int
        lists appended lane by lane; ``buffers`` maps an array id to its
        ``{(pos, flat): value}`` buffered cells.  Values are stored at
        the element dtype of ``arrays[name]``, the dtype commit writes.
        """
        cols: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for a_id, cells in buffers.items():
            if not cells:
                continue
            keys = np.array(list(cells), dtype=np.int64).reshape(-1, 2)
            vals = np.array(
                list(cells.values()), dtype=arrays[names[a_id]].dtype
            )
            s = np.lexsort((keys[:, 1], keys[:, 0]))
            cols[a_id] = (keys[s, 0], keys[s, 1], vals[s])
        return cls(
            np.asarray(indices, dtype=np.int64), names,
            _log_columns(reads), _log_columns(writes), cols,
        )

    # -- queries ----------------------------------------------------------

    @property
    def n_positions(self) -> int:
        return len(self.order)

    def logged_accesses(self) -> int:
        """Total logged reads + writes (the DD analysis input volume)."""
        return len(self.r_pos) + len(self.w_pos)

    def _wanted_mask(self, iterations) -> np.ndarray:
        wanted = np.unique(np.fromiter(iterations, dtype=np.int64))
        return np.isin(self.order, wanted)

    def metadata_entries(self, iterations=None) -> int:
        if iterations is None:
            return self.logged_accesses()
        mask = self._wanted_mask(iterations)
        return int(mask[self.r_pos].sum() + mask[self.w_pos].sum())

    def buffered_cells(self) -> int:
        return sum(len(b_pos) for b_pos, _f, _v in self.buffers.values())

    def buffered_bytes(self, storage: ArrayStorage, iterations=None) -> int:
        mask = None if iterations is None else self._wanted_mask(iterations)
        total = 0
        for a_id, (b_pos, _f, _v) in self.buffers.items():
            rows = len(b_pos) if mask is None else int(mask[b_pos].sum())
            total += rows * storage.arrays[self.names[a_id]].dtype.itemsize
        return total

    # -- commit -----------------------------------------------------------

    def commit(
        self, storage: ArrayStorage, iterations: Sequence[int]
    ) -> tuple[int, int]:
        """Apply buffers of ``iterations`` in the given sequential order.

        Returns ``(cells_written, bytes_written)``; the last lane (in the
        given order) to buffer a cell wins, matching sequential semantics.
        """
        commit = np.fromiter(iterations, dtype=np.int64)
        if len(commit) == 0 or not self.buffers:
            return 0, 0
        # rank of each lane position in the commit sequence (-1 = skip)
        rank_of_pos = np.full(len(self.order), -1, dtype=np.int64)
        o_sort = np.argsort(self.order, kind="stable")
        idx = np.searchsorted(self.order[o_sort], commit)
        ok = idx < len(o_sort)
        cand = o_sort[idx[ok]]
        hit = self.order[cand] == commit[ok]
        rank_of_pos[cand[hit]] = np.nonzero(ok)[0][hit]
        cells = 0
        nbytes = 0
        for a_id, (b_pos, b_flat, b_val) in self.buffers.items():
            rank = rank_of_pos[b_pos]
            sel = rank >= 0
            rows = int(sel.sum())
            if rows == 0:
                continue
            f, r, v = b_flat[sel], rank[sel], b_val[sel]
            s = np.lexsort((r, f))
            f, v = f[s], v[s]
            last = np.ones(len(f), dtype=bool)
            last[:-1] = f[:-1] != f[1:]
            arr = storage.arrays[self.names[a_id]]
            arr.flat[f[last]] = v[last]
            cells += rows
            nbytes += rows * arr.dtype.itemsize
        return cells, nbytes


def _same_values(u: np.ndarray, v: np.ndarray) -> bool:
    """Bitwise equality that also matches NaN against NaN (any payload)."""
    if u.dtype != v.dtype or u.shape != v.shape:
        return False
    if u.dtype.kind == "f":
        nan_u, nan_v = np.isnan(u), np.isnan(v)
        if not np.array_equal(nan_u, nan_v):
            return False
        u, v = u[~nan_u], v[~nan_v]
    return u.tobytes() == v.tobytes()


def log_differences(a: ColumnarLanes, b: ColumnarLanes) -> list[str]:
    """The columns on which two logs differ (empty: the same log).

    Array ids are compared by name, so two tiers may number arrays
    differently; buffer values are compared bitwise, NaN-aware.
    """
    diffs: list[str] = []
    if not np.array_equal(a.order, b.order):
        diffs.append("lane order")
    index = {name: k for k, name in enumerate(a.names)}
    remap = np.array([index.get(n, -1) for n in b.names], dtype=np.int64)
    for kind, x, y in (
        (
            "read",
            (a.r_pos, a.r_op, a.r_arr, a.r_flat),
            (b.r_pos, b.r_op, remap[b.r_arr], b.r_flat),
        ),
        (
            "write",
            (a.w_pos, a.w_op, a.w_arr, a.w_flat),
            (b.w_pos, b.w_op, remap[b.w_arr], b.w_flat),
        ),
    ):
        for col, u, v in zip(("pos", "op", "array", "flat"), x, y):
            if not np.array_equal(u, v):
                diffs.append(f"{kind} {col} column")
    bufs_a = {a.names[k]: cols for k, cols in a.buffers.items()}
    bufs_b = {b.names[k]: cols for k, cols in b.buffers.items()}
    if set(bufs_a) != set(bufs_b):
        diffs.append("buffered arrays")
    for name in sorted(bufs_a.keys() & bufs_b.keys()):
        (pa, fa, va), (pb, fb, vb) = bufs_a[name], bufs_b[name]
        if not (np.array_equal(pa, pb) and np.array_equal(fa, fb)):
            diffs.append(f"buffer cells of {name!r}")
        elif not _same_values(va, vb):
            diffs.append(f"buffer values of {name!r}")
    return diffs


# ---------------------------------------------------------------------------
# Shared column kit for the vectorized analyses
# ---------------------------------------------------------------------------


def cell_keys(col: ColumnarLanes) -> tuple[np.ndarray, np.ndarray, int]:
    """Encode (array, flat) cells as single int64 keys for both logs.

    Returns ``(read_keys, write_keys, M)`` with ``key = array_id * M +
    flat``; ``key // M`` recovers the array id.
    """
    m = 0
    if len(col.r_flat):
        m = max(m, int(col.r_flat.max()))
    if len(col.w_flat):
        m = max(m, int(col.w_flat.max()))
    m += 1
    return col.r_arr * m + col.r_flat, col.w_arr * m + col.w_flat, m


def dedup_first(
    pos: np.ndarray, op: np.ndarray, key: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First occurrence per (lane position, cell key), in scan order.

    The analyses consider each cell once per iteration, keeping the
    first log entry; rows come in (pos, op)-sorted and leave the same
    way.
    """
    if len(pos) == 0:
        return pos, op, key
    s = np.lexsort((op, key, pos))
    p, o, k = pos[s], op[s], key[s]
    first = np.ones(len(p), dtype=bool)
    first[1:] = (p[1:] != p[:-1]) | (k[1:] != k[:-1])
    p, o, k = p[first], o[first], k[first]
    s2 = np.lexsort((o, p))
    return p[s2], o[s2], k[s2]


def first_seen_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank cells by first appearance in a scan-ordered key column.

    Returns ``(uniq_sorted, rank)``: for the sorted unique keys, the
    order in which each was first seen.  Look up a key's rank with
    ``rank[np.searchsorted(uniq_sorted, key)]``.
    """
    uniq, first_idx = np.unique(keys, return_index=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(len(uniq))
    return uniq, rank
