"""Dependency-checking (DC) phase of GPU-TLS.

After speculative execution of a sub-loop, the DC phase scans the access
metadata to find RAW violations: an iteration whose upward-exposed read
touched a cell that a *sequentially earlier* iteration of the same
sub-loop wrote.  (WAR needs no check — buffered reads always see pre-
sub-loop state, which is the sequentially correct value for a read that
precedes the write.  WAW needs no check — commit applies buffers in
iteration order, so the last writer wins as in sequential execution.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..ir.columnar import ColumnarLanes, cell_keys, dedup_first


@dataclass
class Violation:
    """One RAW violation found by the DC phase."""

    iteration: int  # the violating (reading) iteration
    src_iteration: int  # the earlier writer
    array: str
    flat: int


@dataclass
class DcResult:
    """Outcome of the DC phase over one sub-loop."""

    violations: list[Violation] = field(default_factory=list)
    #: position (within the sub-loop order) of the earliest violator
    first_violation_pos: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violating_iterations(self) -> set[int]:
        return {v.iteration for v in self.violations}


def check_subloop(col: ColumnarLanes) -> DcResult:
    """Find RAW violations among a sub-loop's iterations.

    The sub-loop's sequential order is the launch's lane order.  The
    latest strictly-earlier writer per deduped read comes from one
    searchsorted over (cell, position)-sorted writes, then the first
    violating read per iteration is kept (logs are (pos, op)-sorted,
    and a cell's violation status is op-independent, so
    first-occurrence dedup preserves which read reports the violation).
    """
    result = DcResult()
    r_keys, w_keys, m = cell_keys(col)
    rp, _ro, rk = dedup_first(col.r_pos, col.r_op, r_keys)
    if len(rp) == 0 or len(col.w_pos) == 0:
        return result
    ws_ord = np.lexsort((col.w_pos, w_keys))
    Wk, Wp = w_keys[ws_ord], col.w_pos[ws_ord]
    n = col.n_positions
    idx = np.searchsorted(Wk * (n + 1) + Wp, rk * (n + 1) + rp, side="left")
    cand = np.maximum(idx - 1, 0)
    valid = (idx > 0) & (Wk[cand] == rk)
    if not valid.any():
        return result
    vp, vk, vsrc = rp[valid], rk[valid], Wp[cand][valid]
    first = np.ones(len(vp), dtype=bool)
    first[1:] = vp[1:] != vp[:-1]
    order_arr = col.order
    for p, k, src in zip(vp[first], vk[first], vsrc[first]):
        result.violations.append(
            Violation(
                int(order_arr[p]),
                int(order_arr[src]),
                col.names[int(k) // m],
                int(k) % m,
            )
        )
    result.first_violation_pos = int(vp[0])
    return result
