"""Dynamic memory-coalescing estimation from profiled address streams.

For each memory-op slot (the lane-local op timestamp, which under
lock-step SIMD is the warp-wide issue slot), adjacent lanes of a warp
access addresses whose deltas determine how many memory transactions the
warp needs: unit stride (or broadcast) coalesces into one transaction;
scattered accesses serialize.  The estimate scales the GPU's effective
memory bandwidth in the cost model.
"""

from __future__ import annotations

import numpy as np

from ..ir.columnar import ColumnarLanes


def estimate_coalescing(
    col: ColumnarLanes, warp_size: int = 32, floor: float = 0.1
) -> float:
    """Fraction in (0, 1]: 1.0 = perfectly coalesced accesses.

    Computed as the fraction of adjacent-lane address pairs (same warp,
    same op slot, same array) whose flat-address delta is 0 (broadcast)
    or ±1 (unit stride).  Kernels with no comparable pairs default to 1.0.
    (warp, op, array) slots are grouped by sorting, then unit-position
    neighbours with |flat delta| <= 1 are counted.
    """
    pos = np.concatenate([col.r_pos, col.w_pos])
    op = np.concatenate([col.r_op, col.w_op])
    arr = np.concatenate([col.r_arr, col.w_arr])
    flat = np.concatenate([col.r_flat, col.w_flat])
    if len(pos) < 2:
        return 1.0
    warp = pos // warp_size
    s = np.lexsort((pos, arr, op, warp))
    pos, op, arr, flat, warp = pos[s], op[s], arr[s], flat[s], warp[s]
    same_slot = (
        (warp[1:] == warp[:-1]) & (op[1:] == op[:-1]) & (arr[1:] == arr[:-1])
    )
    adjacent = same_slot & (pos[1:] == pos[:-1] + 1)
    total = int(adjacent.sum())
    if total == 0:
        return 1.0
    good = int((adjacent & (np.abs(flat[1:] - flat[:-1]) <= 1)).sum())
    return max(floor, good / total)
