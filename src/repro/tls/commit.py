"""Commit phase: apply clean speculative buffers to memory.

Buffers are applied in iteration order so overlapping writes resolve to
the sequentially-last writer.  Only the clean *prefix* of a sub-loop (all
iterations before the earliest violation) commits; the paper commits "those
threads not found to have violations", and a non-violating thread that
follows a violating one stays safe here too because it is simply
re-executed after recovery — a strictly conservative refinement that keeps
re-executed writes from invalidating already-committed state.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.columnar import ColumnarLanes
from ..ir.interpreter import ArrayStorage


def commit_iterations(
    lanes: ColumnarLanes,
    storage: ArrayStorage,
    iterations: Sequence[int],
) -> tuple[int, int]:
    """Apply the buffers of ``iterations`` (in the given sequential order).

    Returns ``(cells_written, bytes_written)``.
    """
    return lanes.commit(storage, iterations)
