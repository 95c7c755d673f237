"""Write-buffer utilities for the TLS engine."""

from __future__ import annotations

from typing import Sequence

from ..ir.columnar import ColumnarLanes
from ..ir.interpreter import ArrayStorage


def buffered_cells(lanes: ColumnarLanes) -> int:
    """Total buffered cells across lanes (commit-volume metric)."""
    return lanes.buffered_cells()


def buffered_bytes(
    lanes: ColumnarLanes,
    storage: ArrayStorage,
    iterations: Sequence[int] | None = None,
) -> int:
    """Bytes the commit phase must move for the given iterations."""
    return lanes.buffered_bytes(storage, iterations)


def metadata_entries(
    lanes: ColumnarLanes,
    iterations: Sequence[int] | None = None,
) -> int:
    """Logged accesses the dependency-checking phase must scan."""
    return lanes.metadata_entries(iterations)
