"""Stride-compressed access traces (after Prospector / SD3).

The paper's related work singles out SD3 [Kim et al., MICRO-43]: memory
profiles are kept tractable by storing *stride patterns* instead of raw
address lists.  This module provides that representation for our
profiler's traces: a lane's accesses to an array compress to
``(base, stride, count)`` runs, dependence intersection tests run
directly on the compressed form (a bounded-diophantine check), and the
profiler reports the achieved compression ratio.

For the regular affine kernels of the suite the ratio is enormous (one
pattern per access site); irregular kernels (BFS, CFD) degrade
gracefully toward one pattern per access — exactly the trade-off the
SD3 paper describes for strided vs. non-strided behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..ir.columnar import ColumnarLanes


@dataclass(frozen=True)
class StridePattern:
    """Addresses ``base, base+stride, ..., base+(count-1)*stride``.

    ``stride`` may be 0 (a repeated address) only with ``count == 1``
    after normalization; zero-stride runs collapse to a single entry.
    """

    base: int
    stride: int
    count: int

    @property
    def last(self) -> int:
        return self.base + (self.count - 1) * self.stride

    @property
    def lo(self) -> int:
        return min(self.base, self.last)

    @property
    def hi(self) -> int:
        return max(self.base, self.last)

    def addresses(self) -> list[int]:
        return [self.base + k * self.stride for k in range(self.count)]

    def contains(self, addr: int) -> bool:
        if self.count == 1:
            return addr == self.base
        offset = addr - self.base
        if offset % self.stride != 0:
            return False
        k = offset // self.stride
        return 0 <= k < self.count


def compress_addresses(addrs: Sequence[int]) -> list[StridePattern]:
    """Greedy run-length stride compression of an address sequence.

    Consecutive addresses with a common difference fold into one
    pattern; repeated addresses collapse (a profile is a *set* of
    touched cells per iteration, duplicates carry no extra dependence
    information).
    """
    out: list[StridePattern] = []
    i = 0
    n = len(addrs)
    while i < n:
        base = addrs[i]
        if i + 1 >= n:
            out.append(StridePattern(base, 0, 1))
            break
        stride = addrs[i + 1] - base
        if stride == 0:
            # skip duplicates of base
            j = i + 1
            while j < n and addrs[j] == base:
                j += 1
            out.append(StridePattern(base, 0, 1))
            i = j
            continue
        count = 2
        j = i + 2
        while j < n and addrs[j] - addrs[j - 1] == stride:
            count += 1
            j += 1
        out.append(StridePattern(base, stride, count))
        i = j
    return _merge_singletons(out)


def _merge_singletons(patterns: list[StridePattern]) -> list[StridePattern]:
    """Collapse exact-duplicate singleton patterns."""
    seen: set[tuple[int, int, int]] = set()
    out = []
    for p in patterns:
        key = (p.base, p.stride, p.count)
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


def patterns_intersect(a: StridePattern, b: StridePattern) -> bool:
    """Do two patterns share an address?  Solved without expansion.

    Find integer k1 in [0, a.count), k2 in [0, b.count) with
    ``a.base + k1*a.stride == b.base + k2*b.stride`` — a bounded linear
    diophantine equation: solvable only when gcd(a.stride, b.stride)
    divides the base difference, then checked over the smaller
    pattern's residue-aligned range.
    """
    if a.hi < b.lo or b.hi < a.lo:
        return False  # disjoint bounding boxes
    if a.count == 1:
        return b.contains(a.base)
    if b.count == 1:
        return a.contains(b.base)
    g = math.gcd(abs(a.stride), abs(b.stride))
    if (b.base - a.base) % g != 0:
        return False
    # walk the sparser pattern (fewer elements) and membership-test the
    # other; the gcd filter keeps this from being the common case
    small, large = (a, b) if a.count <= b.count else (b, a)
    step = abs(large.stride) // g if large.stride else 1
    # only every `step`-th element of `small` can be congruent
    for k in range(small.count):
        addr = small.base + k * small.stride
        if large.contains(addr):
            return True
    return False


def any_intersection(
    writes: Iterable[StridePattern], reads: Iterable[StridePattern]
) -> bool:
    """Do any write pattern and read pattern overlap?"""
    writes = list(writes)
    for r in reads:
        for w in writes:
            if patterns_intersect(w, r):
                return True
    return False


@dataclass
class CompressedTrace:
    """Stride-compressed read/write sets of one iteration on one array."""

    reads: list[StridePattern]
    writes: list[StridePattern]

    @property
    def entries(self) -> int:
        return len(self.reads) + len(self.writes)


def compress_lane(
    read_addrs: Sequence[int], write_addrs: Sequence[int]
) -> CompressedTrace:
    return CompressedTrace(
        reads=compress_addresses(read_addrs),
        writes=compress_addresses(write_addrs),
    )


def compression_ratio(col: ColumnarLanes, sample: int = 512) -> float:
    """Raw trace entries / compressed entries over the first ``sample``
    lanes of an SE log.

    1.0 = nothing gained (fully irregular); large = strided accesses.
    Per-lane log slices come straight off the sorted (pos, op) columns,
    already in log order.
    """
    raw = 0
    compressed = 0
    lanes_pos = np.arange(min(sample, col.n_positions), dtype=np.int64)
    r_lo = np.searchsorted(col.r_pos, lanes_pos)
    r_hi = np.searchsorted(col.r_pos, lanes_pos + 1)
    w_lo = np.searchsorted(col.w_pos, lanes_pos)
    w_hi = np.searchsorted(col.w_pos, lanes_pos + 1)
    for k in range(len(lanes_pos)):
        ra = col.r_arr[r_lo[k]:r_hi[k]]
        rf = col.r_flat[r_lo[k]:r_hi[k]]
        wa = col.w_arr[w_lo[k]:w_hi[k]]
        wf = col.w_flat[w_lo[k]:w_hi[k]]
        for a in np.unique(np.concatenate([ra, wa])):
            reads = rf[ra == a]
            writes = wf[wa == a]
            raw += len(reads) + len(writes)
            compressed += compress_lane(
                reads.tolist(), writes.tolist()
            ).entries
    if compressed == 0:
        return 1.0
    return raw / compressed
