"""Reference (per-record) oracles for the columnar SE-log analyses.

These are the original scalar implementations of the production
analyses in :mod:`repro.profiler` and :mod:`repro.tls`, kept verbatim
as cross-check oracles.  They consume the per-lane view of a log built
by :func:`tests.speclog.lane_view` (a ``{iteration: Lane}`` dict).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Mapping, Sequence

from repro.ir.interpreter import ArrayStorage
from repro.profiler.density import SAMPLE_CAP
from repro.profiler.intrawarp import classify_same_warp
from repro.profiler.report import DepPair, DependencyProfile
from repro.profiler.strides import compress_lane
from repro.tls.depcheck import DcResult, Violation

from .speclog import Lane

def analyze_lanes_scalar(
    lanes: Mapping[int, Lane],
    iteration_order: Sequence[int],
    warp_size: int = 32,
) -> DependencyProfile:
    """Reference (per-record) implementation of :func:`analyze_lanes`."""
    order_pos = {it: pos for pos, it in enumerate(iteration_order)}
    n = len(iteration_order)

    # cell -> sorted list of writer iterations; cell -> reader iterations
    writers: dict[tuple[str, int], list[int]] = defaultdict(list)
    readers: dict[tuple[str, int], list[int]] = defaultdict(list)
    for it in iteration_order:
        state = lanes.get(it)
        if state is None:
            continue
        seen_w: set[tuple[str, int]] = set()
        for rec in state.writes:
            key = (rec.array, rec.flat)
            if key not in seen_w:
                seen_w.add(key)
                writers[key].append(it)
        seen_r: set[tuple[str, int]] = set()
        for rec in state.reads:
            key = (rec.array, rec.flat)
            if key not in seen_r:
                seen_r.add(key)
                readers[key].append(it)

    for lst in writers.values():
        lst.sort(key=order_pos.__getitem__)
    for lst in readers.values():
        lst.sort(key=order_pos.__getitem__)

    profile = DependencyProfile(iterations=n)
    td_targets: set[int] = set()
    fd_targets: set[int] = set()

    def warp_of_iter(it: int) -> int:
        return order_pos[it] // warp_size

    # --- true dependencies: an upward-exposed read hitting an earlier write
    for key, reads in readers.items():
        ws = writers.get(key)
        if not ws:
            continue
        w_positions = [order_pos[w] for w in ws]
        for r in reads:
            rp = order_pos[r]
            k = bisect_left(w_positions, rp)
            if k == 0:
                continue  # no earlier writer
            src = ws[k - 1]
            if src == r:
                continue
            profile.td_pairs += 1
            td_targets.add(r)
            profile.td_arrays.add(key[0])
            profile.td_warps.add(warp_of_iter(r))
            dist = rp - order_pos[src]
            profile.td_distances[dist] = profile.td_distances.get(dist, 0) + 1
            same = classify_same_warp(order_pos[src], rp, warp_size)
            if same:
                profile.intra_warp_td += 1
            else:
                profile.inter_warp_td += 1
            if len(profile.sample_pairs) < SAMPLE_CAP:
                profile.sample_pairs.append(
                    DepPair(key[0], src, r, "true", same)
                )

    # --- false dependencies: WAW between distinct writers, WAR read->write
    for key, ws in writers.items():
        if len(ws) > 1:
            for a, b in zip(ws, ws[1:]):
                profile.fd_pairs += 1
                fd_targets.add(b)
                profile.fd_arrays.add(key[0])
                if len(profile.sample_pairs) < SAMPLE_CAP:
                    profile.sample_pairs.append(
                        DepPair(
                            key[0],
                            a,
                            b,
                            "output",
                            classify_same_warp(
                                order_pos[a], order_pos[b], warp_size
                            ),
                        )
                    )
        reads = readers.get(key)
        if not reads:
            continue
        w_positions = [order_pos[w] for w in ws]
        for r in reads:
            rp = order_pos[r]
            k = bisect_left(w_positions, rp + 1)
            if k >= len(ws):
                continue  # no later writer
            later_writer = ws[k]
            if later_writer == r:
                continue
            profile.fd_pairs += 1
            fd_targets.add(later_writer)
            profile.fd_arrays.add(key[0])
            if len(profile.sample_pairs) < SAMPLE_CAP:
                profile.sample_pairs.append(
                    DepPair(
                        key[0],
                        r,
                        later_writer,
                        "anti",
                        classify_same_warp(rp, order_pos[later_writer], warp_size),
                    )
                )

    denom = max(1, n - 1)
    profile.td_density = len(td_targets) / denom
    profile.fd_density = len(fd_targets - td_targets) / denom
    profile.uniform_write_arrays = _uniform_write_arrays(
        lanes, iteration_order
    )
    return profile


def _uniform_write_arrays(
    lanes: Mapping[int, Lane],
    iteration_order: Sequence[int],
) -> set[str]:
    """Arrays whose per-iteration write-cell sets are all identical."""
    reference: dict[str, frozenset[int]] = {}
    writers_count: dict[str, int] = defaultdict(int)
    non_uniform: set[str] = set()
    total = 0
    for it in iteration_order:
        state = lanes.get(it)
        if state is None:
            continue
        total += 1
        per_array: dict[str, set[int]] = defaultdict(set)
        for rec in state.writes:
            per_array[rec.array].add(rec.flat)
        for name, cells in per_array.items():
            writers_count[name] += 1
            frozen = frozenset(cells)
            if name not in reference:
                reference[name] = frozen
            elif reference[name] != frozen:
                non_uniform.add(name)
    # an iteration that skips the array breaks "the last one overwrites
    # everything", so uniformity also requires every iteration to write it
    return {
        name
        for name in reference
        if name not in non_uniform and writers_count[name] == total
    }


def estimate_coalescing_scalar(
    lanes: Mapping[int, Lane],
    iteration_order: Sequence[int],
    warp_size: int = 32,
    floor: float = 0.1,
) -> float:
    """Reference (per-record) implementation (the cross-check oracle)."""
    # (warp, op, array) -> {lane_position: flat}
    slots: dict[tuple[int, int, str], dict[int, int]] = defaultdict(dict)
    for pos, it in enumerate(iteration_order):
        state = lanes.get(it)
        if state is None:
            continue
        warp = pos // warp_size
        for rec in state.reads:
            slots[(warp, rec.op, rec.array)][pos] = rec.flat
        for rec in state.writes:
            slots[(warp, rec.op, rec.array)][pos] = rec.flat

    good = 0
    total = 0
    for mapping in slots.values():
        if len(mapping) < 2:
            continue
        positions = sorted(mapping)
        for a, b in zip(positions, positions[1:]):
            if b != a + 1:
                continue  # only adjacent lanes are coalescing-relevant
            total += 1
            delta = abs(mapping[b] - mapping[a])
            if delta <= 1:
                good += 1
    if total == 0:
        return 1.0
    return max(floor, good / total)


def compression_ratio_scalar(lanes, sample: int = 512) -> float:
    """Reference (per-record) implementation (the cross-check oracle)."""
    raw = 0
    compressed = 0
    for k, (_it, state) in enumerate(lanes.items()):
        if k >= sample:
            break
        per_array: dict[str, tuple[list[int], list[int]]] = {}
        for rec in state.reads:
            per_array.setdefault(rec.array, ([], []))[0].append(rec.flat)
        for rec in state.writes:
            per_array.setdefault(rec.array, ([], []))[1].append(rec.flat)
        for reads, writes in per_array.values():
            raw += len(reads) + len(writes)
            compressed += compress_lane(reads, writes).entries
    if compressed == 0:
        return 1.0
    return raw / compressed


def check_subloop_scalar(
    lanes: Mapping[int, Lane],
    order: Sequence[int],
) -> DcResult:
    """Reference (per-record) implementation (the cross-check oracle)."""
    pos = {it: p for p, it in enumerate(order)}
    # cell -> earliest writer position (the first write wins for "is there
    # an earlier writer" queries against readers)
    writer_pos: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for it in order:
        state = lanes.get(it)
        if state is None:
            continue
        p = pos[it]
        for rec in state.writes:
            writer_pos.setdefault((rec.array, rec.flat), []).append((p, it))

    result = DcResult()
    for it in order:
        state = lanes.get(it)
        if state is None:
            continue
        p = pos[it]
        for rec in state.reads:
            writers = writer_pos.get((rec.array, rec.flat))
            if not writers:
                continue
            # any earlier writer? (writers are in ascending position order)
            src = None
            for wp, wit in writers:
                if wp >= p:
                    break
                src = wit
            if src is not None:
                result.violations.append(
                    Violation(it, src, rec.array, rec.flat)
                )
                if (
                    result.first_violation_pos is None
                    or p < result.first_violation_pos
                ):
                    result.first_violation_pos = p
                break  # one violation per iteration is enough to squash it
    return result


def commit_iterations_scalar(
    lanes: Mapping[int, Lane],
    storage: ArrayStorage,
    iterations: Sequence[int],
) -> tuple[int, int]:
    """Reference commit: apply each lane's buffer in the given order."""
    cells = 0
    nbytes = 0
    for it in iterations:
        state = lanes.get(it)
        if state is None:
            continue
        for (name, flat), value in state.buffer.items():
            storage.write_flat(name, flat, value)
            cells += 1
            nbytes += storage.arrays[name].dtype.itemsize
    return cells, nbytes
