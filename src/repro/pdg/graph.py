"""Program dependence graph over loop tasks.

Nodes are annotated loops (tasks); edges are inter-loop data dependencies
derived from live-in/live-out sets: a loop that writes an array feeds
every later loop that reads or rewrites it.  The task-stealing scheduler
topologically sorts this graph into batches of data-independent tasks
(Algorithm 1, line 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Hashable, Iterable

from ..errors import SchedulerError


@dataclass
class PdgNode:
    """One loop task in the PDG."""

    id: Hashable
    reads: frozenset[str]
    writes: frozenset[str]
    label: str = ""


class ProgramDependenceGraph:
    """Directed task graph (adjacency dicts) with dependence semantics."""

    def __init__(self) -> None:
        self._nodes: dict[Hashable, PdgNode] = {}
        #: task -> {successor: edge kind}, in insertion order
        self._succ: dict[Hashable, dict[Hashable, str]] = {}
        #: task -> {predecessor: None}, in insertion order
        self._pred: dict[Hashable, dict[Hashable, None]] = {}

    def add_task(
        self,
        task_id: Hashable,
        reads: Iterable[str],
        writes: Iterable[str],
        label: str = "",
    ) -> PdgNode:
        if task_id in self._nodes:
            raise SchedulerError(f"duplicate PDG task {task_id!r}")
        node = PdgNode(task_id, frozenset(reads), frozenset(writes), label)
        self._nodes[task_id] = node
        self._succ[task_id] = {}
        self._pred[task_id] = {}
        return node

    def node(self, task_id: Hashable) -> PdgNode:
        return self._nodes[task_id]

    def add_edge(self, src: Hashable, dst: Hashable, kind: str) -> None:
        for task_id in (src, dst):
            if task_id not in self._nodes:
                raise SchedulerError(f"unknown PDG task {task_id!r}")
        self._succ[src][dst] = kind
        self._pred[dst][src] = None

    @property
    def task_ids(self) -> list[Hashable]:
        return list(self._nodes)

    @property
    def edges(self) -> list[tuple[Hashable, Hashable]]:
        return [(src, dst) for src, out in self._succ.items() for dst in out]

    def dependencies_of(self, task_id: Hashable) -> set[Hashable]:
        return set(self._pred[task_id])

    def dependents_of(self, task_id: Hashable) -> set[Hashable]:
        return set(self._succ[task_id])

    def edge_kinds(self, src: Hashable, dst: Hashable) -> str:
        return self._succ[src][dst]

    def _sorter(self) -> TopologicalSorter:
        sorter = TopologicalSorter(self._pred)
        try:
            sorter.prepare()
        except CycleError as err:
            raise SchedulerError(f"PDG has a cycle: {err.args[1]}") from None
        return sorter

    def check_acyclic(self) -> None:
        self._sorter()

    def batches(self) -> list[list[Hashable]]:
        """Kahn-level batches: each batch is a set of data-independent
        tasks whose dependencies all lie in earlier batches."""
        sorter = self._sorter()
        out = []
        while sorter.is_active():
            layer = sorter.get_ready()
            out.append(sorted(layer, key=str))
            sorter.done(*layer)
        return out
