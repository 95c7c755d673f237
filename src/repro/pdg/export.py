"""PDG export: Graphviz DOT text for inspection and documentation."""

from __future__ import annotations

from .graph import ProgramDependenceGraph

_KIND_STYLE = {
    "flow": "solid",
    "output": "dashed",
    "anti": "dotted",
}


def to_dot(pdg: ProgramDependenceGraph, name: str = "pdg") -> str:
    """Render the PDG as Graphviz DOT.

    Flow edges are solid, output dashed, anti dotted; node labels list
    the arrays each task reads and writes.
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=box];"]
    for task_id in pdg.task_ids:
        node = pdg.node(task_id)
        reads = ",".join(sorted(node.reads)) or "-"
        writes = ",".join(sorted(node.writes)) or "-"
        label = f"{task_id}\\nR: {reads}\\nW: {writes}"
        lines.append(f'  "{task_id}" [label="{label}"];')
    for src, dst in pdg.edges:
        kinds = pdg.edge_kinds(src, dst).split("+")
        style = _KIND_STYLE.get(kinds[0], "solid")
        label = "+".join(kinds)
        lines.append(
            f'  "{src}" -> "{dst}" [style={style}, label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)
