"""DOT export for rendering workflow graphs with standard tooling.

Export works on any parseable graph, valid or not, so it can be used to
inspect broken workflows; validation findings are included as comment
lines at the top of the output. Fill colours come from each kind's
registry style and shapes from the serializer's declaration shape, so a
custom registry restyles the export as it does the source.
"""

from __future__ import annotations

from .graph import Node, WorkflowGraph
from .mermaid import node_shape
from .validator import soft_check

_DOT_SHAPE = {"stadium": "ellipse", "diamond": "diamond", "rect": "box"}


def _fill_for(graph: WorkflowGraph, node: Node) -> str:
    schema = graph.registry.get(node.kind)
    if schema is not None:
        for token in schema.style.split(","):
            if token.strip().startswith("fill:"):
                return token.strip()[5:]
    return "#ffffff"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote(text: str) -> str:
    return '"' + _escape(text) + '"'


def export_dot(graph: WorkflowGraph) -> str:
    lines = [f"// {diag.render()}" for diag in soft_check(graph)]
    lines.append("digraph workflow {")
    lines.append("  rankdir=TB;")
    lines.append('  node [style="filled"];')
    for nid in sorted(graph.node_ids()):
        node = graph.node(nid)
        parts = [_escape(nid)]
        parts.extend(_escape(f"{k}: {v}") for k, v in sorted(node.attributes.items()))
        label = '"' + "\\n".join(parts) + '"'
        lines.append(
            f"  {nid} [label={label}, shape={_DOT_SHAPE[node_shape(graph, node)]}, "
            f'fillcolor="{_fill_for(graph, node)}"];'
        )
    edge_rows = sorted(
        ((e.source, e.target, e.label) for e in graph.edges),
        key=lambda row: (row[0], row[1], row[2] is not None, row[2] or ""),
    )
    for source, target, label in edge_rows:
        if label:
            lines.append(f"  {source} -> {target} [label={_quote(label)}];")
        else:
            lines.append(f"  {source} -> {target};")
    lines.append("}")
    return "\n".join(lines) + "\n"
