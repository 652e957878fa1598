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
    schema = graph.schema(node.id)
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
    for node in graph.nodes:
        parts = [_escape(node.id)]
        parts.extend(_escape(f"{k}: {v}") for k, v in node.attributes.items())
        label = '"' + "\\n".join(parts) + '"'
        lines.append(
            f"  {node.id} [label={label}, shape={_DOT_SHAPE[node_shape(graph, node)]}, "
            f'fillcolor="{_fill_for(graph, node)}"];'
        )
    for edge in graph.edges:
        if edge.label:
            lines.append(f"  {edge.source} -> {edge.target} [label={_quote(edge.label)}];")
        else:
            lines.append(f"  {edge.source} -> {edge.target};")
    lines.append("}")
    return "\n".join(lines) + "\n"
