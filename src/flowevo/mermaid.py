"""Flowchart-dialect parsing, lowering, and canonical serialization.

The supported dialect is the one used by the published workflow corpus:
a ``flowchart TD`` header, node declarations in rectangle / stadium /
diamond shapes with ``<br/>``-separated attribute lists, ``classDef``
style blocks, ``class`` kind assignments, labeled arrows, ``#`` and ``%%``
comments, and a trailing ``<prompt>`` block with one ``NAME="text"`` entry
per line. The in-repo hard check replaces an external compiler run: a
source passes when every statement parses within this dialect.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .diagnostics import ERROR, STRUCT, SYNTAX, W4, WARNING, Diagnostic, SourceSpan
from .graph import (
    IDENT_RE,
    Edge,
    Node,
    PromptTable,
    WorkflowGraph,
    build_graph,
    effective_display,
)
from .registry import Registry, STANDARD_CLASSES, default_registry

UNCLASSIFIED = "Unclassified"


class LoweringError(Exception):
    """Raised when lowering is attempted on a source with syntax errors."""


# -- statement forms ---------------------------------------------------------


@dataclass(frozen=True)
class NodeDecl:
    """A node declaration; ``attributes`` is stored as a read-only copy."""

    span: SourceSpan
    id: str
    shape: str  # rect | stadium | diamond
    display: str
    attributes: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))


@dataclass(frozen=True)
class ClassAssign:
    span: SourceSpan
    ids: tuple[str, ...]
    name: str


@dataclass(frozen=True)
class EdgeStmt:
    span: SourceSpan
    source: str
    target: str
    label: str | None


@dataclass(frozen=True)
class PromptEntry:
    span: SourceSpan
    name: str
    text: str


@dataclass(frozen=True)
class MermaidDocument:
    """Parsed source: one tuple per statement kind, each in source order.

    ``class_defs`` holds (name, span) pairs; the style text, comments and
    the header line are not kept. Every parser finding is a SYNTAX error.
    """

    direction: str
    decls: tuple[NodeDecl, ...]
    class_assigns: tuple[ClassAssign, ...]
    class_defs: tuple[tuple[str, SourceSpan], ...]
    edges: tuple[EdgeStmt, ...]
    prompts: tuple[PromptEntry, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)


_HEADER_RE = re.compile(r"flowchart\s+(\w+)\s*$")
_STADIUM_RE = re.compile(r"(\w+)\(\[(.*)\]\)\s*$")
_RECT_RE = re.compile(r"(\w+)\[\"(.*)\"\]\s*$")
_DIAMOND_RE = re.compile(r"(\w+)\{(.*)\}\s*$")
_CLASSDEF_RE = re.compile(r"classDef\s+(\w+)\s+.+$")
_CLASS_RE = re.compile(r"class\s+(.+?)\s+(\w+)\s*$")
_EDGE_LABELED_RE = re.compile(r"(\w+)\s*-->\s*\|([^|]*)\|\s*(\w+)\s*$")
_EDGE_TEXT_RE = re.compile(r"(\w+)\s*--\s+(.+?)\s+-->\s*(\w+)\s*$")
_EDGE_PLAIN_RE = re.compile(r"(\w+)\s*-->()\s*(\w+)\s*$")
_PROMPT_ENTRY_RE = re.compile(r"(\w+)\s*=\s*\"(.*)\"\s*$")
_PROMPT_ESCAPE_RE = re.compile(r'\\([n"\\])')
_UNTERMINATED_DECL_RE = re.compile(r"\w+\[\"")


def _unescape_label(text: str) -> str:
    if "&" not in text:
        return text
    return (
        text.replace("&quot;", '"')
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&#124;", "|")
        .replace("&#58;", ":")
        .replace("&#10;", "\n")
        .replace("&amp;", "&")
    )


def _escape_label(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace('"', "&quot;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\n", "&#10;")
    )


def _escape_edge_label(text: str) -> str:
    return _escape_label(text).replace("|", "&#124;")


def _escape_attr_key(text: str) -> str:
    # the first unescaped colon ends the key
    return _escape_label(text).replace(":", "&#58;")


def _unescape_prompt(text: str) -> str:
    # a backslash before anything but n, " or \ is kept literally
    return _PROMPT_ESCAPE_RE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1), text)


def _escape_prompt(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def split_label(label: str) -> tuple[str, dict]:
    """Split a raw node label into display text and attribute map.

    ``<br/>`` separates the display name from a parenthesized
    ``(key: value, ...)`` attribute list; the split happens before entity
    unescaping, so escaped angle brackets inside content never act as the
    separator. Attribute values may be wrapped in single quotes (with
    ``\\'`` escapes). Unbalanced lists, which occur in published sources,
    are recovered by stripping stray trailing brackets.
    """
    if "<br/>" in label:
        display, _, rest = label.partition("<br/>")
    else:
        display, rest = label, ""
    display = _unescape_label(display.strip())
    rest = rest.strip()
    if not rest:
        return display, {}
    if not rest.startswith("("):
        return display, {"_text": _unescape_label(rest)}
    attrs: dict = {}
    for part in _attr_parts(rest):
        key, _, value = part.partition(":")
        key = _unescape_label(key.strip())
        value = value.strip()
        if not key:
            continue
        attrs[key] = _unescape_label(_unquote_attr(value))
    return display, attrs


# a quoted value (backslash escapes, maybe unterminated), a bracket or comma,
# or a run of anything else
_LABEL_TOKEN_RE = re.compile(r"'(?:\\[\s\S]|[^'\\])*'?|[(),]|[^'(),]+")


def _attr_parts(rest: str) -> list[str]:
    """The top-level comma-separated parts of the leading parenthesized group.

    Quoted values are opaque. A group that never closes loses its stray
    trailing brackets.
    """
    parts: list[str] = []
    current: list[str] = []
    depth = 0
    for token in _LABEL_TOKEN_RE.findall(rest):
        if token == "(":
            depth += 1
            if depth == 1:
                continue
        elif token == ")":
            depth -= 1
            if depth == 0:
                break
        elif token == "," and depth == 1:
            parts.append("".join(current))
            current = []
            continue
        current.append(token)
    else:
        current = ["".join(current).rstrip("])")]
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _unquote_attr(value: str) -> str:
    if len(value) >= 2 and value[0] == "'" and value[-1] == "'":
        inner = value[1:-1]
        return inner.replace("\\'", "'").replace("\\\\", "\\")
    return value


def _quote_attr(value: str) -> str:
    if IDENT_RE.match(value):
        return value
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


# -- parsing ------------------------------------------------------------------


def parse_workflow(text: str) -> MermaidDocument:
    """Parse source text into a document; findings become diagnostics, never raises."""
    decls: list[NodeDecl] = []
    assigns: list[ClassAssign] = []
    class_defs: list[tuple[str, SourceSpan]] = []
    edges: list[EdgeStmt] = []
    prompts: list[PromptEntry] = []
    diagnostics: list[Diagnostic] = []
    direction = None
    declared: set[str] = set()
    assigned: dict[str, str] = {}
    prompt_names: set[str] = set()
    in_prompt = False
    prompt_closed = False

    def error(message, subject=None):
        # a finding at the statement being read (``span`` of the loop below)
        diagnostics.append(Diagnostic(SYNTAX, ERROR, message, subject, span))

    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        span = SourceSpan(lineno, max(1, len(raw) - len(raw.lstrip()) + 1), len(stripped))

        if in_prompt:
            if stripped == "</prompt>":
                in_prompt = False
                prompt_closed = True
                continue
            if not stripped:
                continue
            match = _PROMPT_ENTRY_RE.match(stripped)
            if not match:
                error(f"malformed prompt entry: {stripped!r}")
                continue
            name = match.group(1)
            if name in prompt_names:
                error(f"duplicate prompt name {name!r}")
                continue
            prompt_names.add(name)
            prompts.append(PromptEntry(span, name, _unescape_prompt(match.group(2))))
            continue

        if not stripped or stripped.startswith("%%") or stripped.startswith("#"):
            continue
        if stripped == "<prompt>":
            if prompt_closed:
                error("multiple <prompt> blocks")
            in_prompt = True
            continue

        # each statement regex is tried only on lines that hold its leading keyword or arrow
        match = _HEADER_RE.match(stripped) if stripped.startswith("flowchart") else None
        if match:
            if direction is not None:
                error("duplicate flowchart header")
            direction = match.group(1)
            continue

        is_class = stripped.startswith("class")
        match = _CLASSDEF_RE.match(stripped) if is_class else None
        if match:
            class_defs.append((match.group(1), span))
            continue

        match = _CLASS_RE.match(stripped) if is_class else None
        if match and not any(tok in stripped for tok in ("-->", "[", "(", "{")):
            ids = tuple(part.strip() for part in match.group(1).split(","))
            bad = [i for i in ids if not IDENT_RE.match(i)]
            if bad:
                error(f"bad node id in class assignment: {bad[0]!r}")
                continue
            name = match.group(2)
            for node_id in ids:
                previous = assigned.setdefault(node_id, name)
                if previous != name:
                    error(f"conflicting class assignment for {node_id}: {previous} vs {name}", node_id)
            assigns.append(ClassAssign(span, ids, name))
            continue

        for regex in (_EDGE_LABELED_RE, _EDGE_TEXT_RE, _EDGE_PLAIN_RE) if "--" in stripped else ():
            match = regex.match(stripped)
            if match:
                source, label, target = match.groups()
                bad = [i for i in (source, target) if not IDENT_RE.match(i)]
                if bad:
                    error(f"bad node id in edge: {bad[0]!r}")
                else:
                    edges.append(EdgeStmt(span, source, target, _unescape_label(label.strip()) or None))
                break
        else:
            decl = _parse_node_decl(stripped, span)
            if decl is None:
                if _UNTERMINATED_DECL_RE.match(stripped):
                    error(f"unterminated string in node declaration: {stripped!r}")
                else:
                    error(f"unrecognized statement: {stripped!r}")
                continue
            if not IDENT_RE.match(decl.id):
                error(f"bad node id in declaration: {decl.id!r}")
                continue
            if decl.id in declared:
                error(f"duplicate node declaration {decl.id!r}", decl.id)
            declared.add(decl.id)
            decls.append(decl)

    # the two findings about the whole text point at its last and first line
    if in_prompt:
        span = SourceSpan(len(lines), 1)
        error("unterminated <prompt> block")
    if direction is None:
        span = SourceSpan(1, 1)
        error("missing 'flowchart <direction>' header")
    return MermaidDocument(
        direction or "TD",
        tuple(decls),
        tuple(assigns),
        tuple(class_defs),
        tuple(edges),
        tuple(prompts),
        tuple(diagnostics),
    )


def _parse_node_decl(stripped: str, span: SourceSpan) -> NodeDecl | None:
    match = _STADIUM_RE.match(stripped)
    if match:
        return NodeDecl(span, match.group(1), "stadium", _unescape_label(match.group(2).strip()))
    for regex, shape in ((_RECT_RE, "rect"), (_DIAMOND_RE, "diamond")):
        match = regex.match(stripped)
        if match:
            return NodeDecl(span, match.group(1), shape, *split_label(match.group(2)))
    return None


# -- lowering ------------------------------------------------------------------


def infer_domain(doc: MermaidDocument, registry: Registry | None = None) -> str:
    """Guess the task domain from the kinds a source assigns."""
    registry = registry or default_registry()
    for assign in doc.class_assigns:
        schema = registry.get(assign.name)
        if schema is not None and schema.domain_restriction == "code":
            return "code"
    return "math"


def lower_to_graph(
    doc: MermaidDocument,
    registry: Registry | None = None,
    domain: str | None = None,
) -> tuple[WorkflowGraph, list[Diagnostic]]:
    """Bind kinds and build a graph value; returns the graph plus lowering findings."""
    if not doc.ok:
        raise LoweringError("syntax errors: " + "; ".join(d.render() for d in doc.diagnostics[:4]))
    registry = registry or default_registry()
    if domain is None:
        domain = infer_domain(doc, registry)
    diagnostics: list[Diagnostic] = []

    def finding(rule, severity, message, span, subject=None):
        diagnostics.append(Diagnostic(rule, severity, message, subject, span))

    # a source without syntax errors declares each node once
    decls = {decl.id: decl for decl in doc.decls}
    assignments: dict[str, tuple[str, SourceSpan]] = {}
    for assign in doc.class_assigns:
        for node_id in assign.ids:
            if node_id in decls:
                assignments.setdefault(node_id, (assign.name, assign.span))
            else:
                message = f"class assignment references undeclared node {node_id!r}"
                finding(STRUCT, ERROR, message, assign.span, node_id)

    defined_classes = set()
    for name, span in doc.class_defs:
        if name in defined_classes:
            finding(STRUCT, WARNING, f"duplicate classDef {name!r}", span)
        defined_classes.add(name)

    # edges may mention nodes that were never declared; Mermaid treats a bare
    # id as an implicit declaration, so keep them and flag the missing kind
    implicit: dict[str, SourceSpan] = {}
    for edge in doc.edges:
        for node_id in (edge.source, edge.target):
            if node_id not in decls:
                implicit.setdefault(node_id, edge.span)

    nodes = []
    for node_id, decl in decls.items():
        name, span = assignments.get(node_id, (None, None))
        if name is not None:
            kind = registry.resolve_kind(name)
            if kind is None and name not in defined_classes:
                finding(W4, ERROR, f"class assignment uses unknown class {name!r}", span, node_id)
            kind = kind or name
        elif decl.shape == "stadium":
            kind = "Interface"
        else:
            kind = UNCLASSIFIED
            finding(W4, ERROR, f"unclassified node {node_id!r} (no class assignment)", decl.span, node_id)
        nodes.append(Node(node_id, kind, decl.attributes, decl.display))
    for node_id, span in implicit.items():
        finding(W4, ERROR, f"node {node_id!r} used in an edge but never declared", span, node_id)
        nodes.append(Node(node_id, UNCLASSIFIED, {}, node_id))

    edges = [Edge(e.source, e.target, e.label) for e in doc.edges]
    prompts = PromptTable({p.name: p.text for p in doc.prompts})
    graph = build_graph(nodes, edges, prompts=prompts, domain=domain, registry=registry)
    return graph, diagnostics


# -- serialization -------------------------------------------------------------


def node_shape(graph: WorkflowGraph, node: Node) -> str:
    """The declaration shape of ``node``, a node of ``graph``: stadium, diamond or rect."""
    schema = graph.schema(node.id)
    if schema is not None and schema.is_interface:
        return "stadium"
    if schema is not None and schema.style_class == "DecisionOp":
        return "diamond"
    return "rect"


def _node_decl_line(graph: WorkflowGraph, node: Node) -> str:
    display = effective_display(graph, node)
    shape = node_shape(graph, node)
    if shape == "stadium":
        return f"{node.id}([{_escape_label(display)}])"
    if node.attributes:
        attrs = ", ".join(
            f"{_escape_attr_key(key)}: {_quote_attr(_escape_label(value))}"
            for key, value in node.attributes.items()
        )
        body = f"{_escape_label(display)}<br/>({attrs})"
    else:
        body = _escape_label(display)
    if shape == "diamond":
        return f"{node.id}{{{body}}}"
    return f'{node.id}["{body}"]'


def serialize_workflow(graph: WorkflowGraph) -> str:
    """Emit the canonical source form: a fixed point of serialize-parse-serialize.

    Ordering: header; entry declarations first and exits last with the rest
    in the graph's id order; the full standard classDef block (always
    emitted, even for unused classes); class assignments by id; edges in the
    graph's (source, target, label) order; then the prompt block by name.
    """
    roles = graph.interface_roles()
    entry_ids = list(roles.problem_entries) + list(roles.aux_entries)
    exit_ids = list(roles.exits)
    placed = set(entry_ids) | set(exit_ids)
    middle = [nid for nid in graph.node_ids() if nid not in placed]
    ordered = entry_ids + middle + exit_ids

    lines = ["flowchart TD"]
    for nid in ordered:
        lines.append("  " + _node_decl_line(graph, graph.node(nid)))
    lines.append("")

    styles = {}
    for schema in graph.registry.schemas():
        if schema.style_class:
            styles[schema.style_class] = schema.style
    emitted = set()
    for name in STANDARD_CLASSES:
        style = styles.get(name) or "fill:#ffffff"
        lines.append(f"  classDef {name} {style};")
        emitted.add(name)
    extra = sorted(
        {
            s.style_class
            for nid in ordered
            if (s := graph.schema(nid)) is not None
            and s.style_class
            and s.style_class not in emitted
        }
    )
    for name in extra:
        lines.append(f"  classDef {name} {styles.get(name) or 'fill:#ffffff'};")
    lines.append("")

    for node in graph.nodes:
        schema = graph.schema(node.id)
        class_name = schema.style_class if schema is not None and schema.style_class else node.kind
        lines.append(f"  class {node.id} {class_name}")
    lines.append("")

    for edge in graph.edges:
        if edge.label:
            lines.append(f"  {edge.source} --> |{_escape_edge_label(edge.label)}|{edge.target}")
        else:
            lines.append(f"  {edge.source} --> {edge.target}")

    if len(graph.prompts):
        lines.append("")
        lines.append("<prompt>")
        for name, text in graph.prompts.entries.items():
            lines.append(f'{name}="{_escape_prompt(text)}"')
        lines.append("</prompt>")
    return "\n".join(lines) + "\n"


def hard_check(text: str) -> tuple[bool, list[Diagnostic]]:
    """Syntax-level verification: every statement must be within the dialect."""
    doc = parse_workflow(text)
    return doc.ok, list(doc.diagnostics)
