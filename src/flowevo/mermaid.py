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
class Statement:
    span: SourceSpan
    raw: str


@dataclass(frozen=True)
class HeaderStmt(Statement):
    direction: str = "TD"


@dataclass(frozen=True)
class NodeDecl(Statement):
    """A node declaration; ``attributes`` is stored as a read-only copy."""

    id: str = ""
    shape: str = "rect"  # rect | stadium | diamond
    display: str = ""
    attributes: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))


@dataclass(frozen=True)
class ClassDefStmt(Statement):
    name: str = ""
    style: str = ""


@dataclass(frozen=True)
class ClassAssign(Statement):
    ids: tuple[str, ...] = ()
    name: str = ""


@dataclass(frozen=True)
class EdgeStmt(Statement):
    source: str = ""
    target: str = ""
    label: str | None = None


@dataclass(frozen=True)
class CommentStmt(Statement):
    pass


@dataclass(frozen=True)
class PromptEntry:
    span: SourceSpan
    name: str
    text: str


@dataclass(frozen=True)
class MermaidDocument:
    """Parsed source: header, ordered statements, prompt block, findings."""

    direction: str
    statements: tuple[Statement, ...]
    prompts: tuple[PromptEntry, ...]
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)

    def node_decls(self) -> list[NodeDecl]:
        return [s for s in self.statements if isinstance(s, NodeDecl)]

    def edge_stmts(self) -> list[EdgeStmt]:
        return [s for s in self.statements if isinstance(s, EdgeStmt)]

    def class_assigns(self) -> list[ClassAssign]:
        return [s for s in self.statements if isinstance(s, ClassAssign)]

    def class_defs(self) -> list[ClassDefStmt]:
        return [s for s in self.statements if isinstance(s, ClassDefStmt)]


_HEADER_RE = re.compile(r"flowchart\s+(\w+)\s*$")
_STADIUM_RE = re.compile(r"(\w+)\(\[(.*)\]\)\s*$")
_RECT_RE = re.compile(r"(\w+)\[\"(.*)\"\]\s*$")
_DIAMOND_RE = re.compile(r"(\w+)\{(.*)\}\s*$")
_CLASSDEF_RE = re.compile(r"classDef\s+(\w+)\s+(.+?);?\s*$")
_CLASS_RE = re.compile(r"class\s+(.+?)\s+(\w+)\s*$")
_EDGE_LABELED_RE = re.compile(r"(\w+)\s*-->\s*\|([^|]*)\|\s*(\w+)\s*$")
_EDGE_TEXT_RE = re.compile(r"(\w+)\s*--\s+(.+?)\s+-->\s*(\w+)\s*$")
_EDGE_PLAIN_RE = re.compile(r"(\w+)\s*-->\s*(\w+)\s*$")
_PROMPT_ENTRY_RE = re.compile(r"(\w+)\s*=\s*\"(.*)\"\s*$")
_PROMPT_ESCAPE_RE = re.compile(r'\\([n"\\])')
_UNTERMINATED_DECL_RE = re.compile(r"\w+\[\"")


def _unescape_label(text: str) -> str:
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
    statements: list[Statement] = []
    prompts: list[PromptEntry] = []
    diagnostics: list[Diagnostic] = []
    direction = "TD"
    saw_header = False
    declared: dict[str, NodeDecl] = {}
    assigned: dict[str, str] = {}
    prompt_names: set[str] = set()
    in_prompt = False
    prompt_closed = False

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
                diagnostics.append(
                    Diagnostic(SYNTAX, ERROR, f"malformed prompt entry: {stripped!r}", span=span)
                )
                continue
            name = match.group(1)
            if name in prompt_names:
                diagnostics.append(
                    Diagnostic(SYNTAX, ERROR, f"duplicate prompt name {name!r}", span=span)
                )
                continue
            prompt_names.add(name)
            prompts.append(PromptEntry(span, name, _unescape_prompt(match.group(2))))
            continue

        if not stripped:
            continue
        if stripped.startswith("%%") or stripped.startswith("#"):
            statements.append(CommentStmt(span, raw))
            continue
        if stripped == "<prompt>":
            if prompt_closed:
                diagnostics.append(
                    Diagnostic(SYNTAX, ERROR, "multiple <prompt> blocks", span=span)
                )
            in_prompt = True
            continue

        match = _HEADER_RE.match(stripped)
        if match:
            if saw_header:
                diagnostics.append(Diagnostic(SYNTAX, ERROR, "duplicate flowchart header", span=span))
            direction = match.group(1)
            saw_header = True
            statements.append(HeaderStmt(span, raw, direction))
            continue

        match = _CLASSDEF_RE.match(stripped)
        if match:
            statements.append(ClassDefStmt(span, raw, match.group(1), match.group(2).strip()))
            continue

        match = _CLASS_RE.match(stripped)
        if match and not any(tok in stripped for tok in ("-->", "[", "(", "{")):
            ids = tuple(part.strip() for part in match.group(1).split(","))
            bad = [i for i in ids if not IDENT_RE.match(i)]
            if bad:
                diagnostics.append(
                    Diagnostic(SYNTAX, ERROR, f"bad node id in class assignment: {bad[0]!r}", span=span)
                )
                continue
            name = match.group(2)
            for node_id in ids:
                previous = assigned.get(node_id)
                if previous is not None and previous != name:
                    diagnostics.append(
                        Diagnostic(
                            SYNTAX,
                            ERROR,
                            f"conflicting class assignment for {node_id}: {previous} vs {name}",
                            subject=node_id,
                            span=span,
                        )
                    )
                else:
                    assigned[node_id] = name
            statements.append(ClassAssign(span, raw, ids, name))
            continue

        for regex in (_EDGE_LABELED_RE, _EDGE_TEXT_RE, _EDGE_PLAIN_RE):
            match = regex.match(stripped)
            if match:
                groups = match.groups()
                if len(groups) == 3:
                    source, label, target = groups
                    label = _unescape_label(label.strip()) or None
                else:
                    source, target, label = groups[0], groups[1], None
                statements.append(EdgeStmt(span, raw, source, target, label))
                break
        else:
            decl = _parse_node_decl(stripped, span, raw, diagnostics)
            if decl is not None:
                if decl.id in declared:
                    diagnostics.append(
                        Diagnostic(
                            SYNTAX,
                            ERROR,
                            f"duplicate node declaration {decl.id!r}",
                            subject=decl.id,
                            span=span,
                        )
                    )
                else:
                    declared[decl.id] = decl
                statements.append(decl)

    if in_prompt:
        diagnostics.append(
            Diagnostic(SYNTAX, ERROR, "unterminated <prompt> block", span=SourceSpan(len(lines), 1))
        )
    if not saw_header:
        diagnostics.append(
            Diagnostic(SYNTAX, ERROR, "missing 'flowchart <direction>' header", span=SourceSpan(1, 1))
        )
    return MermaidDocument(direction, tuple(statements), tuple(prompts), tuple(diagnostics))


def _parse_node_decl(stripped, span, raw, diagnostics) -> NodeDecl | None:
    match = _STADIUM_RE.match(stripped)
    if match:
        display = _unescape_label(match.group(2).strip())
        return NodeDecl(span, raw, match.group(1), "stadium", display, {})
    match = _RECT_RE.match(stripped)
    if match:
        display, attrs = split_label(match.group(2))
        return NodeDecl(span, raw, match.group(1), "rect", display, attrs)
    match = _DIAMOND_RE.match(stripped)
    if match:
        display, attrs = split_label(match.group(2))
        return NodeDecl(span, raw, match.group(1), "diamond", display, attrs)
    if _UNTERMINATED_DECL_RE.match(stripped):
        message = f"unterminated string in node declaration: {stripped!r}"
    else:
        message = f"unrecognized statement: {stripped!r}"
    diagnostics.append(Diagnostic(SYNTAX, ERROR, message, span=span))
    return None


# -- lowering ------------------------------------------------------------------


def infer_domain(doc: MermaidDocument, registry: Registry | None = None) -> str:
    """Guess the task domain from the kinds a source assigns."""
    registry = registry or default_registry()
    restrictions = set()
    for assign in doc.class_assigns():
        schema = registry.get(assign.name)
        if schema is not None and schema.domain_restriction:
            restrictions.add(schema.domain_restriction)
    if "code" in restrictions:
        return "code"
    if "math" in restrictions:
        return "math"
    return "math"


def lower_to_graph(
    doc: MermaidDocument,
    registry: Registry | None = None,
    domain: str | None = None,
) -> tuple[WorkflowGraph, list[Diagnostic]]:
    """Bind kinds and build a graph value; returns the graph plus lowering findings."""
    if not doc.ok:
        errors = [d.render() for d in doc.diagnostics if d.is_error]
        raise LoweringError("syntax errors: " + "; ".join(errors[:4]))
    registry = registry or default_registry()
    if domain is None:
        domain = infer_domain(doc, registry)
    diagnostics: list[Diagnostic] = []

    decls: dict[str, NodeDecl] = {}
    for decl in doc.node_decls():
        decls.setdefault(decl.id, decl)

    assignments: dict[str, tuple[str, SourceSpan]] = {}
    for assign in doc.class_assigns():
        for node_id in assign.ids:
            if node_id not in decls:
                diagnostics.append(
                    Diagnostic(
                        STRUCT,
                        ERROR,
                        f"class assignment references undeclared node {node_id!r}",
                        subject=node_id,
                        span=assign.span,
                    )
                )
                continue
            assignments.setdefault(node_id, (assign.name, assign.span))

    defined_classes = set()
    seen_defs = set()
    for classdef in doc.class_defs():
        if classdef.name in seen_defs:
            diagnostics.append(
                Diagnostic(
                    STRUCT,
                    WARNING,
                    f"duplicate classDef {classdef.name!r}",
                    span=classdef.span,
                )
            )
        seen_defs.add(classdef.name)
        defined_classes.add(classdef.name)

    # edges may mention nodes that were never declared; Mermaid treats a bare
    # id as an implicit declaration, so keep them and flag the missing kind
    implicit: dict[str, SourceSpan] = {}
    for stmt in doc.edge_stmts():
        for node_id in (stmt.source, stmt.target):
            if node_id not in decls and node_id not in implicit:
                implicit[node_id] = stmt.span

    nodes = []
    for node_id, decl in decls.items():
        entry = assignments.get(node_id)
        if entry is not None:
            name, span = entry
            kind = registry.resolve_kind(name) or name
            if registry.resolve_kind(name) is None and name not in defined_classes:
                diagnostics.append(
                    Diagnostic(
                        W4,
                        ERROR,
                        f"class assignment uses unknown class {name!r}",
                        subject=node_id,
                        span=span,
                    )
                )
        elif decl.shape == "stadium":
            kind = "Interface"
        else:
            kind = UNCLASSIFIED
            diagnostics.append(
                Diagnostic(
                    W4,
                    ERROR,
                    f"unclassified node {node_id!r} (no class assignment)",
                    subject=node_id,
                    span=decl.span,
                )
            )
        nodes.append(Node(node_id, kind, decl.attributes, decl.display))
    for node_id, span in implicit.items():
        diagnostics.append(
            Diagnostic(
                W4,
                ERROR,
                f"node {node_id!r} used in an edge but never declared",
                subject=node_id,
                span=span,
            )
        )
        nodes.append(Node(node_id, UNCLASSIFIED, {}, node_id))

    edges = [Edge(s.source, s.target, s.label) for s in doc.edge_stmts()]
    prompts = PromptTable({p.name: p.text for p in doc.prompts})
    graph = build_graph(nodes, edges, prompts=prompts, domain=domain, registry=registry)
    return graph, diagnostics


# -- serialization -------------------------------------------------------------


def node_shape(graph: WorkflowGraph, node: Node) -> str:
    """The declaration shape of ``node``: stadium, diamond or rect."""
    schema = graph.registry.get(node.kind)
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
            if (s := graph.registry.get(graph.node(nid).kind)) is not None
            and s.style_class
            and s.style_class not in emitted
        }
    )
    for name in extra:
        lines.append(f"  classDef {name} {styles.get(name) or 'fill:#ffffff'};")
    lines.append("")

    for node in graph.nodes:
        schema = graph.registry.get(node.kind)
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
    syntax = [d for d in doc.diagnostics]
    return (not any(d.is_error for d in syntax), syntax)
