"""Flowchart-dialect parsing, lowering, and canonical serialization.

The supported dialect is the one used by the published workflow corpus:
a ``flowchart TD`` header, node declarations in rectangle / stadium /
diamond shapes with ``<br/>``-separated attribute lists, ``classDef``
style blocks, ``class`` kind assignments, labeled arrows, ``#`` and ``%%``
comments, and a trailing ``<prompt>`` block with one ``NAME="text"`` entry
per line. The in-repo hard check replaces an external compiler run: a
source passes when every statement parses within this dialect.

The parser reads each line once. Blank lines, comments and the prompt
markers are told apart by string tests; every other statement line is
classified by one match of ``_STATEMENT_RE``, whose alternatives are the
statement forms in order of precedence. That classification reads the
line's text alone, so it is kept in a bounded cache keyed by the stripped
line and runs once per distinct text: sources that share lines (a proposal
and its parent's canonical text) share the work. Spans, the prompt block,
duplicate declarations, conflicting class assignments, a second header and
the findings about the whole text depend on where a line sits and what came
before it, so the parser computes them afresh and caches none of them. Ids
and prompt names are tested with ``str.isascii() and str.isidentifier()``,
which for ASCII text is exactly ``[A-Za-z_][A-Za-z0-9_]*``. Labels are
decoded by one token walk.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .diagnostics import ERROR, STRUCT, SYNTAX, W4, WARNING, Diagnostic, SourceSpan
from .graph import GraphConstructionError, Node, PromptTable, WorkflowGraph, effective_display
from .registry import Registry, STANDARD_CLASSES, default_registry

UNCLASSIFIED = "Unclassified"


class LoweringError(Exception):
    """Raised when lowering is attempted on a source with syntax errors."""


# -- statement forms ---------------------------------------------------------
# Immutable tuples: the parser builds spans, edges and declarations with
# ``tuple.__new__``, which skips the constructors' checks and copy.


class _NodeDeclFields(NamedTuple):
    span: SourceSpan
    id: str
    shape: str  # rect | stadium | diamond
    display: str
    attributes: Mapping


class NodeDecl(_NodeDeclFields):
    """A node declaration; ``attributes`` is stored as a read-only copy."""

    __slots__ = ()

    def __new__(cls, span, id, shape, display, attributes=()):
        return tuple.__new__(cls, (span, id, shape, display, MappingProxyType(dict(attributes))))


class ClassAssign(NamedTuple):
    span: SourceSpan
    ids: tuple[str, ...]
    name: str


class EdgeStmt(NamedTuple):
    span: SourceSpan
    source: str
    target: str
    label: str | None


class PromptEntry(NamedTuple):
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


# One match classifies a statement line. The alternatives are tried in this
# order: header, classDef, class assignment, edge (labeled, text, plain) and
# declaration (stadium, rect, diamond). A class assignment holds no arrow or
# shape bracket, so the lookahead leaves such lines to the later forms.
# ``lastgroup`` names the kind: the outer group of a header, classDef, class
# assignment or edge, and for a declaration the label group of its shape.
# Groups are read by index: 2 direction, 4 style class, 6 ids, 7 class name,
# 9-12 source, pipe label, text label, target, 13 declared id, 14-16 label.
_STATEMENT_RE = re.compile(
    r"(?P<header>flowchart\s+(?P<direction>\w+)\s*$)"
    r"|(?P<class_def>classDef\s+(?P<style_class>\w+)\s+.+$)"
    r"|(?P<assign>class(?!.*(?:-->|[\[({]))\s+(?P<ids>.+?)\s+(?P<class_name>\w+)\s*$)"
    r"|(?P<edge>(?P<source>\w+)\s*"
    r"(?:-->\s*\|(?P<pipe_label>[^|]*)\||--\s+(?P<text_label>.+?)\s+-->|-->)"
    r"\s*(?P<target>\w+)\s*$)"
    r"|(?P<decl_id>\w+)(?:\(\[(?P<stadium>.*)\]\)|\[\"(?P<rect>.*)\"\]|\{(?P<diamond>.*)\})\s*$"
)
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


@functools.lru_cache(maxsize=1024)
def _prompt_line(name: str, text: str) -> str:
    """The prompt block's line for the entry ``name``: ``text`` with its backslashes, quotes and newlines escaped."""
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'{name}="{text}"'


def split_label(label: str) -> tuple[str, dict]:
    """Split a raw node label into display text and attribute map.

    ``<br/>`` separates the display name from a parenthesized
    ``(key: value, ...)`` attribute list; the split happens before entity
    unescaping, so escaped angle brackets inside content never act as the
    separator. Attribute keys and values may be wrapped in single quotes
    (with ``\\'`` escapes); a quoted key may be empty. Unbalanced lists,
    which occur in published sources, are recovered by stripping stray
    trailing brackets.
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
        key = key.strip()
        if key:
            attrs[_unescape_label(_unquote_attr(key))] = _unescape_label(_unquote_attr(value.strip()))
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
    if value.isascii() and value.isidentifier():
        return value
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


# -- parsing ------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _classify_line(stripped: str) -> tuple:
    """What the statement line ``stripped`` (without its outer blanks) decides alone, as one of
    ``("edge", source, target, label)``, ``("decl", id, shape, display, attributes)``, ``("assign",
    ids, class name)``, ``("class_def", name)``, ``("header", direction)`` or ``("error", message)``."""
    match = _STATEMENT_RE.match(stripped)
    kind = match.lastgroup if match else None
    if kind == "edge":
        source, pipe_label, text_label, target = match.group(9, 10, 11, 12)
        if not (source.isascii() and source.isidentifier() and target.isascii() and target.isidentifier()):
            bad = target if source.isascii() and source.isidentifier() else source
            return ("error", f"bad node id in edge: {bad!r}")
        label = pipe_label or text_label
        return ("edge", source, target, (_unescape_label(label.strip()) or None) if label else None)
    if kind == "assign":
        ids = tuple(map(str.strip, match[6].split(",")))
        bad = [i for i in ids if not (i.isascii() and i.isidentifier())]
        if bad:
            return ("error", f"bad node id in class assignment: {bad[0]!r}")
        return ("assign", ids, match[7])
    if kind == "class_def":
        return ("class_def", match[4])
    if kind == "header":
        return ("header", match[2])
    if kind is not None:  # a declaration; ``kind`` is its shape
        node_id, label = match.group(13, match.lastindex)
        if not (node_id.isascii() and node_id.isidentifier()):
            return ("error", f"bad node id in declaration: {node_id!r}")
        display, attrs = split_label(label)
        return ("decl", node_id, kind, display, MappingProxyType(attrs))
    if _UNTERMINATED_DECL_RE.match(stripped):
        return ("error", f"unterminated string in node declaration: {stripped!r}")
    return ("error", f"unrecognized statement: {stripped!r}")


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

    def error(message, span, subject=None):
        diagnostics.append(Diagnostic(SYNTAX, ERROR, message, subject, span))

    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        # blank lines, comments and the closing prompt marker need no span
        if not stripped:
            continue
        if in_prompt:
            if stripped == "</prompt>":
                in_prompt = False
                prompt_closed = True
                continue
        elif stripped.startswith(("%%", "#")):
            continue
        span = tuple.__new__(SourceSpan, (lineno, len(raw) - len(raw.lstrip()) + 1, len(stripped)))

        if in_prompt:
            # prompt entries are not cached: the benchmark's check_stream sources
            # each tag their prompt texts, so no two share an entry, and caching
            # them read 442-455 ops/s there against 470-483 uncached (2 vCPUs)
            match = _PROMPT_ENTRY_RE.match(stripped)
            if not match:
                error(f"malformed prompt entry: {stripped!r}", span)
                continue
            name = match.group(1)
            if not (name.isascii() and name.isidentifier()):
                error(f"bad prompt name {name!r}", span)
                continue
            if name in prompt_names:
                error(f"duplicate prompt name {name!r}", span)
                continue
            prompt_names.add(name)
            prompts.append(PromptEntry(span, name, _unescape_prompt(match.group(2))))
            continue
        if stripped == "<prompt>":
            if prompt_closed:
                error("multiple <prompt> blocks", span)
            in_prompt = True
            continue

        statement = _classify_line(stripped)
        kind = statement[0]
        if kind == "edge":
            _, source, target, label = statement
            edges.append(tuple.__new__(EdgeStmt, (span, source, target, label)))
        elif kind == "decl":
            _, node_id, shape, display, attrs = statement
            if node_id in declared:
                error(f"duplicate node declaration {node_id!r}", span, node_id)
            declared.add(node_id)
            decls.append(tuple.__new__(NodeDecl, (span, node_id, shape, display, attrs)))
        elif kind == "assign":
            _, ids, name = statement
            for node_id in ids:
                previous = assigned.setdefault(node_id, name)
                if previous != name:
                    error(f"conflicting class assignment for {node_id}: {previous} vs {name}", span, node_id)
            assigns.append(ClassAssign(span, ids, name))
        elif kind == "class_def":
            class_defs.append((statement[1], span))
        elif kind == "header":
            if direction is not None:
                error("duplicate flowchart header", span)
            direction = statement[1]
        else:
            error(statement[1], span)

    # the two findings about the whole text point at its last and first line
    if in_prompt:
        error("unterminated <prompt> block", SourceSpan(len(lines), 1))
    if direction is None:
        error("missing 'flowchart <direction>' header", SourceSpan(1, 1))
    parts = (decls, assigns, class_defs, edges, prompts, diagnostics)
    return MermaidDocument(direction or "TD", *map(tuple, parts))


# -- lowering ------------------------------------------------------------------


def infer_domain(doc: MermaidDocument, registry: Registry | None = None) -> str:
    """Guess the task domain from the kinds a source assigns."""
    registry = registry or default_registry()
    for name in {assign.name for assign in doc.class_assigns}:
        schema = registry.get(name)
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

    rows = []
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
        rows.append((node_id, kind, decl.attributes, decl.display))
    for node_id, span in implicit.items():
        finding(W4, ERROR, f"node {node_id!r} used in an edge but never declared", span, node_id)
        rows.append((node_id, UNCLASSIFIED, MappingProxyType({}), node_id))
    for node_id, *_ in rows:  # a document built by hand, not parsed, may hold any id
        if not (node_id.isascii() and node_id.isidentifier()):
            raise GraphConstructionError(f"bad node id {node_id!r}")

    # an unescaped label may be blank or padded
    edges = [(e.source, e.target, (e.label and e.label.strip()) or "") for e in doc.edges]
    prompts = PromptTable({p.name: p.text for p in doc.prompts})
    return WorkflowGraph._from_checked(rows, edges, prompts, domain, registry), diagnostics


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
    body = _escape_label(effective_display(graph, node))
    if node.attributes:
        attrs = ", ".join(
            f"{_quote_attr(_escape_attr_key(key))}: {_quote_attr(_escape_label(value))}"
            for key, value in node.attributes.items()
        )
        body = f"{body}<br/>({attrs})"
    shape = node_shape(graph, node)
    if shape == "stadium":
        return f"{node.id}([{body}])"
    if shape == "diamond":
        return f"{node.id}{{{body}}}"
    return f'{node.id}["{body}"]'


@functools.lru_cache(maxsize=64)
def _class_defs(registry: Registry, extra: tuple) -> tuple:
    """The classDef lines of the standard classes and of the ``extra`` ones, styled as ``registry`` says."""
    styles = {}
    for schema in registry.schemas():
        if schema.style_class:
            styles[schema.style_class] = schema.style
    return tuple(f"  classDef {name} {styles.get(name) or 'fill:#ffffff'};" for name in (*STANDARD_CLASSES, *extra))


def serialize_workflow(graph: WorkflowGraph) -> str:
    """Emit the canonical source form: a fixed point of serialize-parse-serialize.

    Ordering: header; entry declarations first and exits last with the rest
    in the graph's id order; the full standard classDef block (always
    emitted, even for unused classes); class assignments by id; edges in the
    graph's (source, target, label) order; then the prompt block by name.
    """
    # a node's lines read only the node, its schema and its out-edges, so a
    # product of with_changes starts with its parent's lines of the nodes the
    # delta leaves as they were
    memo = graph._lines
    for nid in graph._by_id.keys() - memo.keys():
        # a node's declaration and class lines, its out-edge lines as one text
        # and the style class it uses, all strings, so the garbage collector
        # can leave the entry alone; the write is idempotent: a racing caller
        # stores equal lines
        node, schema = graph._by_id[nid], graph.schema(nid)
        style = schema.style_class if schema is not None else ""
        edges = ""
        for target, label in graph._out[nid]:
            line = f"  {nid} --> |{_escape_edge_label(label)}|{target}" if label else f"  {nid} --> {target}"
            edges = f"{edges}\n{line}" if edges else line
        memo[nid] = ("  " + _node_decl_line(graph, node), f"  class {nid} {style or node.kind}", edges, style)
    decls, classes, edges, used = zip(*map(memo.__getitem__, graph._by_id)) if memo else ((),) * 4

    roles = graph.interface_roles()
    placed = [memo[nid][0] for nid in (*roles.entries, *roles.exits)]
    decls = list(decls)
    for line in placed:  # a declaration line starts with its node's id, so no two are equal
        decls.remove(line)
    lines = ["flowchart TD", *placed[: len(roles.entries)], *decls, *placed[len(roles.entries) :], ""]

    lines += _class_defs(graph.registry, tuple(sorted(set(used).difference(STANDARD_CLASSES, ("",)))))
    lines += ["", *classes, "", *filter(None, edges)]

    if len(graph.prompts):
        entries = graph.prompts.entries
        lines += ["", "<prompt>", *map(_prompt_line, entries, entries.values()), "</prompt>"]
    return "\n".join(lines) + "\n"


def hard_check(text: str) -> tuple[bool, list[Diagnostic]]:
    """Syntax-level verification: every statement must be within the dialect."""
    doc = parse_workflow(text)
    return doc.ok, list(doc.diagnostics)
