"""Frozen copy of the regex cascade that parsed sources before one alternation did.

``reference_parse_workflow`` is ``mermaid.parse_workflow`` as it was when
each statement regex was tried in turn, with the stadium label sent
through ``split_label`` as the current parser does (so a stadium carries
attributes). Labels go through the current ``split_label``, which has its
own reference; the differential test compares the statement cascade.
One rule was added later: a prompt name that is not an identifier is a
SYNTAX finding, as it is for node ids, because a prompt table cannot hold it.
"""

from __future__ import annotations

import re

from flowevo.diagnostics import ERROR, SYNTAX, Diagnostic, SourceSpan
from flowevo.mermaid import (
    ClassAssign,
    EdgeStmt,
    MermaidDocument,
    NodeDecl,
    PromptEntry,
    _unescape_label,
    _unescape_prompt,
    split_label,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")  # the node-id and prompt-name rule
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
_UNTERMINATED_DECL_RE = re.compile(r"\w+\[\"")


def reference_parse_workflow(text: str) -> MermaidDocument:
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
            if not _IDENT_RE.match(name):  # the one rule added since the cascade was frozen
                error(f"bad prompt name {name!r}")
                continue
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
            bad = [i for i in ids if not _IDENT_RE.match(i)]
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
                bad = [i for i in (source, target) if not _IDENT_RE.match(i)]
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
            if not _IDENT_RE.match(decl.id):
                error(f"bad node id in declaration: {decl.id!r}")
                continue
            if decl.id in declared:
                error(f"duplicate node declaration {decl.id!r}", decl.id)
            declared.add(decl.id)
            decls.append(decl)

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
    for regex, shape in ((_STADIUM_RE, "stadium"), (_RECT_RE, "rect"), (_DIAMOND_RE, "diamond")):
        match = regex.match(stripped)
        if match:
            return NodeDecl(span, match.group(1), shape, *split_label(match.group(2)))
    return None
