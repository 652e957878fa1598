"""Frozen copy of the two character loops that once split attribute lists.

``reference_split_label`` is ``mermaid.split_label`` as it was before the
loops became one token walk; the property test compares the two. Keys are
decoded as the current ``split_label`` decodes them: a quoted key is
unquoted, like a value.
"""

from __future__ import annotations

from flowevo.mermaid import _unescape_label, _unquote_attr


def _scan_paren_body(text: str) -> tuple[str, bool]:
    """Return the content of the leading parenthesized group and whether it closed."""
    depth = 0
    in_quote = False
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if in_quote:
            if ch == "\\" and i + 1 < len(text):
                out.append(text[i : i + 2])
                i += 2
                continue
            if ch == "'":
                in_quote = False
            out.append(ch)
            i += 1
            continue
        if ch == "'":
            in_quote = True
            out.append(ch)
        elif ch == "(":
            depth += 1
            if depth > 1:
                out.append(ch)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return "".join(out), True
            out.append(ch)
        else:
            out.append(ch)
        i += 1
    return "".join(out), False


def _split_top_level(body: str) -> list[str]:
    parts = []
    current = []
    depth = 0
    in_quote = False
    i = 0
    while i < len(body):
        ch = body[i]
        if in_quote:
            if ch == "\\" and i + 1 < len(body):
                current.append(body[i : i + 2])
                i += 2
                continue
            if ch == "'":
                in_quote = False
            current.append(ch)
        elif ch == "'":
            in_quote = True
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if current:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def reference_split_label(label: str) -> tuple[str, dict]:
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
    body, closed = _scan_paren_body(rest)
    if not closed:
        body = body.rstrip("])").strip()
    attrs: dict = {}
    for part in _split_top_level(body):
        key, _, value = part.partition(":")
        key = key.strip()
        value = value.strip()
        if not key:
            continue
        attrs[_unescape_label(_unquote_attr(key))] = _unescape_label(_unquote_attr(value))
    return display, attrs
