"""Every cache in the package holds a bounded number of entries.

The scan reads ``src/flowevo/*.py`` for uses of ``functools.cache`` (which
never evicts) and for ``functools.lru_cache`` without an explicit ``maxsize``
or with ``maxsize=None``, whether applied as a decorator or called. A cache
keyed by source lines, program lines or prompt texts would otherwise grow
with every distinct value a long run reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flowevo"


def _name(node) -> str | None:
    """``cache`` or ``lru_cache`` for ``functools.<name>`` or a bare imported ``<name>``, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _bounded(call: ast.Call) -> bool:
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return bool(sizes) and not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None)


def _caches(path: Path):
    """(line, whether bounded) of each ``lru_cache`` or ``cache`` use in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        name = _name(node)
        if name == "cache":
            yield node.lineno, False
        elif name == "lru_cache":  # a bare ``@functools.lru_cache`` takes the default size
            yield node.lineno, id(node) in called and _bounded(called[id(node)])


def test_every_cache_in_the_package_is_bounded():
    found = [(path.name, line, bounded) for path in sorted(PACKAGE.glob("*.py")) for line, bounded in _caches(path)]
    unbounded = [f"{name}:{line}" for name, line, bounded in found if not bounded]
    assert not unbounded, "caches without an explicit maxsize: " + ", ".join(unbounded)
    assert len(found) >= 5  # the scan sees the package's caches


def test_the_scan_flags_unbounded_caches(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import functools\n"
        "@functools.cache\ndef a(x): ...\n"
        "@functools.lru_cache\ndef b(x): ...\n"
        "@functools.lru_cache()\ndef c(x): ...\n"
        "@functools.lru_cache(maxsize=None)\ndef d(x): ...\n"
        "e = functools.cache(len)\n"
        "@functools.lru_cache(maxsize=8)\ndef f(x): ...\n"
        "g = functools.lru_cache(16)(len)\n"
        "from functools import cache, lru_cache\n"
        "h = cache(lru_cache(maxsize=None)(len))\n"
    )
    assert sorted(_caches(path)) == [
        (2, False), (4, False), (6, False), (8, False), (10, False), (11, True), (13, True), (15, False), (15, False)
    ]
