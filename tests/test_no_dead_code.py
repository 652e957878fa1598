"""No definition in the package that neither the package nor the benchmark uses.

The scan reads ``src/flowevo/*.py`` (the package ``__init__`` aside) for
module-level functions, classes and assigned names (constants), and for the
non-dunder methods of those classes; dunder names are skipped. A definition
is used when its name appears in those modules or in ``bench/*.py``: a
module-level one as a name that is read, an attribute or an imported name;
a method only as an attribute or a string (which ``getattr`` may read), so
a local variable of the same name does not count. Neither the tests nor the
``__init__`` re-exports count: a name that only a test calls is a second
public path to keep working.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowevo"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]

# name -> why it stays without a use in the package or the benchmark
ALLOWED = {
    "hard_check": "the syntax-level check of the package API, which acceptance C1 and C5 call",
    "load_history": "the only engine code that reads parse_workflow and lower_to_graph, which "
    "bench/workloads.install_tracing rebinds on the engine module",
    "sample_parent_indices": "the sampling rule acceptance C4 checks the loop's draws against",
    **dict.fromkeys(
        ("rewire_edge", "mutate_subgraph"),
        "a public operator, which builds every product it is asked for; apply_random's site path "
        "builds the same delta and checks it before building, and tests check the condemned sites "
        "against this operator",
    ),
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path):
    """(name, whether it is a method) of each definition in ``path``, in file order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not _dunder(name.id):
                        yield name.id, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                    yield item.name, True


def _uses(path: Path, names: set, members: set) -> None:
    """Add to ``names`` each name ``path`` reads, imports or takes as an attribute, and to
    ``members`` each attribute and string, the uses a method counts."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):  # not a definition
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            members.add(node.value)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])


def _unused() -> list:
    """(module file, name) of each definition with no use, in file order."""
    names, members = set(), set()
    for path in MODULES + sorted((ROOT / "bench").glob("*.py")):
        _uses(path, names, members)
    return [
        (path.name, name)
        for path in MODULES
        for name, method in _definitions(path)
        if name not in (members if method else names)
    ]


def test_every_definition_has_a_use_outside_the_tests():
    unused = [f"{module}: {name}" for module, name in _unused() if name not in ALLOWED]
    assert not unused, "definitions nothing in src/flowevo or bench/ uses: " + ", ".join(unused)


def test_every_allowed_name_is_defined_and_unused():
    assert sorted(name for _, name in _unused()) == sorted(ALLOWED)
