from __future__ import annotations

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowevo"


def test_package_data_covers_every_data_file():
    # an installed wheel carries only the data files a package-data glob names
    with (ROOT / "pyproject.toml").open("rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["flowevo"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data_files = {
        path
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    }
    assert data_files
    assert sorted(p.relative_to(PACKAGE).as_posix() for p in data_files - shipped) == []
