"""The package is stdlib-only: it declares no runtime dependency, so every
module it imports, other than its own, must ship with Python."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import stapleforge

PACKAGE_DIR = Path(stapleforge.__file__).resolve().parent


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one source file."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = list(PACKAGE_DIR.glob("*.py"))
    assert sources
    imported = {name: path.name for path in sources for name in absolute_imports(path)}
    assert imported
    outside = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}
