"""Source hygiene of the package, checked on its syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import stdrefine

PACKAGE = Path(stdrefine.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_names_they_use(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert unused == [], f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_model_does_not_import_the_interpreter():
    # The interpreter is built on the model, not the other way round; a
    # function-local import would hide the cycle, so every import counts.
    tree = ast.parse((PACKAGE / "model.py").read_text())
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            sources = {base, *(base + sep + a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            sources = {a.name for a in node.names}
        else:
            continue
        if sources & {".interp", "stdrefine.interp"}:
            offending.append(node.lineno)
    assert offending == [], f"model.py imports the interpreter at lines {offending}"
