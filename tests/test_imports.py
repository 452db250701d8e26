"""Every imported name is used in the module that imports it.

Each module under ``src/burntrack/`` and ``tests/`` is parsed with
``ast``.  A name bound by ``import`` or ``from ... import`` (apart from
``__future__`` features) counts as used when it is read as a name
anywhere in the module, or when the module lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "burntrack").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def imported(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = used(tree)
    unused = [(name, line) for name, line in imported(tree) if name not in names]
    assert unused == []


def test_the_scan_covers_both_trees():
    assert {p.parent.name for p in MODULES} == {"burntrack", "tests"}
    assert any(p.name == "graphmap.py" for p in MODULES)
