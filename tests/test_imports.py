"""Every name a kgrec module imports is used in that module."""

import ast
from pathlib import Path

from conftest import SRC


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` imports and never reads. A name
    counts as read when it appears as an expression anywhere in the module,
    annotations and function bodies included; `from __future__` is skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_scan_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nx = np.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted((Path(SRC) / "kgrec").glob("*.py"))
    assert len(modules) > 5
    unused = [f"{p.name}:{line}: {name}" for p in modules for line, name in unused_imports(p.read_text())]
    assert unused == []
