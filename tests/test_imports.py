"""Every name a kgrec module imports is used in that module, and every
function and class a kgrec module defines is read by the library itself."""

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


def unread_definitions(sources: dict) -> list:
    """(module, name) of each top-level function or class of `sources`
    (module name -> source) that no module reads, as a name or as an
    attribute (`data.load_bundle`); a definition alone is not a read."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return sorted((module, name) for module, name in defined if name not in read)


def test_scan_finds_unread_definitions():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": "import a\n\ndef h():\n    return a.f\n"}
    assert unread_definitions(sources) == [("a", "C"), ("b", "h")]


def test_every_definition_is_read_by_the_library():
    modules = sorted((Path(SRC) / "kgrec").glob("*.py"))
    assert len(modules) > 5
    assert unread_definitions({p.name: p.read_text() for p in modules}) == []
