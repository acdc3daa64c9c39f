"""Every module-level import of the package and of its tests is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(source: str) -> list[str]:
    """Names bound by the module body's own import statements that no
    expression of the module reads.  A string annotation counts as read
    through the names it parses to."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                expr = ast.parse(annotation.value, mode="eval")
                read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_every_module_level_import_is_read():
    sample = "import os\nimport json\nfrom typing import Mapping\nx: 'Mapping' = json.loads('os')\n"
    assert _unread_imports(sample) == ["line 1: os"]
    paths = sorted((ROOT / "src" / "doxatest").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    unread = {
        str(path.relative_to(ROOT)): found
        for path in paths
        if (found := _unread_imports(path.read_text()))
    }
    assert unread == {}
