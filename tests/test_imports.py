"""Every module-level import of the package and of its tests is read, and
every top-level definition of the package, and every public method and
property of its classes, has a reader outside the tests."""

import ast
import importlib
import re
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


def _unused_definitions(sources: dict[str, str], named: set[str]) -> list[str]:
    """Top-level functions and classes of the modules ``sources`` (module
    name -> source), and the public methods and properties of those classes,
    that no code of those modules reads outside their own body, that are not
    a registered CLI command (``@<group>.command``) and that are not in
    ``named``.  A method is read as any attribute of its name."""
    defined, read = {}, set()

    def reads(node, own: set[str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name not in own:
                read.add(name)

    for module, source in sources.items():
        for top in ast.parse(source).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                reads(top, set())
                continue
            command = any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
                for d in top.decorator_list
            )
            if not command:
                defined[top.name] = f"{module}.{top.name}"
            if isinstance(top, ast.FunctionDef):
                reads(top, {top.name})
                continue
            for node in [*top.decorator_list, *top.bases, *top.keywords, *top.body]:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{module}.{top.name}.{node.name}")
                    reads(node, {top.name, node.name})
                else:
                    reads(node, {top.name})
    return sorted(label for name, label in defined.items() if name not in read | named)


def _readme_library_names() -> set[str]:
    """Identifiers in the code of the README's Library section: its import
    block and its inline code spans."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\w*\n(.*?)```", section, re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))


def _bench_names() -> set[str]:
    """Names the benchmark takes from the package, found by parsing
    ``bench/*.py``: those imported from ``doxatest`` modules, the functions
    `spans.TRACED` wraps, and every attribute it reads (of a ``doxatest``
    module, or a method or property of a package object)."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "doxatest":
                names.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
                names.update(attr.split(".")[0] for _, attr, _ in ast.literal_eval(node.value))
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _overrides() -> set[str]:
    """Methods of package classes that override an inherited one (a
    `click` hook, say): whoever calls the base's method reads them."""
    out = set()
    for path in sorted((ROOT / "src" / "doxatest").glob("*.py")):
        module = importlib.import_module(f"doxatest.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                out.update(name for name in vars(cls) if any(hasattr(b, name) for b in cls.__mro__[1:]))
    return out


def test_every_top_level_definition_has_a_reader():
    sample = {
        "m": "def used(): pass\ndef loop(): loop()\ndef named(): pass\n"
        "@main.command()\ndef cmd(): pass\nclass Spare: pass\nx = used\n"
        "class Kept:\n    def _own(self): pass\n    def spare(self): self.spare()\n"
        "    @property\n    def size(self): return 0\n    def read(self): return self.size\n"
        "def reader(k): return Kept, k.read()\n",
    }
    assert _unused_definitions(sample, {"named"}) == ["m.Kept.spare", "m.Spare", "m.loop", "m.reader"]
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "doxatest").glob("*.py"))}
    assert {"cn_member", "check_property"} <= _readme_library_names()
    assert {"correspondence_verdict", "check_pd57_literal", "main"} <= _bench_names()
    assert {"invoke", "consume_value"} <= _overrides()
    named = _readme_library_names() | _bench_names() | _overrides()
    assert _unused_definitions(sources, named) == []


def test_no_package_module_reads_the_selection_copy():
    # the rows are the one selection store; `Frame.selection` copies them
    # out for callers outside the package
    readers = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((ROOT / "src" / "doxatest").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "selection"
    ]
    assert readers == []


def test_only_frames_knows_the_packed_table_format():
    # `frames` owns the packed event-table format (`pack`, `unpack` and the
    # layout of `grid`): no other package module imports `struct` or spells
    # its format letters
    owners = {"struct": set(), "BHIQ": set()}
    for path in sorted((ROOT / "src" / "doxatest").glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
                owners["struct"].add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "struct":
                owners["struct"].add(path.stem)
        if "BHIQ" in source:
            owners["BHIQ"].add(path.stem)
    assert owners == {"struct": {"frames"}, "BHIQ": {"frames"}}
