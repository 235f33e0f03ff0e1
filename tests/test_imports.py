"""Every name a library module imports is used in it, and every private
name the library defines is used in the library.

No linter ships with the project, so this reads each module's syntax tree:
an imported name must appear as a name somewhere else in its module
(``__init__`` is left out, since it imports names to export them), and a
private module-level function, class or constant, or a private method, must
be read by name or attribute somewhere in the package, so that helpers only
the tests use stay out of it.  Dunder names and enum ``_sunder_`` hooks are
called by Python itself.
"""

import ast
from pathlib import Path

import pytest

import divball

PACKAGE = sorted(Path(divball.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom numpy import zeros as z, ones\nones(math.pi)\n"
    assert unused_imports(source) == ["os (line 2)", "z (line 3)"]


def private_definitions(tree: ast.Module):
    """Private module-level functions, classes and constants, and private
    methods, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def unused_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for name, line in private_definitions(tree):
            # Dunder and sunder names end with an underscore.
            if name.startswith("_") and not name.endswith("_") and name not in read:
                unused.append(f"{module}:{line} {name}")
    return sorted(unused)


def test_package_uses_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unused_private_names(sources) == []


def test_check_flags_an_unused_private_name():
    sources = {
        "a.py": "import enum\n_LIMIT = 3\n_SPARE = 4\ndef _helper():\n    return _LIMIT\n"
                "def _orphan():\n    pass\n",
        "b.py": "import a\nclass _Box(enum.Enum):\n    def _missing_(cls, v):\n        pass\n"
                "    def __repr__(self):\n        pass\n    def _used(self):\n        pass\n"
                "    def _unused(self):\n        pass\na._helper()\n_Box()._used()\n",
    }
    assert unused_private_names(sources) == ["a.py:3 _SPARE", "a.py:6 _orphan", "b.py:9 _unused"]
