"""Every name a library module imports is used in it.

No linter ships with the project, so this reads each module's syntax tree:
an imported name must appear as a name somewhere else in its module.
``__init__`` is left out, since it imports names to export them.
"""

import ast
from pathlib import Path

import pytest

import divball

MODULES = sorted(
    path for path in Path(divball.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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
