"""Every name README.md offers a reader exists.

The "Key entry points" table names what ``divball`` exports, and the list
under it names what is importable only from a module (or, for
``tests/crosscheck.py``, from the test helpers).  Prose code spans
``Head.attr`` or ``Head.attr()``, whose head is a ``divball`` module or
export, name an attribute of it.  A README that still names a deleted or
renamed function fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import divball

README = Path(__file__).resolve().parents[1] / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")
MODULES = {info.name for info in pkgutil.iter_modules(divball.__path__)}


def table_names(text: str) -> list[str]:
    """The leading identifier of each code span in the first column of the
    table after "Key entry points:"."""
    lines = text.split("Key entry points:", 1)[1].strip().splitlines()
    names = []
    for line in lines[2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        for span in re.findall(r"`([^`]+)`", line.split("|")[1]):
            names.append(IDENTIFIER.match(span).group())
    return names


def module_names(text: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each bullet "- `module`: `name`, ..."."""
    pairs = []
    for module, rest in re.findall(r"^- `([\w./]+)`: (.+)$", text, re.M):
        pairs += [(module, name) for name in re.findall(r"`(\w+)`", rest)]
    return pairs


def dotted_names(text: str) -> list[tuple[str, str]]:
    """``(head, attr)`` for each code span `` `Head.attr` `` or
    `` `Head.attr()` `` whose head is a ``divball`` module or export."""
    return [(head, attr) for head, attr in DOTTED.findall(text)
            if head in MODULES or head in divball.__all__]


def missing(text: str) -> list[str]:
    absent = [name for name in table_names(text) if not hasattr(divball, name)]
    for head, attr in dotted_names(text):
        owner = importlib.import_module(f"divball.{head}") if head in MODULES else getattr(divball, head)
        if not hasattr(owner, attr):
            absent.append(f"{head}.{attr}")
    for module, name in module_names(text):
        # A test helper file is imported by its stem, as the tests do.
        owner = importlib.import_module(Path(module).stem if module.endswith(".py") else module)
        if not hasattr(owner, name):
            absent.append(f"{module}.{name}")
    return absent


def test_readme_names_exist():
    text = README.read_text(encoding="utf-8")
    # Guard against a parse that finds nothing and so passes vacuously.
    assert len(table_names(text)) >= 10
    assert {module for module, _ in module_names(text)} >= {
        "divball.core", "divball.tv", "divball.oracle", "tests/crosscheck.py",
    }
    assert {head for head, _ in dotted_names(text)} >= {"core", "Objective"}
    assert missing(text) == []


@pytest.mark.parametrize(
    "row, bullet, want",
    [
        ("| `sort_and_prefix(p, f)` | gone |", "- `divball.core`: `suffix_masses`", ["sort_and_prefix"]),
        ("| `Problem(p, f, family)` | kept |", "- `divball.chi2`: `critical_deltas`", ["divball.chi2.critical_deltas"]),
    ],
)
def test_check_flags_a_missing_name(row, bullet, want):
    text = f"Key entry points:\n\n| function | purpose |\n| --- | --- |\n{row}\n\n{bullet}\n"
    assert missing(text) == want


def test_check_flags_a_stale_dotted_span():
    text = (
        "Key entry points:\n\n| function | purpose |\n| --- | --- |\n| `Problem` | kept |\n\n"
        "`Objective._negation` derives it, `Objective.negated()` is gone, `core.check_delta`"
        " checks, `core._NO_SUCH` is gone, and `np.nothing` and `Objective.negated(p)` are not read.\n"
    )
    assert dotted_names(text) == [
        ("Objective", "_negation"), ("Objective", "negated"), ("core", "check_delta"), ("core", "_NO_SUCH"),
    ]
    assert missing(text) == ["Objective.negated", "core._NO_SUCH"]
