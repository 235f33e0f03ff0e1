"""``Problem`` makes no ball-family test: each prepared side answers
``value(delta)`` and ``weights(r, delta)`` for itself, so a new per-side
capability is one method on each side rather than one more branch per call
site.

Like ``test_imports.py``, this reads the syntax tree: no method of
``Problem`` may compare with a ``BallFamily`` member, by a comparison or by
a ``match`` case.
"""

import ast
import enum
from pathlib import Path

import pytest

import divball as db
from divball import problem


def _is_member(node) -> bool:
    """``BallFamily.X``, or ``<module>.BallFamily.X``."""
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "BallFamily") or (
        isinstance(owner, ast.Attribute) and owner.attr == "BallFamily"
    )


def family_tests(source: str, cls: str = "Problem") -> list[str]:
    """The lines in the methods of ``cls`` that compare with a family member."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and node.name == cls):
            continue
        for item in ast.walk(node):
            if isinstance(item, ast.Compare):
                operands = [item.left, *item.comparators]
            elif isinstance(item, ast.MatchValue):
                operands = [item.value]
            else:
                continue
            if any(_is_member(op) for op in operands):
                found.append(f"line {item.lineno}")
    return found


def test_problem_makes_no_family_test():
    assert family_tests(Path(problem.__file__).read_text(encoding="utf-8")) == []


def test_check_flags_a_family_test():
    source = (
        "class Problem:\n"
        "    def _solve(self):\n"
        "        if self.family is BallFamily.TV:\n"
        "            pass\n"
        "        return core.BallFamily.CHI2 == self.family\n"
        "    def _value(self, family):\n"
        "        match family:\n"
        "            case BallFamily.CHI2:\n"
        "                pass\n"
        "def outside(family):\n"
        "    return family == BallFamily.CHI2\n"
    )
    assert family_tests(source) == ["line 3", "line 5", "line 8"]


@pytest.mark.parametrize("name", ["tv_lower_expectation", "tv_upper_expectation",
                                  "chi2_lower_expectation", "chi2_upper_expectation"])
def test_one_shot_bounds_make_no_enum_call(monkeypatch, name):
    p, f = db.validate([0.2, 0.5, 0.3], [1.0, 0.0, 2.0])
    calls = []
    call = enum.EnumType.__call__

    def counted(cls, *args, **kwargs):
        if cls is db.BallFamily:
            calls.append(args)
        return call(cls, *args, **kwargs)

    monkeypatch.setattr(enum.EnumType, "__call__", counted)
    assert getattr(db, name)(p, f, 0.25).active_index >= 1
    assert db.Problem(p, f, "chi2").lower(0.25).active_index >= 1
    assert calls == [("chi2",)]  # only the string family needed the enum
