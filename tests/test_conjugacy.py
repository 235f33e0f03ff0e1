"""Conjugacy has one home: an upper bound is the negated lower bound of the
negated payoff, and only ``Problem`` negates it.  ``Problem._value(True,
delta)`` returns the upper bound's own value, so no caller negates again.

Like ``test_family_branches.py``, this reads the syntax tree: ``cli.py``
holds no unary minus, so it cannot negate a bound itself.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import divball as db
from divball import cli


def unary_minuses(source: str) -> list[str]:
    """The lines holding a unary minus (``-x``, not ``a - b``)."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)]


def test_cli_negates_nothing():
    assert unary_minuses(Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_check_flags_a_minus():
    source = (
        "def row(prepared, delta):\n"
        "    gap = prepared.upper - prepared.lower\n"
        "    upper = -prepared._value(True, delta)[0]\n"
        "    return {'upper': upper, 'floor': -1.0 * gap}\n"
    )
    assert unary_minuses(source) == ["line 3", "line 4"]


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_value_of_an_upper_bound_is_the_bound(family):
    rng = np.random.default_rng(90)
    for n in (1, 2, 3, 7, 40):
        for levels in (0, 3):
            p = rng.dirichlet(np.ones(n))
            f = rng.uniform(-1.0, 1.0, n)
            if levels:
                f = np.round(f * levels) / levels
            prepared = db.Problem(*db.validate(p, f, family), family)
            for delta in (0.0, *rng.uniform(0.0, 1.2 if family == "tv" else 5.0, 4), 40.0):
                value, r, branch = prepared._value(True, float(delta))
                upper = prepared.upper(float(delta))
                assert float(value).hex() == float(upper.value).hex()
                assert (r, branch) == (upper.active_index, upper.branch)
