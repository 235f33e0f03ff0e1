"""Conjugacy has one home: an upper bound is the negated lower bound of the
negated payoff, and only ``Problem`` negates it.  ``Problem._value(True,
delta)`` returns the upper bound's own value, so no caller negates again.
The upper side reads the negation's order and sorted values from the
payoff's (``Objective._negation``) and builds no negated ``Objective``, yet
holds the bytes of a side built from ``Objective(-values)``, a negated
payoff sorted from scratch.

Like ``test_family_branches.py``, this reads the syntax tree: ``cli.py``
holds no unary minus, so it cannot negate a bound itself.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import divball as db
from divball import chi2, cli, tv


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


def conjugacy_payoffs(rng, n):
    """Untied, tied, constant, and a zero run that mixes ``0.0`` and ``-0.0``."""
    return (
        rng.uniform(-1.0, 1.0, n),
        np.round(rng.uniform(-1.0, 1.0, n) * 4) / 3,
        np.full(n, 0.25),
        rng.choice([0.0, -0.0, 1.0, -0.5], n),
    )


SIDES = {"tv": tv.TVSide, "chi2": chi2.CriticalDeltas}
SIDE_ARRAYS = {
    "tv": ("perm", "f_sorted", "p_sorted", "tails"),
    "chi2": ("perm", "f_sorted", "p_sorted", "tails", "prefix_mass", "gap", "prefix_var", "finite"),
}


def assert_upper_side_is_the_negations(family, p, values):
    pmf, obj = db.validate(p, values, family)
    prepared = db.Problem(pmf, obj, family)
    fresh = db.Objective(-obj.values)
    reference = db.Problem(pmf, fresh, family)
    for delta in (0.0, 0.05, 0.3, 2.0):
        upper, lower = prepared.upper(delta), reference.lower(delta)
        assert float(upper.value).hex() == float(-lower.value).hex()
        assert (upper.active_index, upper.branch) == (lower.active_index, lower.branch)
        assert upper.minimizer.weights.tobytes() == lower.minimizer.weights.tobytes()
    side, built = prepared._sides[True], SIDES[family](pmf, fresh)
    for name in SIDE_ARRAYS[family]:
        assert getattr(side, name).tobytes() == getattr(built, name).tobytes(), name
        assert not getattr(side, name).flags.writeable
    assert (side.n, side.plateau) == (built.n, built.plateau)
    if family == "chi2":
        assert (side.edges is None) == (built.edges is None)
        if side.edges is not None:
            assert side.edges.tobytes() == built.edges.tobytes()
    # Both are the stable ascending order of the negated values, signs kept.
    expected = np.argsort(-obj.values, kind="stable")
    assert side.perm.tobytes() == expected.tobytes()
    assert side.f_sorted.tobytes() == (-obj.values)[expected].tobytes()


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_upper_side_holds_the_bytes_of_the_negation(family):
    rng = np.random.default_rng(31 if family == "tv" else 32)
    for n in range(1, 301):
        p = rng.dirichlet(np.ones(n))
        for values in conjugacy_payoffs(rng, n):
            assert_upper_side_is_the_negations(family, p, values)


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_upper_side_holds_the_bytes_of_the_negation_at_scale(family, tied):
    rng = np.random.default_rng(33 + tied)
    n = 100_000
    values = rng.uniform(-1.0, 1.0, n)
    if tied:
        values = np.round(values * 50) / 50
    assert_upper_side_is_the_negations(family, rng.dirichlet(np.ones(n)), values)


def test_upper_tails_are_the_lower_prefix_masses_read_backwards():
    # A chi-squared side's tails are the suffix masses of its level masses,
    # and the upper side's levels are the lower side's reversed, each run
    # summed in the same order; so the upper tails are the lower side's
    # prefix masses, the total left out, read backwards, then 0.
    rng = np.random.default_rng(35)
    sides = {True: 0, False: 0}  # by whether the payoff is tied
    for _ in range(3000):
        n = int(rng.integers(2, 301))
        p = np.maximum(np.nan_to_num(rng.dirichlet(np.full(n, rng.choice([0.05, 1.0])))), 1e-300)
        values = rng.uniform(-1.0, 1.0, n)
        if rng.random() < 0.5:
            values = np.round(values * 3.0)
        pmf, obj = db.validate(p / p.sum(), values * rng.choice([1e-8, 1.0, 1e8]), "chi2")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                lower = chi2.CriticalDeltas(pmf, obj)
                upper = chi2.CriticalDeltas(pmf, obj, negated=True)
        except db.DivballError:
            continue  # a numeric breakdown of either side's radii
        want = np.append(lower.prefix_mass[-2::-1], 0.0)
        assert upper.tails.tobytes() == want.tobytes()
        sides[lower.edges is not None] += 1
    assert min(sides.values()) > 1000


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("n", [5, 41, 100_000])
def test_no_bound_builds_a_negated_payoff(monkeypatch, family, n):
    # Once the payoff is built, no bound builds any Objective, negated or not.
    def refused(self):
        raise AssertionError("a bound built a payoff")

    rng = np.random.default_rng(n)
    p = rng.dirichlet(np.ones(n))
    for values in (rng.uniform(-1.0, 1.0, n), np.round(rng.uniform(-1.0, 1.0, n) * 3)):
        pmf, obj = db.validate(p, values, family)
        sweep = {"start": 0.0, "stop": 0.5, "steps": 3}
        file = {"p": p.tolist(), "f": values.tolist(), "ball": family, "sweep": sweep}
        resolved = cli.resolve_problem(file)
        with monkeypatch.context() as patch:
            patch.setattr(db.Objective, "__post_init__", refused)
            with pytest.raises(AssertionError):
                db.Objective([1.0])  # the guard is live
            getattr(db, f"{family}_upper_expectation")(pmf, obj, 0.1)
            db.Problem(pmf, obj, family).upper(0.1)
            rows = cli.run_bound(*resolved).splitlines()
        assert len(rows) == 4
