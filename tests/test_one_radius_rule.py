"""One radius rule and one center rule: ``Problem`` (and so every bound), the
CLI and the grid oracle reject a bad radius through ``core.check_delta``, and
a chi-squared center with a zero weight is rejected through
``core.require_positive``, so a second copy of either rule cannot drift from
the first.  ``Problem`` checks a radius before it builds or asks a side.  A
radius and a radius threshold are read as numbers by one helper,
``core.real_number``, which refuses text that ``float`` would parse.

Like ``test_family_branches.py``, this reads the syntax tree of every module
in the package: ``NegativeDeltaError`` is raised only in ``check_delta``, and
the zero-center message only in ``require_positive``.  ``ZeroMassForbiddenError``
is raised only there and in the oracle's definitional divergence, which stays
independent of the package's rules on purpose.  A problem's pair, family and
chi-squared center are checked once, by ``core.check_problem``, and no side
class calls it, ``check_pair`` or ``require_positive``.
"""

import ast
import inspect
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import divball
from divball.chi2 import CriticalDeltas
from divball.core import SortedProblem
from divball.tv import TVSide

ZERO_CENTER = "chi-squared balls need a strictly positive center pmf"


def raisers(source: str, module: str, test) -> list[str]:
    """The functions (``module.Class.name``) holding a ``raise`` whose
    exception expression ``test`` accepts."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None and test(child.exc):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def raised_name(exc) -> str | None:
    """The name of the class raised, bare or through a module attribute."""
    target = exc.func if isinstance(exc, ast.Call) else exc
    return getattr(target, "id", getattr(target, "attr", None))


def negative_delta(exc) -> bool:
    """``NegativeDeltaError(...)``, bare or through a module attribute."""
    return raised_name(exc) == "NegativeDeltaError"


def zero_mass(exc) -> bool:
    """``ZeroMassForbiddenError(...)``, bare or through a module attribute."""
    return raised_name(exc) == "ZeroMassForbiddenError"


def zero_center(exc) -> bool:
    """Any exception built with the zero-center message in a literal."""
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, str) and ZERO_CENTER in node.value
        for node in ast.walk(exc)
    )


def package_raisers(test) -> list[str]:
    modules = sorted(Path(divball.__file__).parent.glob("*.py"))
    return [where for path in modules
            for where in raisers(path.read_text(encoding="utf-8"), path.stem, test)]


def test_only_check_delta_rejects_a_radius():
    assert package_raisers(negative_delta) == ["core.check_delta"]


def test_only_require_positive_rejects_a_zero_center():
    assert package_raisers(zero_center) == ["core.require_positive"]


def gate_calls(source: str) -> list[str]:
    """The calls of ``check_pair``, ``require_positive`` or
    ``check_problem`` in ``source``, bare or through a module attribute,
    as ``Class.name``."""
    return sorted(
        f"{node.name}.{raised_name(call)}"
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and raised_name(call) in ("check_pair", "require_positive", "check_problem")
    )


@pytest.mark.parametrize("side", [SortedProblem, TVSide, CriticalDeltas], ids=lambda c: c.__name__)
def test_no_side_checks_its_problem_again(side):
    # Problem checks the pair, the family and a chi-squared center once, in
    # core.check_problem, before it builds a side.
    assert gate_calls(inspect.getsource(side)) == []


def test_gate_calls_flags_a_side_check():
    source = (
        "class TVSide(SortedProblem):\n"
        "    def __init__(self, p, f):\n"
        "        core.check_pair(p, f)\n"
        "        require_positive(p.weights)\n"
        "        self.tails = suffix_masses(p.weights)\n"
    )
    assert gate_calls(source) == ["TVSide.check_pair", "TVSide.require_positive"]


def test_zero_mass_is_raised_by_the_one_rule_and_the_oracle():
    assert package_raisers(zero_mass) == [
        "core.require_positive", "oracle.naive_chi2_divergence"
    ]


def test_check_flags_a_second_rule():
    source = (
        "def check_delta(delta):\n"
        "    if not delta >= 0.0:\n"
        "        raise NegativeDeltaError(f'delta must be >= 0, got {delta}')\n"
        "class Spec:\n"
        "    def __post_init__(self):\n"
        "        if self.delta < 0.0:\n"
        "            raise errors.NegativeDeltaError('negative')\n"
        "def oracle(p):\n"
        "    if np.any(p == 0.0):\n"
        "        raise ZeroMassForbiddenError(\n"
        "            'chi-squared balls need a strictly positive center pmf'\n"
        "        )\n"
        "    raise NegativeDeltaError\n"
        "def divergence(q, p):\n"
        "    if np.any(p == 0.0):\n"
        "        raise errors.ZeroMassForbiddenError('p > 0 everywhere')\n"
    )
    assert raisers(source, "m", negative_delta) == [
        "m.check_delta", "m.Spec.__post_init__", "m.oracle"
    ]
    assert raisers(source, "m", zero_center) == ["m.oracle"]
    assert raisers(source, "m", zero_mass) == ["m.oracle", "m.divergence"]


@pytest.mark.parametrize("side", [TVSide, CriticalDeltas])
@pytest.mark.parametrize("delta", [math.nan, -0.1])
def test_each_side_checks_its_radius(side, delta):
    # Sides are internals of Problem, which checks the radius of either side
    # of either family before building it.
    family = "tv" if side is TVSide else "chi2"
    problem = divball.Problem(*divball.validate([0.2, 0.5, 0.3], [1.0, 0.0, 2.0], family), family)
    with pytest.raises(divball.NegativeDeltaError):
        problem.lower(delta)
    with pytest.raises(divball.NegativeDeltaError):
        problem.upper(delta)
    assert problem._sides == {}


def test_a_bad_radius_outranks_a_breakdown():
    # The side's critical radii overflow, but the radius is checked first.
    problem = divball.Problem(*divball.validate([1 / 3] * 3, [0.0, 1e200, 2e200]), "chi2")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(divball.NegativeDeltaError):
            problem.lower(math.nan)
        with pytest.raises(divball.DivballError, match="critical radii must be positive"):
            problem.lower(0.1)


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("f", [[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]], ids=["untied", "tied"])
def test_an_integer_radius_past_the_float_range_is_infinite(family, f):
    # 10**400 exceeds every double: it is the whole simplex, not an overflow.
    pmf, obj = divball.validate([0.2, 0.5, 0.3], f, family)
    problem = divball.Problem(pmf, obj, family)
    lower = getattr(divball, f"{family}_lower_expectation")
    upper = getattr(divball, f"{family}_upper_expectation")
    pairs = [
        (problem.lower, problem.lower), (problem.upper, problem.upper),
        (lambda d: lower(pmf, obj, d), problem.lower), (lambda d: upper(pmf, obj, d), problem.upper),
    ]
    for solve, reference in pairs:
        got, want = solve(10**400), reference(math.inf)
        assert (got.value.hex(), got.active_index, got.branch) == (
            want.value.hex(), want.active_index, want.branch)
        assert got.minimizer.weights.tobytes() == want.minimizer.weights.tobytes()
    for upper_side in (False, True):
        assert problem._value(upper_side, 10**400) == problem._value(upper_side, math.inf)
    got = divball.oracle_lower_expectation(pmf, obj, family, 10**400, 20)
    want = divball.oracle_lower_expectation(pmf, obj, family, math.inf, 20)
    assert (got.grid_minimum, got.feasible_count) == (want.grid_minimum, want.feasible_count)
    assert got.grid_argmin.weights.tobytes() == want.grid_argmin.weights.tobytes()
    for theta in (10**400, -10**400):
        with pytest.raises(divball.NonFiniteError, match="radius threshold must be finite"):
            divball.robustness_radius(pmf, obj, family, theta)


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("f", [[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]], ids=["untied", "tied"])
def test_an_integer_radius_past_the_float_range_below_zero_is_rejected(family, f):
    # -10**5000 has more digits than Python turns into a string; like
    # -10**400 it is a negative radius, below every double, so it reads -inf.
    pmf, obj = divball.validate([0.2, 0.5, 0.3], f, family)
    problem = divball.Problem(pmf, obj, family)
    lower = getattr(divball, f"{family}_lower_expectation")
    upper = getattr(divball, f"{family}_upper_expectation")
    solves = [
        problem.lower, problem.upper, lambda d: lower(pmf, obj, d), lambda d: upper(pmf, obj, d),
        lambda d: divball.oracle_lower_expectation(pmf, obj, family, d, 20),
    ]
    for solve in solves:
        for delta in (-10**5000, -10**400):
            with pytest.raises(divball.NegativeDeltaError, match=r"^delta must be >= 0, got -inf$"):
                solve(delta)
    assert problem._sides == {}


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("text", ["0.3", b"0.3"], ids=["str", "bytes"])
def test_a_radius_given_as_text_is_refused_by_every_entry_point(family, text):
    # float() would parse it; a radius is a number, so it is refused by name.
    pmf, obj = divball.validate([0.2, 0.5, 0.3], [1.0, 0.0, 2.0], family)
    problem = divball.Problem(pmf, obj, family)
    lower = getattr(divball, f"{family}_lower_expectation")
    upper = getattr(divball, f"{family}_upper_expectation")
    solves = [
        problem.lower, problem.upper, lambda d: problem._value(False, d),
        lambda d: problem._value(True, d), lambda d: lower(pmf, obj, d),
        lambda d: upper(pmf, obj, d),
        lambda d: divball.oracle_lower_expectation(pmf, obj, family, d, 20),
    ]
    for solve in solves:
        with pytest.raises(divball.DivballError, match=r"^delta must be a number, got b?'0\.3'$"):
            solve(text)
    assert problem._sides == {}


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("text", ["1.5", b"1.5"], ids=["str", "bytes"])
def test_a_threshold_given_as_text_is_refused(family, text):
    pmf, obj = divball.validate([0.2, 0.5, 0.3], [1.0, 0.0, 2.0], family)
    with pytest.raises(divball.DivballError, match=r"^radius threshold must be a number, got b?'1\.5'$"):
        divball.robustness_radius(pmf, obj, family, text)
    # As a number it is answered.
    assert divball.robustness_radius(pmf, obj, family, 1.5) >= 0.0


@pytest.mark.parametrize(
    "value",
    [None, [0.1], np.array([0.1]), Decimal("sNaN")],
    ids=["None", "list", "array", "signaling-nan"],
)
def test_what_float_refuses_is_refused_by_name(value):
    pmf, obj = divball.validate([0.5, 0.5], [0.0, 1.0])
    with pytest.raises(divball.DivballError, match=r"^delta must be a number, got "):
        divball.tv_lower_expectation(pmf, obj, value)
    with pytest.raises(divball.DivballError, match=r"^radius threshold must be a number, got "):
        divball.robustness_radius(pmf, obj, "tv", value)


def test_a_nan_radius_is_compared_as_its_float():
    # Decimal("NaN") >= 0.0 would raise decimal.InvalidOperation.
    pmf, obj = divball.validate([0.5, 0.5], [0.0, 1.0])
    with pytest.raises(divball.NegativeDeltaError, match=r"^delta must be >= 0, got nan$"):
        divball.tv_lower_expectation(pmf, obj, Decimal("NaN"))


def test_the_radius_is_compared_as_given():
    # A Fraction just below 0 rounds to -0.0, a valid float radius, but is
    # itself negative, so it is refused.
    problem = divball.Problem(*divball.validate([0.5, 0.5], [0.0, 1.0]), "tv")
    with pytest.raises(divball.NegativeDeltaError, match=r"^delta must be >= 0, got -0\.0$"):
        problem.lower(Fraction(-1, 10**400))
    assert problem.lower(Fraction(1, 5)).value == problem.lower(0.2).value
