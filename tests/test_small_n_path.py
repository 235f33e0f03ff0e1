"""The per-query path at small n: the numpy Python-level wrappers listed in
``WRAPPERS``, which cost more than the calls that replace them, stay off it
(``np.count_nonzero`` is a Python-level wrapper too, and stays: on a few
booleans it is the cheapest check), a query makes no more C-level calls
than ``CALLS_AT_MOST`` counts, the plateau is the second of the payoff's
kept run edges, and every check on it keeps its exception class and
message, also under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divball as db
from divball.core import SortedProblem

WRAPPERS = ("any", "all", "searchsorted", "pad")


def small_payoffs(rng, n):
    """Untied, tied, signed-zero and constant payoffs of length ``n``."""
    signed = np.round(rng.uniform(-1.0, 1.0, n))
    signed[signed == 0.0] = rng.choice([0.0, -0.0], size=int((signed == 0.0).sum()))
    return [
        rng.uniform(-1.0, 1.0, n),
        np.round(rng.uniform(-1.0, 1.0, n) * 2) / 3,
        signed,
        np.full(n, 0.25),
    ]


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_no_numpy_wrapper_on_the_solve_path(family, monkeypatch):
    rng = np.random.default_rng(13)
    cases = []
    for n in range(1, 17):
        p = rng.dirichlet(np.ones(n))
        cases += [(p, f) for f in small_payoffs(rng, n)]
    calls = []
    for name in WRAPPERS:
        wrapped = getattr(np, name)

        def counting(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls.append(_name)
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    lower = getattr(db, f"{family}_lower_expectation")
    upper = getattr(db, f"{family}_upper_expectation")
    for p, f in cases:
        for delta in (0.0, 0.05, 0.4, 3.0):
            pmf, obj = db.validate(p, f, family)
            lower(pmf, obj, delta)
            upper(pmf, obj, delta)
            prepared = db.Problem(pmf, obj, family)
            prepared.lower(delta)
            prepared.upper(delta)
    assert calls == []
    np.any([True])  # the counters are live
    assert calls == ["any"]


# C-level calls (``sys.setprofile``'s ``c_call`` events) of ``validate``, one
# one-shot lower bound and one upper bound at n = 8, the call that stops the
# count included.  Unlike a time, a count does not depend on the host.  A
# change may lower a count; one that raises it says why.
CALLS_AT_MOST = {("tv", False): 49, ("tv", True): 54, ("chi2", False): 72, ("chi2", True): 81}


@pytest.mark.parametrize("family, tied", list(CALLS_AT_MOST), ids=lambda v: str(v).lower())
def test_c_level_calls_of_a_small_query(family, tied):
    rng = np.random.default_rng(8)
    p = rng.dirichlet(np.ones(8))
    f = rng.integers(0, 3, 8).astype(float) if tied else rng.uniform(-1.0, 1.0, 8)
    lower = getattr(db, f"{family}_lower_expectation")
    upper = getattr(db, f"{family}_upper_expectation")

    def query():
        pmf, obj = db.validate(p, f, family)
        lower(pmf, obj, 0.1)
        upper(pmf, obj, 0.1)

    query()  # first-call work (imports, caches) is not the per-query path
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event == "c_call"))
    try:
        query()
    finally:
        sys.setprofile(None)
    assert sum(events) <= CALLS_AT_MOST[family, tied]


TIE_LEVELS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2e300])


@given(
    st.one_of(
        st.lists(TIE_LEVELS, min_size=1, max_size=24),
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=24),
    )
)
@example([3.0])
@example([0.5, 0.5, 0.5])
@example([0.25, -1.0, 0.75])
@example([0.0, 1.0, -0.0, 0.0])
@example([-1.0, -0.0, 0.0, 2.0, -0.0])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_plateau_is_the_bottom_run(values):
    n = len(values)
    pmf = db.Pmf(np.full(n, 1.0 / n))
    source = db.Objective(values)
    for negated in (False, True):
        sp = SortedProblem(pmf, source, negated)
        want = int(np.searchsorted(sp.f_sorted, sp.f_sorted[0], side="right"))
        assert sp.plateau == want


# Each check that reads a rewritten predicate, with NaN wherever the
# predicate's form changed; the last two radii sit just inside and just
# outside the 1e-12 allowance.
CHECKS = r"""
import numpy as np
import divball as db
from divball import chi2
from divball.core import SortedProblem

nan, inf = float("nan"), float("inf")
moments, small_moments = chi2._prefix_moments, chi2._small_moments


def show(solve):
    try:
        solve()
        print("returned")
    except db.DivballError as exc:
        print(f"{type(exc).__name__}: {exc}")


def radii(gap=None, var=None):
    # Critical radii of a prepared three-point side whose moments are
    # replaced, in both forms: the numpy one's and the small one's pass.
    p, f = db.validate([0.25, 0.25, 0.5], [0.0, 1.0, 2.0], "chi2")
    sp = SortedProblem(p, f)
    mass, g, v = moments(sp.p_sorted, sp.f_sorted)
    g = g if gap is None else np.array(gap)
    v = v if var is None else np.array(var)
    chi2._prefix_moments = lambda p_sorted, f_sorted: (mass, g, v)
    chi2._small_moments = lambda masses, payoffs: (mass.tolist(), g.tolist(), v.tolist())
    try:
        return chi2.CriticalDeltas(p, f)
    finally:
        chi2._prefix_moments, chi2._small_moments = moments, small_moments


for family in ("tv", "chi2"):
    show(lambda: db.validate([0.5, nan], [0.0, 1.0], family))
    show(lambda: db.validate([0.5, inf], [0.0, 1.0], family))
    show(lambda: db.validate([0.5, 0.5], [nan, 1.0], family))
    show(lambda: db.validate([0.5, 0.5], [0.0, -inf], family))
    show(lambda: db.validate([nan, -1.0, 2.0], [0.0, 1.0, 2.0], family))
    show(lambda: db.validate([1.5, -0.5], [0.0, 1.0], family))
show(lambda: db.validate([0.0, 1.0], [0.0, 1.0], "chi2"))
show(lambda: db.validate([0.5, -0.0, 0.5], [0.0, 1.0, 2.0], "chi2"))
show(lambda: db.chi2_lower_expectation(db.Pmf([0.0, 1.0]), db.Objective([0.0, 1.0]), 0.1))
show(lambda: db.chi2_upper_expectation(db.Pmf([0.5, 0.0, 0.5]), db.Objective([0.0, 1.0, 2.0]), 0.1))
# Each side breakdown in the small form (the crossover as it is), then in
# the numpy form (crossover 0).
for crossover in (chi2._SMALL_SIDE_MAX, 0):
    chi2._SMALL_SIDE_MAX = crossover
    show(lambda: db.chi2_lower_expectation(*db.validate([1.0, 1e-300], [5e-324, 0.0], "chi2"), 0.1))
    show(lambda: radii(gap=[0.0, 0.0, 1.0]))
    show(lambda: radii(gap=[0.0, nan, 1.0]))
    show(lambda: radii(var=[0.0, 1.0, 0.0]))
    show(lambda: radii(var=[0.0, nan, 1.0]))
    show(lambda: radii(gap=[0.0, 1.0, 1.0], var=[0.0, 1e-300, 2.0]))
    show(lambda: radii(gap=[0.0, inf, 1.0], var=[0.0, inf, 1.0]))
    show(lambda: radii(gap=[0.0, 1.0, 1.0], var=[0.0, 0.5, 2.0 * (1.0 + 1e-13)]))
    show(lambda: radii(gap=[0.0, 1.0, 1.0], var=[0.0, 0.5, 2.0 * (1.0 + 1e-11)]))
    show(lambda: radii(gap=[0.0, 1.0, 1e10], var=[0.0, 0.5, 5e-324]))
    show(lambda: radii(gap=[0.0, 1.0, inf], var=[0.0, 0.5, inf]))
"""

NONFINITE_W = "NonFiniteError: weights contains NaN or infinity"
NONFINITE_F = "NonFiniteError: objective values contains NaN or infinity"
NEGATIVE = "NegativeWeightError: weights must be nonnegative"
ZERO_MASS = "ZeroMassForbiddenError: chi-squared balls need a strictly positive center pmf"
CONSTANT = "DivballError: non-plateau prefix is constant"
NOT_POSITIVE = "DivballError: critical radii must be positive"
RISING = "DivballError: critical radii must be non-increasing"
EXPECTED = (
    [NONFINITE_W, NONFINITE_W, NONFINITE_F, NONFINITE_F, NONFINITE_W, NEGATIVE] * 2
    + [ZERO_MASS] * 4
    + ([CONSTANT] * 5 + [RISING, RISING, "returned", RISING] + [NOT_POSITIVE] * 2) * 2
)


def test_checks_keep_class_and_message_under_optimized_interpreter():
    src = str(Path(db.__file__).resolve().parents[1])
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-W", "ignore", "-c", CHECKS],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == EXPECTED, flags
