"""``robustness_radius``: the smallest double radius whose lower bound is at
most the threshold, found by one bisection over the bit patterns of the
non-negative doubles.

The contract is checked on the library's own bound, bit for bit, and the
answers against ``crosscheck.reference_bound``, the exact bound.  The draws:
n from 2 to 64 (2 to 8 against the reference), Dirichlet(0.05) centers
floored at 1e-300 and Dirichlet(1) centers, continuous payoffs or payoffs
tied in seven levels with signed zeros, and payoff scales 2**e, |e| <= 40.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import divball as db
from crosscheck import reference_bound
from divball import problem
from divball.chi2 import CriticalDeltas

VALUE_ULPS = 8  # as in test_reference.py


def draws(family: str, seed: int, count: int, n_max: int):
    """``count`` seeded (rng, pmf, objective) draws for ``family``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        alpha = 0.05 if rng.random() < 0.5 else 1.0
        p = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-300)
        p /= p.sum()
        if rng.random() < 0.5:
            f = rng.integers(-3, 4, n).astype(float)
            f[rng.random(n) < 0.5] *= -1.0  # signed zeros among the ties
        else:
            f = rng.uniform(-1.0, 1.0, n)
        f *= 2.0 ** int(rng.integers(-40, 41))
        yield rng, *db.validate(p, f, family)


def thresholds(rng, pmf, obj, at_zero: float) -> list[float]:
    """The minimum, a uniform draw up to the bound at 0, the center's
    expectation, that bound itself and a value above it."""
    f_min = float(obj.values.min())
    return [f_min, float(rng.uniform(f_min, at_zero)), db.expectation(pmf, obj), at_zero,
            at_zero + abs(at_zero) + 1.0]


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # radii of 1e-300 weights overflow
def test_the_answer_is_the_first_double_whose_bound_reaches_the_threshold(family):
    for rng, pmf, obj in draws(family, 23, 300, 64):
        prepared = db.Problem(pmf, obj, family)
        at_zero = prepared._value(False, 0.0)[0]
        for theta in thresholds(rng, pmf, obj, at_zero):
            star = problem.robustness_radius(pmf, obj, family, theta)
            assert (star == 0.0) == (at_zero <= theta), (theta, star)
            if star > 0.0:
                before = float(np.nextafter(star, 0.0))
                assert prepared._value(False, star)[0] <= theta < prepared._value(False, before)[0]


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_the_answer_brackets_the_exact_crossing(family):
    # The exact bound is at most theta at the answer and at least theta one
    # double below it, each within the reference tests' 8 ulps.
    checked = 0
    for rng, pmf, obj in draws(family, 29, 30, 8):
        f = obj.values
        slack = VALUE_ULPS * np.spacing(max(float(np.abs(f).max()), float(f.max() - f.min())))
        at_zero = db.Problem(pmf, obj, family)._value(False, 0.0)[0]
        theta = float(rng.uniform(float(f.min()), at_zero))
        star = problem.robustness_radius(pmf, obj, family, theta)
        with mpmath.workdps(60):
            assert reference_bound(pmf, obj, family, star).value <= theta + slack
            if star > 0.0:
                before = float(np.nextafter(star, 0.0))
                assert reference_bound(pmf, obj, family, before).value >= theta - slack
                checked += 1
    assert checked >= 20


def run_radius(obj, theta: str) -> subprocess.CompletedProcess:
    src = str(Path(db.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "divball", f"--radius={theta}"],
        input=json.dumps(obj),
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="ignore"),
    )


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_a_threshold_below_the_minimum_is_unreachable(family):
    obj = {"p": [0.25, 0.5, 0.25], "f": [1.5, -0.25, 3.0], "ball": family}
    p, f = db.validate(obj["p"], obj["f"], family)
    message = "threshold -0.5 lies below the objective minimum -0.25"
    with pytest.raises(db.UnreachableError) as info:
        problem.robustness_radius(p, f, family, -0.5)
    assert str(info.value) == message
    proc = run_radius(obj, "-0.5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"error: {message}\n")


def test_a_threshold_no_finite_radius_reaches():
    # A subnormal center weight makes the only critical radius infinite, and
    # at the largest double the bound is still about 1 - 3e-8.
    obj = {"p": [5e-324, 1.0], "f": [0.0, 1.0], "ball": "chi2"}
    p, f = db.validate(obj["p"], obj["f"], "chi2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(db.UnreachableError, match="^threshold 0.5 lies out of reach$"):
            problem.robustness_radius(p, f, "chi2", 0.5)
    proc = run_radius(obj, "0.5")
    assert (proc.returncode, proc.stdout) == (4, "")


@pytest.mark.parametrize(
    "obj, theta",
    [
        ({"p": [1.0, 1e-300], "f": [0.8610046048250064, 0.3092122273087854], "ball": "chi2"},
         "0.4747499405636517"),
        ({"p": [1e-300, 1.0], "f": [0.0, 1.0], "ball": "chi2"}, "0.0"),
        ({"p": [0.5, 0.5], "f": [-1.0, 1.0], "ball": "tv"}, "-1.0"),
        ({"p": [5e-324, 1.0], "f": [0.0, 1.0], "ball": "chi2"}, "0.5"),
    ],
    ids=["near-5e299", "near-1e300", "tv-minimum", "unreachable"],
)
def test_radius_never_prints_infinity(obj, theta):
    proc = run_radius(obj, theta)
    assert proc.returncode in (0, 4), proc.stderr
    assert "Infinity" not in proc.stdout
    if proc.returncode == 0:
        assert math.isfinite(json.loads(proc.stdout)["delta_star"])


def test_a_search_makes_at_most_63_bounds(monkeypatch):
    # Far answers cost no more than near ones: the answer near 5e299 took
    # 1,051 bounds when the bracket doubled from 1.
    # Counted on the side, which the bisection asks directly: each radius
    # it probes is a finite double >= 0, so none is checked.
    calls, checks = [], []
    value, check = CriticalDeltas.value, problem.check_delta
    monkeypatch.setattr(CriticalDeltas, "value", lambda *args: calls.append(1) or value(*args))
    monkeypatch.setattr(problem, "check_delta", lambda d: checks.append(d) or check(d))
    p, f = db.validate([1.0, 1e-300], [0.8610046048250064, 0.3092122273087854], "chi2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        star = problem.robustness_radius(p, f, "chi2", 0.4747499405636517)
    assert 2.0**512 < star < math.inf
    assert 0 < len(calls) <= 63
    assert checks == []
