"""Shared test helpers: random instance draws and acceptance reporting."""

from contextlib import contextmanager

import numpy as np
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

from divball import Objective, Pmf

# hypothesis draws some of its numbers from the literals of the local
# modules loaded when a test runs, src/divball's among them, so changing a
# library constant would move the suite's draws.  Give it none: called with
# no argument, ``Constants`` is empty.  tests/test_draws.py fails if a
# hypothesis upgrade stops reading this hook.
providers._get_local_constants = Constants


@contextmanager
def criterion(label):
    """Print one pass/fail line for an acceptance criterion."""
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def grid_round(weights, resolution):
    """Round simplex weights to counts/resolution by largest remainder."""
    scaled = np.asarray(weights, dtype=float) * resolution
    counts = np.floor(scaled).astype(np.int64)
    shortfall = int(resolution - counts.sum())
    if shortfall > 0:
        order = np.argsort(-(scaled - counts), kind="stable")
        counts[order[:shortfall]] += 1
    elif shortfall < 0:
        for _ in range(-shortfall):
            counts[int(np.argmax(counts))] -= 1
    return counts / resolution


def random_pmf(rng, n, grid=None, floor=None):
    """Uniform-simplex draw, optionally floored away from zero or grid-rounded."""
    w = rng.dirichlet(np.ones(n))
    if floor is not None:
        w = floor + (1.0 - n * floor) * w
    if grid is not None:
        w = grid_round(w, grid)
    return Pmf(w)


def random_objective(rng, n, lo=-1.0, hi=1.0):
    return Objective(rng.uniform(lo, hi, n))


def sorted_minimizer(sp, result):
    """Minimizer weights viewed in the solver's objective-ascending order."""
    return result.minimizer.weights[sp.perm]


def assert_tv_pattern(sp, q_sorted, delta_eff, r, atol=1e-12):
    """One raised bottom coordinate, untouched middle, drained cut, zero tail."""
    if r == 1:
        assert abs(q_sorted[0] - 1.0) <= atol
        assert np.all(np.abs(q_sorted[1:]) <= atol)
        return
    assert abs((q_sorted[0] - sp.p_sorted[0]) - delta_eff) <= atol
    assert np.all(np.abs(q_sorted[1 : r - 1] - sp.p_sorted[1 : r - 1]) <= atol)
    assert -atol <= q_sorted[r - 1] <= sp.p_sorted[r - 1] + atol
    assert np.all(np.abs(q_sorted[r:]) <= atol)
