"""Independent cross-checks that only the tests use.

The two- and three-outcome chi-squared closed forms are written out case by
case from definitional prefix statistics, sharing no incremental machinery
with ``divball.chi2``; ``enumerate_compositions`` walks the oracle's grid one
point at a time.
"""

import math

import numpy as np

from divball.core import Objective, Pmf, check_delta
from divball.errors import TiedBottomError, WrongArityError, ZeroMassForbiddenError
from divball.oracle import _check_grid_size, _composition_blocks


def enumerate_compositions(n: int, resolution: int):
    """Yield every pmf on the 1/resolution grid, exactly once, in lex order.

    The number of points is ``C(resolution + n - 1, n - 1)``; enumeration is
    capped at desk scale (n <= 4, at most 10^7 points).  Size violations
    raise immediately, not at first iteration.
    """
    _check_grid_size(n, resolution)

    def points():
        for block in _composition_blocks(n, resolution):
            for counts in block:
                yield Pmf._exact(counts / resolution)

    return points()


def _sorted_pairs(p: Pmf, f: Objective):
    order = np.argsort(f.values, kind="stable")
    return p.weights[order], f.values[order]


def chi2_two_point(p: Pmf, f: Objective, delta: float) -> float:
    """Two-outcome closed form, kept as an independent cross-check.

    With (p1, f1) the lower-objective outcome and (p2, f2) the other:
    ``p1*f1 + p2*f2 - sqrt(delta*p1*p2)*|f2 - f1|`` while
    ``delta < p2/p1``, and ``f1`` from there on.
    """
    if p.n != 2 or f.n != 2:
        raise WrongArityError(f"two-point form needs n = 2, got n = {p.n}")
    if np.any(p.weights == 0.0):
        raise ZeroMassForbiddenError("chi-squared balls need a strictly positive center pmf")
    check_delta(delta)
    (p1, p2), (f1, f2) = _sorted_pairs(p, f)
    if delta < p2 / p1:
        return float(p1 * f1 + p2 * f2 - math.sqrt(delta * p1 * p2) * abs(f2 - f1))
    return float(f1)


def chi2_three_point(p: Pmf, f: Objective, delta: float) -> float:
    """Three-outcome closed form, kept as an independent cross-check.

    Evaluates the explicit three-branch case split directly from
    definitional prefix statistics (no shared incremental machinery).
    Requires a unique minimal objective value; tied bottoms belong to the
    general solver.
    """
    if p.n != 3 or f.n != 3:
        raise WrongArityError(f"three-point form needs n = 3, got n = {p.n}")
    if np.any(p.weights == 0.0):
        raise ZeroMassForbiddenError("chi-squared balls need a strictly positive center pmf")
    check_delta(delta)
    (p1, p2, p3), (f1, f2, f3) = _sorted_pairs(p, f)
    if f1 == f2:
        raise TiedBottomError(
            "three-point form needs a unique minimal objective value; "
            "use the general solver"
        )
    m2 = p1 + p2
    mu2 = (p1 * f1 + p2 * f2) / m2
    var2 = (p1 * (f1 - mu2) ** 2 + p2 * (f2 - mu2) ** 2) / m2
    mu3 = p1 * f1 + p2 * f2 + p3 * f3
    var3 = p1 * (f1 - mu3) ** 2 + p2 * (f2 - mu3) ** 2 + p3 * (f3 - mu3) ** 2
    d3 = var3 / (f3 - mu3) ** 2
    d2 = (var2 / (f2 - mu2) ** 2 + 1.0 - m2) / m2
    if delta < d3:
        return float(mu3 - math.sqrt(var3) * math.sqrt(delta))
    if delta < d2:
        return float(mu2 - math.sqrt(var2) * math.sqrt(m2 * delta - (1.0 - m2)))
    return float(f1)
