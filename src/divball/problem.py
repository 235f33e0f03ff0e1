"""One problem, many radii: the closed forms depend on the radius only in
their last lookup, so a ``Problem`` prepares the side of the payoff (lower
bounds) and of its negation (upper bounds) once each and answers every
radius from them.  Both read the order the payoff's ``Objective`` kept when
it was built, the negation's through ``Objective._negation``, which forms
no negated payoff.  The one-shot bounds each solve a ``Problem``.

A ``Problem`` is the one way into a prepared side, an internal: it checks
each radius once, before a side is built or asked, and hands ``weights``
the support size that ``value`` returned.
"""

import math
import struct

from .chi2 import CriticalDeltas
from .core import BallFamily, BoundResult, Objective, Pmf, _as_float, check_delta
from .errors import NonFiniteError, UnreachableError
from .tv import TVSide

_BUILDERS = {BallFamily.TV: TVSide, BallFamily.CHI2: CriticalDeltas}


class Problem:
    """A validated (pmf, objective) pair under one ball ``family``.

    Each side is prepared on its first bound and kept for every later one.
    """

    def __init__(self, pmf: Pmf, objective: Objective, family: BallFamily | str):
        self.pmf = pmf
        self.objective = objective
        self.family = family if isinstance(family, BallFamily) else BallFamily(family)
        self._sides = {}

    def lower(self, delta: float) -> BoundResult:
        """Exact minimum of the expectation over the radius-``delta`` ball."""
        return self._solve(False, delta)

    def upper(self, delta: float) -> BoundResult:
        """Exact maximum over the ball, by conjugacy with the negated payoff."""
        return self._solve(True, delta)

    def _solve(self, upper: bool, delta: float) -> BoundResult:
        """One bound; its minimizer is wrapped with no second validation.

        The radius is checked once, before the side is built, and the value
        and the minimizer read the same float, negated as :meth:`_value`
        negates it.
        """
        delta = check_delta(delta)
        side = self._side(upper)
        value, r, branch = side.value(delta)
        weights = Pmf._solved(side.weights(r, delta), self.pmf.labels)
        return BoundResult(-value if upper else value, weights, r, branch)

    def _value(self, upper: bool, delta: float) -> tuple[float, int, str]:
        """A bound's value, support size and branch, with no minimizer.

        The radius is checked here, before the side is built, and the side
        is handed it as a float.  An upper bound's value is the negated lower
        bound of the negated payoff; its support size and branch are that
        lower bound's.
        """
        delta = check_delta(delta)
        value, r, branch = self._side(upper).value(delta)
        return -value if upper else value, r, branch

    def _side(self, upper: bool):
        """The prepared side, of the payoff or (upper) of its negation:
        a ``TVSide`` or a ``CriticalDeltas``."""
        side = self._sides.get(upper)
        if side is None:
            side = self._sides[upper] = _BUILDERS[self.family](self.pmf, self.objective, upper)
        return side


def tv_lower_expectation(p: Pmf, f: Objective, delta: float) -> BoundResult:
    """Exact minimum of the expectation over the radius-``delta`` TV ball.

    Radii of 1 or more give the whole simplex, and the minimal payoff.
    The attaining minimizer is returned in original outcome order; it raises
    only the lowest-objective coordinate, keeps interior coordinates, drains
    the coordinate at the threshold index and zeroes everything above it.
    """
    return Problem(p, f, BallFamily.TV).lower(delta)


def tv_upper_expectation(p: Pmf, f: Objective, delta: float) -> BoundResult:
    """Exact maximum over the TV ball, by conjugacy with the negated payoff.

    The returned distribution is the attaining maximizer; ``active_index``
    and ``branch`` describe the conjugate minimization.
    """
    return Problem(p, f, BallFamily.TV).upper(delta)


def chi2_lower_expectation(p: Pmf, f: Objective, delta: float) -> BoundResult:
    """Exact minimum of the expectation over the radius-``delta`` chi^2 ball.

    The value is ``mu_r - sigma_r * sqrt(m_r*delta - t_r)`` on the active
    support, saturating at the minimal objective value once the radius
    covers every finite critical radius.  The attaining minimizer is
    returned in original outcome order.
    """
    return Problem(p, f, BallFamily.CHI2).lower(delta)


def chi2_upper_expectation(p: Pmf, f: Objective, delta: float) -> BoundResult:
    """Exact maximum over the chi^2 ball, by conjugacy with the negated payoff."""
    return Problem(p, f, BallFamily.CHI2).upper(delta)


def robustness_radius(
    pmf: Pmf, objective: Objective, family: BallFamily, theta: float
) -> float:
    """The smallest double radius whose lower bound is at most ``theta``.

    The bound does not increase with the radius, and non-negative doubles
    sort as their bit patterns do, so one bisection over the patterns, from
    a sentinel below 0.0 up to +inf's, finds it in at most 63 bounds: 0.0
    when the bound at radius 0 already reaches ``theta``.  Where the
    computed bound is not monotone, the answer's bound reaches ``theta``
    and the next smaller double's does not.  A threshold that no finite
    radius reaches raises ``UnreachableError``.
    """
    problem = Problem(pmf, objective, family)
    theta = _as_float(theta, "radius threshold")
    if not math.isfinite(theta):
        raise NonFiniteError("radius threshold must be finite")
    lo, hi, star = -1, 0x7FF0000000000000, math.inf  # hi: +inf's bit pattern
    while hi - lo > 1:
        mid = (lo + hi) // 2
        delta = struct.unpack("<d", mid.to_bytes(8, "little"))[0]
        if problem._value(False, delta)[0] <= theta:
            hi, star = mid, delta
        else:
            lo = mid
    if star == math.inf:
        f_min = float(objective.values.min())
        where = f"below the objective minimum {f_min}" if theta < f_min else "out of reach"
        raise UnreachableError(f"threshold {theta} lies {where}")
    return star
