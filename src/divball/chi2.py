"""Closed-form worst-case expectation over a chi-squared divergence ball.

For a strictly positive center p and outcomes in ascending objective order,
the optimal distribution keeps a contiguous bottom support {1..r} and tilts
the renormalized center linearly in the objective:

    q(x_i) = p(x_i)/m_r * (1 - (f(x_i) - mu_r)/sigma_r * sqrt(m_r*delta - t_r))

with m_r, mu_r, sigma_r^2 the prefix mass/mean/variance over the support and
t_r the mass after it.  The support size is governed by critical radii

    delta_k = (sigma_k^2 / (f(x_k) - mu_k)^2 + t_k) / m_k,

which are positive and non-increasing in k; the active support is the
largest k whose critical radius still exceeds the requested one.  Once the
radius passes every finite critical value, only the outcomes tied at the
minimal objective remain and the bound saturates at that minimal value.

The tilt is affine in the objective, so tied outcomes share one ratio
q/p, the optimal support is a union of whole payoff levels, and every
critical radius inside a tied run is the same number.  So every side is
solved over its distinct payoff levels, the runs between the sort's edges:
each tied run collapses to one level with the run's summed mass and its
last sorted payoff, and an untied payoff's levels are its outcomes.  The
tails, the prefix statistics, the critical radii and the search for the
support run over the levels, and the bottom level is the support that
never shrinks.

A side of up to ``_SMALL_SIDE_MAX`` levels is formed in Python floats, in
two loops over its levels (:func:`_small_moments` up, :func:`_small_rows`
down), and wrapped as one read-only block: at that size each numpy pass
costs its dispatch, not its arithmetic.  A larger side takes the numpy
passes.  Each loop makes the float operations of the numpy passes in their
order, so the two forms give the same bits and raise the same errors, and
the crossover, set where the two forms cost the same, decides no bit.
"""

import math

import numpy as np

from .core import (
    BRANCH_INTERIOR,
    BRANCH_PLATEAU,
    Objective,
    Pmf,
    SortedProblem,
    require_positive,
    suffix_masses,
)
from .errors import DivballError, LengthMismatchError

# Radicand m_r*delta - t_r may dip this far below zero from roundoff at a
# breakpoint; anything worse indicates an inconsistent (r, delta) pair.
_RADICAND_SLACK = 1e-12
# Minimizer coordinates may round to tiny negatives exactly at a critical
# radius, where the exact value is 0.
_COORDINATE_SLACK = 1e-9
# Up to this many payoff levels a side is formed in Python floats (README):
# about where the two forms take the same time, near 20 us a side.
_SMALL_SIDE_MAX = 24
# The breakdowns that both forms raise.
_CONSTANT = "non-plateau prefix is constant"
_NOT_POSITIVE = "critical radii must be positive"
_RISING = "critical radii must be non-increasing"


def chi2_divergence(q: Pmf, p: Pmf) -> float:
    """Chi-squared divergence: sum of ``(q(x) - p(x))^2 / p(x)``.

    Asymmetric; requires a strictly positive reference ``p``, which is
    checked as a chi-squared ball's center is, so a zero weight raises
    ``ZeroMassForbiddenError`` with the center rule's message.
    """
    if q.n != p.n:
        raise LengthMismatchError(f"{q.n} vs {p.n} outcomes")
    require_positive(p.weights)
    diff = q.weights - p.weights
    return float(np.sum(diff * diff / p.weights))


def _prefix_moments(p_sorted: np.ndarray, f_sorted: np.ndarray):
    """Prefix mass, gap below the payoff, and variance, as running sums.

    With ``m`` the prefix mass and ``df[k] = f[k] - f[k-1] >= 0``, each
    statistic is a running sum of non-negative terms, so none cancels: the
    mean's ``gap`` below ``f[k]`` is ``G[k]/m[k]`` with ``G`` the running sum
    of ``m[k-1] df[k]``, and ``m[k] var[k]`` is the running sum of the
    weighted update ``p[k] (m[k-1]/m[k]) (df[k] + G[k-1]/m[k-1])^2``.
    Every weight is positive, so every prefix mass is; a prefix variance is
    an exact zero on a leading tie.  Each step writes in place.
    """
    masses = np.zeros(p_sorted.size + 1)
    before, mass = masses[:-1], masses[1:]
    np.add.accumulate(p_sorted, out=mass)
    step = np.zeros(p_sorted.size)
    rise = step[1:]
    np.subtract(f_sorted[1:], f_sorted[:-1], out=rise)
    gap = np.multiply(before, step)
    np.add.accumulate(gap, out=gap)
    gap /= mass
    # f[k] - mean[k-1] in units of a power of two near the payoff span (an
    # exact rescaling), so that its square times a tiny mass stays normal.
    unit = math.ldexp(1.0, math.frexp(f_sorted[-1] - f_sorted[0])[1] - 1)
    lead = step
    rise += gap[:-1]  # lead[1:]
    lead /= unit
    var = np.divide(before, mass)
    var *= p_sorted
    var *= lead
    var *= lead
    np.add.accumulate(var, out=var)
    var /= mass
    var *= unit
    var *= unit
    for arr in (mass, gap, var):
        arr.setflags(write=False)
    return mass, gap, var


def _small_moments(masses: list, payoffs: list):
    """:func:`_prefix_moments` of a small side's level masses and payoffs, in
    Python floats: the same float operations in the same order, so the same
    bits, with no numpy call.  Returns lists."""
    k = len(masses)
    mass, gap, var = [0.0] * k, [0.0] * k, [0.0] * k
    unit = math.ldexp(1.0, math.frexp(payoffs[-1] - payoffs[0])[1] - 1)
    # The prefix mass, G (the gap's numerator), m*var and the gap so far.
    m = mass[0] = masses[0]
    g_sum = v_sum = g = 0.0
    for i in range(1, k):
        rise = payoffs[i] - payoffs[i - 1]
        g_sum += m * rise
        lead = (rise + g) / unit
        after = m + masses[i]
        v_sum += m / after * masses[i] * lead * lead
        mass[i] = m = after
        gap[i] = g = g_sum / m
        var[i] = v_sum / m * unit * unit
    return mass, gap, var


def _small_rows(masses: list, payoffs: list) -> tuple:
    """A small side's five rows in Python floats, one entry per level: the
    tails, the prefix mass, gap and variance of :func:`_small_moments`, and
    the critical radii followed by a 0.0 pad.  The tails and radii are
    formed in one pass from the top level down, with the float operations
    of :func:`suffix_masses` and of the numpy form's radii and checks, so
    with their bits, and the checks raise in the numpy form's order with
    its messages.  A gap whose square underflows gives the numpy form's
    +inf, without its divide-by-zero warning."""
    mass, gap, var = _small_moments(masses, payoffs)
    k = len(masses)
    tails, finite = [0.0] * k, [0.0] * k
    constant = broken = False
    # The mass after level i, and the raw and the largest radius after it
    # (the top level has none).
    t, after, top = 0.0, -math.inf, -math.inf
    for i in range(k - 1, 0, -1):
        g, v = gap[i], var[i]
        constant = constant or not (g > 0.0 and v > 0.0)
        square = g * g
        radius = ((v / square if square else math.inf) + t) / mass[i]
        # The allowance is formed only where a radius rises, as in the numpy form.
        broken = broken or not (after <= radius or after <= (abs(radius) + 1.0) * 1e-12 + radius)
        after = radius
        finite[i - 1] = top = radius if top < radius else top
        tails[i - 1] = t = t + masses[i]
    if constant:
        raise DivballError(_CONSTANT)
    if k > 1 and not finite[k - 2] > 0.0:
        raise DivballError(_NOT_POSITIVE)
    if broken:
        raise DivballError(_RISING)
    return tails, mass, gap, var, finite


class CriticalDeltas(SortedProblem):
    """The chi-squared side of ``(p, f)``: the sorted side plus its prefix
    statistics and the breakpoint radii at which the optimal support loses
    its top level.

    A side's levels are the runs between its ``edges``: level ``i`` holds
    sorted positions ``edges[i]`` to ``edges[i + 1] - 1``, its mass is its
    run's accurate sum (one ``reduceat`` at the run starts, never a
    difference of prefix masses) and its payoff is read at the run's end.
    An untied payoff's levels are its outcomes, read as they are.
    ``tails[i]`` is the mass after level ``i``, :func:`suffix_masses` of the
    level masses, so a tied side holds no per-outcome tails.  The prefix
    arrays come from one pass of :func:`_prefix_moments`, or on a side of
    at most ``_SMALL_SIDE_MAX`` levels of :func:`_small_moments`, whose
    Python-float loop gives the same bits (and then all five arrays are rows
    of one read-only block): entry ``i`` of
    ``prefix_mass``, ``gap`` and ``prefix_var`` covers the first ``i + 1``
    levels, and ``gap[i]`` is the payoff of level ``i`` less the prefix
    mean.  ``finite[j]`` is the critical radius of the support of the first
    ``j + 2`` levels (so the array is empty when the objective is constant),
    raised to the largest radius after it, so that it is non-increasing
    where roundoff let the radii rise; the last radius above any ``delta``
    is the same either way.  Every support size :meth:`value` returns ends
    a level.  ``gap`` is formed as a quotient of non-negative running sums
    rather than by that subtraction, so it keeps its relative accuracy when
    it is far below an ulp of the payoff.  The bottom level itself never
    shrinks; its radius is unbounded and is represented structurally rather
    than by a float sentinel.  Each check that raises is a numeric breakdown
    of the closed form.
    """

    def __init__(self, p: Pmf, f: Objective, negated: bool = False):
        super().__init__(p, f, negated)
        require_positive(self.p_sorted)
        masses, payoffs, edges = self.p_sorted, self.f_sorted, self.edges
        if edges is not None:
            masses, payoffs = np.add.reduceat(masses, edges[:-1]), payoffs[edges[1:] - 1]
        if masses.size <= _SMALL_SIDE_MAX:
            block = np.array(_small_rows(masses.tolist(), payoffs.tolist()))
            block.setflags(write=False)
            # Indexed: unpacking the block would iterate it, a microsecond more.
            self.tails, self.prefix_mass, self.gap = block[0], block[1], block[2]
            self.prefix_var, self.finite = block[3], block[4, :-1]
            return
        self.tails = tails = suffix_masses(masses)
        mass, gap, var = _prefix_moments(masses, payoffs)
        self.prefix_mass, self.gap, self.prefix_var = mass, gap, var
        gap, var = gap[1:], var[1:]
        # The least of each, NaN if one is (so NaN fails ``> 0.0``); a ufunc
        # reduce, as argmin would copy these read-only arrays.
        if gap.size and not (np.minimum.reduce(gap) > 0.0 and np.minimum.reduce(var) > 0.0):
            raise DivballError(_CONSTANT)
        finite = np.multiply(gap, gap)
        np.divide(var, finite, out=finite)
        finite += tails[1:]
        finite /= mass[1:]
        if finite.size and not finite[-1] > 0.0:
            raise DivballError(_NOT_POSITIVE)
        # Non-increasing up to roundoff (NaN fails), the allowance formed only when needed.
        falling = finite[1:] <= finite[:-1]
        if np.count_nonzero(falling) != falling.size:
            bound = np.abs(finite[:-1])
            bound += 1.0
            bound *= 1e-12
            bound += finite[:-1]
            if np.count_nonzero(finite[1:] <= bound) != falling.size:
                raise DivballError(_RISING)
            # Each radius raised to the largest after it: the same supports, searchable.
            np.maximum.accumulate(finite[::-1], out=finite[::-1])
        finite.setflags(write=False)
        self.finite = finite

    def value(self, delta: float) -> tuple[float, int, str]:
        """The lower bound at ``delta`` with its support size and branch."""
        # The radii are non-increasing, so reversed they are sorted for a
        # search; i, the count above delta, indexes the level statistics and tails.
        i = self.finite.size - int(self.finite[::-1].searchsorted(delta, "right"))
        if i == 0:
            return float(self.f_sorted[0]), self.plateau, BRANCH_PLATEAU
        # e is the support's last sorted outcome.
        e = i if self.edges is None else int(self.edges[i + 1]) - 1
        rad = _radicand(self.prefix_mass[i], self.tails[i], delta)
        mean = self.f_sorted[e] - self.gap[i]
        value = mean - math.sqrt(self.prefix_var[i]) * math.sqrt(rad)
        # The exact bound lies in the support's payoff range; rounding can leave it.
        value = min(max(value, self.f_sorted[0]), self.f_sorted[e])
        return float(value), e + 1, BRANCH_INTERIOR

    def weights(self, r: int, delta: float) -> np.ndarray:
        """:meth:`value`'s minimizer in original order, for the support size
        ``r`` that :meth:`value` returned at ``delta``."""
        head = _minimizer_head(self, r, delta)
        # One original-order array, allocated once the head's temporaries are freed.
        q = np.zeros(self.n)
        q[self.perm[:r]] = head
        return q


def _radicand(mass: float, tail: float, delta: float) -> float:
    rad = mass * delta - tail
    if rad < 0.0:
        if rad >= -_RADICAND_SLACK * (1.0 + mass * delta + tail):
            return 0.0
        raise DivballError(
            f"radius {delta} is infeasible for the requested support (radicand {rad})"
        )
    return rad


def _minimizer_head(cd: CriticalDeltas, r: int, delta: float) -> np.ndarray:
    """The first ``r`` sorted weights of the attaining distribution for support
    size ``r`` before normalization (the rest are 0): the tilted center above
    the plateau, the center renormalized on it.  The tilt is formed per
    outcome from the statistics of the support's prefix of levels, the one
    whose last level ends at outcome ``r``.  ``r`` is the support size
    that ``cd.value`` returned, or one probed at its own critical radius, so
    the prefix variance above the plateau is positive; a radius outside the
    support's range raises."""
    # i indexes the level statistics and tails, e the support's last sorted outcome.
    i = e = r - 1
    if cd.edges is not None:
        i = int(cd.edges.searchsorted(r)) - 1
    mass = cd.prefix_mass[i]
    if r == cd.plateau:
        return cd.p_sorted[:r] / mass
    scale = math.sqrt(_radicand(mass, cd.tails[i], delta)) / math.sqrt(cd.prefix_var[i])
    # f - (f[e] - gap[i]) as (f - f[e]) + gap[i], so the mean is not rounded to f's ulp.
    tilt = cd.f_sorted[:r] - cd.f_sorted[e]
    tilt += cd.gap[i]
    tilt *= scale
    np.subtract(1.0, tilt, out=tilt)
    head = np.divide(cd.p_sorted[:r], mass)
    head *= tilt
    # fmin skips NaN, as the comparisons below do element by element.
    lowest = np.fmin.reduce(head)
    if lowest < 0.0:
        if lowest < -_COORDINATE_SLACK:
            raise DivballError(
                f"radius {delta} exceeds the critical radius for support size {r}"
            )
        head[head < 0.0] = 0.0
    return head
