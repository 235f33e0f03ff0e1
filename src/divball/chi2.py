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
"""

import math

import numpy as np

from .core import (
    BRANCH_INTERIOR,
    BRANCH_PLATEAU,
    Objective,
    Pmf,
    SortedProblem,
    check_delta,
    require_positive,
)
from .errors import (
    DivballError,
    LengthMismatchError,
    ZeroMassForbiddenError,
)

# Radicand m_r*delta - t_r may dip this far below zero from roundoff at a
# breakpoint; anything worse indicates an inconsistent (r, delta) pair.
_RADICAND_SLACK = 1e-12
# Minimizer coordinates may round to tiny negatives exactly at a critical
# radius, where the exact value is 0.
_COORDINATE_SLACK = 1e-9


def chi2_divergence(q: Pmf, p: Pmf) -> float:
    """Chi-squared divergence: sum of ``(q(x) - p(x))^2 / p(x)``.

    Asymmetric; requires a strictly positive reference ``p``.
    """
    if q.n != p.n:
        raise LengthMismatchError(f"{q.n} vs {p.n} outcomes")
    if np.any(p.weights == 0.0):
        raise ZeroMassForbiddenError("chi-squared divergence needs p > 0 everywhere")
    diff = q.weights - p.weights
    return float(np.sum(diff * diff / p.weights))


def _prefix_moments(p_sorted: np.ndarray, f_sorted: np.ndarray):
    """Prefix mass, gap below the payoff, and variance, as running sums.

    With ``m`` the prefix mass and ``df[k] = f[k] - f[k-1] >= 0``, each
    statistic is a running sum of non-negative terms, so none cancels: the
    mean's ``gap`` below ``f[k]`` is ``G[k]/m[k]`` with ``G`` the running sum
    of ``m[k-1] df[k]``, and ``m[k] var[k]`` is the running sum of the
    weighted update ``p[k] (m[k-1]/m[k]) (df[k] + G[k-1]/m[k-1])^2``.
    Prefix variances are exact zeros on the leading tie plateau; gap and
    variance are 0.0 on a prefix of zero mass.  Each step writes in place.
    """
    masses = np.zeros(p_sorted.size + 1)
    before, mass = masses[:-1], masses[1:]
    np.add.accumulate(p_sorted, out=mass)
    step = np.zeros(p_sorted.size)
    rise = step[1:]
    np.subtract(f_sorted[1:], f_sorted[:-1], out=rise)
    # Zero-mass prefixes lead and their sums are exact zeros, which dividing by
    # 1.0 leaves as they are; a chi^2 side has none (its first weight is > 0).
    divisor = mass if p_sorted[0] > 0.0 else np.where(mass == 0.0, 1.0, mass)
    gap = np.multiply(before, step)
    np.add.accumulate(gap, out=gap)
    gap /= divisor
    # f[k] - mean[k-1] in units of a power of two near the payoff span (an
    # exact rescaling), so that its square times a tiny mass stays normal.
    unit = math.ldexp(1.0, math.frexp(f_sorted[-1] - f_sorted[0])[1] - 1)
    lead = step
    rise += gap[:-1]  # lead[1:]
    lead /= unit
    var = np.divide(before, divisor)
    var *= p_sorted
    var *= lead
    var *= lead
    np.add.accumulate(var, out=var)
    var /= divisor
    var *= unit
    var *= unit
    for arr in (mass, gap, var):
        arr.setflags(write=False)
    return mass, gap, var


class CriticalDeltas(SortedProblem):
    """The chi-squared side of ``(p, f)``: the sorted side plus its prefix
    statistics and the breakpoint radii at which the optimal support loses
    its top outcome.

    The prefix arrays, over the first ``i + 1`` sorted outcomes at entry
    ``i``, come from one pass of :func:`_prefix_moments`.  ``gap[i]`` is
    ``f_sorted[i]`` less the prefix mean, formed as a quotient of
    non-negative running sums rather than by that subtraction, so it keeps
    its relative accuracy when it is far below an ulp of the payoff.
    ``finite[j]`` is the critical radius for support size ``plateau + 1 + j``
    (so the array is empty when the objective is constant).  The plateau
    support itself never shrinks; its radius is unbounded and is represented
    structurally rather than by a float sentinel.  Each check that raises is
    a numeric breakdown of the closed form.
    """

    def __init__(self, p: Pmf, f: Objective):
        super().__init__(p, f)
        require_positive(self.p_sorted)
        ell = self.plateau
        mass, gap, var = _prefix_moments(self.p_sorted, self.f_sorted)
        self.prefix_mass, self.gap, self.prefix_var = mass, gap, var
        gap = gap[ell:]
        var = var[ell:]
        # argmin finds the first NaN if there is one, so NaN fails ``> 0.0``.
        if gap.size and not (gap[gap.argmin()] > 0.0 and var[var.argmin()] > 0.0):
            raise DivballError("non-plateau prefix is constant")
        finite = np.multiply(gap, gap)
        np.divide(var, finite, out=finite)
        finite += self.tails[ell:]
        finite /= mass[ell:]
        if finite.size and not finite[-1] > 0.0:
            raise DivballError("critical radii must be positive")
        # Non-increasing up to roundoff (NaN fails), the allowance formed only when needed.
        falling = finite[1:] <= finite[:-1]
        if np.count_nonzero(falling) != falling.size:
            bound = np.abs(finite[:-1])
            bound += 1.0
            bound *= 1e-12
            bound += finite[:-1]
            if np.count_nonzero(finite[1:] <= bound) != falling.size:
                raise DivballError("critical radii must be non-increasing")
        finite.setflags(write=False)
        self.finite = finite

    def value(self, delta: float) -> tuple[float, int, str]:
        """The lower bound at ``delta`` with its support size and branch."""
        check_delta(delta)
        # The comparison's bytes are 0 or 1, so rfind finds the last radius
        # above delta, or -1 for none.  A scan, not a bisection: tied radii
        # may wobble upward within the allowance that __init__ checks.
        r = self.plateau + 1 + (self.finite > delta).tobytes().rfind(1)
        if r == self.plateau:
            return float(self.f_sorted[0]), r, BRANCH_PLATEAU
        i = r - 1
        rad = _radicand(self.prefix_mass[i], self.tails[i], delta)
        mean = self.f_sorted[i] - self.gap[i]
        value = mean - math.sqrt(self.prefix_var[i]) * math.sqrt(rad)
        # The exact bound lies in the support's payoff range; rounding can leave it.
        value = min(max(value, self.f_sorted[0]), self.f_sorted[i])
        return float(value), r, BRANCH_INTERIOR

    def weights(self, r: int, delta: float) -> np.ndarray:
        """:meth:`value`'s minimizer for support size ``r``, in original order."""
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
    the plateau, the center renormalized on it.  Invalid ``(r, delta)`` pairs raise."""
    ell = cd.plateau
    if not ell <= r <= cd.n:
        raise DivballError(f"support size {r} outside [{ell}, {cd.n}]")
    if r == ell:
        return cd.p_sorted[:ell] / cd.prefix_mass[ell - 1]

    i = r - 1
    mass = cd.prefix_mass[i]
    tail = cd.tails[i]
    sigma2 = cd.prefix_var[i]
    if not sigma2 > 0.0:
        raise DivballError("interior support has zero prefix variance")
    scale = math.sqrt(_radicand(mass, tail, delta)) / math.sqrt(sigma2)
    # f - (f[i] - gap[i]) as (f - f[i]) + gap[i], so the mean is not rounded to f's ulp.
    tilt = cd.f_sorted[:r] - cd.f_sorted[i]
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
