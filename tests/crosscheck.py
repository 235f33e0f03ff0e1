"""Independent cross-checks that only the tests use.

The two- and three-outcome chi-squared closed forms are written out case by
case from definitional prefix statistics, sharing no incremental machinery
with ``divball.chi2``; ``enumerate_compositions`` walks the oracle's grid one
point at a time; ``WrongArityError`` and ``TiedBottomError`` are the errors
they raise, and ``critical_delta`` reads one critical radius by support
size.  ``with_prefix_stats`` reads a sorted side's prefix statistics, and
``chi2_minimizer`` is the attaining distribution in sorted order for any
valid support size.  ``expression_sorted``, ``expression_critical_radii``,
``expression_minimizer_weights`` and ``expression_tv_weights`` keep the
whole-array expression form of the prefix pass, the critical radii and the
two minimizers that the in-place library code must reproduce byte for byte.
``reference_bound`` solves a bound exactly, in rationals, with one square
root at 60 digits, and shares nothing with the library but the float inputs.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np

from divball.chi2 import _COORDINATE_SLACK, _minimizer_head, _prefix_moments, _radicand
from divball.core import (
    BallFamily,
    Objective,
    Pmf,
    SortedProblem,
    _stable_order,
    check_delta,
    require_positive,
)
from divball.errors import DivballError, ZeroMassForbiddenError
from divball.oracle import _check_grid_size, _composition_blocks


class WrongArityError(DivballError):
    """A fixed-size special case was called with the wrong number of outcomes."""


class TiedBottomError(DivballError):
    """The three-point special case needs a unique minimal objective value."""


def critical_delta(cd, k: int) -> float:
    """Critical radius for support size k of critical radii ``cd``;
    ``math.inf`` for the plateau."""
    if not cd.plateau <= k <= cd.n:
        raise DivballError(f"support size {k} outside [{cd.plateau}, {cd.n}]")
    if k == cd.plateau:
        return math.inf
    return float(cd.finite[k - cd.plateau - 1])


def with_prefix_stats(sp: SortedProblem) -> SimpleNamespace:
    """``sp`` with the prefix mass, gap and variance of the library's one
    prefix pass, and the prefix mean ``f_sorted - gap``, 0.0 on a prefix of
    zero mass; any sorted side can be read, TV or with zero weights too."""
    mass, gap, var = _prefix_moments(sp.p_sorted, sp.f_sorted)
    mean = sp.f_sorted - gap
    mean[mass == 0.0] = 0.0
    mean.setflags(write=False)
    return SimpleNamespace(
        n=sp.n,
        perm=sp.perm,
        p_sorted=sp.p_sorted,
        f_sorted=sp.f_sorted,
        tails=sp.tails,
        plateau=sp.plateau,
        prefix_mass=mass,
        prefix_mean=mean,
        prefix_var=var,
        gap=gap,
    )


def chi2_minimizer(sp: SortedProblem, r: int, delta: float) -> Pmf:
    """Attaining distribution for support size ``r``, in sorted order.

    For ``r`` above the plateau this is the tilted renormalized center with
    boundary divergence exactly ``delta``; every coordinate on the support is
    positive while ``delta`` stays below the support's critical radius, and
    the top coordinate vanishes exactly at it.  For ``r`` equal to the
    plateau size the canonical choice is the minimum-divergence distribution:
    the center renormalized on the plateau.

    ``r`` must come from ``CriticalDeltas.value`` (or be a critical-radius
    probe at ``delta == delta_r``); other pairs are rejected.  The prefix
    statistics come from :func:`with_prefix_stats`, so a side whose critical
    radii fail can still be probed.
    """
    require_positive(sp.p_sorted)
    check_delta(delta)
    q = np.zeros(sp.n)
    q[:r] = _minimizer_head(with_prefix_stats(sp), r, delta)
    return Pmf._solved(q, None)


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


def expression_sorted(p: Pmf, f: Objective) -> SimpleNamespace:
    """The sorted side with every prefix statistic formed as whole-array
    expressions, each a new array, in the library's order of operations."""
    perm, f_sorted, _ = _stable_order(f.values)
    p_sorted = p.weights[perm]

    mass = np.add.accumulate(p_sorted)
    before = np.concatenate(([0.0], mass[:-1]))
    step = np.concatenate(([0.0], f_sorted[1:] - f_sorted[:-1]))
    # Zero-mass prefixes lead and their sums are exact zeros, kept by the floor.
    divisor = np.maximum(mass, np.finfo(float).smallest_subnormal)
    gap = np.add.accumulate(before * step) / divisor
    mean = f_sorted - gap
    mean[mass == 0.0] = 0.0
    # f[k] - mean[k-1] in units of a power of two near the payoff span (an
    # exact rescaling), so that its square times a tiny mass stays normal.
    unit = math.ldexp(1.0, math.frexp(f_sorted[-1] - f_sorted[0])[1] - 1)
    lead = np.concatenate(([0.0], (step[1:] + gap[:-1]) / unit))
    spread = np.add.accumulate(p_sorted * (before / divisor) * lead * lead)
    var = spread / divisor * unit * unit

    plateau = int(np.searchsorted(f_sorted, f_sorted[0], side="right"))
    return SimpleNamespace(
        n=p.n,
        perm=perm,
        p_sorted=p_sorted,
        f_sorted=f_sorted,
        prefix_mass=mass,
        prefix_mean=mean,
        prefix_var=var,
        gap=gap,
        tails=np.concatenate((np.add.accumulate(p_sorted[:0:-1])[::-1], [0.0])),
        plateau=plateau,
    )


def expression_critical_radii(sp) -> np.ndarray:
    """Critical radii above the plateau of an :func:`expression_sorted` side,
    raising the library's errors where its checks fail."""
    ell = sp.plateau
    gap = sp.gap[ell:]
    var = sp.prefix_var[ell:]
    if not ((gap > 0.0) & (var > 0.0)).all():
        raise DivballError("non-plateau prefix is constant")
    finite = (var / (gap * gap) + sp.tails[ell:]) / sp.prefix_mass[ell:]
    if finite.size and not finite[-1] > 0.0:
        raise DivballError("critical radii must be positive")
    if not (finite[1:] <= finite[:-1] + 1e-12 * (1.0 + np.abs(finite[:-1]))).all():
        raise DivballError("critical radii must be non-increasing")
    return finite


def expression_minimizer_weights(sp, r: int, delta: float) -> np.ndarray:
    """Sorted minimizer weights for support size ``r`` of an
    :func:`expression_sorted` side."""
    ell = sp.plateau
    if not ell <= r <= sp.n:
        raise DivballError(f"support size {r} outside [{ell}, {sp.n}]")

    q = np.zeros(sp.n)
    if r == ell:
        q[:ell] = sp.p_sorted[:ell] / sp.prefix_mass[ell - 1]
        return q

    i = r - 1
    mass = sp.prefix_mass[i]
    tail = sp.tails[i]
    sigma2 = sp.prefix_var[i]
    if not sigma2 > 0.0:
        raise DivballError("interior support has zero prefix variance")
    scale = math.sqrt(_radicand(mass, tail, delta)) / math.sqrt(sigma2)
    head = (sp.p_sorted[: i + 1] / mass) * (
        1.0 - (sp.f_sorted[: i + 1] - sp.f_sorted[i] + sp.gap[i]) * scale
    )
    negative = head < 0.0
    if np.any(head[negative] < -_COORDINATE_SLACK):
        raise DivballError(
            f"radius {delta} exceeds the critical radius for support size {r}"
        )
    head[negative] = 0.0
    q[: i + 1] = head
    return q


def expression_tv_weights(sp, delta: float) -> tuple[int, np.ndarray]:
    """Support size and sorted minimizer weights of the TV bound at ``delta``
    of an :func:`expression_sorted` side, before normalization.  Any radius
    of 1 or more is the whole simplex, r = 1, with no tail compared."""
    r = 1 if delta >= 1.0 else int((delta >= sp.tails).argmax()) + 1
    q = np.zeros(sp.n)
    if r == 1:
        q[0] = 1.0
        return r, q
    q[:r] = sp.p_sorted[:r]
    q[0] += delta
    q[r - 1] = sp.tails[r - 2] - delta
    return r, q


def _mpf(x):
    """A ``Fraction`` (or an ``mpf``) at the working precision of ``mpmath``."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def reference_bound(p: Pmf, f: Objective, family, delta: float) -> SimpleNamespace:
    """The exact lower bound of ``f`` over the ``family`` ball of radius
    ``delta`` around ``p``, from the float inputs read as rationals.

    The outcomes are sorted by ``(f, index)``, the ball's center is ``p``
    divided by its exact sum, and every prefix mass, mean, variance, tail and
    critical radius is an exact ``Fraction``; the support size r is the
    exact comparison of ``Fraction(delta)`` with the tails (TV: the first r
    whose tail is at most delta) or the critical radii (chi^2: the last r
    whose radius exceeds delta, else the minimal-payoff plateau).  TV is
    exact throughout; chi^2 takes its one square root with ``mpmath`` at 60
    digits.  Returns the ``value`` (an ``mpf``), ``r``, the ``minimizer`` in
    original order (``mpf`` weights) and the sorted ``breakpoints`` (tails
    or critical radii, as ``Fraction``s) that ``delta`` is compared with.
    """
    family = BallFamily(family)
    check_delta(delta)
    weights = [Fraction(w) for w in p.weights.tolist()]
    total = sum(weights)
    values = [Fraction(v) for v in f.values.tolist()]
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ps = [weights[i] / total for i in order]
    fs = [values[i] for i in order]
    n = len(ps)
    tails = [Fraction(0)] * n
    for k in range(n - 2, -1, -1):
        tails[k] = tails[k + 1] + ps[k + 1]
    d = Fraction(delta) if math.isfinite(delta) else None  # None: infinite
    with mpmath.workdps(60):
        if family is BallFamily.TV:
            r = next(k + 1 for k in range(n) if d is None or tails[k] <= d)
            q = [Fraction(0)] * n
            if r == 1:
                q[0] = Fraction(1)
            else:
                q[:r] = ps[:r]
                q[0] += d
                q[r - 1] = tails[r - 2] - d
            value = _mpf(sum(w * v for w, v in zip(q, fs)))
            breakpoints = tails
        else:
            plateau = fs.count(fs[0])
            mass = mean_sum = square_sum = Fraction(0)
            stats, breakpoints = [], []
            for k in range(n):
                mass += ps[k]
                mean_sum += ps[k] * fs[k]
                square_sum += ps[k] * fs[k] * fs[k]
                mean = mean_sum / mass
                var = square_sum / mass - mean * mean
                stats.append((mass, mean, var))
                if k >= plateau:
                    breakpoints.append((var / (fs[k] - mean) ** 2 + tails[k]) / mass)
            above = [k for k, b in enumerate(breakpoints) if d is not None and b > d]
            r = plateau + 1 + above[-1] if above else plateau
            mass, mean, var = stats[r - 1]
            if r == plateau:
                q = [w / mass for w in ps[:r]] + [Fraction(0)] * (n - r)
                value = _mpf(fs[0])
            else:
                radicand = mass * d - tails[r - 1]
                if radicand < 0:
                    raise AssertionError("a negative radicand on the exact support")
                scale = mpmath.sqrt(_mpf(radicand) / _mpf(var))
                q = [
                    _mpf(w / mass) * (1 - _mpf(v - mean) * scale)
                    for w, v in zip(ps[:r], fs[:r])
                ] + [Fraction(0)] * (n - r)
                value = _mpf(mean) - mpmath.sqrt(_mpf(var * radicand))
        minimizer = [None] * n
        for i, w in zip(order, q):
            minimizer[i] = _mpf(w)
    return SimpleNamespace(value=value, r=r, minimizer=minimizer, breakpoints=breakpoints)
