"""Brute-force certification via exhaustive search over an on-grid mesh.

Enumerates every pmf whose weights are multiples of 1/resolution, keeps the
ones inside the requested ball, and reports the minimal expectation plus its
argmin.  Every grid point is feasible by construction, so the grid minimum is
an upper bound on the true one; the mesh density bounds the gap from above.
The grid is streamed in lexicographic blocks, one per leading coordinate:
memory holds one block of at most C(resolution + n - 2, n - 2) points and
the list of tails it is cut from, never the whole grid.

The distances and the expectation are deliberately reimplemented here as
plain definitional loops (with vectorized equivalents applying the identical
operation sequence), so a bug in the closed-form modules cannot hide itself
behind shared code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import BallFamily, Objective, Pmf, check_delta, require_positive
from .errors import (
    DivballError,
    EmptySupportError,
    EmptyFeasibleError,
    LengthMismatchError,
    TooLargeError,
    ZeroMassForbiddenError,
)

MAX_OUTCOMES = 4
MAX_GRID_POINTS = 10**7


def naive_tv_distance(q, p) -> float:
    """Definitional total-variation loop, independent of the tv module."""
    qa, pa = _weights(q), _weights(p)
    if len(qa) != len(pa):
        raise LengthMismatchError(f"{len(qa)} vs {len(pa)} outcomes")
    s = 0.0
    for a, b in zip(qa, pa):
        s += abs(a - b)
    return float(0.5 * s)


def naive_chi2_divergence(q, p) -> float:
    """Definitional chi-squared loop, independent of the chi2 module."""
    qa, pa = _weights(q), _weights(p)
    if len(qa) != len(pa):
        raise LengthMismatchError(f"{len(qa)} vs {len(pa)} outcomes")
    s = 0.0
    for a, b in zip(qa, pa):
        if b == 0.0:
            raise ZeroMassForbiddenError("chi-squared divergence needs p > 0 everywhere")
        s += (a - b) * (a - b) / b
    return float(s)


def naive_divergence(q, p, family: BallFamily) -> float:
    """The definitional loop of the ``family`` ball's divergence."""
    if BallFamily(family) is BallFamily.TV:
        return naive_tv_distance(q, p)
    return naive_chi2_divergence(q, p)


def naive_expectation(q, f) -> float:
    """Definitional expectation loop, independent of the core module."""
    qa, fa = _weights(q), _weights(f)
    if len(qa) != len(fa):
        raise LengthMismatchError(f"{len(qa)} vs {len(fa)} entries")
    s = 0.0
    for a, b in zip(qa, fa):
        s += a * b
    return float(s)


def _weights(x) -> np.ndarray:
    if isinstance(x, Pmf):
        return x.weights
    if isinstance(x, Objective):
        return x.values
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class OracleReport:
    """Grid-search result: the feasible minimum and its certificate slack.

    ``tolerance`` is the certified gap bound
    ``(max f - min f) * n / resolution``; the true minimum lies within it
    below ``grid_minimum``.
    """

    grid_minimum: float
    grid_argmin: Pmf
    resolution: int
    feasible_count: int
    tolerance: float


def _check_grid_size(n: int, resolution: int) -> int:
    if n < 1:
        raise EmptySupportError("need at least one outcome")
    if resolution < 1:
        raise DivballError(f"resolution must be >= 1, got {resolution}")
    if n > MAX_OUTCOMES:
        raise TooLargeError(f"grid enumeration is capped at n <= {MAX_OUTCOMES}, got {n}")
    count = math.comb(resolution + n - 1, n - 1)
    if count > MAX_GRID_POINTS:
        raise TooLargeError(
            f"{count} grid points exceed the cap of {MAX_GRID_POINTS}"
        )
    return count


def _composition_blocks(parts: int, total: int):
    """Yield the length-``parts`` nonnegative integer vectors summing to
    ``total`` in lexicographic order, one block per leading coordinate.

    The rows of the (parts-1)-part list of ``total`` whose first coordinate
    is at least ``a``, with ``a`` subtracted from it, are the (parts-1)-part
    list of ``total - a`` in lexicographic order: a contiguous suffix.  So
    one list of tails, built once, serves every block.
    """
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
        return
    tails = np.vstack(list(_composition_blocks(parts - 1, total)))
    for first in range(total + 1):
        rest = tails[np.searchsorted(tails[:, 0], first):]
        # Column-major: the oracle's passes run column by column.
        block = np.empty((rest.shape[0], parts), dtype=np.int64, order="F")
        block[:, 0] = first
        block[:, 1:] = rest
        block[:, 1] -= first
        yield block


def _column_tv(W: np.ndarray, pw: np.ndarray) -> np.ndarray:
    # Same left-to-right operation sequence as naive_tv_distance, so the
    # feasibility mask and the scalar recheck agree bitwise.
    acc = np.abs(W[:, 0] - pw[0])
    for j in range(1, W.shape[1]):
        acc = acc + np.abs(W[:, j] - pw[j])
    return 0.5 * acc


def _column_chi2(W: np.ndarray, pw: np.ndarray) -> np.ndarray:
    acc = (W[:, 0] - pw[0]) ** 2 / pw[0]
    for j in range(1, W.shape[1]):
        acc = acc + (W[:, j] - pw[j]) ** 2 / pw[j]
    return acc


def _column_expectation(W: np.ndarray, fv: np.ndarray) -> np.ndarray:
    acc = W[:, 0] * fv[0]
    for j in range(1, W.shape[1]):
        acc = acc + W[:, j] * fv[j]
    return acc


def default_resolution(n: int) -> int:
    """Mesh density giving a useful certificate at tolerable cost."""
    return 200 if n <= 3 else 100


def oracle_lower_expectation(
    p: Pmf, f: Objective, family: BallFamily | str, delta: float,
    resolution: int | None = None,
) -> OracleReport:
    """Exhaustive feasible-grid minimum of the expectation over a ball.

    ``family`` and ``delta`` follow the bounds' rules: any radius >= 0 is
    valid, and an infinite one makes every grid point feasible.  The
    reported minimum is recomputed with the definitional loops, and the
    argmin's ball membership is rechecked the same way, so the report stands
    on its own even if the vectorized path were wrong.
    """
    family = BallFamily(family)
    check_delta(delta)
    delta = float(delta)
    if p.n != f.n:
        raise LengthMismatchError(f"{p.n} weights vs {f.n} objective values")
    if family is BallFamily.CHI2:
        require_positive(p.weights)
    n = p.n
    if resolution is None:
        resolution = default_resolution(n)
    _check_grid_size(n, resolution)

    column_distance = _column_tv if family is BallFamily.TV else _column_chi2
    feasible_count = 0
    best_value, argmin_weights = None, None
    for counts in _composition_blocks(n, resolution):
        W = counts / float(resolution)
        mask = column_distance(W, p.weights) <= delta
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        feasible_count += count
        masked = np.where(mask, _column_expectation(W, f.values), np.inf)
        idx = int(np.argmin(masked))
        if not mask[idx]:
            # Every feasible expectation here overflowed to +inf, the fill of
            # the infeasible rows: the first feasible point is the minimum.
            idx = int(np.argmax(mask))
        # Only a strict decrease moves the argmin, so the first minimum in
        # lexicographic order wins, as np.argmin over the whole grid would.
        if argmin_weights is None or masked[idx] < best_value:
            best_value, argmin_weights = masked[idx], W[idx]
    if feasible_count == 0:
        raise EmptyFeasibleError(
            f"no grid point at resolution {resolution} lies in the "
            f"{family.value} ball of radius {delta}"
        )

    grid_minimum = float(naive_expectation(argmin_weights, f.values))
    if naive_divergence(argmin_weights, p.weights, family) > delta:
        raise RuntimeError("oracle internal inconsistency: argmin left the ball")

    # Python floats: a span past the float range is inf, with no warning.
    span = float(f.values.max()) - float(f.values.min())
    return OracleReport(
        grid_minimum=grid_minimum,
        grid_argmin=Pmf._exact(argmin_weights),
        resolution=resolution,
        feasible_count=feasible_count,
        tolerance=span * n / resolution,
    )


def oracle_check_verdict(
    closed_form: float, report: OracleReport, minimizer_distance: float, delta: float
) -> bool:
    """Two-sided certificate: sandwich gap in range and minimizer feasible.

    The gap floor sits a hair below zero because the closed form and the
    grid expectation accumulate in different orders; a genuine soundness
    violation lands far below it.
    """
    gap = report.grid_minimum - closed_form
    floor = -1e-12 * (1.0 + abs(closed_form))
    return bool(floor <= gap <= report.tolerance and minimizer_distance <= delta + 1e-9)
