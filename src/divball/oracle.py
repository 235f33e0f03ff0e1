"""Brute-force certification via exhaustive search over an on-grid mesh.

Enumerates every pmf whose weights are multiples of 1/resolution, keeps the
ones inside the requested ball, and reports the minimal expectation plus its
argmin.  Every grid point is feasible by construction, so the grid minimum is
an upper bound on the true one; the mesh density bounds the gap from above.
The grid is streamed in lexicographic blocks, one per leading coordinate,
cut from one list of (n-1)-part tails; the whole grid is never held, and at
n = 4, resolution 250 a call peaks at about 1.5 MB of arrays, most of it
that list.  A grid of n <= 2 is one line, evaluated in one vector pass.

Coordinate j of a grid point only takes the values k / resolution, so each
distance or expectation term is looked up in a table of resolution + 1
entries per coordinate, formed once per call, and a point's sum adds the
looked-up terms left to right.  Distance terms are >= 0 and rounding is
monotone, so every left-to-right partial sum is at most the full distance:
a block whose leading term lies outside the ball is skipped whole, and in
the others only the rows whose first two terms lie inside are evaluated.
At n = 4, resolution 250 (2.7M points) a call took 4-15 ms at radii that
keep under 4% of the grid and 29-38 ms when nearly all of it is feasible
(2-vCPU VM, one CPU).

The distances and the expectation are deliberately reimplemented here as
plain definitional loops, and each table applies the loop's operations, so
the vectorized sums have the loops' bits and a bug in the closed-form
modules cannot hide itself behind shared code.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import BallFamily, Objective, Pmf, check_delta, check_problem, real_vector
from .errors import (
    DivballError,
    EmptyFeasibleError,
    LengthMismatchError,
    TooLargeError,
    ZeroMassForbiddenError,
)

MAX_OUTCOMES = 4
MAX_GRID_POINTS = 10**7


def naive_tv_distance(q, p) -> float:
    """Definitional total-variation loop, independent of the tv module."""
    qa, pa = _pair(q, p)
    s = 0.0
    for a, b in zip(qa, pa):
        s += abs(a - b)
    return float(0.5 * s)


def naive_chi2_divergence(q, p) -> float:
    """Definitional chi-squared loop, independent of the chi2 module."""
    qa, pa = _pair(q, p)
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
    qa, fa = _pair(q, f)
    s = 0.0
    for a, b in zip(qa, fa):
        s += a * b
    return float(s)


def _weights(x) -> np.ndarray:
    if isinstance(x, Pmf):
        return x.weights
    if isinstance(x, Objective):
        return x.values
    return real_vector(x, "values")


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` read by :func:`_weights`, checked to have one length."""
    qa, pa = _weights(a), _weights(b)
    if len(qa) != len(pa):
        raise LengthMismatchError(f"{len(qa)} vs {len(pa)} outcomes")
    return qa, pa


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
    """``resolution`` as a Python int, checked, so no arithmetic on it wraps."""
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)):
        raise DivballError(f"resolution must be an integer, got {resolution!r}")
    resolution = int(resolution)
    if resolution < 1:
        raise DivballError(f"resolution must be >= 1, got {resolution}")
    if n > MAX_OUTCOMES:
        raise TooLargeError(f"grid enumeration is capped at n <= {MAX_OUTCOMES}, got {n}")
    count = math.comb(resolution + n - 1, n - 1)
    if count > MAX_GRID_POINTS:
        raise TooLargeError(
            f"{count} grid points exceed the cap of {MAX_GRID_POINTS}"
        )
    return resolution


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
        block = np.empty((rest.shape[0], parts), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        block[:, 1] -= first
        yield block


def _evaluate(distance, expectation, columns, scale, delta):
    """The feasible count of the rows whose term ``j`` is looked up at
    ``columns[j]`` in tables ``distance[j]`` and ``expectation[j]``, with
    the index and expectation of the first feasible row of least
    expectation (None, None when no row is feasible).  A row's terms are
    summed left to right; when every feasible expectation overflowed to
    +inf, the first feasible row wins."""
    acc = distance[0].take(columns[0])
    for table, column in zip(distance[1:], columns[1:]):
        acc += table.take(column)
    acc *= scale
    outside = acc > delta
    count = outside.size - int(np.count_nonzero(outside))
    if count == 0:
        return 0, None, None
    values = expectation[0].take(columns[0])
    for table, column in zip(expectation[1:], columns[1:]):
        values += table.take(column)
    values[outside] = np.inf
    idx = int(values.argmin())
    idx = int(outside.argmin()) if outside[idx] else idx
    return count, idx, values[idx]


def _line_search(grid, distance, expectation, scale, delta):
    """:func:`_grid_search`'s result for the n <= 2 grid, in one vector pass:
    its points are (1.0,), or (a, R - a) for a = 0..R in lexicographic order."""
    resolution = grid.size - 1
    first = np.arange(resolution + 1) if len(distance) == 2 else np.array([resolution])
    columns = (first, resolution - first)[:len(distance)]
    count, idx, _ = _evaluate(distance, expectation, columns, scale, delta)
    return count, None if idx is None else grid[[c[idx] for c in columns]]


def _grid_search(grid, distance, expectation, scale, delta):
    """The feasible count and the lexicographically first feasible argmin's
    weights (None when nothing is feasible) of the n >= 3 grid.

    A tails row with first entry ``v`` is, in the block of leading
    coordinate ``a <= v``, the point ``(a, v - a, ...)``: a block is the rows
    with ``v >= a``, grouped by the second coordinate.  A block is evaluated
    only from the first to the last second coordinate whose first two terms
    lie inside the ball; by the partial-sum bound, no other row does.
    """
    resolution = grid.size - 1
    # Column-major, so that each tail column is a contiguous view.
    tails = np.asfortranarray(
        np.vstack(list(_composition_blocks(len(distance) - 1, resolution)))
    )
    heads = tails[:, 0]
    starts = np.searchsorted(heads, np.arange(resolution + 2))
    # Indexed by the tails' first entry v: the first two terms of (a, v - a),
    # which stand in for the first two tables when a block's rows are evaluated.
    two_distance = np.empty(resolution + 1)
    two_expectation = np.empty(resolution + 1)
    two_term = (two_distance, *distance[2:]), (two_expectation, *expectation[2:])
    feasible_count = 0
    best_value, argmin_weights = None, None
    for a in range(resolution + 1):
        lead = distance[0][a]
        if scale * lead > delta:
            continue
        partial = np.add(lead, distance[1][:resolution + 1 - a], out=two_distance[a:])
        inside = scale * partial <= delta
        first = int(inside.argmax())
        if not inside[first]:
            continue
        stop = inside.size - int(inside[::-1].argmax())
        lo, hi = starts[a + first], starts[a + stop]
        columns = [tails[lo:hi, j] for j in range(tails.shape[1])]
        np.add(
            expectation[0][a], expectation[1][:resolution + 1 - a],
            out=two_expectation[a:],
        )
        count, idx, value = _evaluate(*two_term, columns, scale, delta)
        feasible_count += count
        # Only a strict decrease moves the argmin, so the first minimum in
        # lexicographic order wins, as np.argmin over the whole grid would.
        if count and (argmin_weights is None or value < best_value):
            v = columns[0][idx]
            best_value = value
            argmin_weights = grid[[a, v - a, *(column[idx] for column in columns[1:])]]
    return feasible_count, argmin_weights


def default_resolution(n: int) -> int:
    """Mesh density giving a useful certificate at tolerable cost."""
    return 200 if n <= 3 else 100


def oracle_lower_expectation(
    p: Pmf, f: Objective, family: BallFamily | str, delta: float,
    resolution: int | None = None,
) -> OracleReport:
    """Exhaustive feasible-grid minimum of the expectation over a ball.

    ``p``, ``f`` and ``family`` are checked as a ``Problem``'s are
    (``core.check_problem``), then ``delta`` as a bound's: any radius >= 0
    is valid, and an infinite one makes every grid point feasible.  The
    reported minimum is recomputed with the definitional loops, and the
    argmin's ball membership is rechecked the same way, so the report stands
    on its own even if the vectorized path were wrong.
    """
    family = check_problem(p, f, family)
    delta = check_delta(delta)
    n = p.n
    if resolution is None:
        resolution = default_resolution(n)
    resolution = _check_grid_size(n, resolution)

    grid = np.arange(resolution + 1) / float(resolution)
    # Every grid point is a row of lookups into one table per coordinate,
    # formed with the definitional loops' operations, so each term has the
    # bits the loop gives it.  TV halves the summed terms; x * 1.0 == x.
    # A distance term or sum past the float range is +inf, outside the ball,
    # and an expectation sum past it is +inf, so overflow is not an error.
    with np.errstate(over="ignore"):
        if family is BallFamily.TV:
            distance, scale = [np.abs(grid - w) for w in p.weights], 0.5
        else:
            distance, scale = [(grid - w) ** 2 / w for w in p.weights], 1.0
        expectation = [grid * v for v in f.values]
        search = _line_search if n <= 2 else _grid_search
        feasible_count, argmin_weights = search(grid, distance, expectation, scale, delta)
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
