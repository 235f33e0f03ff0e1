"""Core simplex types and the objective-ascending preprocessing.

Both ball solvers start the same way: reorder the outcomes so the objective
is non-decreasing, then take the tail masses that each reads.  This module
owns those shared types, input validation, and the expectation operation.

An ``Objective`` sorts its values once, when it is built, and keeps the
order, the sorted values and the run edges, where each tied run starts
(``_stable_order``): one stable argsort up to ``_STABLE_SORT_MAX`` values,
and above that one in-place sort of packed value-and-index keys, which
leaves every tie in ascending original index.  The edges are the one
record of the ties: the negation reads them backwards, the sorted side's
plateau is the second edge, and a chi-squared side's levels are the runs
between them, each level's mass and payoff read straight from them.  An
upper bound's side reads ``Objective._negation``: the order, sorted values
and edges of ``-f``, derived from the payoff's in O(n) without forming
``-f``, the order reversed and each tied run put back in ascending
original index.  No negation is sorted again.

Every array is read-only and every function is pure.  No attribute is set
outside a constructor; ``Pmf``, ``Objective`` and ``BoundResult`` are frozen
dataclasses, and the sorted side and its subclasses are plain classes.  So
instances are safe to share across threads.
"""

import enum
import math
from dataclasses import dataclass, field
from numbers import Complex, Number, Real

import numpy as np

from .errors import (
    DivballError,
    EmptySupportError,
    LengthMismatchError,
    NegativeDeltaError,
    NegativeWeightError,
    NonFiniteError,
    SumNotOneError,
    ZeroMassForbiddenError,
)

SUM_TOLERANCE = 1e-9

BRANCH_INTERIOR = "interior"
BRANCH_PLATEAU = "plateau"
BRANCH_DEGENERATE = "degenerate"
BRANCHES = (BRANCH_INTERIOR, BRANCH_PLATEAU, BRANCH_DEGENERATE)


class BallFamily(str, enum.Enum):
    """Which divergence defines the ball around the center pmf."""

    TV = "tv"
    CHI2 = "chi2"

    @classmethod
    def _missing_(cls, value):
        raise DivballError(f"unknown ball family {value!r}: expected 'tv' or 'chi2'")


def _is_real(kind: type) -> bool:
    """Whether ``kind`` is a type of real number: in Python's numeric tower, a
    ``numbers.Real`` (``int``, ``float``, a numpy integer or floating type,
    ``Fraction``), or a ``numbers.Number`` that is no ``numbers.Complex``
    (``Decimal``), but not ``bool`` nor numpy's ``timedelta64``, a duration
    that numpy files under its integers."""
    if kind in (float, int):
        return True
    real = issubclass(kind, Real) or not issubclass(kind, Complex)
    return real and issubclass(kind, Number) and not issubclass(kind, (bool, np.timedelta64))


def real_vector(values, what: str, copy: bool | None = None) -> np.ndarray:
    """``values`` as a float array of at least one dimension, copied as
    ``np.array``'s ``copy`` says.

    An ndarray must hold ints, uints or floats, which costs one dtype read;
    a list, tuple or range must hold numbers (:func:`_is_real`), one pass
    over its element types; anything else must be one number.  What is not
    read is refused by name, with the types it holds.  An integer past the
    float range exceeds every double, so it is refused as non-finite.
    """
    # The exact type first: it costs no C-level call, where isinstance does.
    if type(values) is np.ndarray or isinstance(values, np.ndarray):
        bad = "" if values.dtype.kind in "iuf" else values.dtype.name
    else:
        kinds = set(map(type, values if isinstance(values, (list, tuple, range)) else [values]))
        bad = ", ".join(sorted(kind.__name__ for kind in kinds if not _is_real(kind)))
    if bad:
        raise DivballError(f"{what} must be real numbers, got {bad}")
    try:
        return np.array(values, dtype=float, copy=copy, ndmin=1)
    except OverflowError:
        raise NonFiniteError(f"{what} contains a number past the float range") from None
    except ValueError:  # a signaling NaN
        raise DivballError(f"{what} must be real numbers, got a signaling NaN") from None


def real_number(value, what: str) -> float:
    """``value`` as a float, refused by name unless it is a number
    (:func:`_is_real`); an integer past the float range exceeds every double,
    so it is the infinity of its sign."""
    if _is_real(type(value)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
        except ValueError:  # a signaling NaN
            pass
    raise DivballError(f"{what} must be a number, got {value!r}")


def _clean_vector(values, what: str, copy: bool | None = None) -> np.ndarray:
    arr = real_vector(values, what, copy)
    if arr.ndim != 1:
        raise DivballError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptySupportError(f"{what} must have at least one entry")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"{what} contains NaN or infinity")
    return arr


def _unit_sum(weights: np.ndarray) -> float:
    """The float sum of ``weights``, checked to be 1 within ``SUM_TOLERANCE``."""
    total = float(np.add.reduce(weights))
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        raise SumNotOneError(f"weights sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    return total


def _clean_weights(values) -> np.ndarray:
    """``_clean_vector``'s rules for ``weights``, then nonnegativity."""
    w = _clean_vector(values, "weights")
    # Finite weights: the least is negative exactly when one is.
    if w[w.argmin()] < 0.0:
        raise NegativeWeightError("weights must be nonnegative")
    return w


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite outcome set.

    Weights must be finite, nonnegative and sum to 1 within
    ``SUM_TOLERANCE`` (:func:`_clean_weights`, :func:`_unit_sum`); they are
    then renormalized exactly (divided by their float sum) so downstream
    identities hold to machine precision.  Optional labels name the outcomes
    and must be distinct strings, given as a sequence (one string is
    refused, not split into letters).  Two internal constructors skip part
    of this: :meth:`_exact` checks by the same rules but does not divide,
    and :meth:`_solved` wraps solver output, checking only its mass.  All
    three end in :meth:`_store`, which freezes the weights.
    """

    weights: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = _clean_weights(self.weights)
        w = w / _unit_sum(w)
        labels = self.labels
        if labels is not None:
            # A list or a tuple of str: one string would be split into
            # letters, a dict read as its keys and a set in no fixed order.
            if not isinstance(labels, (list, tuple)) or not set(map(type, labels)) <= {str}:
                raise DivballError("labels must be a sequence of strings")
            labels = tuple(labels)
            if len(labels) != w.size:
                raise LengthMismatchError(f"{len(labels)} labels for {w.size} outcomes")
            if len(set(labels)) != len(labels):
                raise DivballError("labels must be distinct")
        self._store(w, labels)

    def _store(self, weights: np.ndarray, labels: tuple[str, ...] | None) -> "Pmf":
        """Freeze ``weights`` and set both fields; every constructor ends here."""
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)
        return self

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def _exact(cls, weights: np.ndarray) -> "Pmf":
        """Internal: wrap a copy of weights valid by construction, checked
        by ``Pmf``'s rules (its errors too) but not divided by their sum,
        so exact grid multiples stay bit-exact."""
        w = _clean_weights(np.array(weights, dtype=float))
        _unit_sum(w)
        return object.__new__(cls)._store(w, None)

    @classmethod
    def _solved(cls, weights: np.ndarray, labels: tuple[str, ...] | None) -> "Pmf":
        """Internal: wrap a solver's minimizer, taking ownership of ``weights``.

        Only the mass of a solver's nonnegative vector can be off: its float
        sum is checked (NaN fails) and divided out in place, giving ``Pmf``'s
        bits.  ``labels`` come from the validated center and are not checked.
        """
        weights /= _unit_sum(weights)
        return object.__new__(cls)._store(weights, labels)


@dataclass(frozen=True, eq=False)
class Objective:
    """Real-valued payoff on the same outcome set as the ball center.

    It is sorted once, when it is built, by :func:`_stable_order`: ``_perm``
    is the stable ascending order of the values (exactly numpy's
    ``argsort(kind="stable")``), ``_ordered`` the values gathered by it, and
    ``_edges`` its tied runs: the sorted position where each run of equal
    values starts, then ``n`` (``None`` when no two values tie).  All four
    arrays are read-only.  :meth:`_negation` gives an upper bound's side the
    order, sorted values and edges of ``-values``; no negated ``Objective``
    is built.
    """

    values: np.ndarray
    _perm: np.ndarray = field(init=False, repr=False)
    _ordered: np.ndarray = field(init=False, repr=False)
    _edges: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        # One copy: freezing the caller's own array would make it read-only.
        v = _clean_vector(self.values, "objective values", copy=True)
        perm, ordered, edges = _stable_order(v)
        for arr in (v, perm, ordered, edges):
            if arr is not None:  # untied, the edges are None
                arr.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_perm", perm)
        object.__setattr__(self, "_ordered", ordered)
        object.__setattr__(self, "_edges", edges)

    @property
    def n(self) -> int:
        return self.values.size

    def _negation(self):
        """The order, sorted values and run edges of ``-values``, read-only,
        derived in O(n) from this payoff's without forming ``-values``.

        The edges are this payoff's read backwards, ``n - edges[::-1]``.
        Untied, the order is this payoff's reversed and the sorted values
        this payoff's negated backwards.  Tied, run ``[a, c)`` holds this
        payoff's run ``[n - c, n - a)`` in ascending index: position ``i``
        reads sorted position ``i + n - c - a``, and its value is negated in
        place, so a run mixing ``0.0`` and ``-0.0`` keeps each sign.  Either
        way the order is exactly numpy's ``argsort(-values, kind="stable")``.
        """
        n, edges = self._perm.size, self._edges
        if edges is None:
            perm, ordered = self._perm[::-1], np.negative(self._ordered[::-1])
        else:
            edges = n - edges[::-1]
            edges.setflags(write=False)
            a, c = edges[:-1], edges[1:]
            index = np.arange(n, 2 * n)
            index -= (a + c).repeat(c - a)
            perm, ordered = self._perm[index], self._ordered[index]
            np.negative(ordered, out=ordered)
        perm.setflags(write=False)
        ordered.setflags(write=False)
        return perm, ordered, edges


def check_pair(p, f, kind: type = Objective, names: str = "pf") -> None:
    """Refuse, by name, a first argument that is no ``Pmf`` or a second that
    is no ``kind``, and a pair whose lengths differ."""
    # The exact types first: they cost no C-level call, where isinstance does.
    if type(p) is not Pmf or type(f) is not kind:
        for value, cls, name in zip((p, f), (Pmf, kind), names):
            if not isinstance(value, cls):
                raise DivballError(f"{name}: expected {cls.__name__}, got {type(value).__name__}")
    if p.n != f.n:
        raise LengthMismatchError(f"{p.n} outcomes in {names[0]} vs {f.n} in {names[1]}")


class SortedProblem:
    """A (pmf, objective) pair in objective-ascending order.

    ``perm[i]`` is the original index of sorted position ``i`` (0-based,
    stable, ties keep original order).  ``edges`` are the payoff's run
    edges, and ``plateau`` the second (1 untied): the number of leading
    outcomes tied at the minimal payoff.  ``center`` is ``p``'s
    original-order weights (shared, not copied).  A family's side subclasses
    it, takes the tail masses it reads (:func:`suffix_masses`: ``tv.TVSide``
    one per outcome, ``chi2.CriticalDeltas`` one per payoff level), and
    answers ``value(delta)`` and ``weights(r, delta)``, writing minimizers
    straight into original order through ``perm``.  The sides are internals
    of ``problem.Problem``, and check nothing of their own: it checks the
    pair and its family (:func:`check_problem`) before a side is built,
    ``delta`` before asking, and passes ``weights`` the support size ``r``
    that ``value`` returned.

    The order, the sorted payoff and the edges are ``f``'s own, read-only
    and shared, or with ``negated`` ``-f``'s, from ``f._negation()``, which
    forms no ``-f``.
    """

    def __init__(self, p: Pmf, f: Objective, negated: bool = False):
        perm, ordered, edges = f._negation() if negated else (f._perm, f._ordered, f._edges)
        p_sorted = p.weights[perm]
        p_sorted.setflags(write=False)
        self.perm = perm
        self.center = p.weights
        self.p_sorted = p_sorted
        self.f_sorted = ordered
        self.edges = edges
        self.plateau = 1 if edges is None else int(edges[1])

    @property
    def n(self) -> int:
        return self.p_sorted.size


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Optimal expectation plus the distribution attaining it.

    ``minimizer`` is in the original outcome order (for upper bounds it is
    the attaining maximizer).  ``active_index`` is the support size r of the
    optimizer counted in sorted order, so ``r == n`` means full support.
    """

    value: float
    minimizer: Pmf
    active_index: int
    branch: str

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise DivballError(f"unknown branch tag {self.branch!r}")


def check_delta(delta) -> float:
    """Reject a negative or NaN ball radius, and return it as a float.

    An infinite radius is valid, and so is an integer past the float range:
    it exceeds every double, so it is ``math.inf``, the whole simplex.  A
    rejected radius is reported as its float, so a negative integer past
    that range reads ``-inf`` rather than its digits.
    """
    d = real_number(delta, "delta")
    # A negative value can round to -0.0, so a zero is compared as given.
    if not (d > 0.0 or (d == 0.0 and delta >= 0)):
        raise NegativeDeltaError(f"delta must be >= 0, got {d}")
    return d


def validate(
    p, f, family: BallFamily | str = BallFamily.TV, labels=None
) -> tuple[Pmf, Objective]:
    """Validate raw weight and payoff vectors for the given ball family.

    ``Pmf`` reads ``p`` and ``labels`` under its rules, ``Objective`` reads
    ``f``, and :func:`check_problem` checks the pair for ``family``.
    """
    pmf, obj = Pmf(p, labels), Objective(f)
    check_problem(pmf, obj, family)
    return pmf, obj


def check_problem(p: Pmf, f: Objective, family: BallFamily | str) -> BallFamily:
    """The one check of a problem: ``p`` a ``Pmf`` and ``f`` an ``Objective``
    of its length (:func:`check_pair`), ``family`` a ball family, and a
    chi-squared center with no zero weight (:func:`require_positive`), since
    the divergence divides by it.  Returns the family as a ``BallFamily``.

    ``Problem``, :func:`validate` and the grid oracle call it, and no
    prepared side checks these facts again.
    """
    check_pair(p, f)
    family = family if type(family) is BallFamily else BallFamily(family)
    if family is BallFamily.CHI2:
        require_positive(p.weights)
    return family


def require_positive(weights: np.ndarray) -> None:
    """Reject a chi-squared center with a zero weight; the least of the
    nonnegative weights is zero exactly when one is.  It is a ufunc reduce,
    which reads a read-only array in place where argmin would copy it."""
    if np.minimum.reduce(weights) == 0.0:
        raise ZeroMassForbiddenError("chi-squared balls need a strictly positive center pmf")


def expectation(p: Pmf, f: Objective) -> float:
    """Expected value of ``f`` under ``p``: sum of ``p(x) * f(x)``."""
    check_pair(p, f)
    return weighted_mean(p.weights.copy(), f.values, f._ordered[0], f._ordered[-1])


# Below this payoff magnitude products with weights summing to 1 sum finitely.
_HALF_MAX = 2.0**1023


def weighted_mean(weights: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """``sum(weights * values)`` for weights summing to 1 and values in
    ``[lo, hi]``, formed in ``weights``, the caller's scratch.

    ``np.add.reduce`` sums the products in numpy's pairwise order, the same
    on every CPU and thread count, and in units of ``2**1023`` for a payoff
    range that reaches it.  The sum is clamped to ``[lo, hi]``, where the
    exact mean lies: rounding, or weights summing an ulp above 1, can leave it.
    """
    products = np.multiply(weights, values, out=weights)
    if -_HALF_MAX < lo and hi < _HALF_MAX:
        value = float(np.add.reduce(products))
    else:
        value = float(np.add.reduce(np.divide(products, _HALF_MAX, out=products))) * _HALF_MAX
    if value < lo:
        return float(lo)
    return float(hi) if value > hi else value


def suffix_masses(weights: np.ndarray) -> np.ndarray:
    """Tail sums: ``out[i]`` is the mass strictly after index i.

    The final entry is exactly 0.  Each tail is summed from the top down, so
    small tails keep their relative accuracy instead of being the difference
    of two masses near 1.
    """
    out = np.zeros(weights.size)
    np.add.accumulate(weights[:0:-1], out=out[-2::-1])
    out.setflags(write=False)
    return out


# Up to this size a payoff takes one stable argsort: a few numpy calls, where
# the packed-key sort makes about fifteen.  The measured crossover lies higher
# (README): the packed sort costs more up to 768 values and less from 1024,
# tied or untied.
_STABLE_SORT_MAX = 40


def _stable_order(values: np.ndarray):
    """The stable ascending order of ``values``, ``values`` gathered by it,
    and the run edges of the gathered values: ``0``, each position whose
    value differs from the one before (compared with ``!=``), then ``n``,
    or ``None`` when no two values tie.

    An ``Objective`` calls this once, when it is built.  Up to
    ``_STABLE_SORT_MAX`` values it is one stable argsort, which keeps tied
    values (``0.0`` ties ``-0.0``) in ascending original index.  Above that
    it sorts one integer key per value in place.  With ``s`` index bits
    (``2**s >= n``), a value's key is its :func:`_order_key` with the low
    ``s`` bits replaced by its index.  Exactly tied values share every kept
    bit, so the one sort leaves each tied run in ascending index, and
    masking off the kept bits turns the sorted keys into the order itself;
    the values are gathered into the index buffer.  Only values that differ
    in nothing but the ``s`` dropped bits can come out of order.  A descent
    in the gathered values shows it (about 1.5% of uniform payoffs of
    ``10**5`` values).  Such values share a kept key, a group, and the
    groups ascend, so one search of every position's group finds the slice
    from the first to the last falling group, which one stable argsort of
    its values sorts again.

    At ``n = 10**5``, on one core of the 2-vCPU benchmark host with page
    faults taken out, an ``Objective`` takes about 1.8 ms to build, tied or
    untied, and about 0.6 ms more when it repairs.  When every value collides
    the slice is the whole payoff, and the sort takes 13-14 ms (page faults
    in), a little more than one stable argsort of the values.  The sort's
    fixed cost, about fifteen numpy calls, is 15-19 µs from 41 to 256
    values, where one stable argsort takes 4-12 µs; from 1024 values on it
    is the cheaper one (19 against 29-39 µs, and 27-36 against 78-129 µs
    at 2000).
    """
    n = values.size
    starts = np.empty(n + 1, dtype=bool)
    starts[0] = starts[n] = True
    changes = starts[1:n]
    if n <= _STABLE_SORT_MAX:
        perm = values.argsort(kind="stable")
        ordered = values[perm]
    else:
        shift = (n - 1).bit_length()
        kept = -1 << shift
        perm = _order_key(values)
        perm &= kept
        index = np.arange(n)
        perm |= index
        perm.sort()
        perm &= ~kept
        # The indices are in range; "clip" skips take's buffered copy.
        ordered = values.take(perm, out=index.view(values.dtype), mode="clip")
        np.less(ordered[1:], ordered[:-1], out=changes)
        if np.count_nonzero(changes):
            # The slice of the first to the last falling group; its stable
            # argsort keeps tied values in ascending index.
            groups = _order_key(ordered)
            groups >>= shift
            falls = changes.nonzero()[0]
            a = int(groups.searchsorted(groups[falls[0]]))
            b = int(groups.searchsorted(groups[falls[-1]], "right"))
            perm[a:b] = perm[a:b][ordered[a:b].argsort(kind="stable")]
            values.take(perm[a:b], out=ordered[a:b], mode="clip")
    np.not_equal(ordered[1:], ordered[:-1], out=changes)
    if np.count_nonzero(changes) == n - 1:
        return perm, ordered, None
    return perm, ordered, starts.nonzero()[0]


def _order_key(values: np.ndarray) -> np.ndarray:
    """An ``int64`` per value that orders as the values do, ``-0.0`` keyed
    as ``0.0``: the bits of ``|value|``, negated for a negative value."""
    key = np.abs(values).view(np.int64)
    sign = values.view(np.int64) >> 63
    key ^= sign
    key -= sign
    return key
