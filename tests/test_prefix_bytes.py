"""On an untied payoff, whose levels are its outcomes, the in-place prefix
pass, critical radii and minimizer reproduce the whole-array expression
form in ``crosscheck`` byte for byte, and so do the minimizers that
``Problem`` returns, built in original order; so do the TV minimizers of
every payoff.  A center with a zero weight has no chi-squared side, and
its sorted arrays and per-outcome tails, all that a TV side reads, keep
their bytes.

Every chi-squared side of a tied payoff, of any size, is solved over its
payoff levels, so its bits are checked, not pinned.  Its sorted arrays
keep their bytes; its run edges, level tails, level statistics and radii
are those of the levels that ``crosscheck.payoff_levels`` finds from the
sorted payoff alone, each level mass within the summation error bound of
its run's exact sum.  Every minimizer sums to 1 within n * 1e-15 and
passes ``bench/check.py``'s minimizer check (in the ball, attaining the
value), and every value is within the benchmark's tolerance of the
closed-form dual at its support size.

Up to 64 values, and at one size from 250 to 255 per tied kind, the
collapsed bounds are also judged by ``reference_bound``: the support size
must be the exact one, and no value may be farther from the exact one, in
ulps of the payoff span, than the element path's (the expression form).
Neither holds on every bound, so both are strict xfails that count the
bounds that fail.
"""

import functools
import importlib.util
import math
import warnings
from collections import namedtuple
from pathlib import Path

import mpmath
import numpy as np
import pytest

import divball as db
from divball import chi2
from divball.chi2 import CriticalDeltas
from divball.errors import DivballError
from divball.tv import TVSide
from crosscheck import (
    chi2_minimizer,
    expression_critical_radii,
    expression_minimizer_weights,
    expression_sorted,
    expression_tv_weights,
    expression_value,
    payoff_levels,
    reference_bound,
    suffix_max,
    with_prefix_stats,
)

# The benchmark's output checks, loaded from their file and not registered
# as a module, so that they share nothing with the library or these tests.
_spec = importlib.util.spec_from_file_location(
    "bench_check", Path(__file__).resolve().parents[1] / "bench" / "check.py"
)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

KINDS = ("random", "skewed", "ties", "signed_zero", "constant", "zero_weight")
SORTED_FIELDS = ("perm", "p_sorted", "f_sorted", "tails")
PREFIX_FIELDS = ("prefix_mass", "prefix_mean", "prefix_var", "gap")


def draw(rng, kind, n):
    if kind == "skewed":
        p = np.maximum(np.nan_to_num(rng.dirichlet(np.full(n, 0.05))), 1e-300)
    else:
        p = rng.dirichlet(np.ones(n))
    if kind == "zero_weight":
        p[rng.random(n) < 0.3] = 0.0
        p[int(rng.integers(n))] += 0.5
    f = rng.uniform(-1.0, 1.0, n) * 10.0 ** float(rng.choice([-8, 0, 8]))
    if kind == "ties":
        f = np.round(f * 3.0)
    elif kind == "signed_zero":
        f = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        f[rng.random(n) < 0.2] = 1.0
    elif kind == "constant":
        f = np.full(n, f[0])
    return db.Pmf(p / p.sum()), db.Objective(f)


def outcome(fn, *args):
    """Bytes of the result, or the exception's class name and message."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def padded_head(cd, r, delta):
    """The library's sorted minimizer weights before normalization."""
    q = np.zeros(cd.n)
    q[:r] = chi2._minimizer_head(cd, r, delta)
    return q


def assert_sorted_matches(pmf, obj):
    """The TV side's sorted arrays and tails keep the expression form's
    bytes, and its plateau is the same; returns the side and the expression
    form."""
    sp = TVSide(pmf, obj)
    ref = expression_sorted(pmf, obj)
    for name in SORTED_FIELDS:
        assert getattr(sp, name).tobytes() == getattr(ref, name).tobytes(), name
    assert sp.plateau == ref.plateau
    return sp, ref


def assert_side_matches(pmf, obj):
    """An untied chi-squared side: its tails, every prefix statistic and
    minimizer head keep the expression form's bytes too, and its radii are
    the suffix maximum of the expression form's."""
    sp, ref = assert_sorted_matches(pmf, obj)
    stats = with_prefix_stats(sp)
    for name in PREFIX_FIELDS:
        assert getattr(stats, name).tobytes() == getattr(ref, name).tobytes(), name
    got = outcome(lambda: CriticalDeltas(pmf, obj).finite)
    want = outcome(lambda: suffix_max(expression_critical_radii(ref)))
    assert got == want
    if isinstance(want, tuple):
        return
    cd = CriticalDeltas(pmf, obj)
    assert cd.tails.tobytes() == ref.tails.tobytes()
    for delta in radii_of(cd.finite):
        r = cd.value(float(delta))[1]
        got = outcome(padded_head, cd, r, float(delta))
        want = outcome(expression_minimizer_weights, ref, r, float(delta))
        assert got == want, (r, delta)


def collapses(side):
    """Whether this payoff is tied, so that its levels are not its outcomes."""
    return side._edges is not None


def assert_feasible(pmf, side, delta, value, r, q):
    """A collapsed side's lower bound ``value`` at ``delta``, with support
    size ``r`` and minimizer ``q`` in original order: ``q`` sums to 1 within
    n * 1e-15 and passes ``bench/check.py``'s minimizer check, and ``value``
    is within its tolerance of the closed-form dual at support size ``r``."""
    p, f = pmf.weights, side.values
    tol = check.value_tol(f)
    assert abs(math.fsum(q.tolist()) - 1.0) <= q.size * 1e-15, delta
    check.check_minimizer(p, f, "chi2", delta, value, q, tol)
    check.check_gap(value, check.dual_lower_bound(p, f, "chi2", delta, r), tol, "lower bound")


def assert_level_masses(sp):
    """Each level mass of :func:`payoff_levels` is within the summation
    error bound, gamma_L times the sum, of its run's exact sum."""
    ends, masses = payoff_levels(sp)
    lengths = np.diff(ends, prepend=-1)
    weights = sp.p_sorted.tolist()
    exact = [math.fsum(weights[a : b + 1]) for a, b in zip(ends - lengths + 1, ends)]
    gamma = lengths * 2.0**-53 / (1.0 - lengths * 2.0**-53)
    assert (np.abs(masses - exact) <= gamma * np.array(exact)).all()


def assert_levels_match(pmf, obj):
    """A collapsed side: the outcome arrays keep the expression form's bytes,
    the library's run edges, level tails, level statistics and radii (the
    suffix maximum of the raw ones) are those of the levels that
    ``crosscheck`` finds on its own, and each bound passes
    :func:`assert_feasible`."""
    sp, _ = assert_sorted_matches(pmf, obj)
    stats = with_prefix_stats(sp)
    assert_level_masses(sp)
    got = outcome(lambda: CriticalDeltas(pmf, obj).finite)
    want = outcome(lambda: suffix_max(expression_critical_radii(stats)))
    assert got == want
    if isinstance(want, tuple):
        return
    cd = CriticalDeltas(pmf, obj)
    for name in ("edges", "tails", "prefix_mass", "gap", "prefix_var"):
        assert getattr(cd, name).tobytes() == getattr(stats, name).tobytes(), name
    for delta in map(float, radii_of(cd.finite)):
        value, r, _ = cd.value(delta)
        q = np.empty(cd.n)
        q[cd.perm] = chi2_minimizer(cd, r, delta).weights
        assert_feasible(pmf, obj, delta, value, r, q)


def radii_of(finite):
    """The radii at which a chi-squared side is probed: five fixed ones and
    every few of its critical radii."""
    return [0.0, 1e-3, 0.3, 5.0, 1e6, *finite[:: max(1, finite.size // 4)]]


def check_draw(rng, kind, n):
    pmf, obj = draw(rng, kind, n)
    for side in (obj, db.Objective(-obj.values)):
        if kind == "zero_weight":
            assert_sorted_matches(pmf, side)
        elif collapses(side):
            assert_levels_match(pmf, side)
        else:
            assert_side_matches(pmf, side)


def expression_result(ref, family, finite, delta):
    """A result by the sorted-then-scattered path: the expression weights
    scattered through the order into a new array, then validated as a Pmf."""
    if family == "tv":
        r, q = expression_tv_weights(ref, delta)
    else:
        above = (finite > delta).nonzero()[0]
        r = ref.plateau + 1 + int(above[-1]) if above.size else ref.plateau
        q = expression_minimizer_weights(ref, r, delta)
    out = np.empty(ref.n)
    out[ref.perm] = q
    return r, db.Pmf(out)


def result_outcome(fn):
    """Support size and minimizer bytes, or the exception as in :func:`outcome`."""
    try:
        r, minimizer = fn()
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return r, minimizer.weights.tobytes()


def assert_results_match(pmf, obj, family):
    prepared = db.Problem(pmf, obj, family)
    for solve, side in ((prepared.lower, obj), (prepared.upper, db.Objective(-obj.values))):
        if family == "chi2" and collapses(side):
            upper = side is not obj
            for delta in map(float, radii_of(prepared._side(upper).finite)):
                res = solve(delta)
                value = -res.value if upper else res.value
                assert_feasible(pmf, side, delta, value, res.active_index, res.minimizer.weights)
            continue
        ref = expression_sorted(pmf, side)
        finite = None
        if family == "tv":
            deltas = [0.0, 1e-3, 0.3, 1.0, 5.0, *ref.tails[:: max(1, ref.n // 4)]]
        else:
            try:
                finite = expression_critical_radii(ref)
            except DivballError:
                continue  # the radii fail alike: test_sizes_up_to_2000
            deltas = radii_of(finite)
        for delta in map(float, deltas):
            got = result_outcome(lambda: (lambda res: (res.active_index, res.minimizer))(solve(delta)))
            want = result_outcome(lambda: expression_result(ref, family, finite, delta))
            assert got == want, (family, delta)


def check_results(rng, kind, n):
    pmf, obj = draw(rng, kind, n)
    assert_results_match(pmf, obj, "tv")
    if kind != "zero_weight":
        assert_results_match(pmf, obj, "chi2")


@pytest.mark.parametrize("kind", KINDS)
def test_sizes_up_to_2000(kind):
    # Every kind at each n up to 64, then the kinds take turns, so that every
    # n up to 2000 is drawn once.
    k = KINDS.index(kind)
    rng = np.random.default_rng([17, k])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in range(1, 2001):
            if n <= 64 or n % len(KINDS) == k:
                check_draw(rng, kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_large_side(kind):
    rng = np.random.default_rng([18, KINDS.index(kind)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        check_draw(rng, kind, 100_000)


def test_inverted_radii_fail_alike():
    # The skewed panel's item 313 of the many_small benchmark deck: on the
    # negated side the last gap squared underflows, so the radii increase.
    p = [float.fromhex(x) for x in ("0x1p+0", "0x1.56e1fc2f8f359p-997", "0x1.56e1fc2f8f359p-997")]
    f = [float.fromhex(x) for x in ("-0x1.5798ee2308c3ap-27", "0x1.5798ee2308c3ap-27", "0x1.5798ee2308c3ap-28")]
    pmf, obj = db.validate(p, f, "chi2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(db.DivballError, match="non-increasing"):
            CriticalDeltas(pmf, obj, negated=True)
        assert_side_matches(pmf, db.Objective(-obj.values))


@pytest.mark.parametrize("kind", KINDS)
def test_result_minimizers_up_to_2000(kind):
    # The draws of test_sizes_up_to_2000, one Problem per draw.
    k = KINDS.index(kind)
    rng = np.random.default_rng([17, k])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in range(1, 2001):
            if n <= 64 or n % len(KINDS) == k:
                check_results(rng, kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_result_minimizers_large(kind):
    rng = np.random.default_rng([18, KINDS.index(kind)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        check_results(rng, kind, 100_000)


# The reference as judge of the collapsed sides, on the tied draws of
# test_sizes_up_to_2000 that it can afford: every n up to 64 and one n from
# 250 to 255 per kind.  A collapsed side rounds differently from the
# element path, so these two properties fail on a few bounds; each test
# reports how many.
TIED_KINDS = ("ties", "signed_zero", "constant")
Judged = namedtuple("Judged", "n delta r exact_r element_r distance element_distance")


def element_value(ref, finite, delta):
    """The element path's value and support size, or ``None`` where it raises."""
    if finite is None:
        return None
    try:
        return expression_value(ref, finite, delta)
    except DivballError:
        return None


def element_radii(ref):
    """The element path's critical radii, or ``None`` where its checks raise."""
    try:
        return expression_critical_radii(ref)
    except DivballError:
        return None


def judge_side(pmf, side):
    """Each bound of a collapsed side at :func:`radii_of` its radii, with the
    exact support size, the element path's, and the distances of the two
    values from the exact one in ulps of the payoff span."""
    cd = CriticalDeltas(pmf, side)
    ref = expression_sorted(pmf, side)
    finite = element_radii(ref)
    ulp = np.spacing(float(side.values.max()) - float(side.values.min()))
    for delta in map(float, radii_of(cd.finite)):
        value, r, _ = cd.value(delta)
        exact = reference_bound(pmf, side, "chi2", delta, minimizer=False)
        element = element_value(ref, finite, delta)
        distance = float(abs(mpmath.mpf(value) - exact.value) / ulp)
        element_r, was = None, None
        if element is not None:
            element_r = element[1]
            was = float(abs(mpmath.mpf(element[0]) - exact.value) / ulp)
        yield Judged(side.n, delta, r, exact.r, element_r, distance, was)


@functools.cache
def judged_bounds():
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for kind in TIED_KINDS:
            k = KINDS.index(kind)
            rng = np.random.default_rng([17, k])
            for n in range(1, 256):
                if n <= 64 or n % len(KINDS) == k:
                    pmf, obj = draw(rng, kind, n)
                    if n <= 64 or n >= 250:
                        for side in (obj, db.Objective(-obj.values)):
                            if collapses(side):
                                rows.extend(judge_side(pmf, side))
    return rows


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at a float critical radius the support size can differ from the exact one")
def test_collapsed_support_sizes_are_the_exact_ones():
    rows = judged_bounds()
    wrong = [row for row in rows if row.r != row.exact_r]
    element = sum(row.element_r is not None and row.element_r != row.exact_r for row in rows)
    assert not wrong, f"{len(wrong)} of {len(rows)} differ (element path: {element}), e.g. {wrong[0]}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a collapsed side rounds differently, and some values are farther from the exact one")
def test_collapsed_values_are_no_farther_than_the_element_paths():
    rows = [row for row in judged_bounds() if row.element_distance is not None]
    farther = [row for row in rows if row.distance > row.element_distance]
    worst = max((row.distance - row.element_distance for row in farther), default=0.0)
    assert not farther, f"{len(farther)} of {len(rows)} farther, by up to {worst:.3g} ulps of the span"
