"""The in-place prefix pass, critical radii and minimizer reproduce the
whole-array expression form in ``crosscheck`` byte for byte, and so do the
minimizers that ``Problem`` returns, built in original order."""

import warnings

import numpy as np
import pytest

import divball as db
from divball import chi2
from divball.chi2 import CriticalDeltas
from divball.core import SortedProblem
from divball.errors import DivballError
from crosscheck import (
    expression_critical_radii,
    expression_minimizer_weights,
    expression_sorted,
    expression_tv_weights,
    with_prefix_stats,
)

KINDS = ("random", "skewed", "ties", "signed_zero", "constant", "zero_weight")
FIELDS = ("perm", "p_sorted", "f_sorted", "prefix_mass", "prefix_mean", "prefix_var", "gap", "tails")


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
    """Bytes of the result, or the exception with an assert counted as the
    library's ``DivballError`` carrying the same condition."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except AssertionError as exc:
        return ("DivballError", str(exc))
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def padded_head(cd, r, delta):
    """The library's sorted minimizer weights before normalization."""
    q = np.zeros(cd.n)
    q[:r] = chi2._minimizer_head(cd, r, delta)
    return q


def same_failure(got, want):
    # The expression form's unlabelled monotonicity assert has no message.
    return got == want or (isinstance(want, tuple) and want[1] == "" and got[0] == want[0])


def assert_side_matches(pmf, obj, radii):
    sp = SortedProblem(pmf, obj)
    ref = expression_sorted(pmf, obj)
    stats = with_prefix_stats(sp)
    for name in FIELDS:
        assert getattr(stats, name).tobytes() == getattr(ref, name).tobytes(), name
    assert sp.plateau == ref.plateau
    if not radii:
        return
    got = outcome(lambda: CriticalDeltas(pmf, obj).finite)
    want = outcome(expression_critical_radii, ref)
    assert same_failure(got, want)
    if isinstance(want, tuple):
        return
    cd = CriticalDeltas(pmf, obj)
    deltas = [0.0, 1e-3, 0.3, 5.0, 1e6, *cd.finite[:: max(1, cd.finite.size // 4)]]
    for delta in deltas:
        r = cd.value(float(delta))[1]
        got = outcome(padded_head, cd, r, float(delta))
        want = outcome(expression_minimizer_weights, ref, r, float(delta))
        assert same_failure(got, want), (r, delta)


def check_draw(rng, kind, n):
    pmf, obj = draw(rng, kind, n)
    radii = kind != "zero_weight"
    assert_side_matches(pmf, obj, radii)
    assert_side_matches(pmf, obj.negated(), radii)


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
    except AssertionError as exc:
        return ("DivballError", str(exc))
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return r, minimizer.weights.tobytes()


def assert_results_match(pmf, obj, family):
    prepared = db.Problem(pmf, obj, family)
    for solve, side in ((prepared.lower, obj), (prepared.upper, obj.negated())):
        ref = expression_sorted(pmf, side)
        finite = None
        if family == "tv":
            deltas = [0.0, 1e-3, 0.3, 1.0, 5.0, *ref.tails[:: max(1, ref.n // 4)]]
        else:
            try:
                finite = expression_critical_radii(ref)
            except (AssertionError, DivballError):
                continue  # the radii fail alike: test_sizes_up_to_2000
            deltas = [0.0, 1e-3, 0.3, 5.0, 1e6, *finite[:: max(1, finite.size // 4)]]
        for delta in map(float, deltas):
            got = result_outcome(lambda: (lambda res: (res.active_index, res.minimizer))(solve(delta)))
            want = result_outcome(lambda: expression_result(ref, family, finite, delta))
            assert same_failure(got, want), (family, delta)


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
            CriticalDeltas(pmf, obj.negated())
        assert_side_matches(pmf, obj.negated(), True)


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
