"""Unit tests for the core types, validation, and prefix preprocessing."""

import ast
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divball as db
from divball import core
from divball.core import SortedProblem, suffix_masses
from divball.oracle import _composition_blocks, naive_divergence, naive_expectation
from divball.tv import TVSide
from crosscheck import level_ends, with_prefix_stats
from conftest import random_objective, random_pmf


class TestValidate:
    def test_ok(self):
        p, f = db.validate([0.5, 0.5], [0, 1], "tv")
        assert isinstance(p, db.Pmf) and isinstance(f, db.Objective)
        assert p.n == f.n == 2

    def test_sum_not_one(self):
        with pytest.raises(db.SumNotOneError):
            db.validate([0.5, 0.6], [0, 1], "tv")

    def test_zero_mass_ok_for_tv_fatal_for_chi2(self):
        db.validate([0, 1], [0, 1], "tv")
        with pytest.raises(db.ZeroMassForbiddenError):
            db.validate([0, 1], [0, 1], "chi2")

    def test_length_mismatch(self):
        with pytest.raises(db.LengthMismatchError):
            db.validate([0.5, 0.5], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(db.EmptySupportError):
            db.validate([], [])

    def test_negative_weight(self):
        with pytest.raises(db.NegativeWeightError):
            db.validate([-0.1, 1.1], [0, 1])

    def test_non_finite(self):
        with pytest.raises(db.NonFiniteError):
            db.validate([float("nan"), 1.0], [0, 1])
        with pytest.raises(db.NonFiniteError):
            db.validate([0.5, 0.5], [0, float("inf")])

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: db.Pmf([10**400, 1]), "weights"),
            (lambda: db.Pmf([0.5, -(10**400)]), "weights"),
            (lambda: db.Objective([10**400, 1.0]), "objective values"),
            (lambda: db.validate([0.5, 0.5], [10**400, 1.0]), "objective values"),
            (lambda: db.validate([10**400, 0.5], [0.0, 1.0], "chi2"), "weights"),
        ],
        ids=["pmf", "pmf-negative", "objective", "validate-payoff", "validate-weight"],
    )
    def test_an_integer_past_the_float_range_is_non_finite(self, build, what):
        # float() of such an integer raises OverflowError; it is refused as
        # the infinity it would be.
        message = f"^{what} contains a number past the float range$"
        with pytest.raises(db.NonFiniteError, match=message):
            build()

    def test_renormalizes_within_tolerance(self):
        p, _ = db.validate([0.5, 0.5 + 4e-10], [0, 1])
        assert abs(p.weights.sum() - 1.0) < 1e-15

    def test_weights_immutable(self):
        p, _ = db.validate([0.5, 0.5], [0, 1])
        with pytest.raises(ValueError):
            p.weights[0] = 0.9

    def test_objective_owns_its_values(self):
        # The caller's float64 array is neither frozen nor aliased.
        f = np.array([0.0, 1.0, 2.0])
        _, obj = db.validate([0.2, 0.3, 0.5], f)
        direct = db.Objective(f)
        assert obj.values is not f and direct.values is not f
        assert f.flags.writeable
        f[0] = 5.0
        assert obj.values[0] == direct.values[0] == 0.0
        for values in (obj.values, direct.values, obj._negation()[1]):
            with pytest.raises(ValueError):
                values[0] = 9.0


class TestConstructorFaults:
    def test_sorted_side_length_mismatch(self):
        with pytest.raises(db.LengthMismatchError, match="2 weights vs 3 objective values"):
            SortedProblem(db.Pmf([0.5, 0.5]), db.Objective([0.0, 1.0, 2.0]))

    def test_objective_must_be_one_dimensional(self):
        with pytest.raises(db.DivballError, match=r"one-dimensional, got shape \(2, 2\)"):
            db.Objective([[0.0, 1.0], [2.0, 3.0]])

    def test_unknown_branch_tag(self):
        with pytest.raises(db.DivballError, match="unknown branch tag 'bogus'"):
            db.BoundResult(0.0, db.Pmf([1.0]), 1, "bogus")


class TestPmf:
    def test_labels_ok(self):
        p = db.Pmf(np.array([0.5, 0.5]), labels=("a", "b"))
        assert p.labels == ("a", "b")

    def test_labels_must_be_distinct(self):
        with pytest.raises(db.DivballError):
            db.Pmf(np.array([0.5, 0.5]), labels=("a", "a"))

    def test_labels_length(self):
        with pytest.raises(db.LengthMismatchError):
            db.Pmf(np.array([0.5, 0.5]), labels=("a",))

    def test_labels_given_as_one_string_are_refused(self):
        # Split into letters, "ab" would label two outcomes 'a' and 'b'.
        for make in (lambda: db.Pmf([0.5, 0.5], labels="ab"),
                     lambda: db.validate([0.5, 0.5], [0.0, 1.0], labels="ab")):
            with pytest.raises(db.DivballError, match="labels must be a sequence of strings"):
                make()
        assert db.Pmf([0.5, 0.5], labels=["ab", "c"]).labels == ("ab", "c")

    def test_zero_weights_survive_renormalization(self):
        p = db.Pmf(np.array([0.0, 1.0]))
        assert p.weights[0] == 0.0


# One vector per weight fault, each refused by ``Pmf`` with its own class.
BAD_WEIGHTS = {
    "nan": [np.nan, 1.0],
    "negative": [-0.25, 1.25],
    "empty": [],
    "mass": [0.5, 0.5 + 1e-6],
}

EXACT_SCRIPT = """
from math import nan
import numpy as np
import divball as db
for weights in %r:
    for make in (db.Pmf, lambda w: db.Pmf._exact(np.array(w, dtype=float))):
        try:
            make(weights)
            print("accepted")
        except db.DivballError as exc:
            print(type(exc).__name__, exc)
"""


def refusal(make, weights):
    with pytest.raises(db.DivballError) as info:
        make(weights)
    return type(info.value), str(info.value)


class TestExactPmf:
    @pytest.mark.parametrize("weights", BAD_WEIGHTS.values(), ids=list(BAD_WEIGHTS))
    def test_exact_refuses_as_pmf_does(self, weights):
        want = refusal(db.Pmf, weights)
        assert want[0] is not db.DivballError
        assert refusal(db.Pmf._exact, np.array(weights, dtype=float)) == want

    def test_exact_refuses_as_pmf_does_under_optimized_interpreter(self):
        script = EXACT_SCRIPT % (list(BAD_WEIGHTS.values()),)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(db.__file__).resolve().parents[1])),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 * len(BAD_WEIGHTS) and "accepted" not in lines
        assert lines[0::2] == lines[1::2]

    def test_exact_keeps_grid_multiples_whose_sum_is_not_one(self):
        # At n = 4, resolution 250, 221,604 of the 2,667,126 grid points
        # have a float sum other than 1.0; dividing by it would move them.
        resolution, off, moved = 250, 0, 0
        for block in _composition_blocks(4, resolution):
            rows = block / resolution
            rows = rows[np.add.reduce(rows, axis=1) != 1.0]
            off += len(rows)
            for w in rows[::97]:
                assert db.Pmf._exact(w).weights.tobytes() == w.tobytes()
                moved += db.Pmf(w).weights.tobytes() != w.tobytes()
        assert off == 221_604
        assert moved > 0

    def test_exact_owns_a_frozen_copy(self):
        w = np.array([0.25, 0.75])
        pmf = db.Pmf._exact(w)
        assert pmf.weights is not w and w.flags.writeable
        assert not pmf.weights.flags.writeable and pmf.labels is None


class TestBallSpec:
    """A ball is a family and a radius: the oracle takes both as the bounds do."""

    def test_negative_delta(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        for family in ("tv", "chi2"):
            with pytest.raises(db.NegativeDeltaError, match=r"^delta must be >= 0, got -0.1$"):
                db.oracle_lower_expectation(p, f, family, -0.1)

    def test_family_coercion(self):
        p, f = db.validate([0.5, 0.5], [0, 1], "chi2")
        by_name = db.oracle_lower_expectation(p, f, "chi2", 0.5, 20)
        by_member = db.oracle_lower_expectation(p, f, db.BallFamily.CHI2, 0.5, 20)
        assert by_name.grid_argmin.weights.tobytes() == by_member.grid_argmin.weights.tobytes()
        assert by_name.feasible_count == by_member.feasible_count < 21

    def test_non_finite_delta(self):
        # NaN is no radius, as for the bounds (the CLI says "must be finite").
        p, f = db.validate([0.5, 0.5], [0, 1])
        for family in ("tv", "chi2"):
            with pytest.raises(db.NegativeDeltaError, match=r"^delta must be >= 0, got nan$"):
                db.oracle_lower_expectation(p, f, family, float("nan"))
            with pytest.raises(db.NegativeDeltaError, match=r"^delta must be >= 0, got nan$"):
                db.Problem(p, f, family).lower(float("nan"))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: db.validate([0.5, 0.5], [0, 1], "kl"),
            lambda: db.oracle_lower_expectation(*db.validate([0.5, 0.5], [0, 1]), "kl", 0.1),
            lambda: db.Problem(*db.validate([0.5, 0.5], [0, 1]), "kl"),
            lambda: naive_divergence(db.Pmf([0.5, 0.5]), db.Pmf([0.5, 0.5]), "kl"),
        ],
        ids=["validate", "oracle", "Problem", "naive_divergence"],
    )
    def test_unknown_family_is_a_divball_error(self, make):
        with pytest.raises(db.DivballError) as info:
            make()
        assert type(info.value) is db.DivballError
        assert str(info.value) == "unknown ball family 'kl': expected 'tv' or 'chi2'"


class TestExpectation:
    def test_symmetric_average(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        assert db.expectation(p, f) == 0.5

    def test_point_mass(self):
        p, f = db.validate([1.0], [7.25])
        assert db.expectation(p, f) == 7.25

    def test_hand_sum(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        got = db.expectation(p, f)
        assert abs(got - 2.3) <= 1e-12
        # Independent accumulation must agree.
        assert abs(got - naive_expectation(p, f)) <= 1e-12

    def test_length_mismatch(self):
        p, _ = db.validate([0.5, 0.5], [0, 1])
        _, f = db.validate([1.0], [3.0])
        with pytest.raises(db.LengthMismatchError):
            db.expectation(p, f)

    def test_constant_payoff_is_its_own_mean(self):
        # The weighted sum's rounding alone fell an ulp below the constant.
        p, f = db.validate(
            [0.08433549140854188, 0.6256359910228938, 0.04981171773129562, 0.24021679983726876],
            [2.0] * 4,
        )
        assert db.expectation(p, f) == 2.0

    def test_near_float_max_payoff_does_not_overflow(self):
        big = 1.7976931348623157e308
        p, f = db.validate([0.2, 0.4, 0.4], [big] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert db.expectation(p, f) == big
            assert db.expectation(p, db.Objective(-f.values)) == -big


def direct_prefix_stats(p_sorted, f_sorted):
    """Definitional prefix statistics (quadratic-time reference)."""
    n = len(p_sorted)
    mass = np.empty(n)
    mean = np.empty(n)
    var = np.empty(n)
    for k in range(1, n + 1):
        ps, fs = p_sorted[:k], f_sorted[:k]
        m = math.fsum(ps)
        mass[k - 1] = m
        if m > 0:
            mu = math.fsum(ps * fs) / m
            mean[k - 1] = mu
            var[k - 1] = math.fsum(ps * (fs - mu) ** 2) / m
        else:
            mean[k - 1] = 0.0
            var[k - 1] = 0.0
    return mass, mean, var


class TestSortAndPrefix:
    def test_two_point_example(self):
        p, f = db.validate([0.5, 0.5], [1, 0])
        sp = with_prefix_stats(SortedProblem(p, f))
        assert list(sp.perm) == [1, 0]
        assert list(sp.f_sorted) == [0, 1]
        np.testing.assert_allclose(sp.prefix_mass, [0.5, 1.0], atol=1e-15)
        np.testing.assert_allclose(sp.prefix_mean, [0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(sp.prefix_var, [0.0, 0.25], atol=1e-15)
        assert sp.plateau == 1

    def test_constant_objective(self):
        p, f = db.validate([1 / 3, 1 / 3, 1 / 3], [5, 5, 5])
        sp = with_prefix_stats(SortedProblem(p, f))
        assert sp.plateau == 3
        # One level, the whole payoff, with a variance of exactly zero.
        assert level_ends(sp).tolist() == [2]
        assert sp.prefix_var.tolist() == [0.0]

    def test_three_point_example(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        sp = with_prefix_stats(SortedProblem(p, f))
        np.testing.assert_allclose(sp.prefix_mass, [0.2, 0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(sp.prefix_mean, [1.0, 1.6, 2.3], atol=1e-12)
        np.testing.assert_allclose(sp.prefix_var, [0.0, 0.24, 0.61], atol=1e-12)
        assert sp.plateau == 1

    def test_sorted_and_total_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 33))
            p = random_pmf(rng, n)
            f = random_objective(rng, n)
            sp = with_prefix_stats(SortedProblem(p, f))
            assert np.all(np.diff(sp.f_sorted) >= 0)
            assert abs(sp.prefix_mass[-1] - 1.0) <= 1e-12
            if sp.plateau < n:
                assert sp.f_sorted[sp.plateau] > sp.f_sorted[sp.plateau - 1]

    def test_stable_tie_break(self):
        p, f = db.validate([0.1, 0.2, 0.3, 0.4], [1, 0, 1, 0])
        sp = SortedProblem(p, f)
        assert list(sp.perm) == [1, 3, 0, 2]
        assert sp.plateau == 2

    def test_incremental_matches_direct_definition(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            p = random_pmf(rng, n)
            f = random_objective(rng, n, -10, 10)
            sp = with_prefix_stats(SortedProblem(p, f))
            mass, mean, var = direct_prefix_stats(sp.p_sorted, sp.f_sorted)
            tol = 1e-12 * (1.0 + float(np.max(f.values**2)))
            np.testing.assert_allclose(sp.prefix_mass, mass, atol=tol)
            np.testing.assert_allclose(sp.prefix_mean, mean, atol=tol)
            np.testing.assert_allclose(sp.prefix_var, var, atol=tol)

    def test_plateau_variance_is_exact_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ties = int(rng.integers(1, n + 1))
            f_vals = np.concatenate([np.full(ties, -2.0), rng.uniform(-1, 5, n - ties)])
            rng.shuffle(f_vals)
            p = random_pmf(rng, n)
            sp = with_prefix_stats(SortedProblem(p, db.Objective(f_vals)))
            # The bottom level is the plateau.
            assert level_ends(sp)[0] == sp.plateau - 1
            assert sp.prefix_var[0] == 0.0
            assert np.all(sp.prefix_var >= 0.0)

    def test_permutation_invariance_distinct_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 17))
            p = random_pmf(rng, n)
            f = db.Objective(rng.permutation(np.arange(n, dtype=float)))
            sp = with_prefix_stats(SortedProblem(p, f))
            pi = rng.permutation(n)
            sp2 = with_prefix_stats(SortedProblem(
                db.Pmf(p.weights[pi]), db.Objective(f.values[pi])
            ))
            # Re-normalization inside Pmf sums in permuted order, so agreement
            # is to the ulp rather than bitwise.
            np.testing.assert_allclose(sp.prefix_mass, sp2.prefix_mass, rtol=0, atol=1e-14)
            np.testing.assert_allclose(sp.prefix_mean, sp2.prefix_mean, rtol=0, atol=1e-13)
            np.testing.assert_allclose(sp.prefix_var, sp2.prefix_var, rtol=0, atol=1e-13)
            assert sp.plateau == sp2.plateau

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False, exclude_min=True),
                st.floats(-100.0, 100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_welford_property(self, pairs):
        # A weight that normalizing rounds to zero is a zero weight, which no
        # prefix pass reads.
        raw_w = np.array([w for w, _ in pairs])
        assume(db.Pmf(raw_w / raw_w.sum()).weights.all())
        assert_welford_matches_direct(pairs)

    @pytest.mark.xfail(strict=True, reason="known defect: a subnormal weight next to a "
                       "unit one puts prefix_var[1] 2.66e-10 from the direct 2.00e-10")
    def test_welford_subnormal_weight_draw(self):
        # The unit weight's payoff, 0.5, differs from the subnormal weight's,
        # so the prefix of the first two sorted outcomes ends a level (tied,
        # the two would share one level and that prefix would not be formed).
        assert_welford_matches_direct(
            [(5e-324, 0.0), (1.0, 0.5), (2.2250738585e-313, -3.0)]
        )


def assert_welford_matches_direct(pairs):
    """The running prefix variance of positive-weight (weight, payoff)
    ``pairs``, one per payoff level, matches the direct definition at the
    level's last outcome within 1e-12 (1 + max f**2) and is non-negative."""
    raw_w = np.array([w for w, _ in pairs])
    p = db.Pmf(raw_w / raw_w.sum())
    f = db.Objective(np.array([x for _, x in pairs]))
    sp = with_prefix_stats(SortedProblem(p, f))
    mass, mean, var = direct_prefix_stats(sp.p_sorted, sp.f_sorted)
    tol = 1e-12 * (1.0 + float(np.max(f.values**2)))
    np.testing.assert_allclose(sp.prefix_var, var[level_ends(sp)], atol=tol)
    assert np.all(sp.prefix_var >= 0.0)


def payoff_case(rng, n, kind, scale):
    if kind == "continuous":
        f = rng.uniform(-1.0, 1.0, n)
    elif kind == "few-level":
        f = rng.integers(-2, 3, n) / 2.0
    elif kind == "constant":
        f = np.full(n, rng.uniform(-1.0, 1.0))
    elif kind == "presorted":
        f = np.sort(np.round(rng.uniform(-1.0, 1.0, n), 2))
    elif kind == "reversed":
        f = np.sort(np.round(rng.uniform(-1.0, 1.0, n), 2))[::-1]
    elif kind == "signed-zero":  # runs of 0.0 and -0.0 among a few other values
        f = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], n)
    else:  # near ties: values that differ only in their lowest bits
        f = near_ties(rng, n)
    return f * scale


def near_ties(rng, n):
    """Values a packed sort key cannot tell apart by its kept bits alone:
    ``1 + k * 2**-52`` and its negation (k < n, so every such value shares
    its kept bits with the others of its sign), mixed with scattered
    ``nextafter`` pairs of uniform draws."""
    ulps = rng.integers(0, n, n) * 2.0**-52
    f = np.where(rng.random(n) < 0.5, 1.0 + ulps, -1.0 - ulps)
    pairs = rng.random(n) < 0.5
    base = rng.uniform(-1.0, 1.0, n)
    base[1:] = np.where(rng.random(n - 1) < 0.5, np.nextafter(base[:-1], 2.0), base[1:])
    f[pairs] = base[pairs]
    return f


def colliding(rng, n):
    """``1 + k * 2**-52`` for each ``k < n``, shuffled: distinct values whose
    packed keys share every kept bit, so the whole payoff is sorted again."""
    return 1.0 + rng.permutation(n) * 2.0**-52


# Sizes either side of the switch from one stable argsort to the packed-key sort.
BOUNDARY = [core._STABLE_SORT_MAX - 1, core._STABLE_SORT_MAX, core._STABLE_SORT_MAX + 1]
# Sizes either side of a step in the packed key's index width: 2**s values
# take s index bits and one more value takes s + 1.
SMALL_WIDTHS = [64, 65, 1024, 1025]
LARGE_WIDTHS = [2**16, 2**16 + 1, 2**17, 2**17 + 1]


class TestStableOrder:
    """The sort must be exactly numpy's stable argsort: every tie order and
    every signed zero feeds the minimizer's bytes."""

    KINDS = (
        "continuous", "few-level", "constant", "presorted", "reversed", "signed-zero", "near-tie",
    )

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_stable_argsort(self, kind):
        rng = np.random.default_rng(90 + self.KINDS.index(kind))
        sizes = [1, 2, 3, 4, 5, 8, 16, 17, *BOUNDARY, *SMALL_WIDTHS, 100, 1000, 5000]
        sizes += [int(x) for x in rng.integers(1, 5001, 8)]
        for n in sizes:
            for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
                values = payoff_case(rng, n, kind, scale)
                # At 1e300 the prefix variance overflows, a known payoff-scale
                # defect; this test reads only the order.
                with np.errstate(over="ignore"):
                    sp = SortedProblem(db.Pmf(np.full(n, 1.0 / n)), db.Objective(values))
                expected = np.argsort(values, kind="stable")
                assert sp.perm.dtype == expected.dtype
                assert sp.perm.tobytes() == expected.tobytes()
                assert sp.f_sorted.tobytes() == values[expected].tobytes()

    @pytest.mark.parametrize("n", LARGE_WIDTHS)
    def test_near_ties_either_side_of_an_index_width(self, n):
        rng = np.random.default_rng(n)
        for values in (near_ties(rng, n), rng.uniform(-1.0, 1.0, n), colliding(rng, n)):
            f = db.Objective(values)
            expected = np.argsort(values, kind="stable")
            assert f._perm.tobytes() == expected.tobytes()
            assert f._ordered.tobytes() == values[expected].tobytes()

    def test_near_ties_past_the_packed_repair(self):
        # Above 2**21 values an index takes 22 bits: each 1 +- k * 2**-52
        # shares its sign's kept bits, and the one repaired slice, sorted
        # again by a stable argsort of its values, spans almost every value.
        n = 2**21 + 1
        values = near_ties(np.random.default_rng(21), n)
        f = db.Objective(values)
        expected = np.argsort(values, kind="stable")
        assert f._perm.tobytes() == expected.tobytes()
        assert f._ordered.tobytes() == values[expected].tobytes()

    def test_signed_zero_run_keeps_each_sign(self):
        values = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0])
        sp = SortedProblem(db.Pmf(np.full(7, 1.0 / 7)), db.Objective(values))
        assert list(sp.perm) == [5, 0, 1, 3, 4, 6, 2]
        assert list(np.signbit(sp.f_sorted)) == [True, False, True, True, False, True, False]


class TestNegatedOrder:
    """An upper side's order, ``Objective._negation``, is derived from its
    payoff's in O(n), tied or not, at every size: it must be exactly the
    stable argsort of the negated values, tie order and signed zeros
    included."""

    KINDS = TestStableOrder.KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_stable_argsort_of_negation(self, kind):
        rng = np.random.default_rng(190 + self.KINDS.index(kind))
        sizes = [1, 2, 3, 4, 5, 8, 16, 17, *BOUNDARY, *SMALL_WIDTHS, 100, 1000, 5000]
        sizes += [int(x) for x in rng.integers(1, 5001, 8)]
        for n in sizes:
            for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
                values = payoff_case(rng, n, kind, scale)
                p, f = db.Pmf(rng.dirichlet(np.ones(n))), db.Objective(values)
                # At 1e300 the prefix variance overflows, a known payoff-scale
                # defect; this test reads only the order.
                with np.errstate(over="ignore"):
                    sp = SortedProblem(p, f, negated=True)
                expected = np.argsort(-values, kind="stable")
                assert sp.perm.dtype == expected.dtype
                assert sp.perm.tobytes() == expected.tobytes()
                assert sp.f_sorted.tobytes() == (-values)[expected].tobytes()
                assert sp.p_sorted.tobytes() == p.weights[expected].tobytes()

    @pytest.mark.parametrize("n", LARGE_WIDTHS)
    def test_near_ties_either_side_of_an_index_width(self, n):
        rng = np.random.default_rng(n + 1)
        for values in (near_ties(rng, n), rng.uniform(-1.0, 1.0, n), colliding(rng, n)):
            perm, ordered, _ = db.Objective(values)._negation()
            expected = np.argsort(-values, kind="stable")
            assert perm.tobytes() == expected.tobytes()
            assert ordered.tobytes() == (-values)[expected].tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_double_negation_gives_the_source_order(self, kind):
        rng = np.random.default_rng(290 + self.KINDS.index(kind))
        for n in (1, 2, 7, 64, 999):
            values = payoff_case(rng, n, kind, 1.0)
            # The negation of a freshly sorted negated payoff.
            p, f = db.Pmf(np.full(n, 1.0 / n)), db.Objective(values)
            got, want = SortedProblem(p, db.Objective(-values), negated=True), SortedProblem(p, f)
            assert got.perm.tobytes() == want.perm.tobytes()
            assert got.f_sorted.tobytes() == want.f_sorted.tobytes()

    def test_signed_zero_run_keeps_each_sign(self):
        values = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0])
        f = db.Objective(values)
        sp = SortedProblem(db.Pmf(np.full(7, 1.0 / 7)), f, negated=True)
        assert list(sp.perm) == [2, 0, 1, 3, 4, 6, 5]
        assert list(np.signbit(sp.f_sorted)) == [True, True, False, False, True, False, False]

    def test_untied_negation_reuses_the_source_order(self):
        values = np.random.default_rng(3).uniform(-1.0, 1.0, 50)
        p, f = db.Pmf(np.full(50, 0.02)), db.Objective(values)
        lower, upper = SortedProblem(p, f), SortedProblem(p, f, negated=True)
        assert np.shares_memory(lower.perm, upper.perm)
        assert not lower.perm.flags.writeable and not upper.perm.flags.writeable

    def test_order_is_computed_once(self, monkeypatch):
        # Each payoff's order is computed when it is built and read by every
        # SortedProblem: ``_stable_order`` runs once, for ``f``, and each
        # negated side, small and tied as here, derives its order from it.
        calls = []
        original = core._stable_order
        monkeypatch.setattr(core, "_stable_order", lambda v: calls.append(1) or original(v))
        p, f = db.validate([0.2, 0.5, 0.3], [1.0, 0.0, 1.0])
        for negated in (True, False, True, False, True):
            sp = SortedProblem(p, f, negated)
            assert (sp.perm is f._perm) == (not negated)
            assert list(sp.perm) == ([0, 2, 1] if negated else [1, 0, 2])
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["tv", "chi2"])
    @pytest.mark.parametrize("values", [[1.0, 0.0, 1.0, -0.0], [0.5, -2.0, 3.0, 1.0]])
    def test_payoff_is_sorted_when_it_is_built(self, monkeypatch, family, values):
        p, f = db.validate([0.1, 0.2, 0.3, 0.4], values, family)

        def unexpected(values):
            raise AssertionError("sorted after the payoff was built")

        monkeypatch.setattr(core, "_stable_order", unexpected)
        problem = db.Problem(p, f, family)
        problem.lower(0.1)
        problem.upper(0.1)
        SortedProblem(p, f, negated=True)

    def test_order_arrays_are_read_only(self):
        large = np.linspace(-1.0, 1.0, 2 * core._STABLE_SORT_MAX)
        cases = ([1.0, 0.0, 1.0, -0.0], [0.5, -2.0, 3.0, 1.0], large, np.round(large))
        for values in cases:
            f = db.Objective(values)
            for arrays in ((f.values, f._perm, f._ordered, f._edges), f._negation()):
                for arr in arrays:
                    assert arr is None or not arr.flags.writeable

    def test_no_module_assigns_through_dict(self):
        # Every attribute is set by a constructor, never by a later write
        # into an instance's ``__dict__``.
        found = []
        for path in sorted(Path(core.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    owner = node.value
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = node.func.value if node.func.attr in _DICT_WRITES else None
                else:
                    continue
                if isinstance(owner, ast.Attribute) and owner.attr == "__dict__":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear"}


class TestRunEdges:
    """``_edges`` is each payoff's one record of its ties: ``0``, every sorted
    position whose value differs from the one before, then ``n``, or
    ``None`` untied; read-only, and the sorted side's plateau is ``edges[1]``."""

    @pytest.mark.parametrize("kind", TestStableOrder.KINDS)
    def test_edges_are_the_runs_of_the_sorted_values(self, kind):
        rng = np.random.default_rng(390 + TestStableOrder.KINDS.index(kind))
        for n in (*BOUNDARY, *SMALL_WIDTHS, *LARGE_WIDTHS):
            f = db.Objective(payoff_case(rng, n, kind, 1.0))
            p = db.Pmf(np.full(n, 1.0 / n))
            for negated in (False, True):
                sp = SortedProblem(p, f, negated)
                ordered, edges, plateau = sp.f_sorted, sp.edges, sp.plateau
                starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
                if starts.size == n - 1:
                    assert edges is None
                    assert plateau == 1
                    continue
                assert edges.tobytes() == np.concatenate(([0], starts, [n])).tobytes()
                assert not edges.flags.writeable
                assert plateau == edges[1]


class TestTieIndependence:
    def test_permuting_tied_outcomes_keeps_downstream_values(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            p = random_pmf(rng, n, floor=0.02)
            values = np.round(rng.uniform(-1, 1, n), 1)  # coarse grid forces ties
            tie_value = values[int(rng.integers(0, n))]
            group = np.flatnonzero(values == tie_value)
            if group.size < 2:
                continue
            pi = np.arange(n)
            pi[group] = rng.permutation(group)
            p2 = db.Pmf(p.weights[pi])
            f = db.Objective(values)
            f2 = db.Objective(values[pi])
            delta = float(rng.uniform(0, 2))
            a = db.tv_lower_expectation(p, f, min(delta, 1.2)).value
            b = db.tv_lower_expectation(p2, f2, min(delta, 1.2)).value
            assert abs(a - b) <= 1e-9 * (1 + abs(a))
            a = db.chi2_lower_expectation(p, f, delta).value
            b = db.chi2_lower_expectation(p2, f2, delta).value
            assert abs(a - b) <= 1e-9 * (1 + abs(a))


class TestSuffixMasses:
    def test_matches_fsum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            w = rng.uniform(0, 1, n)
            tails = suffix_masses(w)
            assert tails[-1] == 0.0
            for i in range(n):
                assert abs(tails[i] - math.fsum(w[i + 1 :])) <= 1e-15 * n


def prefix_tolerance(n):
    """Relative error allowed against exact prefix statistics of n outcomes.

    They are plain running sums of non-negative terms, whose rounding errors
    grow like sqrt(n) ulps in practice (n ulps at worst).  Mean errors are
    measured against the payoff's largest magnitude, since the mean is an
    offset below the current payoff; below the normal range no relative
    accuracy exists, so values under the smallest normal double are compared
    absolutely.
    """
    return 16.0 * math.sqrt(n) * np.finfo(float).eps


def exact_prefix_stats(p_sorted, f_sorted):
    """Prefix mass, mean, variance and tail mass of these doubles, computed
    in rational arithmetic and rounded once."""
    ps = [Fraction(x) for x in p_sorted.tolist()]
    fs = [Fraction(x) for x in f_sorted.tolist()]
    total = sum(ps, Fraction(0))
    mass = first = second = Fraction(0)
    rows = []
    for w, x in zip(ps, fs):
        mass += w
        first += w * x
        second += w * x * x
        mean = first / mass if mass else Fraction(0)
        var = second / mass - mean * mean if mass else Fraction(0)
        rows.append((mass, mean, var, total - mass))
    return [np.array([float(v) for v in column]) for column in zip(*rows)]


def assert_matches_exact(sp):
    """The outcome tails of TV side ``sp`` match rationals, and so do its
    prefix statistics and tails, one per payoff level, at each level's last
    outcome.  A side with a zero weight, which only TV reads, forms no
    prefix statistics."""
    mass, mean, var, tails = exact_prefix_stats(sp.p_sorted, sp.f_sorted)
    tol = prefix_tolerance(sp.n)
    pairs = [(sp.tails, tails)]
    if sp.p_sorted.all():
        stats = with_prefix_stats(sp)
        ends = level_ends(stats)
        pairs += [(stats.prefix_mass, mass[ends]), (stats.prefix_var, var[ends]), (stats.tails, tails[ends])]
        np.testing.assert_allclose(
            stats.prefix_mean, mean[ends], rtol=0, atol=tol * float(np.max(np.abs(sp.f_sorted)))
        )
    else:
        with pytest.raises(db.ZeroMassForbiddenError):
            with_prefix_stats(sp)
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=tol, atol=np.finfo(float).tiny)
        assert np.all(got[want == 0.0] == 0.0)


def exact_case(rng, kind):
    """A center and payoff at n <= 8 of the given kind and a random payoff scale."""
    n = int(rng.integers(1, 9))
    if kind == "skewed":
        w = np.maximum(rng.dirichlet(np.full(n, 0.05)), 1e-300)
    else:
        w = rng.dirichlet(np.ones(n))
    if kind == "zero_weights":
        w[rng.random(n) < 0.4] = 0.0
        w[int(rng.integers(0, n))] += 0.5
    scale = float(rng.choice([1e-8, 1.0, 1e8]))
    f = rng.uniform(-1, 1, n)
    if kind == "ties":
        f = np.round(f, 1)
    return db.Pmf(w / w.sum()), db.Objective(scale * f)


EXACT_KINDS = ("random", "skewed", "ties", "zero_weights")


class TestExactPrefixReference:
    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_small_prefixes_match_rationals(self, kind):
        rng = np.random.default_rng(EXACT_KINDS.index(kind))
        for _ in range(150):
            assert_matches_exact(TVSide(*exact_case(rng, kind)))

    def test_skewed_reproducer_matches_rationals(self):
        p, f = db.validate([1e-12, 1e-20, 1 - 1e-12 - 1e-20], [0, 0.5, 1], "chi2")
        assert_matches_exact(TVSide(p, f))

    @pytest.mark.parametrize("alpha", [1.0, 0.05])
    def test_large_prefixes_match_fsum(self, alpha):
        rng = np.random.default_rng(12)
        n = 100_000
        p = db.Pmf(np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-300))
        sp = with_prefix_stats(SortedProblem(p, random_objective(rng, n)))
        tol = prefix_tolerance(n)
        for k in [*rng.integers(0, n, 12), n - 1]:
            ps, fs = sp.p_sorted[: k + 1], sp.f_sorted[: k + 1]
            mass = math.fsum(ps)
            mean = math.fsum(ps * fs) / mass
            var = math.fsum(ps * (fs - mean) ** 2) / mass
            tail = math.fsum(sp.p_sorted[k + 1 :])
            assert abs(sp.prefix_mass[k] - mass) <= tol * mass
            assert abs(sp.prefix_mean[k] - mean) <= tol * float(np.max(np.abs(sp.f_sorted)))
            assert abs(sp.prefix_var[k] - var) <= tol * var
            assert abs(sp.tails[k] - tail) <= tol * tail
