"""Unit tests for the chi-squared ball solver and its special cases."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divball as db
from divball import chi2
from divball.chi2 import CriticalDeltas
from divball.core import _STABLE_SORT_MAX, SortedProblem, suffix_masses
from divball.oracle import naive_chi2_divergence
from crosscheck import TiedBottomError, WrongArityError, chi2_minimizer, chi2_three_point, chi2_two_point, critical_delta, expression_critical_radii, expression_sorted, level_ends, payoff_levels, reference_bound, suffix_max, with_prefix_stats
from conftest import random_objective, random_pmf


def chi2_problem(p, f):
    pmf, obj = db.validate(p, f, "chi2")
    return pmf, obj


def positive_instance(rng, n, floor=0.02, f_lo=-1.0, f_hi=1.0):
    return random_pmf(rng, n, floor=floor), random_objective(rng, n, f_lo, f_hi)


EXACT_KINDS = ("random", "skewed", "ties")


def exact_radius_case(rng, kind):
    """A positive center and payoff at n <= 8: Dirichlet(1) or Dirichlet(0.05)
    floored at 1e-300 centers, continuous or tied payoffs, scales 1e-8..1e8."""
    n = int(rng.integers(2, 9))
    alpha = 0.05 if kind == "skewed" else 1.0
    w = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-300)
    f = rng.uniform(-1.0, 1.0, n)
    if kind == "ties":
        f = np.round(f * 3) / 3
    return db.Pmf(w / w.sum()), db.Objective(float(rng.choice([1e-8, 1.0, 1e8])) * f)


def exact_critical_radii(p_sorted, f_sorted, ends):
    """(var_k / (f_k - mu_k)^2 + t_k) / m_k for the support that ends at each
    sorted position k of ``ends``, in rational arithmetic on these doubles."""
    ps = [Fraction(x) for x in p_sorted.tolist()]
    fs = [Fraction(x) for x in f_sorted.tolist()]
    total = sum(ps, Fraction(0))
    radii = []
    for k in map(int, ends):
        mass = sum(ps[: k + 1], Fraction(0))
        mean = sum((w * x for w, x in zip(ps[: k + 1], fs)), Fraction(0)) / mass
        var = sum((w * (x - mean) ** 2 for w, x in zip(ps[: k + 1], fs)), Fraction(0)) / mass
        gap = fs[k] - mean
        radii.append((var / (gap * gap) + total - mass) / mass)
    return radii


def relative_error(got, want):
    """|got - want| / want for a positive rational ``want``; inf unless finite."""
    if not math.isfinite(got):
        return math.inf
    return float(abs(Fraction(float(got)) - want) / want)


class TestChi2Divergence:
    def test_identity(self):
        p, _ = chi2_problem([0.2, 0.3, 0.5], [1, 2, 3])
        assert db.chi2_divergence(p, p) == 0.0

    def test_point_mass_against_uniform(self):
        q = db.Pmf(np.array([1.0, 0.0]))
        p = db.Pmf(np.array([0.5, 0.5]))
        got = db.chi2_divergence(q, p)
        assert abs(got - 1.0) <= 1e-15
        assert abs(got - naive_chi2_divergence(q, p)) <= 1e-15

    def test_hand_sum(self):
        q = db.Pmf(np.array([0.6, 0.4]))
        p = db.Pmf(np.array([0.5, 0.5]))
        got = db.chi2_divergence(q, p)
        assert abs(got - 0.04) <= 1e-15
        assert abs(got - naive_chi2_divergence(q, p)) <= 1e-15

    def test_zero_mass_forbidden(self):
        q = db.Pmf(np.array([0.5, 0.5]))
        p = db.Pmf(np.array([0.0, 1.0]))
        message = "chi-squared balls need a strictly positive center pmf"
        with pytest.raises(db.ZeroMassForbiddenError, match=message):
            db.chi2_divergence(q, p)

    def test_length_mismatch(self):
        with pytest.raises(db.LengthMismatchError):
            db.chi2_divergence(db.Pmf(np.array([1.0])), db.Pmf(np.array([0.5, 0.5])))


class TestCriticalDeltas:
    def test_uniform_three_point(self):
        pmf, obj = chi2_problem([1 / 3, 1 / 3, 1 / 3], [0, 1, 2])
        cd = CriticalDeltas(pmf, obj)
        assert cd.plateau == 1
        assert critical_delta(cd, 1) == math.inf
        assert abs(critical_delta(cd, 2) - 2.0) <= 1e-12
        assert abs(critical_delta(cd, 3) - 2.0 / 3.0) <= 1e-12

    def test_constant_objective_has_no_finite_deltas(self):
        pmf, obj = chi2_problem([0.25, 0.75], [3, 3])
        cd = CriticalDeltas(pmf, obj)
        assert cd.plateau == 2
        assert cd.finite.size == 0
        assert critical_delta(cd, 2) == math.inf

    @pytest.mark.parametrize(
        "r, delta, message",
        [
            (2, 1e-6, "radius 1e-06 is infeasible for the requested support"),
            (3, 100.0, "radius 100.0 exceeds the critical radius for support size 3"),
        ],
    )
    def test_weights_reject_a_radius_outside_the_support(self, r, delta, message):
        # Support 2 needs delta >= 0.5 (mass 0.75 times delta above tail 0.25);
        # support 3 holds up to its critical radius 0.44.
        pmf, obj = chi2_problem([0.5, 0.25, 0.25], [0, 1, 2])
        with pytest.raises(db.DivballError, match=message):
            CriticalDeltas(pmf, obj).weights(r, delta)

    def test_two_point_ratio(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        cd = CriticalDeltas(pmf, obj)
        assert abs(critical_delta(cd, 2) - 1.0) <= 1e-12
        pmf, obj = chi2_problem([0.2, 0.8], [1, 0])
        cd = CriticalDeltas(pmf, obj)
        # ratio p(x_2)/p(x_1) in objective-ascending order: 0.2 / 0.8
        assert abs(critical_delta(cd, 2) - 0.25) <= 1e-12

    def test_zero_mass_forbidden(self):
        # The side trusts its center; Problem refuses a zero weight when built.
        pmf, obj = db.validate([0.0, 1.0], [0, 1], "tv")
        with pytest.raises(db.ZeroMassForbiddenError) as info:
            db.Problem(pmf, obj, "chi2")
        assert type(info.value) is db.ZeroMassForbiddenError
        assert str(info.value) == "chi-squared balls need a strictly positive center pmf"

    @pytest.mark.parametrize(
        "payoff, message",
        [
            ("[0, 1e-300, 2e-300]", "non-plateau prefix is constant"),
            ("[0, 1e200, 2e200]", "critical radii must be positive"),
        ],
    )
    def test_numeric_breakdown_raises_under_optimized_interpreter(self, payoff, message):
        # A plain or ``-O`` interpreter must raise, not return the plateau
        # value 0.0 with the check stripped.  The payoff scale itself is
        # still out of range for the closed form.
        script = (
            "import divball as db\n"
            f"p, f = db.validate([1/3, 1/3, 1/3], {payoff}, 'chi2')\n"
            "try:\n"
            "    db.chi2_lower_expectation(p, f, 0.5)\n"
            "except db.DivballError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(db.__file__).resolve().parents[1])
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-W", "ignore", "-c", script],
                capture_output=True,
                text=True,
                timeout=60,
                env=dict(os.environ, PYTHONPATH=src),
            )
            assert (proc.returncode, proc.stdout) == (0, f"DivballError {message}\n"), proc.stderr

    def test_ordering_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            pmf, obj = positive_instance(rng, n)
            cd = CriticalDeltas(pmf, obj)
            finite = cd.finite
            if finite.size:
                assert finite[-1] > 0.0
                for a, b in zip(finite, finite[1:]):
                    assert b <= a + 1e-12 * (1.0 + abs(a))

    def test_matches_per_element_formula(self):
        # Reference: the closed form evaluated one support of levels at a time.
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            pmf = random_pmf(rng, n, floor=0.01)
            obj = db.Objective(np.round(rng.uniform(-1.0, 1.0, n) * 3) / 3)
            cd = CriticalDeltas(pmf, obj)
            # One tail per level, after the level masses found from the sorted payoff.
            tails = suffix_masses(payoff_levels(cd)[1])
            expected = []
            for i in range(1, tails.size):
                gap = cd.gap[i]
                expected.append((cd.prefix_var[i] / (gap * gap) + tails[i]) / cd.prefix_mass[i])
            # The library raises each radius to the largest after it.
            want = suffix_max(np.array(expected, dtype=float))
            assert cd.finite.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_match_rationals_at_least_as_closely_as_the_subtracted_gap(self, kind):
        # The radii from the subtracted gap f - mean lose every digit when the
        # gap is below an ulp of the payoff; those from sp.gap must not.
        rng = np.random.default_rng(40 + EXACT_KINDS.index(kind))
        tol = 16 * np.finfo(float).eps
        rescued = 0
        for _ in range(200):
            case = exact_radius_case(rng, kind)
            sp = with_prefix_stats(SortedProblem(*case))
            if np.any(sp.gap[1:] ** 2 < np.finfo(float).tiny):
                continue  # the squared gap underflows: a payoff-scale defect
            # Over the levels above the bottom one, each read at its last outcome.
            ends = level_ends(sp)[1:]
            exact = exact_critical_radii(sp.p_sorted, sp.f_sorted, ends)
            new = CriticalDeltas(*case).finite
            cancelled = sp.f_sorted[ends] - sp.prefix_mean[1:]
            with np.errstate(divide="ignore", invalid="ignore"):
                old = (sp.prefix_var[1:] / (cancelled * cancelled) + sp.tails[1:]) / sp.prefix_mass[1:]
            for got, was, want in zip(new, old, exact):
                err_new, err_old = relative_error(got, want), relative_error(was, want)
                assert err_new <= tol
                assert err_new <= max(err_old, tol)
                rescued += err_old > 1e-6
        if kind == "skewed":
            assert rescued > 0

    def test_a_tied_side_holds_no_outcome_tails(self):
        # A tied side's tails are one per level: building one at n = 1e5 with
        # 101 levels allocates the gathered center and little more, where
        # per-outcome tails would double it.  An untied side's levels are its
        # outcomes, and its tails keep the bytes of the per-outcome pass.
        rng = np.random.default_rng(34)
        n = 10**5
        pmf = db.Pmf(rng.dirichlet(np.ones(n)))
        tied = db.Objective(np.round(rng.uniform(-1.0, 1.0, n) * 50))
        tracemalloc.start()
        try:
            cd = CriticalDeltas(pmf, tied)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert level_ends(cd).size <= 101
        assert peak < 1.25 * 8 * n
        cd = CriticalDeltas(pmf, db.Objective(rng.uniform(-1.0, 1.0, n)))
        assert cd.edges is None
        assert cd.tails.tobytes() == suffix_masses(cd.p_sorted).tobytes()

    def test_seed_11_item_373_radii_stay_monotone(self):
        # A Dirichlet(1) center and payoffs in thirds: the seven radii of the
        # tie group at f = 2/3 on the upper side (about 1.035e4) wobbled by
        # 1.8e-12 relative with the subtracted gap, above the assert's slack.
        p = [0.01228511520154883, 0.13596715113316812, 0.024724906875710582,
             0.09900836251245594, 0.018157825967619202, 0.10547605377370337,
             0.03304945968137316, 0.07476289889001071, 0.10037135458072449,
             0.07835984091065086, 0.01109715953352639, 9.66071391791976e-05,
             0.011266872430827905, 0.11727789942570614, 0.178098491943795]
        third, two = 1 / 3, 2 / 3
        f = [0.0, third, -1.0, two, -third, third, two, two, two, -two, two, 1.0, two, two, -1.0]
        delta = 723969.668734905
        pmf, obj = chi2_problem(p, f)
        for negated in (False, True):
            finite = CriticalDeltas(pmf, obj, negated).finite
            assert np.all(finite[1:] <= finite[:-1] * (1.0 + 4 * np.finfo(float).eps))
        lower = db.chi2_lower_expectation(pmf, obj, delta)
        upper = db.chi2_upper_expectation(pmf, obj, delta)
        assert (lower.value, lower.branch) == (-1.0, "plateau")
        assert (upper.value, upper.branch) == (1.0, "plateau")
        for res in (lower, upper):
            assert db.chi2_divergence(res.minimizer, pmf) <= delta

    def test_skewed_reproducer_solves(self):
        pmf, obj = chi2_problem([1e-12, 1e-20, 1 - 1e-12 - 1e-20], [0, 0.5, 1])
        res = db.chi2_lower_expectation(pmf, obj, 0.1)
        assert res.value == 0.9999996837712336
        assert (res.active_index, res.branch) == (3, "interior")
        assert abs(db.chi2_divergence(res.minimizer, pmf) - 0.1) <= 1e-10


class TestActiveIndex:
    def test_uniform_three_point_branches(self):
        pmf, obj = chi2_problem([1 / 3, 1 / 3, 1 / 3], [0, 1, 2])
        cd = CriticalDeltas(pmf, obj)
        assert cd.value(0.1)[1] == 3
        assert cd.value(1.0)[1] == 2
        assert cd.value(5.0)[1] == 1

    def test_scan_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            pmf, obj = positive_instance(rng, n)
            cd = CriticalDeltas(pmf, obj)
            delta = float(rng.uniform(0, 4))
            r = cd.value(delta)[1]
            above = [
                k
                for k in range(cd.plateau + 1, cd.n + 1)
                if critical_delta(cd, k) > delta
            ]
            assert r == (max(above) if above else cd.plateau)

    @pytest.mark.parametrize("kind", ["ties", "skewed", "constant"])
    def test_support_size_is_the_last_radius_above_delta(self, kind):
        # The nonzero() form the scan replaced, on every radius, its float
        # neighbours and the extremes, with support sizes ending levels.
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(150):
            pmf, obj = exact_radius_case(rng, "skewed" if kind == "skewed" else "ties")
            if kind == "constant":
                obj = db.Objective(np.full(pmf.n, obj.values[0]))
            for negated in (False, True):
                try:
                    # A squared gap can underflow on a skewed side (a known
                    # payoff-scale defect); its +inf radius is still a radius.
                    with np.errstate(divide="ignore"):
                        cd = CriticalDeltas(pmf, obj, negated)
                except db.DivballError:
                    continue  # a numeric breakdown of the closed form
                radii = np.concatenate([
                    [0.0, math.inf, float(rng.uniform(0, 4))], cd.finite,
                    np.nextafter(cd.finite, 0.0), np.nextafter(cd.finite, math.inf),
                ])
                ends = level_ends(cd)
                for delta in radii:
                    above = (cd.finite > delta).nonzero()[0]
                    want = int(ends[above[-1] + 1]) + 1 if above.size else cd.plateau
                    try:
                        assert cd.value(float(delta))[1] == want
                    except db.DivballError:
                        continue  # the radicand check, after r is chosen
                    checked += 1
        assert checked > 800

    def test_support_size_on_an_untied_side_whose_radii_rise(self):
        # An untied side with a skewed center at payoff scale 1e8, whose two
        # radii rise by one ulp, within the allowance: the side keeps their
        # suffix maximum, and its search chooses the support that a scan over
        # the raw radii chooses.
        p = [1.2959885007307662e-39, 0.9994120687503112, 0.0005879312496888112]
        f = [-47443116.04016898, -88832106.21983346, 92211498.89093463]
        pmf, obj = chi2_problem(p, f)
        cd = CriticalDeltas(pmf, obj)
        assert cd.edges is None
        raw = expression_critical_radii(expression_sorted(pmf, obj))
        assert np.any(raw[1:] > raw[:-1])  # the raw radii do rise
        assert cd.finite.tobytes() == suffix_max(raw).tobytes()
        for delta in np.concatenate([raw, np.nextafter(raw, 0.0)]):
            above = (raw > delta).nonzero()[0]
            want = cd.plateau + 1 + int(above[-1]) if above.size else cd.plateau
            assert cd.value(float(delta))[1] == want

    def test_radii_fall_on_every_side_and_rising_ones_keep_their_support(self):
        # Skewed centers of 2 to 40 values, uniform and 7-level payoffs at
        # scales 1e-8, 1 and 1e8: every side that builds stores exactly
        # non-increasing radii, the suffix maximum of its raw ones.  Where
        # the raw radii rise (94 of 5,999 sides), the search chooses at each
        # raw radius and its neighbours the support that a scan over the raw
        # radii chooses.
        rng = np.random.default_rng(5)
        rising = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            for j in range(3000):
                n = int(rng.integers(2, 41))
                w = np.maximum(rng.dirichlet(np.full(n, 0.05)), 1e-300)
                f = rng.uniform(-1.0, 1.0, n) if j % 2 == 0 else rng.integers(0, 7, n) / 6.0
                pmf, obj = db.Pmf(w / w.sum()), db.Objective((1e-8, 1.0, 1e8)[j % 3] * f)
                for negated in (False, True):
                    try:
                        cd = CriticalDeltas(pmf, obj, negated)
                    except db.DivballError:
                        continue  # a numeric breakdown of the closed form
                    assert np.all(cd.finite[1:] <= cd.finite[:-1])
                    raw = expression_critical_radii(with_prefix_stats(SortedProblem(pmf, obj, negated)))
                    assert cd.finite.tobytes() == suffix_max(raw).tobytes()
                    if not np.any(raw[1:] > raw[:-1]):
                        continue
                    rising += 1
                    ends = level_ends(cd)
                    for delta in np.concatenate([raw, np.nextafter(raw, 0.0), np.nextafter(raw, math.inf)]):
                        above = (raw > delta).nonzero()[0]
                        want = int(ends[above[-1] + 1]) + 1 if above.size else cd.plateau
                        assert cd.value(float(delta))[1] == want, (j, negated, delta)
        assert rising >= 80

    def test_lookup_allocates_no_array_of_the_radii(self):
        # A prepared side's support search is a bisection over its radii: four
        # lookups at n = 1e5, both branches, allocate far less than one radius
        # array (800 KB; a byte mask of the radii alone would take 98 KiB).
        rng = np.random.default_rng(33)
        cd = CriticalDeltas(*positive_instance(rng, 10**5, floor=None))
        deltas = [0.0, float(cd.finite[cd.finite.size // 2]), 1.0, math.inf]
        tracemalloc.start()
        try:
            for delta in deltas:
                cd.value(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**10

    def test_negative_delta(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        for bound in (db.chi2_lower_expectation, db.chi2_upper_expectation):
            with pytest.raises(db.NegativeDeltaError):
                bound(pmf, obj, -0.5)


class TestChi2Minimizer:
    def test_uniform_three_point_formula(self):
        pmf, obj = chi2_problem([1 / 3, 1 / 3, 1 / 3], [0, 1, 2])
        sp = SortedProblem(pmf, obj)
        q = chi2_minimizer(sp, 3, 0.1)
        scale = math.sqrt(0.1) / math.sqrt(2.0 / 3.0)
        expected = [(1 / 3) * (1 - (v - 1.0) * scale) for v in (0.0, 1.0, 2.0)]
        np.testing.assert_allclose(q.weights, expected, atol=1e-12)
        assert abs(db.chi2_divergence(q, pmf) - 0.1) <= 1e-9

    def test_zero_delta_returns_center(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            pmf, obj = positive_instance(rng, n)
            cd = CriticalDeltas(pmf, obj)
            r = cd.value(0.0)[1]
            q = chi2_minimizer(cd, r, 0.0)
            np.testing.assert_allclose(q.weights, cd.p_sorted, atol=1e-12)

    def test_plateau_renormalization(self):
        pmf, obj = chi2_problem([0.5, 0.25, 0.25], [0, 0, 1])
        cd = CriticalDeltas(pmf, obj)
        assert abs(critical_delta(cd, 3) - 1.0 / 3.0) <= 1e-12
        r = cd.value(0.5)[1]
        assert r == 2
        q = chi2_minimizer(cd, r, 0.5)
        np.testing.assert_allclose(q.weights, [2 / 3, 1 / 3, 0.0], atol=1e-12)
        assert db.chi2_divergence(q, pmf) <= 0.5 + 1e-12

    def test_boundary_attainment_and_positivity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            pmf, obj = positive_instance(rng, n)
            cd = CriticalDeltas(pmf, obj)
            delta = float(rng.uniform(0, 3))
            r = cd.value(delta)[1]
            q = chi2_minimizer(cd, r, delta)
            q_orig = np.empty(n)
            q_orig[cd.perm] = q.weights
            q_orig = db.Pmf(q_orig)
            if r > cd.plateau:
                assert abs(db.chi2_divergence(q_orig, pmf) - delta) <= 1e-9
                assert np.all(q.weights[:r] > 0.0)
            else:
                assert db.chi2_divergence(q_orig, pmf) <= delta + 1e-12
            assert np.all(q.weights[r:] == 0.0)

    def test_top_coordinate_vanishes_at_critical_radius(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pmf, obj = positive_instance(rng, n)
            cd = CriticalDeltas(pmf, obj)
            for k in range(cd.plateau + 1, cd.n + 1):
                q = chi2_minimizer(cd, k, critical_delta(cd, k))
                assert abs(q.weights[k - 1]) <= 1e-9


class TestLevels:
    """Tied payoffs either side of the sort's crossover,
    ``core._STABLE_SORT_MAX``: whichever way its payoff was sorted, a tied
    side is solved over its payoff levels."""

    SIZES = (_STABLE_SORT_MAX - 1, _STABLE_SORT_MAX, _STABLE_SORT_MAX + 1)
    DELTAS = (0.0, 1e-3, 0.3, 5.0, 1e6)

    @staticmethod
    def sides(n):
        """Tied positive problems of ``n`` values and their negated sides:
        two, three and seven levels, the two-level one of signed zeros."""
        rng = np.random.default_rng([31, n])
        for levels in (2, 3, 7):
            pmf = random_pmf(rng, n, floor=0.1 / n)
            f = rng.integers(0, levels, n).astype(float) / 3
            if levels == 2:
                f[(f == 0.0) & (rng.random(n) < 0.5)] = -0.0
            obj = db.Objective(f * float(rng.choice([1e-8, 1.0, 1e8])))
            for side in (obj, db.Objective(-obj.values)):
                yield pmf, side

    @pytest.mark.parametrize("n", SIZES)
    def test_one_radius_per_level_above_the_bottom_one(self, n):
        for pmf, side in self.sides(n):
            cd = CriticalDeltas(pmf, side)
            runs = np.append((cd.f_sorted[1:] != cd.f_sorted[:-1]).nonzero()[0], n - 1)
            assert level_ends(cd).tolist() == runs.tolist()
            assert not cd.edges.flags.writeable
            assert cd.finite.size == runs.size - 1 == np.unique(side.values).size - 1
            assert cd.prefix_mass.size == cd.gap.size == cd.prefix_var.size == runs.size
            assert level_ends(cd)[0] == cd.plateau - 1
            # Each level's mass is its run's, and the radii of a run are its end's.
            starts = np.append(0, runs[:-1] + 1)
            np.testing.assert_allclose(np.diff(cd.prefix_mass, prepend=0.0),
                                       [math.fsum(cd.p_sorted[a : b + 1]) for a, b in zip(starts, runs)],
                                       rtol=1e-12)
            for a, b, radius in zip(starts[1:], runs[1:], cd.finite):
                assert {critical_delta(cd, k) for k in range(a + 1, b + 2)} == {float(radius)}

    @pytest.mark.parametrize("n", SIZES)
    def test_support_ends_at_a_run_end_with_one_ratio_per_level(self, n):
        for pmf, side in self.sides(n):
            cd = CriticalDeltas(pmf, side)
            radii = np.concatenate([self.DELTAS, cd.finite, np.nextafter(cd.finite, 0.0)])
            for delta in map(float, radii):
                value, r, branch = cd.value(delta)
                q = np.zeros(n)
                q[cd.perm] = chi2_minimizer(cd, r, delta).weights
                if delta in self.DELTAS:
                    assert r == reference_bound(pmf, side, "chi2", delta).r
                ends = level_ends(cd)
                assert r - 1 in ends
                ratio = (q / pmf.weights)[cd.perm]
                assert not ratio[r:].any()
                start = 0
                for end in ends[ends < r]:
                    level = ratio[start : end + 1]
                    assert np.ptp(level) <= 8 * np.finfo(float).eps * level.max(), (delta, end)
                    start = end + 1


class TestChi2LowerExpectation:
    def test_uniform_three_point(self):
        pmf, obj = chi2_problem([1 / 3, 1 / 3, 1 / 3], [0, 1, 2])
        res = db.chi2_lower_expectation(pmf, obj, 0.1)
        expected = 1.0 - math.sqrt(2.0 / 3.0) * math.sqrt(0.1)
        assert abs(res.value - expected) <= 1e-12
        assert res.active_index == 3
        assert res.branch == "interior"
        report = db.oracle_lower_expectation(pmf, obj, "chi2", 0.1, 200)
        assert -1e-12 <= report.grid_minimum - res.value <= report.tolerance

    def test_zero_delta(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            pmf, obj = positive_instance(rng, n)
            res = db.chi2_lower_expectation(pmf, obj, 0.0)
            assert abs(res.value - db.expectation(pmf, obj)) <= 1e-12
            np.testing.assert_allclose(res.minimizer.weights, pmf.weights, atol=1e-12)

    def test_two_point_worked_value(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        res = db.chi2_lower_expectation(pmf, obj, 0.25)
        assert abs(res.value - 0.25) <= 1e-12
        assert abs(db.expectation(res.minimizer, obj) - res.value) <= 1e-9

    def test_plateau_branch(self):
        pmf, obj = chi2_problem([1 / 3, 1 / 3, 1 / 3], [0, 1, 2])
        res = db.chi2_lower_expectation(pmf, obj, 5.0)
        assert res.value == 0.0
        assert res.branch == "plateau"
        assert res.active_index == 1

    def test_single_outcome(self):
        pmf, obj = chi2_problem([1.0], [2.25])
        for delta in (0.0, 0.7, 10.0):
            res = db.chi2_lower_expectation(pmf, obj, delta)
            assert res.value == 2.25
            assert res.branch == "plateau"

    def test_errors(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        with pytest.raises(db.NegativeDeltaError):
            db.chi2_lower_expectation(pmf, obj, -0.1)
        bad_p, bad_f = db.validate([0.0, 1.0], [0, 1], "tv")
        with pytest.raises(db.ZeroMassForbiddenError):
            db.chi2_lower_expectation(bad_p, bad_f, 0.1)

    def test_minimizer_reproduces_value(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            pmf, obj = positive_instance(rng, n, f_lo=-4, f_hi=4)
            delta = float(rng.uniform(0, 4))
            res = db.chi2_lower_expectation(pmf, obj, delta)
            assert abs(db.expectation(res.minimizer, obj) - res.value) <= 1e-9

    def test_skewed_centers_raise_no_mass_error(self):
        # The first 1000 draws of the skewed probe: Dirichlet(0.05) centers
        # floored at 1e-300, payoffs on [-1, 1] at scales 1e-8, 1 and 1e8,
        # radii log-uniform on [1e-9, 1e6].  A tilt formed from the rounded
        # prefix mean left minimizer masses off 1 by more than the tolerance.
        rng = np.random.default_rng(5)
        returned = 0
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            p = np.maximum(rng.dirichlet(np.full(n, 0.05)), 1e-300)
            p /= p.sum()
            f = rng.uniform(-1, 1, n) * [1e-8, 1.0, 1e8][int(rng.integers(0, 3))]
            delta = float(np.exp(rng.uniform(np.log(1e-9), np.log(1e6))))
            pmf, obj = db.validate(p, f, "chi2")
            try:
                with np.errstate(all="ignore"):
                    db.chi2_lower_expectation(pmf, obj, delta)
            except db.SumNotOneError as exc:
                pytest.fail(f"{exc} for p={p.tolist()}, f={f.tolist()}, delta={delta!r}")
            except db.DivballError:
                continue  # a breakdown of the critical radii, not the mass
            returned += 1
        assert returned >= 995


class TestChi2UpperExpectation:
    def test_zero_delta(self):
        pmf, obj = chi2_problem([0.25, 0.75], [2, -1])
        assert db.chi2_upper_expectation(pmf, obj, 0.0).value == pytest.approx(
            db.expectation(pmf, obj), abs=1e-12
        )

    def test_symmetry_with_lower(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        res = db.chi2_upper_expectation(pmf, obj, 0.25)
        assert abs(res.value - 0.75) <= 1e-12

    def test_constant_objective(self):
        pmf, obj = chi2_problem([0.5, 0.5], [3.5, 3.5])
        for delta in (0.0, 1.0, 10.0):
            assert db.chi2_upper_expectation(pmf, obj, delta).value == 3.5

    def test_conjugacy_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            pmf, obj = positive_instance(rng, n)
            delta = float(rng.uniform(0, 3))
            up = db.chi2_upper_expectation(pmf, obj, delta)
            lo = db.chi2_lower_expectation(pmf, db.Objective(-obj.values), delta)
            assert up.value == -lo.value


class TestSpecialCases:
    def test_two_point_threshold_branch(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        assert chi2_two_point(pmf, obj, 1.0) == 0.0

    def test_two_point_constant(self):
        pmf, obj = chi2_problem([0.4, 0.6], [2, 2])
        for delta in (0.0, 0.5, 3.0):
            assert chi2_two_point(pmf, obj, delta) == 2.0

    def test_two_point_worked_value(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        assert abs(chi2_two_point(pmf, obj, 0.25) - 0.25) <= 1e-15

    def test_two_point_wrong_arity(self):
        pmf, obj = chi2_problem([0.2, 0.3, 0.5], [0, 1, 2])
        with pytest.raises(WrongArityError):
            chi2_two_point(pmf, obj, 0.1)

    def test_three_point_branches(self):
        pmf, obj = chi2_problem([1 / 3, 1 / 3, 1 / 3], [0, 1, 2])
        first = chi2_three_point(pmf, obj, 0.1)
        assert abs(first - (1.0 - math.sqrt(2.0 / 3.0) * math.sqrt(0.1))) <= 1e-12
        middle = chi2_three_point(pmf, obj, 1.0)
        assert abs(middle - (0.5 - 0.5 * math.sqrt(1.0 / 3.0))) <= 1e-12
        assert chi2_three_point(pmf, obj, 3.0) == 0.0

    def test_three_point_tied_bottom_delegates(self):
        pmf, obj = chi2_problem([0.5, 0.25, 0.25], [0, 0, 1])
        with pytest.raises(TiedBottomError):
            chi2_three_point(pmf, obj, 0.1)

    def test_three_point_wrong_arity(self):
        pmf, obj = chi2_problem([0.5, 0.5], [0, 1])
        with pytest.raises(WrongArityError):
            chi2_three_point(pmf, obj, 0.1)

    @given(st.integers(0, 2**32 - 1), st.floats(0, 3))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_two_point_matches_general(self, seed, delta):
        rng = np.random.default_rng(seed)
        pmf, obj = positive_instance(rng, 2)
        got = chi2_two_point(pmf, obj, delta)
        ref = db.chi2_lower_expectation(pmf, obj, delta).value
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    @given(st.integers(0, 2**32 - 1), st.floats(0, 3))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_three_point_matches_general(self, seed, delta):
        rng = np.random.default_rng(seed)
        pmf, obj = positive_instance(rng, 3)
        got = chi2_three_point(pmf, obj, delta)
        ref = db.chi2_lower_expectation(pmf, obj, delta).value
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


class TestChi2Invariants:
    def test_value_continuity_at_breakpoints(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            pmf, obj = positive_instance(rng, n, f_lo=-3, f_hi=3)
            cd = CriticalDeltas(pmf, obj)
            tails = suffix_masses(cd.p_sorted)

            def branch_value(k, delta):
                if k == cd.plateau:
                    return float(cd.f_sorted[0])
                i = k - 1
                rad = max(cd.prefix_mass[i] * delta - tails[i], 0.0)
                return float(
                    (cd.f_sorted[i] - cd.gap[i])
                    - math.sqrt(cd.prefix_var[i]) * math.sqrt(rad)
                )

            for k in range(cd.plateau + 1, cd.n + 1):
                dk = critical_delta(cd, k)
                a = branch_value(k, dk)
                b = branch_value(k - 1, dk)
                assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pmf, obj = positive_instance(rng, n)
            deltas = np.sort(rng.uniform(0, 4, 8))
            values = [db.chi2_lower_expectation(pmf, obj, d).value for d in deltas]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_translation_and_scaling(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pmf, obj = positive_instance(rng, n, f_lo=-3, f_hi=3)
            delta = float(rng.uniform(0, 3))
            shift = float(rng.uniform(-5, 5))
            scale = float(rng.uniform(0, 4))
            base = db.chi2_lower_expectation(pmf, obj, delta).value
            shifted = db.chi2_lower_expectation(
                pmf, db.Objective(obj.values + shift), delta
            ).value
            assert abs(shifted - (base + shift)) <= 1e-9
            scaled = db.chi2_lower_expectation(
                pmf, db.Objective(scale * obj.values), delta
            ).value
            assert abs(scaled - scale * base) <= 1e-9 * (1 + abs(scale))

    def test_value_between_min_and_center(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            pmf, obj = positive_instance(rng, n)
            delta = float(rng.uniform(0, 5))
            value = db.chi2_lower_expectation(pmf, obj, delta).value
            assert float(obj.values.min()) - 1e-12 <= value
            assert value <= db.expectation(pmf, obj) + 1e-12

    def test_tie_independence(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            pmf, obj = positive_instance(rng, n)
            values = obj.values.copy()
            # Force a tie group somewhere.
            i, j = rng.choice(n, size=2, replace=False)
            values[j] = values[i]
            obj = db.Objective(values)
            delta = float(rng.uniform(0, 3))
            base = db.chi2_lower_expectation(pmf, obj, delta).value
            pi = rng.permutation(n)
            permuted = db.chi2_lower_expectation(
                db.Pmf(pmf.weights[pi]), db.Objective(values[pi]), delta
            ).value
            assert abs(base - permuted) <= 1e-9 * (1.0 + abs(base))

    def test_oracle_sandwich_small_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            resolution = 200 if n <= 3 else 100
            pmf, obj = positive_instance(rng, n, floor=0.05)
            delta = float(rng.uniform(0, 3))
            res = db.chi2_lower_expectation(pmf, obj, delta)
            try:
                report = db.oracle_lower_expectation(
                    pmf, obj, "chi2", delta, resolution
                )
            except db.EmptyFeasibleError:
                assert abs(res.value - db.expectation(pmf, obj)) <= 0.05
                continue
            gap = report.grid_minimum - res.value
            assert gap >= -1e-12 * (1 + abs(res.value))
            assert gap <= report.tolerance
            assert naive_chi2_divergence(res.minimizer, pmf) <= delta + 1e-9
