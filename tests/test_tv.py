"""Unit tests for the total-variation ball solver."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divball as db
from divball import cli
from divball.core import SortedProblem, suffix_masses
from divball.oracle import naive_tv_distance
from divball.tv import TVSide
from conftest import assert_tv_pattern, random_objective, random_pmf, sorted_minimizer


class TestTvDistance:
    def test_identity(self):
        p, _ = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        assert db.tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        q = db.Pmf(np.array([1.0, 0.0]))
        p = db.Pmf(np.array([0.0, 1.0]))
        assert db.tv_distance(q, p) == 1.0

    def test_hand_sum(self):
        q = db.Pmf(np.array([0.6, 0.3, 0.1]))
        p = db.Pmf(np.array([0.2, 0.3, 0.5]))
        got = db.tv_distance(q, p)
        assert abs(got - 0.4) <= 1e-15
        assert abs(got - naive_tv_distance(q, p)) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(db.LengthMismatchError):
            db.tv_distance(db.Pmf(np.array([1.0])), db.Pmf(np.array([0.5, 0.5])))


class TestThresholdIndex:
    def test_partial_budget(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        sp = TVSide(p, f)
        # suffix masses after r = 1, 2, 3 are 0.8, 0.5, 0.
        assert sp.value(0.4)[1] == 3
        assert sp.value(0.5)[1] == 2
        assert sp.value(0.79)[1] == 2

    def test_full_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            sp = TVSide(random_pmf(rng, n), random_objective(rng, n))
            assert sp.value(1.0)[1] == 1
            assert sp.value(2.5)[1] == 1

    def test_zero_budget(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        sp = TVSide(p, f)
        assert sp.value(0.0)[1] == 2

    def test_negative_delta(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        with pytest.raises(db.NegativeDeltaError):
            TVSide(p, f).value(-0.1)

    def test_exhaustive_scan_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p = random_pmf(rng, n)
            sp = TVSide(p, random_objective(rng, n))
            delta = float(rng.uniform(0, 1))
            r = sp.value(delta)[1]
            candidates = [
                k
                for k in range(1, n + 1)
                if delta >= suffix_masses(sp.p_sorted)[k - 1]
            ]
            assert r == min(candidates)

    def test_binary_search_matches_the_scan(self):
        # The scan it replaced: the first tail that delta covers.  A radius of
        # 1 or more covers every tail in exact arithmetic, but a tail summed
        # from the top down can round above 1, so there ``value`` compares none.
        rng = np.random.default_rng(2)
        for kind in ("random", "tied", "zero_weight", "signed_zero"):
            for _ in range(60):
                n = int(rng.integers(1, 12))
                w = rng.dirichlet(np.ones(n))
                f = rng.uniform(-1, 1, n)
                if kind == "tied":
                    f = rng.integers(0, 3, n).astype(float)
                elif kind == "zero_weight":
                    w[rng.random(n) < 0.4] = 0.0
                elif kind == "signed_zero":
                    w[rng.random(n) < 0.4] = -0.0
                    f = rng.choice([0.0, -0.0, 1.0], n)
                if not w.sum():
                    w[0] = 1.0
                sp = TVSide(*db.validate(w / w.sum(), f))
                deltas = [0.0, -0.0, math.inf]
                for t in sp.tails:
                    deltas += [t, np.nextafter(t, math.inf), np.nextafter(t, -math.inf)]
                for delta in deltas:
                    if delta >= 0.0:
                        expected = 1 if delta >= 1.0 else int((delta >= sp.tails).argmax()) + 1
                        assert sp.value(float(delta))[1] == expected


class TestTvLowerExpectation:
    def test_worked_three_point(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        res = db.tv_lower_expectation(p, f, 0.4)
        assert abs(res.value - 1.5) <= 1e-12
        np.testing.assert_allclose(res.minimizer.weights, [0.6, 0.3, 0.1], atol=1e-12)
        assert res.active_index == 3
        assert res.branch == "interior"
        report = db.oracle_lower_expectation(p, f, "tv", 0.4, 200)
        assert 0 <= report.grid_minimum - res.value <= report.tolerance

    def test_zero_delta_returns_center(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            p = random_pmf(rng, n)
            f = random_objective(rng, n)
            res = db.tv_lower_expectation(p, f, 0.0)
            assert abs(res.value - db.expectation(p, f)) <= 1e-12
            np.testing.assert_allclose(res.minimizer.weights, p.weights, atol=1e-15)

    def test_degenerate_all_mass_moves(self):
        p, f = db.validate([0.7, 0.3], [1, 0])
        res = db.tv_lower_expectation(p, f, 0.9)
        assert res.value == 0.0
        np.testing.assert_allclose(res.minimizer.weights, [0.0, 1.0], atol=0)
        assert res.active_index == 1
        assert res.branch == "degenerate"

    def test_delta_above_one_clamps(self):
        p, f = db.validate([0.4, 0.6], [2, 5])
        res = db.tv_lower_expectation(p, f, 3.0)
        assert res.value == 2.0
        assert db.tv_distance(res.minimizer, p) == pytest.approx(0.6, abs=1e-15)

    def test_value_stays_in_the_payoff_range(self):
        # Just under radius 1 the tails round to a mass above 1, and the
        # sorted minimizer's dot fell an ulp below the least payoff.
        p, f = db.validate([0.0, 0.29, 0.11, 0.6000000000000001], [-1.0, -0.4, -0.7, -0.5])
        assert db.tv_lower_expectation(p, f, 0.9999999999999999).value == -1.0

    def test_negative_delta(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        with pytest.raises(db.NegativeDeltaError):
            db.tv_lower_expectation(p, f, -1e-9)

    def test_single_outcome(self):
        p, f = db.validate([1.0], [4.5])
        for delta in (0.0, 0.3, 1.0, 2.0):
            res = db.tv_lower_expectation(p, f, delta)
            assert res.value == 4.5
            assert res.minimizer.weights[0] == 1.0

    def test_minimizer_labels_preserved(self):
        p = db.Pmf(np.array([0.5, 0.5]), labels=("a", "b"))
        f = db.Objective(np.array([0.0, 1.0]))
        res = db.tv_lower_expectation(p, f, 0.2)
        assert res.minimizer.labels == ("a", "b")


class TestTvUpperExpectation:
    def test_zero_delta(self):
        p, f = db.validate([0.2, 0.8], [3, -1])
        assert db.tv_upper_expectation(p, f, 0.0).value == pytest.approx(
            db.expectation(p, f), abs=1e-12
        )

    def test_worked_two_point(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        res = db.tv_upper_expectation(p, f, 0.2)
        assert abs(res.value - 0.7) <= 1e-12
        assert db.expectation(res.minimizer, f) == pytest.approx(0.7, abs=1e-12)

    def test_constant_objective(self):
        p, f = db.validate([0.3, 0.7], [2.5, 2.5])
        for delta in (0.0, 0.4, 1.0):
            assert db.tv_upper_expectation(p, f, delta).value == 2.5

    def test_value_stays_in_the_payoff_range(self):
        # The dot's rounding alone rose an ulp above the greatest payoff.
        p, f = db.validate(
            [0.3597135271775536, 0.01561916197691528, 0.2125925424189481,
             0.019022654566643704, 0.3930521138599393],
            [0, 2, 1, 1, 2],
        )
        assert db.tv_upper_expectation(p, f, 0.6283249873750498).value == 2.0


class TestTvInvariants:
    def test_boundary_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            p = random_pmf(rng, n)
            if rng.random() < 0.3 and n > 1:
                w = p.weights.copy()
                w[int(rng.integers(0, n))] = 0.0
                p = db.Pmf(w / w.sum()) if w.sum() > 0 else p
            f = random_objective(rng, n)
            delta = float(rng.uniform(0, 1.3))
            res = db.tv_lower_expectation(p, f, delta)
            sp = SortedProblem(p, f)
            expected = min(min(delta, 1.0), 1.0 - sp.p_sorted[0])
            assert abs(db.tv_distance(res.minimizer, p) - expected) <= 1e-12
            assert abs(db.expectation(res.minimizer, f) - res.value) <= 1e-9

    def test_minimizer_structure(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p = random_pmf(rng, n)
            f = random_objective(rng, n)
            delta = float(rng.uniform(0, 1.2))
            res = db.tv_lower_expectation(p, f, delta)
            sp = SortedProblem(p, f)
            q_sorted = sorted_minimizer(sp, res)
            delta_eff = min(min(delta, 1.0), 1.0 - sp.p_sorted[0])
            assert_tv_pattern(sp, q_sorted, delta_eff, res.active_index)
            # At most one coordinate rises (the objective-smallest); the rest
            # weakly decrease.
            diff = res.minimizer.weights - p.weights
            raised = diff > 1e-12
            assert raised.sum() <= 1
            if raised.any():
                assert int(np.flatnonzero(raised)[0]) == int(sp.perm[0])

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_pmf(rng, n)
            f = random_objective(rng, n)
            deltas = np.sort(rng.uniform(0, 1.2, 8))
            values = [db.tv_lower_expectation(p, f, d).value for d in deltas]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_conjugacy_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            p = random_pmf(rng, n)
            f = random_objective(rng, n)
            delta = float(rng.uniform(0, 1.2))
            up = db.tv_upper_expectation(p, f, delta)
            lo = db.tv_lower_expectation(p, f.negated(), delta)
            assert up.value == -lo.value

    @given(
        st.integers(2, 6),
        st.floats(0, 1.2),
        st.floats(-5, 5),
        st.floats(0, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_translation_and_scaling(self, n, delta, shift, scale, seed):
        rng = np.random.default_rng(seed)
        p = random_pmf(rng, n)
        f = random_objective(rng, n, -3, 3)
        base = db.tv_lower_expectation(p, f, delta).value
        shifted = db.tv_lower_expectation(
            p, db.Objective(f.values + shift), delta
        ).value
        assert abs(shifted - (base + shift)) <= 1e-9
        scaled = db.tv_lower_expectation(
            p, db.Objective(scale * f.values), delta
        ).value
        assert abs(scaled - scale * base) <= 1e-9 * (1 + abs(scale))

    def test_value_between_min_and_center(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            p = random_pmf(rng, n)
            f = random_objective(rng, n)
            delta = float(rng.uniform(0, 1.3))
            value = db.tv_lower_expectation(p, f, delta).value
            assert float(f.values.min()) - 1e-12 <= value
            assert value <= db.expectation(p, f) + 1e-12

    def test_oracle_sandwich_small_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            resolution = 200 if n <= 3 else 100
            p = random_pmf(rng, n, grid=resolution)
            f = random_objective(rng, n)
            delta = float(rng.uniform(0, 1.2))
            res = db.tv_lower_expectation(p, f, delta)
            report = db.oracle_lower_expectation(
                p, f, "tv", delta, resolution
            )
            gap = report.grid_minimum - res.value
            assert gap >= -1e-12 * (1 + abs(res.value))
            assert gap <= report.tolerance
            assert naive_tv_distance(res.minimizer, p) <= delta + 1e-9


BIG = 1.7976931348623157e308  # the largest double


class TestNearFloatMaxPayoff:
    """A dot with weights summing to 1 overflows for payoffs near the float
    maximum; the bound is redone in units of a power of two, with no warning."""

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.999, 1.0])
    def test_reproducer_returns_the_payoff(self, delta):
        p, f = db.validate([0.2, 0.4, 0.4], [BIG] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower = db.tv_lower_expectation(p, f, delta)
            upper = db.tv_upper_expectation(p, f, delta)
        assert lower.value == BIG
        assert upper.value == BIG

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_are_finite_and_match_the_minimizer(self, sign):
        rng = np.random.default_rng(31 if sign > 0 else 32)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            # Most entries exactly at the maximum: the plain dot often overflows.
            near = BIG * (1.0 - rng.uniform(0.0, 1e-3, n))
            values = sign * np.where(rng.random(n) < 0.8, BIG, near)
            p, f = db.validate(rng.dirichlet(np.ones(n)), values)
            delta = float(rng.uniform(0.0, 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results = (db.tv_lower_expectation(p, f, delta), db.tv_upper_expectation(p, f, delta))
            for res in results:
                # Finite, and the mean of the returned minimizer to rounding:
                # a dot that did not overflow keeps its bits, which may lie
                # an ulp outside the payoff's range.
                assert np.isfinite(res.value)
                exact = sum(Fraction(w) * Fraction(v) for w, v in zip(res.minimizer.weights, values))
                assert abs(Fraction(res.value) - exact) <= Fraction(BIG) * Fraction(n, 2**51)


# A zero bottom weight: the tail after the bottom outcome, summed from the
# top down, rounds to 1.0000000000000002, above the radius 1.
ROUNDED_TAIL_P = [0.0, 0.29, 0.11, 0.6000000000000001]
ROUNDED_TAIL_F = {
    "below": [-1.0, -0.4, -0.7, -0.5],  # an interior r = 2 value fell below min f
    "above": [-1.0, 0.6, 0.5, 0.9],  # and here it stayed above it
}


class TestWholeSimplex:
    """Any radius of 1 or more is the whole simplex: the lower bound is the
    minimal payoff, on a point mass, whatever the tails round to."""

    @pytest.mark.parametrize("delta", [1.0, 1.5, math.inf])
    @pytest.mark.parametrize("case", sorted(ROUNDED_TAIL_F))
    def test_rounded_tail_gives_the_point_mass(self, case, delta):
        f_values = ROUNDED_TAIL_F[case]
        p, f = db.validate(ROUNDED_TAIL_P, f_values)
        lower = db.tv_lower_expectation(p, f, delta)
        assert lower.value == -1.0
        assert (lower.active_index, lower.branch) == (1, "degenerate")
        assert lower.minimizer.weights.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert db.tv_upper_expectation(p, f, delta).value == max(f_values)

    @pytest.mark.parametrize("delta", ["1", "1.5"])
    @pytest.mark.parametrize("case", sorted(ROUNDED_TAIL_F))
    def test_cli_row_says_the_same(self, tmp_path, capsys, case, delta):
        # The CLI takes finite radii only, so infinity is left to the library.
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"p": ROUNDED_TAIL_P, "f": ROUNDED_TAIL_F[case], "ball": "tv"}))
        assert cli.main(["--input", str(path), "--delta", delta, "--output", "csv"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        upper = format(max(ROUNDED_TAIL_F[case]), ".17g")
        assert row == f"{float(delta):.17g},-1,{upper},1,degenerate"

    def test_radius_search_closes_at_one(self):
        # The radius search runs for TV too: the bound at radius 1 must
        # already reach the minimal payoff, or no finite radius reaches it.
        p, f = db.validate(ROUNDED_TAIL_P, ROUNDED_TAIL_F["above"])
        assert db.robustness_radius(p, f, "tv", -1.0) == 1.0
