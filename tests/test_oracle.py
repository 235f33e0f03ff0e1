"""Unit tests for the brute-force grid oracle."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import divball as db
from divball import oracle
from divball.oracle import (
    _composition_blocks,
    naive_chi2_divergence,
    naive_expectation,
    naive_tv_distance,
    oracle_check_verdict,
)
from crosscheck import enumerate_compositions
from conftest import random_objective, random_pmf


def grid_counts(n, resolution):
    """The streamed grid's blocks, concatenated."""
    return np.vstack(list(_composition_blocks(n, resolution)))


class TestEnumerateCompositions:
    def test_two_parts_resolution_two(self):
        points = [tuple(q.weights) for q in enumerate_compositions(2, 2)]
        assert points == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_three_parts_resolution_two(self):
        points = list(enumerate_compositions(3, 2))
        assert len(points) == math.comb(4, 2) == 6

    def test_large_count_matches_binomial(self):
        matrix = grid_counts(4, 200)
        assert matrix.shape == (math.comb(203, 3), 4)
        assert math.comb(203, 3) == 1_373_701

    def test_lexicographic_and_unique(self):
        rows = [tuple(q.weights) for q in enumerate_compositions(3, 7)]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows) == math.comb(9, 2)

    def test_rows_sum_to_resolution(self):
        matrix = grid_counts(4, 9)
        assert np.all(matrix.sum(axis=1) == 9)
        assert np.all(matrix >= 0)

    @pytest.mark.parametrize("family", ["tv", "chi2"])
    def test_infinite_radius_makes_every_grid_point_feasible(self, family):
        p, f = db.validate([0.2, 0.3, 0.5], [1.5, -0.5, 3.0], family)
        report = db.oracle_lower_expectation(p, f, family, math.inf, 40)
        assert report.feasible_count == math.comb(42, 2)
        assert report.grid_minimum == -0.5
        assert report.grid_argmin.weights.tobytes() == np.array([0.0, 1.0, 0.0]).tobytes()

    def test_too_large(self):
        with pytest.raises(db.TooLargeError):
            list(enumerate_compositions(5, 10))
        with pytest.raises(db.TooLargeError):
            list(enumerate_compositions(4, 1000))

    def test_single_part(self):
        points = list(enumerate_compositions(1, 5))
        assert len(points) == 1 and points[0].weights[0] == 1.0

    def test_bad_resolution(self):
        with pytest.raises(db.DivballError):
            list(enumerate_compositions(2, 0))


class TestOracleLowerExpectation:
    def test_tv_worked_example(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        report = db.oracle_lower_expectation(p, f, "tv", 0.4, 200)
        assert 1.5 <= report.grid_minimum <= 1.5 + 3 * 2 / 200
        assert report.tolerance == pytest.approx(2 * 3 / 200)
        # argmin is on the grid and feasible per the independent distance
        assert np.allclose(report.grid_argmin.weights * 200,
                           np.round(report.grid_argmin.weights * 200), atol=1e-9)
        assert naive_tv_distance(report.grid_argmin, p) <= 0.4

    def test_zero_delta_on_grid_center(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        report = db.oracle_lower_expectation(p, f, "tv", 0.0, 200)
        assert report.feasible_count == 1
        np.testing.assert_allclose(report.grid_argmin.weights, p.weights, atol=1e-15)
        assert abs(report.grid_minimum - db.expectation(p, f)) <= 1e-14

    def test_chi2_worked_example(self):
        p, f = db.validate([0.5, 0.5], [0, 1], "chi2")
        report = db.oracle_lower_expectation(p, f, "chi2", 0.25, 200)
        assert 0.25 <= report.grid_minimum <= 0.25 + 1 * 2 / 200
        assert naive_chi2_divergence(report.grid_argmin, p) <= 0.25

    def test_empty_feasible(self):
        p, f = db.validate([1 / 3, 2 / 3], [0, 1], "chi2")
        with pytest.raises(db.EmptyFeasibleError):
            db.oracle_lower_expectation(p, f, "chi2", 1e-8, 10)

    def test_deterministic(self):
        p, f = db.validate([0.3, 0.3, 0.4], [2, 1, 3])
        a = db.oracle_lower_expectation(p, f, "tv", 0.2, 50)
        b = db.oracle_lower_expectation(p, f, "tv", 0.2, 50)
        assert a.grid_minimum == b.grid_minimum
        np.testing.assert_array_equal(a.grid_argmin.weights, b.grid_argmin.weights)
        assert a.feasible_count == b.feasible_count

    def test_default_resolution(self):
        p, f = db.validate([0.5, 0.5], [0, 1])
        report = db.oracle_lower_expectation(p, f, "tv", 0.1)
        assert report.resolution == 200
        p4, f4 = db.validate([0.25] * 4, [0, 1, 2, 3])
        report4 = db.oracle_lower_expectation(p4, f4, "tv", 0.1)
        assert report4.resolution == 100

    @pytest.mark.parametrize(
        "resolution", [2.5, 10.0, np.float64(10.0), "10", True, False],
        ids=["float", "integral-float", "numpy-float", "str", "true", "false"],
    )
    def test_a_resolution_that_is_not_an_integer_is_refused(self, resolution):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        message = f"resolution must be an integer, got {resolution!r}"
        with pytest.raises(db.DivballError, match=re.escape(message)):
            db.oracle_lower_expectation(p, f, "tv", 0.2, resolution)

    def test_a_numpy_integer_resolution_is_a_resolution(self):
        p, f = db.validate([0.2, 0.3, 0.5], [1, 2, 3])
        a = db.oracle_lower_expectation(p, f, "tv", 0.2, np.int64(50))
        b = db.oracle_lower_expectation(p, f, "tv", 0.2, 50)
        assert (a.grid_minimum, a.feasible_count, a.tolerance) == (
            b.grid_minimum, b.feasible_count, b.tolerance)
        assert a.grid_argmin.weights.tobytes() == b.grid_argmin.weights.tobytes()
        with pytest.raises(db.DivballError, match="resolution must be >= 1, got 0"):
            db.oracle_lower_expectation(p, f, "tv", 0.2, np.int64(0))

    @pytest.mark.parametrize(
        "resolution", [np.uint8(255), np.int8(127), np.int32(2**31 - 1)],
        ids=["uint8-max", "int8-max", "int32-max"],
    )
    def test_a_numpy_integer_resolution_reports_as_its_python_int(self, resolution):
        # Read in its own width, uint8 255 + 1 wraps to 0 and int8 127 + 1
        # overflows; each must give the report, or the error, of the int.
        p, f = db.validate([0.5, 0.5], [0, 1])

        def outcome(res):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    report = db.oracle_lower_expectation(p, f, "tv", 0.1, res)
                except db.DivballError as exc:
                    return type(exc).__name__, str(exc)
            assert type(report.resolution) is int
            return (report.grid_minimum.hex(), report.feasible_count,
                    report.tolerance.hex(), report.grid_argmin.weights.tobytes())

        assert outcome(resolution) == outcome(int(resolution))

    def test_too_large(self):
        p, f = db.validate([0.2] * 5, [1, 2, 3, 4, 5])
        with pytest.raises(db.TooLargeError):
            db.oracle_lower_expectation(p, f, "tv", 0.5, 10)

    def test_chi2_needs_positive_center(self):
        p, f = db.validate([0.0, 1.0], [0, 1], "tv")
        with pytest.raises(db.ZeroMassForbiddenError):
            db.oracle_lower_expectation(p, f, "chi2", 0.5, 10)

    def test_closed_form_attainment_certificate(self):
        # The closed-form minimizer, measured entirely with the oracle's own
        # loops, is feasible and reproduces the closed-form value; together
        # with the grid upper bound this makes the sandwich two-sided.
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n, floor=0.05)
            f = random_objective(rng, n, -2, 2)
            delta = float(rng.uniform(0, 2))
            tv_res = db.tv_lower_expectation(p, f, min(delta, 1.2))
            assert naive_tv_distance(tv_res.minimizer, p) <= min(delta, 1.2) + 1e-9
            assert abs(naive_expectation(tv_res.minimizer, f) - tv_res.value) <= 1e-9
            chi_res = db.chi2_lower_expectation(p, f, delta)
            assert naive_chi2_divergence(chi_res.minimizer, p) <= delta + 1e-9
            assert abs(naive_expectation(chi_res.minimizer, f) - chi_res.value) <= 1e-9

    def test_grid_minimum_is_upper_bound_on_closed_form(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = random_pmf(rng, n, floor=0.05)
            f = random_objective(rng, n)
            delta = float(rng.uniform(0, 1.0))
            for family in ("tv", "chi2"):
                if family == "tv":
                    closed = db.tv_lower_expectation(p, f, delta).value
                else:
                    closed = db.chi2_lower_expectation(p, f, delta).value
                try:
                    report = db.oracle_lower_expectation(
                        p, f, family, delta, 60
                    )
                except db.EmptyFeasibleError:
                    continue
                assert report.grid_minimum >= closed - 1e-12 * (1 + abs(closed))

    @pytest.mark.parametrize(
        "center",
        [
            [1 - 6e-309, 3e-309, 3e-309],  # overflows in the rows' distance sum
            [3e-309, 3e-309, 1 - 6e-309],  # overflows in a block's first two terms
            [1 - 9e-309, 3e-309, 3e-309, 3e-309],
        ],
        ids=["row-sum", "block-lead", "n4"],
    )
    def test_an_overflowing_distance_sum_does_not_warn(self, center):
        # Two subnormal weights make some grid rows' chi-squared terms each
        # finite but their sum past the float range: those rows lie outside
        # the ball, and the report is the one computed with warnings ignored.
        p, f = db.Pmf(center), db.Objective(range(len(center)))

        def report(action):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                r = db.oracle_lower_expectation(p, f, "chi2", 1e308, 20)
            return r.grid_minimum, r.feasible_count, r.grid_argmin.weights.tobytes()

        assert report("error") == report("ignore")


def lex_reference(n, resolution):
    """Every composition, in lexicographic order, built by itertools."""
    return [
        (*head, resolution - sum(head))
        for head in itertools.product(range(resolution + 1), repeat=n - 1)
        if sum(head) <= resolution
    ]


def full_matrix_reference(p, f, family, delta, resolution):
    """The whole-grid oracle that the streamed one replaced: one composition
    matrix in lexicographic order, one mask, one argmin."""

    def build(parts, total):
        if parts == 1:
            return np.array([[total]], dtype=np.int64)
        blocks = []
        for first in range(total + 1):
            rest = build(parts - 1, total - first)
            block = np.empty((rest.shape[0], parts), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            blocks.append(block)
        return np.vstack(blocks)

    W = build(p.n, resolution) / float(resolution)
    pw, fv = p.weights, f.values
    family = db.BallFamily(family)
    # Column passes, left to right, with the definitional loops' operations.
    if family is db.BallFamily.TV:
        acc = np.abs(W[:, 0] - pw[0])
        for j in range(1, p.n):
            acc = acc + np.abs(W[:, j] - pw[j])
        dists = 0.5 * acc
    else:
        dists = (W[:, 0] - pw[0]) ** 2 / pw[0]
        for j in range(1, p.n):
            dists = dists + (W[:, j] - pw[j]) ** 2 / pw[j]
    mask = dists <= delta
    feasible_count = int(np.count_nonzero(mask))
    if feasible_count == 0:
        raise db.EmptyFeasibleError(
            f"no grid point at resolution {resolution} lies in the "
            f"{family.value} ball of radius {delta}"
        )
    values = W[:, 0] * fv[0]
    for j in range(1, p.n):
        values = values + W[:, j] * fv[j]
    masked = np.where(mask, values, np.inf)
    idx = int(np.argmin(masked))
    if not mask[idx]:
        # Every feasible expectation overflowed to +inf: the first feasible
        # point is the lexicographically first minimum.
        idx = int(np.argmax(mask))
    argmin_weights = W[idx]
    span = float(f.values.max() - f.values.min())
    return (
        np.float64(naive_expectation(argmin_weights, f.values)).tobytes(),
        argmin_weights.tobytes(),
        feasible_count,
        np.float64(span * p.n / resolution).tobytes(),
    )


def assert_matches_reference(p, f, family, delta, resolution):
    """The oracle's report bytes, or its EmptyFeasibleError message, equal
    the whole-grid reference's; True when some grid point is feasible."""
    try:
        expected = full_matrix_reference(p, f, family, delta, resolution)
    except db.EmptyFeasibleError as err:
        with pytest.raises(db.EmptyFeasibleError) as got:
            db.oracle_lower_expectation(p, f, family, delta, resolution)
        assert str(got.value) == str(err)
        return False
    report = db.oracle_lower_expectation(p, f, family, delta, resolution)
    assert (
        np.float64(report.grid_minimum).tobytes(),
        report.grid_argmin.weights.tobytes(),
        report.feasible_count,
        np.float64(report.tolerance).tobytes(),
    ) == expected
    return True


class TestStreamedGrid:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("resolution", [1, 2, 7, 60])
    def test_blocks_concatenate_to_the_lex_list(self, n, resolution):
        blocks = list(_composition_blocks(n, resolution))
        assert len(blocks) == (1 if n == 1 else resolution + 1)
        assert [tuple(row) for row in np.vstack(blocks)] == lex_reference(n, resolution)

    def test_reports_match_the_full_matrix(self):
        rng = np.random.default_rng(66)
        raised = 0
        for _ in range(300):
            n = int(rng.integers(1, 5))
            resolution = int(rng.integers(1, 40))
            p = random_pmf(rng, n, floor=0.01)
            kind = int(rng.integers(3))
            if kind == 0:
                f = random_objective(rng, n)
            elif kind == 1:  # tied payoffs
                f = db.Objective(rng.integers(0, 2, n).astype(float))
            else:  # constant payoff: every feasible point ties
                f = db.Objective(np.full(n, float(rng.uniform(-2, 2))))
            family = ("tv", "chi2")[int(rng.integers(2))]
            delta = float(rng.choice([0.0, 0.01, 0.2, 1.5]))
            raised += not assert_matches_reference(p, f, family, delta, resolution)
        assert 0 < raised < 300

    @pytest.mark.parametrize("family, delta", [("tv", 0.125), ("chi2", 0.05)])
    def test_constant_payoff_takes_the_lex_first_feasible_point(self, family, delta):
        # The ball lies far from the first coordinate's zero, so block 0 has
        # no feasible point; a power-of-two resolution makes every feasible
        # expectation the same float, so only the order decides the argmin.
        p, f = db.validate([0.75, 0.125, 0.125], [2.0, 2.0, 2.0], family)
        report = db.oracle_lower_expectation(p, f, family, delta, 16)
        first = next(
            q for q in enumerate_compositions(3, 16)
            if oracle.naive_divergence(q, p, family) <= delta
        )
        assert first.weights[0] > 0.0
        assert report.grid_argmin.weights.tobytes() == first.weights.tobytes()

    def test_overflowing_expectations_give_way_to_a_feasible_point(self):
        # The only feasible point's expectation overflows to +inf, the value
        # that fills the infeasible rows, so the argmin must not stay on
        # block 0's first row, which lies outside the ball.  At 0.1 the rows
        # evaluated in the point's block start with one outside the ball.
        big = np.finfo(float).max
        p, f = db.validate([0.2, 0.4, 0.4], [big, big, big], "tv")
        for delta in (0.0, 0.1):
            with np.errstate(over="ignore"):
                report = db.oracle_lower_expectation(p, f, "tv", delta, 5)
            assert report.grid_minimum == math.inf
            assert report.feasible_count == 1
            assert report.grid_argmin.weights.tobytes() == (np.array([1, 2, 2]) / 5.0).tobytes()

    @pytest.mark.parametrize(
        "center, resolution, family, delta",
        [([0.6, 0.2, 0.2], 10, "tv", 0.2), ([0.4, 0.3, 0.3], 10, "chi2", 0.1)],
    )
    def test_partly_overflowing_expectations_match_the_full_matrix(
        self, center, resolution, family, delta
    ):
        big = np.finfo(float).max
        p, f = db.validate(center, [big, big, big], family)
        with np.errstate(over="ignore"):
            assert assert_matches_reference(p, f, family, delta, resolution)
            report = db.oracle_lower_expectation(p, f, family, delta, resolution)
        assert math.isfinite(report.grid_minimum)

    def test_peak_memory_stays_at_one_block(self):
        # The whole n = 4, resolution 250 grid is 2.7M points; as one float
        # matrix it alone would take 85 MB.
        p, f = db.validate([0.1, 0.2, 0.3, 0.4], [3.0, 1.0, 4.0, 1.5], "chi2")
        tracemalloc.start()
        try:
            db.oracle_lower_expectation(p, f, "chi2", 0.3, 250)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def on_grid_center(rng, n, resolution):
    """A positive center whose weights are multiples of 1/resolution."""
    counts = 1 + rng.multinomial(resolution - n, np.full(n, 1.0 / n))
    return db.Pmf(counts / float(resolution))


def term_tables(p, family, resolution):
    """Each coordinate's distance term at every grid value, and the factor
    that turns a sum of terms into the distance."""
    grid = np.arange(resolution + 1) / float(resolution)
    if db.BallFamily(family) is db.BallFamily.TV:
        return [np.abs(grid - w) for w in p.weights], 0.5
    return [(grid - w) ** 2 / w for w in p.weights], 1.0


BIG = np.finfo(float).max
EDGE_PAYOFFS = {
    "continuous": lambda rng, n: rng.uniform(-1, 1, n),
    "tied": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "constant": lambda rng, n: np.full(n, 0.3),
    "overflowing": lambda rng, n: np.full(n, BIG),
    "mixed_overflowing": lambda rng, n: np.array([BIG, 0.5, BIG, -1.0][:n]),
}


class TestPruningEdges:
    """The streamed search skips blocks and rows by partial sums; at radii on
    those sums, and at the grid's extremes, it must keep the whole-grid bits."""

    @pytest.mark.parametrize("family", ["tv", "chi2"])
    def test_radius_on_a_leading_term_or_a_first_two_sum(self, family):
        rng = np.random.default_rng(2020)
        hits = 0
        for trial in range(80):
            n = int(rng.integers(2, 5))
            resolution = int(rng.integers(n, 25))
            if trial % 2:
                p = on_grid_center(rng, n, resolution)
            else:
                p = random_pmf(rng, n, floor=0.01)
            f = random_objective(rng, n)
            terms, scale = term_tables(p, family, resolution)
            counts = np.rint(p.weights * resolution).astype(int)
            a = int(rng.integers(resolution + 1))
            if trial % 2 and a <= counts[0] + counts[1]:
                # On a grid center, (a, b, counts[2:]) has exactly the first
                # two terms as its distance: a feasible row on the boundary.
                b = int(counts[0] + counts[1] - a)
            else:
                b = int(rng.integers(resolution + 1 - a))
            for edge in (scale * terms[0][a], scale * (terms[0][a] + terms[1][b])):
                for delta in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)):
                    hits += assert_matches_reference(p, f, family, float(delta), resolution)
        assert hits > 0

    @pytest.mark.parametrize("family", ["tv", "chi2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("resolution", [1, 2, 9])
    def test_zero_and_infinite_radius_on_every_payoff_kind(self, family, n, resolution):
        rng = np.random.default_rng(100 * n + resolution)
        centers = [random_pmf(rng, n, floor=0.01)]
        if resolution >= n:
            centers.append(on_grid_center(rng, n, resolution))
        for p in centers:
            for draw in EDGE_PAYOFFS.values():
                f = db.Objective(draw(rng, n))
                for delta in (0.0, math.inf, 0.05):
                    with np.errstate(over="ignore"):
                        assert_matches_reference(p, f, family, delta, resolution)

    @pytest.mark.parametrize("center", [[0.5, 0.0, 0.5], [0.0, 0.25, 0.25, 0.5], [1.0, 0.0]])
    @pytest.mark.parametrize("resolution", [1, 4, 13])
    def test_tv_center_with_a_zero_weight(self, center, resolution):
        rng = np.random.default_rng(resolution)
        p = db.Pmf(center)
        for draw in EDGE_PAYOFFS.values():
            f = db.Objective(draw(rng, p.n))
            for delta in (0.0, 0.125, 0.3, 1.0, math.inf):
                with np.errstate(over="ignore"):
                    assert_matches_reference(p, f, "tv", delta, resolution)


class TestOracleCheckVerdict:
    def _report(self, grid_minimum, tolerance):
        return db.OracleReport(
            grid_minimum=grid_minimum,
            grid_argmin=db.Pmf(np.array([1.0])),
            resolution=100,
            feasible_count=1,
            tolerance=tolerance,
        )

    def test_passes_inside_sandwich(self):
        assert oracle_check_verdict(1.0, self._report(1.005, 0.01), 0.1, 0.2)

    def test_corrupted_closed_form_fails(self):
        # closed form bumped +0.1: the grid minimum now sits below it.
        assert not oracle_check_verdict(1.1, self._report(1.005, 0.01), 0.1, 0.2)

    def test_gap_above_tolerance_fails(self):
        assert not oracle_check_verdict(1.0, self._report(1.02, 0.01), 0.1, 0.2)

    def test_infeasible_minimizer_fails(self):
        assert not oracle_check_verdict(1.0, self._report(1.005, 0.01), 0.3, 0.2)
