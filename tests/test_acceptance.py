"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the test names mirror the criteria.
"""

import json
import math
import time

import numpy as np
import pytest

import divball as db
from divball import cli
from divball.chi2 import CriticalDeltas
from divball.core import SortedProblem, suffix_masses
from divball.oracle import naive_chi2_divergence, naive_tv_distance
from crosscheck import chi2_minimizer, chi2_three_point, chi2_two_point, critical_delta, level_ends
from conftest import assert_tv_pattern, criterion, grid_round, random_objective, random_pmf, sorted_minimizer

SEED = 20260810


# ---------------------------------------------------------------- helpers

def tv_structure_check(p, f, delta):
    """Minimizer distance and shape for one TV instance (1e-12 tolerances)."""
    res = db.tv_lower_expectation(p, f, delta)
    sp = SortedProblem(p, f)
    delta_eff = min(min(delta, 1.0), 1.0 - float(sp.p_sorted[0]))
    assert abs(db.tv_distance(res.minimizer, p) - delta_eff) <= 1e-12
    assert_tv_pattern(sp, sorted_minimizer(sp, res), delta_eff, res.active_index)


def prop1_check(pmf, obj):
    """Critical radii positive and non-increasing (1e-12 inversion budget)."""
    cd = CriticalDeltas(pmf, obj)
    finite = cd.finite
    if finite.size:
        assert finite[-1] > 0.0
        for a, b in zip(finite, finite[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a))
    return cd


def chi2_consistency_check(pmf, obj, delta):
    """Branch continuity, boundary attainment, and vanishing top coordinate,
    level by level: a support of ``j + 1`` levels ends at outcome ``ends[j]``."""
    cd = CriticalDeltas(pmf, obj)
    tails = suffix_masses(cd.p_sorted)
    ends = level_ends(cd)

    def branch_value(j, d):
        if j == 0:
            return float(cd.f_sorted[0])
        e = ends[j]
        rad = max(cd.prefix_mass[j] * d - tails[e], 0.0)
        return float((cd.f_sorted[e] - cd.gap[j]) - math.sqrt(cd.prefix_var[j]) * math.sqrt(rad))

    for j in range(1, ends.size):
        k = int(ends[j]) + 1
        dk = critical_delta(cd, k)
        a, b = branch_value(j, dk), branch_value(j - 1, dk)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))
        q_at_break = chi2_minimizer(cd, k, dk)
        assert abs(q_at_break.weights[k - 1]) <= 1e-9

    res = db.chi2_lower_expectation(pmf, obj, delta)
    if res.branch == "interior":
        assert abs(db.chi2_divergence(res.minimizer, pmf) - delta) <= 1e-9
    else:
        assert db.chi2_divergence(res.minimizer, pmf) <= delta + 1e-12


def axioms_check(pmf, obj, family, rng, deltas=None):
    """Translation, homogeneity, monotonicity, range, and conjugacy."""
    solve_lower = (
        db.tv_lower_expectation if family is db.BallFamily.TV else db.chi2_lower_expectation
    )
    solve_upper = (
        db.tv_upper_expectation if family is db.BallFamily.TV else db.chi2_upper_expectation
    )
    if deltas is None:
        top = 1.2 if family is db.BallFamily.TV else 3.0
        deltas = np.sort(rng.uniform(0, top, 4))
    center = db.expectation(pmf, obj)
    f_min = float(obj.values.min())
    span = float(obj.values.max() - obj.values.min())
    shift = float(rng.uniform(-5, 5))
    lam = float(rng.uniform(0, 3))

    values = []
    for d in deltas:
        d = float(d)
        base = solve_lower(pmf, obj, d).value
        values.append(base)
        assert f_min - 1e-9 * (1 + span) <= base <= center + 1e-9 * (1 + span)
        assert abs(db.expectation(solve_lower(pmf, obj, d).minimizer, obj) - base) <= 1e-9
        shifted = solve_lower(pmf, db.Objective(obj.values + shift), d).value
        assert abs(shifted - (base + shift)) <= 1e-9 * (1 + abs(shift))
        scaled = solve_lower(pmf, db.Objective(lam * obj.values), d).value
        assert abs(scaled - lam * base) <= 1e-9 * (1 + lam)
        assert solve_upper(pmf, obj, d).value == -solve_lower(pmf, db.Objective(-obj.values), d).value
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9 * (1 + span)


# ---------------------------------------------------------------- criteria

def test_criterion_1_tv_oracle_sandwich():
    with criterion("criterion 1 (oracle sandwich, TV)"):
        rng = np.random.default_rng(SEED)
        start = time.monotonic()
        for _ in range(200):
            n = int(rng.integers(2, 5))
            resolution = 200 if n <= 3 else 100
            p = random_pmf(rng, n, grid=resolution)
            f = random_objective(rng, n, -1.0, 1.0)
            delta = float(rng.uniform(0.0, 1.2))
            res = db.tv_lower_expectation(p, f, delta)
            report = db.oracle_lower_expectation(p, f, "tv", delta, resolution)
            span = float(f.values.max() - f.values.min())
            gap = report.grid_minimum - res.value
            assert gap >= -1e-12 * (1.0 + span)
            assert gap <= span * n / resolution
            assert naive_tv_distance(res.minimizer, p) <= delta + 1e-9
        assert time.monotonic() - start < 60.0


def test_criterion_2_chi2_oracle_sandwich():
    with criterion("criterion 2 (oracle sandwich, chi-squared)"):
        rng = np.random.default_rng(SEED + 1)
        start = time.monotonic()
        for _ in range(200):
            n = int(rng.integers(2, 5))
            resolution = 200 if n <= 3 else 100
            p = random_pmf(rng, n, floor=0.05)
            f = random_objective(rng, n, -1.0, 1.0)
            delta = float(rng.uniform(0.0, 3.0))
            res = db.chi2_lower_expectation(p, f, delta)
            span = float(f.values.max() - f.values.min())
            tolerance = span * n / resolution
            try:
                report = db.oracle_lower_expectation(
                    p, f, "chi2", delta, resolution
                )
            except db.EmptyFeasibleError:
                # Off-grid center with a radius below mesh reach: compare the
                # closed form against the radius-0 value instead.
                gap = db.expectation(p, f) - res.value
                assert -1e-12 * (1.0 + span) <= gap <= tolerance
                continue
            gap = report.grid_minimum - res.value
            assert gap >= -1e-12 * (1.0 + span)
            assert gap <= tolerance
            assert naive_chi2_divergence(res.minimizer, p) <= delta + 1e-9
        assert time.monotonic() - start < 60.0


def test_criterion_3_tv_minimizer_structure():
    with criterion("criterion 3 (TV minimizer distance and shape)"):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            w = rng.dirichlet(np.ones(n))
            if n > 1 and rng.random() < 0.25:
                w[int(rng.integers(0, n))] = 0.0
                w = w / w.sum()
            p = db.Pmf(w)
            f_vals = rng.uniform(-1, 1, n)
            if rng.random() < 0.3:
                f_vals = np.round(f_vals, 1)
            tv_structure_check(p, db.Objective(f_vals), float(rng.uniform(0, 1.3)))


def test_criterion_4_critical_radius_ordering():
    with criterion("criterion 4 (critical radius ordering)"):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            pmf = random_pmf(rng, n, floor=1e-6 if n > 1 else None)
            f_vals = rng.uniform(-1, 1, n)
            if rng.random() < 0.3:
                f_vals = np.round(f_vals, 1)
            prop1_check(pmf, db.Objective(f_vals))


def test_criterion_5_chi2_internal_consistency():
    with criterion("criterion 5 (chi-squared branch consistency)"):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            pmf = random_pmf(rng, n, floor=0.01)
            f_vals = rng.uniform(-2, 2, n)
            if rng.random() < 0.3:
                f_vals = np.round(f_vals, 1)
            chi2_consistency_check(pmf, db.Objective(f_vals), float(rng.uniform(0, 4)))


def test_criterion_6_special_case_equivalence():
    with criterion("criterion 6 (two- and three-point forms match general)"):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(1000):
            pmf = random_pmf(rng, 2, floor=0.02)
            obj = random_objective(rng, 2)
            delta = float(rng.uniform(0, 3))
            a = chi2_two_point(pmf, obj, delta)
            b = db.chi2_lower_expectation(pmf, obj, delta).value
            assert abs(a - b) <= 1e-12 * (1.0 + abs(b))
        for _ in range(1000):
            pmf = random_pmf(rng, 3, floor=0.02)
            obj = random_objective(rng, 3)
            delta = float(rng.uniform(0, 3))
            a = chi2_three_point(pmf, obj, delta)
            b = db.chi2_lower_expectation(pmf, obj, delta).value
            assert abs(a - b) <= 1e-12 * (1.0 + abs(b))
        # Worked values.
        pmf, obj = db.validate([0.5, 0.5], [0, 1], "chi2")
        assert abs(chi2_two_point(pmf, obj, 0.25) - 0.25) <= 1e-12
        assert abs(db.chi2_lower_expectation(pmf, obj, 0.25).value - 0.25) <= 1e-12
        pmf, obj = db.validate([1 / 3, 1 / 3, 1 / 3], [0, 1, 2], "chi2")
        expected = 0.5 - 0.5 * math.sqrt(1.0 / 3.0)
        assert abs(chi2_three_point(pmf, obj, 1.0) - expected) <= 1e-12
        assert abs(db.chi2_lower_expectation(pmf, obj, 1.0).value - expected) <= 1e-12
        assert round(expected, 5) == 0.21132


def test_criterion_7_lower_expectation_axioms():
    with criterion("criterion 7 (lower-expectation axioms, both balls)"):
        rng = np.random.default_rng(SEED + 6)
        for i in range(1000):
            n = int(rng.integers(1, 9))
            family = db.BallFamily.TV if i % 2 == 0 else db.BallFamily.CHI2
            floor = 0.01 if family is db.BallFamily.CHI2 else None
            pmf = random_pmf(rng, n, floor=floor)
            obj = random_objective(rng, n, -2, 2)
            axioms_check(pmf, obj, family, rng)


def test_criterion_8_degenerate_totality():
    with criterion("criterion 8 (degenerate cases stay total)"):
        rng = np.random.default_rng(SEED + 7)
        cases = [
            # (p, f) pairs covering: constant objective, single outcome,
            # tied-bottom plateaus, and zero weights (TV only).
            ([0.2, 0.3, 0.5], [1.0, 1.0, 1.0]),
            ([1.0], [4.25]),
            ([0.5, 0.25, 0.25], [0.0, 0.0, 1.0]),
            ([0.1, 0.2, 0.3, 0.4], [2.0, -1.0, -1.0, 2.0]),
            ([0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 1.0]),
        ]
        deltas = [0.0, 0.3, 1.0, 2.5]
        for raw_p, raw_f in cases:
            pmf, obj = db.validate(raw_p, raw_f)
            for d in deltas:
                tv_structure_check(pmf, obj, d)
                chi2_consistency_check(pmf, obj, d)
                prop1_check(pmf, obj)
            axioms_check(pmf, obj, db.BallFamily.TV, rng, deltas=deltas)
            axioms_check(pmf, obj, db.BallFamily.CHI2, rng, deltas=deltas)
        # Zero weights are legal for TV.
        pmf, obj = db.validate([0.0, 0.6, 0.4], [3.0, 1.0, 2.0])
        for d in deltas:
            tv_structure_check(pmf, obj, d)
        axioms_check(pmf, obj, db.BallFamily.TV, rng, deltas=deltas)
        # delta = 0 reproduces the center expectation for both balls.
        for _ in range(50):
            n = int(rng.integers(1, 7))
            pmf = random_pmf(rng, n, floor=0.02)
            obj = random_objective(rng, n)
            center = db.expectation(pmf, obj)
            assert abs(db.tv_lower_expectation(pmf, obj, 0.0).value - center) <= 1e-12
            assert abs(db.chi2_lower_expectation(pmf, obj, 0.0).value - center) <= 1e-12


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    with criterion("criterion 9 (CLI sweep and radius round trip)"):
        tv_file = tmp_path / "tv.json"
        tv_file.write_text(
            json.dumps({"p": [0.3, 0.7], "f": [0.0, 1.0], "ball": "tv", "delta": 0.1}),
            encoding="utf-8",
        )
        chi2_file = tmp_path / "chi2.json"
        chi2_file.write_text(
            json.dumps({"p": [0.5, 0.5], "f": [0.0, 1.0], "ball": "chi2", "delta": 0.1}),
            encoding="utf-8",
        )

        assert cli.main(["--input", str(tv_file), "--sweep", "0:1:11", "--output", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "delta,lower,upper,r,branch"
        assert len(lines) == 12
        rows = [line.split(",") for line in lines[1:]]
        deltas = [float(r[0]) for r in rows]
        lowers = [float(r[1]) for r in rows]
        uppers = [float(r[2]) for r in rows]
        np.testing.assert_allclose(deltas, np.linspace(0, 1, 11), atol=1e-15)
        for a, b in zip(lowers, lowers[1:]):
            assert b <= a + 1e-12
        for a, b in zip(uppers, uppers[1:]):
            assert b >= a - 1e-12
        for row in rows:
            assert row[4] in ("interior", "plateau", "degenerate")
            int(row[3])

        assert cli.main(["--input", str(tv_file), "--radius", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["delta_star"] - 0.2) <= 1e-9

        assert cli.main(["--input", str(chi2_file), "--radius", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["delta_star"] - 0.25) <= 1e-9
