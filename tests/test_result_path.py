"""The result path: each solve builds its minimizer once, in original order,
and wraps it with ``Pmf._solved``, which checks only the mass."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divball as db
from divball import chi2
from divball.chi2 import CriticalDeltas
from divball.core import _STABLE_SORT_MAX, SUM_TOLERANCE
from crosscheck import chi2_minimizer, level_ends

CENTER = ([0.2, 0.5, 0.3], [1.0, 0.0, 2.0])
LABELS = ("a", "b", "c")


def solves(family):
    """Every way to a bound: the one-shot functions and a Problem."""
    pmf, obj = db.validate(*CENTER, family)
    pmf = db.Pmf(pmf.weights, labels=LABELS)
    prepared = db.Problem(pmf, obj, family)
    lower = getattr(db, f"{family}_lower_expectation")
    upper = getattr(db, f"{family}_upper_expectation")
    return pmf, [
        lambda d: lower(pmf, obj, d),
        lambda d: upper(pmf, obj, d),
        prepared.lower,
        prepared.upper,
    ]


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_minimizer_is_read_only_with_the_center_labels(family):
    pmf, paths = solves(family)
    for solve in paths:
        for delta in (0.0, 0.1, 0.6, 5.0):
            minimizer = solve(delta).minimizer
            assert not minimizer.weights.flags.writeable
            assert minimizer.labels is pmf.labels
            with pytest.raises(ValueError):
                minimizer.weights[0] = 0.5


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_no_pmf_validation_per_solve(family, monkeypatch):
    _, paths = solves(family)
    built = []
    monkeypatch.setattr(db.Pmf, "__post_init__", lambda self: built.append(self))
    for solve in paths:
        for delta in (0.0, 0.1, 0.6, 5.0):
            solve(delta)
    assert built == []


def test_solved_divides_in_place_with_pmf_bits():
    weights = np.array([0.1, 0.2, 0.7 + 4e-10])
    want = db.Pmf(weights.copy()).weights
    wrapped = db.Pmf._solved(weights, None)
    assert wrapped.weights is weights
    assert wrapped.weights.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "weights, shown",
    [([np.nan, 1.0], "nan"), ([0.5, 0.5 + 2 * SUM_TOLERANCE], "1.000000002")],
)
def test_solved_rejects_a_bad_mass(weights, shown):
    with pytest.raises(db.SumNotOneError, match=f"weights sum to {shown}"):
        db.Pmf._solved(np.array(weights), None)


# A solve whose head is NaN, or off in mass, must raise under ``-O`` too.
SCRIPT = """
import numpy as np
import divball as db
from divball import chi2
true_head = chi2._minimizer_head
for fault in (lambda h: h * np.nan, lambda h: h * (1.0 + 1e-8)):
    chi2._minimizer_head = lambda sp, r, delta: fault(true_head(sp, r, delta))
    p, f = db.validate([0.2, 0.5, 0.3], [1.0, 0.0, 2.0], "chi2")
    for solve in (db.chi2_lower_expectation, db.chi2_upper_expectation):
        try:
            solve(p, f, 0.3)
            print("returned")
        except db.SumNotOneError as exc:
            print(type(exc).__name__, str(exc).split(",")[0])
"""


def test_faulty_head_raises_under_optimized_interpreter():
    src = str(Path(db.__file__).resolve().parents[1])
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-W", "ignore", "-c", SCRIPT],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stderr
        assert lines[:2] == ["SumNotOneError weights sum to nan"] * 2
        assert len(lines) == 4 and all(
            line.startswith("SumNotOneError weights sum to 1.0000000") for line in lines[2:]
        ), lines


def test_chi2_minimizer_pads_the_solve_head():
    # The public sorted minimizer and the solve share one head.
    pmf, obj = db.validate(*CENTER, "chi2")
    cd = CriticalDeltas(pmf, obj)
    for delta in (0.0, 0.05, 0.3, 5.0):
        res = db.chi2_lower_expectation(pmf, obj, delta)
        sorted_weights = chi2_minimizer(cd, cd.value(delta)[1], delta).weights
        assert res.minimizer.weights[cd.perm].tobytes() == sorted_weights.tobytes()


def test_chi2_minimizer_bytes_match_the_padded_head():
    # The sorted minimizer is the head in a zeroed array: np.pad's bytes,
    # also on a tied side, collapsed to its levels, either side of the
    # sort's crossover.
    rng = np.random.default_rng(21)
    for n in (*range(1, 17), _STABLE_SORT_MAX + 1):
        p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        for f in (rng.uniform(-1.0, 1.0, n), np.round(rng.uniform(-1.0, 1.0, n) * 2) / 3):
            cd = CriticalDeltas(*db.validate(p, f, "chi2"))
            probes = [(cd.value(d)[1], d) for d in (0.0, 0.05, 0.7, 50.0)]
            # The support size whose critical radius each entry of finite is.
            sizes = level_ends(cd)[1:] + 1
            probes += [(int(k), float(r)) for k, r in zip(sizes, cd.finite)]
            for r, delta in probes:
                padded = np.pad(chi2._minimizer_head(cd, r, delta), (0, cd.n - r))
                want = db.Pmf._solved(padded, None).weights
                got = chi2_minimizer(cd, r, delta).weights
                assert got.tobytes() == want.tobytes()
