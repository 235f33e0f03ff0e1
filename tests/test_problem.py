"""The prepared problem: sorting once per side changes no output bit."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import divball as db
from divball import chi2, cli, core, problem, tv

# Each case covers a branch the prepared path must reproduce exactly: a TV
# radius that moves all mass (degenerate), a chi^2 radius past every critical
# radius (plateau), and tied payoffs, where the stable order of -f is not
# the reverse of the stable order of f.
TIED = {"p": [0.2, 0.1, 0.3, 0.15, 0.25], "f": [1.0, 0.0, 1.0, 2.0, 0.0]}
SWEEP_CASES = {
    "tv_degenerate": ({"p": [0.15, 0.35, 0.3, 0.2], "f": [0.3, -1.0, 2.5, 0.7], "ball": "tv"}, "0:1:11"),
    "chi2_plateau": ({"p": [0.25, 0.1, 0.4, 0.25], "f": [1.0, 0.0, 2.0, 0.5], "ball": "chi2"}, "0:40:9"),
    "tv_ties": (dict(TIED, ball="tv"), "0:0.9:10"),
    "chi2_ties": (dict(TIED, ball="chi2"), "0:30:13"),
}


def bits(x):
    return float(x).hex()


def one_shot(obj, delta):
    p, f = db.validate(obj["p"], obj["f"], obj["ball"])
    family = obj["ball"]
    lower = getattr(db, f"{family}_lower_expectation")(p, f, delta)
    upper = getattr(db, f"{family}_upper_expectation")(p, f, delta)
    return lower, upper


def run_cli(tmp_path, capsys, obj, *args):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["--input", str(path), *args]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_match_one_shot_bounds(tmp_path, capsys, case):
    obj, sweep = SWEEP_CASES[case]
    csv_lines = run_cli(tmp_path, capsys, obj, "--sweep", sweep).strip().split("\n")[1:]
    json_rows = json.loads(run_cli(tmp_path, capsys, obj, "--sweep", sweep, "--output", "json"))
    assert len(csv_lines) == len(json_rows)
    branches = set()
    for line, row in zip(csv_lines, json_rows):
        delta, lower, upper, r, branch = line.split(",")
        assert float(delta) == row["delta"]
        lo, up = one_shot(obj, row["delta"])
        assert (bits(lower), bits(upper), int(r), branch) == (
            bits(lo.value), bits(up.value), lo.active_index, lo.branch
        )
        assert (bits(row["lower"]), bits(row["upper"]), row["r"], row["branch"]) == (
            bits(lo.value), bits(up.value), lo.active_index, lo.branch
        )
        branches.add(branch)
    expected = {"tv_degenerate": "degenerate", "chi2_plateau": "plateau"}.get(case)
    assert expected is None or expected in branches


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_problem_bounds_match_one_shot_bit_for_bit(case):
    obj, sweep = SWEEP_CASES[case]
    p, f = db.validate(obj["p"], obj["f"], obj["ball"])
    prepared = db.Problem(p, f, obj["ball"])
    start, stop, steps = sweep.split(":")
    for delta in np.linspace(float(start), float(stop), int(steps)):
        for got, want in zip((prepared.lower(delta), prepared.upper(delta)), one_shot(obj, delta)):
            assert bits(got.value) == bits(want.value)
            assert (got.active_index, got.branch) == (want.active_index, want.branch)
            assert got.minimizer.weights.tobytes() == want.minimizer.weights.tobytes()


def test_tie_case_orders_differ():
    f = np.array(TIED["f"])
    up = np.argsort(-f, kind="stable")
    assert not np.array_equal(up, np.argsort(f, kind="stable")[::-1])


def test_single_radius_json_matches_one_shot(tmp_path, capsys):
    obj = dict(SWEEP_CASES["chi2_ties"][0], labels=["a", "b", "c", "d", "e"], delta=0.7)
    payload = json.loads(run_cli(tmp_path, capsys, obj))
    lo, up = one_shot(obj, 0.7)
    assert bits(payload["value"]) == bits(lo.value)
    assert bits(payload["upper_value"]) == bits(up.value)
    assert np.array(payload["minimizer"]).tobytes() == lo.minimizer.weights.tobytes()


# A many_small deck item whose maximizer's mass is off by 2e-8: the
# single-radius JSON prints only the upper value, so it must not build one.
REPRODUCER = {
    "p": [0.00014816136143057897, 1.7895240451388634e-17, 0.33182106923889904,
          0.6679387899264273, 1.871921821986272e-27, 8.201725383926384e-05,
          8.835318121531315e-16, 9.962219402920228e-06, 9.999999999999999e-301],
    "f": [0.5, 1.0, 0.5, -0.5, -0.5, -1.0, -1.0, -1.0, 0.0],
    "delta": 22.388501058708552,
}


@pytest.mark.parametrize("ball", ["tv", "chi2"])
@pytest.mark.parametrize(
    "obj",
    [
        REPRODUCER,
        *(dict(TIED, delta=d) for d in (0.0, 0.3, 0.9, 40.0)),
        dict(SWEEP_CASES["tv_degenerate"][0], delta=0.5),
    ],
    ids=["reproducer", "tied0", "tied0.3", "tied0.9", "tied40", "untied"],
)
def test_single_radius_json_matches_the_csv_row(tmp_path, capsys, ball, obj):
    obj = dict(obj, ball=ball)
    payload = json.loads(run_cli(tmp_path, capsys, obj))
    header, row = run_cli(tmp_path, capsys, obj, "--output", "csv").strip().split("\n")
    delta, lower, upper, r, branch = row.split(",")
    assert (bits(payload["value"]), bits(payload["upper_value"]), payload["r"], payload["branch"]) == (
        bits(lower), bits(upper), int(r), branch
    )


def test_sides_are_single_objects():
    p, f = db.validate(TIED["p"], TIED["f"], "chi2")
    for family in ("tv", "chi2"):
        prepared = db.Problem(p, f, family)
        prepared.lower(0.3)
        prepared.upper(0.3)
        for negated, side in prepared._sides.items():
            if family == "tv":
                assert type(side) is tv.TVSide
                assert side.center is p.weights
                continue
            assert type(side) is chi2.CriticalDeltas
            sp = core.SortedProblem(p, f.negated() if negated else f)
            for name in ("perm", "p_sorted", "f_sorted", "tails"):
                assert getattr(side, name).tobytes() == getattr(sp, name).tobytes()
            assert (side.plateau, side.n) == (sp.plateau, sp.n)
            moments = chi2._prefix_moments(side.p_sorted, side.f_sorted)
            for got, want in zip((side.prefix_mass, side.gap, side.prefix_var), moments):
                assert got.tobytes() == want.tobytes()
            cd = chi2.CriticalDeltas(p, f.negated() if negated else f)
            assert cd.finite.tobytes() == side.finite.tobytes()


def counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "args, sides",
    [(["--sweep", "0:5:50"], 2), (["--delta", "0.3"], 2), (["--radius", "0.5"], 1)],
)
def test_cli_sorts_once_per_side(tmp_path, capsys, monkeypatch, args, sides):
    # Each side takes its tails once; the payoff is sorted once for both.
    counts = {}
    counting(monkeypatch, core, "suffix_masses", counts)
    counting(monkeypatch, core, "_stable_order", counts)
    obj, _ = SWEEP_CASES["chi2_ties"]
    run_cli(tmp_path, capsys, obj, *args)
    assert counts == {"suffix_masses": sides, "_stable_order": 1}


def test_one_shot_sorts_once(monkeypatch):
    counts = {}
    counting(monkeypatch, core, "suffix_masses", counts)
    counting(monkeypatch, core, "_stable_order", counts)
    p, f = db.validate([0.2, 0.5, 0.3], [1.0, 0.0, 1.0])
    db.tv_upper_expectation(p, f, 0.25)
    assert counts == {"suffix_masses": 1, "_stable_order": 1}


@pytest.mark.parametrize("args", [["--sweep", "0:5:50"], ["--delta", "0.3"]])
def test_cli_sorts_each_payoff_once(tmp_path, capsys, monkeypatch, args):
    # The upper side derives its order from the lower side's.
    counts = {}
    counting(monkeypatch, core, "_stable_order", counts)
    obj, _ = SWEEP_CASES["chi2_ties"]
    run_cli(tmp_path, capsys, obj, *args)
    assert counts == {"_stable_order": 1}


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_library_sorts_each_payoff_once(monkeypatch, family):
    counts = {}
    counting(monkeypatch, core, "_stable_order", counts)
    p, f = db.validate(TIED["p"], TIED["f"], family)
    getattr(db, f"{family}_lower_expectation")(p, f, 0.25)
    getattr(db, f"{family}_upper_expectation")(p, f, 0.25)
    assert counts.pop("_stable_order") == 1
    p, f = db.validate(TIED["p"], TIED["f"], family)
    prepared = db.Problem(p, f, family)
    for delta in (0.25, 0.5):
        prepared.upper(delta)
        prepared.lower(delta)
    assert counts.pop("_stable_order") == 1


@pytest.mark.parametrize("family", ["tv", "chi2"])
@pytest.mark.parametrize("levels", [0, 1, 3, 50])
def test_upper_alone_matches_the_negation_sorted_in_its_own_right(family, levels):
    # An upper bound with no lower bound before it derives its order from a
    # source order computed on demand; a fresh Objective holding the negated
    # values sorts them itself.  Both must give the same bits.
    rng = np.random.default_rng(70 + levels)
    for n in (1, 2, 5, 40, 700):
        for _ in range(4):
            p = rng.dirichlet(np.ones(n))
            f = rng.uniform(-1.0, 1.0, n)
            if levels:
                f = np.round(f * levels) / levels
            delta = float(rng.uniform(0.0, 1.2 if family == "tv" else 5.0))
            pmf, objective = db.validate(p, f, family)
            got = getattr(db, f"{family}_upper_expectation")(pmf, objective, delta)
            lower = getattr(db, f"{family}_lower_expectation")
            want = lower(pmf, db.Objective(-objective.values), delta)
            assert bits(got.value) == bits(-want.value)
            assert (got.active_index, got.branch) == (want.active_index, want.branch)
            assert got.minimizer.weights.tobytes() == want.minimizer.weights.tobytes()


@pytest.mark.parametrize(
    "ball, args, passes",
    [
        ("tv", ["--sweep", "0:0.9:10"], 0),
        ("tv", ["--delta", "0.3"], 0),
        ("tv", ["--radius", "0.5"], 0),
        ("chi2", ["--sweep", "0:30:13"], 2),
        ("chi2", ["--delta", "0.3"], 2),
        ("chi2", ["--radius", "0.5"], 1),
    ],
)
def test_cli_moment_passes_per_side(tmp_path, capsys, monkeypatch, ball, args, passes):
    # TV reads only tails; a chi^2 side computes its prefix moments once.
    counts = {}
    counting(monkeypatch, chi2, "_prefix_moments", counts)
    run_cli(tmp_path, capsys, dict(TIED, ball=ball), *args)
    assert counts.get("_prefix_moments", 0) == passes


@pytest.mark.parametrize("family, passes", [("tv", 0), ("chi2", 1)])
def test_one_shot_moment_passes(monkeypatch, family, passes):
    counts = {}
    counting(monkeypatch, chi2, "_prefix_moments", counts)
    p, f = db.validate(TIED["p"], TIED["f"], family)
    for side in ("lower", "upper"):
        getattr(db, f"{family}_{side}_expectation")(p, f, 0.25)
        assert counts.pop("_prefix_moments", 0) == passes


@pytest.mark.parametrize(
    "obj, theta, delta_star",
    [
        ({"p": [0.1, 0.2, 0.3, 0.25, 0.15], "f": [0.5, -1, 2, 0.5, 1.5], "ball": "tv"},
         "0.3", 0.16666666666666666),
        ({"p": [0.4, 0.35, 0.25], "f": [1, 3, 2], "ball": "chi2"}, "1.6", 0.16387959866220714),
    ],
    ids=["tv", "chi2"],
)
def test_radius_answers_are_unchanged(tmp_path, capsys, obj, theta, delta_star):
    # The smallest doubles whose exact bounds reach theta are 0.16666666666666666
    # and 0.16387959866220725 (crosscheck.reference_bound): TV lands on its
    # target, chi^2 4 ulps below it, where the computed bound already reads 1.6.
    payload = json.loads(run_cli(tmp_path, capsys, obj, "--radius", theta))
    assert payload["delta_star"] == delta_star


def test_radius_terminates_when_the_answer_is_large():
    # delta* is about 1e7, where adjacent doubles lie about 2e-9 apart; the
    # search must still end on the first one whose bound reaches theta.
    obj = {"p": [1e-7, 0.9999999], "f": [0, 1], "ball": "chi2"}
    src = str(Path(db.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "divball", "--radius", "0.0001"],
        input=json.dumps(obj),
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    star = json.loads(proc.stdout)["delta_star"]
    p, f = db.validate(obj["p"], obj["f"], "chi2")
    assert db.chi2_lower_expectation(p, f, star).value <= 1e-4
    assert db.chi2_lower_expectation(p, f, np.nextafter(star, 0.0)).value > 1e-4


def test_radius_bracket_spans_the_float_range():
    # A 1e-300 weight puts delta* near 5e299: past 2**512, within the float range.
    p, f = db.validate([1.0, 1e-300], [0.8610046048250064, 0.3092122273087854], "chi2")
    theta = 0.4747499405636517
    prepared = db.Problem(p, f, "chi2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the radii's underflowing gap
        star = problem.robustness_radius(p, f, "chi2", theta)
        assert 2.0**512 < star < math.inf
        assert prepared._value(False, star)[0] <= theta
        assert prepared._value(False, np.nextafter(star, 0.0))[0] > theta


RADIUS_REPRODUCER = {
    "p": [0.06294085039004263, 0.06231415846679216, 0.00441271338007718, 0.23016998724111834,
          0.150933921810448, 0.006998178591307987, 0.1555301357128916, 0.32670005440732225],
    "f": [-0.5856176638379975, 0.26018039957068595, -0.4036738186851505, 0.48351336013866075,
          0.44432961628423495, -0.5625691508623909, 0.6597737485486246, 0.31530442174648643],
}


def test_radius_reads_the_center_from_the_lower_side():
    # theta is E_p f as ``expectation`` rounds it, an ulp below the lower
    # bound at radius 0, so a radius of 0 does not reach it (the exact target
    # is 0.0); the answer is the first double whose computed bound does.
    p, f = db.validate(RADIUS_REPRODUCER["p"], RADIUS_REPRODUCER["f"], "tv")
    theta = 0.3576147405221671
    assert db.Problem(p, f, "tv").lower(0.0).value == 0.35761474052216713
    star = problem.robustness_radius(p, f, "tv", theta)
    assert star == 4.163336342344337e-17
    assert db.Problem(p, f, "tv").lower(star).value <= theta


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_radius_answers_reach_the_threshold_at_the_center(family):
    # A radius answer's bound is at most theta, and 0 is answered exactly
    # when the bound at radius 0 already is.
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        p, f = db.validate(rng.dirichlet(np.ones(n)), rng.uniform(-1.0, 1.0, n), family)
        prepared = db.Problem(p, f, family)
        for theta in (db.expectation(p, f), prepared._value(False, 0.0)[0]):
            star = problem.robustness_radius(p, f, family, theta)
            assert prepared._value(False, star)[0] <= theta
            assert (star == 0.0) == (prepared._value(False, 0.0)[0] <= theta)


@pytest.mark.parametrize("theta", [5.0, 0.5])
def test_radius_rejects_a_chi2_center_with_a_zero_weight(theta):
    # Above the center expectation (5.0) as below it (0.5), as a bound does.
    p, f = db.Pmf([0.0, 1.0]), db.Objective([0.0, 1.0])
    with pytest.raises(db.ZeroMassForbiddenError):
        db.Problem(p, f, "chi2").lower(0.1)
    with pytest.raises(db.ZeroMassForbiddenError):
        problem.robustness_radius(p, f, "chi2", theta)


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_radius_search_reads_values_only(monkeypatch, case):
    # Each bisection step needs the bound's value, never its minimizer.
    def solve(*args):
        raise AssertionError("the radius search built a minimizer")

    obj, _ = SWEEP_CASES[case]
    p, f = db.validate(obj["p"], obj["f"], obj["ball"])
    theta = 0.5 * (db.expectation(p, f) + float(f.values.min()))
    monkeypatch.setattr(tv.TVSide, "weights", solve)
    monkeypatch.setattr(chi2.CriticalDeltas, "weights", solve)
    star = problem.robustness_radius(p, f, obj["ball"], theta)
    monkeypatch.undo()
    prepared = db.Problem(p, f, obj["ball"])
    assert bits(prepared._value(False, star)[0]) == bits(prepared.lower(star).value)
    assert prepared.lower(star).value <= theta
