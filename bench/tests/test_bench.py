"""Tests of the benchmark itself: the output checker, the tracer and the spec.

    python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import divball  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

P = np.array([0.2, 0.3, 0.5])
F = np.array([1.0, 2.0, 3.0])
# TV ball of radius 0.4: move 0.4 from the top outcomes onto the bottom one
# (lower) or from the bottom outcomes onto the top one (upper).
LOWER = (1.5, np.array([0.6, 0.3, 0.1]), 3, "interior")
UPPER = (2.9, np.array([0.0, 0.1, 0.9]), 2, "interior")


def test_checker_accepts_hand_solved_tv_bounds():
    check.check_bounds(P, F, "tv", 0.4, LOWER, UPPER)


def test_checker_flags_infeasible_minimizer():
    # Attains its value, but lies at TV distance 0.5 > 0.4 from the center.
    far = (1.3, np.array([0.7, 0.3, 0.0]), 3, "interior")
    with pytest.raises(check.CheckFailed, match="divergence"):
        check.check_bounds(P, F, "tv", 0.4, far, UPPER)


def test_checker_flags_value_that_its_minimizer_does_not_attain():
    wrong = (1.45, LOWER[1], 3, "interior")
    with pytest.raises(check.CheckFailed, match="attains"):
        check.check_bounds(P, F, "tv", 0.4, wrong, UPPER)


def test_checker_flags_bound_far_from_its_dual():
    # Feasible and attained, but not optimal: the dual certificate catches it.
    loose = (1.6, np.array([0.5, 0.4, 0.1]), 3, "interior")
    with pytest.raises(check.CheckFailed, match="dual"):
        check.check_bounds(P, F, "tv", 0.4, loose, UPPER)


def test_checker_flags_non_pmf_minimizer():
    heavy = (1.5, np.array([0.6, 0.3, 0.2]), 3, "interior")
    with pytest.raises(check.CheckFailed, match="sums"):
        check.check_bounds(P, F, "tv", 0.4, heavy, UPPER)


@pytest.mark.parametrize("family", ["tv", "chi2"])
def test_dual_matches_library_on_random_instances(family):
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        p = rng.dirichlet(np.ones(n))
        f = np.round(rng.uniform(-1, 1, n) * 4) / 4 if rng.random() < 0.5 else rng.uniform(-1, 1, n)
        delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        pmf, obj = divball.validate(p, f, family)
        lo = getattr(divball, f"{family}_lower_expectation")(pmf, obj, delta)
        up = getattr(divball, f"{family}_upper_expectation")(pmf, obj, delta)
        check.check_bounds(
            p, f, family, delta,
            (lo.value, lo.minimizer.weights, lo.active_index, lo.branch),
            (up.value, up.minimizer.weights, up.active_index, up.branch),
        )
        assert abs(check.best_dual_lower_bound(p, f, family, delta) - lo.value) <= check.value_tol(f)


def test_sweep_check_flags_a_wrong_row():
    rows = ["delta,lower,upper,r,branch", "0,2.3,2.3,3,interior", "0.5,2.4,2.9,2,interior"]
    with pytest.raises(check.CheckFailed):
        check.check_sweep(P, F, "tv", (0.0, 0.5, 2), "\n".join(rows))


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap, and c
    # [9, 12] that runs past the root's end; a has a grandchild [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0]
    summary = spans.summarize(tree)
    assert summary["root"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    assert spans.count_under(tree, {"g", "b"}, "a") == 1


def test_tracer_wraps_every_lookup_and_restores():
    original = divball.core.sort_and_prefix
    tracer = spans.Tracer(divball)
    with tracer:
        assert divball.tv.sort_and_prefix is divball.core.sort_and_prefix is not original
        p, f = divball.validate(P, F, "tv")
        divball.tv_lower_expectation(p, f, 0.4)
    assert divball.tv.sort_and_prefix is divball.core.sort_and_prefix is original
    names = [s[0] for s in tracer.spans]
    assert names.count("core.sort_and_prefix") == 1
    sort_span = tracer.spans[names.index("core.sort_and_prefix")]
    assert tracer.spans[sort_span[3]][0] == "tv.tv_lower_expectation"
    assert "core.Pmf" in names and tracer.absent == []


def test_tracer_reports_absent_names_and_keeps_running():
    tracer = spans.Tracer(divball, targets=("core.validate", "core.no_such_name", "gone.f", "core.Pmf.nope"))
    assert tracer.absent == ["core.no_such_name", "gone.f", "core.Pmf.nope"]
    with tracer:
        divball.validate(P, F, "tv")
    assert [s[0] for s in tracer.spans] == ["core.validate"]


def test_spec_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names(spans.TARGETS)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_decks_depend_on_the_seed_alone():
    for name in workloads.WORKLOADS:
        if name == "oneshot_large":
            continue
        a, b, c = (workloads.build_deck(name, s) for s in (3, 3, 4))
        assert a.files == b.files
        assert all(np.array_equal(x.p, y.p) and x.delta == y.delta for x, y in zip(a.queries, b.queries))
        assert not all(np.array_equal(x.p, y.p) for x, y in zip(a.queries, c.queries))


def test_skewed_panel_is_the_same_for_every_seed():
    a, b = (workloads.build_deck("many_small", s) for s in (3, 4))
    pairs = [(x, y) for x, y in zip(a.queries, b.queries) if x.skewed]
    assert len(pairs) == workloads.SMALL_DECK // 4
    assert all(np.array_equal(x.p, y.p) and np.array_equal(x.f, y.f) and x.delta == y.delta
               for x, y in pairs)


def test_ledger_counts_each_distinct_query_once():
    deck = workloads.build_deck("many_small", 3)
    ledger = run.Ledger(check, divball, deck)
    for rep in range(3):
        for item in range(2):
            error = "AssertionError" if item == 1 else None
            out = run.library_solve(divball, deck.queries[item]) if error is None else None
            ledger.record(item, rep, deck.queries[item], out, error)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.kinds == {"AssertionError": 1}


def test_speed_adjustment_uses_the_readings_around_each_block():
    ref = run.REFERENCE_PROBE_S
    adjusted = run.speed_adjusted([1.0, 2.0, 3.0], [0, 0, 1], [ref, ref, 3 * ref])
    assert adjusted == pytest.approx([1.0, 2.0, 1.5])


def test_hd_median_matches_the_beta_weighted_order_statistics():
    # Reference value from scipy.stats.beta.cdf weights (a = b = 2.5).
    assert run.hd_median([10.0, 1.0, 3.0, 2.0]) == pytest.approx(3.2595099853, abs=1e-8)
    assert run.hd_median([4.0, 2.0]) == 3.0


def test_tail_latency_leaves_ten_samples_beyond():
    assert run.tail_latency(list(range(100))) == (89, 90.0, 10)
    assert run.tail_latency(list(range(20))) == (9, 50.0, 10)
    # Too few samples for any percentile above the median: the slowest one.
    assert run.tail_latency([3, 1, 2]) == (3, 100.0, 0)
    # Long runs stop at the 99th percentile.
    assert run.tail_latency(list(range(10000))) == (9899, 99.0, 100)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_in_its_last_line(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "many_small", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    # The known chi-squared defect on skewed centers stays visible.
    assert result["correct"] and 0 < result["failed"] < result["attempted"]
