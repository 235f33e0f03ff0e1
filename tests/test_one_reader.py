"""One reader decides what a number is, for the library and the CLI alike.

``core.real_vector`` reads weights and payoffs and ``core.real_number`` reads
radii and thresholds; ``validate``, ``Pmf``, ``Objective``, ``check_delta``,
``robustness_radius`` and the CLI all call them, each with the name it
reports.  A number is an ``int``, a ``float``, a numpy integer or floating
scalar, a ``Fraction`` or a ``Decimal``; a bool is not one, nor is text,
``None``, a container or numpy's ``timedelta64``.  An integer past the float
range exceeds every double: a radius reads it as the infinity of its sign,
and a vector refuses it as non-finite.  Labels are a list or tuple of
``str``, checked by ``Pmf`` alone.  The typed entry points take a ``Pmf``
and an ``Objective`` and refuse anything else by name.
"""

import contextlib
import io
import json
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divball as db
from divball import cli

HUGE = 10**400
BASE = {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 0.1}


def refusal(call):
    """The class and message of the ``DivballError`` that ``call`` raises."""
    with pytest.raises(db.DivballError) as info:
        call()
    return type(info.value), str(info.value)


def cli_refusal(fields):
    """What ``resolve_problem`` refuses ``BASE`` updated by ``fields`` with,
    checked against what ``main`` writes for the same file."""
    obj = {**BASE, **fields}
    if "sweep" in fields:
        del obj["delta"]
    want = refusal(lambda: cli.resolve_problem(obj))
    err = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(json.dumps(obj).encode()))
    try:
        with contextlib.redirect_stderr(err):
            assert cli.main(["--input", "-"]) == 2
    finally:
        sys.stdin = stdin
    assert err.getvalue() == f"error: {want[1]}\n"
    return want


PMF, OBJ = db.validate([0.5, 0.5], [0.0, 1.0])

# (CLI fields, library call, name the library reports for the CLI's key)
SAME_ANSWER = {
    "text-weight": ({"p": ["0.5", "0.5"]}, lambda: db.validate(["0.5", "0.5"], [0, 1]), "weights"),
    "text-payoff": ({"f": ["0", "1"]}, lambda: db.validate([0.5, 0.5], ["0", "1"]),
                    "objective values"),
    "text-delta": ({"delta": "0.1"}, lambda: db.tv_lower_expectation(PMF, OBJ, "0.1"), "delta"),
    "bool-weight": ({"p": [True, False]}, lambda: db.validate([True, False], [0, 1]), "weights"),
    "bool-payoff": ({"f": [0, True]}, lambda: db.Objective([0, True]), "objective values"),
    "bool-delta": ({"delta": True}, lambda: db.tv_lower_expectation(PMF, OBJ, True), "delta"),
    "null-weight": ({"p": [None, 1]}, lambda: db.validate([None, 1], [0, 1]), "weights"),
    "null-delta": ({"delta": None}, lambda: db.Problem(PMF, OBJ, "tv").upper(None), "delta"),
    "huge-weight": ({"p": [HUGE, 0.5]}, lambda: db.Pmf([HUGE, 0.5]), "weights"),
    "huge-payoff": ({"f": [0, -HUGE]}, lambda: db.Objective([0, -HUGE]), "objective values"),
    "object-labels": ({"labels": {"a": 1, "b": 2}},
                      lambda: db.Pmf([0.5, 0.5], labels={"a": 1, "b": 2}), "labels"),
    "text-labels": ({"labels": "ab"}, lambda: db.Pmf([0.5, 0.5], labels="ab"), "labels"),
    "number-label": ({"labels": ["a", 1]}, lambda: db.validate([0.5, 0.5], [0, 1], labels=["a", 1]),
                     "labels"),
}


@pytest.mark.parametrize("fields, call, name", SAME_ANSWER.values(), ids=list(SAME_ANSWER))
def test_the_library_and_the_cli_give_one_answer(fields, call, name):
    # The CLI reports the key it read; the library, the argument's name.
    got, message = cli_refusal(fields)
    key = next(iter(fields))
    assert refusal(call) == (got, message.replace(f"'{key}'", name))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: db.Pmf("1"), db.DivballError, "weights must be real numbers, got str"),
        (lambda: db.Pmf(b"1"), db.DivballError, "weights must be real numbers, got bytes"),
        (lambda: db.Objective("12"), db.DivballError,
         "objective values must be real numbers, got str"),
        (lambda: db.Pmf(None), db.DivballError, "weights must be real numbers, got NoneType"),
        (lambda: db.validate(None, [0, 1]), db.DivballError,
         "weights must be real numbers, got NoneType"),
        (lambda: db.Pmf(np.array([True, False])), db.DivballError,
         "weights must be real numbers, got bool"),
        (lambda: db.Pmf([np.True_, 1.0]), db.DivballError,
         "weights must be real numbers, got bool"),
        (lambda: db.Pmf([0.5, "0.5", None]), db.DivballError,
         "weights must be real numbers, got NoneType, str"),
        (lambda: db.Objective([Decimal("sNaN")]), db.DivballError,
         "objective values must be real numbers, got a signaling NaN"),
        (lambda: db.Objective([np.timedelta64(5, "s")]), db.DivballError,
         "objective values must be real numbers, got timedelta64"),
        (lambda: db.Problem(PMF, OBJ, "tv").lower(np.timedelta64(1, "s")), db.DivballError,
         "delta must be a number, got np.timedelta64(1,'s')"),
        (lambda: db.robustness_radius(PMF, OBJ, "tv", True), db.DivballError,
         "radius threshold must be a number, got True"),
        (lambda: db.oracle_lower_expectation(PMF, OBJ, "tv", False, 20), db.DivballError,
         "delta must be a number, got False"),
    ],
    ids=["str", "bytes", "payoff-str", "none", "validate-none", "bool-array", "numpy-bool",
         "mixed", "signaling-nan", "timedelta", "timedelta-radius", "bool-threshold",
         "bool-oracle-radius"],
)
def test_text_bools_and_none_are_not_numbers(call, error, message):
    assert refusal(call) == (error, message)


def test_an_integer_past_the_float_range_is_one_rule():
    # Past every double, a radius is the infinity of its sign, as JSON's
    # 1e400 is; the CLI takes no infinite radius, since its output cannot
    # carry one, and no vector takes an infinity.
    for delta in (HUGE, 1e400, -HUGE):
        assert cli_refusal({"delta": delta}) == (db.NonFiniteError, "delta must be finite")
    sweep = {"start": 0, "stop": HUGE, "steps": 3}
    assert cli_refusal({"sweep": sweep}) == (
        db.DivballError, "'sweep.start' and 'sweep.stop' must be finite")
    for solve in (db.tv_lower_expectation, db.chi2_upper_expectation):
        got, want = solve(PMF, OBJ, HUGE), solve(PMF, OBJ, math.inf)
        assert (got.value, got.minimizer.weights.tobytes()) == (
            want.value, want.minimizer.weights.tobytes())
    assert refusal(lambda: db.Pmf([0.5, -HUGE])) == (
        db.NonFiniteError, "weights contains a number past the float range")


@pytest.mark.parametrize(
    "p, f",
    [
        (np.array([1, 0, 0], dtype=np.int64), np.array([3, 1, 2], dtype=np.uint8)),
        (np.array([0.25, 0.5, 0.25], dtype=np.float16), np.array([1.0, 0.0, 2.0])),
        ([1, 0, 0], (1, 0.5, np.float32(2))),
        ((np.float64(0.25), 0.5, Fraction(1, 4)), range(3)),
        ([Decimal("0.25"), Decimal("0.5"), Decimal("0.25")], [np.int8(-1), 2, np.uint64(3)]),
    ],
    ids=["int-arrays", "float16-array", "lists", "tuple-and-range", "decimal-and-numpy-scalars"],
)
def test_numbers_in_every_container_are_read(p, f):
    pmf, obj = db.validate(p, f, "chi2" if 0 not in list(p) else "tv")
    assert pmf.weights.tolist() == [float(w) / float(sum(map(float, p))) for w in p]
    assert obj.values.tolist() == [float(v) for v in f]


def test_one_number_is_one_outcome_and_decimal_or_fraction_radii_are_read():
    one = np.array([1.0]).tobytes()
    for center in (1, np.float32(1.0), np.array(1.0)):  # np.array(1.0) is 0-d
        assert db.Pmf(center).weights.tobytes() == one
    assert db.Objective(3).values.tolist() == db.Objective(np.array(3.0)).values.tolist() == [3.0]
    problem = db.Problem(PMF, OBJ, "chi2")
    for delta in (Decimal("0.1"), Fraction(1, 10), np.float32(0.1)):
        assert problem.lower(delta).value == problem.lower(float(delta)).value


def _variants():
    """Each valid vector input, with the float64 array it must read as."""
    base = np.array([0.125, 0.25, 0.5, 0.125])
    frozen = base.copy()
    frozen.setflags(write=False)
    wide = np.zeros(8)
    wide[::2] = base
    return {
        "float64": (base, base),
        "read-only": (frozen, base),
        "float32": (base.astype(np.float32), base),
        "view": (wide[::2], base),
        "int8": (np.array([0, 1, 0, 0], dtype=np.int8), np.array([0.0, 1.0, 0.0, 0.0])),
        "uint64": (np.array([0, 0, 1, 0], dtype=np.uint64), np.array([0.0, 0.0, 1.0, 0.0])),
        "numpy-scalars": ([np.float64(0.125), np.float32(0.25), np.float16(0.5), 0.125], base),
        "range": (range(4), np.arange(4.0)),
    }


@pytest.mark.parametrize("name", list(_variants()))
def test_valid_inputs_keep_their_bits(name):
    given, want = _variants()[name]
    before = np.array(given, copy=True) if isinstance(given, np.ndarray) else None
    payoff = want[::-1].copy()
    if want.sum() == 1.0:  # a pmf, and a payoff
        pmf, obj = db.validate(given, payoff)
        assert pmf.weights.tobytes() == db.Pmf(want).weights.tobytes()
        assert db.Pmf(given).weights.tobytes() == pmf.weights.tobytes()
    pmf, obj = db.validate(np.full(4, 0.25), given)
    assert obj.values.tobytes() == db.Objective(given).values.tobytes() == want.tobytes()
    if isinstance(given, np.ndarray):
        # The caller's array is neither aliased nor frozen nor changed.
        assert not np.shares_memory(obj.values, given)
        assert given.flags.writeable == (name != "read-only")
        assert given.tobytes() == before.tobytes()


class Center(db.Pmf):
    """A ``Pmf`` subclass, which the typed entry points accept."""


TYPED = {
    "problem-lists": (lambda: db.Problem([0.5, 0.5], [0, 1], "tv"), "p: expected Pmf, got list"),
    "problem-swapped": (lambda: db.Problem(OBJ, PMF, "tv"), "p: expected Pmf, got Objective"),
    "problem-payoff": (lambda: db.Problem(PMF, [0, 1], "chi2"),
                       "f: expected Objective, got list"),
    "one-shot": (lambda: db.tv_lower_expectation([0.5, 0.5], [0, 1], 0.1),
                 "p: expected Pmf, got list"),
    "chi2-one-shot": (lambda: db.chi2_upper_expectation(PMF, np.array([0.0, 1.0]), 0.1),
                      "f: expected Objective, got ndarray"),
    "radius": (lambda: db.robustness_radius([0.5, 0.5], [0, 1], "tv", 0.5),
               "p: expected Pmf, got list"),
    "expectation": (lambda: db.expectation(PMF, [0, 1]), "f: expected Objective, got list"),
    "tv-distance": (lambda: db.tv_distance([0.5, 0.5], PMF), "q: expected Pmf, got list"),
    "chi2-divergence": (lambda: db.chi2_divergence(PMF, OBJ), "p: expected Pmf, got Objective"),
    "oracle": (lambda: db.oracle_lower_expectation((0.5, 0.5), OBJ, "tv", 0.1),
               "p: expected Pmf, got tuple"),
}


@pytest.mark.parametrize("call, message", TYPED.values(), ids=list(TYPED))
def test_typed_entry_points_refuse_raw_values_by_name(call, message):
    assert refusal(call) == (db.DivballError, message)


def test_a_pair_of_two_lengths_is_refused_when_it_meets():
    three, two = db.Objective([0.0, 1.0, 2.0]), db.Pmf([0.25, 0.25, 0.5])
    message = "2 outcomes in p vs 3 in f"
    for call in (lambda: db.Problem(PMF, three, "tv"), lambda: db.expectation(PMF, three),
                 lambda: db.oracle_lower_expectation(PMF, three, "tv", 0.1, 20)):
        assert refusal(call) == (db.LengthMismatchError, message)
    for divergence in (db.tv_distance, db.chi2_divergence):
        assert refusal(lambda: divergence(PMF, two)) == (
            db.LengthMismatchError, "2 outcomes in q vs 3 in p")


def test_a_pmf_subclass_is_a_pmf():
    center = Center([0.5, 0.5])
    want = db.Problem(PMF, OBJ, "tv").lower(0.2).value
    assert db.Problem(center, OBJ, "tv").lower(0.2).value == want
    assert db.tv_distance(center, PMF) == 0.0


# JSON documents: every JSON type, objects as pair lists so that a key can
# repeat at any depth, integers past the float range and deep nesting, with
# the problem's own fields drawn near their valid values.
class Pairs(list):
    """A JSON object written as its (key, value) pairs, in order."""


def render(value) -> str:
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {render(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(render, value)) + "]"
    return json.dumps(value)


HUGE_INTS = st.sampled_from([10**400, -(10**400), 2**1024, -(10**999)])
NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), HUGE_INTS)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3))
KEYS = st.sampled_from(["p", "f", "ball", "delta", "sweep", "labels", "steps", ""])
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.tuples(KEYS, inner), max_size=3).map(Pairs),
    max_leaves=6,
)
CENTERS = [[1], [0.5, 0.5], [0.25, 0.5, 0.25], [0, 0.5, 0.25, 0.25]]


# Values each check has a rule for: past the float range, bools, null,
# text, NaN, the infinities and the extremes of the doubles.
SPECIAL = [10**400, -(10**400), 2**1024, True, False, None, "0.5", "", math.nan, math.inf,
           -math.inf, -0.0, 1.7976931348623157e308, 5e-324, -1, 0]


@st.composite
def problems(draw):
    """A valid problem's text, with up to two faults: a field, or one entry
    of a list or of the sweep, replaced by a special value or by any JSON
    value, a key dropped, or a key repeated."""
    n = draw(st.integers(1, 4))
    pairs = [
        ("p", CENTERS[n - 1]),
        ("f", draw(st.lists(st.floats(-2, 2) | st.integers(-2, 2), min_size=n, max_size=n))),
        ("ball", draw(st.sampled_from(["tv", "chi2"]))),
    ]
    radius = draw(st.sampled_from(["delta", "sweep", None]))
    if radius == "delta":
        pairs.append(("delta", draw(st.floats(0, 3))))
    elif radius == "sweep":
        bounds = draw(st.tuples(st.floats(0, 1), st.floats(1, 2), st.integers(2, 4)))
        pairs.append(("sweep", Pairs(zip(("start", "stop", "steps"), bounds))))
    if draw(st.booleans()):
        labels = st.lists(st.text(max_size=2), min_size=n, max_size=n, unique=True)
        pairs.append(("labels", draw(labels)))
    for fault in draw(st.lists(st.sampled_from(["special", "entry", "json", "drop", "repeat"]),
                               max_size=2)):
        where = draw(st.sampled_from(range(len(pairs))))
        key, value = pairs[where]
        if fault == "special":
            pairs[where] = (key, draw(st.sampled_from(SPECIAL)))
        elif fault == "entry" and isinstance(value, list) and value:
            value = type(value)(value)  # a Pairs stays one
            at = draw(st.sampled_from(range(len(value))))
            item = draw(st.sampled_from(SPECIAL))
            value[at] = (value[at][0], item) if isinstance(value, Pairs) else item
            pairs[where] = (key, value)
        elif fault == "json":
            pairs[where] = (key, draw(JSON))
        elif fault == "drop" and len(pairs) > 1:
            del pairs[where]
        elif fault == "repeat":
            pairs.append((key, draw(JSON)))
    return render(Pairs(pairs))


DEEP = st.integers(1, 3000).map(
    lambda d: '{"p": ' + "[" * d + "]" * d + ', "f": [0], "ball": "tv"}')
FLAGS = st.sampled_from([[], ["--output", "csv"], ["--radius=0.5"], ["--oracle-check", "10"],
                         ["--delta", "0.2"], ["--sweep", "0:1:3"], ["--quiet", "--ball", "chi2"]])


def run_main(flags, text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(["--input", "-", *flags])
    finally:
        sys.stdin = stdin
    return status, out.getvalue(), err.getvalue()


def library(obj):
    """Each public function given the document's values: it answers or
    raises a ``DivballError``."""
    p, f, ball, labels, delta = (obj.get(key) for key in ("p", "f", "ball", "labels", "delta"))
    for call in (lambda: db.Pmf(p, labels), lambda: db.Objective(f)):
        with contextlib.suppress(db.DivballError):
            call()
    try:
        pmf, objective = db.validate(p, f, ball, labels)
    except db.DivballError:
        return
    for call in (
        lambda: db.Problem(pmf, objective, ball).lower(delta),
        lambda: db.chi2_upper_expectation(pmf, objective, delta),
        lambda: db.robustness_radius(pmf, objective, ball, delta),
        lambda: db.oracle_lower_expectation(pmf, objective, ball, delta, 10),
        lambda: db.tv_distance(pmf, pmf) + db.expectation(pmf, objective),
    ):
        with contextlib.suppress(db.DivballError):
            call()


def problem_text(**fields):
    return json.dumps({"p": [0.5, 0.5], "f": [0, 1], "ball": "chi2", **fields})


@given(FLAGS, st.one_of(problems(), problems(), problems(), JSON.map(render), DEEP))
@example([], problem_text(delta=HUGE))
@example(["--radius=0.5"], problem_text(delta=-HUGE))
@example([], problem_text(sweep={"start": 0, "stop": HUGE, "steps": 3}))
@example([], problem_text(sweep={"start": 0, "stop": 1, "steps": 2**62}))
@example(["--oracle-check", "10"], problem_text(f=[0, 1.7976931348623157e308], delta=0.5))
@example([], problem_text(delta=True, labels={"a": 1, "b": 2}))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_any_json_document_exits_with_an_answer_or_one_error_line(flags, text):
    # Numeric warnings are not this property's subject; they go to pytest,
    # not to the stream checked here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        status, out, err = run_main(flags, text)
        assert status in (0, 2, 3, 4)
        if status in (0, 3):
            assert out.endswith("\n") and err == ("oracle check failed\n" if status == 3 else "")
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert err.endswith("\n")
        try:
            obj = json.loads(text)
        except (RecursionError, ValueError):
            return
        if isinstance(obj, dict):
            library(obj)
