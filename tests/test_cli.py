"""Unit tests for the command-line front end."""

import io
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
from divball import cli
from conftest import random_objective, random_pmf


def write_problem(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


TV_FIXTURE = {"p": [0.3, 0.7], "f": [0.0, 1.0], "ball": "tv", "delta": 0.1}
CHI2_FIXTURE = {"p": [0.5, 0.5], "f": [0.0, 1.0], "ball": "chi2", "delta": 0.25}
HUGE = 10**400  # a JSON integer too large for a float


def run_divball(args, stdin: bytes = b"", encoding: str = "utf-8"):
    """``python -m divball`` in a child process, fed ``stdin``, with
    ``encoding`` as the interpreter's stream encoding (``PYTHONIOENCODING``)."""
    return subprocess.run(
        [sys.executable, "-m", "divball", *args],
        input=stdin,
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(db.__file__).resolve().parents[1]),
                 PYTHONIOENCODING=encoding),
    )


def run_stdin(label: bytes, encoding: str):
    """``divball --input -`` fed a TV problem whose second label is the raw
    bytes ``label``."""
    raw = b'{"p": [0.3, 0.7], "f": [0, 1], "ball": "tv", "delta": 0.1, "labels": ["b", "%s"]}'
    return run_divball(["--input", "-"], raw % label, encoding)


# Two files that ``json.loads`` refuses with an error other than a decode
# error: nesting past the recursion limit, and an integer literal past
# Python's 4,300-digit limit for int().
UNPARSABLE = {
    "too-deep": (b"[" * 100_000, "maximum recursion depth exceeded"),
    "too-many-digits": (
        b'{"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 1' + b"0" * 5000 + b"}",
        "Exceeds the limit (4300 digits)",
    ),
}


# Two files that repeat a key, at the top level and inside ``sweep``, which
# ``json.loads`` alone would answer from the key's last value.
REPEATED_KEYS = {
    "top-level": (
        b'{"p": [0.5, 0.5], "p": [0.2, 0.8], "f": [0, 1], "ball": "tv", "delta": 0.1}',
        "error: key 'p' appears more than once in one object\n",
    ),
    "nested": (
        b'{"p": [0.5, 0.5], "f": [0, 1], "ball": "tv",'
        b' "sweep": {"start": 0, "stop": 1, "stop": 0.5, "steps": 3}}',
        "error: key 'stop' appears more than once in one object\n",
    ),
}


class TestRunBound:
    def test_single_delta_json(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 0.2}
        )
        assert cli.main(["--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.3, abs=1e-12)
        assert payload["upper_value"] == pytest.approx(0.7, abs=1e-12)
        assert payload["ball"] == "tv" and payload["delta"] == 0.2
        assert payload["r"] == 2 and payload["branch"] == "interior"
        # The emitted minimizer re-validates and reproduces the value.
        q = db.Pmf(np.array(payload["minimizer"]))
        f = db.Objective(np.array([0.0, 1.0]))
        assert abs(db.expectation(q, f) - payload["value"]) <= 1e-9

    def test_sweep_csv_three_steps(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "p": [0.5, 0.5],
                "f": [0, 1],
                "ball": "tv",
                "sweep": {"start": 0, "stop": 1, "steps": 3},
            },
        )
        assert cli.main(["--input", path]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "delta,lower,upper,r,branch"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        assert [float(r[1]) for r in rows] == [0.5, 0.0, 0.0]
        assert rows[1][4] == "degenerate"

    def test_chi2_zero_delta(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"p": [0.5, 0.5], "f": [0, 1], "ball": "chi2", "delta": 0}
        )
        assert cli.main(["--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.5, abs=1e-12)

    def test_stdin_input(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(CHI2_FIXTURE).encode()))
        )
        assert cli.main([]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.25, abs=1e-12)

    def test_labels_round_trip(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "labels": ["lo", "hi"],
                "p": [0.5, 0.5],
                "f": [0, 1],
                "ball": "tv",
                "delta": 0.2,
            },
        )
        assert cli.main(["--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["labels"] == ["lo", "hi"]

    @pytest.mark.parametrize("ball", ["tv", "chi2"])
    def test_labels_change_no_number(self, tmp_path, capsys, ball):
        # The labelled center is normalized once, as the unlabelled one is.
        obj = {"p": [0.096, 0.033, 0.41, 0.174, 0.287], "f": [0.42, -0.57, 0.09, 0.41, -0.9],
               "ball": ball, "delta": 0.3}
        plain = write_problem(tmp_path, obj, "plain.json")
        labelled = write_problem(tmp_path, dict(obj, labels=list("abcde")), "labelled.json")
        assert cli.main(["--input", plain]) == 0
        want = json.loads(capsys.readouterr().out)
        assert cli.main(["--input", labelled]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got.pop("labels") == list("abcde")
        assert got == want

    def test_overrides(self, tmp_path, capsys):
        path = write_problem(tmp_path, CHI2_FIXTURE)
        assert cli.main(["--input", path, "--ball", "tv", "--delta", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ball"] == "tv"
        assert payload["value"] == pytest.approx(0.3, abs=1e-12)

    def test_sweep_override_replaces_delta(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--sweep", "0:1:5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6

    def test_output_csv_for_single_delta(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--output", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "delta,lower,upper,r,branch"
        assert len(lines) == 2

    def test_output_json_for_sweep(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--sweep", "0:1:4", "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert {"delta", "lower", "upper", "r", "branch"} <= set(rows[0])

    def test_csv_uses_17_significant_digits(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {"p": [1 / 3, 2 / 3], "f": [0, 1], "ball": "tv", "delta": 1 / 3},
        )
        assert cli.main(["--input", path, "--output", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        delta_text, lower_text = lines[1].split(",")[:2]
        assert float(delta_text) == 1 / 3
        assert float(lower_text) == 2 / 3 - 1 / 3


class TestValidationFailures:
    @pytest.mark.parametrize(
        "problem",
        [
            {"p": [0.5, 0.6], "f": [0, 1], "ball": "tv", "delta": 0.1},
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "nope", "delta": 0.1},
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv"},
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 0.1,
             "sweep": {"start": 0, "stop": 1, "steps": 3}},
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": -0.5},
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv",
             "sweep": {"start": 0, "stop": 1, "steps": 1}},
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 0.1, "bogus": 3},
            {"f": [0, 1], "ball": "tv", "delta": 0.1},
            {"p": [0, 1], "f": [0, 1], "ball": "chi2", "delta": 0.1},
        ],
    )
    def test_exit_code_2_with_diagnostic(self, tmp_path, capsys, problem):
        path = write_problem(tmp_path, problem)
        assert cli.main(["--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # A 0xff byte cannot start a UTF-8 sequence: one diagnostic line, no traceback.
        path = tmp_path / "problem.json"
        path.write_bytes(json.dumps(TV_FIXTURE).encode() + b"\xff")
        assert cli.main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert captured.err.count("\n") == 1

    def test_stdin_that_is_not_utf8_exits_2_as_a_file_does(self):
        # The stream's surrogateescape handler would turn 0xff into "\udcff".
        run = run_stdin(b"a\xff", encoding="utf-8:surrogateescape")
        assert run.returncode == 2 and run.stdout == b""
        assert run.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")
        assert run.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("source", ["path", "stdin"])
    @pytest.mark.parametrize("raw, message", UNPARSABLE.values(), ids=list(UNPARSABLE))
    def test_a_file_json_cannot_read_exits_2(self, tmp_path, source, raw, message):
        path = tmp_path / "problem.json"
        path.write_bytes(raw)
        if source == "path":
            run = run_divball(["--input", str(path)])
        else:
            run = run_divball(["--input", "-"], raw)
        assert run.returncode == 2 and run.stdout == b""
        assert run.stderr.startswith(b"error: ") and message.encode() in run.stderr
        assert run.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("raw, message", REPEATED_KEYS.values(), ids=list(REPEATED_KEYS))
    def test_a_repeated_key_exits_2(self, tmp_path, capsys, raw, message):
        path = tmp_path / "problem.json"
        path.write_bytes(raw)
        assert cli.main(["--input", str(path)]) == 2
        assert capsys.readouterr() == ("", message)
        run = run_divball(["--input", "-"], raw)
        assert (run.returncode, run.stdout, run.stderr) == (2, b"", message.encode())

    def test_stdin_is_utf8_whatever_the_stream_encoding(self):
        run = run_stdin("\u00e9".encode(), encoding="latin-1")
        assert run.returncode == 0
        assert json.loads(run.stdout)["labels"] == ["b", "\u00e9"]

    @pytest.mark.parametrize(
        "radii, message",
        [
            ({"delta": True}, "'delta' must be a number"),
            ({"sweep": {"start": False, "stop": True, "steps": 3}},
             "'sweep.start' and 'sweep.stop' must be numbers"),
        ],
    )
    def test_boolean_radii_are_rejected(self, tmp_path, capsys, radii, message):
        path = write_problem(tmp_path, {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", **radii})
        assert cli.main(["--input", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(db.DivballError, match=message):
            cli.load_problem_dict({"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", **radii})

    @pytest.mark.parametrize(
        "delta, flags, message",
        [
            (0.1, ["--delta", "inf"], "delta must be finite"),
            (0.1, ["--delta", "nan"], "delta must be finite"),
            (0.1, ["--delta", "inf", "--oracle-check"], "delta must be finite"),
            (math.inf, [], "delta must be finite"),
            (math.nan, [], "delta must be finite"),
            (0.1, ["--delta", "-0.1"], "delta must be >= 0, got -0.1"),
        ],
        ids=["flag-inf", "flag-nan", "oracle-inf", "file-inf", "file-nan", "flag-negative"],
    )
    def test_radius_rule(self, tmp_path, capsys, delta, flags, message):
        # JSON output cannot carry an infinite radius, so the CLI asks for a
        # finite one before the library's own rule (>= 0) applies.
        path = write_problem(tmp_path, {**TV_FIXTURE, "delta": delta})
        assert cli.main(["--input", path, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"delta": HUGE}, "'delta' must be a number"),
            ({"f": [0, HUGE], "delta": 0.1}, "'f' must be a list of numbers"),
            ({"p": [HUGE, 0.5], "delta": 0.1}, "'p' must be a list of numbers"),
            ({"sweep": {"start": 0, "stop": HUGE, "steps": 3}},
             "'sweep.start' and 'sweep.stop' must be numbers"),
            ({"sweep": {"start": -HUGE, "stop": 1, "steps": 3}},
             "'sweep.start' and 'sweep.stop' must be numbers"),
        ],
        ids=["delta", "f", "p", "sweep-stop", "sweep-start"],
    )
    def test_integers_past_the_float_range_are_rejected(self, tmp_path, capsys, fields, message):
        # JSON integers are unbounded; one that no float holds is not a number.
        path = write_problem(tmp_path, {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", **fields})
        assert cli.main(["--input", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("steps", [HUGE, 2**62, 2**59], ids=["10**400", "2**62", "2**59"])
    def test_sweep_steps_past_an_array_are_rejected(self, tmp_path, capsys, steps):
        # Each size fails before any memory is touched: one no index holds,
        # one whose byte count overflows, one no address space holds.
        sweep = {"start": 0, "stop": 1, "steps": steps}
        path = write_problem(tmp_path, {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "sweep": sweep})
        assert cli.main(["--input", path]) == 2
        assert cli.main(["--input", path, "--sweep", f"0:1:{steps}"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error: 'sweep.steps' is too large: ") for line in lines)

    @pytest.mark.parametrize(
        "problem, flags, message",
        [
            ([], [], "problem file must be a JSON object"),
            ({"p": [0.5, 0.5], "f": [0, 1], "delta": 0.1}, [],
             "problem is missing required key 'ball'"),
            ({**TV_FIXTURE, "labels": ["a", 1]}, [], "'labels' must be a list of strings"),
            ({"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "sweep": [0, 1, 3]}, [],
             "'sweep' must be an object with start, stop and steps"),
            ({"p": [0.5, 0.5], "f": [0, 1], "ball": "tv",
              "sweep": {"start": -1, "stop": 1, "steps": 3}}, [],
             "'sweep.start' must be >= 0"),
            (TV_FIXTURE, ["--sweep", "a:b:3"],
             "bad --sweep value: could not convert string to float: 'a'"),
        ],
        ids=["not-an-object", "no-ball", "label-not-a-string", "sweep-not-an-object",
             "negative-sweep-start", "sweep-flag-not-a-number"],
    )
    def test_each_schema_fault_has_its_line(self, tmp_path, capsys, problem, flags, message):
        path = write_problem(tmp_path, problem)
        assert cli.main(["--input", path, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["--input", "/nonexistent/problem.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sweep_flag(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--sweep", "0:1"]) == 2
        assert cli.main(["--input", path, "--sweep", "1:0:5"]) == 2

    @pytest.mark.parametrize(
        "start, stop", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)]
    )
    def test_non_finite_sweep_bounds(self, tmp_path, capsys, start, stop):
        flag = write_problem(tmp_path, TV_FIXTURE, "flag.json")
        in_file = write_problem(
            tmp_path,
            {"p": [0.5, 0.5], "f": [0, 1], "ball": "chi2",
             "sweep": {"start": start, "stop": stop, "steps": 3}},
            "sweep.json",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--input", flag, f"--sweep={start}:{stop}:3"]) == 2
            assert cli.main(["--input", in_file]) == 2
        message = "error: 'sweep.start' and 'sweep.stop' must be finite\n"
        assert capsys.readouterr().err == 2 * message


class TestInputPath:
    """Each list of numbers is checked once, by its element types and one
    float conversion; every fault keeps its class and message."""

    BASE = {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 0.1}

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"p": [True, 0.5]}, db.DivballError, "'p' must be a list of numbers"),
            ({"p": [math.nan, 0.5]}, db.NonFiniteError, "weights contains NaN or infinity"),
            ({"p": [], "f": []}, db.EmptySupportError, "weights must have at least one entry"),
            ({"p": []}, db.LengthMismatchError, "0 weights vs 2 objective values"),
            ({"p": [HUGE, 0.5]}, db.DivballError, "'p' must be a list of numbers"),
            ({"p": [0.5, None]}, db.DivballError, "'p' must be a list of numbers"),
            ({"p": [[0.5], [0.5]]}, db.DivballError, "'p' must be a list of numbers"),
            ({"f": [0, False]}, db.DivballError, "'f' must be a list of numbers"),
            ({"f": [0, math.nan]}, db.NonFiniteError, "objective values contains NaN or infinity"),
            ({"f": []}, db.LengthMismatchError, "2 weights vs 0 objective values"),
            ({"f": [0.5, -HUGE]}, db.DivballError, "'f' must be a list of numbers"),
            ({"delta": []}, db.DivballError, "'delta' must be a number"),
            ({"delta": None}, db.DivballError, "'delta' must be a number"),
            ({"delta": math.nan}, db.NonFiniteError, "delta must be finite"),
            ({"delta": -HUGE}, db.DivballError, "'delta' must be a number"),
            ({"sweep": {"start": [], "stop": 1, "steps": 3}}, db.DivballError,
             "'sweep.start' and 'sweep.stop' must be numbers"),
            ({"sweep": {"start": 0, "stop": True, "steps": 3}}, db.DivballError,
             "'sweep.start' and 'sweep.stop' must be numbers"),
            ({"sweep": {"start": math.nan, "stop": 1, "steps": 3}}, db.DivballError,
             "'sweep.start' and 'sweep.stop' must be finite"),
            ({"sweep": {"start": 0, "stop": -HUGE, "steps": 3}}, db.DivballError,
             "'sweep.start' and 'sweep.stop' must be numbers"),
        ],
    )
    def test_each_fault_keeps_its_class_and_message(self, tmp_path, capsys, fields, error, message):
        obj = {**self.BASE, **fields}
        if "sweep" in fields:
            del obj["delta"]
        path = write_problem(tmp_path, obj)
        assert cli.main(["--input", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(error) as info:
            cli.resolve_problem(json.loads(Path(path).read_text(encoding="utf-8")))
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "ball, mixed_p", [("tv", [0, 0.25, 0.75]), ("chi2", [0.25, 0.25, 0.5])]
    )
    def test_mixed_int_and_float_lists_read_as_floats(self, tmp_path, capsys, ball, mixed_p):
        mixed = {"p": mixed_p, "f": [0, 2.5, -1], "ball": ball,
                 "sweep": {"start": 0, "stop": 0.5, "steps": 3}}
        floats = {"p": [float(w) for w in mixed_p], "f": [0.0, 2.5, -1.0], "ball": ball,
                  "sweep": {"start": 0.0, "stop": 0.5, "steps": 3}}
        outputs = []
        for name, obj in (("mixed.json", mixed), ("floats.json", floats)):
            assert cli.main(["--input", write_problem(tmp_path, obj, name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 4

    def test_a_labelled_center_has_the_bits_of_its_pmf(self):
        p = [0.096, 0.033, 0.41, 0.174, 0.287]
        obj = {"labels": list("abcde"), "p": p, "f": [0.4, -0.5, 0.1, 0.4, -0.9],
               "ball": "chi2", "delta": 0.3}
        problem, delta, sweep = cli.resolve_problem(obj)
        want = db.Pmf(p, tuple("abcde"))
        assert problem.pmf.weights.tobytes() == want.weights.tobytes()
        assert problem.pmf.labels == want.labels == tuple("abcde")
        assert problem.family is db.BallFamily.CHI2
        assert (delta, sweep) == (0.3, None)

    @pytest.mark.parametrize(
        "labels", [["a"], ["a", 1], ("a", "a")], ids=["count", "type", "distinct"]
    )
    def test_validate_raises_the_errors_of_pmf(self, labels):
        with pytest.raises(db.DivballError) as want:
            db.Pmf([0.5, 0.5], labels)
        with pytest.raises(type(want.value), match=f"^{str(want.value)}$"):
            db.validate([0.5, 0.5], [0, 1], "tv", labels)
        with pytest.raises(type(want.value), match=f"^{str(want.value)}$"):
            db.validate([0.5, 0.5], [0, 1], labels=labels)

    def test_a_label_fault_is_reported_before_a_zero_chi2_weight(self, tmp_path, capsys):
        # The labels are checked where the one Pmf is built, before the
        # chi-squared center is.
        obj = {"labels": ["a"], "p": [0, 1], "f": [0, 1], "ball": "chi2", "delta": 0.1}
        assert cli.main(["--input", write_problem(tmp_path, obj)]) == 2
        assert capsys.readouterr().err == "error: 1 labels for 2 outcomes\n"

    @pytest.mark.parametrize(
        "flags",
        [[], ["--output", "csv"], ["--sweep", "0:1:5"], ["--oracle-check", "20"]],
        ids=["json", "csv", "sweep", "oracle-check"],
    )
    def test_a_run_builds_one_problem(self, tmp_path, capsys, monkeypatch, flags):
        built = []

        class Counted(db.Problem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cli, "Problem", Counted)
        path = write_problem(tmp_path, {**TV_FIXTURE, "p": [0.2, 0.3, 0.5], "f": [1, 0, 2]})
        assert cli.main(["--input", path, *flags]) == 0
        assert capsys.readouterr().out
        assert len(built) == 1


class TestRadiusMode:
    def test_tv_fixture(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--radius", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_star"] == pytest.approx(0.2, abs=1e-9)

    def test_chi2_fixture(self, tmp_path, capsys):
        path = write_problem(tmp_path, CHI2_FIXTURE)
        assert cli.main(["--input", path, "--radius", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_star"] == pytest.approx(0.25, abs=1e-9)

    def test_threshold_at_center_expectation(self):
        p, f = db.validate([0.3, 0.7], [0, 1])
        assert db.robustness_radius(p, f, db.BallFamily.TV, 0.7) == 0.0
        assert db.robustness_radius(p, f, db.BallFamily.TV, 0.9) == 0.0

    def test_unreachable_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--radius", "-0.5"]) == 4
        assert "error:" in capsys.readouterr().err

    def test_negative_exponent_threshold_in_the_equals_form(self, tmp_path, capsys):
        # argparse takes "-5e-09" after a space for an option; "=" keeps it a value.
        path = write_problem(tmp_path, {"p": [0.5, 0.5], "f": [-1e-8, 1e-8], "ball": "tv"})
        assert cli.main(["--input", path, "--radius=-5e-09"]) == 0
        # The exact target is 0.25; two ulps below it the computed bound
        # already rounds to -5.000000000000001e-09.
        assert json.loads(capsys.readouterr().out) == {
            "theta": -5e-09, "delta_star": 0.24999999999999994, "ball": "tv"
        }
        assert "--radius=THETA" in " ".join(cli.build_parser().format_help().split())

    def test_round_trip_property(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = random_pmf(rng, n, floor=0.03)
            f = random_objective(rng, n)
            family = db.BallFamily.TV if rng.random() < 0.5 else db.BallFamily.CHI2
            span = float(f.values.max() - f.values.min())
            low, high = float(f.values.min()), db.expectation(p, f)
            theta = float(rng.uniform(low, high))
            star = db.robustness_radius(p, f, family, theta)
            at_star = (
                db.tv_lower_expectation(p, f, star).value
                if family is db.BallFamily.TV
                else db.chi2_lower_expectation(p, f, star).value
            )
            assert at_star <= theta + 1e-9
            before = max(star - 1e-6, 0.0)
            at_before = (
                db.tv_lower_expectation(p, f, before).value
                if family is db.BallFamily.TV
                else db.chi2_lower_expectation(p, f, before).value
            )
            assert at_before >= theta - 1e-6 * span - 1e-9

    def test_radius_query_validation(self):
        p, f = db.validate([0.3, 0.7], [0, 1])
        with pytest.raises(db.NonFiniteError):
            db.robustness_radius(p, f, db.BallFamily.TV, float("nan"))


class TestOracleCheckMode:
    def test_pass(self, tmp_path, capsys):
        path = write_problem(tmp_path, CHI2_FIXTURE)
        assert cli.main(["--input", path, "--oracle-check", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert 0 <= payload["grid_minimum"] - payload["closed_form"] <= payload["tolerance"]

    def test_default_resolution(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--oracle-check"]) == 0
        assert json.loads(capsys.readouterr().out)["resolution"] == 200

    def test_zero_delta_on_grid_center_has_zero_gap(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"p": [0.5, 0.5], "f": [0, 1], "ball": "tv", "delta": 0.0}
        )
        assert cli.main(["--input", path, "--oracle-check", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid_minimum"] == payload["closed_form"]
        assert payload["pass"] is True

    def test_corrupted_closed_form_fails(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, CHI2_FIXTURE)
        true_lower = db.Problem.lower

        def corrupted(prepared, delta):
            res = true_lower(prepared, delta)
            return db.BoundResult(
                value=res.value + 0.1,
                minimizer=res.minimizer,
                active_index=res.active_index,
                branch=res.branch,
            )

        monkeypatch.setattr(db.Problem, "lower", corrupted)
        assert cli.main(["--input", path, "--oracle-check", "200"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["pass"] is False
        assert "oracle check failed" in captured.err

    def test_quiet_suppresses_stderr(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, CHI2_FIXTURE)
        true_lower = db.Problem.lower
        monkeypatch.setattr(
            db.Problem,
            "lower",
            lambda *a: (lambda r: db.BoundResult(r.value + 0.1, r.minimizer, r.active_index, r.branch))(true_lower(*a)),
        )
        assert cli.main(["--input", path, "--oracle-check", "200", "--quiet"]) == 3
        assert capsys.readouterr().err == ""

    def test_overflowing_expectation_is_rejected_not_a_crash(self, tmp_path, capsys):
        # Every feasible grid expectation overflows to +inf: no certificate
        # can be judged, which must end in a diagnostic, not a traceback.
        big = np.finfo(float).max
        path = write_problem(
            tmp_path, {"p": [0.2, 0.4, 0.4], "f": [big, big, big], "ball": "tv", "delta": 0}
        )
        with np.errstate(over="ignore"):
            assert cli.main(["--input", path, "--oracle-check", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows the float range" in captured.err

    @pytest.mark.parametrize("f", [[0, 1e300, 1.7e308], [-1.7e308, 0, 1.7e308]])
    def test_overflowing_tolerance_is_rejected_not_a_vacuous_pass(self, tmp_path, capsys, f):
        # An infinite tolerance would print "Infinity" and pass any gap.
        p = [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]
        path = write_problem(tmp_path, {"p": p, "f": f, "ball": "tv", "delta": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--input", path, "--oracle-check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows the float range" in captured.err

    def test_overflowing_feasible_sums_print_no_warning(self, tmp_path, capsys):
        # Feasible grid expectations past the float range are +inf; the
        # recheck by the definitional loops gives the reported minimum.
        big = np.finfo(float).max
        path = write_problem(
            tmp_path, {"p": [0.2, 0.4, 0.4], "f": [big, big, big], "ball": "tv", "delta": 0.2}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--input", path, "--oracle-check", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            '{"closed_form": 1.7976931348623157e+308, "grid_minimum": 1.7976931348623155e+308,'
            ' "tolerance": 0.0, "pass": true, "resolution": 5, "feasible_count": 7,'
            ' "minimizer_distance": 0.2}\n'
        )

    def test_subnormal_chi2_weight_prints_no_warning(self, tmp_path, capsys):
        # A distance term divided by a subnormal weight is +inf, which already
        # lies outside the ball; the check passes with nothing on stderr.
        path = write_problem(
            tmp_path, {"p": [0.9999999999999999, 5e-324], "f": [0, 1], "ball": "chi2", "delta": 0.2}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--input", path, "--oracle-check", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            '{"closed_form": 0.0, "grid_minimum": 0.0, "tolerance": 0.4, "pass": true,'
            ' "resolution": 5, "feasible_count": 1, "minimizer_distance": 0.0}\n'
        )

    def test_requires_single_delta(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--sweep", "0:1:3", "--oracle-check"]) == 2

    def test_modes_are_exclusive(self, tmp_path, capsys):
        path = write_problem(tmp_path, TV_FIXTURE)
        assert cli.main(["--input", path, "--radius", "0.5", "--oracle-check"]) == 2

    def test_optimized_interpreter_prints_the_same(self, tmp_path):
        # ``python -O`` strips asserts; the oracle path must not rest on one.
        path = write_problem(
            tmp_path,
            {"p": [0.1, 0.2, 0.3, 0.4], "f": [3, 1, 4, 1.5], "ball": "chi2", "delta": 0.3},
        )
        src = str(Path(db.__file__).resolve().parents[1])
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "divball", "--input", path, "--oracle-check", "250"],
                capture_output=True,
                timeout=120,
                env=dict(os.environ, PYTHONPATH=src),
            )
            for flags in ([], ["-O"])
        ]
        assert runs[0].returncode == 0 and json.loads(runs[0].stdout)["pass"] is True
        assert (runs[1].stdout, runs[1].returncode) == (runs[0].stdout, runs[0].returncode)


class TestSweepInvariants:
    def test_monotone_columns_and_reparse(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        for trial in range(10):
            n = int(rng.integers(2, 6))
            p = random_pmf(rng, n, floor=0.05)
            f = random_objective(rng, n)
            family = "tv" if trial % 2 == 0 else "chi2"
            path = write_problem(
                tmp_path,
                {
                    "p": [float(x) for x in p.weights],
                    "f": [float(x) for x in f.values],
                    "ball": family,
                    "sweep": {"start": 0.0, "stop": 1.5, "steps": 12},
                },
                name=f"sweep{trial}.json",
            )
            assert cli.main(["--input", path]) == 0
            lines = capsys.readouterr().out.strip().split("\n")
            rows = [line.split(",") for line in lines[1:]]
            lowers = [float(r[1]) for r in rows]
            uppers = [float(r[2]) for r in rows]
            for a, b in zip(lowers, lowers[1:]):
                assert b <= a + 1e-12
            for a, b in zip(uppers, uppers[1:]):
                assert b >= a - 1e-12
