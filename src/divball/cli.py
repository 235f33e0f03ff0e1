"""Batch front end: read problem files, then render bounds, radius sweeps,
robustness radii or a grid-oracle certificate computed by the library.

Problem files are JSON objects:

    {"labels": ["a", "b"],          # optional
     "p": [0.3, 0.7],
     "f": [0.0, 1.0],
     "ball": "tv",                  # or "chi2"
     "delta": 0.2}                  # or "sweep": {"start":0,"stop":1,"steps":11}

Exit codes: 0 success, 2 invalid input, 3 oracle check failed,
4 unreachable radius threshold.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import Objective, Pmf, check_delta, real_number, real_vector
from .errors import DivballError, NonFiniteError, UnreachableError
from .oracle import naive_divergence, oracle_check_verdict, oracle_lower_expectation
from .problem import Problem

_UNSET = object()


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice, whose
    first value ``json`` would silently drop."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DivballError(f"key {key!r} appears more than once in one object")
        obj[key] = value
    return obj


def load_problem_dict(obj) -> dict:
    """Check a raw problem object's JSON shape; returns the field dict, with
    ``p`` and ``f`` as float arrays, ``delta`` as a float and ``sweep`` as a
    tuple.  What a number is the library decides (``core.real_vector`` and
    ``core.real_number``, each told the key it reports), and what a label
    is, ``Pmf``."""
    if not isinstance(obj, dict):
        raise DivballError("problem file must be a JSON object")
    allowed = {"labels", "p", "f", "ball", "delta", "sweep"}
    unknown = set(obj) - allowed
    if unknown:
        raise DivballError(f"unknown problem keys: {sorted(unknown)}")
    fields = dict(obj)
    for key in ("p", "f", "ball"):
        if key not in obj:
            raise DivballError(f"problem is missing required key '{key}'")
    for key in ("p", "f"):
        if not isinstance(obj[key], list):
            raise DivballError(f"'{key}' must be a list of numbers")
        fields[key] = real_vector(obj[key], f"'{key}'")
    if obj["ball"] not in ("tv", "chi2"):
        raise DivballError("'ball' must be \"tv\" or \"chi2\"")
    if not isinstance(obj.get("labels", []), list):  # null would mean no labels
        raise DivballError("labels must be a sequence of strings")
    if "delta" in obj and "sweep" in obj:
        raise DivballError("give exactly one of 'delta' and 'sweep', not both")
    if "delta" in obj:
        fields["delta"] = real_number(obj["delta"], "'delta'")
    if "sweep" in obj:
        fields["sweep"] = _parse_sweep_dict(obj["sweep"])
    return fields


def _parse_sweep_dict(sweep) -> tuple[float, float, int]:
    if not isinstance(sweep, dict) or set(sweep) != {"start", "stop", "steps"}:
        raise DivballError("'sweep' must be an object with start, stop and steps")
    start, stop = (real_number(sweep[key], f"'sweep.{key}'") for key in ("start", "stop"))
    steps = sweep["steps"]
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 2:
        raise DivballError("'sweep.steps' must be an integer >= 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DivballError("'sweep.start' and 'sweep.stop' must be finite")
    if start < 0.0:
        raise DivballError("'sweep.start' must be >= 0")
    if stop < start:
        raise DivballError("'sweep.stop' must be >= 'sweep.start'")
    return start, stop, steps


def _parse_sweep_flag(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DivballError("--sweep expects START:STOP:STEPS")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DivballError(f"bad --sweep value: {exc}") from None
    return _parse_sweep_dict({"start": start, "stop": stop, "steps": steps})


def resolve_problem(obj: dict, args=None) -> tuple[Problem, float | None, tuple | None]:
    """Merge CLI overrides into a schema-checked problem dict: the one
    ``Problem`` every mode answers from, built from its ``Pmf`` and
    ``Objective``, and its radius or sweep."""
    fields = load_problem_dict(obj)
    family = fields["ball"]
    delta = fields.get("delta")
    sweep = fields.get("sweep")
    if args is not None:
        if args.ball is not None:
            family = args.ball
        if args.delta is not None:
            delta, sweep = args.delta, None
        elif args.sweep is not None:
            delta, sweep = None, _parse_sweep_flag(args.sweep)
    problem = Problem(Pmf(fields["p"], fields.get("labels")), Objective(fields["f"]), family)
    if delta is not None:
        # The library accepts an infinite radius; JSON output cannot carry one.
        if not math.isfinite(delta):
            raise NonFiniteError("delta must be finite")
        check_delta(delta)
    return problem, delta, sweep


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _bound_row(prepared: Problem, delta: float) -> dict:
    """One CSV or sweep row: both bounds' values, with no minimizer."""
    lower, r, branch = prepared._value(False, delta)
    upper = prepared._value(True, delta)[0]
    return {"delta": float(delta), "lower": lower, "upper": upper, "r": r, "branch": branch}


def run_bound(problem: Problem, delta: float | None, sweep, output: str | None = None) -> str:
    """Render bound output: JSON for a single radius, CSV rows for a sweep.

    ``output`` forces a format; sweeps default to CSV and single radii to
    JSON.  CSV columns are ``delta,lower,upper,r,branch`` with 17
    significant digits, '.' decimals and LF line endings.  Only single-radius
    JSON prints a minimizer, the lower bound's, so only it builds one.
    """
    if (delta is None) == (sweep is None):
        raise DivballError("give exactly one of 'delta' and 'sweep'")
    if delta is not None and output != "csv":
        lower = problem.lower(delta)
        payload = {
            "value": lower.value,
            "upper_value": problem._value(True, delta)[0],
            "r": lower.active_index,
            "branch": lower.branch,
            "minimizer": lower.minimizer.weights.tolist(),
            "delta": float(delta),
            "ball": problem.family.value,
        }
        if problem.pmf.labels is not None:
            payload["labels"] = list(problem.pmf.labels)
        return json.dumps(payload)
    deltas = [delta]
    if delta is None:
        try:
            deltas = np.linspace(*sweep)
        except (ValueError, MemoryError) as exc:  # more steps than an array can hold
            raise DivballError(f"'sweep.steps' is too large: {exc}") from None
    rows = [_bound_row(problem, d) for d in deltas]
    return json.dumps(rows) if output == "json" else _render_csv(rows)


def _render_csv(rows) -> str:
    lines = ["delta,lower,upper,r,branch"]
    for row in rows:
        lines.append(
            f"{_fmt(row['delta'])},{_fmt(row['lower'])},{_fmt(row['upper'])},"
            f"{row['r']},{row['branch']}"
        )
    return "\n".join(lines)


def run_radius(problem: Problem, theta: float) -> str:
    """The robustness radius of ``theta``, answered from ``problem``."""
    delta_star = problem._radius(theta)
    return json.dumps(
        {"theta": float(theta), "delta_star": delta_star, "ball": problem.family.value}
    )


def run_oracle_check(problem: Problem, delta: float | None, resolution) -> tuple[str, bool]:
    """Certify the closed form against the grid oracle at one radius."""
    if delta is None:
        raise DivballError("this mode needs a single 'delta' (no sweep)")
    closed = problem.lower(delta)
    report = oracle_lower_expectation(
        problem.pmf, problem.objective, problem.family, delta, resolution
    )
    if not (math.isfinite(closed.value) and math.isfinite(report.grid_minimum)):
        raise NonFiniteError(
            "the expectation overflows the float range; a certificate needs finite values"
        )
    if not math.isfinite(report.tolerance):
        raise NonFiniteError(
            "the certificate's tolerance, the payoff span times n over the"
            " resolution, overflows the float range"
        )
    dist = naive_divergence(closed.minimizer, problem.pmf, problem.family)
    ok = oracle_check_verdict(closed.value, report, dist, delta)
    payload = {
        "closed_form": closed.value,
        "grid_minimum": report.grid_minimum,
        "tolerance": report.tolerance,
        "pass": ok,
        "resolution": report.resolution,
        "feasible_count": report.feasible_count,
        "minimizer_distance": dist,
    }
    return json.dumps(payload), ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divball",
        description=(
            "Exact lower/upper expectation bounds over total-variation and "
            "chi-squared divergence balls around a finite pmf."
        ),
    )
    parser.add_argument(
        "--input",
        default="-",
        metavar="PATH",
        help="problem file (JSON); '-' reads stdin (default)",
    )
    parser.add_argument(
        "--ball",
        choices=["tv", "chi2"],
        help="override the ball family from the file",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--delta", type=float, help="override: single radius")
    group.add_argument(
        "--sweep",
        metavar="START:STOP:STEPS",
        help="override: inclusive linear radius sweep",
    )
    parser.add_argument(
        "--radius",
        type=float,
        metavar="THETA",
        help=(
            "find the smallest radius whose lower expectation drops to THETA;"
            " write a negative THETA as --radius=THETA"
        ),
    )
    parser.add_argument(
        "--oracle-check",
        nargs="?",
        const=None,
        default=_UNSET,
        type=int,
        metavar="RESOLUTION",
        help="certify the closed form against the brute-force grid oracle",
    )
    parser.add_argument(
        "--output",
        choices=["json", "csv"],
        help="output format (default: json for a single radius, csv for sweeps)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="omit the 'oracle check failed' line that --oracle-check writes to stderr on exit 3",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.input == "-":
            # The bytes, decoded as a file is: strict UTF-8, whatever the locale.
            raw = sys.stdin.buffer.read().decode("utf-8")
        else:
            raw = Path(args.input).read_text(encoding="utf-8")
        try:
            data = json.loads(raw, object_pairs_hook=_unique_keys)
        # Too deep, a bad token, too many digits or a repeated key.
        except (RecursionError, ValueError) as exc:
            raise DivballError(str(exc)) from exc
        problem, delta, sweep = resolve_problem(data, args)

        if args.radius is not None and args.oracle_check is not _UNSET:
            raise DivballError("--radius and --oracle-check are separate modes")
        if args.radius is not None:
            print(run_radius(problem, args.radius))
        elif args.oracle_check is not _UNSET:
            text, ok = run_oracle_check(problem, delta, args.oracle_check)
            print(text)
            if not ok:
                if not args.quiet:
                    print("oracle check failed", file=sys.stderr)
                return 3
        else:
            print(run_bound(problem, delta, sweep, args.output))
        return 0
    except UnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DivballError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv=None):
    """:func:`main` as a process: flush its answer, then end the process with
    its status, skipping the interpreter's teardown and ``atexit`` hooks.

    The teardown frees what the process ends with anyway, and it takes
    longer than the answer.  A usage error or an unexpected exception leaves
    before the flush, as from :func:`main`; a flush that fails (a broken
    pipe) falls back to ``sys.exit``, so the interpreter reports it.
    """
    status = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # a stream closed when the process started
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
