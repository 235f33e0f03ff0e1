"""Benchmark divball on one workload and print every metric by name and unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one single-threaded process with one closed-loop caller: the
next query starts when the previous one has returned.  Library workloads
call divball in this process; CLI workloads start one ``python3 -m divball``
process per query.  Every output is checked outside the timed region
(``check.py``).  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes over a fixed
share of the deck and reports per-layer metrics (``spans.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program under test is built from ``src/`` next to this directory; the
run exits with status 2 and prints no result when that source is missing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

# Thread pools read these when numpy is first imported (inside main), and
# child processes inherit them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPS = 9
STARTUP_REPS = 3
TAIL_BEYOND = 10
TAIL_CAP = 0.99
HD_GRID = 200_001
PROBE_SIZE = 20_000
PROBE_REPS = 3
PROBE_EVERY_S = 0.05
# The probe's time at the speed adjusted latencies are given at: about its
# median on the 2-core VM (Python 3.11, numpy 2.4) the bounds were set on.
REFERENCE_PROBE_S = 0.75e-3

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SOLVERS = ("tv.tv_lower_expectation", "chi2.chi2_lower_expectation")
ERROR_CLASSES = ("AssertionError", "SumNotOneError", "DivballError", "other")
FAMILIES = ("tv", "chi2")
BRANCHES = ("interior", "plateau", "degenerate")


class QueryFailed(Exception):
    """A CLI query exited with a non-zero status; ``kind`` names the cause."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


def per_layer_names(targets) -> list:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{t}.{m}" for t in targets for m in ("self_ms", "calls")]
    names += [
        "cli.robustness_radius.solves",
        "oracle.grid_points",
        "oracle.grid_points_per_s",
        "oracle.computed_mbytes",
    ]
    names += [f"errors.{c}.count" for c in ERROR_CLASSES]
    names += ["errors.check_failed.count", "errors.runtime_warning.count", "trace.overhead_pct"]
    names += ["startup.interpreter_ms", "startup.import_ms"]
    names += [f"share.{x}" for x in FAMILIES + BRANCHES]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("mbytes"):
        return "MB"
    if name.startswith("share."):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- environment


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:])
    return head


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "divball").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(np, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read(Path("/sys/fs/cgroup/cpu.max")),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------- calls


def spawn(cmd, env, workdir) -> tuple:
    """Run ``cmd`` to completion; return (seconds, status, stdout, stderr, usage)."""
    out_path, err_path = Path(workdir) / "stdout", Path(workdir) / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return elapsed, proc.returncode, out.read().decode(), err.read().decode(), usage


def failure_kind(status: int, stderr: str) -> str:
    """Exception class of a CLI failure, read from its traceback if it has one."""
    lines = stderr.strip().splitlines()
    if status == 1 and lines and lines[0].startswith("Traceback"):
        return lines[-1].split(":")[0].rsplit(".", 1)[-1]
    return f"cli_exit_{status}"


def library_solve(divball, q):
    p, f = divball.validate(q.p, q.f, q.family)
    lower = getattr(divball, f"{q.family}_lower_expectation")(p, f, q.delta)
    upper = getattr(divball, f"{q.family}_upper_expectation")(p, f, q.delta)
    return lower, upper


class Caller:
    """Issues one query and returns its output; raises on failure.

    ``usage`` collects the resource usage of every CLI child process.
    """

    def __init__(self, divball, paths, workdir, in_process):
        self.divball = divball
        self.paths = paths
        self.workdir = workdir
        self.in_process = in_process
        self.env = child_env()
        self.usage = []

    def __call__(self, q):
        if q.mode == "bound":
            return library_solve(self.divball, q)
        argv = q.argv(self.paths[q.problem])
        if self.in_process:
            return self._in_process(q, argv)
        elapsed, status, out, err, usage = spawn(
            [sys.executable, "-m", "divball", *argv], self.env, self.workdir
        )
        self.usage.append(usage)
        if status != 0:
            raise QueryFailed(failure_kind(status, err))
        return out

    def _in_process(self, q, argv):
        cache = getattr(self.divball.oracle, "_composition_matrix", None)
        if q.mode == "certify" and hasattr(cache, "cache_clear"):
            cache.cache_clear()  # a fresh CLI process starts with an empty cache
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.divball.cli.main(argv)
        if status != 0:
            raise QueryFailed(f"cli_exit_{status}")
        return out.getvalue()


def fingerprint(q, out):
    if q.mode != "bound":
        return out
    return tuple(
        (r.value, r.active_index, r.branch, r.minimizer.weights.tobytes()) for r in out
    )


def check_output(check, divball, q, out) -> list:
    """Run the check for ``q``; return the branch tags of its lower bounds."""
    if q.mode == "bound":
        lower, upper = out
        check.check_bounds(
            q.p, q.f, q.family, q.delta,
            (lower.value, lower.minimizer.weights, lower.active_index, lower.branch),
            (upper.value, upper.minimizer.weights, upper.active_index, upper.branch),
        )
        return [lower.branch]
    if q.mode == "sweep":
        return check.check_sweep(q.p, q.f, q.family, q.sweep, out)
    if q.mode == "radius":
        def solve_lower(delta):
            p, f = divball.validate(q.p, q.f, q.family)
            res = getattr(divball, f"{q.family}_lower_expectation")(p, f, delta)
            return res.value, res.active_index

        check.check_radius(q.p, q.f, q.family, q.theta, out, solve_lower)
        return []
    check.check_certify(q.p, q.f, q.family, q.delta, q.resolution, out)
    return []


class Ledger:
    """Outcome of every distinct query, judged once.

    A query is distinct by its deck entry and, on a renewing deck, its
    repetition.  A repeat whose output is identical to the first output takes
    the first verdict; any other output is checked again, and a failing
    repeat fails the query.  ``attempted`` and ``failed`` count distinct
    queries, so they do not grow with the length of the run.
    """

    def __init__(self, check, divball, deck):
        self.check, self.divball, self.deck = check, divball, deck
        self.first = {}  # key -> (output fingerprint, failure kind, branches, family)
        self.unexpected = []  # failures outside the known-defect input class

    def record(self, item, rep, q, out, error):
        key = (item, rep if self.deck.renew else 0)
        seen = self.first.get(key)
        if error is None:
            # A renewed query never repeats: keep no fingerprint of its output.
            mark = None if self.deck.renew else fingerprint(q, out)
            if seen is not None and seen[0] == mark:
                return seen[1]
            try:
                kind, branches = None, check_output(self.check, self.divball, q, out)
            except Exception as exc:  # malformed output fails its check too
                kind, branches = "check_failed", []
                if not q.skewed:
                    self.unexpected.append(f"item {item}: {exc}")
        else:
            mark, kind, branches = None, error, []
            if not q.skewed:
                self.unexpected.append(f"item {item}: {error}")
        if seen is None or (seen[1] is None and kind is not None):
            self.first[key] = (mark, kind, branches, q.family)
        return kind

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return sum(v[1] is not None for v in self.first.values())

    @property
    def kinds(self) -> Counter:
        return Counter(v[1] for v in self.first.values() if v[1] is not None)

    def error_rate(self) -> float:
        """Share of distinct queries that fail; exact for a given seed."""
        return self.failed / self.attempted

    def shares(self) -> dict:
        fam = Counter(v[3] for v in self.first.values())
        branch = Counter(b for v in self.first.values() for b in v[2])
        out = {f"share.{x}": fam[x] / len(self.first) for x in FAMILIES}
        total = sum(branch.values())
        out.update({f"share.{x}": branch[x] / total if total else 0.0 for x in BRANCHES})
        return out


def issue(caller, q):
    """Time one query; return (seconds, output, error kind)."""
    start = time.perf_counter()
    try:
        out, error = caller(q), None
    except QueryFailed as exc:
        out, error = None, exc.kind
    except Exception as exc:  # the library raising is a failed query, not a crash
        out, error = None, type(exc).__name__
    return time.perf_counter() - start, out, error


# ---------------------------------------------------------------- runs


def measure_setup(workload, seed, workdir, probe) -> tuple:
    """Median wall time for a fresh interpreter to import divball and build
    the deck, speed-adjusted and unadjusted."""
    env = child_env()
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed)]
    times = []
    first = len(probe.readings)
    probe.read()
    for _ in range(SETUP_REPS):
        elapsed, status, _, err, _ = spawn(cmd, env, workdir)
        if status != 0:
            raise RuntimeError(f"set-up run failed: {err.strip()[-300:]}")
        times.append(elapsed)
        probe.read()
    blocks = range(first, first + SETUP_REPS)
    return statistics.median(speed_adjusted(times, blocks, probe.readings)), statistics.median(times)


def tail_latency(latencies) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    The percentile is capped at TAIL_CAP so that on long runs the tail
    measures slow queries rather than rare interpreter or scheduler pauses.
    With fewer than 2 * TAIL_BEYOND samples no percentile above the median
    has that many beyond it, and the tail is the slowest sample.  Returns
    (latency, percentile, samples beyond it).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    share = min(TAIL_CAP, 1.0 - TAIL_BEYOND / n)
    idx = math.ceil(share * n) - 1 if share >= 0.5 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) distribution over their ranks.

    The decks mix query kinds whose latencies form clusters (TV and
    chi-squared solves, sweeps and radius queries), half on each side of the
    middle.  The plain median is then the mean of the two samples either
    side of the gap and moves with each of them; this estimate weighs their
    neighbours too.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n < 3:
        return float(x.mean())
    grid = np.linspace(0.0, 1.0, HD_GRID)
    inner = grid[1:-1]
    log_pdf = (n - 1) / 2 * (np.log(inner) + np.log1p(-inner))
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def latency_figures(passed, latencies) -> dict:
    tail, pct, beyond = tail_latency(latencies)
    return {
        "queries_per_s": passed / sum(latencies),
        "query_p50_ms": hd_median(latencies) * 1e3,
        "query_tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
    }


class SpeedProbe:
    """A fixed kernel, timed between blocks of queries, that reads how fast
    the host's CPU runs at the moment.

    On a shared VM the CPU's speed switches between states a third apart
    within seconds and holds one state for minutes, so whole runs differ by
    more than the bounds.  Each query is timed as usual and then scaled by
    the readings around it to the speed at which the kernel takes
    ``REFERENCE_PROBE_S``; unscaled figures go to the detail record.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(0).random(PROBE_SIZE)
        self.readings = []

    def read(self):
        times = []
        for _ in range(PROBE_REPS):
            start = time.perf_counter()
            self.np.cumsum(self.np.sort(self.x))
            sum(range(PROBE_SIZE))
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.median(times))


def speed_adjusted(latencies, blocks, readings) -> list:
    """Scale each latency by the mean of the probe readings before and after
    its block (``blocks[k]`` is the reading taken just before sample k)."""
    return [
        elapsed * 2.0 * REFERENCE_PROBE_S / (readings[b] + readings[b + 1])
        for elapsed, b in zip(latencies, blocks)
    ]


def timed_run(args, deck, caller, ledger, workdir) -> tuple:
    """Run whole passes over the deck, as many as fit in ``args.seconds`` at
    the workload's nominal pass time, and at least one.

    Every entry is timed equally often, so the mix of the figures does not
    depend on where the time ran out, and every run of the workload takes
    the same number of samples, so the tail is always the same percentile.
    A probe reading (``SpeedProbe``) is taken before the first query and
    after every ``PROBE_EVERY_S`` of query time, outside the timed region.
    """
    import workloads

    size = len(deck.queries)
    passes = max(1, int(args.seconds // workloads.PASS_SECONDS[args.workload]))
    probe = SpeedProbe()
    latencies, blocks = [], []
    passed = 0
    block_s = 0.0
    probe.read()
    for i in range(passes * size):
        q = deck.query(i % size, i // size)
        elapsed, out, error = issue(caller, q)
        latencies.append(elapsed)
        blocks.append(len(probe.readings) - 1)
        passed += ledger.record(i % size, i // size, q, out, error) is None
        block_s += elapsed
        if block_s >= PROBE_EVERY_S:
            probe.read()
            block_s = 0.0
    if block_s:
        probe.read()
    detail = {
        "error_rate": ledger.error_rate(),
        "samples": len(latencies),
        "passes": passes,
        "unadjusted": latency_figures(passed, latencies),
        "probe_ms": 1e3 * statistics.median(probe.readings),
    }
    metrics = latency_figures(passed, speed_adjusted(latencies, blocks, probe.readings))
    detail["tail_percentile"] = metrics.pop("tail_percentile")
    detail["tail_samples_beyond"] = metrics.pop("tail_samples_beyond")
    metrics["setup_s"], detail["unadjusted"]["setup_s"] = measure_setup(
        args.workload, args.seed, workdir, probe
    )
    if caller.usage:
        rss_kb = max(u.ru_maxrss for u in caller.usage)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    return metrics, detail


def median_ms(cmd, env, workdir) -> float:
    return 1e3 * statistics.median(spawn(cmd, env, workdir)[0] for _ in range(STARTUP_REPS))


def grid_points(call) -> int:
    (p, *_), report = call
    return math.comb(report.resolution + p.n - 1, p.n - 1)


def traced_run(args, deck, divball, caller, ledger, workdir) -> tuple:
    """Alternate untraced and traced passes over the deck's first pass.

    Counts come from the first traced pass, so they repeat exactly; times
    are averaged over every traced pass.
    """
    import spans

    size = len(deck.queries)
    items = list(range(size))
    tracer = spans.Tracer(divball, keep=["oracle.oracle_lower_expectation"])
    totals = defaultdict(float)
    counts = {}
    plain_s = traced_s = grid_s = 0.0
    reps = points = solves = radius_calls = warned = 0
    deadline = time.perf_counter() + args.seconds
    while reps == 0 or time.perf_counter() < deadline:
        plain_s += sum(issue(caller, deck.queries[i])[0] for i in items)
        tracer.clear()
        outcomes = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracer:
                for i in items:
                    tracer.query = i
                    outcomes.append(issue(caller, deck.queries[i]))
        traced_s += sum(o[0] for o in outcomes)
        summary = spans.summarize(tracer.spans)
        for name, row in summary.items():
            totals[name] += row["self_s"]
        points += sum(grid_points(call) for call in tracer.results.values())
        grid_s += summary.get("oracle.oracle_lower_expectation", {}).get("total_s", 0.0)
        if reps == 0:
            counts = {name: row["calls"] for name, row in summary.items()}
            solves = spans.count_under(tracer.spans, SOLVERS, "cli.robustness_radius")
            radius_calls = counts.get("cli.robustness_radius", 0)
            warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            for i, (_, out, error) in zip(items, outcomes):
                ledger.record(i, 0, deck.queries[i], out, error)
            write_spans(args, tracer.spans)
        reps += 1

    env = child_env()
    bare = median_ms([sys.executable, "-c", "pass"], env, workdir)
    with_import = median_ms([sys.executable, "-c", "import divball"], env, workdir)
    per_query = 1.0 / size
    metrics = {}
    for name in spans.TARGETS:
        metrics[f"{name}.self_ms"] = 1e3 * totals.get(name, 0.0) / (reps * size)
        metrics[f"{name}.calls"] = counts.get(name, 0) * per_query
    metrics["cli.robustness_radius.solves"] = solves / radius_calls if radius_calls else 0.0
    metrics["oracle.grid_points"] = points / reps * per_query
    metrics["oracle.grid_points_per_s"] = points / grid_s if grid_s else 0.0
    metrics["oracle.computed_mbytes"] = sum(
        grid_points(call) * (16 * call[0][0].n + 25) for call in tracer.results.values()
    ) / 1e6 * per_query
    by_class = Counter()
    for kind, n in ledger.kinds.items():
        if kind == "check_failed":
            continue
        by_class[kind if kind in ERROR_CLASSES else _error_family(divball, kind)] += n
    for cls in ERROR_CLASSES:
        metrics[f"errors.{cls}.count"] = by_class[cls] * per_query
    metrics["errors.check_failed.count"] = ledger.kinds["check_failed"] * per_query
    metrics["errors.runtime_warning.count"] = warned * per_query
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    metrics["startup.interpreter_ms"] = bare
    metrics["startup.import_ms"] = with_import - bare
    metrics.update(ledger.shares())
    detail = {"absent": tracer.absent, "traced_passes": reps, "traced_queries": size}
    return {name: metrics[name] for name in per_layer_names(spans.TARGETS)}, detail


def _error_family(divball, kind) -> str:
    errors = getattr(divball, "errors", None)
    cls = getattr(errors, kind, None)
    if isinstance(cls, type) and issubclass(cls, getattr(errors, "DivballError", ())):
        return "DivballError"
    return "other"


def write_spans(args, recorded):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as out:
        for span in recorded:
            out.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------- main


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The run, its probe and every child it starts share one CPU, so the
    # probe reads the speed of the CPU the queries run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "divball" / "__init__.py").is_file():
        print(f"error: no divball source at {SRC / 'divball'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import check
    import divball
    import workloads

    if Path(divball.__file__).resolve().parent != SRC / "divball":
        print(f"error: imported divball from {divball.__file__}, not {SRC}", file=sys.stderr)
        return 2

    deck = workloads.build_deck(args.workload, args.seed)
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=BENCH / ".work")
    try:
        paths = []
        for k, text in enumerate(deck.files):
            path = Path(workdir) / f"problem{k}.json"
            path.write_text(text)
            paths.append(str(path))
        caller = Caller(divball, paths, workdir, in_process=bool(args.trace))
        ledger = Ledger(check, divball, deck)
        if args.trace:
            metrics, detail = traced_run(args, deck, divball, caller, ledger, workdir)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, detail = timed_run(args, deck, caller, ledger, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(
        workload=args.workload,
        trace=args.trace,
        errors_by_class=dict(ledger.kinds),
        unexpected_failures=ledger.unexpected[:20],
        environment=environment(np, args.seed),
    )
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'error_rate':40s} {detail['error_rate']:>16.6g} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
