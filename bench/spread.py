"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 bench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1] [--traced] [--out FILE]

Runs are made one after another, never in parallel.  For every end-to-end
metric of ``BENCHMARK.json`` it prints the median over the seeds and the
distance between the first and third quartile (``statistics.quantiles`` with
``n=4``) as a share of the median, next to a third of the metric's bound,
which is the spread the benchmark aims to stay under.  ``--traced`` adds one
traced run per workload (on the first seed).  ``--out`` writes the summary,
every run's figures and the environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace) -> tuple:
    """One run's result line and detail record."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, detail = run_once(workload, seed, args.seconds, 0)
            report.setdefault("environment", detail["environment"])
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "error_rate": detail["error_rate"],
                "errors_by_class": detail["errors_by_class"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "unadjusted": detail["unadjusted"],
            })
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            share = spread(values)
            summary[name] = {"median": statistics.median(values), "spread": share, "bound": bound}
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:14s} {name:15s} median {statistics.median(values):12.6g}"
                  f"  spread {share:7.4f}  bound/3 {bound / 3:7.4f}{flag}", flush=True)
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            result, _ = run_once(workload, args.first_seed, args.seconds, 1)
            entry["traced"] = {name: m["value"] for name, m in result["metrics"].items()}
        report["workloads"][workload] = entry
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
