"""Workload decks: the inputs each benchmark workload hands the program.

A deck is a fixed list of queries made from the seed alone.  A run makes a
fixed number of whole passes through its deck in order and counts each
distinct query once, so the number of queries that fail is the same on every
run of the same code and seed.  The skewed quarter of ``many_small`` (the
input class of the known chi-squared defect) is a fixed panel that does not
depend on the seed, so its failure count is the same for every seed too.
The ``oneshot_large`` deck renews its problems on every later pass instead:
each repetition of a deck entry is a fresh draw of the same family, payoff
kind, size and radius, so no problem is solved twice.  Design choices that
keep runs of different seeds comparable (family, payoff kind, scale and
radius stratum) cycle deterministically through the deck; only the draws
within them come from the seed.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED``) it imports
divball and builds the deck, which is what the benchmark's set-up time
measures in a fresh interpreter.
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("oneshot_large", "many_small", "cli_sweep", "cli_certify")

TV_RADII = (1e-4, 1.5)
CHI2_RADII = (1e-3, 1e6)

LARGE_N = 100_000
LARGE_DECK = 8
SMALL_N = (2, 16)
SMALL_DECK = 4000
SMALL_SCALES = (1e-8, 1.0, 1e8)
# The skewed quarter of many_small is drawn from this fixed seed, not from the
# run's seed, so the number of queries the known defect fails is a property of
# the code alone and two runs with different seeds fail the same count.
SKEWED_PANEL_SEED = 20130101
SWEEP_N = 2000
SWEEP_STEPS = 50
SWEEP_STOP = {"tv": 1.0, "chi2": 10.0}
CERTIFY_RESOLUTION = {3: None, 4: 250}
# Speed-adjusted query time of one pass over each deck at the commit that
# added the benchmark (median of ten seeds).  A run makes as many whole
# passes as fit in its --seconds at this pace, so every run of a workload
# times the same number of queries, however fast the host or the program.
PASS_SECONDS = {"oneshot_large": 6.43, "many_small": 1.09, "cli_sweep": 5.97, "cli_certify": 6.25}


@dataclass(frozen=True, eq=False)
class Query:
    """One query: a library solve (``mode == "bound"``) or one CLI invocation.

    CLI queries read problem file number ``problem`` of their deck.  A
    ``skewed`` query has a Dirichlet(0.05) center floored at 1e-300, the
    input class of the known chi-squared numeric defect.
    """

    mode: str
    family: str
    p: np.ndarray
    f: np.ndarray
    delta: float = 0.0
    theta: float = 0.0
    sweep: tuple = ()
    resolution: int | None = None
    problem: int = -1
    skewed: bool = False

    def argv(self, path: str) -> list[str]:
        """CLI arguments for this query when its problem file is at ``path``."""
        if self.mode == "sweep":
            start, stop, steps = self.sweep
            return ["--input", path, "--ball", self.family, "--sweep", f"{start!r}:{stop!r}:{steps}"]
        if self.mode == "radius":
            return ["--input", path, "--ball", self.family, f"--radius={self.theta!r}"]
        if self.mode == "certify":
            res = [] if self.resolution is None else [str(self.resolution)]
            return ["--input", path, "--oracle-check", *res]
        raise ValueError(f"query mode {self.mode!r} is not a CLI query")


@dataclass(frozen=True, eq=False)
class Deck:
    """The first pass of queries, the problem files CLI queries read (JSON
    text), and for renewing decks a function giving repetition ``rep`` of
    entry ``item``."""

    queries: list
    files: list
    renew: object = None

    def query(self, item: int, rep: int) -> Query:
        if rep == 0 or self.renew is None:
            return self.queries[item]
        return self.renew(item, rep)


def _center(rng, n, skewed=False, floor=0.0):
    if skewed:
        p = np.maximum(np.nan_to_num(rng.dirichlet(np.full(n, 0.05))), 1e-300)
        return p / p.sum()
    p = rng.dirichlet(np.ones(n))
    return floor + (1.0 - n * floor) * p


def _payoff(rng, n, quantized, scale=1.0, levels=50):
    f = rng.uniform(-1.0, 1.0, n)
    if quantized:
        f = np.round(f * levels) / levels
    return f * scale


def _radius(rng, family, stratum, strata):
    lo, hi = TV_RADII if family == "tv" else CHI2_RADII
    u = (stratum + rng.random()) / strata
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _problem_json(p, f, family, delta):
    return json.dumps({"p": p.tolist(), "f": f.tolist(), "ball": family, "delta": delta})


def oneshot_large(rng) -> Deck:
    base = int(rng.integers(2**62))
    specs = []
    for i in range(LARGE_DECK):
        family = ("tv", "chi2")[i % 2]
        quantized = (i // 2) % 2 == 1
        specs.append((family, quantized, _radius(rng, family, i // 2, LARGE_DECK // 2)))

    def renew(item, rep):
        family, quantized, delta = specs[item]
        draw = np.random.default_rng([base, item, rep])
        p = _center(draw, LARGE_N)
        return Query("bound", family, p, _payoff(draw, LARGE_N, quantized), delta=delta)

    return Deck([renew(i, 0) for i in range(LARGE_DECK)], [], renew)


def many_small(rng) -> Deck:
    panel = np.random.default_rng(SKEWED_PANEL_SEED)
    queries = []
    for i in range(SMALL_DECK):
        family = ("tv", "chi2")[i % 2]
        skewed = (i // 2) % 4 == 0
        scale = SMALL_SCALES[(i // 8) % 3]
        quantized = (i // 24) % 2 == 1
        draw = panel if skewed else rng
        n = int(draw.integers(SMALL_N[0], SMALL_N[1] + 1))
        p = _center(draw, n, skewed=skewed)
        f = _payoff(draw, n, quantized, scale, levels=int(draw.integers(1, 4)))
        delta = _radius(draw, family, (i // 48) % 8, 8)
        queries.append(Query("bound", family, p, f, delta=delta, skewed=skewed))
    return Deck(queries, [])


def cli_sweep(rng) -> Deck:
    queries, files = [], []
    for k, quantized in enumerate((False, True)):
        p = _center(rng, SWEEP_N)
        f = _payoff(rng, SWEEP_N, quantized)
        files.append(_problem_json(p, f, "tv", 0.1))
        for family in ("tv", "chi2"):
            sweep = (0.0, SWEEP_STOP[family], SWEEP_STEPS)
            queries.append(Query("sweep", family, p, f, sweep=sweep, problem=k))
        f_min, mean = float(f.min()), float(np.dot(p, f))
        for family in ("tv", "chi2"):
            theta = f_min + rng.uniform(0.2, 0.8) * (mean - f_min)
            queries.append(Query("radius", family, p, f, theta=theta, problem=k))
    return Deck(queries, files)


def cli_certify(rng) -> Deck:
    # Two thirds of the invocations are n = 3, so the median sits inside
    # that cluster and the n = 4 grids make up the tail.
    small = {"tv": (0.02, 0.1), "chi2": (0.02, 0.1)}
    large = {"tv": (0.3, 0.9), "chi2": (1.0, 30.0)}
    queries, files = [], []
    for i in range(12):
        n = 3 if i < 8 else 4
        family = ("tv", "chi2")[i % 2]
        lo, hi = (large if (i // 2) % 2 else small)[family]
        delta = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        p = _center(rng, n, floor=0.06)
        f = _payoff(rng, n, quantized=False)
        files.append(_problem_json(p, f, family, delta))
        queries.append(
            Query("certify", family, p, f, delta=delta, resolution=CERTIFY_RESOLUTION[n], problem=i)
        )
    return Deck(queries, files)


BUILDERS = {
    "oneshot_large": oneshot_large,
    "many_small": many_small,
    "cli_sweep": cli_sweep,
    "cli_certify": cli_certify,
}


def build_deck(workload: str, seed: int) -> Deck:
    """The deck of ``workload`` for ``seed``; the same seed gives the same deck."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng)


if __name__ == "__main__":
    import divball  # noqa: F401  (set-up time includes the import)

    build_deck(sys.argv[1], int(sys.argv[2]))
