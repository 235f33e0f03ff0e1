"""In-memory span tracer that times divball's layers from outside.

The tracer wraps public names of the library where its callers look them
up: a module-level function is replaced in every ``divball`` module that
holds it (so ``divball.tv.sort_and_prefix`` is wrapped along with
``divball.core.sort_and_prefix``), and a class or method is wrapped on its
class.  Each call records a span ``[name, start, end, parent, query]``.
A target that no longer exists is recorded in ``absent`` and skipped, so the
tracer keeps working while refactors delete public names.
"""

import sys
import time
from collections import defaultdict

# Layer targets, named "<module>.<attribute>[.<method>]".  A class target
# times its constructor.
TARGETS = (
    "core.validate",
    "core.Pmf",
    "core.Objective",
    "core.Objective.negated",
    "core.sort_and_prefix",
    "core.suffix_masses",
    "tv.tv_lower_expectation",
    "tv.tv_upper_expectation",
    "chi2.critical_deltas",
    "chi2.chi2_active_index",
    "chi2.chi2_minimizer",
    "chi2.chi2_lower_expectation",
    "chi2.chi2_upper_expectation",
    "cli.main",
    "cli.resolve_problem",
    "cli.run_bound",
    "cli.run_radius",
    "cli.run_oracle_check",
    "cli.robustness_radius",
    "cli.lower_expectation",
    "cli.upper_expectation",
    "oracle.oracle_lower_expectation",
)

_MISSING = object()


class Tracer:
    """Wraps the targets of ``package`` while installed (use as a context).

    Calls of the targets named in ``keep`` also record their arguments and
    return value in ``results``, keyed by span index.
    """

    def __init__(self, package, targets=TARGETS, keep=()):
        self.package = package.__name__
        self.spans = []
        self.results = {}
        self.keep = set(keep)
        self.query = -1
        self._stack = []
        self._patches = []
        self.absent = []
        self._plan = []
        for name in targets:
            owner, attr, obj = self._lookup(name)
            if obj is _MISSING:
                self.absent.append(name)
            else:
                self._plan.append((name, owner, attr, obj))

    def _lookup(self, name):
        module_name, *attrs = name.split(".")
        obj = sys.modules.get(f"{self.package}.{module_name}", _MISSING)
        owner = attr = None
        for attr in attrs:
            if obj is _MISSING:
                break
            owner, obj = obj, getattr(obj, attr, _MISSING)
        if isinstance(obj, type):
            owner, attr, obj = obj, "__init__", obj.__init__
        return owner, attr, obj

    def _wrap(self, name, fn):
        spans, stack, results, keep = self.spans, self._stack, self.results, name in self.keep
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if keep:
                    results[idx] = (args, out)
                return out
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def __enter__(self):
        prefix = self.package + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        for name, owner, attr, obj in self._plan:
            wrapper = self._wrap(name, obj)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False

    def clear(self):
        self.spans.clear()
        self.results.clear()


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged where they
    overlap, so the result never counts covered time twice.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(idx, ())
        )
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """Per name: ``{"calls", "self_s", "total_s"}`` over all spans."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = out[span[0]]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
    return dict(out)


def count_under(spans, names, ancestor) -> int:
    """Number of spans named in ``names`` that have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count
