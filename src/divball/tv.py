"""Closed-form worst-case expectation over a total-variation ball.

With outcomes in ascending objective order the optimal move is greedy: drain
mass from the highest-objective outcomes (top down, up to a total of delta)
and pile all of it onto the single lowest-objective outcome.  The draining
stops at the smallest support size r whose tail mass is already covered by
delta; r = 1 means the whole unit mass ends up on the bottom outcome.  Any
delta >= 1 gives r = 1 with no tail compared, as a tail can round above 1.
"""

import numpy as np

from .core import (
    BRANCH_DEGENERATE,
    BRANCH_INTERIOR,
    Objective,
    Pmf,
    SortedProblem,
    check_pair,
    suffix_masses,
    weighted_mean,
)


def tv_distance(q: Pmf, p: Pmf) -> float:
    """Total variation distance: half the 1-norm of the weight difference."""
    check_pair(q, p, Pmf, "qp")
    return 0.5 * float(np.abs(q.weights - p.weights).sum())


class TVSide(SortedProblem):
    """The TV side of ``(p, f)``: the sorted side, which also holds the
    center, and ``tails``, where ``tails[i]`` is the mass after sorted
    outcome ``i`` (:func:`suffix_masses`)."""

    def __init__(self, p: Pmf, f: Objective, negated: bool = False):
        super().__init__(p, f, negated)
        self.tails = suffix_masses(self.p_sorted)

    def value(self, delta: float) -> tuple[float, int, str]:
        """The lower bound at ``delta`` with its support size and branch."""
        # A top-down running sum of non-negative terms, the tails are exactly
        # non-increasing and end in 0, so reversed they are sorted for a search.
        tails = self.tails
        r = 1 if delta >= 1.0 else 1 + tails.size - int(tails[::-1].searchsorted(delta, "right"))
        if r == 1:
            return float(self.f_sorted[0]), r, BRANCH_DEGENERATE
        # The value is numpy's fixed-order sum over this copy, which it overwrites.
        q_sorted = self.p_sorted.copy()
        q_sorted[0] = self.p_sorted[0] + delta
        # tails[r-2] is the mass from position r onward (1-based); the
        # threshold guarantees delta < tails[r-2], so this stays positive.
        q_sorted[r - 1] = self.tails[r - 2] - delta
        q_sorted[r:] = 0.0
        # Clamped to the support's payoff range: on a tied bottom run, the tied payoff.
        value = weighted_mean(q_sorted, self.f_sorted, self.f_sorted[0], self.f_sorted[r - 1])
        return value, r, BRANCH_INTERIOR

    def weights(self, r: int, delta: float) -> np.ndarray:
        """:meth:`value`'s minimizer in original order, for the support size
        ``r`` that :meth:`value` returned at ``delta``: the center's weights
        on the support, zero above it, and the support's two ends moved."""
        if r == 1:
            q = np.zeros(self.n)
            q[self.perm[0]] = 1.0
            return q
        # Only the fewer of the support and the rest is scattered: a drain of
        # more than half the mass leaves r < n / 2, and a copy would then
        # scatter most of the n zeros.
        if 2 * r <= self.n:
            q = np.zeros(self.n)
            q[self.perm[:r]] = self.p_sorted[:r]
        else:
            q = self.center.copy()
            q[self.perm[r:]] = 0.0
        q[self.perm[0]] = self.p_sorted[0] + delta
        q[self.perm[r - 1]] = self.tails[r - 2] - delta
        return q
