"""Output checks shared by every workload; they run outside the timed region.

Every check raises :class:`CheckFailed` with a reason, or returns normally.
The checks use plain numpy on the raw inputs and never call the library, so
a bug in the solvers cannot hide behind shared code.  The one exception is
the robustness-radius check, which takes a solver from its caller because
an answer of ``delta_star`` can only be judged by solving at it.

Tolerances are stated here, once:

* an expectation may differ from the value it should equal by
  ``VALUE_RTOL`` times the payoff span ``max f - min f`` (plus a few ulps of
  ``max |f|`` so a constant payoff still has a tolerance);
* the same tolerance bounds the gap between a bound and the closed-form
  Lagrangian dual value at the dual point its support size selects;
* a minimizer's mass may differ from 1 by ``MASS_TOL``;
* its divergence may exceed the radius by ``DIV_RTOL`` times the radius
  plus ``DIV_ATOL``;
* a robustness radius must bring the lower bound within ``RADIUS_RTOL``
  times the payoff span of the threshold.

The dual points are those of Ben-Tal, den Hertog, De Waegenaere, Melenberg
and Rennen (Management Science, 2013).  By weak duality any dual point gives
a lower bound on the true minimum, and a feasible minimizer attaining the
value gives an upper bound, so a small two-sided gap certifies the value at
any ``n``.
"""

import json
import math

import numpy as np

VALUE_RTOL = 1e-9
MASS_TOL = 1e-9
DIV_RTOL = 1e-9
DIV_ATOL = 1e-12
RADIUS_RTOL = 1e-6

BRANCHES = ("interior", "plateau", "degenerate")
SWEEP_HEADER = "delta,lower,upper,r,branch"


class CheckFailed(Exception):
    """An output of the program is wrong; the message says how."""


def value_tol(f: np.ndarray) -> float:
    """Absolute tolerance for expectations of ``f``."""
    span = float(f.max() - f.min())
    return VALUE_RTOL * span + 8 * np.finfo(float).eps * float(np.abs(f).max())


def divergence(q: np.ndarray, p: np.ndarray, family: str) -> float:
    if family == "tv":
        return 0.5 * float(np.abs(q - p).sum())
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.sum((q - p) ** 2 / p))


def dual_lower_bound(p: np.ndarray, f: np.ndarray, family: str, delta: float, r: int) -> float:
    """Closed-form dual value at the dual point that support size ``r`` selects.

    ``r`` counts outcomes in stable payoff-ascending order, as the solvers
    report it.  TV uses ``c = f_(r) - f_min`` in
    ``E_p[min(f, f_min + c)] - c * min(delta, 1)``.  Chi-squared uses the
    tilt ``s = sqrt(m_r delta - t_r) / sigma_r`` with ``lambda = m_r/(2s)``
    and ``eta = mu_r + t_r/s`` in
    ``eta - lambda delta + E_p[min_{L>=0} L(f - eta) + lambda (L - 1)^2]``;
    on the tie plateau the dual supremum is ``min f`` itself.
    """
    n = p.size
    if not 1 <= r <= n:
        raise CheckFailed(f"support size {r} outside [1, {n}]")
    order = np.argsort(f, kind="stable")
    ps, fs = p[order], f[order]
    if family == "tv":
        c = fs[r - 1] - fs[0]
        return float(np.dot(p, np.minimum(f, fs[0] + c)) - c * min(delta, 1.0))
    plateau = int(np.searchsorted(fs, fs[0], side="right"))
    if r <= plateau:
        return float(fs[0])
    m = float(ps[:r].sum())
    t = float(ps[r:].sum())
    mu = float(np.dot(ps[:r], fs[:r])) / m
    var = float(np.dot(ps[:r], (fs[:r] - mu) ** 2)) / m
    rad = m * delta - t
    if rad < 0.0 and rad >= -1e-12 * (1.0 + m * delta + t):
        rad = 0.0
    if rad < 0.0 or not var > 0.0:
        raise CheckFailed(f"support size {r} is infeasible at radius {delta}")
    s = math.sqrt(rad) / math.sqrt(var)
    if s == 0.0:
        if t == 0.0:
            return mu
        raise CheckFailed(f"support size {r} sits exactly on its breakpoint")
    lam = m / (2.0 * s)
    eta = mu + t / s
    x = f - eta
    with np.errstate(over="ignore", invalid="ignore"):
        inner = np.where(x <= 2.0 * lam, x - x * x / (4.0 * lam), lam)
        return float(eta - lam * delta + np.dot(p, inner))


def best_dual_lower_bound(p: np.ndarray, f: np.ndarray, family: str, delta: float) -> float:
    """Largest dual value over every support size; O(n^2), for small n."""
    best = -math.inf
    for r in range(1, p.size + 1):
        try:
            best = max(best, dual_lower_bound(p, f, family, delta, r))
        except CheckFailed:
            continue
    return best


def check_gap(value: float, dual: float, tol: float, what: str) -> None:
    gap = value - dual
    if not -tol <= gap <= tol:
        raise CheckFailed(f"{what}: value {value!r} vs dual {dual!r} (gap {gap:.3g}, tol {tol:.3g})")


def check_minimizer(p, f, family, delta, value, q, tol) -> None:
    """``q`` is a pmf inside the ball whose expectation equals ``value``."""
    q = np.asarray(q, dtype=float)
    if q.shape != p.shape or not np.all(np.isfinite(q)):
        raise CheckFailed("minimizer has the wrong shape or non-finite weights")
    if q.min() < 0.0:
        raise CheckFailed(f"minimizer has a negative weight {q.min()!r}")
    if abs(float(q.sum()) - 1.0) > MASS_TOL:
        raise CheckFailed(f"minimizer sums to {float(q.sum())!r}")
    radius = min(delta, 1.0) if family == "tv" else delta
    div = divergence(q, p, family)
    if not div <= radius * (1.0 + DIV_RTOL) + DIV_ATOL:
        raise CheckFailed(f"minimizer divergence {div!r} exceeds radius {delta!r}")
    attained = float(np.dot(q, f))
    if not abs(attained - value) <= tol:
        raise CheckFailed(f"minimizer attains {attained!r}, value is {value!r}")


def check_branch(branch, r) -> None:
    if branch not in BRANCHES:
        raise CheckFailed(f"unknown branch {branch!r}")
    if (branch == "degenerate" and r != 1) or (branch == "interior" and r < 2):
        raise CheckFailed(f"branch {branch!r} does not match support size {r}")


def check_bounds(p, f, family, delta, lower, upper) -> None:
    """Check a lower and an upper bound with their optimizers.

    ``lower`` and ``upper`` are ``(value, weights, active_index, branch)``;
    the upper bound's index and branch describe the conjugate minimization
    of ``-f``, as the library reports them.
    """
    tol = value_tol(f)
    lo, q_lo, r_lo, b_lo = lower
    up, q_up, r_up, b_up = upper
    mean = float(np.dot(p, f))
    if not (lo <= mean + tol and mean - tol <= up):
        raise CheckFailed(f"bounds {lo!r} <= E_p f = {mean!r} <= {up!r} fail")
    check_branch(b_lo, r_lo)
    check_branch(b_up, r_up)
    check_minimizer(p, f, family, delta, lo, q_lo, tol)
    check_minimizer(p, f, family, delta, up, q_up, tol)
    check_gap(lo, dual_lower_bound(p, f, family, delta, r_lo), tol, "lower bound")
    check_gap(-up, dual_lower_bound(p, -f, family, delta, r_up), tol, "upper bound")


def check_sweep(p, f, family, sweep, text) -> list:
    """Check CLI sweep CSV and return its branch column.

    Beyond the per-row checks the lower bound must be non-increasing and the
    upper bound non-decreasing in the radius.
    """
    start, stop, steps = sweep
    lines = text.strip("\n").split("\n")
    if lines[0] != SWEEP_HEADER or len(lines) != steps + 1:
        raise CheckFailed("sweep output has the wrong header or row count")
    tol = value_tol(f)
    mean = float(np.dot(p, f))
    deltas = np.linspace(start, stop, steps)
    prev_lo, prev_up = math.inf, -math.inf
    branches = []
    for line, expected in zip(lines[1:], deltas):
        fields = line.split(",")
        if len(fields) != 5:
            raise CheckFailed(f"sweep row {line!r} does not have five fields")
        delta, lo, up = (float(x) for x in fields[:3])
        r, branch = int(fields[3]), fields[4]
        if delta != float(expected):
            raise CheckFailed(f"sweep radius {delta!r}, expected {float(expected)!r}")
        if not (lo <= mean + tol and mean - tol <= up):
            raise CheckFailed(f"bounds {lo!r} <= E_p f = {mean!r} <= {up!r} fail at {delta!r}")
        if lo > prev_lo + tol or up < prev_up - tol:
            raise CheckFailed(f"bounds are not monotone in the radius at {delta!r}")
        check_branch(branch, r)
        check_gap(lo, dual_lower_bound(p, f, family, delta, r), tol, f"lower bound at {delta!r}")
        prev_lo, prev_up = lo, up
        branches.append(branch)
    return branches


def check_radius(p, f, family, theta, text, solve_lower) -> None:
    """Check a ``--radius`` answer by solving once at ``delta_star``.

    ``solve_lower(delta)`` returns ``(value, active_index)`` of the lower
    bound; that value is itself certified by the dual before it is trusted.
    """
    out = json.loads(text)
    delta_star = out.get("delta_star")
    if out.get("ball") != family or not isinstance(delta_star, float) or not delta_star >= 0.0:
        raise CheckFailed(f"radius answer {text!r} is malformed")
    value, r = solve_lower(delta_star)
    tol = value_tol(f)
    check_gap(value, dual_lower_bound(p, f, family, delta_star, r), tol, "lower bound at delta_star")
    span = float(f.max() - f.min())
    if not abs(value - theta) <= RADIUS_RTOL * span:
        raise CheckFailed(f"lower bound {value!r} at delta_star misses threshold {theta!r}")


def check_certify(p, f, family, delta, resolution, text) -> None:
    """Check ``--oracle-check`` output against its own claims and the dual."""
    out = json.loads(text)
    if out.get("pass") is not True:
        raise CheckFailed("oracle check did not pass")
    if (resolution is not None and out["resolution"] != resolution) or out["feasible_count"] < 1:
        raise CheckFailed("oracle report has the wrong resolution or no feasible point")
    closed, grid = out["closed_form"], out["grid_minimum"]
    if not -1e-12 * (1.0 + abs(closed)) <= grid - closed <= out["tolerance"]:
        raise CheckFailed(f"grid minimum {grid!r} does not sandwich closed form {closed!r}")
    if not out["minimizer_distance"] <= delta * (1.0 + DIV_RTOL) + DIV_ATOL:
        raise CheckFailed("closed-form minimizer lies outside the ball")
    check_gap(closed, best_dual_lower_bound(p, f, family, delta), value_tol(f), "closed form")
