"""Exact expectation bounds over divergence balls on a finite simplex.

Given a probability mass function p over n outcomes, a payoff f, and a
radius, this package computes the minimum (and, by conjugacy, maximum) of
the expectation of f over every distribution within total-variation or
chi-squared divergence distance of p, in closed form and together with an
attaining distribution, plus a brute-force grid oracle that certifies the
closed forms at small n.

>>> from divball import validate, tv_lower_expectation
>>> p, f = validate([0.2, 0.3, 0.5], [1.0, 2.0, 3.0])
>>> tv_lower_expectation(p, f, 0.4).value
1.5
"""

# ``divball.cli.main`` is reachable right after ``import divball``.
from . import cli  # noqa: F401
from .chi2 import chi2_divergence
from .core import (
    BallFamily,
    BoundResult,
    Objective,
    Pmf,
    expectation,
    validate,
)
from .errors import (
    DivballError,
    EmptyFeasibleError,
    EmptySupportError,
    LengthMismatchError,
    NegativeDeltaError,
    NegativeWeightError,
    NonFiniteError,
    SumNotOneError,
    TooLargeError,
    UnreachableError,
    ZeroMassForbiddenError,
)
from .oracle import OracleReport, oracle_lower_expectation
from .problem import (
    Problem,
    chi2_lower_expectation,
    chi2_upper_expectation,
    robustness_radius,
    tv_lower_expectation,
    tv_upper_expectation,
)
from .tv import tv_distance

__version__ = "0.1.0"

__all__ = [
    "BallFamily",
    "BoundResult",
    "DivballError",
    "EmptyFeasibleError",
    "EmptySupportError",
    "LengthMismatchError",
    "NegativeDeltaError",
    "NegativeWeightError",
    "NonFiniteError",
    "Objective",
    "OracleReport",
    "Pmf",
    "Problem",
    "SumNotOneError",
    "TooLargeError",
    "UnreachableError",
    "ZeroMassForbiddenError",
    "chi2_divergence",
    "chi2_lower_expectation",
    "chi2_upper_expectation",
    "expectation",
    "oracle_lower_expectation",
    "robustness_radius",
    "tv_distance",
    "tv_lower_expectation",
    "tv_upper_expectation",
    "validate",
]
