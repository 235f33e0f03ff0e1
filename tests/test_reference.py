"""Both bounds of both families against ``crosscheck.reference_bound``, the
exact solve in rationals, on hypothesis draws at n <= 64.

The draws: Dirichlet(0.05) and Dirichlet(1) centers floored at 1e-300 and
renormalized, some TV weights zeroed, continuous or tied payoffs with signed
zeros, payoff scales 2**e, and radii log-uniform, zero, or at a breakpoint
(a tail or a critical radius of the reference) and one relative 2**-52
either side of it.  For each bound:

* the value is within ``VALUE_ULPS`` ulps of the payoffs' magnitude of the
  reference;
* the support size is the reference's, unless every breakpoint between the
  two lies within ``BREAKPOINT_RTOL`` of the radius;
* the optimizer sums to 1 within n * 1e-15, lies in the ball by the
  benchmark's feasibility rule (divergence from the exact center at most
  the radius times ``1 + DIV_RTOL`` plus ``DIV_ATOL``; TV radii above 1
  count as 1) and attains the value within the benchmark's value tolerance.

The reference's own optimizer is checked to lie in the ball and attain its
value at 60 digits, at every payoff scale.  Over a sweep of radii, both
bounds are monotone, enclose the center's expectation past radius 0, and
scale exactly with the payoff by a power of two.  The hypothesis seed is
fixed (``derandomize``), so every run tests the same draws.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import divball as db
from crosscheck import reference_bound

VALUE_ULPS = 8
BREAKPOINT_RTOL = 2.0**-40
# The benchmark's output checks (bench/check.py), written out.
DIV_RTOL = 1e-9
DIV_ATOL = 1e-12
VALUE_RTOL = 1e-9

# Payoff scales 2**e whose squares stay inside the normal float range with a
# wide margin, and the rest up to 2**±1000.
MODERATE = st.integers(-256, 256)
EXTREME = st.one_of(st.integers(-1000, -257), st.integers(257, 1000))


@st.composite
def problems(draw, family: str, scales):
    """A validated (pmf, objective) pair and a radius for ``family``."""
    n = draw(st.integers(1, 64), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    alpha = draw(st.sampled_from([0.05, 1.0]), label="alpha")
    p = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-300)
    if family == "tv" and n > 1 and draw(st.booleans(), label="zeros"):
        zeros = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
        p[zeros] = 0.0
    p /= p.sum()
    if draw(st.booleans(), label="tied"):
        f = rng.integers(-3, 4, n).astype(float)
        f[rng.random(n) < 0.5] *= -1.0  # signed zeros among the ties
    else:
        f = rng.uniform(-1.0, 1.0, n)
    f *= 2.0 ** draw(scales, label="scale")
    pmf, obj = db.validate(p, f, family)

    kind = draw(st.sampled_from(["log", "zero", "at", "below", "above"]), label="radius")
    breakpoints = reference_bound(pmf, obj, family, 0.0).breakpoints
    if kind == "zero":
        return pmf, obj, 0.0
    if kind == "log" or not breakpoints:
        return pmf, obj, float(10.0 ** draw(st.floats(-9.0, 6.0), label="log10 delta"))
    b = draw(st.sampled_from(breakpoints), label="breakpoint")
    try:
        delta = float(b)
    except OverflowError:
        return pmf, obj, math.inf
    step = {"at": 0.0, "below": -(2.0**-52), "above": 2.0**-52}[kind]
    return pmf, obj, delta * (1.0 + step)


def exact_divergence(q, center, family: str) -> Fraction:
    """The divergence of the float weights ``q`` from the exact ``center``."""
    q = [Fraction(w) for w in q.tolist()]
    if family == "tv":
        return sum(abs(a - b) for a, b in zip(q, center)) / 2
    return sum((a - b) ** 2 / b for a, b in zip(q, center))


def crossed(ref, r_lib: int, family: str, plateau: int) -> list:
    """The reference breakpoints between support sizes ``ref.r`` and ``r_lib``."""
    lo, hi = sorted((ref.r, r_lib))
    if family == "tv":  # r is the first support whose tail is at most delta
        return ref.breakpoints[lo - 1:hi - 1]
    return ref.breakpoints[lo - plateau:hi - plateau]  # radius of support plateau + 1 + j


def check_against_reference(pmf, obj, family: str, delta: float) -> None:
    problem = db.Problem(pmf, obj, family)
    weights = [Fraction(w) for w in pmf.weights.tolist()]
    total = sum(weights)
    center = [w / total for w in weights]
    f = obj.values
    magnitude = max(float(np.abs(f).max()), float(f.max()) - float(f.min()))
    value_tol = VALUE_RTOL * (float(f.max()) - float(f.min())) + 8 * np.finfo(float).eps * float(
        np.abs(f).max()
    )
    radius = min(delta, 1.0) if family == "tv" else delta
    for upper in (False, True):
        got = problem.upper(delta) if upper else problem.lower(delta)
        payoff = db.Objective(-f) if upper else obj
        ref = reference_bound(pmf, payoff, family, delta)
        want = -ref.value if upper else ref.value
        side = "upper" if upper else "lower"

        error = abs(mpmath.mpf(got.value) - want)
        assert error <= VALUE_ULPS * np.spacing(magnitude), (side, got.value, want)

        if got.active_index != ref.r:
            plateau = int(np.count_nonzero(payoff.values == payoff.values.min()))
            between = crossed(ref, got.active_index, family, plateau)
            d = Fraction(delta)
            assert between and all(abs(d - b) <= BREAKPOINT_RTOL * b for b in between), (
                side, got.active_index, ref.r
            )

        q = got.minimizer.weights
        assert np.isfinite(q).all() and q.min() >= 0.0
        assert abs(math.fsum(q.tolist()) - 1.0) <= q.size * 1e-15, side
        if math.isfinite(radius):
            allowed = Fraction(radius) * (1 + Fraction(DIV_RTOL)) + Fraction(DIV_ATOL)
            assert exact_divergence(q, center, family) <= allowed, side
        attained = sum(Fraction(a) * Fraction(b) for a, b in zip(q.tolist(), f.tolist()))
        assert abs(attained - Fraction(got.value)) <= Fraction(value_tol), side


SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize(
    "family, scales",
    [("tv", st.integers(-1000, 1000)), ("chi2", MODERATE)],
    ids=["tv", "chi2-moderate-scale"],
)
@settings(max_examples=200, **SETTINGS)
@given(data=st.data())
def test_bounds_match_the_exact_reference(family, scales, data):
    pmf, obj, delta = data.draw(problems(family, scales))
    with np.errstate(all="ignore"):
        check_against_reference(pmf, obj, family, delta)


@pytest.mark.parametrize("family", ["tv", "chi2"])
@settings(max_examples=50, **SETTINGS)
@given(data=st.data())
def test_the_reference_optimizer_is_in_the_ball_and_attains_the_value(family, data):
    # The reference judged on its own terms, at every payoff scale.
    pmf, obj, delta = data.draw(problems(family, st.integers(-1000, 1000)))
    ref = reference_bound(pmf, obj, family, delta)
    with mpmath.workdps(60):
        weights = [mpmath.mpf(w) for w in pmf.weights.tolist()]
        total = mpmath.fsum(weights)
        center = [w / total for w in weights]
        q = ref.minimizer
        scale = 1 + max(abs(mpmath.mpf(v)) for v in obj.values.tolist())
        assert min(q) >= -1e-50 and abs(mpmath.fsum(q) - 1) <= 1e-50
        attained = mpmath.fsum(w * mpmath.mpf(v) for w, v in zip(q, obj.values.tolist()))
        assert abs(attained - ref.value) <= 1e-45 * scale
        if family == "tv":
            radius = mpmath.mpf(min(delta, 1.0))
            divergence = mpmath.fsum(abs(a - b) for a, b in zip(q, center)) / 2
        else:
            radius = mpmath.mpf(delta)
            divergence = mpmath.fsum((a - b) ** 2 / b for a, b in zip(q, center))
        assert divergence <= radius * (1 + mpmath.mpf("1e-40")) + mpmath.mpf("1e-50")


def known_defect(reason: str):
    return pytest.mark.xfail(strict=True, raises=(AssertionError, db.DivballError), reason=reason)


EXTREME_SCALE = known_defect("chi^2 prefix moments leave the float range past payoff scale 2**±512")


@EXTREME_SCALE
@settings(max_examples=100, phases=[Phase.generate], **SETTINGS)
@given(data=st.data())
def test_chi2_bounds_match_the_exact_reference_at_extreme_payoff_scales(data):
    pmf, obj, delta = data.draw(problems("chi2", EXTREME))
    with np.errstate(all="ignore"):
        check_against_reference(pmf, obj, "chi2", delta)


@pytest.mark.parametrize(
    "p, f, delta",
    [
        # "critical radii must be positive"; the bound at [0, 1, 2] scales to it.
        pytest.param([1 / 3, 1 / 3, 1 / 3], [0.0, 1e200, 2e200], 0.5,
                     marks=EXTREME_SCALE, id="scale-1e200"),
        # "non-plateau prefix is constant".
        pytest.param([1 / 3, 1 / 3, 1 / 3], [0.0, 1e-300, 2e-300], 0.5,
                     marks=EXTREME_SCALE, id="scale-1e-300"),
        # "critical radii must be non-increasing": a squared gap underflows.
        pytest.param([1.0, 1e-300, 1e-300],
                     [0.31652026232888564, 0.022319896552309926, -0.6168360947757849],
                     1.6434064497615345e-06,
                     marks=known_defect("next to a 1e-300 weight a squared gap underflows"),
                     id="underflowing-gap"),
        # The upper bound's maximizer leaves the ball: its gap and variance are
        # subnormal, with about 20 significant bits.
        pytest.param([1.0, 1e-300], [-1.0972127944370326e-09, 8.264328822019251e-09],
                     0.7587272260986305,
                     marks=known_defect("subnormal gap and variance next to a 1e-300 weight"),
                     id="subnormal-moments"),
        # "non-plateau prefix is constant" at a scale inside MODERATE: the
        # prefix variance, about 2e-300 in units of 2**-42, underflows to 0
        # when scaled back by unit**2.  Reversed, f = [2, 1, -3] * 2**-44
        # breaks the upper bound alike; at scale 1e-8 both bounds return.
        pytest.param([1e-300, 0.5, 0.5], [-3 * 2.0**-44, 2.0**-44, 2 * 2.0**-44], 1.0,
                     marks=known_defect("the prefix variance underflows when scaled back by unit**2"),
                     id="moderate-scale-variance-underflow"),
    ],
)
def test_known_chi2_defects(p, f, delta):
    # Draws of the skewed chi^2 probe and scaled copies of a worked example.
    pmf, obj = db.validate(p, f, "chi2")
    with np.errstate(all="ignore"):
        check_against_reference(pmf, obj, "chi2", delta)


# Properties of the bounds as functions of the radius, on draws with n from 2
# to 39: a third of the centers Dirichlet(0.05) floored at 1e-300, a quarter
# of the payoffs tied with signed zeros, and twelve radii per draw, 0 and
# eleven log-uniform on [1e-9, 1e3].  Radii within rounding of 0 or of a
# breakpoint break some of them; the strict xfails below reproduce those.
SCALE = 2.0**40


@st.composite
def radius_sweeps(draw, family: str):
    """A validated (pmf, objective) pair and its twelve radii, ascending."""
    n = draw(st.integers(2, 39), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    alpha = 0.05 if draw(st.integers(0, 2), label="skewed") == 0 else 1.0
    p = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-300)
    p /= p.sum()
    if draw(st.integers(0, 3), label="tied") == 0:
        f = rng.integers(-3, 4, n).astype(float)
        f[rng.random(n) < 0.5] *= -1.0
    else:
        f = rng.uniform(-1.0, 1.0, n)
    pmf, obj = db.validate(p, f, family)
    return pmf, obj, [0.0, *np.sort(10.0 ** rng.uniform(-9.0, 3.0, 11)).tolist()]


def sweep_values(pmf, obj, family: str, radii) -> tuple[np.ndarray, np.ndarray]:
    problem = db.Problem(pmf, obj, family)
    lower = np.array([problem.lower(d).value for d in radii])
    upper = np.array([problem.upper(d).value for d in radii])
    return lower, upper


@pytest.mark.parametrize("family", ["tv", "chi2"])
@settings(max_examples=200, **SETTINGS)
@given(data=st.data())
def test_bounds_as_functions_of_the_radius(family, data):
    pmf, obj, radii = data.draw(radius_sweeps(family))
    lower, upper = sweep_values(pmf, obj, family, radii)
    # Monotone: chi^2 exactly, TV within 2 ulps of the payoff span.
    f = obj.values
    slack = 0.0 if family == "chi2" else 2 * np.spacing(float(f.max()) - float(f.min()))
    assert (np.diff(lower) <= slack).all(), lower
    assert (np.diff(upper) >= -slack).all(), upper
    # Past radius 0 the bounds enclose the center's expectation.
    center = db.expectation(pmf, obj)
    assert (lower[1:] <= center).all() and (center <= upper[1:]).all(), center
    # Scaling the payoff by a power of two scales both bounds exactly.
    scaled = sweep_values(pmf, db.Objective(f * SCALE), family, radii)
    assert (scaled[0] / SCALE).tobytes() == lower.tobytes()
    assert (scaled[1] / SCALE).tobytes() == upper.tobytes()


# The lower side forms the center's expectation in ascending payoff order and
# the upper side in descending order, so at radius 0, or within rounding of
# it, the lower bound can sit above the upper one, or both on one side of
# E_p f, in the last bit.  Both TV sides sum their products with numpy's
# pairwise loop, and at n = 2 the two orders of one two-term sum round
# alike, so the TV side keeps the defect only from n = 3: the eight-outcome
# case, the first draw of a seeded probe (numpy seed 5, n from 2 to 11,
# Dirichlet(1) centers, payoffs uniform on [-1, 1]), reads
# 0.4791498306171771 on both sides, below E_p f = 0.47914983061717714.  The
# chi^2 sides form the mean from running sums and break at n = 2.
ENCLOSURE_DEFECT = known_defect("the two sides round the center expectation differently")
TWO_OUTCOMES = ([0.3012940891747407, 0.6987059108252592],
                [0.15107968606047728, -0.15076461013073317])
EIGHT_OUTCOMES = (
    [0.19433707129608316, 0.3371156949675537, 0.13714832421972206, 0.007811052869315719,
     0.11240832173559612, 0.1663526973948596, 0.029847799063690342, 0.014979038453179399],
    [0.9983522301301428, 0.30473822317597543, -0.5309795966603521, -0.13010489554971594,
     0.9483723865185107, 0.7953552162170976, 0.6884620752174819, -0.21519067133044367],
)


@pytest.mark.parametrize("delta", [0.0, 1e-40])
@pytest.mark.parametrize(
    "family, case",
    [
        pytest.param("tv", TWO_OUTCOMES, id="tv"),
        pytest.param("tv", EIGHT_OUTCOMES, marks=ENCLOSURE_DEFECT, id="tv-eight-outcomes"),
        pytest.param("chi2", TWO_OUTCOMES, marks=ENCLOSURE_DEFECT, id="chi2"),
    ],
)
def test_bounds_enclose_the_center_expectation_near_radius_zero(family, case, delta):
    pmf, obj = db.validate(*case, family)
    problem = db.Problem(pmf, obj, family)
    lower, upper = problem.lower(delta).value, problem.upper(delta).value
    assert lower <= db.expectation(pmf, obj) <= upper


def test_tv_bound_is_exactly_monotone_on_a_tied_bottom():
    # Past radius 0.082 all the mass sits on the run tied at -3; the sum of
    # its weights times the run reads -2.9999999999999996 at 0.36 unless the
    # bound is clamped to its support's payoff range.
    pmf, obj = db.validate([0.082, 0.177, 0.741], [-2.0, -3.0, -3.0], "tv")
    problem = db.Problem(pmf, obj, "tv")
    assert problem.lower(0.36).value <= problem.lower(0.18).value


def test_chi2_bound_stays_in_the_payoff_range_below_a_critical_radius():
    # One ulp below its only critical radius the closed form rounds to
    # -3.0000000000000004, below min f and below the -3.0 at the radius itself.
    pmf, obj = db.validate([0.9951, 0.0049], [1.0, -3.0], "chi2")
    problem = db.Problem(pmf, obj, "chi2")
    assert problem.lower(203.0816326530612).value >= -3.0
