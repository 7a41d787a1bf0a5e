"""The array curve kernels against the scalar curves they replaced.

``ScalarCurves`` below is the earlier implementation: one Python float at
a time through ``math``, with the pattern-built curves (``cubic_rate``
and the hyperbolic end members ``alpha = +-1``) solved by a doubling
search and plain bisection to a width of ``1e-13 (1 + w)``.  It is the
reference for every family; the overflow and range defects it had are
tested here against their closed forms instead."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twopoint import (cubic_rate_family, family_from_spec, hyperbolic_family,
                      power_family, two_slope_family, validate_curve)
from twopoint.modeling import _invert_increasing

INF = math.inf


class ScalarCurves:
    """Scalar partner of ``x`` for each family, as computed before."""

    @staticmethod
    def _exp(v):
        try:
            return math.exp(v)
        except OverflowError:
            return INF

    @staticmethod
    def _pow(base, e):
        if base == 0.0:
            return 0.0 if e > 0 else INF
        try:
            return math.pow(base, e)
        except OverflowError:
            return INF

    @staticmethod
    def _invert_increasing(f, target, hi_cap):
        if target <= 0.0:
            return 0.0
        hi = min(1.0, hi_cap)
        while f(hi) < target:
            if hi > 1e300:
                return hi
            hi = min(hi * 2.0, hi_cap)
            if hi == hi_cap and f(hi) < target:
                break
        lo = 0.0 if hi <= 1.0 else hi / 2.0
        for _ in range(200):
            if hi - lo <= 1e-13 * (1.0 + abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if f(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @classmethod
    def _from_pattern(cls, a):
        def core(x):
            if x == 0.0:
                return 0.0
            if x > 0:
                w = cls._invert_increasing(lambda w: 0.5 * (w + a(w)), x,
                                           INF)
                return -0.5 * (w - a(w))
            w = cls._invert_increasing(lambda w: 0.5 * (w - a(w)), -x, INF)
            return 0.5 * (w + a(w))
        return core

    @classmethod
    def core(cls, spec):
        kind = spec["family"]
        if kind == "two_slope":
            kappa = spec["kappa"]
            return lambda x: -x / kappa if x >= 0 else -kappa * x
        if kind == "cubic_rate":
            alpha, c = spec["alpha"], spec["c"]
            amp = 8.0 * alpha * c / (3.0 * math.sqrt(3.0))
            return cls._from_pattern(lambda w: amp * w * w / (c * c + w * w))
        if kind == "hyperbolic":
            alpha, c = spec["alpha"], spec["c"]
            if abs(alpha) == 1.0:
                return cls._from_pattern(lambda w: alpha * w * w / (c + w))

            def core(x):
                if x == 0.0:
                    return 0.0
                s = 1.0 if x > 0 else -1.0
                disc = (c + 2.0 * abs(x)) ** 2 + 8.0 * alpha * c * x
                return 2.0 * x * ((alpha - s) * x - c) / (
                    c + 2.0 * alpha * x + math.sqrt(disc))
            return core
        p, c = spec["p"], spec["c"]
        if p == INF:
            return lambda x: (c * (1.0 - cls._exp(x / c)) if x >= 0
                              else c * math.log1p(-x / c))
        if p == -INF:
            return lambda x: (-c * (1.0 - cls._exp(-x / c)) if x >= 0
                              else -c * math.log1p(x / c))
        if p == 0:
            return lambda x: (-c * math.log1p(x / c) if x >= 0
                              else c * (cls._exp(-x / c) - 1.0))

        def core(x):
            if x >= 0:
                return (c / p) * (1.0 - cls._pow(1.0 + x / c, p))
            base = 1.0 - p * x / c
            if base <= 0.0:
                return INF
            return c * (cls._pow(base, 1.0 / p) - 1.0)
        return core

    @classmethod
    def partner(cls, spec, x):
        curve = family_from_spec(spec)  # endpoints only
        if x <= curve.a_minus:
            return curve.a_plus
        if x >= curve.a_plus:
            return curve.a_minus
        return float(cls.core(spec)(x))


SPECS = (
    [{"family": "power", "p": p, "c": c}
     for p in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, INF, -INF)
     for c in (0.7, 2.0)]
    + [{"family": "hyperbolic", "alpha": a, "c": 1.3}
       for a in (-1.0, -0.999, -0.5, 0.0, 0.5, 0.999, 1.0)]
    + [{"family": "cubic_rate", "alpha": a, "c": 0.9}
       for a in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    + [{"family": "two_slope", "kappa": k} for k in (0.5, 1.0, 2.0)])


def _near_pole(spec, x):
    """Within ``c/8`` of the finite endpoint of a hyperbolic end member,
    where the scalar reference bisects a pattern whose solve loses about
    ``1e-13 |r|`` relative as ``r`` grows without bound."""
    if spec["family"] != "hyperbolic" or abs(spec["alpha"]) != 1.0:
        return False
    return abs(abs(x) - spec["c"] / 2) < spec["c"] / 8


@given(st.sampled_from(SPECS),
       st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
@example({"family": "cubic_rate", "alpha": 0.5, "c": 0.9}, 1e6)
@example({"family": "hyperbolic", "alpha": -0.999, "c": 1.3}, 16.75)
@example({"family": "power", "p": INF, "c": 0.7}, 0.0)
def test_array_kernels_match_the_scalar_curves(spec, x):
    # Bound: the pattern-built curves stopped bisecting at a width of
    # 1e-13 (1 + w); the closed forms moved by a few ulps (np.exp,
    # np.log1p and np.power against math), and alpha = -+0.999 by up to
    # 4e-13 relative under the cancellation-free discriminant.
    if _near_pole(spec, x):
        return
    old = ScalarCurves.partner(spec, x)
    curve = family_from_spec(spec)
    new = curve(x)
    assert type(new) is float
    assert new == curve(np.array([x]))[0]
    if math.isinf(old):
        assert new == old
    else:
        assert abs(new - old) <= 1e-12 * (1.0 + abs(x) + abs(old)), \
            (curve.label, x, old, new)


@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("gap", [0.1, 1e-3, 1e-6, 1e-9])
def test_end_members_near_the_pole_match_mpmath(alpha, gap):
    c = 1.3
    x = -alpha * (c / 2 - gap)  # on the side whose partner runs off
    with mpmath.workdps(50):
        t = mpmath.mpf(abs(x))
        want = -mpmath.sign(x) * t * (c + 2 * t) / (mpmath.mpf(c) - 2 * t)
    got = hyperbolic_family(alpha, c)(x)
    assert abs(got - float(want)) <= 1e-14 * abs(float(want))


def _power_mpmath(p, c, x):
    """The power member at ``x`` from its defining closed forms, with
    enough digits that ``1 + x/c`` keeps ``x = 1e-300``."""
    with mpmath.workdps(340):
        x, c = mpmath.mpf(x), mpmath.mpf(c)
        if p == INF:
            return c * (1 - mpmath.exp(x / c)) if x >= 0 \
                else c * mpmath.log(1 - x / c)
        if p == -INF:
            return -c * (1 - mpmath.exp(-x / c)) if x >= 0 \
                else -c * mpmath.log(1 + x / c)
        if p == 0:
            return -c * mpmath.log(1 + x / c) if x >= 0 \
                else c * (mpmath.exp(-x / c) - 1)
        p = mpmath.mpf(p)
        if x >= 0:
            return (c / p) * (1 - (1 + x / c) ** p)
        return c * ((1 - p * x / c) ** (1 / p) - 1)


@pytest.mark.parametrize("spec", [s for s in SPECS if s["family"] == "power"],
                         ids=lambda s: f"p={s['p']},c={s['c']}")
def test_power_members_match_mpmath_from_tiny_to_large(spec):
    # Bound: 4 ulps of 1 times (1 + |x|/c), the condition number of the
    # exponential in x/c; near zero it is a relative bound of about 1e-15.
    # A partner past the float range must come out as an infinity.
    p, c = spec["p"], spec["c"]
    curve = power_family(p, c)
    xs = np.array([s * 10.0 ** k for k in range(-300, 4) for s in (1.0, -1.0)])
    xs = xs[(xs > curve.a_minus) & (xs < curve.a_plus)]
    for x, got in zip(xs, curve(xs)):
        want = _power_mpmath(p, c, x)
        if abs(want) > np.finfo(float).max:
            assert got == math.copysign(INF, want), (x, got)
            continue
        bound = 4 * np.finfo(float).eps * (1 + abs(x) / c)
        assert abs(got - want) <= bound * abs(want), (x, got, float(want))


@pytest.mark.parametrize("p", [1e-3, -1e-3, 1e-6, -1e-6, 1e-10, -1e-10,
                               1e-14, 1e-300])
def test_small_exponent_keeps_the_negative_side(p):
    # 1 + p|x| rounds at a small exponent, and the power 1/p would raise
    # that rounding to a relative error of about eps / p
    curve = power_family(p, 1.0)
    for x in (-64.0, -10.0, -2.0, -1.0):
        want = _power_mpmath(p, 1.0, x)
        assert abs(curve(x) - want) <= 1e-12 * abs(want), (x, float(want))


@pytest.mark.parametrize("x", [1e16, 1e100, 1e300])
def test_hyperbolic_end_members_stay_in_range(x):
    c = 1.3
    up = hyperbolic_family(1.0, c)
    # past 1e16 the partner rounds to the endpoint itself, so the range
    # is closed there
    assert up.a_minus <= up(x) < 0.0
    assert abs(up(x) + c / 2) <= 1e-12 * c / 2
    down = hyperbolic_family(-1.0, c)
    assert 0.0 < down(-x) <= down.a_plus
    assert abs(down(-x) - c / 2) <= 1e-12 * c / 2


def test_hyperbolic_far_out_is_finite():
    curve = hyperbolic_family(0.5, 1.0)
    # r(x) ~ -x (1 - alpha) / (1 + alpha) on the right
    assert curve(1e200) == pytest.approx(-1e200 / 3, rel=1e-12)
    assert curve(np.finfo(float).max) == pytest.approx(
        -np.finfo(float).max / 3, rel=1e-12)
    assert curve(-1e200) == pytest.approx(3e200, rel=1e-12)


@pytest.mark.parametrize("x", [1e200, -1e200, 1e300, -1e300, 1e305])
def test_cubic_rate_far_out(x):
    r = cubic_rate_family(0.5, 0.9)(x)
    assert abs(r + x) <= 1e-12 * abs(x)


@pytest.mark.parametrize("alpha", [-1.0, 1.0])
def test_cubic_rate_round_trip_where_the_width_map_is_flat(alpha):
    # at alpha = +-1 the pair width of some points solves xi(w) = x where
    # xi' = 0; the partner (a(w) - s w) / 2 barely moves with w there
    report = validate_curve(cubic_rate_family(alpha, 0.9))
    assert report.passed
    assert report.involution_error <= 1e-12


def test_invert_increasing_brackets_to_the_float_maximum():
    top = np.finfo(float).max
    w = _invert_increasing(lambda w: 0.5 * w, np.array([1e307, 0.6 * top]),
                           INF)
    assert w[0] == pytest.approx(2e307, rel=1e-13)
    assert w[1] == INF
    # a cap below the root is no bracket either
    assert _invert_increasing(lambda w: w, np.array([3.0]), 2.0)[0] == INF


@pytest.mark.parametrize("make", [
    lambda: power_family(2.0, 1.0), lambda: two_slope_family(2.0),
    lambda: hyperbolic_family(1.0, 1.3), lambda: cubic_rate_family(-1.0, 0.9)],
    ids=["power", "two_slope", "hyperbolic", "cubic_rate"])
def test_scalar_and_array_calls_agree(make):
    curve = make()
    xs = np.linspace(-3.0, 3.0, 61)
    assert curve(xs).tolist() == [curve(float(x)) for x in xs]
    assert curve(xs.reshape(61, 1)).shape == (61, 1)
