"""Curve families, pattern round trips, and the two validators."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from twopoint import (AsymmetryPattern, ReciprocatingCurve, curve_table,
                      cubic_rate_family, family_from_spec,
                      from_asymmetry_pattern, asymmetry_pattern_of,
                      hyperbolic_family, power_family, two_slope_family,
                      validate_curve, validate_x_pm)
from twopoint.errors import (BadAlpha, BadScale, CharacterizationFailed,
                             InputError, Lip1Violated, NotValidCurve)

INF = math.inf


def involution_gap(curve, xs):
    worst = 0.0
    for x in xs:
        r = curve(x)
        if curve.a_minus < r < curve.a_plus:
            worst = max(worst, abs(curve(r) - x))
    return worst


class TestPowerFamily:
    def test_linear_member(self):
        cv = power_family(1.0, 2.0)
        for x in (-3.0, -0.25, 0.0, 1.0, 7.5):
            assert cv(x) == pytest.approx(-x, abs=1e-15)

    def test_quadratic_member(self):
        cv = power_family(2.0, 1.0)
        # closed form -((1 + x)^2 - 1)/2 on the right branch
        assert cv(1.0) == pytest.approx(-1.5)
        assert cv(-0.5) == pytest.approx(math.sqrt(2.0) - 1.0)
        assert cv(cv(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_exponent_domain(self):
        cv = power_family(-1.0, 1.5)
        assert cv.a_minus == -1.5
        assert cv.a_plus == INF
        assert cv(1.0) == pytest.approx(-0.6)
        assert cv(-1.5) == INF
        assert cv(-2.0) == INF

    def test_log_member(self):
        cv = power_family(0.0, 1.0)
        assert cv(1.0) == pytest.approx(-math.log(2.0))
        assert cv(-0.5) == pytest.approx(math.e ** 0.5 - 1.0)

    def test_exponential_tags(self):
        fast = family_from_spec({"family": "power", "p": "inf", "c": 1.0})
        assert fast(1.0) == pytest.approx(-(math.e - 1.0))
        assert (fast.a_minus, fast.a_plus) == (-INF, INF)
        slow = family_from_spec({"family": "power", "p": "-inf", "c": 1.0})
        assert slow.a_minus == -1.0
        assert slow(1.0) == pytest.approx(-(1.0 - math.e ** -1.0))
        # saturates toward the finite endpoint
        assert slow(40.0) == pytest.approx(-1.0, abs=1e-12)

    def test_bad_scale(self):
        with pytest.raises(BadScale):
            power_family(1.0, 0.0)
        with pytest.raises(BadScale):
            power_family(2.0, -1.0)


class TestTwoSlope:
    def test_values(self):
        cv = two_slope_family(2.0)
        assert cv(1.0) == -0.5
        assert cv(-1.0) == 2.0
        assert not cv.smooth_at_zero
        assert two_slope_family(1.0).smooth_at_zero
        assert family_from_spec({"family": "two_slope",
                                 "kappa": "2"}).label == cv.label

    def test_kink_fails_derivative_check(self):
        kinked = two_slope_family(2.0)
        rep = validate_curve(dataclasses.replace(kinked, smooth_at_zero=True))
        assert not rep.passed
        assert any("slope" in f for f in rep.failures)
        rep = validate_curve(kinked)
        assert rep.passed, rep.failures
        assert rep.derivative_at_zero is None


class TestHyperbolic:
    def test_symmetric_member(self):
        cv = hyperbolic_family(0.0, 1.3)
        for x in (-2.0, 0.5, 4.0):
            assert cv(x) == pytest.approx(-x, abs=1e-12)

    def test_pattern_relation(self):
        # the family is generated by a(w) = alpha w^2 / (c + w)
        for alpha in (0.5, 0.999):
            cv = hyperbolic_family(alpha, 1.0)
            for x in (0.3, 1.0, 2.5, 6.0):
                w = x - cv(x)
                a = x + cv(x)
                assert a == pytest.approx(alpha * w * w / (1.0 + w),
                                          abs=1e-10)

    def test_end_members(self):
        hi = hyperbolic_family(1.0, 1.3)
        assert hi.a_minus == pytest.approx(-0.65)
        assert hi.a_plus == INF
        lo = hyperbolic_family(-1.0, 1.3)
        assert lo.a_plus == pytest.approx(0.65)
        assert lo.a_minus == -INF
        assert involution_gap(hi, [0.1, 0.5, 2.0, -0.3]) < 1e-9

    def test_bad_alpha(self):
        with pytest.raises(BadAlpha):
            hyperbolic_family(1.5, 1.0)


class TestCubicRate:
    def test_symmetric_member(self):
        cv = cubic_rate_family(0.0, 0.9)
        assert cv(2.0) == pytest.approx(-2.0, abs=1e-10)

    def test_asymptotic_offset(self):
        alpha, c = 0.5, 0.9
        cv = cubic_rate_family(alpha, c)
        amp = 8.0 * alpha * c / (3.0 * math.sqrt(3.0))
        assert cv(800.0) + 800.0 == pytest.approx(amp, abs=1e-5)
        assert cv(-800.0) - 800.0 == pytest.approx(amp, abs=1e-5)


class TestValidateCurve:
    def test_good_curve_report(self):
        rep = validate_curve(power_family(2.0, 1.0))
        assert rep.passed
        assert rep.involution_error < 1e-9
        assert rep.derivative_at_zero == pytest.approx(-1.0, abs=1e-4)
        data = rep.to_jsonable()
        assert data["passed"] is True

    def test_flat_curve_rejected(self):
        flat = ReciprocatingCurve(-INF, INF, lambda x: -1.0, "flat", False)
        rep = validate_curve(flat)
        assert not rep.passed
        assert any("decreasing" in f or "zero" in f for f in rep.failures)

    @pytest.mark.parametrize("lo, hi, core", [
        (0.0, 1.0, lambda x: 1.0 - x), (-1.0, 0.0, lambda x: -1.0 - x)],
        ids=["left-end-at-zero", "right-end-at-zero"])
    def test_endpoint_at_zero_reported(self, lo, hi, core):
        # no slope probe fits between zero and the endpoint there
        rep = validate_curve(ReciprocatingCurve(lo, hi, core))
        assert not rep.passed
        assert "no room to probe the slope at zero" in rep.failures
        assert rep.derivative_at_zero is None

    def test_non_involution_rejected(self):
        cube = ReciprocatingCurve(-INF, INF, lambda x: -x ** 3, "cube", False)
        rep = validate_curve(cube)
        assert not rep.passed
        assert any("involution" in f for f in rep.failures)

    def test_nan_query(self):
        with pytest.raises(InputError):
            power_family(1.0, 1.0)(math.nan)

    def test_clamping(self):
        cv = power_family(-1.0, 1.0)
        assert cv(-5.0) == INF
        slow = family_from_spec({"family": "power", "p": "-inf", "c": 2.0})
        assert slow(INF) == -2.0


class TestPatterns:
    def test_round_trip(self):
        cv = hyperbolic_family(0.5, 1.0)
        pat = asymmetry_pattern_of(cv)
        for w in (0.4, 1.0, 3.0):
            assert pat.a(w) == pytest.approx(0.5 * w * w / (1.0 + w),
                                             abs=1e-8)
        back = from_asymmetry_pattern(pat, validate=False)
        for x in (0.2, 1.0, 4.0, -0.4):
            assert back(x) == pytest.approx(cv(x), abs=1e-8)

    def test_coordinates(self):
        pat = AsymmetryPattern(lambda w: 0.0, -INF, INF)
        assert pat.xi(2.0) == 1.0
        assert pat.rho(2.0) == 1.0
        assert pat.width_bound == INF

    def test_lip1_rejected(self):
        with pytest.raises(Lip1Violated):
            from_asymmetry_pattern(AsymmetryPattern(lambda w: w, -INF, INF))

    def test_bounded_widths(self):
        # a(w) = w / 5 pairs x in (0, 3) with -2x / 3, up to the width 5
        cv = from_asymmetry_pattern(AsymmetryPattern(lambda w: w / 5,
                                                     -2.0, 3.0))
        assert cv(1.5) == pytest.approx(-1.0, rel=1e-12)
        assert cv(-1.0) == pytest.approx(1.5, rel=1e-12)
        ws = np.array([0.5, 2.5, 4.5])
        assert asymmetry_pattern_of(cv).a(ws) == pytest.approx(ws / 5,
                                                               abs=1e-9)

    def test_lip1_rejected_on_bounded_widths(self):
        with pytest.raises(Lip1Violated):
            from_asymmetry_pattern(AsymmetryPattern(lambda w: w, -1.0, 1.0))

    def test_inconsistent_curve_rejected(self):
        cube = ReciprocatingCurve(-INF, INF, lambda x: -x ** 3, "cube", True)
        with pytest.raises(NotValidCurve):
            asymmetry_pattern_of(cube)

    def test_table(self):
        cv = power_family(1.0, 1.0)
        rows = curve_table(cv, [0.0, 1.0, -2.0])
        assert rows == [(0.0, -0.0), (1.0, -1.0), (-2.0, 2.0)] or \
            rows == [(0.0, 0.0), (1.0, -1.0), (-2.0, 2.0)]


class TestInverseCharacterization:
    def test_worked_example(self):
        rep = validate_x_pm(lambda h: 3.0 / (1.0 - h), lambda h: -3.0, 1.0)
        assert rep.valid
        assert rep.mass_at_zero == pytest.approx(0.5, abs=1e-9)
        expect = {-4.0: 0.0, -3.0: 1.0 / 3.0, -1.0: 1.0 / 3.0,
                  0.0: 5.0 / 6.0, 1.0: 5.0 / 6.0, 3.0: 5.0 / 6.0,
                  4.0: 1.0 - 3.0 / 32.0, 10.0: 0.985}
        for x, want in expect.items():
            assert rep.cdf(x) == pytest.approx(want, abs=1e-9)

    def test_measure_is_usable(self):
        rep = validate_x_pm(lambda h: 3.0 / (1.0 - h), lambda h: -3.0, 1.0)
        mu = rep.measure
        assert float(mu.m) == pytest.approx(1.0, abs=1e-9)
        assert float(mu.x_minus(0.5)) == pytest.approx(-3.0, abs=1e-9)

    def test_measure_has_its_mass_at_zero(self):
        # the mass integral of 1/x_plus - 1/x_minus is 1/6 + 1/3
        rep = validate_x_pm(lambda h: 3.0 / (1.0 - h), lambda h: -3.0, 1.0)
        mu = rep.measure
        assert mu.prob_zero == pytest.approx(0.5, abs=1e-9)
        assert mu.mass_at(0) == pytest.approx(0.5, abs=1e-9)
        assert mu.mass_at(3.0) == 0.0

    def test_jump_between_the_left_probes(self):
        # y_plus steps from 2 to 3 between the probes 1e-7 and 1e-9 left of
        # the level 1/2, so the refined probe sees the value at 1/2
        rep = validate_x_pm(lambda h: 2.0 if h <= 0.5 - 1e-8 else 3.0,
                            lambda h: -4.0, 1.0)
        assert rep.valid
        assert rep.cdf(3.0) == rep.cdf(7.0) == 1.0

    def test_cdf_cuts_a_sloped_negative_inverse(self):
        rep = validate_x_pm(lambda h: 4.0, lambda h: -1.0 - 2.0 * h, 1.0)
        # P(X <= -2) is the integral of 1 / (1 + 2 h) over (1/2, 1)
        assert rep.cdf(-2.0) == pytest.approx(0.5 * math.log(1.5),
                                              abs=1e-9)
        assert rep.cdf(4.0) == 1.0

    @pytest.mark.parametrize("yp,ym,msg", [
        (lambda h: -1.0, lambda h: -3.0, "positive"),
        (lambda h: 3.0, lambda h: 2.0, "negative"),
        (lambda h: 3.0 - 2.0 * h, lambda h: -3.0, "nondecreasing"),
        (lambda h: 0.5, lambda h: -0.5, "mass integral"),
        pytest.param(lambda h: 3.0, lambda h: -3.0 + h, "nonincreasing",
                     id="negative-rises"),
        pytest.param(lambda h: 3.0 if h < 0.9 else INF, lambda h: -3.0,
                     "finite below m", id="positive-infinite-below-m"),
        pytest.param(lambda h: 3.0, lambda h: -3.0 if h < 0.9 else -INF,
                     "finite below m", id="negative-infinite-below-m"),
        pytest.param(lambda h: 2.0 if h < 0.5 else 3.0, lambda h: -4.0,
                     "left-continuity", id="jump-at-a-probe"),
    ])
    def test_violations(self, yp, ym, msg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CharacterizationFailed, match=msg):
                validate_x_pm(yp, ym, 1.0)


@pytest.mark.parametrize("call, error", [
    (lambda: power_family(math.nan, 1.0), InputError),
    (lambda: two_slope_family(0.0), BadScale),
    (lambda: two_slope_family(INF), BadScale),
    (lambda: hyperbolic_family(0.5, 0.0), BadScale),
    (lambda: cubic_rate_family(0.5, INF), BadScale),
    (lambda: cubic_rate_family(1.5, 1.0), BadAlpha),
    (lambda: family_from_spec({"family": "logistic"}), InputError),
    (lambda: family_from_spec({"family": "power", "p": 2, "kappa": -5}),
     InputError),
    (lambda: family_from_spec({"family": "two_slope", "kappa": [2]}),
     InputError),
    (lambda: family_from_spec({"family": "hyperbolic", "c": None}),
     InputError),
    (lambda: family_from_spec({"family": "power", "p": True}), InputError),
    (lambda: family_from_spec({"family": "cubic_rate", "alpha": "abc"}),
     InputError),
    (lambda: from_asymmetry_pattern(AsymmetryPattern(lambda w: 0.5, -INF,
                                                     INF)), Lip1Violated),
    (lambda: validate_x_pm(lambda h: 1.0, lambda h: -1.0, 0.0), InputError),
    (lambda: validate_x_pm(lambda h: math.nan, lambda h: -1.0, 1.0),
     CharacterizationFailed),
], ids=["power-nan-exponent", "two-slope-zero-kappa", "two-slope-inf-kappa",
        "hyperbolic-zero-scale", "cubic-rate-inf-scale", "cubic-rate-alpha",
        "unknown-family", "power-with-kappa", "list-parameter",
        "null-parameter", "bool-parameter", "non-numeric-parameter",
        "pattern-off-zero", "half-mean-zero", "nan-candidate"])
def test_input_checks(call, error):
    with pytest.raises(error):
        call()
