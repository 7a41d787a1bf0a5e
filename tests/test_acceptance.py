"""Acceptance battery: one test per shipping criterion.

Each test times its own body against the stated budget, so a slow
regression fails the same line as a wrong value.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from twopoint import (BERNOULLI_CONSTANT, GAUSSIAN_CONSTANT, MIXTURE_MODES,
                      ZeroMeanMeasure, abs_sum_pow, alternative_disintegration,
                      asymmetry_pattern_of, bernoulli_tail_model,
                      bootstrap_ci, comonotone_extremality, cost_compare,
                      cubic_rate_family, decompose, exact_sign_tail,
                      from_asymmetry_pattern, hyperbolic_family, indicator_ge,
                      lambda_star, marginal_check, mixture_expect,
                      neg_abs_diff_pow, normal_tail, power_family, ratio_pow,
                      ratio_moments, component_ratio_moment, sample_pairs,
                      side_masses_from_levels, uniformity_check,
                      two_slope_family, validate_curve, validate_x_pm)

INF = math.inf

EXAMPLE_ATOMS = [(-1, "5/10"), (0, "1/10"), (1, "3/10"), (2, "1/10")]
SYMMETRIC_ATOMS = [(-2, "1/10"), (-1, "4/10"), (1, "4/10"), (2, "1/10")]
THIRD_ATOMS = [(-2, "1/5"), (-1, "2/5"), (2, "2/5")]


def example():
    return ZeroMeanMeasure.from_atoms(EXAMPLE_ATOMS)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"budget {self.seconds:g} s exceeded: {elapsed:.2f} s")


def test_c01_exact_example_reproduction():
    with Budget(1.0):
        mu = example()
        assert mu.m == F(1, 2)

        # cumulative curve plateaus
        for x, want in [(-5, F(1, 2)), (-1, F(1, 2)), (F(-1, 2), 0),
                        (0, 0), (F(1, 2), 0), (1, F(3, 10)),
                        (F(3, 2), F(3, 10)), (2, F(1, 2)), (7, F(1, 2))]:
            assert mu.g(x) == want

        # generalized inverses
        assert mu.x_plus(0) == 0
        for h, want in [(F(1, 10), 1), (F(3, 10), 1), (F(2, 5), 2),
                        (F(1, 2), 2)]:
            assert mu.x_plus(h) == want
        assert mu.x_minus(0) == 0
        for h in (F(1, 10), F(3, 10), F(1, 2)):
            assert mu.x_minus(h) == -1

        # randomized curve at each atom
        for u in (0, F(1, 4), F(1, 2), F(3, 4), 1):
            assert mu.g_tilde(-1, u) == F(1, 2) * u
            assert mu.g_tilde(0, u) == 0
            assert mu.g_tilde(1, u) == F(3, 10) * u
            assert mu.g_tilde(2, u) == F(3, 10) + F(1, 5) * u

        # displayed partner map
        for u in (F(1, 100), F(1, 2), F(3, 5)):
            assert mu.reciprocate(-1, u) == 1
        for u in (F(61, 100), F(9, 10), 1):
            assert mu.reciprocate(-1, u) == 2
        for u in (F(1, 4), F(1, 2), 1):
            assert mu.reciprocate(0, u) == 0
            assert mu.reciprocate(1, u) == -1
            assert mu.reciprocate(2, u) == -1

        # mixture weights and component laws, exactly
        dec = decompose(mu)
        got = {(law.a, law.b): (w, law.p_a, law.p_b)
               for w, law in dec.components}
        assert got == {
            (F(-1), F(1)): (F(3, 5), F(1, 2), F(1, 2)),
            (F(-1), F(2)): (F(3, 10), F(2, 3), F(1, 3)),
            (F(0), F(0)): (F(1, 10), F(1), F(0)),
        }


def test_c02_mixture_identity_five_modes():
    with Budget(1.0):
        mu = example()
        probes = [lambda x: x * x,
                  abs,
                  lambda x: 1 if x > 0 else 0,
                  lambda x: math.exp(min(x, 10))]
        for g in probes:
            want = float(mixture_expect(mu, g, "direct"))
            for mode in MIXTURE_MODES:
                got = float(mixture_expect(mu, g, mode))
                assert abs(got - want) <= 1e-12, (mode, got, want)

        # level-integral identities for the side masses
        p_pos, p_neg = side_masses_from_levels(mu)
        assert p_pos == F(2, 5)
        assert p_neg == F(1, 2)


def test_c03_ratio_laws():
    with Budget(1.0):
        mu = example()
        mom = ratio_moments(mu)
        assert mom.ex_over_r == -1

        for w, law in decompose(mu).components:
            if law.is_degenerate:
                continue
            closed = -1 + (law.a + law.b) ** 2 / (law.a * law.b)
            direct = law.expect(lambda x: law.a * law.b / x / x)
            got = component_ratio_moment(law)
            assert abs(float(got - closed)) <= 1e-14
            assert abs(float(got - direct)) <= 1e-14

        # aggregate: strictly below -1 for the asymmetric measure,
        # exactly -1 for symmetric ones
        assert mom.er_over_x < -1
        for atoms in (SYMMETRIC_ATOMS, [(-1, "1/2"), (1, "1/2")]):
            sym = ZeroMeanMeasure.from_atoms(atoms)
            assert ratio_moments(sym).er_over_x == -1


def test_c04_level_identity_and_uniformity():
    with Budget(10.0):
        triple = [EXAMPLE_ATOMS, SYMMETRIC_ATOMS, THIRD_ATOMS]
        for atoms in triple:
            mu = ZeroMeanMeasure.from_atoms(atoms)
            for k in range(50):
                h = mu.m * k / 49
                assert mu.h_plus(h) == h
                assert mu.h_minus(h) == h

        mu = example()
        for which in ("G_tilde_Y", "F_tilde_X"):
            rep = uniformity_check(mu, which, n=100_000,
                                   rng=np.random.default_rng(20260823))
            assert rep.passed, (which, rep.statistic, rep.critical)


def test_c05_constants_and_critical_exponent():
    with Budget(1.0):
        assert abs(GAUSSIAN_CONSTANT - 5.6993) <= 1e-3
        assert abs(BERNOULLI_CONSTANT - 4.46336) <= 1e-4

        # the two means of evaluating the exponent at one half agree
        # exactly in floating point
        p = 0.5
        formula = (1 + p + 2 * p * p) / (
            2 * (math.sqrt(p - p * p) + 2 * p * p))
        assert formula == 1.0
        assert lambda_star(0.5) == 1.0

        assert abs(lambda_star(1.0 / 3.0) - 1.1218) <= 1e-3


def test_c06_conservative_tail_bounds():
    with Budget(60.0):
        mu = example()
        reps, n = 100_000, 10
        rng = np.random.default_rng(90210)
        xs, rs, _ = sample_pairs(mu, reps * n, rng)
        X = xs.reshape(reps, n)
        R = rs.reshape(reps, n)
        num = X.sum(axis=1)
        grid = np.linspace(0.0, 5.0, 40)

        with np.errstate(invalid="ignore", divide="ignore"):
            s_width = num / (0.5 * np.sqrt(((X - R) ** 2).sum(axis=1)))
        emp = (s_width[None, :] >= grid[:, None]).mean(axis=1)
        bound = np.minimum(1.0, [GAUSSIAN_CONSTANT * normal_tail(x)
                                 for x in grid])
        slack = 3.0 * np.sqrt(bound * (1.0 - bound) / reps)
        assert (emp <= bound + slack).all(), \
            float((emp - bound - slack).max())

        p = 1.0 / 3.0
        lam = lambda_star(p)
        with np.errstate(invalid="ignore", divide="ignore"):
            s_prod = num / ((np.abs(X * R) ** lam).sum(axis=1)) \
                ** (1.0 / (2.0 * lam))
        model = bernoulli_tail_model(n, p, lam)
        bound = np.minimum(1.0, [BERNOULLI_CONSTANT * model.lc_tail(x)
                                 for x in grid])
        slack = 3.0 * np.sqrt(bound * (1.0 - bound) / reps)
        emp = (s_prod[None, :] >= grid[:, None]).mean(axis=1)
        assert (emp <= bound + slack).all(), \
            float((emp - bound - slack).max())


def test_c07_exhaustive_sign_tails():
    with Budget(30.0):
        for n in range(2, 13):
            vectors = [np.ones(n) / math.sqrt(n)]
            lop = np.ones(n)
            lop[0] = 2.0
            vectors.append(lop / math.sqrt(n + 3.0))
            raw = np.random.default_rng(1234 + n).random(n) + 0.1
            vectors.append(raw / math.sqrt((raw ** 2).sum()))
            for coeffs in vectors:
                support, tails = exact_sign_tail(coeffs)
                for x, tail in zip(support, tails):
                    if x < 0:
                        continue
                    cap = math.exp(-0.5 * x * x)
                    assert tail <= cap * (1 + 1e-12) + 1e-15, (n, x, tail)


def test_c08_inverse_characterization_round_trip():
    with Budget(5.0):
        rep = validate_x_pm(lambda h: 3.0 / (1.0 - h), lambda h: -3.0, 1.0)
        assert rep.valid
        expect = {-4.0: 0.0, -3.0: 1.0 / 3.0, -1.0: 1.0 / 3.0,
                  0.0: 5.0 / 6.0, 1.0: 5.0 / 6.0, 3.0: 5.0 / 6.0,
                  4.0: 1.0 - 3.0 / 32.0, 10.0: 1.0 - 3.0 / 200.0}
        for x, want in expect.items():
            assert abs(rep.cdf(x) - want) <= 1e-9, (x, rep.cdf(x), want)


def test_c09_modeling_invariants_thirty_settings():
    with Budget(10.0):
        curves = []
        for c in (0.7, 2.0):
            for p in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, INF,
                      -INF):
                curves.append(power_family(p, c))
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            curves.append(hyperbolic_family(alpha, 1.3))
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            curves.append(cubic_rate_family(alpha, 0.9))
        assert len(curves) == 30

        for curve in curves:
            rep = validate_curve(curve)
            assert rep.passed, (curve.label, rep.failures)
            assert rep.involution_error <= 1e-9, curve.label
            assert curve(0.0) == 0.0, curve.label
            if curve.smooth_at_zero:
                assert abs(rep.derivative_at_zero + 1.0) <= 1e-4, \
                    curve.label

            pattern = asymmetry_pattern_of(curve)
            rebuilt = from_asymmetry_pattern(pattern, validate=False)
            lo = curve.a_minus if math.isfinite(curve.a_minus) else -4.0
            hi = curve.a_plus if math.isfinite(curve.a_plus) else 4.0
            for frac in (0.15, 0.4, 0.6, 0.85):
                x = lo + frac * (hi - lo)
                r0 = curve(x)
                assert abs(rebuilt(x) - r0) <= 1e-8 * (1.0 + abs(r0)), \
                    (curve.label, x)


@pytest.mark.parametrize("make", [
    lambda: power_family(2.0, 1.0), lambda: two_slope_family(2.0),
    lambda: hyperbolic_family(0.5, 1.3), lambda: cubic_rate_family(0.5, 0.9)],
    ids=["power", "two_slope", "hyperbolic", "cubic_rate"])
def test_curve_partners_of_a_million_samples(make):
    xs = np.random.default_rng(12).standard_t(3, 10**6)
    curve = make()
    with Budget(10.0):
        rs = curve(xs)
    assert rs.shape == xs.shape
    assert (np.sign(rs) == -np.sign(xs)).all()


def test_c10_canonical_extremality():
    with Budget(30.0):
        mu = ZeroMeanMeasure.from_atoms(SYMMETRIC_ATOMS)
        alt = alternative_disintegration(
            mu, [("3/10", -2, 1), ("3/10", -1, 2), ("4/10", -1, 1)])
        assert marginal_check(mu, alt).passed

        costs = [neg_abs_diff_pow(1), ratio_pow(1)]
        costs += [indicator_ge(a, b) for a in (1, 2) for b in (1, 2)]
        for cost in costs:
            cmp = cost_compare(mu, cost, alt)
            assert cmp.satisfied, cost.label
        strict = cost_compare(mu, neg_abs_diff_pow(1), alt)
        assert strict.canonical > strict.alternative

        builtin = [neg_abs_diff_pow(1), neg_abs_diff_pow(2),
                   abs_sum_pow(1), abs_sum_pow(2), indicator_ge(2, 2),
                   ratio_pow(1), ratio_pow(1, side="neg_over_pos")]
        pos_pool = [1, 2, 3, 5, 8, 13]
        neg_pool = [1, 1, 2, 3, 5, 8]
        for size in range(1, 7):
            for cost in builtin:
                rep = comonotone_extremality(pos_pool[:size],
                                             neg_pool[:size], cost)
                assert rep.passed, (size, cost.label)


def test_c11_bootstrap_coverage():
    with Budget(300.0):
        covered = 0
        for rep in range(200):
            rng = np.random.default_rng(31_000 + rep)
            data = rng.exponential(size=200) - 1.0
            run = bootstrap_ci(data, rng=rng)
            lo, hi = run.ci
            covered += (lo <= 0.0 <= hi)
        assert covered >= 180, covered
