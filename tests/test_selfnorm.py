"""Self-normalized statistics, tail models, and certificates."""

import itertools
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import (BERNOULLI_CONSTANT, GAUSSIAN_CONSTANT,
                      ZeroMeanMeasure, asymmetry_certificate,
                      bernoulli_tail_model, conservative_test,
                      exact_sign_tail, gaussian_bound, hoeffding_bound,
                      lambda_star, normal_tail, s_w, s_y, sample_pairs)
from twopoint import selfnorm
from twopoint.errors import (AsymmetryViolated, BadLambda, BadP, InputError,
                             LambdaTooSmall, LengthMismatch, NotDiscrete,
                             NotLogConcave, TooLarge, TwopointError)


class TestConstants:
    def test_closed_forms(self):
        assert abs(GAUSSIAN_CONSTANT - 120.0 * (math.e / 5.0) ** 5) < 1e-15
        assert abs(BERNOULLI_CONSTANT - 2.0 * math.e ** 3 / 9.0) < 1e-15

    def test_critical_exponent(self):
        assert lambda_star(0.5) == 1.0
        assert lambda_star(0.75) == 1.0
        # closed form at p = 1/4 reduces to sqrt(3) - 1/2
        assert abs(lambda_star(0.25) - (math.sqrt(3.0) - 0.5)) < 1e-15
        assert lambda_star(F(1, 3)) == pytest.approx(1.1213203435596424,
                                                     abs=1e-15)

    def test_exponent_domain(self):
        for bad in (0, 1, -0.2, 1.5):
            with pytest.raises(BadP):
                lambda_star(bad)


class TestStatistics:
    def test_width_statistic(self):
        xs = np.array([3.0, 1.0, 3.0, 1.0])
        rs = np.array([-1.0, 3.0, -1.0, 3.0])
        assert s_w(xs, rs) == pytest.approx(8.0 / math.sqrt(10.0))

    def test_width_reflected_partners_recover_classic_form(self):
        xs = np.array([1.5, -0.5, 2.0, -3.0])
        want = xs.sum() / math.sqrt((xs ** 2).sum())
        assert s_w(xs, -xs) == pytest.approx(want, abs=1e-15)

    def test_product_statistic(self):
        xs = np.array([2.0, -1.0])
        rs = np.array([-1.0, 2.0])
        assert s_y(xs, rs, 1.0) == pytest.approx(0.5)
        den = (2.0 * 2.0 ** 2) ** 0.25
        assert s_y(xs, rs, 2.0) == pytest.approx(1.0 / den)

    def test_zero_denominator(self):
        zero = np.zeros(3)
        assert s_w(zero, zero) == 0.0
        assert s_y(zero, zero, 1.0) == 0.0
        assert s_w(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == math.inf

    def test_norm_past_float_range(self):
        # the widths and their squares overflow, the norm does not
        xs = np.array([1e308, -1e308, 1.0])
        rs = np.array([-0.5e308, 0.5e308, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            den = selfnorm._studentizer(xs, rs)
            stat = s_w(xs, rs)
        assert den == pytest.approx(0.5 * math.sqrt(4.5) * 1e308, rel=1e-15)
        assert stat == pytest.approx(1.0 / den, rel=1e-15)

    def test_norm_below_float_range(self):
        # subnormal widths whose squares underflow to zero; the norm does
        # not, and a norm of zeros stays zero
        xs = np.array([-3.5e-323, 1e-323, 3.5e-323])
        rs = np.array([3.5e-323, -1e-323, -3.5e-323])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            den = selfnorm._studentizer(xs, rs)
            prod = selfnorm._studentizer(xs, rs, 1.0)
            zero = selfnorm._studentizer(np.zeros(2), np.zeros(2))
        widths = np.ldexp(xs - rs, 1074)  # exact small integers
        want = math.ldexp(0.5 * math.sqrt(np.square(widths).sum()), -1074)
        assert den == want > 0
        assert prod > 0
        assert zero == 0.0

    def test_shape_errors(self):
        with pytest.raises(LengthMismatch):
            s_w([1.0, 2.0], [3.0])
        with pytest.raises(InputError):
            s_w([], [])
        with pytest.raises(InputError):
            s_w([1.0, math.nan], [1.0, 1.0])
        with pytest.raises(BadLambda):
            s_y([1.0], [-1.0], 0.0)

    @pytest.mark.parametrize("run", [
        lambda xs, rs: s_w(xs, rs),
        lambda xs, rs: s_y(xs, rs, 1.0),
        lambda xs, rs: conservative_test(xs, rs),
        lambda xs, rs: conservative_test(xs, rs, "bernoulli", p=0.3),
    ], ids=["s_w", "s_y", "gaussian", "bernoulli"])
    def test_sum_overflow_is_an_input_error(self, run):
        # finite entries whose sum overflows: the statistic is 4/3, not
        # the inf that a float sum gives
        xs, rs = [1e308, 1e308, -1.0], [-1e308, -1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="sum overflows"):
                run(xs, rs)


    @pytest.mark.parametrize("run", [
        lambda xs, rs: s_w(xs, rs),
        lambda xs, rs: s_y(xs, rs, 1.0),
        lambda xs, rs: s_y(xs, rs, 2.5),
        lambda xs, rs: conservative_test(xs, rs).statistic,
        lambda xs, rs: conservative_test(xs, rs, "bernoulli",
                                         p=0.5).statistic,
    ], ids=["s_w", "s_y", "s_y-2.5", "gaussian", "bernoulli"])
    def test_infinite_partner_of_zero(self, run):
        # |0 * inf| alone is nan; the infinite partner makes the
        # denominator infinite, so the statistic is 0
        xs, rs = [0.0, 1.0, -1.0], [math.inf, -1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(xs, rs) == 0.0

    def test_infinite_partner_of_zero_report(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = conservative_test([0.0, 1.0, -1.0], [math.inf, -1.0, 1.0],
                                    "bernoulli", p=0.5)
        assert math.isfinite(rep.details["raw_bound"])
        assert rep.p_value == min(1.0, rep.details["raw_bound"])

    @pytest.mark.parametrize("rs", [[-1.0, math.nan, -0.5],
                                    [math.nan, 1.0, -0.5]],
                             ids=["at-negative-x", "at-positive-x"])
    @pytest.mark.parametrize("run", [
        lambda xs, rs: s_w(xs, rs),
        lambda xs, rs: s_y(xs, rs, 1.0),
        lambda xs, rs: conservative_test(xs, rs, "gaussian"),
        lambda xs, rs: conservative_test(xs, rs, "bernoulli", p=0.5),
    ], ids=["s_w", "s_y", "gaussian", "bernoulli"])
    def test_nan_partner_is_refused(self, run, rs):
        # an infinite partner is a documented case; a nan one is no
        # partner at all, and not an asymmetry either
        with pytest.raises(InputError, match="nan") as exc:
            run([1.0, -1.0, 0.5], rs)
        assert exc.type is InputError


class TestTails:
    def test_normal_tail(self):
        assert normal_tail(0.0) == pytest.approx(0.5)
        assert normal_tail(1.6448536269514722) == pytest.approx(0.05,
                                                                abs=1e-10)

    def test_bound_wrappers(self):
        assert gaussian_bound(-3.0) == 1.0
        assert gaussian_bound(4.0) == pytest.approx(
            GAUSSIAN_CONSTANT * normal_tail(4.0))
        assert hoeffding_bound(0.0) == 1.0
        assert hoeffding_bound(2.0) == pytest.approx(math.exp(-2.0))

    def test_exact_sign_tail_small(self):
        support, tails = exact_sign_tail([1.0, 1.0, 1.0])
        assert list(support) == [-3.0, -1.0, 1.0, 3.0]
        assert list(tails) == [1.0, 7.0 / 8.0, 4.0 / 8.0, 1.0 / 8.0]

    def test_exact_sign_tail_asymmetric(self):
        support, tails = exact_sign_tail([3.0, 4.0])
        assert list(support) == [-7.0, -1.0, 1.0, 7.0]
        assert list(tails) == [1.0, 0.75, 0.5, 0.25]

    def test_exact_sign_tail_limits(self):
        with pytest.raises(TooLarge):
            exact_sign_tail(np.ones(21))
        with pytest.raises(InputError):
            exact_sign_tail([])


class TestBernoulliModel:
    def test_shape_and_endpoints(self):
        n, p = 6, 1.0 / 3.0
        model = bernoulli_tail_model(n, p, 1.2)
        sup = model.support
        assert len(sup) == n + 1
        assert (np.diff(sup) > 0).all()
        assert model.tail(sup[0]) == pytest.approx(1.0)
        assert model.tail(sup[-1]) == pytest.approx(p ** n)
        assert model.tail(sup[-1] + 1.0) == 0.0

    def test_majorant_dominates(self):
        model = bernoulli_tail_model(9, 0.25, 1.1)
        grid = np.linspace(model.support[0] - 1.0,
                           model.support[-1] + 1.0, 301)
        for x in grid:
            assert model.lc_tail(x) >= model.tail(x) - 1e-12
        assert model.lc_tail(model.support[0] - 0.5) == 1.0
        assert model.lc_tail(model.support[-1] + 0.5) == 0.0
        tails = [model.tail(x) for x in grid]
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))

    def test_model_errors(self):
        with pytest.raises(TooLarge):
            bernoulli_tail_model(2_000_000, 0.3, 1.0)
        with pytest.raises(BadP):
            bernoulli_tail_model(5, 0.0, 1.0)
        with pytest.raises(BadLambda):
            bernoulli_tail_model(5, 0.3, -1.0)
        with pytest.raises(InputError):
            bernoulli_tail_model(0, 0.3, 1.0)


def _upper_concave_hull(ts: np.ndarray, ys: np.ndarray) -> list:
    """Indices of the upper concave envelope of the points ``(t, y)``."""
    hull: list = []
    for i in range(len(ts)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            keep = (ys[i1] - ys[i0]) * (ts[i] - ts[i0]) > \
                   (ys[i] - ys[i0]) * (ts[i1] - ts[i0])
            if keep:
                break
            hull.pop()
        hull.append(i)
    return hull


def hull_majorant(model, xs):
    """The majorant as the upper concave hull of the whole log-tail gives
    it: the reference for the interpolation over all n + 1 log-tails."""
    t, y = model.support, model.log_tails
    hull = _upper_concave_hull(t, y)
    with np.errstate(invalid="ignore"):
        inside = np.exp(np.minimum(np.interp(xs, t[hull], y[hull]), 0.0))
    return np.where(xs <= t[0], 1.0, np.where(xs > t[-1], 0.0, inside))


def check_against_hull(model, grid):
    lc = np.array([model.lc_tail(x) for x in grid])
    tail = np.array([model.tail(x) for x in grid])
    ref = hull_majorant(model, grid)
    assert (lc >= tail).all()
    big = ref >= 1e-200
    assert (np.abs(lc - ref)[big] <= 1e-12 * ref[big]).all()
    t = model.support
    assert model.lc_tail(t[0] - 1.0) == 1.0
    assert model.lc_tail(t[0]) == 1.0
    assert model.lc_tail(t[-1] + 1.0) == 0.0


def support_and_midpoints(t, stride=1):
    return np.concatenate([t[::stride], ((t[:-1] + t[1:]) / 2)[::stride]])


class TestLogConcaveMajorant:
    @settings(max_examples=40)
    @given(st.integers(1, 2000), st.floats(0.01, 0.99),
           st.floats(0.0, 1.0))
    # the log-tails here reach about -760 nats, below the smallest float
    @example(320, 0.09375, 0.0)
    @example(321, 0.09375, 0.0)
    @example(730, 0.35124563909749795, 0.0)
    def test_matches_hull(self, n, p, frac):
        crit = lambda_star(p)
        model = bernoulli_tail_model(n, p, crit + frac * (4.0 - crit))
        check_against_hull(model, support_and_midpoints(model.support))

    def test_matches_hull_large(self):
        model = bernoulli_tail_model(100_000, 0.15, lambda_star(0.15))
        check_against_hull(model, support_and_midpoints(model.support, 7))

    @pytest.mark.parametrize("p", [5e-324, 1 - 1e-16])
    def test_majorant_at_extreme_p(self, p):
        model = bernoulli_tail_model(1000, p, 1.0)
        t = model.support
        assert np.isfinite(model.log_tails).all()
        for x in support_and_midpoints(t):
            assert model.lc_tail(x) >= model.tail(x)
        assert model.lc_tail(t[0]) == 1.0
        assert model.lc_tail(t[0] - abs(t[0]) - 1.0) == 1.0
        assert model.lc_tail(np.nextafter(t[-1], math.inf)) == 0.0

    @pytest.mark.parametrize("n, p", [
        (1, 0.3), (3, 0.5), (17, 0.77), (320, 0.09375),
        (730, 0.35124563909749795), (1000, 0.99), (2000, 0.5),
        (2000, 0.01), (50, 1e-5), (1000, 5e-324), (1000, 1 - 1e-16)])
    def test_log_tails_match_mpmath(self, n, p):
        import mpmath

        with mpmath.workdps(60):
            pp = mpmath.mpf(p)
            pmf = [(1 - pp) ** n]
            for j in range(n):
                pmf.append(pmf[-1] * (n - j) / (j + 1) * pp / (1 - pp))
            upper = list(itertools.accumulate(pmf[::-1]))[::-1]
            lower = [0] + list(itertools.accumulate(pmf[:-1]))
            want = np.array([float(mpmath.log(u) if u <= 0.5
                                   else mpmath.log1p(-v))
                             for u, v in zip(upper, lower)])
        got = bernoulli_tail_model(n, p, 1.0).log_tails
        # a log-pmf is rounded to a few ulps of its size; near one that
        # size reaches 745 while the log-tail is still nonzero in floats
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()
        if n == 730:
            assert got[700] == pytest.approx(-622.8172255000393, rel=1e-14)

    def test_rejects_convex_log_tail(self, monkeypatch):
        monkeypatch.setattr(selfnorm, "_binom_log_tails",
                            lambda n, p: -np.sqrt(np.arange(n + 1.0)))
        with pytest.raises(NotLogConcave) as exc:
            bernoulli_tail_model(10, 0.3, 1.0)
        assert isinstance(exc.value, TwopointError)


class TestLogTailWindow:
    """The log-tail at one ``k``, summed over a window of the log-pmf,
    against the whole table, which stays the oracle."""

    @settings(max_examples=25)
    @given(st.integers(1, 2000), st.floats(0.01, 0.99))
    @example(320, 0.09375)
    @example(730, 0.35124563909749795)
    @example(2000, 0.5)
    def test_matches_table(self, n, p):
        want = selfnorm._binom_log_tails(n, p)
        got = np.array([selfnorm._binom_log_tail(n, p, k)
                        for k in range(n + 1)])
        # bit-equal in practice; the window drops below 2^-64 of a sum
        assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()

    @pytest.mark.parametrize("n, p", [(10_000_000, 0.15), (1000, 5e-324),
                                      (1000, 1 - 1e-16), (50, 1e-5)])
    def test_extreme_sizes_and_levels(self, n, p):
        ks = sorted({0, 1, int(n * p), int(n * p) + 1, n // 2, n - 1, n})
        got = [selfnorm._binom_log_tail(n, p, k) for k in ks]
        assert got[0] == 0.0
        assert all(math.isfinite(v) and v <= 0.0 for v in got)
        assert all(a >= b for a, b in zip(got, got[1:]))
        if n <= 1000:
            want = selfnorm._binom_log_tails(n, p)[ks]
            assert (np.abs(np.array(got) - want)
                    <= 1e-13 * np.abs(want)).all()


def bernoulli_raw_bound(monkeypatch, n, p, lam, x):
    """``raw_bound`` of a Bernoulli-mode ``conservative_test`` on ``n``
    observations whose statistic reads ``x``."""
    monkeypatch.setattr(selfnorm, "_statistic", lambda xs, rs, lam=None: x)
    zero = np.zeros(n)
    return conservative_test(zero, zero, "bernoulli", p=p,
                             lam=lam).details["raw_bound"]


class TestWindowedTest:
    @settings(max_examples=15)
    @given(st.integers(1, 400), st.floats(0.01, 0.99), st.floats(0.0, 1.0))
    @example(320, 0.09375, 0.0)
    @example(730, 0.35124563909749795, 0.0)
    @example(1, 0.3, 0.5)
    def test_matches_model(self, n, p, frac):
        with pytest.MonkeyPatch.context() as monkeypatch:
            lam = lambda_star(p) * (1.0 + 3.0 * frac)
            model = bernoulli_tail_model(n, p, lam)
            t = model.support
            grid = np.concatenate([support_and_midpoints(t),
                                   [t[0] - 1.0, t[-1] + 1.0]])
            got = np.array([bernoulli_raw_bound(monkeypatch, n, p, lam, x)
                            for x in grid])
        want = BERNOULLI_CONSTANT * np.array([model.lc_tail(x)
                                              for x in grid])
        assert (np.abs(got - want) <= 1e-13 * want).all()

    def test_cli_statistic_matches_model(self):
        # the seed-201 statistic of the command-line benchmark input
        n, p = 1_000_000, 0.15
        lam = lambda_star(p)
        model = bernoulli_tail_model(n, p, lam)
        for x in (-8.53, 0.0, model.support[149682], 60.0):
            assert selfnorm._lc_tail(n, p, lam, x) == model.lc_tail(x)

    def test_rejects_convex_window(self, monkeypatch):
        monkeypatch.setattr(selfnorm, "_binom_log_tail",
                            lambda n, p, k: -math.sqrt(k))
        xs = np.tile([1.0, -1.0], 5)
        with pytest.raises(NotLogConcave):
            conservative_test(xs, -xs, "bernoulli", p=0.5)

    def test_past_the_table_cap(self):
        # the test reads a window of the tail, so the table's size cap
        # does not bound it
        n = 2 * selfnorm.MAX_MODEL_SIZE
        xs = np.random.default_rng(18).choice([-1.0, 1.0], n)
        rep = conservative_test(xs, -xs, "bernoulli", p=0.5)
        assert rep.n == n
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.details["raw_bound"] >= rep.p_value

    @pytest.mark.parametrize("mode, kw", [("gaussian", {}),
                                          ("bernoulli", {"p": 0.3})])
    def test_sample_checked_once(self, count_calls, mode, kw):
        calls = count_calls(selfnorm, "_as_rows")
        conservative_test([1.0, -1.0, 0.5], [-1.0, 1.0, -0.5], mode, **kw)
        assert len(calls) == 1


class TestConservativeTest:
    def test_gaussian_report(self):
        xs = [3.0, 1.0, 3.0, 1.0]
        rs = [-1.0, 3.0, -1.0, 3.0]
        rep = conservative_test(xs, rs, "gaussian")
        want = 8.0 / math.sqrt(10.0)
        assert rep.kind == "gaussian"
        assert rep.statistic == pytest.approx(want)
        assert rep.p_value == pytest.approx(
            min(1.0, GAUSSIAN_CONSTANT * normal_tail(want)))
        assert rep.to_jsonable()["n"] == 4

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            conservative_test([1.0], [-1.0], "laplace")

    def test_bernoulli_needs_p(self):
        with pytest.raises(BadP):
            conservative_test([1.0], [-1.0], "bernoulli")

    def test_bernoulli_lambda_floor(self):
        with pytest.raises(LambdaTooSmall):
            conservative_test([1.0], [-1.0], "bernoulli", p=0.25, lam=1.0)

    def test_bernoulli_cap_enforced(self):
        with pytest.raises(AsymmetryViolated):
            conservative_test([2.0], [-1.0], "bernoulli", p=0.5)

    def test_bernoulli_valid_run(self, four_atom):
        rng = np.random.default_rng(5)
        xs, rs, _ = sample_pairs(four_atom, 12, rng)
        rep = conservative_test(xs, rs, "bernoulli", p=1.0 / 3.0)
        assert rep.kind == "bernoulli"
        assert rep.details["lam"] == pytest.approx(lambda_star(1.0 / 3.0))
        assert 0.0 <= rep.p_value <= 1.0


class TestCertificate:
    def test_worked_example(self, four_atom):
        cert = asymmetry_certificate(four_atom)
        assert cert.gamma == F(2)
        assert cert.p == F(1, 3)

    def test_symmetric(self, symmetric_four):
        cert = asymmetry_certificate(symmetric_four)
        assert cert.gamma == F(1)
        assert cert.p == F(1, 2)

    def test_needs_discrete(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        with pytest.raises(NotDiscrete):
            asymmetry_certificate(mu)

    def test_tiny_symmetric(self):
        # the product of the endpoints underflows to zero
        mu = ZeroMeanMeasure.from_atoms([(-1e-200, 0.5), (1e-200, 0.5)])
        assert asymmetry_certificate(mu).gamma == 1.0


@pytest.mark.parametrize("call", [
    lambda: s_w([[1.0, -1.0]], [[-1.0, 1.0]]),
    lambda: conservative_test([[1.0, -1.0]], [[-1.0, 1.0]]),
], ids=["two-dimensional-s_w", "two-dimensional-test"])
def test_input_checks(call):
    with pytest.raises(InputError, match="one-dimensional"):
        call()
