"""Empirical pairing and the pivot bootstrap."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import (ZeroMeanMeasure, bootstrap_ci, denominator,
                      empirical_partners, pivot)
from twopoint.errors import (BadLambda, BadLevel, ConstantSample,
                             EmptySample, InputError, TooFewResamples)


class TestPartners:
    def test_small_exact(self):
        ep = empirical_partners([3.0, -1.0, -1.0, -1.0], recentre=False)
        assert list(ep.partners) == [-1.0, 3.0, 3.0, 3.0]
        assert list(ep.widths) == [4.0] * 4
        assert list(ep.products) == [3.0] * 4

    def test_matches_measure_pairing(self):
        # on a balanced tied sample the empirical partner of each value
        # is its mirror image, exactly as under the fitted law
        xs = [-2.0, -1.0, -1.0, 1.0, 1.0, 2.0]
        ep = empirical_partners(xs, recentre=False)
        assert list(ep.partners) == [2.0, 1.0, 1.0, -1.0, -1.0, -2.0]
        mu = ZeroMeanMeasure.from_samples(xs)
        assert float(mu.m) == pytest.approx(2.0 / 3.0)

    def test_permutation_equivariant(self, rng):
        xs = rng.normal(size=31)
        perm = rng.permutation(31)
        ep1 = empirical_partners(xs)
        ep2 = empirical_partners(xs[perm])
        assert np.allclose(ep1.partners[perm], ep2.partners)

    def test_zero_stays_zero(self):
        ep = empirical_partners([-1.0, 0.0, 1.0], recentre=False)
        assert ep.partners[1] == 0.0

    def test_recentring_default(self):
        ep = empirical_partners([1.0, 2.0, 3.0, 6.0])
        assert ep.values.sum() == pytest.approx(0.0, abs=1e-12)

    def test_input_checks(self):
        with pytest.raises(EmptySample):
            empirical_partners([])
        with pytest.raises(ConstantSample):
            denominator([2.0, 2.0, 2.0])
        with pytest.raises(ConstantSample):
            bootstrap_ci([2.0] * 30, seed=1, resamples=150)
        with pytest.raises(InputError):
            empirical_partners([1.0, math.inf])


def raw_partner_lists(xs, recentre=True):
    """Per distinct value, the sorted raw partners of its copies under
    the float pairing and under the exact one, where the ``k``-th of
    ``c`` copies takes the level ``u = (2k + 1) / (2c)``."""
    ep = empirical_partners(np.array(xs, dtype=float), recentre=recentre)
    raw_of = dict(zip(ep.values.tolist(), xs))
    got = {}
    for x, r in zip(xs, ep.partners.tolist()):
        got.setdefault(x, []).append(raw_of[r])
    mu = ZeroMeanMeasure.from_samples(xs)
    mean = Fraction(sum(xs), len(xs))
    want = {v: [mu.reciprocate(v - mean, Fraction(2 * k + 1, 2 * c)) + mean
                for k in range(c)] for v, c in Counter(xs).items()}
    return ({v: sorted(rs) for v, rs in got.items()},
            {v: sorted(rs) for v, rs in want.items()})


class TestExactPairing:
    """The float pairing agrees with the exact rational one, also where a
    midpoint level lands on a cumulative level of the other side."""

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=14)
           .filter(lambda xs: len(set(xs)) > 1))
    @settings(max_examples=150)
    @example([-1, -2, -3, -2, 2, -2])
    def test_matches_exact_reciprocation(self, xs):
        got, want = raw_partner_lists(xs)
        assert got == want

    def test_without_recentring(self):
        # a zero-sum sample: the raw values are the recentred ones
        xs = [-3, -1, -1, 0, 2, 2, 1]
        got, want = raw_partner_lists(xs, recentre=False)
        assert got == want

    def test_cancelling_huge_sample(self):
        # n max|x| passes the float range; the lattice is scaled down
        rng = np.random.default_rng(5)
        signs = np.where(np.arange(1000) % 2, 1, -1)
        xs = [int(v) for v in rng.integers(1, 4, 1000) * signs * 1e306]
        got, want = raw_partner_lists(xs)
        assert got == want
        assert len(set(empirical_partners(xs).partners.tolist())) == 6


class TestPivot:
    def test_width_denominator(self):
        assert denominator([3.0, -1.0, -1.0, -1.0]) == pytest.approx(4.0)

    def test_product_denominator(self):
        xs = [3.0, -1.0, -1.0, -1.0]
        ep = empirical_partners(xs)
        lam = 1.5
        want = float((np.abs(ep.values * ep.partners) ** lam).sum()) \
            ** (1.0 / (2.0 * lam))
        assert denominator(xs, kind="Y_lambda", lam=lam) == \
            pytest.approx(want)

    def test_linear_in_theta(self, rng):
        xs = rng.normal(size=40)
        den = denominator(xs)
        p0 = pivot(xs, 0.0)
        p1 = pivot(xs, 0.3)
        assert p0 - p1 == pytest.approx(40 * 0.3 / den, rel=1e-12)

    def test_kind_checks(self):
        with pytest.raises(InputError):
            pivot([1.0, -1.0], 0.0, kind="Z")
        with pytest.raises(BadLambda):
            pivot([1.0, -1.0], 0.0, kind="Y_lambda", lam=0.0)


class TestBootstrap:
    def test_reproducible(self, rng):
        xs = rng.exponential(size=80) - 1.0
        a = bootstrap_ci(xs, resamples=300, seed=4)
        b = bootstrap_ci(xs, resamples=300, seed=4)
        c = bootstrap_ci(xs, resamples=300, seed=5)
        assert a.ci == b.ci
        assert a.ci != c.ci

    def test_interval_brackets_mean(self, rng):
        xs = rng.normal(loc=0.0, size=120)
        run = bootstrap_ci(xs, resamples=500, seed=11)
        lo, hi = run.ci
        assert lo < xs.mean() < hi
        assert run.level == 0.95
        assert run.kind == "W"

    def test_product_kind(self, rng):
        xs = rng.normal(size=60)
        run = bootstrap_ci(xs, resamples=300, kind="Y_lambda", lam=1.2,
                           seed=3)
        lo, hi = run.ci
        assert lo < hi

    def test_jsonable(self, rng):
        xs = rng.normal(size=30)
        data = bootstrap_ci(xs, resamples=150, seed=2).to_jsonable()
        assert set(data) >= {"ci", "kind", "level", "n", "resamples",
                             "seed"}

    def test_parameter_checks(self, rng):
        xs = rng.normal(size=30)
        with pytest.raises(BadLevel):
            bootstrap_ci(xs, level=1.2, seed=1)
        with pytest.raises(TooFewResamples):
            bootstrap_ci(xs, resamples=50, seed=1)

    def test_degenerate_resamples_give_infinite_bounds(self):
        # a resample of zeros has a zero denominator and a negative
        # numerator, so its pivot is -inf and so is the lower quantile
        xs = [0.0] * 29 + [0.001]
        run = bootstrap_ci(xs, resamples=200, seed=3)
        assert run.quantiles[0] == -math.inf
        assert math.isfinite(run.quantiles[1])
        assert run.ci[1] == math.inf
        assert math.isfinite(run.ci[0])

    def test_overflowing_sum(self):
        with pytest.raises(InputError):
            empirical_partners([1.5e308, 1.5e308, -1e308])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_resample(self):
        # the sample sum is finite but a resample's may not be; its nan
        # levels must not index past the end of the row
        run = bootstrap_ci([1.5e308, -1.5e308, 1.0], resamples=100, seed=1)
        assert run.n == 3
