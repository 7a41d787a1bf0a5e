"""Empirical pairing and the pivot bootstrap."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import (PivotRun, ZeroMeanMeasure, bootstrap_ci, denominator,
                      empirical_partners, estimator, pivot, selfnorm)
from twopoint.errors import (BadLambda, BadLevel, ConstantSample,
                             EmptySample, InputError, TooFewResamples)


class TestPartners:
    def test_small_exact(self):
        ep = empirical_partners([3.0, -1.0, -1.0, -1.0])
        assert list(ep.partners) == [-1.0, 3.0, 3.0, 3.0]
        assert list(abs(ep.values - ep.partners)) == [4.0] * 4
        assert list(abs(ep.values * ep.partners)) == [3.0] * 4

    def test_matches_measure_pairing(self):
        # on a balanced tied sample the empirical partner of each value
        # is its mirror image, exactly as under the fitted law
        xs = [-2.0, -1.0, -1.0, 1.0, 1.0, 2.0]
        ep = empirical_partners(xs)
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
        ep = empirical_partners([-1.0, 0.0, 1.0])
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


@pytest.mark.parametrize("run", [
    lambda xs: empirical_partners(xs),
    lambda xs: denominator(xs),
    lambda xs: pivot(xs, 0.0, "Y_lambda", 1.5),
    lambda xs: bootstrap_ci(xs, resamples=100, seed=1),
    lambda xs: selfnorm.s_w(xs, xs[::-1]),
    lambda xs: selfnorm.s_y(xs, xs[::-1], 1.0),
], ids=["empirical_partners", "denominator", "pivot", "bootstrap_ci",
        "s_w", "s_y"])
def test_sample_checked_once(count_calls, run):
    calls = count_calls(selfnorm, "_as_rows")
    run([3.0, -1.0, -1.0, 0.5, 2.0])
    assert len(calls) == 1


def raw_partner_lists(xs):
    """Per distinct value, the sorted raw partners of its copies under
    the float pairing and under the exact one, where the ``k``-th of
    ``c`` copies takes the level ``u = (2k + 1) / (2c)``."""
    ep = empirical_partners(np.array(xs, dtype=float))
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
        got, want = raw_partner_lists(xs)
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


@pytest.mark.parametrize("high, width, resamples, rows", [
    (2000, 2000, 9, 1),
    (5, 5, 103, 4),
    # a bound past the int32 range; rows that wide would not fit in
    # memory, so they are narrower than the bound here
    (2 ** 31 + 5, 3, 7, 2),
], ids=["one-row", "partial-last-chunk", "wide-bound"])
def test_chunked_draws_continue_one_stream(high, width, resamples, rows):
    """The premise of the chunked bootstrap: drawing the resample indices
    a few rows at a time gives the rows of one ``(B, n)`` draw."""
    whole = np.random.default_rng(8).integers(0, high,
                                              size=(resamples, width))
    rng = np.random.default_rng(8)
    parts = [rng.integers(0, high, size=(min(rows, resamples - lo), width))
             for lo in range(0, resamples, rows)]
    assert np.array_equal(np.concatenate(parts), whole)


def one_shot_bootstrap_ci(xs, *, resamples, kind, lam, seed,
                          level=0.95):
    """Reference: every resample drawn, sorted and paired at once.
    Returns the run and its pivots."""
    arr = np.asarray(xs, dtype=float)
    n = arr.size
    xbar = float(arr.mean())
    den0 = denominator(arr, kind, lam)
    rng = np.random.default_rng(seed)
    draws = arr[rng.integers(0, n, size=(resamples, n))]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = draws.sum(axis=1)
        draws.sort(axis=1)
        pivots = estimator._ratio(
            sums - n * xbar,
            estimator._den_rows(draws, sums, kind, lam))
    alpha = 1.0 - level
    q_lo, q_hi = estimator._quantiles(pivots,
                                      [alpha / 2.0, 1.0 - alpha / 2.0])
    ci = ((arr.sum() - q_hi * den0) / n, (arr.sum() - q_lo * den0) / n)
    run = PivotRun(kind, lam, level, n, resamples, seed, xbar, den0,
                   (float(q_lo), float(q_hi)),
                   (float(ci[0]), float(ci[1])))
    return run, pivots


T3 = np.random.default_rng(12).standard_t(3, 20000)
OVERFLOW = [1.5e308, -1.5e308, 1.0]
# the huge pair scales down the lattice of a row that drew it; a row
# that drew neither pairs its subnormal values at scale 1
SUBNORMAL = ([1e307, -1e307, 1e-100, -1e-100, 0.0]
             + [k * 5e-324 for k in (-7, -3, 1, 2, 7)])


@pytest.mark.parametrize("xs, kind, resamples, chunk_bytes", [
    (T3[:300], "W", 250, None),
    (T3[:300], "Y_lambda", 250, None),
    (T3, "W", 100, None),
    (OVERFLOW, "W", 100, None),
    (OVERFLOW, "Y_lambda", 100, 8 * 3 * 7),
    (SUBNORMAL, "W", 100, 1),
], ids=["W-partial-last-chunk", "Y-partial-last-chunk", "row-per-chunk",
        "overflow-one-chunk", "overflow-chunks-of-7", "subnormal-rows"])
def test_chunked_bootstrap_matches_one_shot(monkeypatch, xs, kind,
                                            resamples, chunk_bytes):
    if chunk_bytes is not None:
        monkeypatch.setattr(estimator, "_CHUNK_BYTES", chunk_bytes)
    rows = max(1, estimator._CHUNK_BYTES // (8 * len(xs)))
    seen = []
    quantiles = estimator._quantiles

    def spy(values, probs):
        seen.append(values.copy())
        return quantiles(values, probs)

    monkeypatch.setattr(estimator, "_quantiles", spy)
    got = bootstrap_ci(xs, resamples=resamples, kind=kind, lam=1.3, seed=6)
    want, pivots = one_shot_bootstrap_ci(xs, resamples=resamples,
                                         kind=kind, lam=1.3, seed=6)
    # repr tells nan, -0.0 and every last bit apart
    assert repr(got) == repr(want)
    np.testing.assert_array_equal(seen[0], pivots)
    if xs is OVERFLOW:
        assert np.isnan(pivots).any()
    if rows < resamples:
        # several chunks, the last one partial (or one row each)
        assert rows == 1 or resamples % rows


def test_resample_pivot_is_its_own_sample_pivot(monkeypatch):
    """A resample is paired as ``denominator`` pairs it taken as a
    sample, whatever else the sample holds: each bootstrap pivot is the
    resample's own sum at the sample mean over its own denominator."""
    arr = np.array(SUBNORMAL)
    n, xbar = arr.size, float(arr.mean())
    seen = []
    quantiles = estimator._quantiles

    def spy(values, probs):
        seen.append(values.copy())
        return quantiles(values, probs)

    monkeypatch.setattr(estimator, "_quantiles", spy)
    for seed in range(1, 21):
        bootstrap_ci(SUBNORMAL, resamples=100, seed=seed)
        draws = arr[np.random.default_rng(seed).integers(0, n, (100, n))]
        # 0/0 reads as 0, as in every pivot
        want = [estimator._ratio(row.sum() - n * xbar, denominator(row))
                for row in draws]
        np.testing.assert_array_equal(seen[-1], want)


def test_memory_flat_in_resamples(rng):
    """Peak traced allocation at 16 times the resamples stays within 10%
    of the peak at 100: the chunks, not the resample count, set it."""
    xs = rng.standard_t(3, 1000)

    def peak(resamples):
        tracemalloc.start()
        try:
            bootstrap_ci(xs, resamples=resamples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # first-call allocations outside the bootstrap
    assert peak(1600) <= 1.1 * peak(100)


@settings(max_examples=200)
@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0, 1e300]),
                min_size=1, max_size=60),
       st.sampled_from(["as drawn", "sorted", "reversed"]))
@example([-0.0, 0.0, -0.0, 0.0], "as drawn")
@example([0.0, -0.0, 1.0, -0.0], "reversed")
def test_stable_order_matches_stable_argsort(xs, arrange):
    arr = np.array(xs)
    if arrange != "as drawn":
        arr = np.sort(arr)[::-1 if arrange == "reversed" else 1].copy()
    got = estimator._stable_order(arr)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(arr, kind="stable"))


@pytest.mark.parametrize("draw", [
    lambda rng: rng.integers(-3, 4, 100_000).astype(float),
    lambda rng: rng.normal(size=100_000),
    lambda rng: np.where(rng.random(100_000) < 0.5, -0.0, 0.0),
], ids=["heavy-ties", "distinct", "signed-zeros"])
def test_stable_order_on_large_samples(rng, draw):
    arr = draw(rng)
    assert np.array_equal(estimator._stable_order(arr),
                          np.argsort(arr, kind="stable"))


@settings(max_examples=200)
@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0, 1e300]),
                min_size=1, max_size=12))
@example([3.0, -1.0, 1e300, -2.5])
@example([0.0, 1.0, -0.0])
# long enough that the default sort moves signed zeros within their run
@example([1.0 if i % 7 == 0 else (-0.0 if i % 2 else 0.0)
          for i in range(1000)])
def test_stable_sort_gathers_the_sample(xs):
    # with or without ties, the values are the sample gathered in the
    # stable order, signed zeros included
    arr = np.array(xs)
    order, ordered = estimator._stable_sort(arr)
    assert np.array_equal(order, np.argsort(arr, kind="stable"))
    assert np.array_equal(ordered.view(np.int64), arr[order].view(np.int64))
