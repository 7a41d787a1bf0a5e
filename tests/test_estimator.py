"""Empirical pairing and the pivot bootstrap."""

import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import (PivotRun, ZeroMeanMeasure, bootstrap_ci, denominator,
                      empirical_partners, estimator, pivot, selfnorm)
from twopoint.errors import (BadLambda, BadLevel, ConstantSample,
                             EmptySample, InputError, TooFewResamples,
                             Unbounded)


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
    got = estimator._stable_sort(arr)[0]
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(arr, kind="stable"))


@pytest.mark.parametrize("draw", [
    lambda rng: rng.integers(-3, 4, 100_000).astype(float),
    lambda rng: rng.normal(size=100_000),
    lambda rng: np.where(rng.random(100_000) < 0.5, -0.0, 0.0),
], ids=["heavy-ties", "distinct", "signed-zeros"])
def test_stable_order_on_large_samples(rng, draw):
    arr = draw(rng)
    assert np.array_equal(estimator._stable_sort(arr)[0],
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


# --- the full-width partner kernel, kept as the oracle --------------------

def _covering(cum: np.ndarray, w: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Per entry, the index into the cumulative levels ``other`` of the
    opposite side whose slice covers the midpoint of the entry's own
    slice ``(cum - w, cum]``, kept within the opposite total."""
    h = np.minimum(cum - 0.5 * w, other[:, -1:])
    idx = np.empty(h.shape, dtype=np.intp)
    for row in range(len(h)):
        idx[row] = np.searchsorted(other[row], h[row])
    # a row whose sum overflowed has nan levels, found past the end
    return np.minimum(idx, h.shape[1] - 1)


def full_width_sorted_partners(D: np.ndarray, total: np.ndarray) -> tuple:
    """The partner kernel before rows were paired on their own side
    slices: every array spans the whole row, and the padding zeros of
    each side are searched too."""
    n = D.shape[1]
    _, e = np.frexp(np.maximum(-D[:, 0], D[:, -1]))
    scale = np.minimum(0, 1021 - e - 2 * n.bit_length())[:, None]
    S = D - (total / n)[:, None]
    L = np.ldexp(float(n), scale) * D - np.ldexp(total[:, None], scale)
    pos = np.maximum(L, 0.0)
    neg = np.maximum(-L, 0.0)[:, ::-1]  # outwards from zero
    up, down = np.cumsum(pos, axis=1), np.cumsum(neg, axis=1)
    from_neg = np.take_along_axis(S[:, ::-1], _covering(up, pos, down), 1)
    from_pos = np.take_along_axis(S, _covering(down, neg, up), 1)[:, ::-1]
    return S, np.where(L > 0, from_neg, np.where(L < 0, from_pos, 0.0))


PARTNER_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, 1.0, -1.0, 3.0, -2.5, 5e-324,
                     -5e-324, 2.2e-308, -1e-310]),
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0, allow_subnormal=True))


@st.composite
def sorted_sample_rows(draw):
    """Row-sorted samples of one width: rows with ties and signed zeros;
    constant rows, which round to one side or to none; constant rows
    with entries up to two ulps off, whose sides' totals differ by more
    than half an outermost level, so the midpoints need their clip; and
    rows scaled up to near the float maximum, whose lattice is scaled
    down and whose sum may overflow."""
    n = draw(st.integers(1, 30))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["mixed", "constant", "nudged", "huge"]))
        if kind == "constant":
            row = [draw(PARTNER_VALUES)] * n
        elif kind == "nudged":
            c = draw(st.sampled_from([0.1, 1 / 3, 1.1, -0.7, 2.2e-308]))
            row = [c + draw(st.integers(-2, 2)) * np.spacing(c)
                   for _ in range(n)]
        else:
            row = draw(st.lists(PARTNER_VALUES, min_size=n, max_size=n))
        top = max(abs(v) for v in row)
        if kind == "huge" and top > 0:
            reach = draw(st.sampled_from([1e300, 1e307, 1.7e308]))
            row = [v / top * reach for v in row]
        rows.append(row)
    return np.sort(np.array(rows), axis=1)


def assert_partners_match_full_width(D):
    with np.errstate(over="ignore", invalid="ignore"):
        total = D.sum(axis=1)
        got = estimator._sorted_partners(D, total)
        want = full_width_sorted_partners(D, total)
        finite = np.isfinite(total)
        # W and Y_lambda pivots of the rows whose sum overflowed
        pivots = [repr([estimator._ratio(total, selfnorm._studentizer(
            S, R, lam))[~finite].tolist() for lam in (None, 1.3)])
            for S, R in (got, want)]
    # the int64 views tell -0.0 from 0.0 and every last bit apart
    for g, w in zip(got, want):
        assert np.array_equal(g[finite].view(np.int64),
                              w[finite].view(np.int64))
    assert pivots[0] == pivots[1]


@settings(max_examples=400)
@given(sorted_sample_rows())
@example(np.array([[0.1] * 6, [-1.0, 0.0, 0.0, 0.0, 0.0, 2.0]]))
@example(np.array([[0.1] * 13, [-0.0, 0.0, 0.0, -0.0] + [1.0] * 9]))
@example(np.sort(np.array([[0.1] * 9 + [0.1 + 2 ** -56],
                           [-5e-324, 0.0, 5e-324, 1e-310] * 2 + [3.0] * 2])))
# more weight above than below, and the mirror image
@example(np.array([[1 / 3 - 2 ** -54] * 3 + [1 / 3 + 2 ** -54] * 5,
                   [-1 / 3 - 2 ** -54] * 5 + [-1 / 3 + 2 ** -54] * 3]))
@example(np.array([[-1.5e308, 1.0, 1.5e308], [-1.0, 1.5e308, 1.5e308],
                   [-1.5e308, -1.5e308, 1.0]]))
# a midpoint on a boundary between two opposite values, on either side
@example(np.array([[-2.0, -1.0, -1.0, 4.0], [-4.0, 1.0, 1.0, 2.0]]))
# midpoints past the opposite total, whose side has two distinct values
@example(np.array([[0.09999999999999998] * 2 + [0.09999999999999999]
                   + [0.10000000000000003] * 2]))
@example(np.array([[0.09999999999999998] * 4
                   + [0.10000000000000002, 0.10000000000000003]]))
def test_side_slices_match_full_width_kernel(D):
    """Pairing each row on its own side slices gives the full-width
    kernel's values and partners bit for bit, and where a row's sum
    overflows, the same pivots."""
    assert_partners_match_full_width(D)


@pytest.mark.parametrize("row, side", [
    ([0.1] * 6, "positive"),
    ([0.1] * 13, "negative"),
    ([0.1] * 9 + [0.1 + 2 ** -56], "positive"),
    ([0.1] * 3, "none"),
    ([1.5e308, 1.5e308, -1.0], "negative"),
    ([-1.5e308, -1.5e308, 1.0], "positive"),
], ids=["six-tenths", "thirteen-tenths", "one-ulp-up", "three-tenths",
        "sum-overflows-up", "sum-overflows-down"])
def test_one_sided_rows(row, side):
    """Rows whose lattice levels all fall on one side (by rounding, or
    because the sum overflowed) pair each entry with the row's outermost
    value on that side, as the full-width kernel does."""
    # beside a row with both sides, in one chunk
    D = np.sort(np.array([row, [-2.0] + [1.0] * (len(row) - 2) + [0.0]]),
                axis=1)
    n = D.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        total = D.sum(axis=1)
        S, R = estimator._sorted_partners(D, total)
        L = n * D[0] - total[0]
    signs = {"positive": (L > 0).any() and not (L < 0).any(),
             "negative": (L < 0).any() and not (L > 0).any(),
             "none": not L.any()}
    assert signs[side]
    want = {"positive": S[0, -1], "negative": S[0, 0], "none": 0.0}[side]
    np.testing.assert_array_equal(R[0], np.where(L != 0, want, 0.0))


class TestInfiniteLambda:
    """An exponent must be finite: ``inf ** 0`` is 1, so an infinite one
    would make every product denominator 1."""

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf, 0.0])
    @pytest.mark.parametrize("run", [
        lambda lam: selfnorm.s_y([1.0, -1.0], [-1.0, 1.0], lam),
        lambda lam: selfnorm.bernoulli_tail_model(5, 0.3, lam),
        lambda lam: selfnorm.conservative_test([1.0, -1.0], [-1.0, 1.0],
                                               "bernoulli", p=0.5, lam=lam),
        lambda lam: denominator([1.0, -1.0, 2.0], "Y_lambda", lam),
        lambda lam: bootstrap_ci([1.0, -1.0, 2.0], kind="Y_lambda",
                                 lam=lam, seed=1),
        # the width kind uses no exponent, but takes only a usable one
        lambda lam: denominator([1.0, -1.0, 2.0], "W", lam),
    ], ids=["s_y", "tail_model", "bernoulli_test", "denominator",
            "bootstrap_ci", "width_denominator"])
    def test_refused(self, run, lam):
        with pytest.raises(BadLambda, match="positive and finite"):
            run(lam)

    @pytest.mark.parametrize("run", [
        lambda: selfnorm.s_y([1.0, -1.0], [-1.0, 1.0], 2),
        lambda: selfnorm.bernoulli_tail_model(5, 0.3, 2),
        lambda: selfnorm.conservative_test([1.0, -1.0], [-1.0, 1.0],
                                           "bernoulli", p=0.5, lam=2),
        lambda: denominator([1.0, -1.0, 2.0], "Y_lambda", 2),
    ], ids=["s_y", "tail_model", "bernoulli_test", "denominator"])
    def test_one_check(self, count_calls, run):
        calls = count_calls(selfnorm, "_check_lambda")
        run()
        assert len(calls) == 1


def test_unusable_sample_denominator_is_one_error():
    """A product denominator past the float range makes every pivot 0,
    so the band would invert to ``inf * 0``: the run stops with one
    typed error and no warning."""
    xs = [1.0, -2.0, 3.0, 0.5, -1.5, 2.0, -3.0]
    assert denominator(xs, "Y_lambda", 1e-300) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Unbounded, match="denominator"):
            bootstrap_ci(xs, kind="Y_lambda", lam=1e-300, resamples=100,
                         seed=1)


@pytest.mark.parametrize("lam", [1e20, 1e300])
def test_huge_exponent_keeps_the_largest_product(lam):
    """``(sum |x r|^lam)^(1/(2 lam))`` tends to the root of the largest
    product as ``lam`` grows.  Every term of the plain sum underflows
    long before that, so the denominator must not round to zero, and
    the interval must come out finite."""
    xs = [1.0, -2.0, 3.0, 0.5, -1.5, 2.0, -3.0]
    # partners of the sample: 3 <-> -3 is the largest product, 9
    assert denominator(xs, "Y_lambda", lam) == 3.0
    assert denominator(xs, "Y_lambda", 300.0) == pytest.approx(3.0, rel=2e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = bootstrap_ci(xs, kind="Y_lambda", lam=lam, resamples=100,
                           seed=1)
    assert run.den == 3.0
    assert all(math.isfinite(c) for c in run.ci)
    assert run.ci[0] <= run.mean <= run.ci[1]
