"""Self-normalized statistics and conservative tail comparisons.

Given paired observations ``(x_i, r_i)`` where ``r_i`` is the
reciprocating partner of ``x_i``, two studentized statistics are formed:

* ``s_w``: the sum of the ``x_i`` divided by half the Euclidean norm of
  the widths ``W_i = |x_i - r_i|``,
* ``s_y``: the sum divided by ``(sum |x_i r_i|^lam)^(1 / (2 lam))``.

The first admits a universal Gaussian tail comparison with constant
``5! (e/5)^5``; the second, under a one-sided boundedness certificate on
``x / |r|``, a comparison against sums of standardized Bernoulli
variables with constant ``2 e^3 / 9``, taken through the least
log-concave majorant of the exact Bernoulli tail.

The one float-sample check and the one exponent check live here too;
both statistic layers, these tests and the estimator, use them.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetryViolated,
    BadLambda,
    BadP,
    EmptySample,
    InputError,
    LambdaTooSmall,
    LengthMismatch,
    NotLogConcave,
    TooLarge,
)
from .measure import ZeroMeanMeasure
from .disintegration import decompose

__all__ = [
    "GAUSSIAN_CONSTANT",
    "BERNOULLI_CONSTANT",
    "s_w",
    "s_y",
    "lambda_star",
    "normal_tail",
    "gaussian_bound",
    "hoeffding_bound",
    "BernoulliTailModel",
    "bernoulli_tail_model",
    "TestReport",
    "conservative_test",
    "AsymmetryCertificate",
    "asymmetry_certificate",
    "exact_sign_tail",
]

#: constant in the Gaussian comparison for the width-normalized statistic
GAUSSIAN_CONSTANT = math.factorial(5) * (math.e / 5) ** 5

#: constant in the Bernoulli comparison for the product-normalized statistic
BERNOULLI_CONSTANT = 2 * math.e ** 3 / 9

#: largest size of the whole Bernoulli tail table; the test reads a window
#: of the tail and has no cap
MAX_MODEL_SIZE = 1_000_000


def _as_rows(xs) -> np.ndarray:
    """The one float-sample check: a nonempty one-dimensional array of
    finite entries whose sum is finite."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1:
        raise InputError("expected a one-dimensional sample")
    if arr.size == 0:
        raise EmptySample("empty sample")
    if not np.isfinite(arr).all():
        raise InputError("sample contains non-finite entries")
    with np.errstate(over="ignore"):
        if not np.isfinite(arr.sum()):
            raise InputError("sample sum overflows the float range")
    return arr


def _check_lambda(lam) -> float:
    """The one exponent check: ``lam`` as a positive finite float."""
    lam = float(lam)
    if not 0 < lam < math.inf:
        raise BadLambda(f"lambda must be positive and finite, got {lam!r}")
    return lam


def _paired(xs, rs):
    """A checked sample and its partners: infinite ones pass, nan not."""
    xs = _as_rows(xs)
    rs = np.asarray(rs, dtype=float)
    if rs.shape != xs.shape:
        raise LengthMismatch(f"{xs.size} observations vs {rs.size} partners")
    if np.isnan(rs).any():
        raise InputError("partners contain nan")
    return xs, rs


def _studentizer(xs, rs, lam=None):
    """Along the last axis: half the Euclidean norm of the widths
    ``x - r`` (``lam`` None), or ``(sum |x r|^lam)^(1 / (2 lam))``.

    Both are homogeneous of degree one in ``(x, r)``, so where one
    overflows on finite entries, or underflows to zero on entries that
    are not all zero, it is recomputed on them scaled by an exact power
    of two and scaled back (to infinity only if the norm itself exceeds
    the float range, to zero only if the norm itself rounds to zero).
    On the scaled entries the products are divided by the largest one
    before the power is taken, so one term stays 1 however large
    ``lam`` is: the norm then tends to the root of the largest product,
    where the plain form rounds every term to zero."""
    def norm(xs, rs):
        if lam is None:
            return 0.5 * np.sqrt(np.square(xs - rs).sum(axis=-1))
        return (np.abs(xs * rs) ** lam).sum(axis=-1) ** (1.0 / (2.0 * lam))

    def rescaled_norm(xs, rs):
        if lam is None:
            return norm(xs, rs)
        prod = np.abs(xs * rs)
        top = prod.max(axis=-1, keepdims=True)
        share = np.divide(prod, top, out=np.zeros_like(prod), where=top > 0)
        return np.sqrt(top[..., 0]) * (share ** lam).sum(axis=-1) ** (
            1.0 / (2.0 * lam))

    with np.errstate(over="ignore"):
        den = norm(xs, rs)
        redo = ~np.isfinite(den) | (den == 0)
        if not redo.any():
            return den
        big = np.maximum(np.abs(xs), np.abs(rs)).max(axis=-1)
        redo &= np.isfinite(big) & (big > 0)
        e = np.frexp(np.where(redo, big, 1.0))[1]
    # rows left as they were may hold inf or nan, and their rescaled
    # norm, discarded, may be nan
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = rescaled_norm(np.ldexp(xs, -e[..., None]),
                               np.ldexp(rs, -e[..., None]))
        return np.where(redo, np.ldexp(scaled, e), den)


def _ratio(num, den):
    """``num / den`` under the zero-denominator rule: ``0/0`` is 0 and
    ``x/0`` is ``+-inf`` with the sign of ``x`` (a studentizer is never
    ``-0``)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((num == 0) & (den == 0), 0.0, np.divide(num, den))


def _statistic(xs, rs, lam=None) -> float:
    """``sum x`` over the :func:`_studentizer` of checked arrays.  An
    infinite partner makes the studentizer infinite, also where its
    observation is 0 and the product ``|x r|`` alone is nan."""
    with np.errstate(invalid="ignore"):
        den = _studentizer(xs, rs, lam)
    if np.isnan(den) and np.isinf(rs).any():
        den = np.inf
    return float(_ratio(xs.sum(), den))


def s_w(xs, rs) -> float:
    """Width-normalized statistic ``sum x / (0.5 sqrt(sum (x - r)^2))``.

    An infinite partner drives the statistic to zero; an all-zero
    denominator with zero numerator is read as zero.
    """
    return _statistic(*_paired(xs, rs))


def s_y(xs, rs, lam) -> float:
    """Product-normalized statistic
    ``sum x / (sum |x r|^lam)^(1 / (2 lam))``.

    An infinite partner drives the statistic to zero, also where its
    observation is 0; an all-zero denominator with zero numerator is
    read as zero.
    """
    lam = _check_lambda(lam)
    return _statistic(*_paired(xs, rs), lam)


def lambda_star(p) -> float:
    """Critical exponent above which the Bernoulli comparison holds at
    asymmetry level ``p``: ``(1 + p + 2 p^2) / (2 (sqrt(p - p^2) + 2 p^2))``
    on ``(0, 1/2]`` and ``1`` on ``[1/2, 1)``."""
    p = float(p)
    if not 0 < p < 1:
        raise BadP(f"p must lie in (0, 1), got {p!r}")
    if p >= 0.5:
        return 1.0
    return (1 + p + 2 * p * p) / (2 * (math.sqrt(p - p * p) + 2 * p * p))


def normal_tail(x) -> float:
    """Standard normal upper tail via the complementary error function."""
    return 0.5 * math.erfc(float(x) / math.sqrt(2.0))


def gaussian_bound(x) -> float:
    """Conservative tail bound ``min(1, 5!(e/5)^5 P(Z >= x))``."""
    return min(1.0, GAUSSIAN_CONSTANT * normal_tail(x))


def hoeffding_bound(x) -> float:
    """``exp(-x^2 / 2)``, the sub-Gaussian bound for unit-norm sign sums."""
    return math.exp(-0.5 * float(x) ** 2)


# --- exact Bernoulli tail model -------------------------------------------

#: largest second difference of the log-tails read as rounding
CONCAVITY_TOL = 1e-12

#: ``log k! - (k + 1/2) log k + k - log sqrt(2 pi)`` at k = 1..15, where
#: the asymptotic series is not yet accurate
_STIRLERR_SMALL = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _stirlerr(k):
    """Error of Stirling's formula for ``log k!`` at positive integers
    ``k``: tabulated up to 15, its asymptotic series above."""
    k = np.asarray(k, dtype=float)
    r = 1.0 / (k * k)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r)
                        * r) * r) / k
    small = _STIRLERR_SMALL[np.clip(k, 1, 15).astype(int) - 1]
    return np.where(k <= 15, small, series)


def _bd0(x, mu):
    """Deviance ``x log(x / mu) + mu - x`` for positive ``x`` and a
    scalar ``mu > 0``, by its series in ``v = (x - mu) / (x + mu)`` where
    ``x`` is within 10% of ``mu``, so that no cancellation occurs."""
    with np.errstate(over="ignore"):
        log_ratio = np.log(x / mu)
    # x / mu overflows where mu is subnormal
    far = np.isinf(log_ratio)
    log_ratio[far] = np.log(x[far]) - math.log(mu)
    out = x * log_ratio + mu - x
    near = np.abs(x - mu) < 0.1 * (x + mu)
    xn = x[near]
    v = (xn - mu) / (xn + mu)
    s = (xn - mu) * v
    term, v2 = 2 * xn * v, v * v
    # |v| < 0.1: each term is below 1% of the one before
    for j in range(1, 10):
        term = term * v2
        s = s + term / (2 * j + 1)
    out[near] = s
    return out


def _binom_log_pmf(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """``log P(K = k)`` at ``k = lo..hi - 1`` for ``K`` Binomial(``n``,
    ``p``), in Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000), as in R's ``dbinom``;
    it keeps its relative accuracy however small the probability."""
    log_pmf = np.empty(hi - lo)
    a, b = max(lo, 1), min(hi, n)
    k = np.arange(a, b, dtype=float)
    log_pmf[a - lo:b - lo] = (
        _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
        - _bd0(k, n * p) - _bd0(n - k, n * (1.0 - p))
        - 0.5 * (math.log(2 * math.pi) + np.log(k) + np.log1p(-k / n)))
    if lo == 0:
        log_pmf[0] = n * math.log1p(-p)
    if hi == n + 1:
        log_pmf[-1] = n * math.log(p)
    return log_pmf


def _binom_log_tails(n: int, p: float) -> np.ndarray:
    """``log P(K >= k)`` at ``k = 0..n`` for ``K`` Binomial(``n``, ``p``).

    Above ``floor(n p)`` the log-tails are running log-sums of the
    log-pmf from the top.  The median is ``floor(n p)`` or ``ceil(n p)``,
    so at and below ``floor(n p)`` a tail can be near one: there it is
    ``log1p`` of minus the lower sum, which keeps the relative accuracy
    the upper sum loses."""
    log_pmf = _binom_log_pmf(n, p, 0, n + 1)
    m = min(int(n * p), n - 1)
    log_tails = np.empty(n + 1)
    log_tails[0] = 0.0
    log_tails[1:m + 1] = np.log1p(-np.exp(np.logaddexp.accumulate(
        log_pmf[:m])))
    log_tails[m + 1:] = np.logaddexp.accumulate(log_pmf[:m:-1])[::-1]
    return log_tails


#: log of the share of its largest term that the terms a window drops may
#: sum to: far below the rounding of any sum the window holds
_LOG_DROPPED = -64 * math.log(2)


def _binom_log_tail(n: int, p: float, k: int) -> float:
    """``_binom_log_tails(n, p)[k]`` from a window of the log-pmf.

    The window sums the table's terms in the table's order and drops the
    far ones: below ``k`` for a lower sum, from its top for an upper one.
    The ratio of neighbouring pmf terms is monotone in ``k``, so the
    dropped terms sum to at most the window's edge term times
    ``r / (1 - r)``, with ``r`` the ratio at the edge.  The window
    doubles until that bound is below ``2^-64`` of its largest term, or
    until it reaches 0 or ``n``."""
    if k == 0:
        return 0.0
    lower = k <= min(int(n * p), n - 1)
    log_odds = math.log(p) - math.log1p(-p)
    width = 64
    while True:
        if lower:
            lo, hi = max(0, k - width), k
            log_pmf = _binom_log_pmf(n, p, lo, hi)
            if lo == 0:
                break
            # pmf(j - 1) / pmf(j) = j / (n - j + 1) * q / p, largest at lo
            edge = log_pmf[0]
            log_r = math.log(lo) - math.log(n - lo + 1) - log_odds
        else:
            lo, hi = k, min(n + 1, k + width)
            log_pmf = _binom_log_pmf(n, p, lo, hi)
            if hi == n + 1:
                break
            # pmf(j + 1) / pmf(j) = (n - j) / (j + 1) * p / q, largest at
            # the last term kept
            edge = log_pmf[-1]
            log_r = math.log(n - hi + 1) - math.log(hi) + log_odds
        if log_r < 0 and (edge + log_r - math.log(-math.expm1(log_r))
                          <= log_pmf.max() + _LOG_DROPPED):
            break
        width *= 2
    if lower:
        return float(np.log1p(-np.exp(np.logaddexp.accumulate(log_pmf)[-1])))
    return float(np.logaddexp.accumulate(log_pmf[::-1])[-1])


def _check_log_concave(n: int, p: float, log_tails: np.ndarray) -> None:
    bend = np.diff(log_tails, 2)
    if bend.size and bend.max() > CONCAVITY_TOL:
        raise NotLogConcave(
            f"binomial log-tail at n={n}, p={p!r} bends upward by "
            f"{float(bend.max())!r}")


def _support(n: int, p: float, lam: float, k):
    """Standardized Bernoulli-sum value at ``k`` successes (an int or an
    integer array)."""
    scale = math.sqrt(p * (1 - p)) * n ** (1.0 / (2.0 * lam))
    return (k - n * p) / scale


@dataclass(frozen=True)
class BernoulliTailModel:
    """Exact tail of ``(B_1 + ... + B_n - n p) / (sqrt(p q) n^(1/(2 lam)))``
    with ``B_i`` Bernoulli(``p``), plus its least log-concave majorant.

    The binomial pmf is log-concave, hence so is its tail: the log-tails
    at the equally spaced support points are already concave, and the
    least log-concave majorant of the step tail is their log-linear
    interpolation.  It is one left of the support and zero right of it.
    """

    n: int
    p: float
    lam: float
    support: np.ndarray = field(repr=False)
    log_tails: np.ndarray = field(repr=False)

    def tail(self, x) -> float:
        """``P(T >= x)``, its logarithm within 1e-12 relative of the
        exact one, also where the tail is far below the smallest float."""
        x = float(x)
        k = int(np.searchsorted(self.support, x, side="left"))
        if k >= len(self.support):
            return 0.0
        return float(math.exp(self.log_tails[k]))

    def lc_tail(self, x) -> float:
        """Least log-concave majorant of :meth:`tail` at ``x``."""
        x = float(x)
        t = self.support
        if x <= t[0]:
            return 1.0
        if x > t[-1]:
            return 0.0
        return math.exp(float(np.interp(x, t, self.log_tails)))


def bernoulli_tail_model(n: int, p, lam) -> BernoulliTailModel:
    """Build the exact standardized-Bernoulli-sum tail model."""
    n = int(n)
    if n < 1:
        raise InputError(f"model size must be at least 1, got {n}")
    if n > MAX_MODEL_SIZE:
        raise TooLarge(f"model size {n} exceeds {MAX_MODEL_SIZE}")
    p = float(p)
    if not 0 < p < 1:
        raise BadP(f"p must lie in (0, 1), got {p!r}")
    lam = _check_lambda(lam)
    log_tails = _binom_log_tails(n, p)
    _check_log_concave(n, p, log_tails)
    support = _support(n, p, lam, np.arange(n + 1))
    return BernoulliTailModel(n, p, lam, support, log_tails)


def _lc_tail(n: int, p: float, lam: float, x: float) -> float:
    """``bernoulli_tail_model(n, p, lam).lc_tail(x)`` from the log-tails
    at the three support points around ``x`` alone, with the same check
    of their concavity; it holds no array of size ``n``."""
    # the first support point at or above x, as np.searchsorted finds it
    k = bisect.bisect_left(range(n + 1), x,
                           key=lambda j: _support(n, p, lam, j))
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    lo = max(0, min(k - 1, n - 2))
    ks = np.arange(lo, min(lo + 3, n + 1))
    log_tails = np.array([_binom_log_tail(n, p, int(j)) for j in ks])
    _check_log_concave(n, p, log_tails)
    return math.exp(float(np.interp(x, _support(n, p, lam, ks), log_tails)))


# --- conservative tests ---------------------------------------------------

@dataclass(frozen=True)
class TestReport:
    """Outcome of a conservative one-sided test of zero mean."""

    kind: str
    n: int
    statistic: float
    p_value: float
    constant: float
    details: dict

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "constant": self.constant,
            "details": dict(self.details),
        }


def conservative_test(xs, rs, mode: str = "gaussian", *, p=None,
                      lam=None) -> TestReport:
    """Conservative upper-tail p-value for the self-normalized statistic.

    ``gaussian`` mode compares :func:`s_w` against ``5!(e/5)^5`` times the
    normal tail.  ``bernoulli`` mode needs an asymmetry level ``p`` (and
    optionally an exponent ``lam >= lambda_star(p)``, which is also the
    default); it verifies the certified bound ``x_i <= (1 - p)/p |r_i|``
    on the data and compares :func:`s_y` against ``2 e^3 / 9`` times the
    least log-concave majorant of the exact Bernoulli-sum tail, read
    from a window of that tail around the statistic, at any ``n``.
    A given ``p`` or ``lam`` is checked in either mode.
    """
    xs, rs = _paired(xs, rs)
    n = int(xs.size)
    crit = None if p is None else lambda_star(p)
    lam = None if lam is None else _check_lambda(lam)
    if mode == "gaussian":
        stat = _statistic(xs, rs)
        raw = GAUSSIAN_CONSTANT * normal_tail(stat)
        return TestReport("gaussian", n, stat, min(1.0, raw),
                          GAUSSIAN_CONSTANT, {"raw_bound": raw})
    if mode != "bernoulli":
        raise InputError(f"unknown mode {mode!r}; "
                         "pick 'gaussian' or 'bernoulli'")
    if p is None:
        raise BadP("bernoulli mode needs an asymmetry level p")
    p = float(p)
    lam = crit if lam is None else lam
    if lam < crit - 1e-12:
        raise LambdaTooSmall(
            f"lambda {lam!r} is below the critical exponent {crit!r} at p={p!r}")
    ratio_cap = (1 - p) / p
    pos = xs > 0
    if pos.any():
        with np.errstate(divide="ignore"):
            ratios = xs[pos] / np.abs(rs[pos])
        worst = float(np.max(ratios))
        if not worst <= ratio_cap * (1 + 1e-12) + 1e-12:
            raise AsymmetryViolated(
                f"observed x/|r| ratio {worst!r} exceeds certified cap "
                f"{ratio_cap!r}")
    stat = _statistic(xs, rs, lam)
    raw = BERNOULLI_CONSTANT * _lc_tail(n, p, lam, stat)
    return TestReport("bernoulli", n, stat, min(1.0, raw),
                      BERNOULLI_CONSTANT,
                      {"raw_bound": raw, "p": p, "lam": lam,
                       "lambda_star": crit})


# --- asymmetry certificate ------------------------------------------------

@dataclass(frozen=True)
class AsymmetryCertificate:
    """Essential supremum ``gamma`` of ``X / |r(X, U)|`` on ``{X > 0}``
    and the induced Bernoulli asymmetry level ``p = 1 / (1 + gamma)``."""

    gamma: object
    p: object


def asymmetry_certificate(measure: ZeroMeanMeasure) -> AsymmetryCertificate:
    """Certify the positive-side ratio bound of a discrete measure."""
    dec = decompose(measure)
    gamma = max(b / -a for a, b in zip(dec.a.tolist(), dec.b.tolist())
                if b != a)
    return AsymmetryCertificate(gamma, 1 / (1 + gamma))


# --- exhaustive sign-sum tails --------------------------------------------

def exact_sign_tail(coeffs):
    """Exact tail of ``sum eps_i a_i`` over all ``2^n`` sign vectors.

    Returns ``(values, tails)`` with ``values`` the sorted achievable
    sums and ``tails[i] = P(S >= values[i])``.
    """
    a = np.asarray(coeffs, dtype=float)
    n = a.size
    if n == 0:
        raise InputError("need at least one coefficient")
    if n > 20:
        raise TooLarge(f"exhaustive enumeration limited to 20 terms, got {n}")
    signs = np.array([1.0, -1.0])
    sums = np.zeros(1)
    for c in a:
        sums = (sums[:, None] + signs[None, :] * c).ravel()
    values = np.unique(sums)
    # tail at v: fraction of sums >= v
    order = np.sort(sums)
    idx = np.searchsorted(order, values, side="left")
    tails = (order.size - idx) / order.size
    return values, tails
