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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import stats

from .errors import (
    AsymmetryViolated,
    BadLambda,
    BadP,
    InfiniteGamma,
    InputError,
    LambdaTooSmall,
    LengthMismatch,
    NotDiscrete,
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

#: largest Bernoulli model size kept exact
MAX_MODEL_SIZE = 1_000_000


def _paired(xs, rs):
    xs = np.asarray(xs, dtype=float)
    rs = np.asarray(rs, dtype=float)
    if xs.ndim != 1 or rs.ndim != 1:
        raise InputError("observations must be one-dimensional")
    if xs.shape != rs.shape:
        raise LengthMismatch(f"{xs.size} observations vs {rs.size} partners")
    if xs.size == 0:
        raise InputError("need at least one observation")
    if not np.isfinite(xs).all():
        raise InputError("observations must be finite")
    return xs, rs


def s_w(xs, rs) -> float:
    """Width-normalized statistic ``sum x / (0.5 sqrt(sum (x - r)^2))``.

    An infinite partner drives the statistic to zero; an all-zero
    denominator with zero numerator is read as zero.
    """
    xs, rs = _paired(xs, rs)
    num = float(xs.sum())
    den = 0.5 * math.sqrt(float(np.square(xs - rs).sum()))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.copysign(math.inf, num)
    return num / den


def s_y(xs, rs, lam) -> float:
    """Product-normalized statistic
    ``sum x / (sum |x r|^lam)^(1 / (2 lam))``."""
    lam = float(lam)
    if not lam > 0:
        raise BadLambda(f"lambda must be positive, got {lam!r}")
    xs, rs = _paired(xs, rs)
    num = float(xs.sum())
    den = float((np.abs(xs * rs) ** lam).sum()) ** (1.0 / (2.0 * lam))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.copysign(math.inf, num)
    return num / den


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

#: log-tails are interpolated down to 1e-210 only: scipy's ``binom.logsf``
#: loses accuracy from about e^-550 (1e-239) on, and every tail of at
#: least 1e-200 then lies on an interpolated piece
LOG_FLOOR = math.log(1e-210)

#: largest second difference of the kept log-tails read as rounding
CONCAVITY_TOL = 1e-12


@dataclass(frozen=True)
class BernoulliTailModel:
    """Exact tail of ``(B_1 + ... + B_n - n p) / (sqrt(p q) n^(1/(2 lam)))``
    with ``B_i`` Bernoulli(``p``), plus its least log-concave majorant.

    The binomial pmf is log-concave, hence so is its tail: the log-tails
    at the equally spaced support points are already concave, and the
    least log-concave majorant of the step tail is their log-linear
    interpolation.  It is one left of the support and zero right of it.
    Only the first ``kept`` log-tails, those at least ``LOG_FLOOR``, are
    interpolated, since ``logsf`` is not accurate far below it.  Past the
    last kept point the last chord is extrapolated log-linearly, which by
    concavity stays above the true tail (one when a single point is
    kept).
    """

    n: int
    p: float
    lam: float
    support: np.ndarray = field(repr=False)
    log_tails: np.ndarray = field(repr=False)
    kept: int = field(repr=False)

    def tail(self, x) -> float:
        """``P(T >= x)`` exactly."""
        x = float(x)
        k = int(np.searchsorted(self.support, x, side="left"))
        if k >= len(self.support):
            return 0.0
        return float(math.exp(self.log_tails[k]))

    def lc_tail(self, x) -> float:
        """Least log-concave majorant of :meth:`tail` at ``x``."""
        x = float(x)
        t, y, k = self.support, self.log_tails, self.kept - 1
        if x <= t[0]:
            return 1.0
        if x > t[-1]:
            return 0.0
        if x <= t[k]:
            log_tail = float(np.interp(x, t[:k + 1], y[:k + 1]))
        else:
            slope = (y[k] - y[k - 1]) / (t[k] - t[k - 1]) if k else 0.0
            log_tail = float(y[k] + slope * (x - t[k]))
        return math.exp(min(log_tail, 0.0))


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
    lam = float(lam)
    if not lam > 0:
        raise BadLambda(f"lambda must be positive, got {lam!r}")
    scale = math.sqrt(p * (1 - p)) * n ** (1.0 / (2.0 * lam))
    ks = np.arange(n + 1)
    support = (ks - n * p) / scale
    log_tails = stats.binom.logsf(ks - 1, n, p)
    below = np.flatnonzero(log_tails < LOG_FLOOR)
    kept = int(below[0]) if below.size else n + 1
    bend = np.diff(log_tails[:kept], 2)
    if bend.size and bend.max() > CONCAVITY_TOL:
        raise NotLogConcave(
            f"binomial log-tail at n={n}, p={p!r} bends upward by "
            f"{float(bend.max())!r}")
    return BernoulliTailModel(n, p, lam, support, log_tails, kept)


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
    least log-concave majorant of the exact Bernoulli-sum tail.
    """
    xs, rs = _paired(xs, rs)
    n = int(xs.size)
    if mode == "gaussian":
        stat = s_w(xs, rs)
        raw = GAUSSIAN_CONSTANT * normal_tail(stat)
        return TestReport("gaussian", n, stat, min(1.0, raw),
                          GAUSSIAN_CONSTANT, {"raw_bound": raw})
    if mode != "bernoulli":
        raise InputError(f"unknown mode {mode!r}; "
                         "pick 'gaussian' or 'bernoulli'")
    if p is None:
        raise BadP("bernoulli mode needs an asymmetry level p")
    p = float(p)
    if not 0 < p < 1:
        raise BadP(f"p must lie in (0, 1), got {p!r}")
    crit = lambda_star(p)
    if lam is None:
        lam = crit
    lam = float(lam)
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
    stat = s_y(xs, rs, lam)
    model = bernoulli_tail_model(n, p, lam)
    raw = BERNOULLI_CONSTANT * model.lc_tail(stat)
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
    if measure.backend != "discrete":
        raise NotDiscrete("asymmetry certificates need a discrete measure")
    gamma = None
    for _w, law in decompose(measure):
        if law.is_degenerate:
            continue
        if law.a == 0:
            raise InfiniteGamma("a positive atom pairs with zero")
        ratio = law.b / (-law.a)
        if gamma is None or ratio > gamma:
            gamma = ratio
    if gamma is None:
        raise InfiniteGamma("measure has no nondegenerate components")
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
