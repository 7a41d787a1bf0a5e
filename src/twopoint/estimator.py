"""Self-normalized confidence intervals for a mean.

The empirical measure of a recentred sample is a discrete zero-mean
law, so every observation has a partner under the pairing map.  Ties
are handled deterministically: the copies of a repeated value take the
midpoints of equal slices of the value's level range, which spreads
them evenly without randomization.  The studentizing denominators built
from the widths ``|x - r|`` or the products ``|x r|`` do not move when
a trial mean is subtracted, so the normalized pivot is linear in the
trial mean and percentile bootstrap quantiles of the pivot invert to a
closed-form interval.

The partner computation is vectorized across bootstrap resamples: all
rows are sorted at once and each side's cumulative levels are summed
once.  Levels live on the lattice ``n x - sum(x)``, ``n`` times the
recentred values, so on integer data a level that meets a cumulative
level compares exactly.  Each row then looks up its partners with one
``searchsorted`` per side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BadLambda, BadLevel, ConstantSample, EmptySample,
                     InputError, TooFewResamples)
from .selfnorm import _ratio, _studentizer

__all__ = [
    "EmpiricalPartners",
    "empirical_partners",
    "denominator",
    "pivot",
    "PivotRun",
    "bootstrap_ci",
    "PIVOT_KINDS",
]

PIVOT_KINDS = ("W", "Y_lambda")


def _as_rows(xs) -> np.ndarray:
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


def _sorted_partners(D: np.ndarray, total: np.ndarray) -> tuple:
    """Recentred values and partners of row-sorted raw samples ``D``
    with row sums ``total``.

    Each entry's level is the midpoint of its own slice of the
    cumulative lattice weight on its side, and the partner is the
    opposite-side value whose slice covers that level.  Ties resolve
    themselves: equal values produce evenly spread levels whatever
    their order."""
    n = D.shape[1]
    S = D - (total / n)[:, None]
    # the lattice n D - sum(x) = n S is exact on integer data while its
    # cumulative sums stay below 2^53; an exact power of two scales it
    # where they could pass the float range, moving no comparison
    _, e = math.frexp(float(np.abs(D).max(initial=0.0)))
    shift = min(0, 1021 - e - 2 * n.bit_length())
    L = math.ldexp(n, shift) * D - np.ldexp(total, shift)[:, None]
    pos = np.maximum(L, 0.0)
    neg = np.maximum(-L, 0.0)[:, ::-1]  # outwards from zero
    up, down = np.cumsum(pos, axis=1), np.cumsum(neg, axis=1)
    from_neg = np.take_along_axis(S[:, ::-1], _covering(up, pos, down), 1)
    from_pos = np.take_along_axis(S, _covering(down, neg, up), 1)[:, ::-1]
    return S, np.where(L > 0, from_neg, np.where(L < 0, from_pos, 0.0))


def _den_rows(D: np.ndarray, total: np.ndarray, kind: str,
              lam: float) -> np.ndarray:
    S, R = _sorted_partners(D, total)
    return _studentizer(S, R, None if kind == "W" else lam)


def _check_kind(kind: str, lam) -> float:
    if kind not in PIVOT_KINDS:
        raise InputError(f"unknown pivot kind {kind!r}; "
                         f"pick one of {PIVOT_KINDS}")
    lam = float(lam)
    if kind == "Y_lambda" and not lam > 0:
        raise BadLambda(f"exponent must be positive, got {lam!r}")
    return lam


@dataclass(frozen=True)
class EmpiricalPartners:
    """Per-observation partners of a recentred sample, original order."""

    values: np.ndarray
    partners: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return np.abs(self.values - self.partners)

    @property
    def products(self) -> np.ndarray:
        return np.abs(self.values * self.partners)


def empirical_partners(xs, *, recentre: bool = True) -> EmpiricalPartners:
    """Partner of every observation under the empirical pairing.

    With ``recentre`` (the default) the sample mean is subtracted first;
    the values returned are the recentred ones."""
    arr = _as_rows(xs)
    total = np.array([arr.sum() if recentre else 0.0])
    order = np.argsort(arr, kind="stable")
    _, R = _sorted_partners(arr[order][None, :], total)
    partners = np.empty_like(arr)
    partners[order] = R[0]
    return EmpiricalPartners(arr - total[0] / arr.size, partners)


def denominator(xs, kind: str = "W", lam: float = 1.0) -> float:
    """Studentizer of the recentred sample: half the root sum of squared
    widths (``"W"``), or the power-sum norm of the products
    (``"Y_lambda"``).  Free of any trial mean by construction."""
    lam = _check_kind(kind, lam)
    arr = _as_rows(xs)
    if not np.any(arr != arr.mean()):
        raise ConstantSample("constant sample has no spread to "
                             "normalize by")
    return float(_den_rows(np.sort(arr)[None, :], np.array([arr.sum()]),
                           kind, lam)[0])


def pivot(xs, theta, kind: str = "W", lam: float = 1.0) -> float:
    """Normalized pivot ``(sum(x) - n theta) / denominator``; linear and
    decreasing in ``theta``."""
    arr = _as_rows(xs)
    den = denominator(arr, kind, lam)
    return float((arr.sum() - arr.size * float(theta)) / den)


def _quantiles(values: np.ndarray, probs) -> np.ndarray:
    """``np.quantile`` with linear interpolation, except that a quantile
    next to an infinite order statistic is that infinity, where numpy
    gives nan; the lower neighbour wins between ``-inf`` and ``inf``."""
    v = np.sort(values)
    at = (v.size - 1) * np.asarray(probs)
    below, above = v[np.floor(at).astype(int)], v[np.ceil(at).astype(int)]
    with np.errstate(invalid="ignore"):
        q = np.quantile(v, probs)
    q = np.where(np.isinf(above), above, q)
    return np.where(np.isinf(below), below, q)


@dataclass(frozen=True)
class PivotRun:
    """Everything produced by one bootstrap inversion."""

    kind: str
    lam: float
    level: float
    n: int
    resamples: int
    seed: Optional[int]
    mean: float
    den: float
    quantiles: tuple
    ci: tuple

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "lambda": self.lam,
            "level": self.level,
            "n": self.n,
            "resamples": self.resamples,
            "seed": self.seed,
            "mean": self.mean,
            "denominator": self.den,
            "pivot_quantiles": list(self.quantiles),
            "ci": list(self.ci),
        }


def bootstrap_ci(xs, *, level: float = 0.95, resamples: int = 2000,
                 kind: str = "W", lam: float = 1.0,
                 seed: Optional[int] = None, rng=None) -> PivotRun:
    """Percentile-of-pivot bootstrap interval for the mean.

    Each resample is recentred by its own mean before its denominator
    is computed, and its pivot is evaluated at the original sample
    mean.  Because the pivot is linear in the trial mean, the quantile
    band inverts in closed form."""
    if not 0.0 < level < 1.0:
        raise BadLevel(f"confidence level must lie in (0, 1), "
                       f"got {level!r}")
    resamples = int(resamples)
    if resamples < 100:
        raise TooFewResamples(f"{resamples} resamples cannot resolve "
                              "the quantiles; use at least 100")
    lam = _check_kind(kind, lam)
    arr = _as_rows(xs)
    n = arr.size
    xbar = float(arr.mean())
    den0 = denominator(arr, kind, lam)

    if rng is None:
        rng = np.random.default_rng(seed)
    draws = arr[rng.integers(0, n, size=(resamples, n))]
    sums = draws.sum(axis=1)
    draws.sort(axis=1)
    pivots = _ratio(sums - n * xbar, _den_rows(draws, sums, kind, lam))
    alpha = 1.0 - level
    q_lo, q_hi = _quantiles(pivots, [alpha / 2.0, 1.0 - alpha / 2.0])
    ci = ((arr.sum() - q_hi * den0) / n, (arr.sum() - q_lo * den0) / n)
    return PivotRun(kind, lam, level, n, resamples, seed, xbar, den0,
                    (float(q_lo), float(q_hi)),
                    (float(ci[0]), float(ci[1])))
