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

Bootstrap resamples are drawn, sorted and paired in chunks of rows of a
fixed byte size: memory stays flat in the number of resamples, and a
chunk's arrays stay small enough for the cache.  Levels live on the
lattice ``n x - sum(x)``, ``n`` times the recentred values, so on
integer data a level that meets a cumulative level compares exactly.
The recentred values, the lattice levels, each side's cumulative levels
and their midpoints are computed for a whole chunk at once.  The sums of
both sides share one array that rises along each row: the negative
side's sums are negated, and the other side's entries add only zeros to
a side's sums.  Then each row, on a lattice scaled by its own values
alone, is paired on its own side slices: its negative entries and its
positive ones.  One ``searchsorted`` per side looks the partners up
among the opposite side's sums only, and they are gathered straight
into the row, so a row costs four numpy calls on slices read in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BadLevel, ConstantSample, InputError,
                     TooFewResamples, Unbounded)
from .selfnorm import _as_rows, _check_lambda, _ratio, _studentizer

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

#: bytes of one float array over a chunk of bootstrap resamples; the
#: dozen such temporaries of a chunk then fit in a core's cache
_CHUNK_BYTES = 1 << 17


def _sorted_partners(D: np.ndarray, total: np.ndarray) -> tuple:
    """Recentred values and partners of row-sorted raw samples ``D``
    with row sums ``total``.

    Each entry's level is the midpoint of its own slice of the
    cumulative lattice weight on its side, and the partner is the
    opposite-side value whose slice covers that level, the level kept
    within the opposite side's total.  Ties resolve themselves: equal
    values produce evenly spread levels whatever their order.  Where a
    row's cumulative lattice sums could pass the float range, a power
    of two set by the row's own largest magnitude scales them down,
    which moves no comparison unless it rounds subnormal values.

    Each row is paired on its own side slices: the negative entries,
    read outwards from zero, and the positive ones.  An entry of a row
    with no opposite side is paired with the row's outermost value on
    its own side; an entry at level zero with zero.  A row whose sum
    overflowed has infinite or nan levels all of one kind, so it falls
    under one of these rules."""
    n = D.shape[1]
    _, e = np.frexp(np.maximum(-D[:, 0], D[:, -1]))
    scale = np.minimum(0, 1021 - e - 2 * n.bit_length())[:, None]
    S = D - (total / n)[:, None]
    L = np.ldexp(float(n), scale) * D - np.ldexp(total[:, None], scale)
    # the rows are sorted: entries [0, a) are negative, [b, n) positive
    a_s = np.count_nonzero(L < 0, axis=1).tolist()
    b_s = (n - np.count_nonzero(L > 0, axis=1)).tolist()
    # each side's levels summed outwards from zero, in one array that
    # rises along the row: the negative side's sums are negated, and
    # the other side's entries add only zeros to a side's sums
    cum = np.maximum(L, 0.0)
    np.cumsum(cum, axis=1, out=cum)
    down = np.negative(L)
    np.maximum(down, 0.0, out=down)
    np.cumsum(down[:, ::-1], axis=1, out=down[:, ::-1])
    cum -= down
    del down
    # each entry's midpoint, negated on the positive side so that it
    # lies among the negative side's sums
    mid = np.multiply(L, 0.5, out=L)
    mid -= cum
    R = np.zeros_like(S)
    for s, c, m, r, a, b in zip(S, cum, mid, R, a_s, b_s):
        if a == 0 or b == n:
            r[:a], r[b:] = s[0], s[-1]
            continue
        # a negated sum at most a negated midpoint is a sum at least the
        # midpoint.  Each search leaves out the opposite side's outermost
        # sum, so a midpoint past the opposite total (by rounding) meets
        # the outermost entry, as it would if kept at that total: the
        # last, largest level of a side always raises its sum.
        r[:a] = s[b:][c[b:-1].searchsorted(m[:a])]
        r[b:] = s[:a][c[1:a].searchsorted(m[b:], "right")]
    return S, R


def _den_rows(D: np.ndarray, total: np.ndarray, kind: str,
              lam: float) -> np.ndarray:
    S, R = _sorted_partners(D, total)
    return _studentizer(S, R, None if kind == "W" else lam)


def _check_kind(kind: str, lam) -> float:
    if kind not in PIVOT_KINDS:
        raise InputError(f"unknown pivot kind {kind!r}; "
                         f"pick one of {PIVOT_KINDS}")
    return _check_lambda(lam)


def _stable_sort(arr: np.ndarray) -> tuple:
    """``order = np.argsort(arr, kind="stable")`` and ``arr[order]``
    without timsort: the default sort, then, if any sorted values are
    equal, each run of them put back in index order by sorting the
    unique key ``run * n + index``."""
    order = np.argsort(arr)
    ordered = arr[order]
    step = ordered[1:] != ordered[:-1]
    if step.all():
        # no ties, so every sort gives this order
        return order, ordered
    run = np.zeros(arr.size, dtype=np.int64)
    np.cumsum(step, out=run[1:])
    run *= arr.size
    key = run + order
    key.sort()
    # the runs keep their places, so the key minus its run is the index
    order = key - run
    # -0.0 and 0.0 tie, so a run's values may change places
    return order, arr[order]


@dataclass(frozen=True)
class EmpiricalPartners:
    """Per-observation partners of a recentred sample, original order."""

    values: np.ndarray
    partners: np.ndarray


def empirical_partners(xs) -> EmpiricalPartners:
    """Partner of every observation under the empirical pairing of the
    sample recentred by its mean; the values returned are the recentred
    ones."""
    arr = _as_rows(xs)
    total = np.array([arr.sum()])
    order, ordered = _stable_sort(arr)
    _, R = _sorted_partners(ordered[None, :], total)
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
    den = denominator(xs, kind, lam)
    arr = np.asarray(xs, dtype=float)
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
    den0 = denominator(xs, kind, lam)
    arr = np.asarray(xs, dtype=float)
    n = arr.size
    xbar = float(arr.mean())

    if rng is None:
        rng = np.random.default_rng(seed)
    # allocated first, so that an impossible count fails before any work
    pivots = np.empty(resamples)
    rows = max(1, _CHUNK_BYTES // (8 * n))
    # a resample whose sum overflows gets a nan pivot, by design
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, resamples, rows):
            # chunked draws concatenate to the stream of one (B, n) draw
            draws = arr[rng.integers(0, n, size=(min(rows, resamples - lo),
                                                 n))]
            sums = draws.sum(axis=1)
            draws.sort(axis=1)
            pivots[lo:lo + len(draws)] = _ratio(
                sums - n * xbar, _den_rows(draws, sums, kind, lam))
    alpha = 1.0 - level
    q_lo, q_hi = _quantiles(pivots, [alpha / 2.0, 1.0 - alpha / 2.0])
    # a band scaled by the sample's denominator would be nan: inf * 0
    if np.isinf(den0) and 0 in (q_lo, q_hi):
        raise Unbounded(f"the sample's denominator {den0!r} cannot scale "
                        f"the pivot quantiles {float(q_lo)!r}, "
                        f"{float(q_hi)!r} into an interval")
    ci = ((arr.sum() - q_hi * den0) / n, (arr.sum() - q_lo * den0) / n)
    return PivotRun(kind, lam, level, n, resamples, seed, xbar, den0,
                    (float(q_lo), float(q_hi)),
                    (float(ci[0]), float(ci[1])))
