"""Parametric reciprocating curves, pattern construction, validation.

A reciprocating curve is a nonrandom candidate for the partner map of
some zero-mean law: a function ``r`` on an interval ``[a_minus, a_plus]``
containing zero with ``r(0) = 0``, strictly decreasing and continuous on
the interior, constant at the swapped endpoint beyond either end, and
involutive (``r(r(x)) = x``).  Three closed families are provided (a
power family with its exponential limits, a hyperbolic family, and a
bounded cubic-rate family), plus the generic construction from an
*asymmetry pattern*: writing the width ``w = x - r(x)`` and the sum
``a(w) = x + r(x)``, any strictly 1-Lipschitz ``a`` with ``a(0) = 0``
induces a valid curve through the half-sum/half-difference pair
``xi(w) = (w + a(w)) / 2`` and ``rho(w) = (w - a(w)) / 2``.

``validate_curve`` probes the curve axioms numerically, and
``validate_x_pm`` checks whether a candidate pair of generalized
inverses arises from an actual zero-mean measure, reconstructing that
measure when it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BadAlpha,
    BadScale,
    CharacterizationFailed,
    InputError,
    Lip1Violated,
    NotValidCurve,
)
from .measure import INF, NEG_INF, ZeroMeanMeasure, _bisect, _from_spec

__all__ = [
    "ReciprocatingCurve",
    "AsymmetryPattern",
    "power_family",
    "two_slope_family",
    "hyperbolic_family",
    "cubic_rate_family",
    "from_asymmetry_pattern",
    "asymmetry_pattern_of",
    "CurveReport",
    "validate_curve",
    "XpmReport",
    "validate_x_pm",
    "family_from_spec",
    "curve_table",
]


@dataclass(frozen=True)
class ReciprocatingCurve:
    """Candidate partner map on ``[a_minus, a_plus]``.

    Calls clamp: ``r(x) = a_plus`` for ``x <= a_minus`` and
    ``r(x) = a_minus`` for ``x >= a_plus``.  ``core`` maps a float array
    of interior points to their partners; a call takes a scalar (and
    returns a Python float) or an array.  ``smooth_at_zero`` records
    whether the family is differentiable at the origin (slope ``-1``).
    """

    a_minus: float
    a_plus: float
    core: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    smooth_at_zero: bool = True

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        if np.isnan(xs).any():
            raise InputError("nan is not a valid curve argument")
        rs = np.where(xs <= self.a_minus, self.a_plus, self.a_minus)
        inside = (xs > self.a_minus) & (xs < self.a_plus)
        with np.errstate(all="ignore"):
            rs[inside] = self.core(xs[inside])
        return float(rs) if rs.ndim == 0 else rs


@dataclass(frozen=True)
class AsymmetryPattern:
    """Sum-of-pair profile ``a(w)`` as a function of pair width ``w``.

    ``a`` maps a float array of widths to an array.  It must satisfy
    ``a(0) = 0`` and be strictly 1-Lipschitz on ``[0, a_plus - a_minus)``;
    the curve endpoints are carried along."""

    a: Callable[[np.ndarray], np.ndarray]
    a_minus: float
    a_plus: float

    @property
    def width_bound(self) -> float:
        return self.a_plus - self.a_minus

    def xi(self, w):
        """Positive coordinate of the pair of width ``w``."""
        return 0.5 * (w + self.a(w))

    def rho(self, w):
        """Magnitude of the negative coordinate of the pair."""
        return 0.5 * (w - self.a(w))


# --- closed families ------------------------------------------------------

def _powm1(y, p):
    """``(1 + y)^p - 1`` to a few ulps relative, times ``|z|`` at worst:
    ``expm1(z)``, ``z = p log1p(y)``, where ``|z| < 1`` or ``1 + y`` rounds
    (the power would cancel, or scale that rounding by ``p``), else the
    power, which loses under a bit there (``e^z / |e^z - 1| < 1.6``), keeps
    exact powers exact and does not amplify the rounding of ``z``."""
    z = p * np.log1p(y)
    # a sum is exact only if both differences give back the other term
    exact = (1.0 + y - 1.0 == y) & (1.0 + y - y == 1.0)
    return np.where((np.abs(z) < 1.0) | ~exact, np.expm1(z),
                    np.power(1.0 + y, p) - 1.0)


def power_family(p, c) -> ReciprocatingCurve:
    """Power-shape curve with exponent ``p`` and scale ``c > 0``.

    For finite nonzero ``p`` the positive side is
    ``(c/p) (1 - (1 + x/c)^p)`` and the negative side
    ``c ((1 - p x / c)^(1/p) - 1)`` (infinite once ``p x >= c``).
    ``p = 0`` is the log/exp member.  Passing ``p = +-inf`` selects the
    exponential limit members, in which case ``c`` is their rate.  Each
    ``e^z - 1`` is evaluated by ``expm1`` and each ``(1 + y)^p - 1`` by
    :func:`_powm1`, so partners keep their relative precision near zero;
    ``1 - e^z`` is ``0.0 - expm1(z)``, the signed zero of ``1 - 1`` at
    ``x = 0``.
    """
    c = float(c)
    if not (c > 0 and math.isfinite(c)):
        raise BadScale(f"scale must be positive and finite, got {c!r}")
    p = float(p)
    if math.isnan(p):
        raise InputError("exponent must not be nan")

    if p == INF:
        def core(x):
            return np.where(x >= 0, c * (0.0 - np.expm1(x / c)),
                            c * np.log1p(-x / c))

        return ReciprocatingCurve(NEG_INF, INF, core, f"power(p=inf, c={c})")
    if p == NEG_INF:
        def core(x):
            return np.where(x >= 0, -c * (0.0 - np.expm1(-x / c)),
                            -c * np.log1p(x / c))

        return ReciprocatingCurve(-c, INF, core, f"power(p=-inf, c={c})")
    if p == 0:
        def core(x):
            return np.where(x >= 0, -c * np.log1p(x / c),
                            c * np.expm1(-x / c))

        return ReciprocatingCurve(NEG_INF, INF, core, f"power(p=0, c={c})")

    def core(x):
        t = -p * x / c  # the negative side's pole is at t = -1
        return np.where(x >= 0, (c / p) * (0.0 - _powm1(x / c, p)),
                        np.where(t <= -1.0, INF, c * _powm1(t, 1.0 / p)))

    return ReciprocatingCurve(NEG_INF if p > 0 else c / p, INF, core,
                              f"power(p={p}, c={c})")


def two_slope_family(kappa) -> ReciprocatingCurve:
    """Piecewise-linear curve ``-x / kappa`` on the right, ``-kappa x`` on
    the left; involutive for every ``kappa > 0`` but differentiable at
    zero only when ``kappa = 1``."""
    kappa = float(kappa)
    if not (kappa > 0 and math.isfinite(kappa)):
        raise BadScale(f"slope ratio must be positive, got {kappa!r}")

    def core(x):
        return np.where(x >= 0, -x / kappa, -kappa * x)

    return ReciprocatingCurve(NEG_INF, INF, core, f"two_slope(kappa={kappa})",
                              smooth_at_zero=(kappa == 1.0))


def hyperbolic_family(alpha, c) -> ReciprocatingCurve:
    """Curve with hyperbolic sum-profile ``a(w) = alpha w^2 / (c + w)``.

    The pair quadratic is solved against its conjugate.  Its
    discriminant ``(c - 2|x|)^2 + 8 (1 + s alpha) c |x|`` (``s`` the sign
    of ``x``) is a sum of nonnegative terms, scaled exactly by a power of
    two near ``max(|x|, c/2)`` so that no square overflows; the end
    members ``alpha = +-1``, with their finite endpoint at ``-c/2``
    (resp. ``c/2``), need no special case."""
    alpha = float(alpha)
    c = float(c)
    if not (c > 0 and math.isfinite(c)):
        raise BadScale(f"scale must be positive and finite, got {c!r}")
    if not -1.0 <= alpha <= 1.0:
        raise BadAlpha(f"asymmetry must lie in [-1, 1], got {alpha!r}")

    def core(x):
        s, t = np.sign(x), np.abs(x)
        e = -np.frexp(np.maximum(t, 0.5 * c))[1]
        u, v = np.ldexp(t, e), np.ldexp(c, e)
        root = np.sqrt((v - 2.0 * u) ** 2 + 8.0 * (1.0 + s * alpha) * v * u)
        ratio = 2.0 * u / (v + 2.0 * alpha * s * u + root)
        # + 0.0 turns the -0.0 at x = 0 into 0.0
        return s * ratio * ((alpha * s - 1.0) * t - c) + 0.0

    return ReciprocatingCurve(-c / 2 if alpha == 1.0 else NEG_INF,
                              c / 2 if alpha == -1.0 else INF, core,
                              f"hyperbolic(alpha={alpha}, c={c})")


def cubic_rate_family(alpha, c) -> ReciprocatingCurve:
    """Curve whose sum-profile ``a(w) = (8 alpha c / (3 sqrt 3))
    w^2 / (c^2 + w^2)`` has bounded increment rate peaking at ``alpha``
    (attained at width ``c / sqrt 3``); asymptotically
    ``r(x) ~ -x + 8 alpha c / (3 sqrt 3)``."""
    alpha = float(alpha)
    c = float(c)
    if not (c > 0 and math.isfinite(c)):
        raise BadScale(f"scale must be positive and finite, got {c!r}")
    if not -1.0 <= alpha <= 1.0:
        raise BadAlpha(f"rate bound must lie in [-1, 1], got {alpha!r}")
    amp = 8.0 * alpha * c / (3.0 * math.sqrt(3.0))
    # written in c / w, so that no square of a width overflows
    pattern = AsymmetryPattern(lambda w: amp / (1.0 + (c / w) ** 2),
                               NEG_INF, INF)
    return replace(from_asymmetry_pattern(pattern, validate=False),
                   label=f"cubic_rate(alpha={alpha}, c={c})")


# --- pattern construction -------------------------------------------------

def _invert_increasing(f, target, hi_cap):
    """Solve ``f(w) = target`` elementwise for increasing ``f`` with
    ``f(0) = 0``, to a width of ``1e-13 (1 + w)``; ``inf`` where ``f``
    stays below the target up to ``hi_cap`` (or the largest double).

    The bracket doubles from the target, then shrinks by false position
    with the Illinois rule (an end kept twice has its value halved), each
    point at least half a width inside: about ten steps where halving
    takes 43.  Past 64 steps it halves, so every element converges."""
    shape = np.shape(target)
    target = np.asarray(target, dtype=float).ravel()
    top = min(hi_cap, float(np.finfo(float).max))
    with np.errstate(all="ignore"):
        lo, flo = np.zeros(target.shape), -target
        hi = np.clip(target, 0.0, top)
        fhi = f(hi) - target
        grow = (fhi < 0) & (hi < top)
        while grow.any():
            lo, flo = np.where(grow, hi, lo), np.where(grow, fhi, flo)
            hi = np.where(grow, np.minimum(hi, 0.5 * top) * 2.0, hi)
            fhi = f(hi) - target
            grow = (fhi < 0) & (hi < top)
        short = fhi < 0  # no root below the top: start frozen
        lo = np.where(short, hi, lo)
        lo_last = hi_last = np.zeros(target.shape, dtype=bool)
        for step in range(200):
            width = 1e-13 * (1.0 + hi)
            live = hi - lo > width
            if not live.any():
                break
            frac = flo / (flo - fhi) if step < 64 else 0.5
            mid = np.fmin(np.fmax(lo + (hi - lo) * frac, lo + 0.5 * width),
                          hi - 0.5 * width)
            fmid = f(mid) - target
            below = fmid < 0
            up, down = live & below, live & ~below
            np.multiply(fhi, 0.5, out=fhi, where=up & lo_last)
            np.multiply(flo, 0.5, out=flo, where=down & hi_last)
            np.copyto(lo, mid, where=up)
            np.copyto(flo, fmid, where=up)
            np.copyto(hi, mid, where=down)
            np.copyto(fhi, fmid, where=down)
            lo_last, hi_last = up, down
        return np.where(short, INF, 0.5 * (lo + hi)).reshape(shape)


#: dyadic probe depth for the strict-Lipschitz check
_LIP_DEPTH = 12

#: a probed increment ratio at or above this flags a violation
_LIP_THRESHOLD = 1.0 - 1e-10


def _lip1_probe(pattern: AsymmetryPattern) -> None:
    wb = pattern.width_bound
    if wb == INF:
        ws = np.concatenate([[0.0], np.exp2(np.arange(-_LIP_DEPTH,
                                                      _LIP_DEPTH + 1.0))])
    else:
        ws = np.linspace(0.0, float(wb), 2 ** _LIP_DEPTH + 1)[:-1]
    vals = np.broadcast_to(pattern.a(ws), ws.shape)
    if abs(vals[0]) > 1e-12:
        raise Lip1Violated(
            f"pattern must vanish at zero, got a(0)={float(vals[0])!r}")
    rise, run = np.abs(np.diff(vals)), np.diff(ws)
    steep = np.flatnonzero(rise >= _LIP_THRESHOLD * run)
    if steep.size:
        i = steep[0]
        raise Lip1Violated(
            f"increment ratio {float(rise[i] / run[i])!r} over "
            f"[{float(ws[i])!r}, {float(ws[i + 1])!r}] reaches 1")


def from_asymmetry_pattern(pattern: AsymmetryPattern, *,
                           validate: bool = True) -> ReciprocatingCurve:
    """Curve induced by a strictly 1-Lipschitz sum-profile.

    A point ``x`` of sign ``s`` lies in the pair of width ``w`` solving
    ``(w + s a(w)) / 2 = |x|`` (``xi(w) = x`` on the positive branch,
    ``rho(w) = -x`` on the negative one); its partner is
    ``(a(w) - s w) / 2``, that is ``-rho(w)`` or ``xi(w)``.  With
    ``validate`` set, slopes of ``a`` are probed on dyadic grids and
    :class:`~twopoint.errors.Lip1Violated` is raised when a probe reaches
    ratio one.
    """
    if validate:
        _lip1_probe(pattern)

    def core(x):
        s = np.where(x > 0, 1.0, -1.0)
        w = _invert_increasing(lambda w: 0.5 * (w + s * pattern.a(w)),
                               np.abs(x), pattern.width_bound)
        return 0.5 * (pattern.a(w) - s * w)

    return ReciprocatingCurve(pattern.a_minus, pattern.a_plus, core,
                              "from_pattern")


def asymmetry_pattern_of(curve: ReciprocatingCurve) -> AsymmetryPattern:
    """Recover the sum-profile ``a(w)`` of a valid curve.

    Inverts ``w(x) = x - r(x)`` on the positive branch, for all widths
    at once, and reads off ``a = x + r(x)``.  The negative branch must induce the
    same profile; both are probed at 17 dyadic widths (25 inner points
    of a bounded width range) and a relative disagreement beyond
    ``1e-9`` raises :class:`~twopoint.errors.NotValidCurve`.
    """

    def a_from_pos(w):
        x = _invert_increasing(lambda t: t - curve(t), w, curve.a_plus)
        # at the root r = x - w, so the sum follows from x alone; this
        # avoids re-evaluating the curve where it is steep
        return 2.0 * x - w

    def a_from_neg(w):
        y = _invert_increasing(lambda t: curve(-t) + t, w, -curve.a_minus)
        return w - 2.0 * y

    wb = curve.a_plus - curve.a_minus
    if wb == INF:
        ws = np.exp2(np.arange(-8.0, 9.0))
    else:
        ws = np.linspace(0.0, wb, 27)[1:-1]
    left, right = a_from_pos(ws), a_from_neg(ws)
    apart = np.flatnonzero(np.abs(left - right)
                           > 1e-9 * (1.0 + np.abs(left) + ws))
    if apart.size:
        i = apart[0]
        raise NotValidCurve(
            f"positive and negative branches disagree at width "
            f"{float(ws[i])!r}: {float(left[i])!r} vs {float(right[i])!r}")
    return AsymmetryPattern(a_from_pos, curve.a_minus, curve.a_plus)


# --- curve validation -----------------------------------------------------

@dataclass(frozen=True)
class CurveReport:
    """Outcome of probing the reciprocating-curve axioms."""

    passed: bool
    failures: tuple
    involution_error: float
    derivative_at_zero: Optional[float]

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "involution_error": self.involution_error,
            "derivative_at_zero": self.derivative_at_zero,
        }


def _probe_grid(curve: ReciprocatingCurve) -> np.ndarray:
    """100 probes on either side of zero, and zero itself."""
    lo, hi = curve.a_minus, curve.a_plus
    if hi == INF:
        pos = np.geomspace(1e-3, 64.0, 100)
    else:
        pos = np.linspace(0.0, hi, 102)[1:-1]
    if lo == NEG_INF:
        neg = -np.geomspace(1e-3, 64.0, 100)
    else:
        neg = np.linspace(lo, 0.0, 102)[1:-1]
    return np.concatenate([np.sort(neg), [0.0], pos])


#: tolerance of ``r(0) = 0`` and of the involution in :func:`validate_curve`
_CURVE_TOL = 1e-9


@np.errstate(invalid="ignore", over="ignore")
def validate_curve(curve: ReciprocatingCurve) -> CurveReport:
    """Probe ``r(0) = 0``, strict decrease, continuity, boundary
    constancy, and the involution on a 201-point grid; for a curve that
    is ``smooth_at_zero`` also the slope ``-1`` at zero via
    Richardson-extrapolated central differences inside the curve's range.
    A jump or slope that is not finite fails, and so does a smooth curve
    with an endpoint at zero, where no slope can be probed; such a slope
    reports None."""
    failures = []
    xs = _probe_grid(curve)
    rs = curve(xs)
    lo, hi = curve.a_minus, curve.a_plus

    if abs(curve(0.0)) > _CURVE_TOL:
        failures.append(f"r(0) = {curve(0.0)!r} is not 0")

    # double precision cannot separate values this close to a finite
    # endpoint, so ties and round trips are excused there
    near_end = np.zeros(len(xs), dtype=bool)
    for bound in (lo, hi):
        if math.isfinite(bound):
            near_end |= np.abs(rs - bound) <= 1e-7 * (1.0 + abs(bound))

    diffs = np.diff(rs)
    saturated = near_end[:-1] & near_end[1:]
    if not ((diffs < 0) | (saturated & (diffs <= 0))).all():
        failures.append("not strictly decreasing on the probe grid")

    # continuity: a candidate jump must shrink under refinement
    scale = 1.0 + float(np.abs(rs[np.isfinite(rs)]).max(initial=1.0))
    d = 1e-6 * (1.0 + np.abs(xs))
    keep = (np.abs(xs) > 1e-9) & (xs - d > lo) & (xs + d < hi)
    x, d = xs[keep], d[keep]
    j1 = np.abs(curve(x + d) - curve(x - d))
    j2 = np.abs(curve(x + d / 64) - curve(x - d / 64))
    jumps = np.flatnonzero(~np.isfinite(j1)
                           | ((j1 > 1e-3 * scale) & (j2 > 0.5 * j1)))[:1]
    failures += [f"jump of size {float(j1[i])!r} near x = {float(x[i])!r}"
                 if np.isfinite(j1[i]) else
                 f"no finite jump near x = {float(x[i])!r}" for i in jumps]

    inner = ~near_end & (rs > lo) & (rs < hi)
    errs = np.abs(curve(rs[inner]) - xs[inner]) / (1.0 + np.abs(xs[inner]))
    inv_err = float(np.fmax.reduce(errs, initial=0.0))
    if inv_err > _CURVE_TOL:
        failures.append(
            f"involution error {inv_err!r} exceeds {_CURVE_TOL!r}")

    for bound, other in ((hi, lo), (lo, hi)):
        if math.isfinite(bound):
            probe = bound * 1.5 if bound != 0 else 1.0
            if curve(probe) != other or curve(bound) != other:
                failures.append(f"not constant beyond endpoint {bound!r}")

    deriv = None
    # the probes stay a thousandth of the way to the nearer endpoint
    span = min(1.0, (hi - lo) / 8, -lo, hi)
    if curve.smooth_at_zero and not span > 0:  # an endpoint sits at zero
        failures.append("no room to probe the slope at zero")
    elif curve.smooth_at_zero:
        h1, h2 = 1e-3 * span, 1e-4 * span
        d1 = (curve(h1) - curve(-h1)) / (2 * h1)
        d2 = (curve(h2) - curve(-h2)) / (2 * h2)
        # the weight is free of the span, whose square may underflow
        deriv = d2 + (d2 - d1) * 1e-4 * 1e-4 / (1e-3 * 1e-3 - 1e-4 * 1e-4)
        if not math.isfinite(deriv):
            failures.append("slope at zero is not finite")
            deriv = None
        elif abs(deriv - (-1.0)) > 1e-4:
            failures.append(f"slope at zero is {deriv!r}, not -1")

    return CurveReport(not failures, tuple(failures), inv_err, deriv)


# --- characterization of inverse pairs ------------------------------------

@dataclass(frozen=True)
class XpmReport:
    """Successful reconstruction from a candidate inverse pair."""

    valid: bool
    measure: ZeroMeanMeasure
    mass_at_zero: float
    cdf: Callable[[float], float]


def _safe_call(f: Callable[[float], float], h: float) -> float:
    try:
        v = float(f(float(h)))
    except (ZeroDivisionError, OverflowError):
        return INF
    if math.isnan(v):
        raise CharacterizationFailed(f"candidate returned nan at {h!r}")
    return v


def validate_x_pm(y_plus: Callable[[float], float],
                  y_minus: Callable[[float], float], m) -> XpmReport:
    """Decide whether ``(y_plus, y_minus)`` are the generalized inverses
    of some zero-mean measure with half mean ``m``, and rebuild it.

    The candidates are consulted on ``(0, m]`` only (their value at zero
    is 0 by convention) and must be sign-correct, monotone in the proper
    directions, left-continuous, finite on ``[0, m)`` (all probed on 256
    levels), and satisfy the mass inequality: the integral over ``(0, m)``
    of ``1/y_plus - 1/y_minus`` may not exceed one.  Violations raise
    :class:`~twopoint.errors.CharacterizationFailed`; on success the
    unique measure is returned as an analytic backend together with its
    distribution function (the deficit of the mass inequality sits at
    zero).
    """
    m = float(m)
    if not (m > 0 and math.isfinite(m)):
        raise InputError(f"half mean must be positive and finite, got {m!r}")

    yp = lambda h: _safe_call(y_plus, h)
    ym = lambda h: _safe_call(y_minus, h)

    hs = np.linspace(0.0, m, 257)[1:]
    vp = np.array([yp(h) for h in hs])
    vm = np.array([ym(h) for h in hs])

    if not (vp > 0).all():
        raise CharacterizationFailed("positive inverse must be strictly "
                                     "positive on (0, m]")
    if not (vm < 0).all():
        raise CharacterizationFailed("negative inverse must be strictly "
                                     "negative on (0, m]")
    if not (np.isfinite(vp[:-1]).all() and np.isfinite(vm[:-1]).all()):
        raise CharacterizationFailed("inverses must be finite below m")
    slack = 1e-9 * (1.0 + np.abs(vp[np.isfinite(vp)]).max(initial=0.0))
    if not (np.diff(vp) >= -slack).all():
        raise CharacterizationFailed("positive inverse must be nondecreasing")
    slack_m = 1e-9 * (1.0 + np.abs(vm[np.isfinite(vm)]).max(initial=0.0))
    if not (np.diff(vm) <= slack_m).all():
        raise CharacterizationFailed("negative inverse must be nonincreasing")
    for f, v in ((yp, vp), (ym, vm)):
        for h, val in zip(hs[1:-1], v[1:-1]):
            probe = f(h - 1e-7 * m)
            if abs(probe - val) > 1e-3 * (1.0 + abs(val)):
                refined = f(h - 1e-9 * m)
                if abs(refined - val) > 0.7 * abs(probe - val):
                    raise CharacterizationFailed(
                        f"left-continuity violated near level {h!r}")

    # imported here so that importing twopoint loads no scipy
    from scipy import integrate

    def density_sum(h):
        return 1.0 / yp(h) - 1.0 / ym(h)

    total, _err = integrate.quad(density_sum, 0.0, m, limit=200)
    if total > 1.0 + 1e-9:
        raise CharacterizationFailed(
            f"mass integral {total!r} exceeds one; no probability measure "
            "has these inverses")
    p_zero = max(0.0, 1.0 - total)

    def level_of(y: Callable[[float], float], x: float) -> float:
        # sup of levels with y <= x (== inf of levels with y > x), for the
        # nondecreasing y = y_plus or y = -y_minus
        if y(m) <= x:
            return m
        return _bisect(lambda h: y(h) <= x, 0.0, m, 0.0, 100)[0]

    def g_curve(x: float) -> float:
        if x == 0:
            return 0.0
        return level_of(yp, x) if x > 0 else level_of(lambda h: -ym(h), -x)

    def cdf(x: float) -> float:
        x = float(x)
        if x >= 0:
            cut = level_of(yp, x)
            if cut >= m:
                return 1.0
            tail, _ = integrate.quad(lambda h: 1.0 / yp(h), cut, m, limit=200)
            return 1.0 - tail
        # inf of levels with y_minus <= x
        if ym(m) > x:
            return 0.0
        if ym(min(1e-12 * m, m)) <= x:
            cut = 0.0
        else:
            cut = _bisect(lambda h: not ym(h) <= x, 0.0, m, 0.0, 100)[1]
        mass, _ = integrate.quad(lambda h: -1.0 / ym(h), cut, m, limit=200)
        return mass

    top = yp(m)
    bottom = ym(m)
    support = (bottom if math.isfinite(bottom) else NEG_INF,
               top if math.isfinite(top) else INF)
    measure = ZeroMeanMeasure.analytic(g_curve, m, support)
    return XpmReport(True, measure, p_zero, cdf)


# --- serialization helpers ------------------------------------------------

#: each family's constructor and its parameters' defaults (None: required)
_FAMILIES = {"power": (power_family, {"p": None, "c": 1}),
             "hyperbolic": (hyperbolic_family, {"alpha": 0, "c": 1}),
             "cubic_rate": (cubic_rate_family, {"alpha": 0, "c": 1}),
             "two_slope": (two_slope_family, {"kappa": 1})}


def family_from_spec(obj: dict) -> ReciprocatingCurve:
    """Build a family member from its JSON description, e.g.
    ``{"family": "power", "p": "inf", "c": 1}``, by the rule of
    :func:`~twopoint.measure._from_spec`."""
    return _from_spec(obj, "family", _FAMILIES)


def curve_table(curve: ReciprocatingCurve, xs: Sequence[float]):
    """Rows ``(x, r(x))`` of Python floats for tabulation."""
    xs = np.asarray(xs, dtype=float)
    return list(zip(xs.tolist(), curve(xs).tolist()))
