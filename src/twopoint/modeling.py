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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .errors import (
    BadAlpha,
    BadScale,
    CharacterizationFailed,
    InputError,
    Lip1Violated,
    NotValidCurve,
)
from .measure import INF, NEG_INF, ZeroMeanMeasure, _bisect

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


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return INF


def _pow(base: float, e: float) -> float:
    if base == 0.0:
        return 0.0 if e > 0 else INF
    try:
        return math.pow(base, e)
    except OverflowError:
        return INF


@dataclass(frozen=True)
class ReciprocatingCurve:
    """Candidate partner map on ``[a_minus, a_plus]``.

    Calls clamp: ``r(x) = a_plus`` for ``x <= a_minus`` and
    ``r(x) = a_minus`` for ``x >= a_plus``.  ``smooth_at_zero`` records
    whether the family is differentiable at the origin (slope ``-1``).
    """

    a_minus: float
    a_plus: float
    core: Callable[[float], float]
    label: str = ""
    smooth_at_zero: bool = True

    def __call__(self, x) -> float:
        x = float(x)
        if math.isnan(x):
            raise InputError("nan is not a valid curve argument")
        if x <= self.a_minus:
            return self.a_plus
        if x >= self.a_plus:
            return self.a_minus
        return float(self.core(x))


@dataclass(frozen=True)
class AsymmetryPattern:
    """Sum-of-pair profile ``a(w)`` as a function of pair width ``w``.

    Must satisfy ``a(0) = 0`` and be strictly 1-Lipschitz on
    ``[0, a_plus - a_minus)``; the curve endpoints are carried along."""

    a: Callable[[float], float]
    a_minus: float
    a_plus: float

    @property
    def width_bound(self) -> float:
        return self.a_plus - self.a_minus

    def xi(self, w: float) -> float:
        """Positive coordinate of the pair of width ``w``."""
        return 0.5 * (w + self.a(w))

    def rho(self, w: float) -> float:
        """Magnitude of the negative coordinate of the pair."""
        return 0.5 * (w - self.a(w))


# --- closed families ------------------------------------------------------

def power_family(p, c) -> ReciprocatingCurve:
    """Power-shape curve with exponent ``p`` and scale ``c > 0``.

    For finite nonzero ``p`` the positive side is
    ``(c/p) (1 - (1 + x/c)^p)`` and the negative side
    ``c ((1 - p x / c)^(1/p) - 1)`` (infinite once ``p x >= c``).
    ``p = 0`` is the log/exp member.  Passing ``p = +-inf`` selects the
    exponential limit members, in which case ``c`` is their rate.
    """
    c = float(c)
    if not (c > 0 and math.isfinite(c)):
        raise BadScale(f"scale must be positive and finite, got {c!r}")
    p = float(p)
    if math.isnan(p):
        raise InputError("exponent must not be nan")

    if p == INF:
        lam = c

        def core(x):
            if x >= 0:
                return lam * (1.0 - _exp(x / lam))
            return lam * math.log1p(-x / lam)

        return ReciprocatingCurve(NEG_INF, INF, core, f"power(p=inf, c={lam})")
    if p == NEG_INF:
        lam = c

        def core(x):
            if x >= 0:
                return -lam * (1.0 - _exp(-x / lam))
            return -lam * math.log1p(x / lam)

        return ReciprocatingCurve(-lam, INF, core, f"power(p=-inf, c={lam})")
    if p == 0:

        def core(x):
            if x >= 0:
                return -c * math.log1p(x / c)
            return c * (_exp(-x / c) - 1.0)

        return ReciprocatingCurve(NEG_INF, INF, core, f"power(p=0, c={c})")

    a_minus = NEG_INF if p > 0 else c / p

    def core(x):
        if x >= 0:
            return (c / p) * (1.0 - _pow(1.0 + x / c, p))
        base = 1.0 - p * x / c
        if base <= 0.0:
            return INF
        return c * (_pow(base, 1.0 / p) - 1.0)

    return ReciprocatingCurve(a_minus, INF, core, f"power(p={p}, c={c})")


def two_slope_family(kappa) -> ReciprocatingCurve:
    """Piecewise-linear curve ``-x / kappa`` on the right, ``-kappa x`` on
    the left; involutive for every ``kappa > 0`` but differentiable at
    zero only when ``kappa = 1``."""
    kappa = float(kappa)
    if not (kappa > 0 and math.isfinite(kappa)):
        raise BadScale(f"slope ratio must be positive, got {kappa!r}")

    def core(x):
        return -x / kappa if x >= 0 else -kappa * x

    return ReciprocatingCurve(NEG_INF, INF, core, f"two_slope(kappa={kappa})",
                              smooth_at_zero=(kappa == 1.0))


def hyperbolic_family(alpha, c) -> ReciprocatingCurve:
    """Curve with hyperbolic sum-profile ``a(w) = alpha w^2 / (c + w)``.

    For ``|alpha| < 1`` a closed form is used (written against the
    conjugate to stay stable near ``alpha = +-1``); the end members
    ``alpha = +-1`` fall back to the pattern construction and acquire a
    finite endpoint at ``-c/2`` (resp. ``c/2``)."""
    alpha = float(alpha)
    c = float(c)
    if not (c > 0 and math.isfinite(c)):
        raise BadScale(f"scale must be positive and finite, got {c!r}")
    if not -1.0 <= alpha <= 1.0:
        raise BadAlpha(f"asymmetry must lie in [-1, 1], got {alpha!r}")

    if abs(alpha) == 1.0:
        pattern = AsymmetryPattern(lambda w: alpha * w * w / (c + w),
                                   -c / 2 if alpha > 0 else NEG_INF,
                                   INF if alpha > 0 else c / 2)
        curve = from_asymmetry_pattern(pattern, validate=False)
        return ReciprocatingCurve(curve.a_minus, curve.a_plus, curve.core,
                                  f"hyperbolic(alpha={alpha}, c={c})")

    def core(x):
        if x == 0.0:
            return 0.0
        s = 1.0 if x > 0 else -1.0
        disc = (c + 2.0 * abs(x)) ** 2 + 8.0 * alpha * c * x
        return 2.0 * x * ((alpha - s) * x - c) / (c + 2.0 * alpha * x
                                                  + math.sqrt(disc))

    return ReciprocatingCurve(NEG_INF, INF, core,
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
    pattern = AsymmetryPattern(lambda w: amp * w * w / (c * c + w * w),
                               NEG_INF, INF)
    curve = from_asymmetry_pattern(pattern, validate=False)
    return ReciprocatingCurve(curve.a_minus, curve.a_plus, curve.core,
                              f"cubic_rate(alpha={alpha}, c={c})")


# --- pattern construction -------------------------------------------------

def _invert_increasing(f: Callable[[float], float], target: float,
                       hi_cap: float = INF, tol: float = 1e-13) -> float:
    """Solve ``f(w) = target`` for increasing ``f`` with ``f(0) = 0``."""
    if target <= 0.0:
        return 0.0
    hi = 1.0 if hi_cap == INF else min(1.0, hi_cap)
    while f(hi) < target:
        if hi > 1e300:
            return hi
        hi = hi * 2.0 if hi_cap == INF else min(hi * 2.0, hi_cap)
        if hi == hi_cap and f(hi) < target:
            break
    lo = 0.0 if hi <= 1.0 else hi / 2.0
    lo, hi = _bisect(lambda w: f(w) < target, lo, hi, tol, 200)
    return 0.5 * (lo + hi)


#: dyadic probe depth for the strict-Lipschitz check
_LIP_DEPTH = 12

#: a probed increment ratio at or above this flags a violation
_LIP_THRESHOLD = 1.0 - 1e-10


def _lip1_probe(pattern: AsymmetryPattern) -> None:
    wb = pattern.width_bound
    if wb == INF:
        ws = [0.0] + [2.0 ** j for j in range(-_LIP_DEPTH, _LIP_DEPTH + 1)]
    else:
        ws = list(np.linspace(0.0, float(wb), 2 ** _LIP_DEPTH + 1)[:-1])
    vals = [pattern.a(w) for w in ws]
    if abs(vals[0]) > 1e-12:
        raise Lip1Violated(f"pattern must vanish at zero, got a(0)={vals[0]!r}")
    for (w1, a1), (w2, a2) in zip(zip(ws, vals), zip(ws[1:], vals[1:])):
        if abs(a2 - a1) >= _LIP_THRESHOLD * (w2 - w1):
            raise Lip1Violated(
                f"increment ratio {abs(a2 - a1) / (w2 - w1)!r} over "
                f"[{w1!r}, {w2!r}] reaches 1")


def from_asymmetry_pattern(pattern: AsymmetryPattern, *,
                           validate: bool = True) -> ReciprocatingCurve:
    """Curve induced by a strictly 1-Lipschitz sum-profile.

    The positive branch solves ``xi(w) = x`` and returns ``-rho(w)``;
    the negative branch solves ``rho(w) = -x`` and returns ``xi(w)``.
    With ``validate`` set, slopes of ``a`` are probed on dyadic grids and
    :class:`~twopoint.errors.Lip1Violated` is raised when a probe reaches
    ratio one.
    """
    if validate:
        _lip1_probe(pattern)
    wb = pattern.width_bound

    def core(x):
        if x == 0.0:
            return 0.0
        if x > 0:
            w = _invert_increasing(pattern.xi, x, wb)
            return -pattern.rho(w)
        w = _invert_increasing(pattern.rho, -x, wb)
        return pattern.xi(w)

    return ReciprocatingCurve(pattern.a_minus, pattern.a_plus, core,
                              "from_pattern")


def asymmetry_pattern_of(curve: ReciprocatingCurve, *,
                         consistency_tol: float = 1e-9,
                         probes: int = 25) -> AsymmetryPattern:
    """Recover the sum-profile ``a(w)`` of a valid curve.

    Inverts ``w(x) = x - r(x)`` on the positive branch by bisection and
    reads off ``a = x + r(x)``.  The negative branch must induce the
    same profile; both are probed and a disagreement beyond
    ``consistency_tol`` (relative) raises
    :class:`~twopoint.errors.NotValidCurve`.
    """

    def a_from_pos(w):
        x = _invert_increasing(lambda t: t - curve(t), w,
                               curve.a_plus if curve.a_plus != INF else INF)
        # at the root r = x - w, so the sum follows from x alone; this
        # avoids re-evaluating the curve where it is steep
        return 2.0 * x - w

    def a_from_neg(w):
        y = _invert_increasing(lambda t: curve(-t) + t, w,
                               -curve.a_minus if curve.a_minus != NEG_INF else INF)
        return w - 2.0 * y

    wb = curve.a_plus - curve.a_minus
    if wb == INF:
        ws = [2.0 ** j for j in range(-8, 9)]
    else:
        ws = list(np.linspace(0.0, wb, probes + 2)[1:-1])
    for w in ws:
        left = a_from_pos(w)
        right = a_from_neg(w)
        if abs(left - right) > consistency_tol * (1.0 + abs(left) + w):
            raise NotValidCurve(
                f"positive and negative branches disagree at width {w!r}: "
                f"{left!r} vs {right!r}")
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


def _probe_grid(curve: ReciprocatingCurve, grid_size: int) -> np.ndarray:
    half = max(grid_size // 2, 8)
    lo, hi = curve.a_minus, curve.a_plus
    if hi == INF:
        pos = np.geomspace(1e-3, 64.0, half)
    else:
        pos = np.linspace(0.0, hi, half + 2)[1:-1]
    if lo == NEG_INF:
        neg = -np.geomspace(1e-3, 64.0, half)
    else:
        neg = np.linspace(lo, 0.0, half + 2)[1:-1]
    return np.concatenate([np.sort(neg), [0.0], pos])


def validate_curve(curve: ReciprocatingCurve, grid_size: int = 200,
                   tol: float = 1e-9,
                   check_derivative: bool = True) -> CurveReport:
    """Probe ``r(0) = 0``, strict decrease, continuity, boundary
    constancy, and the involution on a grid; optionally also the slope
    ``-1`` at zero via Richardson-extrapolated central differences."""
    failures = []
    xs = _probe_grid(curve, grid_size)
    rs = np.array([curve(x) for x in xs])

    if abs(curve(0.0)) > tol:
        failures.append(f"r(0) = {curve(0.0)!r} is not 0")

    # double precision cannot separate values this close to a finite
    # endpoint, so ties and round trips are excused there
    near_end = np.zeros(len(xs), dtype=bool)
    for bound in (curve.a_minus, curve.a_plus):
        if math.isfinite(bound):
            near_end |= np.abs(rs - bound) <= 1e-7 * (1.0 + abs(bound))

    diffs = np.diff(rs)
    saturated = near_end[:-1] & near_end[1:]
    if not ((diffs < 0) | (saturated & (diffs <= 0))).all():
        failures.append("not strictly decreasing on the probe grid")

    # continuity: a candidate jump must shrink under refinement
    scale = 1.0 + float(np.abs(rs[np.isfinite(rs)]).max(initial=1.0))
    for x in xs[np.abs(xs) > 1e-9]:
        d = 1e-6 * (1.0 + abs(x))
        if x - d <= curve.a_minus or x + d >= curve.a_plus:
            continue
        j1 = abs(curve(x + d) - curve(x - d))
        if j1 > 1e-3 * scale:
            j2 = abs(curve(x + d / 64) - curve(x - d / 64))
            if j2 > 0.5 * j1:
                failures.append(f"jump of size {j1!r} near x = {x!r}")
                break

    inv_err = 0.0
    for x, r, skip in zip(xs, rs, near_end):
        if skip or not (curve.a_minus < r < curve.a_plus):
            continue
        back = curve(r)
        inv_err = max(inv_err, abs(back - x) / (1.0 + abs(x)))
    if inv_err > tol:
        failures.append(f"involution error {inv_err!r} exceeds {tol!r}")

    for bound, other in ((curve.a_plus, curve.a_minus),
                         (curve.a_minus, curve.a_plus)):
        if math.isfinite(bound):
            probe = bound * 1.5 if bound != 0 else 1.0
            if curve(probe) != other or curve(bound) != other:
                failures.append(f"not constant beyond endpoint {bound!r}")

    deriv = None
    if check_derivative:
        span = min(1.0, (curve.a_plus - curve.a_minus) / 8
                   if math.isfinite(curve.a_plus - curve.a_minus) else 1.0)
        h1, h2 = 1e-3 * span, 1e-4 * span
        d1 = (curve(h1) - curve(-h1)) / (2 * h1)
        d2 = (curve(h2) - curve(-h2)) / (2 * h2)
        deriv = d2 + (d2 - d1) * h2 * h2 / (h1 * h1 - h2 * h2)
        if abs(deriv - (-1.0)) > 1e-4:
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
                  y_minus: Callable[[float], float], m, *,
                  grid_size: int = 256, tol: float = 1e-9) -> XpmReport:
    """Decide whether ``(y_plus, y_minus)`` are the generalized inverses
    of some zero-mean measure with half mean ``m``, and rebuild it.

    The candidates are consulted on ``(0, m]`` only (their value at zero
    is 0 by convention) and must be sign-correct, monotone in the proper
    directions, left-continuous, finite on ``[0, m)``, and satisfy the
    mass inequality: the integral over ``(0, m)`` of
    ``1/y_plus - 1/y_minus`` may not exceed one.  Violations raise
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

    hs = np.linspace(0.0, m, grid_size + 1)[1:]
    vp = np.array([yp(h) for h in hs])
    vm = np.array([ym(h) for h in hs])

    if not (vp > 0).all():
        raise CharacterizationFailed("positive inverse must be strictly "
                                     "positive on (0, m]")
    if not (vm < 0).all():
        raise CharacterizationFailed("negative inverse must be strictly "
                                     "negative on (0, m]")
    slack = tol * (1.0 + np.abs(vp[np.isfinite(vp)]).max(initial=0.0))
    if not (np.diff(vp) >= -slack).all():
        raise CharacterizationFailed("positive inverse must be nondecreasing")
    slack_m = tol * (1.0 + np.abs(vm[np.isfinite(vm)]).max(initial=0.0))
    if not (np.diff(vm) <= slack_m).all():
        raise CharacterizationFailed("negative inverse must be nonincreasing")
    if not math.isfinite(vp[-2]) or not math.isfinite(vm[-2]):
        raise CharacterizationFailed("inverses must be finite below m")
    for f, v in ((yp, vp), (ym, vm)):
        for h, val in zip(hs[1:-1], v[1:-1]):
            if not math.isfinite(val):
                continue
            probe = f(h - 1e-7 * m)
            if abs(probe - val) > 1e-3 * (1.0 + abs(val)):
                refined = f(h - 1e-9 * m)
                if abs(refined - val) > 0.7 * abs(probe - val):
                    raise CharacterizationFailed(
                        f"left-continuity violated near level {h!r}")

    def density_sum(h):
        return 1.0 / yp(h) - 1.0 / ym(h)

    total, _err = integrate.quad(density_sum, 0.0, m, limit=200)
    if total > 1.0 + tol:
        raise CharacterizationFailed(
            f"mass integral {total!r} exceeds one; no probability measure "
            "has these inverses")
    p_pos, _ = integrate.quad(lambda h: 1.0 / yp(h), 0.0, m, limit=200)
    p_zero = max(0.0, 1.0 - total)

    def level_of_pos(x: float) -> float:
        # sup of levels with y_plus <= x (== inf of levels with y_plus > x)
        if yp(m) <= x:
            return m
        return _bisect(lambda h: yp(h) <= x, 0.0, m, 0.0, 100)[0]

    def level_of_neg(x: float) -> float:
        # G at x < 0: sup of levels with -y_minus <= -x
        if -ym(m) <= -x:
            return m
        return _bisect(lambda h: -ym(h) <= -x, 0.0, m, 0.0, 100)[0]

    def g_curve(x: float) -> float:
        if x == 0:
            return 0.0
        return level_of_pos(x) if x > 0 else level_of_neg(x)

    def cdf(x: float) -> float:
        x = float(x)
        if x >= 0:
            cut = level_of_pos(x)
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
    measure = ZeroMeanMeasure.analytic(g_curve, m, support, cdf=cdf)
    return XpmReport(True, measure, p_zero, cdf)


# --- serialization helpers ------------------------------------------------

_FAMILIES = ("power", "hyperbolic", "cubic_rate", "two_slope")


def family_from_spec(obj: dict) -> ReciprocatingCurve:
    """Build a family member from its JSON description, e.g.
    ``{"family": "power", "p": 2, "c": 1}``."""
    if not isinstance(obj, dict) or obj.get("family") not in _FAMILIES:
        raise InputError(f"curve spec must name a family in {_FAMILIES}")
    kind = obj["family"]
    if kind == "power":
        p = obj.get("p")
        if isinstance(p, str):
            if p not in ("inf", "-inf"):
                raise InputError(f"bad exponent {p!r}")
            p = INF if p == "inf" else NEG_INF
        return power_family(p, obj.get("c", 1))
    if kind == "hyperbolic":
        return hyperbolic_family(obj.get("alpha", 0), obj.get("c", 1))
    if kind == "cubic_rate":
        return cubic_rate_family(obj.get("alpha", 0), obj.get("c", 1))
    return two_slope_family(obj.get("kappa", 1))


def curve_table(curve: ReciprocatingCurve, xs: Sequence[float]):
    """Rows ``(x, r(x))`` for tabulation."""
    return [(float(x), curve(float(x))) for x in xs]
