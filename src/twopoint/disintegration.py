"""Two-value zero-mean laws and the disintegration of a measure into them.

Any zero-mean law is a mixture of laws supported on two points ``{a, b}``
with ``a <= 0 <= b`` (the point mass at zero being the degenerate case
``a = b = 0``).  For a discrete measure the mixture is read exactly off
the level table of the paired inverses, where each level piece carries
the law on its two endpoints.  The same table drives exact
evaluation of mixture expectations by several distinct routes, tilted
(size-biased) companion laws, uniformity diagnostics, and a joint,
coordinate-wise disintegration identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .errors import (
    DimensionMismatch,
    InfiniteEndpoint,
    InputError,
    NotDiscrete,
    SameSign,
    Unbounded,
)
from .measure import (INF, NEG_INF, ZeroMeanMeasure, _approx, _as_number,
                      _query_number, _shown)

__all__ = [
    "TwoPointLaw",
    "two_point",
    "MixtureDecomposition",
    "decompose",
    "sample_pairs",
    "mixture_expect",
    "MIXTURE_MODES",
    "side_masses_from_levels",
    "RatioMoments",
    "ratio_moments",
    "TiltedAtoms",
    "tilt",
    "UniformityReport",
    "uniformity_check",
    "joint_disintegrate",
]


@dataclass(frozen=True)
class TwoPointLaw:
    """Zero-mean law on two points ``a <= 0 <= b``.

    ``p_a = b / (b - a)`` and ``p_b = -a / (b - a)``; when ``a b = 0``
    the law collapses to the point mass at zero.
    """

    a: object
    b: object
    p_a: object
    p_b: object

    def expect(self, g: Callable) -> object:
        """``E g(X)`` under the law (exact for exact endpoints)."""
        if self.p_b == 0:
            return self.p_a * g(self.a)
        return self.p_a * g(self.a) + self.p_b * g(self.b)

    @property
    def mean_positive_part(self):
        """``E max(X, 0) = -a b / (b - a)`` (zero for the degenerate law)."""
        return self.b * self.p_b

    @property
    def width(self):
        return self.b - self.a

    @property
    def is_degenerate(self) -> bool:
        return self.b == self.a

    def sample(self, n: int, rng) -> np.ndarray:
        take_b = rng.random(int(n)) < float(self.p_b)
        return np.where(take_b, float(self.b), float(self.a))


def two_point(a, b) -> TwoPointLaw:
    """The unique zero-mean law on ``{a, b}``.

    Endpoints may be given in either order but must straddle zero;
    if either endpoint is zero the degenerate point mass at zero results.
    """
    a = _query_number(a)
    b = _query_number(b)
    if a > b:
        a, b = b, a
    if a * b > 0:
        raise SameSign(f"endpoints {_shown(a)}, {_shown(b)} lie on the same "
                       "side of zero")
    exact = isinstance(a, Fraction) and isinstance(b, Fraction)
    if a * b == 0:
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        return TwoPointLaw(zero, zero, one, zero)
    span = b - a
    return TwoPointLaw(a, b, b / span, -a / span)


@dataclass(frozen=True)
class MixtureDecomposition:
    """Weighted components whose mixture reproduces the source measure."""

    components: tuple

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def expect(self, g: Callable):
        return sum(w * law.expect(g) for w, law in self.components)

    def reassembled_atoms(self) -> dict:
        """Atom map implied by the mixture; equals the source atoms."""
        out: dict = {}
        for w, law in self.components:
            if law.is_degenerate:
                out[law.a] = out.get(law.a, 0) + w
            else:
                out[law.a] = out.get(law.a, 0) + w * law.p_a
                out[law.b] = out.get(law.b, 0) + w * law.p_b
        return out

    def to_jsonable(self) -> dict:
        return {"components": [{"a": law.a, "b": law.b, "w": w}
                               for w, law in self.components]}

    @classmethod
    def from_jsonable(cls, obj) -> "MixtureDecomposition":
        if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
            raise InputError("decomposition object must carry a "
                             "'components' list")
        comps = []
        for entry in obj["components"]:
            w = _as_number(entry["w"])
            if w <= 0:
                raise InputError("component weight must be positive: "
                                 f"{_shown(entry)}")
            comps.append((w, two_point(entry["a"], entry["b"])))
        total = sum(w for w, _ in comps)
        if abs(total - 1) > 1e-9:
            raise InputError(f"component weights sum to {_approx(total)}")
        return cls(tuple(comps))


def _ordered_pieces(measure: ZeroMeanMeasure):
    """``(x, partner, weight)`` for the atom at zero and for every level
    piece and side that still carries mass there: a piece of width ``dh``
    holds the part ``dh / |x|`` of the atom ``x``."""
    if measure.prob_zero:
        yield measure._zero, 0, measure.prob_zero
    for lo, hi, a, b, a_live, b_live in zip(*measure._level_table()):
        if a_live:
            yield a, b, (hi - lo) / -a
        if b_live:
            yield b, a, (hi - lo) / b


def decompose(measure: ZeroMeanMeasure) -> MixtureDecomposition:
    """Exact two-point mixture of a discrete measure.

    Every level piece contributes the weights it takes from its two
    endpoints, and pieces sharing the same unordered endpoint pair are
    merged; the atom at zero is the degenerate component.  Components are
    returned sorted by endpoints.
    """
    if measure.backend != "discrete":
        raise NotDiscrete("decompose requires a discrete measure")
    weights: dict = {}
    for x, partner, w in _ordered_pieces(measure):
        if partner == INF or partner == NEG_INF:
            raise InfiniteEndpoint(
                f"atom {_shown(x)} pairs with an infinite partner; the "
                "measure has no atoms on the other side")
        key = (x, partner) if x <= partner else (partner, x)
        weights[key] = weights.get(key, 0) + w
    comps = tuple((weights[key], two_point(*key)) for key in sorted(weights))
    return MixtureDecomposition(comps)


# --- sampling of (x, partner) pairs ---------------------------------------

def sample_pairs(measure: ZeroMeanMeasure, n: int, rng):
    """Vectorized draws of ``(X, r(X, U), U)``; returns three arrays.

    On a discrete measure each draw's level ``g_tilde(X, U)`` is looked
    up in the level table, as :meth:`~ZeroMeanMeasure.reciprocate` does
    one at a time, except that a level past the opposite side's total
    keeps that side's last atom.
    """
    if measure.backend != "discrete":
        xs = measure.sample(n, rng)
        us = rng.random(int(n))
        rs = np.array([float(measure.reciprocate(x, u))
                       for x, u in zip(xs, us)])
        return xs, rs, us
    idx = measure.sample_indices(n, rng)
    us = rng.random(int(n))
    locs, _ = measure._float_tables()
    table = measure._level_table()
    base = np.array(measure._atom_bases(), dtype=float)
    jump = np.array([abs(l) * p for l, p in measure.atoms], dtype=float)
    # rounding may push a level past the top piece, never past another one
    row = np.minimum(np.searchsorted(np.array(table.hi, dtype=float),
                                     base[idx] + jump[idx] * us),
                     len(table.hi) - 1)
    xs = locs[idx]
    rs = np.where(xs > 0, np.array(table.a, dtype=float)[row],
                  np.array(table.b, dtype=float)[row])
    rs[xs == 0] = 0.0
    return xs, rs, us


# --- mixture expectations -------------------------------------------------

MIXTURE_MODES = ("direct", "u_integral", "h_integral", "ratio_weighted",
                 "half_sum")


def _level_laws(measure: ZeroMeanMeasure):
    """Pieces ``(length, TwoPointLaw)`` of ``h`` on ``(0, m]`` where both
    sides carry mass: the level table below the smaller one-sided total."""
    return [(hi - lo, two_point(a, b))
            for lo, hi, a, b, a_live, b_live in zip(*measure._level_table())
            if a_live and b_live]


def mixture_expect(measure: ZeroMeanMeasure, g: Callable, mode: str = "direct"):
    """``E g(X)`` computed along one of five equivalent routes.

    ``direct``
        plain sum (discrete) or change-of-variable quadrature (analytic).
    ``u_integral``
        through the ordered level pieces behind :func:`decompose`.
    ``h_integral``
        through the level representation: the average of
        ``E g(X_h) / E max(X_h, 0)`` over ``h`` uniform on ``(0, m)``,
        plus the mass at zero.
    ``ratio_weighted``
        ordered pieces reweighted by ``-x / r`` (with ``0 / r`` read
        as ``-1`` at the origin).
    ``half_sum``
        ordered pieces reweighted by ``(1 - x / r) / 2``.

    All five agree exactly on exact discrete measures; on analytic
    measures they share one quadrature representation.
    """
    if mode not in MIXTURE_MODES:
        raise InputError(f"unknown mode {mode!r}; pick one of {MIXTURE_MODES}")
    if measure.backend != "discrete":
        return _mixture_expect_analytic(measure, g)

    if mode == "direct":
        return sum(p * g(l) for l, p in measure.atoms)

    if mode == "h_integral":
        total = measure.prob_zero * g(0) if measure.prob_zero else 0
        for length, law in _level_laws(measure):
            total = total + length * law.expect(g) / law.mean_positive_part
        return total

    total = 0
    for x, partner, seg in _ordered_pieces(measure):
        law = two_point(x, partner)
        if mode == "u_integral":
            factor = 1
        elif mode == "ratio_weighted":
            factor = 1 if x == 0 else -x / partner
        else:  # half_sum
            ratio = Fraction(-1) if x == 0 else x / partner
            factor = (1 - ratio) / 2
        total = total + seg * factor * law.expect(g)
    return total


def _mixture_expect_analytic(measure: ZeroMeanMeasure, g: Callable) -> float:
    m = float(measure.m)

    def integrand(h):
        xp = float(measure.x_plus(h))
        xm = float(measure.x_minus(h))
        val = g(xp) / xp - g(xm) / xm
        if not math.isfinite(val):
            raise Unbounded(f"integrand not finite at level {h!r}")
        return val

    body, _err = integrate.quad(integrand, 0.0, m, limit=200)
    p_pos, p_neg = side_masses_from_levels(measure)
    p0 = max(0.0, 1.0 - p_pos - p_neg)
    return body + p0 * g(0)


def side_masses_from_levels(measure: ZeroMeanMeasure):
    """``(P(X > 0), P(X < 0))`` recovered from the level representation:
    the integrals over ``(0, m)`` of ``1 / x_plus`` and ``-1 / x_minus``.
    Exact for discrete measures, quadrature otherwise."""
    if measure.backend == "discrete":
        p_pos = 0
        p_neg = 0
        for length, law in _level_laws(measure):
            p_pos = p_pos + length / law.b
            p_neg = p_neg + length / (-law.a)
        return p_pos, p_neg
    m = float(measure.m)
    p_pos, _ = integrate.quad(lambda h: 1.0 / float(measure.x_plus(h)),
                              0.0, m, limit=200)
    p_neg, _ = integrate.quad(lambda h: -1.0 / float(measure.x_minus(h)),
                              0.0, m, limit=200)
    return p_pos, p_neg


# --- ratio moments --------------------------------------------------------

@dataclass(frozen=True)
class RatioMoments:
    """First moments of the two partner ratios.

    ``ex_over_r`` is ``E X / r(X, U)`` (identically ``-1``);
    ``er_over_x`` is ``E r(X, U) / X``, which is ``-1`` precisely for
    symmetric measures and strictly below ``-1`` otherwise.  Ratios at
    the origin are read as ``-1``.  ``components`` lists
    ``(a, b, weight, er_over_x)`` per mixture component.
    """

    ex_over_r: object
    er_over_x: object
    components: tuple


def component_ratio_moment(law: TwoPointLaw):
    """``E R / X`` for one two-point law: ``-1 + (a + b)^2 / (a b)``."""
    if law.is_degenerate:
        return -1
    return -1 + (law.a + law.b) ** 2 / (law.a * law.b)


def ratio_moments(measure: ZeroMeanMeasure, n: int = 100_000,
                  rng=None) -> RatioMoments:
    """Partner-ratio moments; exact through :func:`decompose` for
    discrete measures, Monte Carlo (``n`` draws) otherwise."""
    if measure.backend == "discrete":
        comps = []
        er = 0
        for w, law in decompose(measure):
            c = component_ratio_moment(law)
            er = er + w * c
            comps.append((law.a, law.b, w, c))
        return RatioMoments(-1, er, tuple(comps))
    if rng is None:
        raise InputError("Monte Carlo ratio moments need an rng")
    xs, rs, _us = sample_pairs(measure, n, rng)
    with np.errstate(divide="ignore", invalid="ignore"):
        xr = np.where(xs == 0, -1.0, xs / rs)
        rx = np.where(xs == 0, -1.0, rs / xs)
    return RatioMoments(float(xr.mean()), float(rx.mean()), ())


# --- tilted laws ----------------------------------------------------------

@dataclass(frozen=True)
class TiltedAtoms:
    """A size-biased companion law on the atoms of a discrete measure."""

    locations: tuple
    probs: tuple

    def expect(self, g: Callable):
        return sum(p * g(l) for l, p in zip(self.locations, self.probs))

    def sample_indices(self, n: int, rng) -> np.ndarray:
        probs = np.array([float(p) for p in self.probs])
        return rng.choice(len(probs), size=int(n), p=probs / probs.sum())

    def sample(self, n: int, rng) -> np.ndarray:
        locs = np.array([float(l) for l in self.locations])
        return locs[self.sample_indices(n, rng)]


TILT_KINDS = ("Y", "Y_plus", "Y_minus")


def tilt(measure: ZeroMeanMeasure, which: str = "Y") -> TiltedAtoms:
    """Reweight atoms by ``|x| / (2 m)`` (``Y``), by ``x / m`` on the
    positive side (``Y_plus``), or by ``-x / m`` on the negative side
    (``Y_minus``); weights are normalized to sum to one exactly."""
    if which not in TILT_KINDS:
        raise InputError(f"unknown tilt {which!r}; pick one of {TILT_KINDS}")
    if measure.backend != "discrete":
        raise NotDiscrete("tilt requires a discrete measure")
    if which == "Y":
        pairs = [(l, abs(l) * p) for l, p in measure.atoms if l != 0]
    elif which == "Y_plus":
        pairs = [(l, l * p) for l, p in measure.atoms if l > 0]
    else:
        pairs = [(l, -l * p) for l, p in measure.atoms if l < 0]
    total = sum(w for _, w in pairs)
    return TiltedAtoms(tuple(l for l, _ in pairs),
                       tuple(w / total for _, w in pairs))


# --- uniformity diagnostics ----------------------------------------------

@dataclass(frozen=True)
class UniformityReport:
    which: str
    n: int
    statistic: float
    critical: float

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical


UNIFORMITY_KINDS = ("G_tilde_Y", "F_tilde_X")

#: asymptotic Kolmogorov critical coefficient at the 1% level
KS_COEFF_99 = math.sqrt(0.5 * math.log(2.0 / 0.01))


def uniformity_check(measure: ZeroMeanMeasure, which: str = "G_tilde_Y",
                     n: int = 100_000, rng=None) -> UniformityReport:
    """Kolmogorov distance to the uniform law for one of the two pivotal
    transforms:

    ``G_tilde_Y``: ``g_tilde(Y, U) / m`` with ``Y`` drawn from the
    absolute-value tilt, which is uniform on ``[0, 1]``.
    ``F_tilde_X``: the randomized distribution transform of ``X`` itself.

    Passes when the statistic is below the asymptotic 99% critical value
    ``~1.628 / sqrt(n)``.
    """
    if which not in UNIFORMITY_KINDS:
        raise InputError(f"unknown check {which!r}; "
                         f"pick one of {UNIFORMITY_KINDS}")
    if measure.backend != "discrete":
        raise NotDiscrete("uniformity_check requires a discrete measure")
    if rng is None:
        raise InputError("uniformity_check needs an rng")
    n = int(n)
    us = rng.random(n)
    if which == "G_tilde_Y":
        tl = tilt(measure, "Y")
        idx = tl.sample_indices(n, rng)
        base = np.array([float(measure.g_tilde(l, 0)) for l in tl.locations])
        slope = np.array([float(abs(l) * measure.mass_at(l))
                          for l in tl.locations])
        vals = (base[idx] + slope[idx] * us) / float(measure.m)
    else:
        idx = measure.sample_indices(n, rng)
        base = np.array([float(measure.cdf_left(l))
                         for l, _ in measure.atoms])
        slope = np.array([float(p) for _, p in measure.atoms])
        vals = base[idx] + slope[idx] * us
    vals = np.sort(vals)
    grid = np.arange(1, n + 1) / n
    stat = float(np.maximum(grid - vals, vals - (grid - 1.0 / n)).max())
    return UniformityReport(which, n, stat, KS_COEFF_99 / math.sqrt(n))


# --- joint disintegration -------------------------------------------------

def joint_disintegrate(measures: Sequence[ZeroMeanMeasure], g: Callable,
                       n: int = 100_000, rng=None):
    """Monte Carlo check of the coordinate-wise disintegration identity.

    Draws ``n`` rows of ``(X_j, R_j)`` per coordinate directly (``lhs``)
    and, independently, re-draws each coordinate from the two-point law
    of its sampled pair (``rhs``); ``g`` receives ``2 len(measures)``
    vector arguments ``x_1, r_1, x_2, r_2, ...`` and both sides estimate
    ``E g``.  Returns ``(lhs, rhs)``.
    """
    if not measures:
        raise InputError("need at least one coordinate measure")
    if rng is None:
        raise InputError("joint_disintegrate needs an rng")
    n = int(n)
    lhs_cols = []
    rhs_cols = []
    for mu in measures:
        xs, rs, _ = sample_pairs(mu, n, rng)
        lhs_cols.extend([xs, rs])
        xs2, rs2, _ = sample_pairs(mu, n, rng)
        lo = np.minimum(xs2, rs2)
        hi = np.maximum(xs2, rs2)
        span = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            p_hi = np.where(span > 0, -lo / np.where(span > 0, span, 1.0), 0.0)
        take_hi = rng.random(n) < p_hi
        x_new = np.where(take_hi, hi, lo)
        r_new = np.where(take_hi, lo, hi)
        rhs_cols.extend([x_new, r_new])
    try:
        lhs = float(np.mean(g(*lhs_cols)))
        rhs = float(np.mean(g(*rhs_cols)))
    except TypeError as exc:
        raise DimensionMismatch(
            f"g must accept {2 * len(measures)} vector arguments") from exc
    return lhs, rhs
