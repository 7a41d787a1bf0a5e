"""Two-value zero-mean laws and the disintegration of a measure into them.

Any zero-mean law is a mixture of laws supported on two points ``{a, b}``
with ``a <= 0 <= b`` (the point mass at zero being the degenerate case
``a = b = 0``).  For a discrete measure the mixture is read exactly off
the level table of the paired inverses, where each level piece carries
the law on its two endpoints.  The same table drives exact
evaluation of mixture expectations by several distinct routes, tilted
(size-biased) companion laws, uniformity diagnostics, and a joint,
coordinate-wise disintegration identity.

The ordered pieces, with one two-point law per row of the table, and the
decomposition are built once per measure, on first use, and kept beside
it without keeping it alive; every later route and moment reads them.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InputError, NotDiscrete, SameSign
from .measure import (ZeroMeanMeasure, _choice, _draw_count, _query_number,
                      _ranks, _shown)

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
    "component_ratio_moment",
    "TiltedAtoms",
    "tilt",
    "UniformityReport",
    "uniformity_check",
    "joint_disintegrate",
]


@dataclass(frozen=True, slots=True)
class TwoPointLaw:
    """Zero-mean law on two points ``a <= 0 <= b``.

    ``p_a = b / (b - a)`` and ``p_b = -a / (b - a)``; when ``a`` or ``b`` is 0
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
    def is_degenerate(self) -> bool:
        return self.b == self.a


def two_point(a, b) -> TwoPointLaw:
    """The unique zero-mean law on ``{a, b}``.

    Endpoints may be given in either order but must straddle zero;
    if either endpoint is zero the degenerate point mass at zero results.
    """
    a = _query_number(a)
    b = _query_number(b)
    if a > b:
        a, b = b, a
    if a > 0 or b < 0:
        raise SameSign(f"endpoints {_shown(a)}, {_shown(b)} lie on the same "
                       "side of zero")
    if a == 0 or b == 0:
        exact = isinstance(a, Fraction) and isinstance(b, Fraction)
        zero = Fraction(0) if exact else 0.0
        one = Fraction(1) if exact else 1.0
        return TwoPointLaw(zero, zero, one, zero)
    return _law(a, b)


def _law(a, b) -> TwoPointLaw:
    """:func:`two_point` on parsed endpoints ``a < 0 < b``."""
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


#: per discrete measure, its rows and its decomposition, built on first
#: use; weak keys, so that an entry keeps no measure alive
_BUILT = weakref.WeakKeyDictionary()


def _build(measure: ZeroMeanMeasure) -> tuple:
    table = measure._level_table()  # NotDiscrete before any quadrature
    p0 = measure.prob_zero
    zero = measure._zero
    point_mass = TwoPointLaw(zero, zero, measure._one, zero)
    rows = [(zero, 0, point_mass, p0, None)] if p0 else []
    # the table's endpoints are parsed already, with a < 0 < b
    rows += [(a, b, _law(a, b), dh / -a if a_live else None,
              dh / b if b_live else None)
             for dh, _, a, b, a_live, b_live in zip(*table)]
    # x_minus never rises and x_plus never falls with the level, so rows
    # with the same endpoints are neighbours, and sorted by endpoints the
    # runs of one x_minus come last run first, each in level order
    merged = []  # [-run of x_minus, weight, law, x_minus, x_plus]
    for a, b, law, w_a, w_b in rows:
        if not (merged and merged[-1][3] == a and merged[-1][4] == b):
            run = merged[-1][0] - (merged[-1][3] != a) if merged else 0
            merged.append([run, 0, law, a, b])
        for w in (w_a, w_b):
            if w is not None:
                merged[-1][1] += w
    merged.sort(key=itemgetter(0))
    return tuple(rows), MixtureDecomposition(
        tuple((w, law) for _, w, law, _, _ in merged))


def _built(measure: ZeroMeanMeasure) -> tuple:
    """``(rows, decomposition)`` of a discrete measure, built once.

    ``rows`` holds ``(a, b, law, w_a, w_b)`` for the atom at zero
    (``a = b = 0``) and for every row of the level table, in level order,
    with ``law = two_point(a, b)``.  The row's ordered pieces are
    ``(a, b, w_a)`` and ``(b, a, w_b)``, each only while its side still
    carries mass there (its weight is None otherwise): a piece of width
    ``dh`` holds the part ``dh / |x|`` of the atom ``x``."""
    got = _BUILT.get(measure)
    if got is None:
        got = _BUILT[measure] = _build(measure)
    return got


def decompose(measure: ZeroMeanMeasure) -> MixtureDecomposition:
    """Exact two-point mixture of a discrete measure.

    Every level piece contributes the weights it takes from its two
    endpoints, and pieces sharing the same unordered endpoint pair are
    merged; the atom at zero is the degenerate component.  Components are
    returned sorted by endpoints.  Built once per measure: a second call
    returns the same object.
    """
    return _built(measure)[1]


# --- sampling of (x, partner) pairs ---------------------------------------

def sample_pairs(measure: ZeroMeanMeasure, n: int, rng):
    """Vectorized draws of ``(X, r(X, U), U)``; returns three arrays.

    On a discrete measure each draw's level ``g_tilde(X, U)`` is looked
    up in the level table, as :meth:`~ZeroMeanMeasure.reciprocate` does
    one at a time, except that a level past the opposite side's total
    keeps that side's last atom.
    """
    if measure.backend != "discrete":
        raise NotDiscrete("sample_pairs requires a discrete measure")
    idx = measure.sample_indices(n, rng)
    us = rng.random(len(idx))
    lv = measure._float_levels
    # rounding may push a level past the top piece, never past another one
    row = np.minimum(_ranks(lv.hi, lv.base[idx] + lv.jump[idx] * us, "left"),
                     len(lv.hi) - 1)
    xs = lv.locs[idx]
    rs = np.where(xs > 0, lv.a[row], lv.b[row])
    rs[xs == 0] = 0.0
    return xs, rs, us


# --- mixture expectations -------------------------------------------------

MIXTURE_MODES = ("direct", "u_integral", "h_integral", "ratio_weighted",
                 "half_sum")


def mixture_expect(measure: ZeroMeanMeasure, g: Callable, mode: str = "direct"):
    """``E g(X)`` computed along one of five equivalent routes.

    ``direct``
        plain sum over the atoms.
    ``u_integral``
        through the ordered level pieces behind :func:`decompose`.
    ``h_integral``
        through the level representation: the integral over ``h`` in
        ``(0, m)`` of ``E g(X_h) / E max(X_h, 0)``, which for the law on
        ``x_minus(h) < 0 < x_plus(h)`` is
        ``g(x_plus) / x_plus - g(x_minus) / x_minus``, plus the mass at
        zero.
    ``ratio_weighted``
        ordered pieces reweighted by ``-x / r`` (with ``0 / r`` read
        as ``-1`` at the origin).
    ``half_sum``
        ordered pieces reweighted by ``(1 - x / r) / 2``.

    All five agree exactly on exact discrete measures.  On an analytic
    measure every mode is the ``h_integral`` quadrature, with the mass at
    zero its :attr:`~ZeroMeanMeasure.prob_zero`.
    """
    if mode not in MIXTURE_MODES:
        raise InputError(f"unknown mode {mode!r}; pick one of {MIXTURE_MODES}")
    if measure.backend != "discrete" or mode == "h_integral":
        p0 = measure.prob_zero
        body = measure.level_integral(lambda a, b: g(b) / b - g(a) / a)
        return p0 * g(0) + body if p0 else body

    if mode == "direct":
        return sum(p * g(l) for l, p in measure.atoms)

    total = 0
    for a, b, law, w_a, w_b in _built(measure)[0]:
        expected = law.expect(g)
        for x, partner, seg in ((a, b, w_a), (b, a, w_b)):
            if seg is None:
                continue
            if mode == "u_integral":
                term = seg * expected
            elif mode == "ratio_weighted":
                term = seg * (1 if x == 0 else -x / partner) * expected
            else:  # half_sum
                ratio = Fraction(-1) if x == 0 else x / partner
                term = seg * ((1 - ratio) / 2) * expected
            total = total + term
    return total


def side_masses_from_levels(measure: ZeroMeanMeasure):
    """``(P(X > 0), P(X < 0))`` recovered from the level representation:
    the integrals over ``(0, m)`` of ``1 / x_plus`` and ``-1 / x_minus``.
    Exact for discrete measures, quadrature otherwise."""
    return (measure.level_integral(lambda a, b: 1 / b),
            measure.level_integral(lambda a, b: -1 / a))


# --- ratio moments --------------------------------------------------------

@dataclass(frozen=True)
class RatioMoments:
    """First moments of the two partner ratios.

    ``ex_over_r`` is ``E X / r(X, U)`` (identically ``-1``);
    ``er_over_x`` is ``E r(X, U) / X``, which is ``-1`` precisely for
    symmetric measures and strictly below ``-1`` otherwise.  Ratios at
    the origin are read as ``-1``.
    """

    ex_over_r: object
    er_over_x: object


def component_ratio_moment(law: TwoPointLaw):
    """``E R / X`` for one two-point law: ``-1 + (a + b)^2 / (a b)``,
    factored as ``-1 + ((a + b) / a) ((a + b) / b)`` where a float ``a b``
    leaves the normal range or ``(a + b)^2`` overflows."""
    if law.is_degenerate:
        return -1
    a, b = law.a, law.b
    prod = a * b
    if (not isinstance(prod, float)
            or sys.float_info.min <= abs(prod) <= sys.float_info.max):
        try:
            return -1 + (a + b) ** 2 / prod
        except OverflowError:  # a float (a + b)^2 past the float range
            pass
    return -1 + ((a + b) / a) * ((a + b) / b)


def _balanced_sum(terms: list):
    """Sum of ``terms`` added in pairs, then pairs of pairs, and so on.

    Exact sums of rationals keep every partial sum's denominator near
    those of its own terms this way; added left to right the running
    denominator grows with every term."""
    while len(terms) > 1:
        pairs = [x + y for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0] if terms else 0


def ratio_moments(measure: ZeroMeanMeasure) -> RatioMoments:
    """Partner-ratio moments of a discrete measure, exact through
    :func:`decompose`."""
    terms = [w * component_ratio_moment(law) for w, law in decompose(measure)]
    return RatioMoments(-1, _balanced_sum(terms) if measure.is_exact
                        else sum(terms))


# --- tilted laws ----------------------------------------------------------

@dataclass(frozen=True)
class TiltedAtoms:
    """A size-biased companion law on the atoms of a discrete measure."""

    locations: tuple
    probs: tuple

    def sample_indices(self, n: int, rng) -> np.ndarray:
        """Indices into :attr:`locations` for ``n`` i.i.d. draws, as
        ``rng.choice`` would draw them from the float probabilities."""
        return _choice(np.array(self.probs, dtype=float), n, rng)


TILT_KINDS = ("Y", "Y_plus", "Y_minus")


def tilt(measure: ZeroMeanMeasure, which: str = "Y") -> TiltedAtoms:
    """Reweight atoms by ``|x| / (2 m)`` (``Y``), by ``x / m`` on the
    positive side (``Y_plus``), or by ``-x / m`` on the negative side
    (``Y_minus``); weights are normalized to sum to one exactly."""
    if which not in TILT_KINDS:
        raise InputError(f"unknown tilt {which!r}; pick one of {TILT_KINDS}")
    measure._require_discrete("tilt")
    keep = {"Y": lambda l: l != 0, "Y_plus": lambda l: l > 0,
            "Y_minus": lambda l: l < 0}[which]
    # the jumps |x| p of G, ints over D on an exact measure, in atom order
    pairs = [(l, jump) for l, (_, jump) in measure._steps.items() if keep(l)]
    total = sum(jump for _, jump in pairs)
    return TiltedAtoms(tuple(l for l, _ in pairs),
                       tuple(measure._frac(jump, total) for _, jump in pairs))


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
                     n: int = 100_000, *, rng) -> UniformityReport:
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
    n = _draw_count(n, least=1)
    us = rng.random(n)
    lv = measure._float_levels
    if which == "G_tilde_Y":
        idx = tilt(measure, "Y").sample_indices(n, rng)
        if measure.prob_zero:
            # the tilt leaves out the atom at zero, next after the negatives
            idx += idx >= len(measure._neg_locs)
        vals = (lv.base[idx] + lv.jump[idx] * us) / float(measure.m)
    else:
        idx = measure.sample_indices(n, rng)
        vals = lv.below[idx] + lv.mass[idx] * us
    vals = np.sort(vals)
    grid = np.arange(1, n + 1) / n
    stat = float(np.maximum(grid - vals, vals - (grid - 1.0 / n)).max())
    return UniformityReport(which, n, stat, KS_COEFF_99 / math.sqrt(n))


# --- joint disintegration -------------------------------------------------

def joint_disintegrate(measures: Sequence[ZeroMeanMeasure], g: Callable,
                       n: int, rng):
    """Monte Carlo check of the coordinate-wise disintegration identity
    for discrete coordinate measures.

    Draws ``n`` rows of ``(X_j, R_j)`` per coordinate directly (``lhs``)
    and, independently, re-draws each coordinate from the two-point law
    of its sampled pair (``rhs``); ``g`` receives ``2 len(measures)``
    vector arguments ``x_1, r_1, x_2, r_2, ...`` and both sides estimate
    ``E g``.  Returns ``(lhs, rhs)``.
    """
    if not measures:
        raise InputError("need at least one coordinate measure")
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
        take_hi = rng.random(len(xs2)) < p_hi
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
