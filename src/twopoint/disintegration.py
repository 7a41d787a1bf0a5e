"""Two-value zero-mean laws and the disintegration of a measure into them.

Any zero-mean law is a mixture of laws supported on two points ``{a, b}``
with ``a <= 0 <= b`` (the point mass at zero being the degenerate case
``a = b = 0``).  For a discrete measure the mixture is read exactly off
the level table of the paired inverses, where each level piece carries
the law on its two endpoints.  The same table drives exact
evaluation of mixture expectations by several distinct routes, tilted
(size-biased) companion laws, uniformity diagnostics, and a joint,
coordinate-wise disintegration identity.

The decomposition, as columns of weights and endpoints, and the ordered
pieces, as columns that name each piece's component, are built from the
columns of the level table once per measure, on first use, and kept
beside it without keeping it alive; every later route and moment reads
them.  A component's two-point law is made only when the components are
first iterated.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
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


def _component_law(a, b) -> TwoPointLaw:
    """The law of a component with endpoints ``a <= 0 <= b``: the point
    mass at zero when ``a = b = 0``, else :func:`_law`."""
    if a == b:
        return TwoPointLaw(a, a, a + 1, a)
    return _law(a, b)


class MixtureDecomposition:
    """Weighted components whose mixture reproduces the source measure.

    Iteration yields ``(w, TwoPointLaw)`` pairs.  The weights and the
    endpoints are also held as the columns ``w``, ``a`` and ``b``: float64
    in the canonical decomposition of a float measure, objects otherwise.
    The canonical decomposition makes its laws when first iterated.
    """

    __slots__ = ("w", "a", "b", "_components")

    def __init__(self, components):
        components = tuple(components)
        self.w, self.a, self.b = (
            np.array(column, dtype=object)
            for column in ([w for w, _ in components],
                           [law.a for _, law in components],
                           [law.b for _, law in components]))
        self._components = components

    @classmethod
    def _of_columns(cls, w, a, b) -> "MixtureDecomposition":
        dec = cls.__new__(cls)
        dec.w, dec.a, dec.b, dec._components = w, a, b, None
        return dec

    @property
    def components(self) -> tuple:
        """The ``(w, law)`` pairs, each ``w`` a Python number."""
        if self._components is None:
            self._components = tuple(zip(
                self.w.tolist(),
                map(_component_law, self.a.tolist(), self.b.tolist())))
        return self._components

    def _triples(self):
        """``(w, a, b)`` per component, as Python numbers."""
        return zip(self.w.tolist(), self.a.tolist(), self.b.tolist())

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.w)

    def __eq__(self, other):
        if not isinstance(other, MixtureDecomposition):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"MixtureDecomposition(components={self.components!r})"

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
        return {"components": [{"a": a, "b": b, "w": w}
                               for w, a, b in self._triples()]}


#: per discrete measure, its decomposition and its pieces, built on first
#: use; weak keys, so that an entry keeps no measure alive
_BUILT = weakref.WeakKeyDictionary()

#: the ordered level pieces of a discrete measure, in level order: per
#: piece the index of its component in the decomposition, its side (0 for
#: the piece of the component's ``a``, 1 for that of its ``b``) and its
#: weight
_Pieces = namedtuple("_Pieces", "comp side w")


def _build(measure: ZeroMeanMeasure) -> tuple:
    table = measure._level_columns  # NotDiscrete before any quadrature
    a, b, a_live, b_live = table.a, table.b, table.a_live, table.b_live
    # the table's endpoints are parsed already, with a < 0 < b
    w_a, w_b = table.dh / -a, table.dh / b
    p0 = measure.prob_zero
    if p0:  # the atom at zero is a row of its own, with one piece
        zero = measure._zero
        a, b, w_a, w_b = (np.concatenate(([first], column)) for first, column
                          in ((zero, a), (zero, b), (p0, w_a), (zero, w_b)))
        a_live, b_live = np.append(True, a_live), np.append(False, b_live)
    # a row's weight: its piece of a, then its piece of b
    row_w = np.where(a_live & b_live, w_a + w_b, np.where(a_live, w_a, w_b))
    # x_minus never rises and x_plus never falls with the level, so rows
    # with the same endpoints are neighbours: each run is one component
    a_new = a[1:] != a[:-1]
    new = np.append(True, a_new | (b[1:] != b[:-1]))
    start = np.flatnonzero(new)
    stop = np.append(start[1:], len(new))
    w = row_w[start]
    for k in np.flatnonzero(stop - start > 1).tolist():
        total = w[k]  # the later rows' pieces added one at a time
        for r in range(start[k] + 1, stop[k]):
            if a_live[r]:
                total = total + w_a[r]
            if b_live[r]:
                total = total + w_b[r]
        w[k] = total
    # sorted by endpoints, the runs of one x_minus come last run first,
    # each in level order
    order = np.argsort(-np.cumsum(np.append(0, a_new))[start], kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    row_comp = rank[np.cumsum(new) - 1]
    rows, side = np.nonzero(np.stack((a_live, b_live), axis=1))
    pieces = _Pieces(row_comp[rows], side,
                     np.stack((w_a, w_b), axis=1)[rows, side])
    return MixtureDecomposition._of_columns(
        w[order], a[start][order], b[start][order]), pieces


def _built(measure: ZeroMeanMeasure) -> tuple:
    """``(decomposition, pieces)`` of a discrete measure, built once.

    ``pieces`` is the :data:`_Pieces` of the rows of the level table, in
    level order, after the atom at zero as the row ``a = b = 0``.  A row
    has a piece on each side that still carries mass there: a piece of
    width ``dh`` holds the part ``dh / |x|`` of its atom ``x``, and pairs
    it with the component's other endpoint."""
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
    return _built(measure)[0]


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

    dec, pieces = _built(measure)
    expected = [law.expect(g) for _, law in dec]
    comp, side, seg = (column.tolist() for column in pieces)
    total = 0
    if mode == "u_integral":
        for k, w in zip(comp, seg):
            total = total + w * expected[k]
        return total
    a, b = dec.a.tolist(), dec.b.tolist()
    scale = [[_piece_scale(mode, x, r) for x, r in zip(xs, rs)]
             for xs, rs in ((a, b), (b, a))]
    for k, s, w in zip(comp, side, seg):
        total = total + w * scale[s][k] * expected[k]
    return total


def _piece_scale(mode: str, x, partner):
    """The factor by which ``mode`` reweights a piece at ``x`` paired with
    ``partner``: ``-x / partner``, or ``(1 - x / partner) / 2``, where
    ``x / partner`` reads as ``-1`` at the origin."""
    if mode == "ratio_weighted":
        return 1 if x == 0 else -x / partner
    ratio = Fraction(-1) if x == 0 else x / partner
    return (1 - ratio) / 2


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
    return _ratio_moment(law.a, law.b)


def _ratio_moment(a, b):
    """:func:`component_ratio_moment` of the law on ``a <= 0 <= b``."""
    if a == b:
        return -1
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
    terms = [w * _ratio_moment(a, b)
             for w, a, b in decompose(measure)._triples()]
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
