"""Zero-mean measures and their reciprocating machinery.

A zero-mean probability measure ``mu`` on the real line is represented
here together with the objects the rest of the package is built on:

* the cumulative curve ``G`` obtained by integrating ``z`` over ``(0, x]``
  on the positive side and ``-z`` over ``[x, 0)`` on the negative side
  (so ``G(0) = 0``, ``G`` is nondecreasing away from zero on either side,
  and both tails converge to the half absolute mean ``m = E|X| / 2``),
* its generalized inverses ``x_plus`` and ``x_minus``,
* the randomized curve ``g_tilde(x, u)`` that splits the jump of ``G`` at
  an atom with an auxiliary uniform variable ``u``,
* the reciprocating map ``reciprocate(x, u)`` sending a point to its
  partner of the opposite sign, and the same-side map ``regularize``.

Two backends are provided.  The *discrete* backend stores atoms
explicitly and keeps every derived quantity as an exact
:class:`fractions.Fraction` whenever all inputs are ints, Fractions, or
numeric strings; float inputs stay floats (no pretending a binary float
is the decimal it prints as).  Samples are converted to a discrete
measure with equal weights and merged ties.  The *analytic* backend
wraps a continuous cumulative curve supplied as a callable, with
inverses computed by bisection.

Conventions relied on by the other modules:

* ``inf`` of an empty set is ``+inf`` and ``sup`` of an empty set is
  ``-inf``, so ``x_plus(h) = inf`` and ``x_minus(h) = -inf`` once ``h``
  exceeds the relevant one-sided total,
* ``reciprocate(0, u) = 0`` for every ``u``,
* ``u`` partitions of an atom are half-open on the left: statements
  about ``r(x, u)`` hold for ``u`` in ``(0, 1]``, which is almost surely
  enough.
"""

from __future__ import annotations

import math
import reprlib
from bisect import bisect_left, bisect_right
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import (
    BadMass,
    ConstantSample,
    DegenerateAtZero,
    EmptySample,
    InputError,
    NegativeH,
    NonZeroMean,
    NotDiscrete,
)

__all__ = ["ZeroMeanMeasure", "INF", "NEG_INF"]

INF = float("inf")
NEG_INF = float("-inf")

#: masses must sum to one within this absolute tolerance
MASS_SUM_TOL = 1e-12

#: relative factor applied to E|X| for the default mean-zero tolerance
MEAN_TOL_FACTOR = 1e-9


class _Brief(reprlib.Repr):
    """``repr`` for error messages that quote input: long strings and
    containers are cut short, and a rational too long to print whole (its
    terms can pass the int-to-str digit limit) shows as ``~`` and its
    17-digit decimal value."""

    def repr_Fraction(self, x, level):
        if max(x.numerator.bit_length(), x.denominator.bit_length()) <= 256:
            return repr(x)
        ctx = Context(prec=17, Emax=MAX_EMAX, Emin=MIN_EMIN)
        value = ctx.divide(Decimal(x.numerator), x.denominator)
        return f"~{value.normalize(ctx)}"

    repr_int = repr_Fraction


_shown = _Brief().repr


def _approx(x) -> str:
    """A number as a float for error messages, or as :func:`_shown` past
    the float range."""
    try:
        return repr(float(x))
    except OverflowError:
        return _shown(x)


def _as_number(value):
    """Convert ``value`` to an exact Fraction when possible, else a float.

    ints, Fractions and numeric strings (``"3/10"``, ``"0.3"``) become
    Fractions; floats stay floats at their binary face value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a number: {value!r}")
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(
                f"cannot parse {_shown(value)} as a rational") from exc
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise InputError(f"unsupported numeric type: {type(value).__name__}")


def _query_number(x):
    """Like :func:`_as_number` but admits ``+-inf`` and rejects nan."""
    v = _as_number(x)
    if isinstance(v, float) and math.isnan(v):
        raise InputError("nan is not a valid query point")
    return v


def _check_u(u):
    v = _query_number(u)
    if not 0 <= v <= 1:
        raise InputError(f"u must lie in [0, 1], got {_shown(u)}")
    return v


def _check_level(h):
    v = _query_number(h)
    if v < 0:
        raise NegativeH(f"level must be nonnegative, got {_shown(h)}")
    return v


class LevelTable(NamedTuple):
    """The canonical pairing of a discrete measure, one tuple per column.

    Piece ``k`` covers the levels ``lo[k] < h <= hi[k]``; the pieces cut
    ``(0, max(G(-inf), G(inf))]`` at every cumulative level of either
    side, so on each one ``x_minus(h) = a[k]`` and ``x_plus(h) = b[k]``.
    ``a_live[k]`` and ``b_live[k]`` say whether the negative and the
    positive side still carry mass there.  The one-sided totals differ by
    the mean that ``mean_tolerance`` let through; past the smaller one
    the spent side keeps its last atom as the partner, or an infinite
    one when it has no atoms at all.
    """

    lo: tuple
    hi: tuple
    a: tuple
    b: tuple
    a_live: tuple
    b_live: tuple


def _bisect(below, lo, hi, tol, steps):
    """``(lo, hi)`` after at most ``steps`` halvings that keep ``below``
    true at ``lo`` and false at ``hi``, stopping once ``hi - lo`` is at
    most ``tol * (1 + |hi|)``."""
    for _ in range(steps):
        if hi - lo <= tol * (1.0 + abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _side_atom(locs, k, far):
    """Atom ``k`` of one side, its last atom past the end, or ``far``."""
    return locs[min(k, len(locs) - 1)] if locs else far


class ZeroMeanMeasure:
    """A zero-mean law together with its cumulative curve and inverses.

    Construct via :meth:`from_atoms`, :meth:`from_samples`, or
    :meth:`analytic`; the bare constructor is internal.
    """

    def __init__(self, *, _backend, **fields):
        self._backend = _backend
        if _backend == "discrete":
            self._init_discrete(**fields)
        elif _backend == "analytic":
            self._init_analytic(**fields)
        else:  # pragma: no cover - internal misuse
            raise InputError(f"unknown backend {_backend!r}")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable, *, recentre: bool = False,
                   mean_tolerance=None) -> "ZeroMeanMeasure":
        """Build a discrete measure from ``(location, mass)`` pairs.

        Duplicate locations are merged.  Masses must be positive and sum
        to one within ``1e-12``.  Unless ``recentre`` is set the weighted
        mean must vanish within ``mean_tolerance`` (default
        ``1e-9 * E|X|``); with ``recentre`` the mean is subtracted first,
        exactly so on the rational path.
        """
        pairs = []
        for entry in atoms:
            try:
                loc, mass = entry
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"atom entry {_shown(entry)} is not a pair") from exc
            loc = _as_number(loc)
            mass = _as_number(mass)
            if isinstance(loc, float) and not math.isfinite(loc):
                raise InputError(f"atom location must be finite, got {loc!r}")
            if isinstance(mass, float) and not math.isfinite(mass):
                raise BadMass(f"atom mass must be finite, got {mass!r}")
            if mass <= 0:
                raise BadMass(
                    f"atom mass must be positive, got {_shown(mass)}")
            pairs.append((loc, mass))
        if not pairs:
            raise EmptySample("no atoms supplied")

        exact = all(isinstance(v, Fraction) for pair in pairs for v in pair)
        if not exact:
            pairs = [(float(a), float(b)) for a, b in pairs]

        merged: dict = {}
        for loc, mass in pairs:
            merged[loc] = merged.get(loc, 0) + mass
        locs = sorted(merged)
        masses = [merged[loc] for loc in locs]

        total = sum(masses)
        if abs(total - 1) > MASS_SUM_TOL:
            raise BadMass(f"masses sum to {_approx(total)}, expected 1")

        mean = sum(l * p for l, p in zip(locs, masses))
        if recentre and mean != 0:
            locs = [l - mean for l in locs]
            mean = sum(l * p for l, p in zip(locs, masses))

        abs_mean = sum(abs(l) * p for l, p in zip(locs, masses))
        if abs_mean == 0:
            raise DegenerateAtZero("all mass sits at zero")
        if mean_tolerance is None:
            tol = abs_mean * Fraction(MEAN_TOL_FACTOR)
        else:
            tol = _as_number(mean_tolerance)
        if abs(mean) > tol:
            raise NonZeroMean(
                f"mean is {_approx(mean)}, beyond tolerance {_approx(tol)}")

        return cls(_backend="discrete", locs=locs, masses=masses, exact=exact)

    @classmethod
    def from_samples(cls, samples, *, recentre: bool = True,
                     mean_tolerance=None) -> "ZeroMeanMeasure":
        """Empirical measure of ``samples``: equal weights, ties merged.

        By default the sample mean is subtracted first.  Integer or
        Fraction samples keep the whole construction exact.
        """
        values = [_as_number(v) for v in np.asarray(samples).ravel().tolist()] \
            if isinstance(samples, np.ndarray) else [_as_number(v) for v in samples]
        n = len(values)
        if n == 0:
            raise EmptySample("no observations supplied")
        if all(v == values[0] for v in values):
            raise ConstantSample("all observations are equal")
        exact = all(isinstance(v, Fraction) for v in values)
        if exact:
            w = Fraction(1, n)
        else:
            values = [float(v) for v in values]
            w = 1.0 / n
        return cls.from_atoms(((v, w) for v in values), recentre=recentre,
                              mean_tolerance=mean_tolerance)

    @classmethod
    def analytic(cls, g: Callable[[float], float], m, support,
                 *, cdf: Optional[Callable[[float], float]] = None,
                 quantile: Optional[Callable] = None) -> "ZeroMeanMeasure":
        """Wrap a continuous cumulative curve ``g``.

        ``g(x)`` must be nondecreasing in ``|x|`` on either side of zero,
        with ``g(0) = 0`` and limit ``m`` at both ends of ``support``
        (a pair ``(lo, hi)`` with ``lo < 0 < hi``, infinities allowed).
        The backend assumes ``g`` is continuous, i.e. the measure has no
        atoms off zero; an atom *at* zero is fine and never shows up in
        ``g``.  Optional ``cdf`` and ``quantile`` callables enable
        distribution queries and sampling.
        """
        m = _as_number(m)
        if not m > 0:
            raise InputError(f"half mean must be positive, got {_shown(m)}")
        lo, hi = support
        lo = _query_number(lo)
        hi = _query_number(hi)
        if not (lo < 0 < hi):
            raise InputError(
                f"support must straddle zero, got {_shown(support)}")
        return cls(_backend="analytic", g=g, m=m, lo=lo, hi=hi,
                   cdf=cdf, quantile=quantile)

    # -- backend setup -----------------------------------------------------

    def _init_discrete(self, *, locs, masses, exact):
        self._exact = exact
        self._zero = Fraction(0) if exact else 0.0
        self._one = Fraction(1) if exact else 1.0
        self._locs = list(locs)
        self._masses = list(masses)
        self._mass_map = dict(zip(self._locs, self._masses))
        self._p0 = self._mass_map.get(0, self._zero)

        self._pos_locs = [l for l in self._locs if l > 0]
        self._neg_locs = [l for l in self._locs if l < 0][::-1]  # descending
        self._pos_cum = list(accumulate(l * self._mass_map[l]
                                        for l in self._pos_locs))
        self._neg_cum = list(accumulate(-l * self._mass_map[l]
                                        for l in self._neg_locs))
        self._pos_total = self._pos_cum[-1] if self._pos_cum else self._zero
        self._neg_total = self._neg_cum[-1] if self._neg_cum else self._zero
        # keys for bisecting the negative side, ascending in |loc|
        self._neg_keys = [-l for l in self._neg_locs]

        self._m = (self._pos_total + self._neg_total) / 2
        self._cummass = list(accumulate(self._masses))

        self._np_cache = None
        self._table = None

    def _init_analytic(self, *, g, m, lo, hi, cdf, quantile):
        self._g_raw = g
        self._m = m
        self._lo = lo
        self._hi = hi
        self._cdf_fn = cdf
        self._quantile_fn = quantile
        self._exact = False

    # -- basic properties --------------------------------------------------

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def is_exact(self) -> bool:
        """True when all stored quantities are exact rationals."""
        return self._exact

    @property
    def m(self):
        """Half the mean absolute value; the common limit of G at +-inf."""
        return self._m

    @property
    def atoms(self):
        """Sorted tuple of ``(location, mass)`` pairs (discrete only)."""
        self._require_discrete("atoms")
        return tuple(zip(self._locs, self._masses))

    @property
    def support(self):
        if self._backend == "analytic":
            return (self._lo, self._hi)
        return (self._locs[0], self._locs[-1])

    @property
    def prob_zero(self):
        if self._backend == "analytic":
            raise NotDiscrete("mass at zero is not stored for analytic "
                              "measures; integrate 1/x_plus and 1/x_minus")
        return self._p0

    @property
    def prob_positive(self):
        self._require_discrete("prob_positive")
        return sum(self._mass_map[l] for l in self._pos_locs)

    @property
    def prob_negative(self):
        self._require_discrete("prob_negative")
        return sum(self._mass_map[l] for l in self._neg_locs)

    def mass_at(self, x):
        """Point mass at ``x`` (zero for analytic backends off zero)."""
        if self._backend == "analytic":
            return 0.0
        return self._mass_map.get(_query_number(x), self._zero)

    def _require_discrete(self, what: str):
        if self._backend != "discrete":
            raise NotDiscrete(f"{what} requires a discrete measure")

    def __repr__(self):
        if self._backend == "discrete":
            return (f"ZeroMeanMeasure(discrete, {len(self._locs)} atoms, "
                    f"m={float(self._m):.6g})")
        return f"ZeroMeanMeasure(analytic, m={float(self._m):.6g})"

    # -- cumulative curve --------------------------------------------------

    def _g_eval(self, x: float) -> float:
        """Analytic-backend evaluation of G with clamping to [0, m]."""
        if x == INF or x == NEG_INF:
            return float(self._m)
        val = float(self._g_raw(float(x)))
        if math.isnan(val):
            raise InputError(
                f"cumulative evaluator returned nan at {_shown(x)}")
        return min(max(val, 0.0), float(self._m))

    def _cum(self, x, closed: bool):
        """Discrete ``G`` over the atoms on the side of ``x`` strictly
        between zero and ``x``, or up to ``x`` itself when ``closed``."""
        find = bisect_right if closed else bisect_left
        if x >= 0:
            idx, cum = find(self._pos_locs, x), self._pos_cum
        else:
            idx, cum = find(self._neg_keys, -x), self._neg_cum
        return cum[idx - 1] if idx else self._zero

    def g(self, x):
        """The cumulative curve ``G`` at ``x`` (extended reals allowed)."""
        x = _query_number(x)
        if self._backend == "analytic":
            return self._g_eval(x)
        return self._cum(x, True)

    def g_tilde(self, x, u):
        """Randomized cumulative curve: the jump of G at an atom ``x`` is
        traversed linearly in ``u``; away from atoms this is just ``G(x)``."""
        u = _check_u(u)
        x = _query_number(x)
        if self._backend == "analytic":
            return self._g_eval(x)
        base = self._cum(x, False)
        p = self._mass_map.get(x)
        return base if (p is None or x == 0) else base + abs(x) * p * u

    # -- generalized inverses ---------------------------------------------

    def x_plus(self, h):
        """Smallest ``x >= 0`` with ``G(x) >= h`` (``inf`` when none)."""
        return self._invert(h, 1)

    def x_minus(self, h):
        """Largest ``x <= 0`` with ``G(x) >= h`` (``-inf`` when none)."""
        return self._invert(h, -1)

    #: relative bisection tolerance for analytic inverses
    _BISECT_EPS = 1e-12

    def _invert(self, h, sign: int):
        """``x_plus(h)`` (``sign = 1``) or ``x_minus(h)`` (``sign = -1``).
        On the analytic curve it is ``sign`` times the smallest ``y >= 0``
        with ``G(sign y) >= h``, by bisection in ``y``."""
        h = _check_level(h)
        if h == 0:
            return 0
        if self._backend == "discrete":
            cum, locs = ((self._pos_cum, self._pos_locs) if sign > 0
                         else (self._neg_cum, self._neg_locs))
            idx = bisect_left(cum, h)
            return locs[idx] if idx < len(cum) else sign * INF

        def at(y):
            return sign * y + 0.0  # + 0.0 turns -0.0 into 0.0

        m = float(self._m)
        h = float(h)
        if h > m:
            return sign * INF
        end = self._hi if sign > 0 else -self._lo
        if end == INF:
            if h >= m:
                # unbounded support: G stays strictly below m at finite x
                return sign * INF
            hi = 1.0
            while self._g_eval(at(hi)) < h:
                hi *= 2.0
                if hi > 1e300:
                    return sign * INF
        else:
            hi = float(end)
            ghi = self._g_eval(at(hi))
            if ghi < h:
                if h - ghi <= 1e-9 * max(1.0, m):
                    h = ghi  # absorb evaluator round-off at the endpoint
                else:
                    return sign * INF
        if self._g_eval(0.0) >= h:
            return 0.0
        _, hi = _bisect(lambda y: self._g_eval(at(y)) < h, 0.0, hi,
                        self._BISECT_EPS, 200)
        return at(hi)

    # -- reciprocating maps -----------------------------------------------

    def reciprocate(self, x, u=1):
        """Opposite-sign partner ``r(x, u)`` of ``x`` at randomization ``u``."""
        xv = _query_number(x)
        h = self.g_tilde(xv, u)
        if xv >= 0:
            return self.x_minus(h)
        return self.x_plus(h)

    def regularize(self, x, u=1):
        """Same-side regularization: the point ``x`` snaps to once the
        curve level ``g_tilde(x, u)`` is pushed back through the same-side
        inverse.  Equals ``x`` almost surely under the measure itself."""
        xv = _query_number(x)
        h = self.g_tilde(xv, u)
        if xv >= 0:
            return self.x_plus(h)
        return self.x_minus(h)

    def v_map(self, x, u=1):
        """Randomization level ``v`` that makes reciprocation involutive:
        ``reciprocate(reciprocate(x, u), v) == regularize(x, u)``."""
        xv = _query_number(x)
        u = _check_u(u)
        h = self.g_tilde(xv, u)
        y = self.reciprocate(xv, u)
        if self._backend == "analytic":
            return 1.0
        if y == 0 or y == INF or y == NEG_INF:
            return self._one
        lower = self._cum(y, False)  # G just short of y
        gy = self._cum(y, True)
        if gy == lower:
            return self._one
        return (h - lower) / (gy - lower)

    # -- the canonical pairing ---------------------------------------------

    def _level_table(self) -> LevelTable:
        """The :class:`LevelTable` of a discrete measure, built once from
        one merge of the two cumulative lists."""
        if self._table is None:
            pos, neg = self._pos_cum, self._neg_cum
            rows = []
            lo, i, j = self._zero, 0, 0
            while i < len(pos) or j < len(neg):
                hi = min(pos[i:i + 1] + neg[j:j + 1])
                rows.append((lo, hi, _side_atom(self._neg_locs, j, NEG_INF),
                             _side_atom(self._pos_locs, i, INF),
                             j < len(neg), i < len(pos)))
                while i < len(pos) and pos[i] <= hi:
                    i += 1
                while j < len(neg) and neg[j] <= hi:
                    j += 1
                lo = hi
            self._table = LevelTable(*zip(*rows))
        return self._table

    def _atom_bases(self):
        """``g_tilde(x, 0)`` at every atom ``x``, in atom order."""
        zero = [self._zero]
        neg = (zero + self._neg_cum)[:-1]
        pos = (zero + self._pos_cum)[:-1]
        return neg[::-1] + (zero if self._p0 else []) + pos

    def u_segments(self, x):
        """Partition of ``u`` in ``(0, 1]`` into maximal pieces on which
        ``reciprocate(x, .)`` is constant.

        Returns a list of ``(u_lo, u_hi, partner)`` triples with the
        convention that a piece covers ``u_lo < u <= u_hi``.  For points
        that carry no atom the list has a single piece.  An atom's pieces
        are its level range ``(g_tilde(x, 0), g_tilde(x, 1)]`` sliced out
        of the level table.
        """
        x = _query_number(x)
        if self._backend == "analytic":
            return [(0.0, 1.0, self.reciprocate(x, 1))]
        if x == 0:
            return [(self._zero, self._one, 0)]
        p = self._mass_map.get(x)
        jump = self._zero if p is None else abs(x) * p
        if jump == 0:
            return [(self._zero, self._one, self.reciprocate(x, 1))]
        table = self._level_table()
        base = self._cum(x, False)
        partners = table.a if x > 0 else table.b
        # a float jump too small to move the cumulative sum has no piece
        # of its own and takes the one just above its base
        first = min(bisect_right(table.hi, base), len(table.hi) - 1)
        last = bisect_left(table.hi, base + jump, first)
        cuts = [self._zero, *((h - base) / jump for h in table.hi[first:last]),
                self._one]
        return [(u_lo, u_hi, r) for u_lo, u_hi, r
                in zip(cuts, cuts[1:], partners[first:last + 1])
                if u_hi > u_lo]

    # -- exact level identities -------------------------------------------

    def h_plus(self, h):
        """``E[X 1{X > 0, g_tilde(X, U) <= h}]``; equals ``min(h, m)``."""
        h = _check_level(h)
        self._require_discrete("h_plus")
        return self._mass_below(self._pos_cum, h)

    def h_minus(self, h):
        """Mirror of :meth:`h_plus` on the negative side."""
        h = _check_level(h)
        self._require_discrete("h_minus")
        return self._mass_below(self._neg_cum, h)

    def _mass_below(self, cum, h):
        """The part of one side's cumulative list ``cum`` at levels up to
        ``h``, summed piece by piece."""
        total = prev = self._zero
        for level in cum:
            if h >= level:
                total = total + (level - prev)
            elif h > prev:
                total = total + (h - prev)
            prev = level
        return total

    # -- distribution queries ---------------------------------------------

    def cdf(self, x):
        """``P(X <= x)``."""
        x = _query_number(x)
        if self._backend == "analytic":
            if self._cdf_fn is None:
                raise InputError("this analytic measure carries no cdf")
            return float(self._cdf_fn(float(x)))
        idx = bisect_right(self._locs, x)
        return self._cummass[idx - 1] if idx else self._zero

    def cdf_left(self, x):
        """``P(X < x)``."""
        x = _query_number(x)
        self._require_discrete("cdf_left")
        idx = bisect_left(self._locs, x)
        return self._cummass[idx - 1] if idx else self._zero

    def f_tilde(self, x, u):
        """Randomized distribution transform ``F(x-) + u (F(x) - F(x-))``;
        uniform on ``[0, 1]`` when ``(x, u)`` is drawn from the measure and
        an independent uniform."""
        u = _check_u(u)
        x = _query_number(x)
        self._require_discrete("f_tilde")
        base = self.cdf_left(x)
        p = self._mass_map.get(x)
        return base if p is None else base + p * u

    # -- symmetry ----------------------------------------------------------

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Whether G is even within ``tol`` (scaled by ``max(1, m)``)."""
        scale = tol * max(1.0, float(self._m))
        if self._backend == "discrete":
            probes = sorted({abs(l) for l in self._locs if l != 0})
        else:
            half = float(self.x_plus(self._m / 2))
            half = max(half, float(-self.x_minus(self._m / 2)), 1e-9)
            top = []
            for bound in (self._hi, -self._lo):
                if bound != INF:
                    top.append(float(bound))
            reach = max(top) if top else 8.0 * half
            probes = list(np.linspace(0.0, reach, 65)[1:])
        for t in probes:
            if abs(float(self.g(t)) - float(self.g(-t))) > scale:
                return False
        return True

    # -- sampling ----------------------------------------------------------

    def _float_tables(self):
        if self._np_cache is None:
            locs = np.array([float(l) for l in self._locs])
            probs = np.array([float(p) for p in self._masses])
            probs = probs / probs.sum()
            self._np_cache = (locs, probs)
        return self._np_cache

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` i.i.d. values (needs a quantile on analytic backends)."""
        if self._backend == "analytic":
            if self._quantile_fn is None:
                raise InputError("this analytic measure carries no quantile "
                                 "sampler")
            return np.asarray(self._quantile_fn(rng.random(n)), dtype=float)
        idx = self.sample_indices(n, rng)
        locs, _ = self._float_tables()
        return locs[idx]

    def sample_indices(self, n: int, rng) -> np.ndarray:
        """Indices into :attr:`atoms` for ``n`` i.i.d. draws."""
        self._require_discrete("sample_indices")
        _, probs = self._float_tables()
        return rng.choice(len(probs), size=int(n), p=probs)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        """Plain-dict form matching the on-disk measure schema."""
        self._require_discrete("serialization")
        return {
            "backend": "discrete",
            "atoms": [[l, p] for l, p in zip(self._locs, self._masses)],
        }

    @classmethod
    def from_jsonable(cls, obj, **kwargs) -> "ZeroMeanMeasure":
        """Inverse of :meth:`to_jsonable`.

        Entries may be numbers or rational strings such as ``"3/10"``;
        ``"inf"``/``"-inf"`` do not parse as rationals and stay
        output-only."""
        if not isinstance(obj, dict) or obj.get("backend") != "discrete":
            raise InputError("measure object must be a dict with "
                             "backend == 'discrete'")
        atoms = obj.get("atoms")
        if not isinstance(atoms, list):
            raise InputError("measure object must carry an 'atoms' list")
        for entry in atoms:
            if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
                raise InputError(f"atom entry {_shown(entry)} is not a pair")
        return cls.from_atoms(atoms, **kwargs)
