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
explicitly and keeps every derived quantity exact whenever all inputs
are ints, Fractions, or numeric strings (floats stay floats): levels are
ints over the lcm ``D`` of the denominators of the jumps ``|x| p``, cut
by ``ceil(h D)`` at a level ``h``, and a :class:`fractions.Fraction` is
built only where a level leaves the API.  Samples get equal weights with
counted ties.  The *analytic* backend wraps a continuous cumulative
curve supplied as a callable: a curve with no atoms off zero, whose
float levels (``D = 1``) never jump, so the curves, maps and
``u_segments`` are shared.  The backends differ in how a point finds
its level, how a level finds its point (bisection on a curve), and in
``level_integral``, ``prob_zero`` and ``is_symmetric``.

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
import numbers
import operator
import reprlib
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

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
    Unbounded,
)

__all__ = ["ZeroMeanMeasure", "INF", "NEG_INF"]

INF = float("inf")
NEG_INF = float("-inf")

#: masses must sum to one within this absolute tolerance
MASS_SUM_TOL = 1e-12

#: relative factor applied to E|X| for the default mean-zero tolerance
MEAN_TOL_FACTOR = 1e-9

#: a batch lookup (:func:`_ranks`) cuts its table's span into at most this
#: many cells per edge
_CELLS_PER_EDGE = 32


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
    if type(value) is float:  # the common case, ahead of the ABC checks
        return value
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
    """The canonical pairing of a discrete measure, one sequence per column
    (tuples from ``_level_table()``, arrays from ``_level_columns``).

    The pieces cut ``(0, max(G(-inf), G(inf))]`` at every cumulative
    level of either side; piece ``k`` ends at ``hi[k]`` (an int over ``D``
    when exact), is ``dh[k]`` wide (a level as the API gives it), and has
    ``x_minus(h) = a[k]`` and ``x_plus(h) = b[k]`` on it.
    ``a_live[k]`` and ``b_live[k]`` say whether the negative and the
    positive side still carry mass there.  The one-sided totals differ by
    the mean that the tolerance of :meth:`ZeroMeanMeasure.from_atoms` let
    through (or by float rounding); past the smaller one the spent side
    keeps its last atom as the partner.
    """

    dh: Sequence
    hi: Sequence
    a: Sequence
    b: Sequence
    a_live: Sequence
    b_live: Sequence


#: float columns of a discrete measure for vectorized draws, each the float
#: of the exact value (an int over ``D`` divides correctly rounded): per atom
#: its location, its mass, ``G`` just short of it, its jump and ``P(X < x)``,
#: in atom order; per :class:`LevelTable` row ``hi``, ``a`` and ``b``
FloatLevels = namedtuple("FloatLevels", "locs mass base jump below hi a b")


def _merged(pairs):
    """Sorted locations and their masses, equal locations summed."""
    merged: dict = {}
    for loc, mass in pairs:
        merged[loc] = merged.get(loc, 0) + mass
    locs = sorted(merged)
    return locs, [merged[loc] for loc in locs]


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


def _ranks(edges, keys, side: str) -> np.ndarray:
    """``np.searchsorted(edges, keys, side)`` for a sorted, non-empty table
    and finite keys, with a binary search only for the keys that need one.

    The table's span is cut into equal cells, ``_CELLS_PER_EDGE`` per edge
    but no more than there are keys.  A key in a cell that holds no edge
    is ranked by the count of edges in the cells below it; only the keys
    that share a cell with an edge are searched.  A binary search per key
    of a large unsorted batch mispredicts most of its branches, while a
    cell is read off with none.
    """
    cells = min(_CELLS_PER_EDGE * len(edges), len(keys))
    lo, hi = float(edges[0]), float(edges[-1])
    scale = cells / (hi - lo) if hi > lo else 0.0
    shift = 1.0 - lo * scale
    if not (math.isfinite(scale) and math.isfinite(shift)):
        scale, shift = 0.0, 0.0  # one cell: every key is searched

    def cell(x):
        # monotone in x, so an edge in a lower cell is below every key
        # of this cell and an edge in a higher one above them all
        with np.errstate(over="ignore"):
            t = x * scale
            t += shift
        return np.clip(t, 0, cells + 1, out=t).astype(np.intp)

    counts = np.bincount(cell(edges), minlength=cells + 2)
    below = np.cumsum(counts)  # at an empty cell, the edges below it
    below[counts > 0] = -1
    ranks = below[cell(keys)]
    shared = np.flatnonzero(ranks < 0)
    ranks[shared] = np.searchsorted(edges, keys[shared], side)
    return ranks


def _draw_count(n, least: int = 0) -> int:
    """``n`` as a number of draws: an integer, not a bool, of at least
    ``least``."""
    try:
        count = operator.index(n)
    except TypeError:
        count = None
    if count is None or isinstance(n, bool) or count < least:
        raise InputError(f"draw count must be an integer of at least "
                         f"{least}, got {_shown(n)}")
    return count


def _from_spec(obj, tag: str, kinds: dict):
    """What a JSON spec ``{tag: kind, **params}`` names.  ``kinds`` maps
    each kind to its constructor and its parameters' defaults (``None``:
    required).  A parameter with a string default is passed as given; any
    other must be a real number that is not a bool (kept as is) or a
    string that ``float`` reads, within the float range.  Any other value,
    kind or key is one :class:`InputError`."""
    kind = obj.get(tag) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InputError(f"spec must be an object whose {tag!r} is one of "
                         f"{tuple(kinds)}")
    make, defaults = kinds[kind]
    foreign = [key for key in obj if key != tag and key not in defaults]
    if foreign:
        raise InputError(f"{kind} takes only {tuple(defaults)}, "
                         f"got {_shown(foreign)}")
    args = []
    for key, default in defaults.items():
        value = obj.get(key, default)
        if not isinstance(default, str):
            try:
                number = float(value)
            except (TypeError, ValueError, OverflowError):
                number = None
            if number is None or isinstance(value, bool) or not isinstance(
                    value, (numbers.Real, str)):
                raise InputError(f"{kind} needs a number {key!r}, "
                                 f"got {_shown(value)}")
            value = number if isinstance(value, str) else value
        args.append(value)
    return make(*args)


def _choice(weights: np.ndarray, n, rng) -> np.ndarray:
    """Indices of ``n`` i.i.d. draws with probabilities proportional to
    ``weights``: what ``rng.choice(len(weights), n, p=weights /
    weights.sum())`` returns, bit for bit, leaving ``rng`` in the same
    state, with the uniforms looked up by :func:`_ranks`."""
    n = _draw_count(n)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return _ranks(cdf, rng.random(n), "right")


class ZeroMeanMeasure:
    """A zero-mean law together with its cumulative curve and inverses.

    Construct via :meth:`from_atoms`, :meth:`from_samples`, or
    :meth:`analytic`; the bare constructor is internal.
    """

    def __init__(self, *, _backend, **fields):
        self._backend = _backend
        if _backend == "discrete":
            self._init_discrete(**fields)
        else:
            self._init_analytic(**fields)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable, *,
                   recentre: bool = False) -> "ZeroMeanMeasure":
        """Build a discrete measure from ``(location, mass)`` pairs.

        Each entry is parsed once, then duplicate locations merge.  The
        masses as given must be positive and sum to one within ``1e-12``
        (``math.fsum`` on floats).  Unless ``recentre`` is set the mean
        must vanish within ``1e-9 * E|X|``, so both sides of zero carry
        mass; ``recentre`` subtracts it first, exactly so on the rational
        path, and raises ``ConstantSample`` at a single location.
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
        total = (sum if exact else math.fsum)(mass for _, mass in pairs)
        if abs(total - 1) > MASS_SUM_TOL:
            raise BadMass(f"masses sum to {_approx(total)}, expected 1")

        locs, masses = _merged(pairs)
        if recentre and len(locs) == 1:
            raise ConstantSample("all atoms sit at one location")

        mean = sum(l * p for l, p in zip(locs, masses))
        if recentre and mean != 0:
            locs = [l - mean for l in locs]
            if len(set(locs)) < len(locs):  # it rounded floats together
                locs, masses = _merged(zip(locs, masses))
            mean = sum(l * p for l, p in zip(locs, masses))

        abs_mean = sum(abs(l) * p for l, p in zip(locs, masses))
        if abs_mean == 0:
            raise DegenerateAtZero("all mass sits at zero")
        tol = abs_mean * Fraction(MEAN_TOL_FACTOR)
        if abs(mean) > tol:
            raise NonZeroMean(
                f"mean is {_approx(mean)}, beyond tolerance {_approx(tol)}")

        return cls(_backend="discrete", locs=locs, masses=masses, exact=exact)

    @classmethod
    def from_samples(cls, samples) -> "ZeroMeanMeasure":
        """Empirical measure of ``samples``: equal weights, ties merged,
        the sample mean subtracted.  Integer or Fraction samples keep the
        whole construction exact; :meth:`from_atoms` parses the entries.
        """
        raw = np.asarray(samples).ravel().tolist() \
            if isinstance(samples, np.ndarray) else list(samples)
        n = len(raw)
        if n == 0:
            raise EmptySample("no observations supplied")
        if any(isinstance(v, (float, np.floating)) for v in raw):
            # floats stay floats, each observation adding its own weight
            return cls.from_atoms(zip(raw, repeat(1.0 / n)), recentre=True)
        try:  # ties counted on the raw entries, typed so True is not 1
            counts = Counter(zip(map(type, raw), raw))
        except TypeError:  # an unhashable entry, which is no number
            counts = Counter((None, _as_number(v)) for v in raw)
        return cls.from_atoms(((v, Fraction(c, n)) for (_, v), c
                               in counts.items()), recentre=True)

    @classmethod
    def analytic(cls, g: Callable[[float], float], m,
                 support) -> "ZeroMeanMeasure":
        """Wrap a continuous cumulative curve ``g``.

        ``g(x)`` must be nondecreasing in ``|x|`` on either side of zero,
        with ``g(0) = 0`` and limit ``m`` at both ends of ``support``
        (a pair ``(lo, hi)`` with ``lo < 0 < hi``, infinities allowed).
        The backend assumes ``g`` is continuous, i.e. the measure has no
        atoms off zero; an atom *at* zero is fine and never shows up in
        ``g``.  Distribution queries and sampling need a discrete
        measure.
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
        return cls(_backend="analytic", g=g, m=m, lo=lo, hi=hi)

    # -- backend setup -----------------------------------------------------

    def _init_discrete(self, *, locs, masses, exact):
        self._exact = exact
        self._zero = Fraction(0) if exact else 0.0
        self._one = Fraction(1) if exact else 1.0
        self._locs = list(locs)
        self._masses = list(masses)
        self._lo, self._hi = self._locs[0], self._locs[-1]
        self._mass_map = dict(zip(self._locs, self._masses))

        # the jumps |x| p of G in cumulative units, ints over D when exact
        jumps = [abs(l) * p for l, p in zip(self._locs, self._masses)]
        unit = math.lcm(*(j.denominator for j in jumps)) if exact else 1
        if exact:
            jumps = [j.numerator * (unit // j.denominator) for j in jumps]
        self._unit = unit
        neg, pos = bisect_left(self._locs, 0), bisect_right(self._locs, 0)
        self._pos_locs = self._locs[pos:]
        self._neg_locs = self._locs[:neg][::-1]  # descending
        nil = 0 if exact else 0.0
        self._pos_cum = list(accumulate(jumps[pos:], initial=nil))
        self._neg_cum = list(accumulate(jumps[:neg][::-1], initial=nil))
        # atom -> (G just short of it, its jump), in atom order
        bases = (self._neg_cum[-2::-1] + self._pos_cum[:1] * (pos - neg)
                 + self._pos_cum[:-1])
        self._steps = dict(zip(self._locs, zip(bases, jumps)))

        self._m = self._frac(self._pos_cum[-1] + self._neg_cum[-1],
                             2 * self._unit)
        self._cummass = list(accumulate(self._masses, initial=self._zero))

    def _init_analytic(self, *, g, m, lo, hi):
        self._g_raw = g
        self._m = m
        self._lo, self._hi = lo, hi
        self._exact = False
        self._zero, self._one, self._unit = 0.0, 1.0, 1
        self._mass_map = {}

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
        return (self._lo, self._hi)

    @cached_property
    def prob_zero(self):
        """``P(X = 0)``; on an analytic measure ``1`` less the level
        integral of ``1 / x_plus - 1 / x_minus``, clamped at zero."""
        if self._backend == "analytic":
            return max(0.0, 1.0 - self.level_integral(
                lambda a, b: 1 / b - 1 / a))
        return self._mass_map.get(0, self._zero)

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
        x = _query_number(x)
        return self.prob_zero if x == 0 else self._mass_map.get(x, self._zero)

    def _require_discrete(self, what: str):
        if self._backend != "discrete":
            raise NotDiscrete(f"{what} requires a discrete measure")

    def __repr__(self):
        if self._backend == "discrete":
            return (f"ZeroMeanMeasure(discrete, {len(self._locs)} atoms, "
                    f"m={_approx(self._m)})")
        return f"ZeroMeanMeasure(analytic, m={_approx(self._m)})"

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

    def _frac(self, num, den):
        """``num / den`` as the API gives it (``c / D`` for a level ``c``)."""
        return Fraction(num, den) if self._exact else num / den

    def _at(self, x):
        """``(G just short of x, the jump of G at x)``, cumulative units."""
        if self._backend == "analytic":
            return self._g_eval(x), 0.0
        step = self._steps.get(x)
        if step is not None:
            return step
        locs, cum = ((self._pos_locs, self._pos_cum) if x >= 0
                     else (self._neg_locs, self._neg_cum))
        return cum[bisect_left(locs, abs(x), key=abs)], cum[0]

    def _key(self, h):
        """Level ``h`` as a bound on the cumulative lists: ``ceil(h D)`` on
        the lattice, ``h`` itself on a float measure and at ``inf``."""
        if not self._exact or h == INF:
            return h
        num, den = h.as_integer_ratio()
        return -(-num * self._unit // den)

    def g(self, x):
        """The cumulative curve ``G`` at ``x`` (extended reals allowed)."""
        base, jump = self._at(_query_number(x))
        return self._frac(base + jump, self._unit)

    def g_tilde(self, x, u):
        """Randomized cumulative curve: the jump of G at an atom ``x`` is
        traversed linearly in ``u``; away from atoms this is just ``G(x)``."""
        u = _check_u(u)
        return self._g_tilde(_query_number(x), u)

    def _g_tilde(self, x, u):
        """:meth:`g_tilde` at a checked ``x`` and ``u``."""
        base, jump = self._at(x)
        level = self._frac(base, self._unit)
        return level + abs(x) * self._mass_map[x] * u if jump else level

    # -- generalized inverses ---------------------------------------------

    def x_plus(self, h):
        """Smallest ``x >= 0`` with ``G(x) >= h`` (``inf`` when none)."""
        return self._invert(self._key(_check_level(h)), 1)

    def x_minus(self, h):
        """Largest ``x <= 0`` with ``G(x) >= h`` (``-inf`` when none)."""
        return self._invert(self._key(_check_level(h)), -1)

    #: relative bisection tolerance for analytic inverses
    _BISECT_EPS = 1e-12

    def _invert(self, key, sign: int):
        """``x_plus`` (``sign = 1``) or ``x_minus`` (``sign = -1``) at level
        ``key`` (see :meth:`_key`), by bisection in ``|x|`` if analytic."""
        if not key:
            return 0
        if self._backend == "discrete":
            cum, locs = ((self._pos_cum, self._pos_locs) if sign > 0
                         else (self._neg_cum, self._neg_locs))
            idx = bisect_left(cum, key)
            return locs[idx - 1] if idx < len(cum) else sign * INF

        def at(y):
            return sign * y + 0.0  # + 0.0 turns -0.0 into 0.0

        m = float(self._m)
        h = float(key)
        end = self._hi if sign > 0 else -self._lo
        # on unbounded support G stays strictly below m at finite x
        if h > m or (end == INF and h >= m):
            return sign * INF
        if end == INF:
            hi = 1.0
            while self._g_eval(at(hi)) < h:
                hi *= 2.0
                if hi > 1e300:
                    return sign * INF
        else:
            hi = float(end)
            ghi = self._g_eval(at(hi))
            if h - ghi > 1e-9 * max(1.0, m):
                return sign * INF
            h = min(h, ghi)  # absorb evaluator round-off at the endpoint
        if self._g_eval(0.0) >= h:
            return 0.0
        _, hi = _bisect(lambda y: self._g_eval(at(y)) < h, 0.0, hi,
                        self._BISECT_EPS, 200)
        return at(hi)

    # -- reciprocating maps -----------------------------------------------

    def _through(self, x, u, side: int):
        """``(point, level)``: ``g_tilde(x, u)`` at a checked ``x`` and ``u``
        through the inverse on ``x``'s side, or on the other for ``side = -1``;
        exact ``x`` and ``u = num / den`` give the level as ``(c, den)``, the
        int ``c`` in units of ``1 / (D den)``."""
        if self._exact and isinstance(x, Fraction) and isinstance(u, Fraction):
            base, jump = self._at(x)
            num, den = u.as_integer_ratio()
            c = base * den + jump * num
            level, key = (c, den), -(-c // den)
        else:
            level = self._g_tilde(x, u)
            key = self._key(level)
        return self._invert(key, side if x >= 0 else -side), level

    def reciprocate(self, x, u=1):
        """Opposite-sign partner ``r(x, u)`` of ``x`` at randomization ``u``."""
        return self._through(_query_number(x), _check_u(u), -1)[0]

    def regularize(self, x, u=1):
        """Same-side regularization: the point ``x`` snaps to once the
        curve level ``g_tilde(x, u)`` is pushed back through the same-side
        inverse.  Equals ``x`` almost surely under the measure itself."""
        return self._through(_query_number(x), _check_u(u), 1)[0]

    def v_map(self, x, u=1):
        """Randomization level ``v`` that makes reciprocation involutive:
        ``reciprocate(reciprocate(x, u), v) == regularize(x, u)``."""
        y, level = self._through(_query_number(x), _check_u(u), -1)
        lower, jump = self._at(y)  # G just short of y, and its jump there
        if lower + jump == lower:
            return self._one
        if isinstance(level, tuple):
            c, den = level
            return Fraction(c - lower * den, jump * den)
        low = self._frac(lower, self._unit)
        return (level - low) / (self._frac(lower + jump, self._unit) - low)

    # -- the canonical pairing ---------------------------------------------

    def _level_table(self) -> LevelTable:
        """The :class:`LevelTable` of a discrete measure as tuples, built
        once."""
        return self._level_tuples

    @cached_property
    def _level_tuples(self) -> LevelTable:
        return LevelTable(*(tuple(column.tolist())
                            for column in self._level_columns))

    @cached_property
    def _level_columns(self) -> LevelTable:
        """The :class:`LevelTable` of a discrete measure as arrays, built
        column by column from the cumulative levels of both sides: float64
        on a float measure; on an exact one ``dh``, ``a`` and ``b`` hold
        Fractions and ``hi`` Python ints (those over ``D`` can pass int64).
        The two masks are bool arrays."""
        self._require_discrete("the level table")
        kind = object if self._exact else float
        pos = np.array(self._pos_cum, dtype=kind)
        neg = np.array(self._neg_cum, dtype=kind)
        hi = np.sort(np.concatenate((pos[1:], neg[1:])))
        hi = hi[np.append(True, hi[1:] != hi[:-1])]  # np.unique imports np.ma
        i, j = np.searchsorted(pos, hi), np.searchsorted(neg, hi)
        # a spent side keeps its last atom
        a_at = np.minimum(j, len(neg) - 1) - 1
        b_at = np.minimum(i, len(pos) - 1) - 1
        a = np.array(self._neg_locs, dtype=kind)[a_at]
        b = np.array(self._pos_locs, dtype=kind)[b_at]
        dh = np.diff(hi, prepend=pos[:1])
        if self._exact:
            dh = np.array([Fraction(d, self._unit) for d in dh.tolist()],
                          dtype=object)
        return LevelTable(dh, hi, a, b, j < len(neg), i < len(pos))

    def u_segments(self, x):
        """Partition of ``u`` in ``(0, 1]`` into the pieces of the level
        table that the atom at ``x`` spans, each with its partner.

        Returns a list of ``(u_lo, u_hi, partner)`` triples with the
        convention that a piece covers ``u_lo < u <= u_hi``.  For points
        that carry no atom the list has a single piece.  An atom's pieces
        are its level range ``(g_tilde(x, 0), g_tilde(x, 1)]`` sliced out
        of the level table.  Past the opposite side's total a piece keeps
        that side's last atom, as ``sample_pairs`` and ``decompose`` do,
        though ``reciprocate`` is infinite there; so neighbouring pieces
        can share a partner.
        """
        x = _query_number(x)
        base, jump = self._at(x)
        if jump == 0:
            return [(self._zero, self._one,
                     self._invert(base, -1 if x >= 0 else 1))]
        table = self._level_table()
        partners = table.a if x > 0 else table.b
        low, step = self._frac(base, self._unit), abs(x) * self._mass_map[x]
        # a float jump too small to move the cumulative sum has no piece
        # of its own and takes the one just above its base
        first = min(bisect_right(table.hi, base), len(table.hi) - 1)
        last = bisect_left(table.hi, self._key(low + step), first)
        cuts = [self._zero, *((self._frac(h, self._unit) - low) / step
                              for h in table.hi[first:last]), self._one]
        return [(u_lo, u_hi, r) for u_lo, u_hi, r
                in zip(cuts, cuts[1:], partners[first:last + 1])
                if u_hi > u_lo]

    def level_integral(self, f: Callable):
        """``f(x_minus(h), x_plus(h))`` integrated over the levels ``h`` in
        ``(0, m)`` where both sides carry mass: an exact sum over the level
        table of a discrete measure, one quadrature on an analytic one."""
        if self._backend == "discrete":
            return sum(dh * f(a, b) for dh, _, a, b, a_live, b_live
                       in zip(*self._level_table()) if a_live and b_live)
        # imported here so that importing twopoint loads no scipy
        from scipy import integrate

        def integrand(h):
            val = f(float(self.x_minus(h)), float(self.x_plus(h)))
            if not math.isfinite(val):
                raise Unbounded(f"integrand not finite at level {h!r}")
            return val

        return integrate.quad(integrand, 0.0, float(self._m), limit=200)[0]

    # -- exact level identities -------------------------------------------

    def h_plus(self, h):
        """``E[X 1{X > 0, g_tilde(X, U) <= h}]``; equals ``min(h, m)``."""
        return self._mass_below(h, 1, "h_plus")

    def h_minus(self, h):
        """Mirror of :meth:`h_plus` on the negative side."""
        return self._mass_below(h, -1, "h_minus")

    def _mass_below(self, h, sign, what):
        """One side's levels up to ``h``, ``min(h, side total)``, taken in
        cumulative units and divided by ``D`` once (exactly, for any h)."""
        h = _check_level(h)
        self._require_discrete(what)
        cum = self._pos_cum if sign > 0 else self._neg_cum
        key = Fraction(h) * self._unit if self._exact and h != INF else h
        return self._frac(min(key, cum[-1]), self._unit)

    # -- distribution queries ---------------------------------------------

    def cdf(self, x):
        """``P(X <= x)``."""
        x = _query_number(x)
        self._require_discrete("cdf")
        return self._cummass[bisect_right(self._locs, x)]

    def cdf_left(self, x):
        """``P(X < x)``."""
        x = _query_number(x)
        self._require_discrete("cdf_left")
        return self._cummass[bisect_left(self._locs, x)]

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

    def is_symmetric(self) -> bool:
        """Whether G is even within ``1e-12`` (scaled by ``max(1, m)``),
        in exact arithmetic on an exact measure."""
        scale = self._frac(1, 10 ** 12) * max(1, self._m)
        if self._backend == "discrete":
            probes = sorted({abs(l) for l in self._locs if l != 0})
        else:
            half = float(self.x_plus(self._m / 2))
            half = max(half, float(-self.x_minus(self._m / 2)), 1e-9)
            top = [float(b) for b in (self._hi, -self._lo) if b != INF]
            reach = max(top) if top else 8.0 * half
            probes = list(np.linspace(0.0, reach, 65)[1:])
        for t in probes:
            if abs(self.g(t) - self.g(-t)) > scale:
                return False
        return True

    # -- sampling ----------------------------------------------------------

    @cached_property
    def _float_levels(self) -> FloatLevels:
        """The :class:`FloatLevels` of a discrete measure, built once."""
        _, hi, a, b, _, _ = self._level_columns
        steps = self._steps.values()  # in atom order
        return FloatLevels(
            np.array(self._locs, dtype=float),
            np.array(self._masses, dtype=float),
            np.array([c / self._unit for c, _ in steps]),
            np.array([c / self._unit for _, c in steps]),
            np.array(self._cummass[:-1], dtype=float),
            (hi / self._unit).astype(float), a.astype(float), b.astype(float))

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` i.i.d. values (discrete only)."""
        idx = self.sample_indices(n, rng)
        return self._float_levels.locs[idx]

    def sample_indices(self, n: int, rng) -> np.ndarray:
        """Indices into :attr:`atoms` for ``n`` i.i.d. draws, as
        ``rng.choice`` would draw them from the atoms' float masses."""
        self._require_discrete("sample_indices")
        return _choice(self._float_levels.mass, n, rng)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        """Plain-dict form matching the on-disk measure schema."""
        self._require_discrete("serialization")
        return {
            "backend": "discrete",
            "atoms": [[l, p] for l, p in zip(self._locs, self._masses)],
        }

    @classmethod
    def from_jsonable(cls, obj) -> "ZeroMeanMeasure":
        """Inverse of :meth:`to_jsonable`.

        Entries may be numbers or rational strings such as ``"3/10"``;
        ``"inf"``/``"-inf"`` do not parse as rationals and stay
        output-only.  The ``backend`` key may be left out."""
        if (not isinstance(obj, dict)
                or obj.get("backend", "discrete") != "discrete"):
            raise InputError("measure object must be a dict whose "
                             "backend, if given, is 'discrete'")
        atoms = obj.get("atoms")
        if not isinstance(atoms, list):
            raise InputError("measure object must carry an 'atoms' list")
        for entry in atoms:
            if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
                raise InputError(f"atom entry {_shown(entry)} is not a pair")
        return cls.from_atoms(atoms)
