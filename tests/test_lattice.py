"""The integer-lattice curve of a discrete measure against the
Fraction-list reference it replaced.

An exact measure keeps its cumulative levels as ints over a common
denominator D.  ``FractionCurve`` below is the earlier implementation,
which bisected the cumulative levels themselves (Fractions on an exact
measure, floats otherwise); every curve query must give the same value
of the same type from both."""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import INF, NEG_INF, ZeroMeanMeasure
from twopoint.errors import InputError
from twopoint.measure import _check_level, _check_u, _query_number


def _side_atom(locs, k, far):
    return locs[min(k, len(locs) - 1)] if locs else far


class FractionCurve:
    """The discrete curve on cumulative lists of levels, as it was before
    the lattice: the reference for every curve query."""

    def __init__(self, mu):
        exact = mu.is_exact
        self._zero = F(0) if exact else 0.0
        self._one = F(1) if exact else 1.0
        self._mass_map = dict(mu.atoms)
        self._locs = [l for l, _ in mu.atoms]
        self._pos_locs = [l for l in self._locs if l > 0]
        self._neg_locs = [l for l in self._locs if l < 0][::-1]  # descending
        self._pos_cum = list(accumulate(l * self._mass_map[l]
                                        for l in self._pos_locs))
        self._neg_cum = list(accumulate(-l * self._mass_map[l]
                                        for l in self._neg_locs))
        self._neg_keys = [-l for l in self._neg_locs]
        self._table = None

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
        return self._cum(_query_number(x), True)

    def g_tilde(self, x, u):
        u = _check_u(u)
        x = _query_number(x)
        base = self._cum(x, False)
        p = self._mass_map.get(x)
        return base if (p is None or x == 0) else base + abs(x) * p * u

    def x_plus(self, h):
        return self._invert(h, 1)

    def x_minus(self, h):
        return self._invert(h, -1)

    def _invert(self, h, sign: int):
        h = _check_level(h)
        if h == 0:
            return 0
        cum, locs = ((self._pos_cum, self._pos_locs) if sign > 0
                     else (self._neg_cum, self._neg_locs))
        idx = bisect_left(cum, h)
        return locs[idx] if idx < len(cum) else sign * INF

    def reciprocate(self, x, u=1):
        xv = _query_number(x)
        h = self.g_tilde(xv, u)
        if xv >= 0:
            return self.x_minus(h)
        return self.x_plus(h)

    def regularize(self, x, u=1):
        xv = _query_number(x)
        h = self.g_tilde(xv, u)
        if xv >= 0:
            return self.x_plus(h)
        return self.x_minus(h)

    def v_map(self, x, u=1):
        xv = _query_number(x)
        u = _check_u(u)
        h = self.g_tilde(xv, u)
        y = self.reciprocate(xv, u)
        if y == 0 or y == INF or y == NEG_INF:
            return self._one
        lower = self._cum(y, False)  # G just short of y
        gy = self._cum(y, True)
        if gy == lower:
            return self._one
        return (h - lower) / (gy - lower)

    def _level_hi(self):
        if self._table is None:
            pos, neg = self._pos_cum, self._neg_cum
            rows = []
            lo, i, j = self._zero, 0, 0
            while i < len(pos) or j < len(neg):
                hi = min(pos[i:i + 1] + neg[j:j + 1])
                rows.append((lo, hi, _side_atom(self._neg_locs, j, NEG_INF),
                             _side_atom(self._pos_locs, i, INF)))
                while i < len(pos) and pos[i] <= hi:
                    i += 1
                while j < len(neg) and neg[j] <= hi:
                    j += 1
                lo = hi
            self._table = tuple(zip(*rows))
        return self._table

    def u_segments(self, x):
        x = _query_number(x)
        if x == 0:
            return [(self._zero, self._one, 0)]
        p = self._mass_map.get(x)
        jump = self._zero if p is None else abs(x) * p
        if jump == 0:
            return [(self._zero, self._one, self.reciprocate(x, 1))]
        _, table_hi, table_a, table_b = self._level_hi()
        base = self._cum(x, False)
        partners = table_a if x > 0 else table_b
        first = min(bisect_right(table_hi, base), len(table_hi) - 1)
        last = bisect_left(table_hi, base + jump, first)
        cuts = [self._zero, *((h - base) / jump for h in table_hi[first:last]),
                self._one]
        return [(u_lo, u_hi, r) for u_lo, u_hi, r
                in zip(cuts, cuts[1:], partners[first:last + 1])
                if u_hi > u_lo]


def same(got, want) -> bool:
    """Equal, and of the same type all the way down."""
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


# --- measures -------------------------------------------------------------

RATIONALS = st.fractions(-20, 20, max_denominator=12)
WEIGHTS = st.lists(st.integers(1, 9), min_size=8, max_size=8)


@st.composite
def measures(draw):
    """A discrete measure of one of four kinds: exact and recentred,
    exact with an atom at zero, exact with a nonzero mean inside the
    default tolerance (one side is spent on the top level piece), or
    float."""
    kind = draw(st.sampled_from(["exact", "zero-atom", "tiny-mean", "float"]))
    locs = draw(st.lists(RATIONALS.filter(bool), min_size=2, max_size=8,
                         unique=True))
    weights = draw(WEIGHTS)[:len(locs)]
    masses = [F(w, sum(weights)) for w in weights]
    if kind == "float":
        return ZeroMeanMeasure.from_atoms(
            [(float(l), float(p)) for l, p in zip(locs, masses)],
            recentre=True)
    mu = ZeroMeanMeasure.from_atoms(zip(locs, masses), recentre=True)
    if kind == "tiny-mean":
        shift = draw(st.sampled_from([-1, 1])) * mu.m / 10 ** 10
        return ZeroMeanMeasure.from_atoms((l + shift, p) for l, p in mu.atoms)
    if kind == "zero-atom":
        q = F(draw(st.integers(1, 9)), 10)
        mu = ZeroMeanMeasure.from_atoms(
            [(l, (1 - q) * p) for l, p in mu.atoms] + [(0, q)])
    return mu


def query_points(mu, extra):
    """Atoms, points between and beyond them, zero, +-inf, and ``extra``
    as given and as a float."""
    atoms = [l for l, _ in mu.atoms]
    between = [(a + b) / 2 for a, b in zip(atoms, atoms[1:])]
    return [*atoms, *between, atoms[0] - 1, atoms[-1] + 1, 0, INF, NEG_INF,
            extra, float(extra)]


def boundary_levels(ref, mu, extra):
    """Every cumulative level of either side, and levels between and
    beyond them."""
    levels = [*ref._pos_cum, *ref._neg_cum]
    return [*levels, *((a + b) / 2 for a, b in zip(levels, levels[1:])),
            0, mu.m, 2 * mu.m, INF, extra]


U_FRACTIONS = st.fractions(0, 1, max_denominator=10**6)

#: mean 10^-12: past the negative total 1/2 only the positive side is live
TINY_MEAN = ZeroMeanMeasure.from_atoms(
    [(-1, "1/2"), (F(1, 2), "1/4"), (F(3, 2) + F(4, 10 ** 12), "1/4")])


def test_tiny_mean_spends_one_side():
    table = TINY_MEAN._level_table()
    assert list(zip(table.a_live, table.b_live)) == [
        (True, True), (True, True), (False, True)]
    assert table.a[-1] == -1


class TestAgainstFractionCurve:
    @settings(max_examples=150)
    @given(measures(), RATIONALS, U_FRACTIONS, st.floats(0, 1),
           st.fractions(0, 30, max_denominator=10**6))
    @example(ZeroMeanMeasure.from_atoms(
        [(-1, "5/10"), (0, "1/10"), (1, "3/10"), (2, "1/10")]),
        F(3, 2), F(3, 5), 0.5, F(3, 10))
    @example(TINY_MEAN, F(1, 2), F(1, 2), 0.5, F(1, 2))
    def test_every_curve_query(self, mu, x_extra, u_extra, u_float, h_extra):
        ref = FractionCurve(mu)
        us = [F(0), F(1), 0, 1, u_extra, u_float]
        for x in query_points(mu, x_extra):
            assert same(mu.g(x), ref.g(x)), x
            assert same(mu.u_segments(x), ref.u_segments(x)), x
            for u in us:
                for name in ("g_tilde", "reciprocate", "regularize",
                             "v_map"):
                    got = getattr(mu, name)(x, u)
                    assert same(got, getattr(ref, name)(x, u)), (name, x, u)
        for h in boundary_levels(ref, mu, h_extra) + [float(h_extra)]:
            assert same(mu.x_plus(h), ref.x_plus(h)), h
            assert same(mu.x_minus(h), ref.x_minus(h)), h

    @settings(max_examples=50)
    @given(measures(), U_FRACTIONS)
    @example(TINY_MEAN, F(1, 2))
    def test_partner_of_the_partner(self, mu, u):
        """The partner's partner at ``v = v_map(x, u)``: queries at points
        and levels that the lattice itself computed."""
        ref = FractionCurve(mu)
        for loc, _ in mu.atoms:
            r, v = mu.reciprocate(loc, u), mu.v_map(loc, u)
            assert same(mu.reciprocate(r, v), ref.reciprocate(r, v))


# --- a large lattice ------------------------------------------------------

def primes(count):
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


def test_involution_on_distinct_prime_denominators():
    """Recentred atoms with distinct prime denominators make D the
    product of all of them; the involution holds exactly on that
    lattice."""
    ps = primes(500)
    atoms = [(F((-1) ** i * (i + 1), p), F(1, len(ps)))
             for i, p in enumerate(ps)]
    mu = ZeroMeanMeasure.from_atoms(atoms, recentre=True)
    assert math.prod(ps) <= mu._unit
    for u in (F(1, 2), F(2, 7)):
        for loc, _ in mu.atoms:
            r, v = mu.reciprocate(loc, u), mu.v_map(loc, u)
            assert 0 <= v <= 1
            assert mu.reciprocate(r, v) == mu.regularize(loc, u)
    ref = FractionCurve(mu)
    for loc, _ in mu.atoms[::50]:
        assert same(mu.v_map(loc, F(1, 2)), ref.v_map(loc, F(1, 2)))
        assert same(mu.u_segments(loc), ref.u_segments(loc))


# --- tie counting in from_samples ----------------------------------------

class TestSampleTies:
    def test_integer_ties_are_counted(self):
        values = [1, -1, 1, 0, -1, -1, 1, "1", F(-1)]  # sum zero
        mu = ZeroMeanMeasure.from_samples(values)
        assert mu.atoms == ((-1, F(4, 9)), (0, F(1, 9)), (1, F(4, 9)))
        assert all(type(v) is F for atom in mu.atoms for v in atom)

    def test_same_measure_as_one_atom_per_sample(self):
        values = [5, -2, -2, 7, -2, 0, 5, -11]
        n = len(values)
        want = ZeroMeanMeasure.from_atoms([(v, F(1, n)) for v in values],
                                          recentre=True)
        assert ZeroMeanMeasure.from_samples(values).atoms == want.atoms

    def test_float_ties_add_their_weights_in_turn(self):
        w = 1.0 / 7
        mu = ZeroMeanMeasure.from_samples([1.5] * 6 + [-9.0])
        assert dict(mu.atoms)[1.5] == sum([w] * 6)

    @pytest.mark.parametrize("values", [[1, True], [[1], 2], [2, None]])
    def test_entries_that_are_no_numbers(self, values):
        with pytest.raises(InputError):
            ZeroMeanMeasure.from_samples(values)
