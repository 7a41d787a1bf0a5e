"""The cumulative curve, its inverses, and the randomized pairing."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import (INF, NEG_INF, ZeroMeanMeasure, cli, cost_from_spec,
                      family_from_spec, measure, modeling, optimal)
from twopoint.errors import (BadMass, DegenerateAtZero, EmptySample,
                             ConstantSample, InputError, NegativeH,
                             NonZeroMean, NotDiscrete, TwopointError)


class TestConstruction:
    def test_exact_atoms(self, four_atom):
        assert four_atom.is_exact
        assert four_atom.m == F(1, 2)
        assert four_atom.prob_zero == F(1, 10)
        assert four_atom.prob_positive == F(2, 5)
        assert four_atom.prob_negative == F(1, 2)

    def test_float_atoms_not_exact(self):
        mu = ZeroMeanMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        assert not mu.is_exact
        assert float(mu.m) == 0.5

    def test_duplicate_atoms_merge(self):
        mu = ZeroMeanMeasure.from_atoms(
            [(-1, "1/4"), (-1, "1/4"), (1, "1/2")])
        assert dict(mu.atoms)[F(-1)] == F(1, 2)

    def test_nonzero_mean_rejected(self):
        with pytest.raises(NonZeroMean):
            ZeroMeanMeasure.from_atoms([(-1, "1/4"), (1, "3/4")])

    def test_recentre_fixes_mean(self):
        mu = ZeroMeanMeasure.from_atoms([(0, "1/2"), (1, "1/2")],
                                        recentre=True)
        assert dict(mu.atoms) == {F(-1, 2): F(1, 2), F(1, 2): F(1, 2)}

    def test_bad_masses(self):
        with pytest.raises(BadMass):
            ZeroMeanMeasure.from_atoms([(-1, "1/2"), (1, "1/4")])
        with pytest.raises(BadMass):
            ZeroMeanMeasure.from_atoms([(-1, -0.5), (1, 1.5)])

    def test_degenerate_at_zero(self):
        with pytest.raises(DegenerateAtZero):
            ZeroMeanMeasure.from_atoms([(0, 1)])

    def test_empty(self):
        with pytest.raises(EmptySample):
            ZeroMeanMeasure.from_atoms([])
        with pytest.raises(EmptySample):
            ZeroMeanMeasure.from_samples([])

    def test_constant_samples(self):
        with pytest.raises(ConstantSample):
            ZeroMeanMeasure.from_samples([3, 3, 3])

    def test_from_samples_recentres(self):
        mu = ZeroMeanMeasure.from_samples([1, 2, 3, 6])
        assert mu.is_exact
        assert dict(mu.atoms)[F(-2)] == F(1, 4)
        assert mu.m == F(3, 4)

    def test_recentring_merges_what_it_rounds_together(self):
        # 0 and 2^-52 both round to -7/3 once the mean 7/3 is subtracted
        mu = ZeroMeanMeasure.from_samples([0.0, 7.0, 2.220446049250313e-16])
        assert mu.atoms == ((-2.333333333333333, 0.6666666666666666),
                            (4.666666666666667, 0.3333333333333333))
        assert len(mu._float_levels.jump) == 2

    @pytest.mark.parametrize("n", [36_217, 100_000])
    def test_any_count_of_float_samples(self, n):
        # n copies of the float 1/n summed left to right miss 1 by up to
        # about n 2^-53, past the mass tolerance from n = 36 217 on
        xs = np.random.default_rng(17).standard_t(3, size=n)
        mu = ZeroMeanMeasure.from_samples(xs)
        assert len(mu.atoms) == n

    def test_one_location_left_by_recentring(self):
        with pytest.raises(ConstantSample):
            ZeroMeanMeasure.from_samples([2.5] * 50_000)
        with pytest.raises(ConstantSample):
            ZeroMeanMeasure.from_atoms([(3, 1)], recentre=True)
        with pytest.raises(ConstantSample):
            ZeroMeanMeasure.from_samples([1, 1.0, "1", F(1)])
        with pytest.raises(InputError, match="must be finite"):
            ZeroMeanMeasure.from_samples([math.inf, math.inf])


class TestCurve:
    def test_g_values(self, four_atom):
        g = four_atom.g
        assert g(F(1, 2)) == 0
        assert g(1) == F(3, 10)
        assert g(F(3, 2)) == F(3, 10)
        assert g(2) == F(1, 2)
        assert g(10) == F(1, 2)
        assert g(INF) == F(1, 2)
        assert g(F(-1, 2)) == 0
        assert g(-1) == F(1, 2)
        assert g(NEG_INF) == F(1, 2)

    def test_g_tilde_interpolates(self, four_atom):
        gt = four_atom.g_tilde
        assert gt(1, 0) == 0
        assert gt(1, 1) == F(3, 10)
        assert gt(1, F(1, 2)) == F(3, 20)
        assert gt(2, F(1, 2)) == F(2, 5)
        assert gt(-1, F(1, 2)) == F(1, 4)
        # off-atom points carry no jump
        assert gt(F(3, 2), F(1, 4)) == F(3, 10)

    def test_inverses(self, four_atom):
        xp, xm = four_atom.x_plus, four_atom.x_minus
        assert xp(0) == 0 and xm(0) == 0
        assert xp(F(1, 5)) == 1
        assert xp(F(3, 10)) == 1
        assert xp(F(31, 100)) == 2
        assert xp(F(1, 2)) == 2
        assert xp(F(51, 100)) == INF
        assert xm(F(1, 5)) == -1
        assert xm(F(1, 2)) == -1
        assert xm(F(51, 100)) == NEG_INF

    def test_negative_h_rejected(self, four_atom):
        with pytest.raises(NegativeH):
            four_atom.x_plus(-0.1)

    def test_h_identity_exact(self, four_atom):
        for k in range(11):
            h = F(k, 10)
            assert four_atom.h_plus(h) == min(h, four_atom.m)
            assert four_atom.h_minus(h) == min(h, four_atom.m)

    def test_nan_rejected(self, four_atom):
        with pytest.raises(InputError):
            four_atom.g(float("nan"))


def piece_sum(mu, h, sign):
    """``E[|X| 1{sign X > 0, g_tilde(X, U) <= h}]`` summed piece by piece
    over one side's cumulative list: the sum that ``h_plus`` and
    ``h_minus`` close to ``min(h, side total)``."""
    cum = mu._pos_cum if sign > 0 else mu._neg_cum
    key = F(h) * mu._unit if mu.is_exact and h != INF else h
    total = sum((min(c, key) - prev for prev, c in zip(cum, cum[1:])
                 if key > prev), cum[0])
    return F(total, mu._unit) if mu.is_exact else total / mu._unit


def grid_h_identity(mu, count=50):
    """The level identity probed on ``count`` levels from 0 to ``2 m``
    through :func:`piece_sum`, within ``1e-12 (1 + m)``."""
    m = float(mu.m)
    return all(abs(float(piece_sum(mu, h, sign)) - min(h, m))
               <= 1e-12 * (1.0 + m)
               for h in np.linspace(0.0, 2.0 * m, count) for sign in (1, -1))


@st.composite
def exact_measures(draw):
    """An exact measure, recentred or left with a mean residual inside
    the default tolerance."""
    locs = draw(st.lists(st.fractions(-20, 20, max_denominator=12)
                         .filter(bool), min_size=2, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(locs),
                            max_size=len(locs)))
    mu = ZeroMeanMeasure.from_atoms(
        [(l, F(w, sum(weights))) for l, w in zip(locs, weights)],
        recentre=True)
    shift = draw(st.sampled_from([0, 1, -1])) * mu.m / 10 ** 10
    return ZeroMeanMeasure.from_atoms((l + shift, p) for l, p in mu.atoms)


class TestLevelIdentity:
    @given(exact_measures(), st.fractions(0, 30, max_denominator=10 ** 6),
           st.floats(0, 30))
    def test_closed_form_is_the_piece_sum(self, mu, h_frac, h_float):
        levels = [F(c, mu._unit) for c in (*mu._pos_cum, *mu._neg_cum)]
        levels += [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        for h in [*levels, 0, mu.m, 2 * mu.m, INF, h_frac, h_float]:
            assert mu.h_plus(h) == piece_sum(mu, h, 1), h
            assert mu.h_minus(h) == piece_sum(mu, h, -1), h
            assert type(mu.h_plus(h)) is F

    def test_verify_matches_the_level_grid(self, tmp_path, capsys):
        """``verify`` checks the identity at ``h = inf`` alone; on exact
        measures it agrees with a 50-level grid, also where a mean
        residual inside the tolerance makes the identity fail."""
        rng = np.random.default_rng(2026)
        seen = set()
        for _ in range(60):
            k = int(rng.integers(2, 9))
            locs = {F(int(n), int(d)) for n, d in
                    zip(rng.integers(-40, 41, k), rng.integers(1, 13, k))}
            locs = sorted(locs - {0})
            weights = rng.integers(1, 10, len(locs)).tolist()
            if len(locs) < 2:
                locs, weights = [F(-1), F(1)], [1, 1]
            mu = ZeroMeanMeasure.from_atoms(
                [(l, F(w, sum(weights))) for l, w in zip(locs, weights)],
                recentre=True)
            # a relative mean residual from 1e-16 up to the tolerance 1e-9
            shift = mu.m * F(int(rng.choice([-1, 1]))) / 10 ** int(
                rng.integers(9, 17))
            mu = ZeroMeanMeasure.from_atoms(
                (l + shift, p) for l, p in mu.atoms)
            src = tmp_path / "mu.json"
            src.write_text(json.dumps(
                {"atoms": [[str(l), str(p)] for l, p in mu.atoms]}))
            cli.main(["verify", "--input", str(src)])
            got = json.loads(capsys.readouterr().out)["checks"]
            assert got["h_identity"] == grid_h_identity(mu), mu.atoms
            seen.add(got["h_identity"])
        assert seen == {True, False}


class TestPairing:
    def test_displayed_partner_of_minus_one(self, four_atom):
        r = four_atom.reciprocate
        assert r(-1, F(1, 10)) == 1
        assert r(-1, F(3, 5)) == 1
        assert r(-1, F(3, 5) + F(1, 1000)) == 2
        assert r(-1, 1) == 2

    def test_other_partners(self, four_atom):
        r = four_atom.reciprocate
        for u in (F(1, 4), F(1, 2), 1):
            assert r(1, u) == -1
            assert r(2, u) == -1
            assert r(0, u) == 0

    def test_regularize_is_identity_off_zero_u(self, four_atom):
        for loc, _ in four_atom.atoms:
            for u in (F(1, 100), F(1, 2), 1):
                assert four_atom.regularize(loc, u) == loc

    def test_u_zero_boundary(self, four_atom):
        # at u = 0 the level collapses to the open end of the atom's
        # span, which belongs to the next atom inward
        assert four_atom.reciprocate(-1, 0) == 0
        assert four_atom.regularize(1, 0) == 0

    @given(st.integers(1, 999))
    def test_v_map_involution(self, num):
        mu = ZeroMeanMeasure.from_atoms(
            [(-1, "5/10"), (0, "1/10"), (1, "3/10"), (2, "1/10")])
        u = F(num, 1000)
        for loc, _ in mu.atoms:
            r = mu.reciprocate(loc, u)
            v = mu.v_map(loc, u)
            assert 0 <= v <= 1
            assert mu.reciprocate(r, v) == mu.regularize(loc, u)

    def test_u_segments_partition(self, four_atom):
        for loc, _ in four_atom.atoms:
            segs = four_atom.u_segments(loc)
            lo = F(0)
            for start, stop, partner in segs:
                assert start == lo
                mid = (start + stop) / 2
                assert four_atom.reciprocate(loc, mid) == partner
                lo = stop
            assert lo == 1


class _Float(float):
    """A float subclass, which the parser turns into a plain float."""


class TestChecksOnce:
    """Each public map parses and range-checks each argument once; the
    nested steps take the numbers as checked."""

    @pytest.mark.parametrize("name", ["g_tilde", "reciprocate",
                                      "regularize", "v_map"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("u", [F(1, 3), 1 / 3], ids=["u-exact", "u-float"])
    def test_one_check_per_argument(self, monkeypatch, name, exact, u):
        atoms = [(-1, "5/10"), (0, "1/10"), (1, "3/10"), (2, "1/10")]
        if not exact:
            atoms = [(float(l), float(F(p))) for l, p in atoms]
        mu = ZeroMeanMeasure.from_atoms(atoms)
        calls = []
        for fn in ("_check_u", "_query_number"):
            def counted(v, _fn=getattr(measure, fn), _name=fn):
                calls.append(_name)
                return _fn(v)
            monkeypatch.setattr(measure, fn, counted)
        getattr(mu, name)(mu.atoms[2][0], u)
        assert sorted(calls) == ["_check_u", "_query_number",
                                 "_query_number"]

    @pytest.mark.parametrize("kind", ["float", "int"])
    def test_samples_parsed_once(self, count_calls, kind):
        # from_atoms parses each location and its mass; from_samples
        # hands it the raw entries
        xs = np.random.default_rng(3).standard_t(3, size=500)
        if kind == "int":
            xs = np.round(100 * xs).astype(int)
        calls = count_calls(measure, "_as_number")
        ZeroMeanMeasure.from_samples(xs)
        assert len(calls) == 2 * len(set(xs.tolist()))

    @pytest.mark.parametrize("value", [
        0.1, -0.0, math.inf, -math.inf, math.nan, np.float64(0.1),
        np.float32(0.1), _Float(0.1), True, np.bool_(False)],
        ids=["float", "negative-zero", "inf", "minus-inf", "nan", "float64",
             "float32", "float-subclass", "bool", "numpy-bool"])
    def test_floats_keep_their_face_value(self, value):
        # a plain float returns as it came, ahead of the other checks;
        # any other float type turns into a plain float of the same bits
        if isinstance(value, (bool, np.bool_)):
            with pytest.raises(InputError):
                measure._as_number(value)
            return
        got = measure._as_number(value)
        assert type(got) is float
        assert got.hex() == float(value).hex()
        assert got is value or type(value) is not float


RANK_GRID = [-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]


class TestDistribution:
    def test_cdf(self, four_atom):
        cdf = four_atom.cdf
        assert cdf(-2) == 0
        assert cdf(-1) == F(1, 2)
        assert cdf(0) == F(3, 5)
        assert cdf(1) == F(9, 10)
        assert cdf(2) == 1
        assert four_atom.cdf_left(-1) == 0
        assert four_atom.cdf_left(2) == F(9, 10)

    def test_f_tilde(self, four_atom):
        ft = four_atom.f_tilde
        assert ft(-1, 0) == 0
        assert ft(-1, 1) == F(1, 2)
        assert ft(2, F(1, 2)) == F(19, 20)

    def test_symmetry_flag(self, four_atom, symmetric_four):
        assert not four_atom.is_symmetric()
        assert symmetric_four.is_symmetric()

    def test_half_mean_beyond_float_range(self):
        big = 10 ** 400
        mu = ZeroMeanMeasure.from_atoms([(-big, "1/2"), (big, "1/2")])
        assert repr(mu) == "ZeroMeanMeasure(discrete, 2 atoms, m=~5E+399)"
        assert mu.is_symmetric()
        skew = ZeroMeanMeasure.from_atoms([(-big, "2/3"), (2 * big, "1/3")])
        assert not skew.is_symmetric()

    def test_sampling(self, four_atom, rng):
        draws = four_atom.sample(4000, rng)
        vals, counts = np.unique(draws, return_counts=True)
        assert set(vals) <= {-1.0, 0.0, 1.0, 2.0}
        assert abs(counts[vals == -1.0][0] / 4000 - 0.5) < 0.05

    # edges and keys drawn from one small grid hit duplicate edges, keys
    # equal to an edge, repeated keys and -0.0 against 0.0; floats of any
    # size give spans that overflow or round to nothing
    @given(st.lists(st.sampled_from(RANK_GRID) | st.floats(-4, 4)
                    | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=30),
           st.lists(st.sampled_from(RANK_GRID) | st.floats(-4, 4)
                    | st.floats(allow_nan=False, allow_infinity=False),
                    max_size=60))
    @example([0.0], [-0.0, 0.0, 0.0, -1.0, 1.0])
    @example([-0.0, 0.0, 0.0, 1.0], [])
    @example([-1e308, 1e308], [-1.7e308, 0.0, 1e308, 1.7e308])
    @example([5e-324, 1e-323], [0.0, 5e-324, 1e-323, 1.0])
    @example([1e10, 1e10 + 1e-5], [1e10, 1e10 + 5e-6, 1e10 + 1e-5])
    def test_ranks_are_searchsorted(self, edges, keys):
        edges, keys = np.sort(edges), np.array(keys, dtype=float)
        for side in ("left", "right"):
            got = measure._ranks(edges, keys, side)
            want = np.searchsorted(edges, keys, side)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), side

    def test_json_round_trip(self, four_atom):
        back = ZeroMeanMeasure.from_jsonable(four_atom.to_jsonable())
        assert back.atoms == four_atom.atoms
        assert back.is_exact

    def test_json_rejects_strings_inward(self):
        with pytest.raises(InputError):
            ZeroMeanMeasure.from_jsonable(
                {"backend": "discrete", "atoms": [["inf", 0.5], [1, 0.5]]})

    def test_json_backend_is_optional(self, four_atom):
        back = ZeroMeanMeasure.from_jsonable(
            {"atoms": four_atom.to_jsonable()["atoms"]})
        assert back.atoms == four_atom.atoms
        assert back.is_exact
        with pytest.raises(InputError, match="backend"):
            ZeroMeanMeasure.from_jsonable(
                {"backend": "analytic", "atoms": [[-1, 0.5], [1, 0.5]]})


class TestAnalytic:
    def test_uniform_inverses(self):
        # uniform on [-1, 1]: G(x) = x^2 / 4 on either side
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        assert abs(mu.x_plus(0.04) - 0.4) < 1e-9
        assert abs(mu.x_minus(0.04) + 0.4) < 1e-9
        for x in (-0.8, -0.3, 0.2, 0.9):
            assert abs(mu.reciprocate(x, 0.5) + x) < 1e-6

    def test_shifted_exponential(self):
        # unit exponential shifted to mean zero
        def g(x):
            return math.exp(-1.0) * (1.0 - (1.0 + x) * math.exp(-x)) \
                if x >= -1.0 else 0.0

        m = math.exp(-1.0)
        mu = ZeroMeanMeasure.analytic(g, m, (-1.0, INF))
        assert abs(mu.x_plus(g(2.0)) - 2.0) < 1e-6
        r = mu.reciprocate(2.0, 0.5)
        assert -1.0 < r < 0.0
        assert abs(mu.reciprocate(r, 0.5) - 2.0) < 1e-5
        # levels above the reach of the positive side
        assert mu.x_plus(m * (1 + 1e-6)) == INF

    def test_inverse_past_the_doubling_search(self):
        # G reaches 1/2 only at |x| = 1e301, beyond the search's 1e300
        mu = ZeroMeanMeasure.analytic(lambda x: abs(x) / (abs(x) + 1e301),
                                      1.0, (NEG_INF, INF))
        assert mu.x_plus(0.5) == INF
        assert mu.x_minus(0.5) == NEG_INF
        assert mu.x_plus(1e-300) == pytest.approx(10.0, rel=1e-9)

    def test_level_past_a_short_endpoint(self):
        # G ends at 0.4 at either end of the support, short of m = 0.5
        mu = ZeroMeanMeasure.analytic(lambda x: 0.4 * x * x, 0.5,
                                      (-1.0, 1.0))
        assert mu.x_plus(0.45) == INF
        assert mu.x_minus(0.45) == NEG_INF
        # a shortfall within 1e-9 is read as round-off at the endpoint
        assert mu.x_plus(0.4 + 1e-10) == pytest.approx(1.0, rel=1e-9)

    def test_symmetric_probe(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        assert mu.is_symmetric()

    def test_uniform_has_no_atoms(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4, 0.25, (-1, 1))
        assert mu.v_map(0.5) == 1.0
        assert mu.u_segments(0.5) == [(0.0, 1.0, -0.5)]
        assert mu.support == (-1.0, 1.0)
        assert mu.mass_at(0.5) == 0.0
        assert repr(mu) == "ZeroMeanMeasure(analytic, m=0.25)"
        with pytest.raises(NotDiscrete):
            mu.cdf(0.5)

    @pytest.mark.parametrize("x", [NEG_INF, -1, -0.5, 0, 0.5, 1, INF])
    def test_atomless_curve_on_the_shared_path(self, x):
        """An analytic measure answers as a curve with no atoms: float
        levels, no jump to split, and ``v = 1``."""
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4, 0.25, (-1, 1))
        level = min(float(x) ** 2 / 4, 0.25)
        partner = -min(max(float(x), -1.0), 1.0)

        def is_float(v, want):
            return type(v) is float and v == want

        assert is_float(mu.g(x), level)
        for u in (0, F(1, 3), 1):
            assert is_float(mu.g_tilde(x, u), level)
            assert is_float(mu.v_map(x, u), 1.0)
            assert mu.reciprocate(x, u) == pytest.approx(partner, abs=1e-9)
        [(u_lo, u_hi, r)] = mu.u_segments(x)
        assert is_float(u_lo, 0.0) and is_float(u_hi, 1.0)
        assert r == pytest.approx(partner, abs=1e-9)
        assert type(mu.mass_at(x)) is float
        assert mu.mass_at(x) == (mu.prob_zero if x == 0 else 0.0)
        assert mu.support == (-1, 1)

    def test_uniform_has_no_mass_at_zero(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4, 0.25, (-1, 1))
        assert 0.0 <= mu.prob_zero < 1e-9
        assert 0.0 <= mu.mass_at(0) < 1e-9

    def test_mass_at_zero_is_integrated_once(self):
        calls = []

        def g(x):
            calls.append(x)
            return x * x / 4

        mu = ZeroMeanMeasure.analytic(g, 0.25, (-1, 1))
        first = mu.prob_zero
        assert calls
        calls.clear()
        assert mu.prob_zero == first
        assert mu.mass_at(0) == first
        assert calls == []


NAN_CURVE = ZeroMeanMeasure.analytic(lambda x: math.nan, 1, (-1, 1))


@pytest.mark.parametrize("call, error", [
    (lambda mu: mu.reciprocate(1, 1.5), InputError),
    (lambda mu: mu.f_tilde(1, F(-1, 2)), InputError),
    (lambda mu: ZeroMeanMeasure.from_atoms([(-1, "1/2"), 1]), InputError),
    (lambda mu: ZeroMeanMeasure.from_atoms([(-1, 0.5), (1, math.inf)]),
     BadMass),
    (lambda mu: ZeroMeanMeasure.analytic(abs, 0, (-1, 1)), InputError),
    (lambda mu: ZeroMeanMeasure.analytic(abs, 1, (0.5, 1)), InputError),
    (lambda mu: NAN_CURVE.g(0.5), InputError),
    (lambda mu: ZeroMeanMeasure.from_jsonable({"backend": "discrete"}),
     InputError),
], ids=["u-above-one", "u-below-zero", "entry-not-a-pair", "infinite-mass",
        "half-mean-zero", "support-one-sided", "curve-returns-nan",
        "no-atoms-list"])
def test_input_checks(four_atom, call, error):
    with pytest.raises(error):
        call(four_atom)


#: each parameter of each kind that a spec names: the reader, the spec's
#: tag, the kind, the parameter and the kind's required parameters
SPEC_PARAMS = [
    (read, tag, kind, key, {k: 1 for k, v in defaults.items() if v is None})
    for read, tag, kinds in [(family_from_spec, "family", modeling._FAMILIES),
                             (cost_from_spec, "kind", optimal._COSTS)]
    for kind, (_, defaults) in kinds.items() for key in defaults]


def _spec_param(kind, key):
    return next(p for p in SPEC_PARAMS if p[2:4] == (kind, key))


@settings(max_examples=300)
@given(st.sampled_from(SPEC_PARAMS), st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(["2", " -0.5 ", "1e400", "inf", "-inf", "nan", "3/10",
                     "pos_over_neg", "neg_over_pos"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)))
@example(_spec_param("two_slope", "kappa"), "2")
@example(_spec_param("abs_sum_pow", "p"), "2")
@example(_spec_param("power", "p"), 10 ** 400)
@example(_spec_param("ratio_pow", "side"), ["neg_over_pos"])
def test_spec_value_builds_or_is_one_error(param, value):
    # any JSON value of any parameter builds, or raises one TwopointError;
    # a string that float reads builds what its float builds
    read, tag, kind, key, required = param

    def outcome(v):
        try:
            return read({tag: kind, **required, key: v}).label
        except TwopointError as exc:
            return type(exc)

    got = outcome(value)
    if isinstance(value, str) and key != "side":
        try:
            number = float(value)
        except ValueError:
            assert got is InputError
        else:
            assert got == outcome(number)
