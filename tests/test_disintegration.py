"""Two-point mixtures: decomposition, sampling, and the level pieces."""

import gc
import math
import weakref
from bisect import bisect_left
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twopoint import disintegration
from twopoint import (MIXTURE_MODES, ZeroMeanMeasure,
                      alternative_disintegration, component_ratio_moment,
                      decompose, joint_disintegrate, mixture_expect,
                      norm_report, ratio_moments, sample_pairs,
                      side_masses_from_levels, tilt, TiltedAtoms,
                      two_point, uniformity_check)
from twopoint.errors import (DimensionMismatch, InputError, NotDiscrete,
                             SameSign)
from twopoint.measure import LevelTable


class TestTwoPoint:
    def test_order_normalized(self):
        law = two_point(2, -1)
        assert (law.a, law.b) == (F(-1), F(2))
        assert law.p_a == F(2, 3)
        assert law.p_b == F(1, 3)
        assert law.expect(lambda x: x) == 0

    def test_same_sign_rejected(self):
        with pytest.raises(SameSign):
            two_point(1, 2)
        with pytest.raises(SameSign):
            two_point(-3, -1)

    def test_degenerate(self):
        law = two_point(0, 0)
        assert law.is_degenerate
        assert law.p_a == 1
        law = two_point(0, 5)
        assert law.is_degenerate
        assert law.mean_positive_part == 0

    def test_sides_at_any_scale(self):
        # the product of the endpoints underflows to zero here
        with pytest.raises(SameSign):
            two_point(1e-200, 1e-200)
        with pytest.raises(SameSign):
            two_point(-5e-324, -1e-200)
        law = two_point(1e-200, -1e-200)
        assert (law.a, law.b) == (-1e-200, 1e-200)
        assert law.p_a == law.p_b == 0.5
        assert two_point(-5e-324, 0.0).is_degenerate


def _scaled(scale):
    return ZeroMeanMeasure.from_atoms(
        [(-1 * scale, 0.25), (-3 * scale, 0.25), (2 * scale, 0.5)])


@pytest.mark.parametrize("scale", [1e-170, 3e-162],
                         ids=["product-underflows", "product-subnormal"])
class TestTinyScale:
    """Endpoints whose float products fall below the normal range give
    the laws and moments of the unit-scale measure."""

    def test_decomposition_reassembles(self, scale):
        mu = _scaled(scale)
        got = decompose(mu).reassembled_atoms()
        assert sorted(got) == sorted(dict(mu.atoms))
        for loc, mass in mu.atoms:
            assert math.isclose(got[loc], mass, rel_tol=1e-12)

    def test_mixture_routes_agree(self, scale):
        mu = _scaled(scale)
        want = mixture_expect(mu, abs, "direct")
        for mode in MIXTURE_MODES:
            assert math.isclose(mixture_expect(mu, abs, mode), want,
                                rel_tol=1e-12)

    def test_ratio_moment_is_scale_free(self, scale):
        unit = ratio_moments(_scaled(1.0)).er_over_x
        assert math.isclose(ratio_moments(_scaled(scale)).er_over_x, unit,
                            rel_tol=1e-12)


class TestHugeScale:
    """Float endpoints whose product or squared sum passes the float
    maximum give the moment of the unit-scale law; the plain form keeps
    its bits wherever it is finite."""

    def test_ratio_moment_is_scale_free(self):
        # (a + b)^2 overflows, and so does a b
        unit = ratio_moments(_scaled(1.0)).er_over_x
        assert math.isclose(ratio_moments(_scaled(1e200)).er_over_x, unit,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("a, b, want", [
        (-1e-10, 1e200, -1e210),  # only the square overflows
        (-1.2e154, 2e154, -1 - 0.8 ** 2 / 2.4),  # only a b overflows
    ], ids=["square", "product"])
    def test_one_part_overflows(self, a, b, want):
        assert math.isclose(component_ratio_moment(two_point(a, b)), want,
                            rel_tol=1e-12)

    # at these magnitudes a b stays normal and (a + b)^2 finite
    @given(st.floats(-1e153, -1e-153), st.floats(1e-153, 1e153))
    @settings(max_examples=200)
    def test_plain_form_keeps_its_bits(self, a, b):
        want = -1 + (a + b) ** 2 / (a * b)
        assert component_ratio_moment(two_point(a, b)).hex() == want.hex()


class TestDecompose:
    def test_worked_weights(self, four_atom):
        dec = decompose(four_atom)
        got = {(law.a, law.b): w for w, law in dec.components}
        assert got == {(F(-1), F(1)): F(3, 5),
                       (F(-1), F(2)): F(3, 10),
                       (F(0), F(0)): F(1, 10)}

    def test_reassembles(self, four_atom, symmetric_four, third_discrete):
        for mu in (four_atom, symmetric_four, third_discrete):
            dec = decompose(mu)
            assert dict(dec.reassembled_atoms()) == dict(mu.atoms)

    def test_expect_matches_measure(self, third_discrete):
        dec = decompose(third_discrete)
        direct = sum(p * l * l for l, p in third_discrete.atoms)
        assert dec.expect(lambda x: x * x) == direct

    def test_json_round_trip(self, four_atom):
        dec = decompose(four_atom)
        back = alternative_disintegration(
            four_atom, [(c["w"], c["a"], c["b"])
                        for c in dec.to_jsonable()["components"]])
        assert back == dec

    def test_not_discrete(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        with pytest.raises(NotDiscrete):
            decompose(mu)

    def test_tilt_and_uniformity_not_discrete(self, rng):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        for which in ("Y", "Y_plus", "Y_minus"):
            with pytest.raises(NotDiscrete):
                tilt(mu, which)
        for which in ("G_tilde_Y", "F_tilde_X"):
            with pytest.raises(NotDiscrete):
                uniformity_check(mu, which, 10, rng=rng)

    def test_sampling_not_discrete(self, rng):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        with pytest.raises(NotDiscrete):
            mu.sample(10, rng)
        with pytest.raises(NotDiscrete, match="sample_pairs"):
            sample_pairs(mu, 10, rng)
        with pytest.raises(NotDiscrete):
            ratio_moments(mu)


@st.composite
def small_exact_measures(draw):
    """Measures with a few integer atoms and rational masses."""
    n = draw(st.integers(2, 4))
    locs = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n,
                         unique=True))
    wts = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    total = sum(wts)
    atoms = [(l, F(w, total)) for l, w in zip(locs, wts)]
    mean = sum(l * p for l, p in atoms)
    atoms = [(l - mean, p) for l, p in atoms]
    assume(any(l != 0 for l, _ in atoms))
    return ZeroMeanMeasure.from_atoms(atoms)


class TestMixtureModes:
    @given(small_exact_measures())
    @settings(max_examples=60)
    def test_all_modes_agree_exactly(self, mu):
        for g in (lambda x: x * x, abs, lambda x: 1 if x > 0 else 0):
            want = mixture_expect(mu, g, "direct")
            for mode in MIXTURE_MODES:
                assert mixture_expect(mu, g, mode) == want

    def test_unknown_mode(self, four_atom):
        with pytest.raises(InputError):
            mixture_expect(four_atom, abs, "sideways")

    def test_side_masses(self, four_atom):
        p_pos, p_neg = side_masses_from_levels(four_atom)
        assert p_pos == F(2, 5)
        assert p_neg == F(1, 2)

    @given(small_exact_measures())
    @settings(max_examples=60)
    def test_level_integrals_exact(self, mu):
        assert side_masses_from_levels(mu) == (mu.prob_positive,
                                               mu.prob_negative)
        # against the canonical mixture taken as an alternative, every
        # panel cost must come out exactly the same
        for row in norm_report(mu, decompose(mu)).rows:
            assert row.canonical == row.alternative

    def test_analytic_side_masses(self):
        uniform = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                           (-1.0, 1.0))
        p_pos, p_neg = side_masses_from_levels(uniform)
        assert abs(p_pos - 0.5) < 1e-9 and abs(p_neg - 0.5) < 1e-9

        # unit exponential shifted to mean zero
        def g(x):
            return math.exp(-1.0) * (1.0 - (1.0 + x) * math.exp(-x)) \
                if x >= -1.0 else 0.0

        shifted = ZeroMeanMeasure.analytic(g, math.exp(-1.0),
                                           (-1.0, math.inf))
        p_pos, p_neg = side_masses_from_levels(shifted)
        assert abs(p_pos - math.exp(-1.0)) < 1e-9
        assert abs(p_neg - (1.0 - math.exp(-1.0))) < 1e-9

    def test_analytic_mode(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        # E X^2 under uniform on [-1, 1]
        assert abs(mixture_expect(mu, lambda x: x * x) - 1.0 / 3.0) < 1e-9


class TestRatioLaws:
    def test_component_values(self, four_atom):
        by_pair = {
            (law.a, law.b): component_ratio_moment(law)
            for _w, law in decompose(four_atom).components}
        assert by_pair[(F(-1), F(1))] == -1
        assert by_pair[(F(-1), F(2))] == F(-3, 2)
        assert by_pair[(F(0), F(0))] == -1

    def test_aggregate_exact(self, four_atom, symmetric_four):
        mom = ratio_moments(four_atom)
        assert mom.ex_over_r == -1
        assert mom.er_over_x == F(-23, 20)
        assert ratio_moments(symmetric_four).er_over_x == -1

    def test_monte_carlo_close(self, four_atom, rng):
        mom = ratio_moments(four_atom)
        xs, rs, _us = sample_pairs(four_atom, 200_000, rng)
        keep = xs != 0
        assert abs((xs[keep] / rs[keep]).mean() + 1.0) < 0.02
        assert abs((rs[keep] / xs[keep]).mean() - float(mom.er_over_x)) < 0.02


class TestSamplingAndTilts:
    def test_pair_sampler_matches_segments(self, four_atom, rng):
        xs, rs, _ = sample_pairs(four_atom, 100_000, rng)
        # partner split of the -1 atom: 1 below u = 3/5, then 2
        mask = xs == -1.0
        frac_one = (rs[mask] == 1.0).mean()
        assert abs(frac_one - 0.6) < 0.02
        assert set(np.unique(rs[xs == 1.0])) == {-1.0}

    def test_tilts(self, four_atom):
        t = tilt(four_atom, "Y")
        got = dict(zip(t.locations, t.probs))
        assert got == {F(-1): F(1, 2), F(1): F(3, 10), F(2): F(1, 5)}
        tp = tilt(four_atom, "Y_plus")
        assert dict(zip(tp.locations, tp.probs)) == {F(1): F(3, 5),
                                                     F(2): F(2, 5)}
        tm = tilt(four_atom, "Y_minus")
        assert dict(zip(tm.locations, tm.probs)) == {F(-1): F(1)}

    def test_tilt_rejects_unknown(self, four_atom):
        with pytest.raises(InputError):
            tilt(four_atom, "Z")

    @pytest.mark.parametrize("which", ["G_tilde_Y", "F_tilde_X"])
    def test_uniformity(self, four_atom, which):
        rep = uniformity_check(four_atom, which, n=20_000,
                               rng=np.random.default_rng(7))
        assert rep.passed, (rep.statistic, rep.critical)

    def test_joint_identity(self, four_atom, third_discrete, rng):
        # E|X1 R1| = 3/5 + 3/5 = 1.2 and E X2^2 = 14/5, so both sides
        # should land near 4.0
        lhs, rhs = joint_disintegrate(
            [four_atom, third_discrete],
            lambda x1, r1, x2, r2: np.abs(x1 * r1) + x2 * x2,
            60_000, rng)
        assert abs(lhs - 4.0) < 0.1
        assert abs(rhs - 4.0) < 0.1

    def test_joint_dimension_mismatch(self, four_atom, third_discrete, rng):
        with pytest.raises(DimensionMismatch):
            joint_disintegrate([four_atom, third_discrete],
                               lambda a, b: a * b, 100, rng)


@st.composite
def integer_samples(draw):
    """Small integer samples with repeats: cumulative levels of the two
    sides often coincide, and pieces end exactly on them."""
    vals = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=12))
    assume(len(set(vals)) > 1)
    return vals


class TestLevelTable:
    @given(integer_samples(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_sample_pairs_match_exact_reciprocate(self, vals, seed):
        mu = ZeroMeanMeasure.from_samples(vals)
        exact = {float(loc): loc for loc, _ in mu.atoms}
        xs, rs, us = sample_pairs(mu, 300, np.random.default_rng(seed))
        for x, r, u in zip(xs, rs, us):
            assert r == float(mu.reciprocate(exact[x], F(u)))

    @given(integer_samples())
    @settings(max_examples=60)
    def test_segments_end_on_exact_levels(self, vals):
        mu = ZeroMeanMeasure.from_samples(vals)
        for loc, _ in mu.atoms:
            segs = mu.u_segments(loc)
            assert segs[0][0] == 0 and segs[-1][1] == 1
            for (_, stop, _), (start, _, _) in zip(segs, segs[1:]):
                assert stop == start
            for start, stop, partner in segs:
                # pieces are half-open on the left: u = stop is inside
                assert mu.reciprocate(loc, stop) == partner
                assert mu.reciprocate(loc, (start + stop) / 2) == partner

    @given(integer_samples())
    @settings(max_examples=60)
    def test_decompose_reassembles_exactly(self, vals):
        mu = ZeroMeanMeasure.from_samples(vals)
        dec = decompose(mu)
        assert sum(w for w, _ in dec) == 1
        assert dec.reassembled_atoms() == dict(mu.atoms)

    @given(integer_samples(), st.sampled_from([-1, 1]))
    @settings(max_examples=60)
    def test_tiny_mean_weights_sum_to_one(self, vals, sign):
        # a mean inside the default tolerance leaves one side spent on
        # the top level piece
        centred = ZeroMeanMeasure.from_samples(vals)
        shift = sign * centred.m / 10 ** 10
        mu = ZeroMeanMeasure.from_atoms(
            (l + shift, p) for l, p in centred.atoms)
        assert sum(w for w, _ in decompose(mu)) == 1


def _sorted_merge(mu):
    """The decomposition merged through a dict and sorted by endpoints,
    straight from the level table's pieces."""
    table = mu._level_table()
    pieces = [(mu._zero, 0, mu.prob_zero)] if mu.prob_zero else []
    for dh, _, a, b, a_live, b_live in zip(*table):
        pieces += [(a, b, dh / -a)] * a_live + [(b, a, dh / b)] * b_live
    weights = {}
    for x, partner, w in pieces:
        key = (x, partner) if x <= partner else (partner, x)
        weights[key] = weights.get(key, 0) + w
    return [(weights[key], two_point(*key)) for key in sorted(weights)]


def _left_to_right_er_over_x(mu):
    return sum(w * component_ratio_moment(law) for w, law in decompose(mu))


float_samples = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    min_size=2, max_size=12).filter(lambda vs: len(set(vs)) > 1)


def _per_atom_tilt(mu, which):
    """``tilt`` as it multiplied each atom's location by its mass."""
    if which == "Y":
        pairs = [(l, abs(l) * p) for l, p in mu.atoms if l != 0]
    elif which == "Y_plus":
        pairs = [(l, l * p) for l, p in mu.atoms if l > 0]
    else:
        pairs = [(l, -l * p) for l, p in mu.atoms if l < 0]
    total = sum(w for _, w in pairs)
    return TiltedAtoms(tuple(l for l, _ in pairs),
                       tuple(w / total for _, w in pairs))


def _bits(values):
    """Each value with its type, floats to the bit."""
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for v in values]


@given(st.one_of(
    small_exact_measures(),
    integer_samples().map(
        lambda vs: ZeroMeanMeasure.from_samples(vs + [-sum(vs), 0])),
    float_samples.map(ZeroMeanMeasure.from_samples)), st.booleans())
@settings(max_examples=100)
def test_tilts_are_the_per_atom_products(mu, as_floats):
    # atoms at zero, float atoms and float atoms near 1e-172 all occur
    if as_floats:
        mu = ZeroMeanMeasure.from_atoms(
            [(float(l), float(p)) for l, p in mu.atoms])
    for which in disintegration.TILT_KINDS:
        got, want = tilt(mu, which), _per_atom_tilt(mu, which)
        assert got.locations == want.locations
        assert _bits(got.probs) == _bits(want.probs)


def _row_by_row_table(mu):
    """The level table as it was built one row at a time, one ``bisect``
    per side and row."""
    pos, neg = mu._pos_cum, mu._neg_cum
    levels = sorted({*pos[1:], *neg[1:]})
    a_side, b_side = mu._neg_locs, mu._pos_locs
    rows = []
    for lo, hi in zip(pos[:1] + levels, levels):
        i, j = bisect_left(pos, hi), bisect_left(neg, hi)
        rows.append((mu._frac(hi - lo, mu._unit), hi,
                     a_side[min(j, len(a_side)) - 1],
                     b_side[min(i, len(b_side)) - 1],
                     j < len(neg), i < len(pos)))
    return LevelTable(*zip(*rows))


def _with_zero(vals, scale=1):
    """The integer sample ``vals`` scaled, plus the atom that centres it
    and an atom at zero."""
    return ZeroMeanMeasure.from_samples(
        [v * scale for v in vals + [-sum(vals), 0]])


def _spent_side(vals, sign):
    """A mean inside the default tolerance: one side is spent on the top
    rows."""
    centred = _with_zero(vals)
    shift = sign * centred.m / 10 ** 10
    return ZeroMeanMeasure.from_atoms(
        (l + shift, p) for l, p in centred.atoms)


def _as_floats(mu, scale):
    return ZeroMeanMeasure.from_atoms(
        [(float(l) * scale, float(p)) for l, p in mu.atoms])


table_measures = st.one_of(
    # exact; at 10^25 the ints over D pass int64
    st.builds(_with_zero, integer_samples(), st.sampled_from([1, 10 ** 25])),
    st.builds(_spent_side, integer_samples(), st.sampled_from([-1, 1])),
    st.builds(_as_floats, st.builds(_with_zero, integer_samples()),
              st.sampled_from([1.0, 1e-170])),
    float_samples.map(ZeroMeanMeasure.from_samples))


@given(table_measures)
@settings(max_examples=150)
def test_columnwise_table_is_the_row_loop(mu):
    got, want = mu._level_table(), _row_by_row_table(mu)
    for column in LevelTable._fields:
        assert _bits(getattr(got, column)) == _bits(getattr(want, column))
    # the float view divides the same ints over D and rounds the same atoms
    lv = mu._float_levels
    assert lv.hi.tobytes() == np.array(
        [h / mu._unit for h in want.hi]).tobytes()
    assert lv.a.tobytes() == np.array(want.a, dtype=float).tobytes()
    assert lv.b.tobytes() == np.array(want.b, dtype=float).tobytes()


class TestBuiltOncePerMeasure:
    def test_one_law_per_row(self, monkeypatch):
        values = np.random.default_rng(5).integers(-40, 41, 400).tolist()
        # a zero mean keeps the atom at zero
        mu = ZeroMeanMeasure.from_samples(values + [-sum(values), 0])
        assert mu.prob_zero
        rows = len(mu._level_table().hi)
        calls = []
        law = disintegration._law

        def counting(a, b):
            calls.append((a, b))
            return law(a, b)

        # every row's law comes from the unchecked kernel
        monkeypatch.setattr(disintegration, "_law", counting)
        dec = decompose(mu)
        ratio_moments(mu)
        for mode in MIXTURE_MODES:
            mixture_expect(mu, lambda x: x * x, mode)
        assert 0 < len(calls) <= rows + 1
        assert decompose(mu) is dec
        ref = weakref.ref(mu)
        del mu
        gc.collect()
        assert ref() is None

    @given(integer_samples(), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=60)
    def test_exact_decomposition_is_the_sorted_merge(self, vals, sign):
        # a mean inside the default tolerance leaves one side spent on
        # the top rows, which then share their endpoints
        centred = ZeroMeanMeasure.from_samples(vals + [-sum(vals), 0])
        shift = sign * centred.m / 10 ** 10
        mu = ZeroMeanMeasure.from_atoms(
            (l + shift, p) for l, p in centred.atoms)
        assert list(decompose(mu)) == _sorted_merge(mu)

    @given(float_samples)
    @settings(max_examples=60)
    def test_float_decomposition_is_the_sorted_merge(self, vals):
        mu = ZeroMeanMeasure.from_samples(vals)
        assert list(decompose(mu)) == _sorted_merge(mu)


def _row_build(mu):
    """``(rows, components)`` as the decomposition was built one row of
    the level table at a time, with one two-point law per row: ``rows``
    holds ``(a, b, law, w_a, w_b)`` for the atom at zero and each row, in
    level order, each weight None where its side carries no mass."""
    table = mu._level_table()
    p0, zero = mu.prob_zero, mu._zero
    point_mass = disintegration.TwoPointLaw(zero, zero, mu._one, zero)
    rows = [(zero, 0, point_mass, p0, None)] if p0 else []
    rows += [(a, b, disintegration._law(a, b), dh / -a if a_live else None,
              dh / b if b_live else None)
             for dh, _, a, b, a_live, b_live in zip(*table)]
    merged = []  # [-run of x_minus, weight, law, x_minus, x_plus]
    for a, b, law, w_a, w_b in rows:
        if not (merged and merged[-1][3] == a and merged[-1][4] == b):
            run = merged[-1][0] - (merged[-1][3] != a) if merged else 0
            merged.append([run, 0, law, a, b])
        for w in (w_a, w_b):
            if w is not None:
                merged[-1][1] += w
    merged.sort(key=lambda entry: entry[0])
    return rows, [(w, law) for _, w, law, _, _ in merged]


def _row_route(rows, g, mode):
    """A piece route of ``mixture_expect`` summed row by row."""
    total = 0
    for a, b, law, w_a, w_b in rows:
        expected = law.expect(g)
        for x, partner, seg in ((a, b, w_a), (b, a, w_b)):
            if seg is None:
                continue
            if mode == "u_integral":
                term = seg * expected
            elif mode == "ratio_weighted":
                term = seg * (1 if x == 0 else -x / partner) * expected
            else:
                ratio = F(-1) if x == 0 else x / partner
                term = seg * ((1 - ratio) / 2) * expected
            total = total + term
    return total


def _row_reassembled(components):
    out = {}
    for w, law in components:
        if law.is_degenerate:
            out[law.a] = out.get(law.a, 0) + w
        else:
            out[law.a] = out.get(law.a, 0) + w * law.p_a
            out[law.b] = out.get(law.b, 0) + w * law.p_b
    return out


def _law_bits(components):
    return [_bits([w, law.a, law.b, law.p_a, law.p_b])
            for w, law in components]


@given(st.one_of(
    table_measures,
    # float atoms with a side spent on the top rows, which merge in runs
    st.builds(_as_floats, st.builds(_spent_side, integer_samples(),
                                    st.sampled_from([-1, 1])),
              st.just(1.0))))
@settings(max_examples=150)
def test_columns_are_the_row_build(mu):
    rows, want = _row_build(mu)
    dec = decompose(mu)
    assert len(dec) == len(want)
    assert _law_bits(dec) == _law_bits(want)
    assert [_bits(c.values()) for c in dec.to_jsonable()["components"]] == [
        _bits([law.a, law.b, w]) for w, law in want]
    got_atoms, want_atoms = dec.reassembled_atoms(), _row_reassembled(want)
    assert _bits(got_atoms) == _bits(want_atoms)
    assert _bits(got_atoms.values()) == _bits(want_atoms.values())
    terms = [w * component_ratio_moment(law) for w, law in want]
    assert _bits([ratio_moments(mu).er_over_x]) == _bits(
        [disintegration._balanced_sum(terms) if mu.is_exact else sum(terms)])
    g = lambda x: x * x - x
    for mode in ("u_integral", "ratio_weighted", "half_sum"):
        assert _bits([mixture_expect(mu, g, mode)]) == _bits(
            [_row_route(rows, g, mode)]), mode


class TestRatioMomentSum:
    @given(st.one_of(small_exact_measures(),
                     integer_samples().map(ZeroMeanMeasure.from_samples)))
    @settings(max_examples=100)
    def test_exact(self, mu):
        got = ratio_moments(mu).er_over_x
        assert isinstance(got, F)
        assert got == _left_to_right_er_over_x(mu)

    @given(float_samples)
    @settings(max_examples=60)
    def test_float_bit_for_bit(self, vals):
        mu = ZeroMeanMeasure.from_samples(vals)
        got = ratio_moments(mu).er_over_x
        want = _left_to_right_er_over_x(mu)
        assert isinstance(got, float)
        assert got.hex() == want.hex()


# --- the float view against the per-atom formulas it replaced ---------------

def _choice(probs, n, rng):
    """Indices of ``n`` draws by the generator's own ``choice``."""
    probs = np.array([float(p) for p in probs])
    return rng.choice(len(probs), size=n, p=probs / probs.sum())


def _per_atom_sample_pairs(mu, n, rng):
    """``sample_pairs`` as it read the lattice off the measure's fields,
    drawing the atoms with ``rng.choice``."""
    idx = _choice([p for _, p in mu.atoms], n, rng)
    us = rng.random(n)
    locs = np.array([float(l) for l, _ in mu.atoms])
    table = mu._level_table()
    unit = mu._unit
    steps = mu._steps.values()
    base = np.array([c / unit for c, _ in steps])
    jump = np.array([c / unit for _, c in steps])
    row = np.minimum(np.searchsorted(np.array([h / unit for h in table.hi]),
                                     base[idx] + jump[idx] * us),
                     len(table.hi) - 1)
    xs = locs[idx]
    rs = np.where(xs > 0, np.array(table.a, dtype=float)[row],
                  np.array(table.b, dtype=float)[row])
    rs[xs == 0] = 0.0
    return xs, rs, us


def _per_atom_uniformity_values(mu, which, n, rng):
    """The transformed draws of ``uniformity_check`` with one API call
    per atom, before the sort, drawing the atoms with ``rng.choice``."""
    us = rng.random(n)
    if which == "G_tilde_Y":
        tl = tilt(mu, "Y")
        idx = _choice(tl.probs, n, rng)
        base = np.array([float(mu.g_tilde(l, 0)) for l in tl.locations])
        slope = np.array([float(abs(l) * mu.mass_at(l))
                          for l in tl.locations])
        return (base[idx] + slope[idx] * us) / float(mu.m)
    idx = _choice([p for _, p in mu.atoms], n, rng)
    base = np.array([float(mu.cdf_left(l)) for l, _ in mu.atoms])
    slope = np.array([float(p) for _, p in mu.atoms])
    return base[idx] + slope[idx] * us


def _prime_lattice():
    """500 atoms with distinct prime denominators: D is far past the
    float range."""
    ps, n = [], 2
    while len(ps) < 500:
        if all(n % p for p in ps if p * p <= n):
            ps.append(n)
        n += 1
    return ZeroMeanMeasure.from_atoms(
        [(F((-1) ** i * (i + 1), p), F(1, 500)) for i, p in enumerate(ps)],
        recentre=True)


FLOAT_VIEW_MEASURES = {
    "exact": lambda: ZeroMeanMeasure.from_atoms(
        [(-1, "5/10"), (0, "1/10"), (1, "3/10"), (2, "1/10")]),
    "tiny-mean": lambda: ZeroMeanMeasure.from_atoms(
        [(-1, "1/2"), (F(1, 2), "1/4"), (F(3, 2) + F(4, 10 ** 12), "1/4")]),
    "primes": _prime_lattice,
    "float": lambda: ZeroMeanMeasure.from_samples(
        np.random.default_rng(5).standard_t(3, 400)),
}


@pytest.mark.parametrize("kind", sorted(FLOAT_VIEW_MEASURES))
def test_float_view_is_bit_identical(kind):
    mu = FLOAT_VIEW_MEASURES[kind]()
    got = sample_pairs(mu, 5000, np.random.default_rng(11))
    want = _per_atom_sample_pairs(mu, 5000, np.random.default_rng(11))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    for which in ("G_tilde_Y", "F_tilde_X"):
        vals = np.sort(_per_atom_uniformity_values(
            mu, which, 5000, np.random.default_rng(12)))
        grid = np.arange(1, 5001) / 5000
        stat = float(np.maximum(grid - vals, vals - (grid - 1 / 5000)).max())
        rep = uniformity_check(mu, which, 5000, rng=np.random.default_rng(12))
        assert rep.statistic == stat, which


@pytest.mark.parametrize("kind", sorted(FLOAT_VIEW_MEASURES))
@pytest.mark.parametrize("n", [0, 1, 7, 5000])
def test_draws_are_generator_choice(kind, n):
    """Atom and tilt draws are ``rng.choice``'s, and leave the generator
    where it leaves it."""
    mu = FLOAT_VIEW_MEASURES[kind]()
    laws = [(mu.sample_indices, [p for _, p in mu.atoms])]
    laws += [(tl.sample_indices, tl.probs)
             for tl in (tilt(mu, which)
                        for which in disintegration.TILT_KINDS)]
    for draw, probs in laws:
        got, want = np.random.default_rng(13), np.random.default_rng(13)
        idx = draw(np.int64(n), got)
        assert idx.dtype == np.int64
        assert idx.tolist() == _choice(probs, n, want).tolist()
        assert got.random() == want.random()


@pytest.mark.parametrize("n", [-1, math.nan, 2.5, True, "3", None],
                         ids=["negative", "nan", "fraction", "bool",
                              "string", "none"])
@pytest.mark.parametrize("call", [
    lambda mu, n, rng: mu.sample(n, rng),
    lambda mu, n, rng: sample_pairs(mu, n, rng),
    lambda mu, n, rng: tilt(mu, "Y").sample_indices(n, rng),
    lambda mu, n, rng: uniformity_check(mu, "G_tilde_Y", n, rng=rng),
    lambda mu, n, rng: uniformity_check(mu, "F_tilde_X", n, rng=rng),
    lambda mu, n, rng: joint_disintegrate([mu], lambda *c: 0.0, n, rng),
], ids=["sample", "sample_pairs", "tilt", "uniformity-G", "uniformity-F",
        "joint"])
def test_bad_draw_count(four_atom, rng, call, n):
    with pytest.raises(InputError, match="draw count"):
        call(four_atom, n, rng)


def test_draw_counts(four_atom, rng):
    """Integer counts of any kind draw; no draws are three empty arrays;
    a Kolmogorov distance needs at least one draw."""
    assert four_atom.sample(np.int32(3), rng).shape == (3,)
    assert [a.shape for a in sample_pairs(four_atom, 0, rng)] == [(0,)] * 3
    for which in ("G_tilde_Y", "F_tilde_X"):
        with pytest.raises(InputError, match="draw count"):
            uniformity_check(four_atom, which, 0, rng=rng)


@pytest.mark.parametrize("call", [
    lambda mu, rng: uniformity_check(mu, "G_Y", 10, rng=rng),
    lambda mu, rng: joint_disintegrate([], lambda *cols: 0.0, 10, rng),
    lambda mu, rng: mixture_expect(mu, abs, "sideways"),
    lambda mu, rng: tilt(mu, "Y_zero"),
], ids=["unknown-uniformity-kind", "no-coordinates", "unknown-mixture-mode",
        "unknown-tilt"])
def test_input_checks(four_atom, rng, call):
    with pytest.raises(InputError):
        call(four_atom, rng)
