"""Extremality of the canonical pairing among sign disintegrations."""

from fractions import Fraction as F

import pytest

from twopoint import (CostFunction, MixtureDecomposition, ZeroMeanMeasure,
                      abs_sum_pow, alternative_disintegration,
                      canonical_cost, comonotone_extremality, cost_compare,
                      cost_from_spec, custom_cost, decompose, indicator_ge,
                      marginal_check, neg_abs_diff_pow, norm_report,
                      ratio_pow, tilted_weights, two_point)
from twopoint.errors import (BadP, InputError, NotADisintegration,
                             NotSuperadditive, Unbounded,
                             UnsupportedMarginals)


@pytest.fixture
def alt(symmetric_four):
    return alternative_disintegration(
        symmetric_four,
        [("3/10", -2, 1), ("3/10", -1, 2), ("4/10", -1, 1)])


class TestDisintegrations:
    def test_canonical_weights(self, symmetric_four):
        can = decompose(symmetric_four)
        got = {(law.a, law.b): w for w, law in can}
        assert got == {(F(-1), F(1)): F(4, 5), (F(-2), F(2)): F(1, 5)}

    def test_tilted_weights(self, symmetric_four, alt):
        can = decompose(symmetric_four)
        nus = tilted_weights(can, symmetric_four.m)
        by_pair = {(law.a, law.b): nu
                   for nu, (_w, law) in zip(nus, can.components)}
        assert by_pair == {(F(-1), F(1)): F(2, 3), (F(-2), F(2)): F(1, 3)}
        assert tuple(tilted_weights(alt)) == (F(1, 3), F(1, 3), F(1, 3))

    def test_marginals_pass_for_honest_alternative(self, symmetric_four,
                                                   alt):
        rep = marginal_check(symmetric_four, alt)
        assert rep.passed
        assert rep.discrepancy == 0.0

    def test_marginals_fail_for_fake(self, symmetric_four):
        fake = MixtureDecomposition(((F(1, 2), two_point(-1, 1)),
                                     (F(1, 2), two_point(-2, 2))))
        rep = marginal_check(symmetric_four, fake)
        assert not rep.passed
        assert rep.discrepancy > 0.0

    def test_rejects_bad_weights(self, symmetric_four):
        with pytest.raises(NotADisintegration):
            alternative_disintegration(symmetric_four,
                                       [("1/2", -1, 1), ("1/2", -2, 2)])
        with pytest.raises(NotADisintegration):
            alternative_disintegration(symmetric_four, [("3/10", -2, 1)])
        with pytest.raises(NotADisintegration):
            alternative_disintegration(symmetric_four,
                                       [("0", -2, 1), ("1", -1, 1)])

    def test_float_weights_on_exact_measure(self):
        mu = ZeroMeanMeasure.from_atoms(
            [(-2, "1/10"), (-1, "7/20"), (1, "11/20")])
        for triples in ([(0.3, -2, 1), (0.7, -1, 1)],
                        [(F(3, 10), -2, 1), (F(7, 10), -1, 1)]):
            alt = alternative_disintegration(mu, triples)
            assert marginal_check(mu, alt).passed

    def test_jsonable(self, alt):
        data = alt.to_jsonable()
        assert len(data["components"]) == 3

    def test_float_mass_mismatch(self):
        mu = ZeroMeanMeasure.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
        # the law on {-1, 2} puts 2/3 on -1, where the measure has 1/2
        with pytest.raises(NotADisintegration, match="mass mismatch"):
            alternative_disintegration(mu, [(1.0, -1.0, 2.0)])

    def test_marginals_skip_the_point_mass_at_zero(self, four_atom):
        alt = alternative_disintegration(
            four_atom, [("3/5", -1, 1), ("3/10", -1, 2), ("1/10", 0, 0)])
        assert any(law.is_degenerate for _, law in alt)
        rep = marginal_check(four_atom, alt)
        assert rep.passed
        assert rep.discrepancy == 0.0


class TestCostFunctions:
    def test_power_floor(self):
        with pytest.raises(BadP):
            neg_abs_diff_pow(0.5)
        with pytest.raises(BadP):
            abs_sum_pow(0)

    def test_custom_probe(self):
        good = custom_cost(lambda u, v: u * v, "max")
        assert good(2.0, 3.0) == 6.0
        with pytest.raises(NotSuperadditive):
            custom_cost(lambda u, v: -u * v, "max")

    def test_from_spec(self):
        cost = cost_from_spec({"kind": "ratio_pow", "p": 2,
                               "side": "neg_over_pos"})
        assert cost.label == "ratio_pow(2, neg_over_pos)"
        assert cost_from_spec({"kind": "indicator_ge",
                               "a": 1, "b": 2}).canonical_is == "max"
        gap = cost_from_spec({"kind": "neg_abs_diff_pow", "p": 2})
        assert (gap.label, gap.canonical_is) == ("neg_abs_diff_pow(2)", "max")
        assert gap(3, 1) == -4
        assert cost_from_spec({"kind": "abs_sum_pow",
                               "p": "2"}).label == "abs_sum_pow(2.0)"


class TestComparisons:
    def test_difference_cost_strict(self, symmetric_four, alt):
        cmp = cost_compare(symmetric_four, neg_abs_diff_pow(1), alt)
        assert cmp.canonical == 0
        assert cmp.alternative == F(-2, 3)
        assert cmp.satisfied

    def test_indicator_cost(self, symmetric_four, alt):
        cmp = cost_compare(symmetric_four, indicator_ge(2, 2), alt)
        assert (cmp.canonical, cmp.alternative) == (F(1, 3), 0)
        assert cmp.satisfied

    def test_ratio_cost_minimized(self, symmetric_four, alt):
        cmp = cost_compare(symmetric_four, ratio_pow(1), alt)
        assert cmp.canonical == 1
        assert cmp.alternative == F(7, 6)
        assert cmp.satisfied

    def test_sum_cost_tie(self, symmetric_four, alt):
        cmp = cost_compare(symmetric_four, abs_sum_pow(1), alt)
        assert cmp.canonical == cmp.alternative == F(8, 3)
        assert cmp.satisfied

    def test_sum_cost_square(self, symmetric_four, alt):
        cmp = cost_compare(symmetric_four, abs_sum_pow(2), alt)
        assert cmp.canonical == 8
        assert cmp.alternative == F(22, 3)
        assert cmp.satisfied

    def test_panel(self, symmetric_four, alt):
        rep = norm_report(symmetric_four, alt)
        assert rep.passed
        assert len(rep.rows) == 5
        assert {row.direction for row in rep.rows} == {"max", "min"}

    def test_wrong_way_cost_not_satisfied(self, symmetric_four, alt):
        wrong_way = CostFunction(lambda u, v: u * v, "min", "wrong_way")
        cmp = cost_compare(symmetric_four, wrong_way, alt)
        assert not cmp.satisfied

    def test_analytic_canonical(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        # canonical pairs x with -x, so E(|Y1| + |Y2|) = 2 E|X| / (2m) * m
        assert canonical_cost(mu, abs_sum_pow(1)) == pytest.approx(4.0 / 3.0,
                                                                   abs=1e-9)

    def test_analytic_infinite_cost(self):
        mu = ZeroMeanMeasure.analytic(lambda x: x * x / 4.0, 0.25,
                                      (-1.0, 1.0))
        cost = CostFunction(lambda u, v: float("inf"), "max", "infinite")
        with pytest.raises(Unbounded):
            canonical_cost(mu, cost)

    def test_jsonable(self, symmetric_four, alt):
        data = cost_compare(symmetric_four, abs_sum_pow(1),
                            alt).to_jsonable()
        assert data["satisfied"] is True

    @pytest.mark.parametrize("cost", [abs_sum_pow(1000), ratio_pow(2000)],
                             ids=["width", "ratio"])
    def test_beyond_float_costs_compare_exactly(self, symmetric_four, alt,
                                                cost):
        cmp = cost_compare(symmetric_four, cost, alt)
        assert cmp.satisfied
        assert cmp.canonical != cmp.alternative
        with pytest.raises(InputError, match="float range"):
            cmp.to_jsonable()


class TestComonotone:
    def test_superadditive_max(self):
        rep = comonotone_extremality([1, 2, 3, 4], [1, 1, 2, 5],
                                     neg_abs_diff_pow(2))
        assert rep.passed
        assert rep.permutations == 24

    def test_ratio_min(self):
        assert comonotone_extremality([1, 2, 3], [1, 2, 4],
                                      ratio_pow(1)).passed

    def test_all_builtins_small(self):
        pos = [1, 2, 5]
        neg = [1, 3, 4]
        for cost in (neg_abs_diff_pow(1), abs_sum_pow(2), indicator_ge(3, 3),
                     ratio_pow(2, side="neg_over_pos")):
            assert comonotone_extremality(pos, neg, cost).passed, cost.label

    def test_wrong_direction_fails(self):
        # the gap cost is superadditive: sorted with sorted is its maximum
        gap = neg_abs_diff_pow(2)
        rep = comonotone_extremality([1, 2, 3], [1, 2, 4],
                                     CostFunction(gap.fn, "min", "flipped"))
        assert not rep.passed
        assert rep.extreme_value < rep.comonotone_value

    def test_limits(self):
        with pytest.raises(UnsupportedMarginals):
            comonotone_extremality([1] * 8, [1] * 8, ratio_pow(1))
        with pytest.raises(UnsupportedMarginals):
            comonotone_extremality([1, 2], [1], ratio_pow(1))
        with pytest.raises(UnsupportedMarginals):
            comonotone_extremality([], [], ratio_pow(1))


@pytest.mark.parametrize("call, error", [
    (lambda mu, alt: ratio_pow(1, "pos_over_pos"), InputError),
    (lambda mu, alt: custom_cost(lambda a, b: a * b, "median"), InputError),
    (lambda mu, alt: cost_from_spec({"p": 1}), InputError),
    (lambda mu, alt: cost_from_spec({"kind": "entropy"}), InputError),
    (lambda mu, alt: cost_from_spec({"kind": "abs_sum_pow", "p": [2]}),
     InputError),
    (lambda mu, alt: cost_from_spec({"kind": "indicator_ge", "b": None}),
     InputError),
    (lambda mu, alt: cost_from_spec({"kind": "neg_abs_diff_pow", "p": True}),
     InputError),
    (lambda mu, alt: cost_from_spec({"kind": "ratio_pow", "p": "abc"}),
     InputError),
    (lambda mu, alt: cost_from_spec({"kind": "abs_sum_pow", "P": 2}),
     InputError),
    (lambda mu, alt: cost_from_spec({"kind": "ratio_pow",
                                     "sid": "neg_over_pos"}), InputError),
    (lambda mu, alt: alternative_disintegration(mu, [("1/2", -1)]),
     InputError),
    (lambda mu, alt: tilted_weights(
        MixtureDecomposition(((F(1), two_point(0, 0)),))),
     NotADisintegration),
    (lambda mu, alt: tilted_weights(alt, 2 * mu.m), NotADisintegration),
], ids=["bad-side", "bad-canonical-is", "no-kind", "unknown-kind",
        "list-parameter", "null-parameter", "bool-parameter",
        "non-numeric-parameter", "unknown-key", "misspelt-side",
        "not-a-triple", "zero-half-mean", "half-mean-mismatch"])
def test_input_checks(symmetric_four, alt, call, error):
    with pytest.raises(error):
        call(symmetric_four, alt)
