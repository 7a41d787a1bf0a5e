"""The names the package exports."""

import twopoint

PUBLIC = set("""
    __version__ TwopointError InputError INF NEG_INF ZeroMeanMeasure
    TwoPointLaw two_point MixtureDecomposition decompose sample_pairs
    mixture_expect MIXTURE_MODES side_masses_from_levels RatioMoments
    ratio_moments component_ratio_moment TiltedAtoms tilt UniformityReport
    uniformity_check joint_disintegrate GAUSSIAN_CONSTANT BERNOULLI_CONSTANT
    s_w s_y lambda_star normal_tail gaussian_bound hoeffding_bound
    BernoulliTailModel bernoulli_tail_model TestReport conservative_test
    AsymmetryCertificate asymmetry_certificate exact_sign_tail
    ReciprocatingCurve AsymmetryPattern power_family two_slope_family
    hyperbolic_family cubic_rate_family from_asymmetry_pattern
    asymmetry_pattern_of CurveReport validate_curve XpmReport validate_x_pm
    family_from_spec curve_table CostFunction indicator_ge neg_abs_diff_pow
    abs_sum_pow ratio_pow custom_cost cost_from_spec
    alternative_disintegration tilted_weights MarginalReport marginal_check
    CostComparison canonical_cost cost_compare NormReport norm_report
    ComonotoneReport comonotone_extremality EmpiricalPartners
    empirical_partners denominator pivot PivotRun bootstrap_ci PIVOT_KINDS
""".split())


def test_exports_each_name_once():
    assert len(twopoint.__all__) == len(set(twopoint.__all__))
    assert set(twopoint.__all__) == PUBLIC
    for name in twopoint.__all__:
        assert hasattr(twopoint, name), name

