"""Zero-mean laws as mixtures of two-point laws.

Layers, bottom up: :mod:`~twopoint.measure` holds the cumulative curve
of a zero-mean law and its paired generalized inverses;
:mod:`~twopoint.disintegration` turns them into explicit two-point
mixtures, samplers, and identity checks; :mod:`~twopoint.selfnorm`
provides the conservative self-normalized tests with their sharp
constants; :mod:`~twopoint.modeling` has the parametric curve families
and validators; :mod:`~twopoint.optimal` compares mixture
representations; :mod:`~twopoint.estimator` inverts a bootstrap pivot
into a confidence interval.  :mod:`~twopoint.cli` wraps it all for the
command line.
"""

from .disintegration import (MIXTURE_MODES, MixtureDecomposition,
                             RatioMoments, TiltedAtoms, TwoPointLaw,
                             UniformityReport, component_ratio_moment,
                             decompose, joint_disintegrate, mixture_expect,
                             ratio_moments, sample_pairs,
                             side_masses_from_levels, tilt, two_point,
                             uniformity_check)
from .errors import InputError, TwopointError
from .estimator import (EmpiricalPartners, PivotRun, bootstrap_ci,
                        denominator, empirical_partners, pivot)
from .measure import INF, NEG_INF, ZeroMeanMeasure
from .modeling import (AsymmetryPattern, CurveReport, ReciprocatingCurve,
                       XpmReport, asymmetry_pattern_of, cubic_rate_family,
                       curve_table, family_from_spec, from_asymmetry_pattern,
                       hyperbolic_family, power_family, two_slope_family,
                       validate_curve, validate_x_pm)
from .optimal import (ComonotoneReport, CostComparison, CostFunction,
                      MarginalReport, NormReport, abs_sum_pow,
                      alternative_disintegration, canonical_cost,
                      comonotone_extremality, cost_compare, cost_from_spec,
                      custom_cost, indicator_ge, marginal_check,
                      neg_abs_diff_pow, norm_report, ratio_pow,
                      tilted_weights)
from .selfnorm import (BERNOULLI_CONSTANT, GAUSSIAN_CONSTANT,
                       AsymmetryCertificate, BernoulliTailModel, TestReport,
                       asymmetry_certificate, bernoulli_tail_model,
                       conservative_test, exact_sign_tail, gaussian_bound,
                       hoeffding_bound, lambda_star, normal_tail, s_w, s_y)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "INF",
    "NEG_INF",
    "ZeroMeanMeasure",
    "TwopointError",
    "InputError",
    "TwoPointLaw",
    "two_point",
    "MixtureDecomposition",
    "decompose",
    "sample_pairs",
    "MIXTURE_MODES",
    "mixture_expect",
    "side_masses_from_levels",
    "RatioMoments",
    "ratio_moments",
    "component_ratio_moment",
    "TiltedAtoms",
    "tilt",
    "UniformityReport",
    "uniformity_check",
    "joint_disintegrate",
    "GAUSSIAN_CONSTANT",
    "BERNOULLI_CONSTANT",
    "s_w",
    "s_y",
    "lambda_star",
    "normal_tail",
    "gaussian_bound",
    "hoeffding_bound",
    "BernoulliTailModel",
    "bernoulli_tail_model",
    "TestReport",
    "conservative_test",
    "AsymmetryCertificate",
    "asymmetry_certificate",
    "exact_sign_tail",
    "ReciprocatingCurve",
    "AsymmetryPattern",
    "power_family",
    "two_slope_family",
    "hyperbolic_family",
    "cubic_rate_family",
    "from_asymmetry_pattern",
    "asymmetry_pattern_of",
    "CurveReport",
    "validate_curve",
    "XpmReport",
    "validate_x_pm",
    "family_from_spec",
    "curve_table",
    "CostFunction",
    "indicator_ge",
    "neg_abs_diff_pow",
    "abs_sum_pow",
    "ratio_pow",
    "custom_cost",
    "cost_from_spec",
    "alternative_disintegration",
    "tilted_weights",
    "MarginalReport",
    "marginal_check",
    "CostComparison",
    "canonical_cost",
    "cost_compare",
    "NormReport",
    "norm_report",
    "ComonotoneReport",
    "comonotone_extremality",
    "EmpiricalPartners",
    "empirical_partners",
    "denominator",
    "pivot",
    "PivotRun",
    "bootstrap_ci",
]
