"""Extremality of the canonical two-point mixture among its rivals.

A zero-mean law admits many representations as a mixture of zero-mean
two-point laws; the one induced by the paired generalized inverses is
special.  Under the level tilt (each component reweighted by its
contribution to the half mean) every representation produces the same
one-dimensional laws for the positive endpoint and for the magnitude of
the negative endpoint, and the canonical representation couples those
two marginals comonotonically.  Consequently it maximizes mixture costs
that are lattice-superadditive in the endpoint pair and minimizes the
lattice-subadditive ones.

This module builds and validates alternative representations, computes
tilted weights, checks the marginal identities, and compares costs, with
a small brute-force verifier of the comonotone rearrangement inequality
for uniform marginals.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

from .disintegration import MixtureDecomposition, tilt, two_point
from .errors import (BadP, InputError, NotADisintegration, NotSuperadditive,
                     UnsupportedMarginals)
from .measure import (ZeroMeanMeasure, _approx, _as_number, _from_spec,
                      _shown)

__all__ = [
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
]

#: tolerance of the float comparisons between representations
_TOL = 1e-9

#: largest marginal that :func:`comonotone_extremality` pairs every way
_MAX_MARGINAL = 7


@dataclass(frozen=True)
class CostFunction:
    """Cost ``k(b, -a)`` on the endpoints of a two-point component.

    The first argument is the positive endpoint, the second the
    magnitude of the negative one.  ``canonical_is`` states which side
    of the comparison the canonical representation occupies: ``"max"``
    for lattice-superadditive costs, ``"min"`` for subadditive ones.
    """

    fn: Callable
    canonical_is: str
    label: str

    def __call__(self, pos, neg_mag):
        try:
            return self.fn(pos, neg_mag)
        except OverflowError as exc:  # a float power past the float range
            raise InputError(
                f"{self.label} at ({_approx(pos)}, {_approx(neg_mag)}) lies "
                "past the float range") from exc


def _sign(canonical_is: str) -> int:
    """``+1`` for ``"max"`` and ``-1`` for ``"min"``: the canonical value
    ``c`` beats another value ``o`` when ``sign * (c - o) >= 0``."""
    return 1 if canonical_is == "max" else -1


def indicator_ge(a, b) -> CostFunction:
    """Joint upper-orthant indicator, one when both endpoints clear
    their thresholds.  Superadditive, so the canonical mixture puts the
    most weight on the orthant."""

    def fn(u, v):
        return 1 if (u >= a and v >= b) else 0

    return CostFunction(fn, "max", f"indicator_ge({a}, {b})")


def _check_power(p) -> None:
    if not (p >= 1):
        raise BadP(f"power must be at least 1, got {p!r}")


def neg_abs_diff_pow(p=1) -> CostFunction:
    """Negated endpoint-gap power ``-|u - v|^p`` for ``p >= 1``;
    superadditive, so canonical components are the most balanced."""
    _check_power(p)

    def fn(u, v):
        return -abs(u - v) ** p

    return CostFunction(fn, "max", f"neg_abs_diff_pow({p})")


def abs_sum_pow(p=1) -> CostFunction:
    """Width power ``(u + v)^p`` for ``p >= 1`` (the sum of the two
    arguments is the component width).  Superadditive; for ``p = 1`` the
    cost is linear and every representation agrees."""
    _check_power(p)

    def fn(u, v):
        return (u + v) ** p

    return CostFunction(fn, "max", f"abs_sum_pow({p})")


def ratio_pow(p=1, side: str = "pos_over_neg") -> CostFunction:
    """Endpoint ratio power, subadditive in the pair, so the canonical
    representation minimizes it; ``side`` picks the orientation."""
    _check_power(p)
    if side not in ("pos_over_neg", "neg_over_pos"):
        raise InputError(f"side must be pos_over_neg or neg_over_pos, "
                         f"got {side!r}")
    flip = side == "neg_over_pos"

    def fn(u, v):
        if flip:
            u, v = v, u
        return (u / v) ** p

    return CostFunction(fn, "min", f"ratio_pow({p}, {side})")


def custom_cost(fn: Callable, canonical_is: str) -> CostFunction:
    """Wrap an arbitrary endpoint cost after probing the lattice
    inequality ``k(u', v') + k(u, v) >= k(u, v') + k(u', v)`` (reversed
    for ``canonical_is="min"``) on the grid ``0.25, 0.5, 1, 2, 4``; a
    failed probe raises :class:`~twopoint.errors.NotSuperadditive`."""
    if canonical_is not in ("max", "min"):
        raise InputError(f"canonical_is must be max or min, "
                         f"got {canonical_is!r}")
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    sign = _sign(canonical_is)
    for (u1, u2), (v1, v2) in itertools.product(
            itertools.combinations(grid, 2), repeat=2):
        gap = sign * (fn(u2, v2) + fn(u1, v1) - fn(u1, v2) - fn(u2, v1))
        if gap < -1e-12:
            raise NotSuperadditive(
                f"lattice inequality fails on the rectangle "
                f"[{u1}, {u2}] x [{v1}, {v2}] (gap {gap!r})")
    return CostFunction(fn, canonical_is, "custom")


#: each cost's constructor and its parameters' defaults
_COSTS = {"indicator_ge": (indicator_ge, {"a": 0, "b": 0}),
          "neg_abs_diff_pow": (neg_abs_diff_pow, {"p": 1}),
          "abs_sum_pow": (abs_sum_pow, {"p": 1}),
          "ratio_pow": (ratio_pow, {"p": 1, "side": "pos_over_neg"})}


def cost_from_spec(obj: dict) -> CostFunction:
    """Build a named cost from its JSON description, e.g.
    ``{"kind": "indicator_ge", "a": 2, "b": 2}``, by the rule of
    :func:`~twopoint.measure._from_spec`; labels print numbers as given."""
    return _from_spec(obj, "kind", _COSTS)


# --- alternative representations ------------------------------------------

def alternative_disintegration(measure: ZeroMeanMeasure, components
                               ) -> MixtureDecomposition:
    """Validate ``(weight, a, b)`` triples as a representation of
    ``measure``; each pair carries the unique zero-mean two-point law,
    and the weighted atoms must reassemble the measure (exactly for
    exact inputs, else within ``1e-9``).  Raises
    :class:`~twopoint.errors.NotADisintegration` otherwise."""
    built = []
    for item in components:
        try:
            w, a, b = item
        except (TypeError, ValueError):
            raise InputError(f"component {_shown(item)} is not a "
                             "(weight, a, b) triple")
        w = _as_number(w)
        if not w > 0:
            raise NotADisintegration(f"component weight {_shown(w)} must be "
                                     "positive")
        built.append((w, two_point(a, b)))
    total = sum(w for w, _ in built)
    if abs(total - 1) > _TOL:
        raise NotADisintegration(f"weights sum to {_approx(total)}, not 1")

    alt = MixtureDecomposition(tuple(built))
    acc = alt.reassembled_atoms()
    target = dict(measure.atoms)
    all_exact = measure.is_exact and not any(
        isinstance(v, float) for v in (*acc, *acc.values()))
    if all_exact:
        if {k: v for k, v in acc.items() if v != 0} != target:
            raise NotADisintegration(
                "components do not reassemble the measure")
    else:
        keys = sorted(set(float(k) for k in acc) |
                      set(float(k) for k in target))
        facc = {float(k): float(v) for k, v in acc.items()}
        ftar = {float(k): float(v) for k, v in target.items()}
        for k in keys:
            if abs(facc.get(k, 0.0) - ftar.get(k, 0.0)) > _TOL:
                raise NotADisintegration(
                    f"mass mismatch at {k!r}: "
                    f"{facc.get(k, 0.0)!r} vs {ftar.get(k, 0.0)!r}")
    return alt


def tilted_weights(alt, m=None):
    """Level-tilted weights: each component reweighted by its half-mean
    contribution ``w * b * (-a) / (b - a)`` and normalized.  When ``m``
    is supplied the normalizer must match it within ``1e-9`` relative."""
    comps = list(alt)
    contrib = [w * law.mean_positive_part for w, law in comps]
    total = sum(contrib)
    if not total > 0:
        raise NotADisintegration("representation carries no half mean")
    if m is not None and abs(float(total) - float(m)) > _TOL * max(
            1.0, float(m)):
        raise NotADisintegration(
            f"half-mean contributions sum to {float(total)!r}, "
            f"but the measure has {float(m)!r}")
    return tuple(c / total for c in contrib)


@dataclass(frozen=True)
class MarginalReport:
    """Agreement of endpoint laws with the size-biased tilts."""

    passed: bool
    discrepancy: float


def marginal_check(measure: ZeroMeanMeasure, alt) -> MarginalReport:
    """Under the tilted weights, the law of the positive endpoint must
    be the positive size-biased tilt of the measure, and the law of the
    negative endpoint magnitude the negative one, within ``1e-9``."""
    weights = tilted_weights(alt)
    pos: dict = {}
    neg: dict = {}
    for nu, (w, law) in zip(weights, alt):
        if law.is_degenerate:
            continue
        pos[float(law.b)] = pos.get(float(law.b), 0.0) + float(nu)
        neg[float(-law.a)] = neg.get(float(-law.a), 0.0) + float(nu)
    disc = 0.0
    for which, got in (("Y_plus", pos), ("Y_minus", neg)):
        t = tilt(measure, which)
        want = {}
        for l, p in zip(t.locations, t.probs):
            want[abs(float(l))] = want.get(abs(float(l)), 0.0) + float(p)
        for k in set(got) | set(want):
            disc = max(disc, abs(got.get(k, 0.0) - want.get(k, 0.0)))
    return MarginalReport(disc <= _TOL, disc)


# --- cost comparisons -----------------------------------------------------

def canonical_cost(measure: ZeroMeanMeasure, cost: CostFunction):
    """Average cost of the canonical representation under the level
    tilt, ``(1 / m)`` times the level integral of ``cost(x_plus,
    -x_minus)``: exact piecewise sums for discrete measures, quadrature
    for analytic ones."""
    return measure.level_integral(lambda a, b: cost(b, -a)) / measure.m


@dataclass(frozen=True)
class CostComparison:
    """Canonical-versus-alternative cost values and the verdict."""

    label: str
    direction: str
    canonical: float
    alternative: float
    satisfied: bool

    def to_jsonable(self) -> dict:
        try:
            values = float(self.canonical), float(self.alternative)
        except OverflowError:
            raise InputError(
                f"{self.label}: a cost past the float range has no JSON "
                f"number (canonical {_approx(self.canonical)}, "
                f"alternative {_approx(self.alternative)})")
        return {"cost": self.label, "canonical_is": self.direction,
                "canonical": values[0], "alternative": values[1],
                "satisfied": self.satisfied}


def cost_compare(measure: ZeroMeanMeasure, cost: CostFunction,
                 alt: MixtureDecomposition) -> CostComparison:
    """Compare the canonical representation against an alternative one,
    from :func:`~twopoint.disintegration.decompose` or
    :func:`alternative_disintegration`, on one cost: exactly when both
    values are exact and else within ``1e-9`` relative."""
    weights = tilted_weights(alt, measure.m)
    alt_val = sum(nu * cost(law.b, -law.a)
                  for nu, (w, law) in zip(weights, alt)
                  if not law.is_degenerate)
    can_val = canonical_cost(measure, cost)
    sign = _sign(cost.canonical_is)
    if isinstance(can_val, numbers.Rational) and isinstance(
            alt_val, numbers.Rational):
        # exact values can lie past the float range; no rounding to absorb
        ok = sign * (can_val - alt_val) >= 0
    else:
        # compared side by side, so that equal infinite costs agree
        scale = _TOL * (1.0 + abs(float(can_val)) + abs(float(alt_val)))
        ok = sign * float(can_val) >= sign * float(alt_val) - scale
    return CostComparison(cost.label, cost.canonical_is, can_val,
                          alt_val, ok)


@dataclass(frozen=True)
class NormReport:
    """A table of standard cost comparisons."""

    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.satisfied for r in self.rows)

    def to_jsonable(self) -> dict:
        return {"rows": [r.to_jsonable() for r in self.rows],
                "passed": self.passed}


def norm_report(measure: ZeroMeanMeasure,
                alt: MixtureDecomposition) -> NormReport:
    """Compare a representative panel of costs on an alternative
    representation: endpoint gap, width powers, and the endpoint ratio."""
    panel = (neg_abs_diff_pow(1), neg_abs_diff_pow(2), abs_sum_pow(1),
             abs_sum_pow(2), ratio_pow(1))
    return NormReport(tuple(cost_compare(measure, c, alt) for c in panel))


# --- brute-force comonotone verification ----------------------------------

@dataclass(frozen=True)
class ComonotoneReport:
    """Exhaustive check of the rearrangement inequality for uniform
    marginals."""

    passed: bool
    comonotone_value: float
    extreme_value: float
    permutations: int


def comonotone_extremality(pos_values: Sequence, neg_values: Sequence,
                           cost: CostFunction) -> ComonotoneReport:
    """Pair two uniform marginals every possible way and confirm, within
    ``1e-12`` relative, that the sorted-with-sorted pairing is extreme
    for the cost.  Marginals must have equal size at most 7."""
    us = sorted(float(v) for v in pos_values)
    vs = sorted(float(v) for v in neg_values)
    if not us or len(us) != len(vs):
        raise UnsupportedMarginals(
            "need two nonempty value lists of equal size")
    if len(us) > _MAX_MARGINAL:
        raise UnsupportedMarginals(
            f"{len(us)} points would need {math.factorial(len(us))} "
            f"pairings; reduce to at most {_MAX_MARGINAL}")
    n = len(us)
    sign = _sign(cost.canonical_is)
    como = sum(cost(u, v) for u, v in zip(us, vs)) / n
    best = como
    for perm in itertools.permutations(vs):
        val = sum(cost(u, v) for u, v in zip(us, perm)) / n
        if sign * val > sign * best:
            best = val
    ok = sign * como >= sign * best - 1e-12 * (1.0 + abs(best))
    return ComonotoneReport(ok, como, best, math.factorial(n))
