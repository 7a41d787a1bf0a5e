"""The four benchmark workloads: their inputs, operations and checks.

Every operation gets its own input, drawn from ``(seed, op index)``.  A
CLI workload hands the program a sample file and an argument list; a
library workload hands it Python values and calls the public API
through module attributes, so the span wrappers see every call, and
marks the end of each stage of the operation with ``lap``.  A run draws
``inputs_per_run`` inputs and repeats the operation on them in turn.

None of the checks is a golden digest: each one tests a property the
output must have whatever the implementation, so a correctness fix
elsewhere does not break the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np


def op_rng(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def sample_text(values: np.ndarray) -> str:
    """One float per line, ``repr`` precision, as ``twopoint`` reads it."""
    return "\n".join(map(repr, values.tolist())) + "\n"


def digest(obj) -> str:
    """SHA-256 of a canonical form of ``obj``.  Rationals are hashed from
    the bytes of their numerator and denominator: the exact workload's
    ratio moment has a denominator far beyond the int-to-str limit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _int_bytes(n: int) -> bytes:
    return n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)


def _feed(h, obj) -> None:
    if isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, Fraction):
        h.update(b"F" + _int_bytes(obj.numerator) + b"/"
                 + _int_bytes(obj.denominator))
    elif isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
            h.update(b",")
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


# --- CLI workloads --------------------------------------------------------

class CliTest:
    """``twopoint test --mode bernoulli --p 0.15`` on 10^6 payoff samples."""

    name = "cli-test"
    kind = "cli"
    inputs_per_run = 1
    n = 1_000_000

    def inputs(self, seed: int, op: int):
        rng = op_rng(seed, op)
        # losses U(1, 2), gains U(1, 4); P(gain) = 3/8 puts the mean at 0
        gain = rng.random(self.n) < 0.375
        xs = np.where(gain, rng.uniform(1.0, 4.0, self.n),
                      -rng.uniform(1.0, 2.0, self.n))
        return sample_text(xs), ["test", "--mode", "bernoulli", "--p", "0.15"]

    def check(self, out: dict) -> list:
        bad = []
        if out.get("n") != self.n:
            bad.append(f"n is {out.get('n')!r}, input has {self.n}")
        p_value = out.get("p_value")
        if not (isinstance(p_value, float) and 0.0 <= p_value <= 1.0):
            bad.append(f"p_value {p_value!r} outside [0, 1]")
        stat = out.get("statistic")
        if not (isinstance(stat, float) and math.isfinite(stat)):
            bad.append(f"statistic {stat!r} is not finite")
        raw = out.get("details", {}).get("raw_bound")
        if not (isinstance(raw, float) and isinstance(p_value, float)
                and raw >= p_value):
            bad.append(f"raw_bound {raw!r} below p_value {p_value!r}")
        return bad


class CliEstimate:
    """``twopoint estimate`` (B = 2000, pivot W) on 2000 t(3) samples."""

    name = "cli-estimate"
    kind = "cli"
    inputs_per_run = 1
    n = 2000
    resamples = 2000

    def inputs(self, seed: int, op: int):
        rng = op_rng(seed, op)
        xs = rng.standard_t(3, self.n)
        return sample_text(xs), ["estimate", "--seed",
                                 str(int(rng.integers(2 ** 31)))]

    def check(self, out: dict) -> list:
        bad = []
        ci, mean = out.get("ci"), out.get("mean")
        if not (isinstance(ci, list) and len(ci) == 2
                and isinstance(mean, float) and ci[0] <= mean <= ci[1]):
            bad.append(f"mean {mean!r} outside ci {ci!r}")
        q = out.get("pivot_quantiles")
        if not (isinstance(q, list) and len(q) == 2 and q[0] <= q[1]):
            bad.append(f"pivot_quantiles {q!r} not ordered")
        if out.get("resamples") != self.resamples:
            bad.append(f"resamples is {out.get('resamples')!r}")
        return bad


# --- library workloads ----------------------------------------------------

def _square(x):
    return x * x


def _opposite_signs(xs, rs) -> bool:
    """Every sampled pair straddles zero; zero pairs only with zero."""
    return bool(np.all(np.sign(xs) == -np.sign(rs)))


U_GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


class Exact:
    """The exact oracle on a 1001-atom rational measure."""

    name = "exact"
    kind = "lib"
    inputs_per_run = 1
    n = 20_000
    draws = 100_000

    def inputs(self, seed: int, op: int):
        rng = op_rng(seed, op)
        values = rng.integers(-500, 501, self.n).tolist()
        return {"values": values, "pair_seed": int(rng.integers(2 ** 63))}

    def run(self, inp: dict, lap) -> dict:
        from twopoint import disintegration, measure, optimal, selfnorm
        mu = measure.ZeroMeanMeasure.from_samples(inp["values"])
        lap("from_samples")
        dec = disintegration.decompose(mu)
        lap("decompose")
        moments = disintegration.ratio_moments(mu)
        lap("ratio_moments")
        routes = []
        for mode in disintegration.MIXTURE_MODES:
            routes.append(disintegration.mixture_expect(mu, _square, mode))
            lap(f"mixture_expect.{mode}")
        sides = disintegration.side_masses_from_levels(mu)
        lap("side_masses_from_levels")
        cost = optimal.canonical_cost(mu, optimal.ratio_pow(1))
        lap("canonical_cost")
        xs, rs, us = disintegration.sample_pairs(
            mu, self.draws, np.random.default_rng(inp["pair_seed"]))
        lap("sample_pairs")
        report = selfnorm.conservative_test(xs, rs, "gaussian")
        lap("conservative_test")
        involution_failures = 0
        for u in U_GRID:
            for loc, _mass in mu.atoms:
                r = mu.reciprocate(loc, u)
                v = mu.v_map(loc, u)
                if mu.reciprocate(r, v) != mu.regularize(loc, u):
                    involution_failures += 1
            lap(f"involutions.u={u}")
        return {"mu": mu, "dec": dec, "moments": moments, "routes": routes,
                "sides": sides, "cost": cost, "pairs": (xs, rs, us),
                "report": report, "involution_failures": involution_failures}

    def check(self, res: dict) -> list:
        mu, dec = res["mu"], res["dec"]
        bad = []
        if sum(w for w, _law in dec) != 1:
            bad.append("decomposition weights do not sum to exactly 1")
        if dec.reassembled_atoms() != dict(mu.atoms):
            bad.append("reassembled atoms differ from the measure")
        if len(set(res["routes"])) != 1:
            bad.append("mixture routes disagree")
        if res["moments"].ex_over_r != -1:
            bad.append(f"ex_over_r is {res['moments'].ex_over_r!r}")
        if res["sides"] != (mu.prob_positive, mu.prob_negative):
            bad.append("side masses from levels differ from the atoms")
        if res["involution_failures"]:
            bad.append(f"{res['involution_failures']} involution failures")
        if not _opposite_signs(*res["pairs"][:2]):
            bad.append("a sampled pair does not have opposite signs")
        return bad

    def canonical(self, res: dict):
        report = res["report"]
        return [[(w, law.a, law.b) for w, law in res["dec"]],
                res["moments"].er_over_x, res["routes"], res["sides"],
                res["cost"], res["pairs"],
                (report.statistic, report.p_value),
                res["involution_failures"]]

    def probe_measure(self, inp: dict) -> str:
        """The operation's measure as ``twopoint`` measure JSON."""
        from twopoint import measure
        mu = measure.ZeroMeanMeasure.from_samples(inp["values"])
        return json.dumps({"atoms": [[str(loc), str(mass)]
                                     for loc, mass in mu.atoms]})


class Pairs:
    """The float64 path: decompose and draw pairs from 5000 t(3) atoms."""

    name = "pairs"
    kind = "lib"
    inputs_per_run = 6
    n = 5000
    draws = 100_000
    scalar_checks = 200

    def inputs(self, seed: int, op: int):
        rng = op_rng(seed, op)
        return {"values": rng.standard_t(3, self.n),
                "pair_seed": int(rng.integers(2 ** 63))}

    def run(self, inp: dict, lap) -> dict:
        from twopoint import disintegration, measure, selfnorm
        mu = measure.ZeroMeanMeasure.from_samples(inp["values"])
        lap("from_samples")
        dec = disintegration.decompose(mu)
        lap("decompose")
        xs, rs, us = disintegration.sample_pairs(
            mu, self.draws, np.random.default_rng(inp["pair_seed"]))
        lap("sample_pairs")
        report = selfnorm.conservative_test(xs, rs, "gaussian")
        lap("conservative_test")
        return {"mu": mu, "dec": dec, "pairs": (xs, rs, us),
                "report": report}

    def check(self, res: dict) -> list:
        mu = res["mu"]
        xs, rs, us = res["pairs"]
        bad = []
        total = sum(w for w, _law in res["dec"])
        if abs(total - 1.0) > 1e-9:
            bad.append(f"decomposition weights sum to {total!r}")
        if not _opposite_signs(xs, rs):
            bad.append("a sampled pair does not have opposite signs")
        mismatches = sum(
            mu.reciprocate(float(x), float(u)) != r
            for x, r, u in zip(xs[:self.scalar_checks],
                               rs[:self.scalar_checks],
                               us[:self.scalar_checks]))
        if mismatches:
            bad.append(f"{mismatches} of {self.scalar_checks} pairs differ "
                       "from scalar reciprocate")
        return bad

    def canonical(self, res: dict):
        report = res["report"]
        return [[(w, law.a, law.b) for w, law in res["dec"]], res["pairs"],
                (report.statistic, report.p_value)]


WORKLOADS = {w.name: w for w in (CliTest(), CliEstimate(), Exact(), Pairs())}
