"""Command line front end.

Subcommands mirror the library layers: ``disintegrate`` and ``verify``
work on a measure given as JSON, ``test`` and ``estimate`` consume a
column of sample values, ``model`` tabulates and validates the curve
families, and ``optimal`` compares mixture representations.  All output
is deterministic JSON (sorted keys; exact rationals rendered as
fraction strings) so runs can be diffed.

Exit status: 0 on success, 1 when the inputs fail validation or a
verification battery reports a failure, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from fractions import Fraction

import numpy as np

from . import disintegration, estimator, modeling, optimal, selfnorm
from .errors import InputError, TwopointError
from .measure import INF, NEG_INF, ZeroMeanMeasure, _shown

__all__ = ["main", "build_parser"]


# --- canonical JSON -------------------------------------------------------

def _plain(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if obj == INF:
            return "inf"
        if obj == NEG_INF:
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def emit(payload: dict, out) -> None:
    # exact results can have far more digits than the int-to-str limit
    # allows; the limit guards parsing of outside input, not our output
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(_plain(payload), sort_keys=True, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    out.write(text + "\n")


def _substream(seed: int, label: str):
    """Independent generator for one command stage: the label is hashed
    in, so adding a stage never shifts the draws of another."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


# --- input loading --------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str):
    """JSON with decimals parsed exactly.  Malformed text and numbers
    beyond the int-to-str digit limit are both input errors."""
    try:
        return json.loads(_read_text(path), parse_float=Fraction)
    except ValueError as exc:
        raise InputError(f"could not parse {path!r} as JSON: {exc}")


def load_measure(path: str) -> ZeroMeanMeasure:
    """Measure from JSON, decimals parsed exactly."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "atoms" in obj and "backend" not in obj:
        obj = {"backend": "discrete", **obj}
    return ZeroMeanMeasure.from_jsonable(obj)


def load_samples(path: str) -> np.ndarray:
    """One value per line (commas also accepted)."""
    tokens = _read_text(path).replace(",", "\n").split()
    if not tokens:
        raise InputError("sample input is empty")
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        for token in tokens:
            try:
                float(token)
            except ValueError:
                raise InputError(f"not a number in sample input: {token!r}")
        raise


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must look like lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"bad grid {spec!r}")
    if count < 2 or not lo < hi:
        raise InputError(f"bad grid {spec!r}")
    return np.linspace(lo, hi, count)


# --- subcommand bodies ----------------------------------------------------

def _cmd_disintegrate(args, out) -> int:
    mu = load_measure(args.input)
    dec = disintegration.decompose(mu)
    moments = disintegration.ratio_moments(mu)
    payload = {
        "m": mu.m,
        "prob_zero": mu.prob_zero,
        "decomposition": dec.to_jsonable(),
        "ex_over_r": moments.ex_over_r,
        "er_over_x": moments.er_over_x,
    }
    emit(payload, out)
    return 0


def _cmd_verify(args, out) -> int:
    mu = load_measure(args.input)
    far = max(mu.support, key=abs)
    if abs(far) > sys.float_info.max:
        raise InputError(f"verify compares in floats; atom {_shown(far)} "
                         "lies beyond the float range")
    m = float(mu.m)
    grid = np.linspace(0.0, 2.0 * m, args.grid)
    h_ok = all(
        abs(float(mu.h_plus(h)) - min(h, m)) <= 1e-12 * (1.0 + m)
        and abs(float(mu.h_minus(h)) - min(h, m)) <= 1e-12 * (1.0 + m)
        for h in grid)

    v_ok = True
    # float u would demote the levels of an exact measure to floats
    us = (0.25, 0.5, 0.75, 1.0)
    if mu.is_exact:
        us = tuple(map(Fraction, us))
    for loc, _mass in mu.atoms:
        for u in us:
            r = mu.reciprocate(loc, u)
            v = mu.v_map(loc, u)
            if float(abs(mu.reciprocate(r, v) - mu.regularize(loc, u))) > 1e-9:
                v_ok = False

    probe = lambda x: float(x) * float(x)
    direct = float(disintegration.mixture_expect(mu, probe, "direct"))
    modes_ok = all(
        abs(float(disintegration.mixture_expect(mu, probe, mode)) - direct)
        <= 1e-12 * (1.0 + abs(direct))
        for mode in disintegration.MIXTURE_MODES)

    p_pos, p_neg = disintegration.side_masses_from_levels(mu)
    sides_ok = (abs(float(p_pos) - float(mu.prob_positive)) <= 1e-12
                and abs(float(p_neg) - float(mu.prob_negative)) <= 1e-12)

    checks = {"h_identity": h_ok, "v_involution": v_ok,
              "mixture_modes": modes_ok, "side_masses": sides_ok}
    n_pass = sum(checks.values())
    passed = n_pass == len(checks)
    emit({"checks": checks, "m": mu.m, "passed_count": n_pass,
          "failed_count": len(checks) - n_pass, "passed": passed}, out)
    return 0 if passed else 1


def _cmd_test(args, out) -> int:
    xs = load_samples(args.input)
    pairs = estimator.empirical_partners(xs)
    # partners are fitted on the recentred sample; shift them back so the
    # pair widths stay those of the recentred pairing while the numerator
    # keeps the raw sum
    shift = float(np.mean(xs))
    report = selfnorm.conservative_test(xs, pairs.partners + shift,
                                        args.mode, p=args.p, lam=args.lam)
    emit(report.to_jsonable(), out)
    return 0


def _cmd_model(args, out) -> int:
    spec = {"family": args.family}
    if args.p is not None:
        spec["p"] = INF if args.p == "inf" else (
            NEG_INF if args.p == "-inf" else float(args.p))
    if args.c is not None:
        spec["c"] = args.c
    if args.alpha is not None:
        spec["alpha"] = args.alpha
    if args.kappa is not None:
        spec["kappa"] = args.kappa
    curve = modeling.family_from_spec(spec)
    report = None
    if args.validate:
        report = modeling.validate_curve(
            curve, check_derivative=curve.smooth_at_zero)
    if args.table is not None and report is None:
        # a plain table request yields CSV
        out.write("x,r\n")
        for x, r in modeling.curve_table(curve, _parse_grid(args.table)):
            out.write(f"{x!r},{r!r}\n")
        return 0
    payload = {"label": curve.label, "a_minus": curve.a_minus,
               "a_plus": curve.a_plus}
    if report is not None:
        payload["report"] = report.to_jsonable()
    if args.table is not None:
        payload["table"] = [[x, r] for x, r in
                            modeling.curve_table(curve,
                                                 _parse_grid(args.table))]
    emit(payload, out)
    if report is not None and not report.passed:
        return 1
    return 0


def _cmd_optimal(args, out) -> int:
    mu = load_measure(args.input)
    alt_obj = _load_json(args.alt)
    try:
        triples = [(c["w"], c["a"], c["b"]) for c in alt_obj["components"]]
    except (KeyError, TypeError):
        raise InputError("alternative must be "
                         '{"components": [{"w", "a", "b"}, ...]}')
    alt = optimal.alternative_disintegration(mu, triples)
    marg = optimal.marginal_check(mu, alt)
    payload = {
        "marginals": {"passed": marg.passed,
                      "discrepancy": marg.discrepancy},
        "tilted_weights": list(optimal.tilted_weights(alt, mu.m)),
    }
    if args.cost is not None:
        try:
            spec = json.loads(args.cost)
        except ValueError as exc:
            raise InputError(f"could not parse --cost as JSON: {exc}")
        cost = optimal.cost_from_spec(spec)
        payload["comparison"] = optimal.cost_compare(
            mu, cost, alt).to_jsonable()
    else:
        payload["norms"] = optimal.norm_report(mu, alt).to_jsonable()
    emit(payload, out)
    ok = marg.passed and payload.get("comparison", {}).get(
        "satisfied", True) and payload.get("norms", {}).get("passed", True)
    return 0 if ok else 1


def _cmd_estimate(args, out) -> int:
    xs = load_samples(args.input)
    run = estimator.bootstrap_ci(xs, level=args.level,
                                 resamples=args.resamples, kind=args.mode,
                                 lam=args.lam, seed=args.seed,
                                 rng=_substream(args.seed, "estimate"))
    emit(run.to_jsonable(), out)
    return 0


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopoint",
        description="Zero-mean two-point mixtures: pairing, testing, "
                    "modeling, estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="path to the input file, or - for stdin")
        p.add_argument("--output", default=None,
                       help="write JSON here instead of stdout")

    p = sub.add_parser("disintegrate",
                       help="canonical two-point mixture of a measure")
    add_io(p)
    p.set_defaults(fn=_cmd_disintegrate)

    p = sub.add_parser("verify",
                       help="identity battery for a discrete measure")
    add_io(p)
    p.add_argument("--grid", type=int, default=50,
                   help="number of level probes (default 50)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("test", help="conservative self-normalized test")
    add_io(p)
    p.add_argument("--mode", choices=("gaussian", "bernoulli"),
                   default="gaussian")
    p.add_argument("--p", type=float, default=None,
                   help="certified asymmetry level (bernoulli mode)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="norm exponent (bernoulli mode; defaults to the "
                        "critical one)")
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("model", help="build and probe a curve family")
    add_io(p, needs_input=False)
    p.add_argument("--family", required=True,
                   choices=("power", "hyperbolic", "cubic_rate",
                            "two_slope"))
    p.add_argument("--p", default=None,
                   help="power exponent; inf or -inf for the limits")
    p.add_argument("--c", type=float, default=None, help="scale")
    p.add_argument("--alpha", type=float, default=None, help="asymmetry")
    p.add_argument("--kappa", type=float, default=None, help="slope ratio")
    p.add_argument("--table", default=None, metavar="LO:HI:COUNT",
                   help="tabulate the curve on this grid")
    p.add_argument("--validate", action="store_true",
                   help="run the axiom probes")
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser("optimal",
                       help="compare an alternative representation")
    add_io(p)
    p.add_argument("--alt", required=True,
                   help="path to the alternative components JSON")
    p.add_argument("--cost", default=None,
                   help='cost spec JSON, e.g. {"kind": "ratio_pow", "p": 1}')
    p.set_defaults(fn=_cmd_optimal)

    p = sub.add_parser("estimate",
                       help="bootstrap confidence interval for the mean")
    add_io(p)
    p.add_argument("--mode", choices=estimator.PIVOT_KINDS, default="W")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--resamples", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True,
                   help="resampling seed (stochastic commands require one)")
    p.set_defaults(fn=_cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as out:
                return args.fn(args, out)
        return args.fn(args, sys.stdout)
    except TwopointError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
