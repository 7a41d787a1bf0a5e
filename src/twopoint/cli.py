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
import warnings
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
        text = json.dumps(_plain(payload), sort_keys=True, indent=2,
                          allow_nan=False)
    except ValueError as exc:
        # +-inf render as strings, so only a nan gets here
        raise InputError(f"result is not representable as JSON: {exc}")
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
    return ZeroMeanMeasure.from_jsonable(_load_json(path))


def _parse_tokens(text: str) -> np.ndarray:
    """Every whitespace-separated token of a nonblank ``text`` read by
    ``float``; the first token it rejects is named in the error."""
    tokens = text.split()
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        for token in tokens:
            try:
                float(token)
            except ValueError:
                raise InputError(f"not a number in sample input: {token!r}")
        raise


def load_samples(path: str) -> np.ndarray:
    """One value per line (commas also accepted).

    The text is parsed in one C pass, which rounds as ``float`` does and
    makes no token objects.  Text that pass cannot read to its end, or
    that gives a non-finite entry (it reads ``nan(1)``, which ``float``
    rejects), is read again token by token with ``float``, which decides
    what is accepted."""
    try:
        text = _read_text(path)
    except UnicodeDecodeError as exc:
        raise InputError(f"could not decode sample input: {exc}")
    text = text.replace(",", " ")
    # numpy reads a blank text as [-1.0]
    if not text or text.isspace():
        raise InputError("sample input is empty")
    try:
        with warnings.catch_warnings():
            # numpy 1.x only warns, and keeps what it read, where it
            # cannot read the text to its end
            warnings.simplefilter("error", DeprecationWarning)
            xs = np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):
        return _parse_tokens(text)
    if not np.isfinite(xs).all():
        return _parse_tokens(text)
    return xs


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError(f"grid must look like lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"bad grid {spec!r}")
    if count < 2 or not 0 < hi - lo < INF:
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
    # H+-(h) = min(h, side total) are min(h, m) at every h iff each total is m
    m = float(mu.m)
    h_ok = all(abs(float(side(INF)) - m) <= 1e-12 * (1.0 + m)
               for side in (mu.h_plus, mu.h_minus))

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

    if mu.is_exact:
        # the five routes agree exactly here, at any scale
        routes = {disintegration.mixture_expect(mu, lambda x: x * x, mode)
                  for mode in disintegration.MIXTURE_MODES}
        modes_ok = len(routes) == 1
    else:
        probe = lambda x: float(x) * float(x)
        direct = float(disintegration.mixture_expect(mu, probe, "direct"))
        modes_ok = all(
            abs(float(disintegration.mixture_expect(mu, probe, mode))
                - direct) <= 1e-12 * (1.0 + abs(direct))
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
    # partners fitted from the sample void the conservative bound
    emit({**report.to_jsonable(), "certified": False}, out)
    return 0


def _cmd_model(args, out) -> int:
    grid = None if args.table is None else _parse_grid(args.table)
    spec = {"family": args.family, "p": args.p, "c": args.c,
            "alpha": args.alpha, "kappa": args.kappa}
    curve = modeling.family_from_spec(
        {k: v for k, v in spec.items() if v is not None})
    report = None
    if args.validate:
        report = modeling.validate_curve(curve)
    rows = None if grid is None else modeling.curve_table(curve, grid)
    if rows is not None and report is None:
        # a plain table request yields CSV
        out.write("x,r\n")
        for x, r in rows:
            out.write(f"{x!r},{r!r}\n")
        return 0
    payload = {"label": curve.label, "a_minus": curve.a_minus,
               "a_plus": curve.a_plus}
    if report is not None:
        payload["report"] = report.to_jsonable()
    if rows is not None:
        payload["table"] = [[x, r] for x, r in rows]
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

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, like every other error of a command,
    are one line on stderr; ``--help`` still prints the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed`` value: a nonnegative integer, as numpy's generators
    take."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--family", required=True, choices=modeling._FAMILIES)
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
    p.add_argument("--seed", type=_seed, required=True,
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
    except (TwopointError, OSError) as exc:
        # an OSError is a file that cannot be opened, read or written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; report the public name
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
