"""End-to-end runs of the command line interface."""

import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twopoint
from twopoint import ZeroMeanMeasure, cli, decompose, ratio_moments

EXAMPLE = {"atoms": [[-1, "5/10"], [0, "1/10"], [1, "3/10"], [2, "1/10"]]}
FOUR = {"atoms": [[-2, "1/10"], [-1, "4/10"], [1, "4/10"], [2, "1/10"]]}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_float(v):
    return float(Fraction(v)) if isinstance(v, str) else float(v)


class TestDisintegrate:
    def test_worked_weights(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", EXAMPLE)
        code, out, _ = run(capsys, ["disintegrate", "--input", src])
        assert code == 0
        data = json.loads(out)
        weights = sorted(as_float(c["w"])
                         for c in data["decomposition"]["components"])
        assert weights == [0.1, 0.3, 0.6]
        assert as_float(data["m"]) == 0.5
        assert data["m"] == "1/2"
        assert as_float(data["er_over_x"]) == -1.15
        assert as_float(data["ex_over_r"]) == -1.0

    def test_sorted_keys(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", EXAMPLE)
        _, out, _ = run(capsys, ["disintegrate", "--input", src])
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"

    def test_bad_json(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        code, _, err = run(capsys, ["disintegrate", "--input", str(src)])
        assert code == 1
        assert "error:" in err


class TestVerify:
    def test_passes_on_example(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", EXAMPLE)
        code, out, _ = run(capsys, ["verify", "--input", src])
        assert code == 0
        data = json.loads(out)
        assert data["passed"]
        assert data["passed_count"] == 4
        assert data["failed_count"] == 0

    def test_rejects_nonzero_mean(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json",
                         {"atoms": [[1, "1/2"], [2, "1/2"]]})
        code, _, err = run(capsys, ["verify", "--input", src])
        assert code == 1
        assert "NonZeroMean" in err

    def test_level_grid_is_no_option(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", EXAMPLE)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--input", src, "--grid", "5"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_mean_residual_fails_the_level_identity(self, tmp_path, capsys):
        # the positive total is 1/2 + 5e-10 against m = 1/2 + 2.5e-10
        src = write_json(tmp_path / "mu.json",
                         {"atoms": [[-1, "1/2"], ["1.000000001", "1/2"]]})
        code, out, _ = run(capsys, ["verify", "--input", src])
        assert code == 1
        assert out == (
            '{\n  "checks": {\n    "h_identity": false,\n'
            '    "mixture_modes": false,\n    "side_masses": false,\n'
            '    "v_involution": true\n  },\n  "failed_count": 3,\n'
            '  "m": "2000000001/4000000000",\n  "passed": false,\n'
            '  "passed_count": 1\n}\n')

    def test_exact_routes_compare_exactly(self, tmp_path, capsys):
        # a float probe squares 1e160 past the float range; the exact
        # measure's routes agree exactly at any scale
        src = tmp_path / "mu.json"
        src.write_text('{"atoms": [[-1e160, 0.5], [1e160, 0.5]]}')
        code, out, _ = run(capsys, ["verify", "--input", str(src)])
        assert code == 0
        assert json.loads(out)["checks"]["mixture_modes"] is True

    @pytest.mark.parametrize("backend, code", [("discrete", 0),
                                               ("analytic", 1)])
    def test_backend_key(self, tmp_path, capsys, backend, code):
        src = write_json(tmp_path / "mu.json",
                         {"backend": backend, **EXAMPLE})
        got, out, err = run(capsys, ["verify", "--input", src])
        assert got == code
        if code:
            assert out == ""
            assert err.startswith("error: InputError: ")
            assert len(err.splitlines()) == 1
        else:
            assert json.loads(out)["passed"]


class TestTest:
    def test_symmetric_reduction_classic_statistic(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text("3 1 3 1\n")
        code, out, _ = run(capsys, ["test", "--input", str(src),
                                    "--mode", "gaussian"])
        assert code == 0
        data = json.loads(out)
        # sum x / sqrt(sum (x - mean)^2) = 8 / 2
        assert data["statistic"] == 4.0
        assert data["kind"] == "gaussian"

    def test_bernoulli_needs_p(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text("3 1 3 1\n")
        code, _, err = run(capsys, ["test", "--input", str(src),
                                    "--mode", "bernoulli"])
        assert code == 1
        assert "BadP" in err

    def test_non_numeric_sample_is_one_error_line(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text("1 abc 2\n")
        code, out, err = run(capsys, ["test", "--input", str(src)])
        assert (code, out) == (1, "")
        assert err == ("error: InputError: not a number in sample input: "
                       "'abc'\n")

    def test_reads_stdin(self, capsys, monkeypatch):
        # the README sample
        monkeypatch.setattr(sys, "stdin", io.StringIO("-3\n-1\n-1\n0\n2\n3\n"))
        code, out, _ = run(capsys, ["test", "--input", "-"])
        assert code == 0
        assert json.loads(out)["n"] == 6

    @pytest.mark.parametrize("mode", [["--mode", "gaussian"],
                                      ["--mode", "bernoulli", "--p", "0.33"]])
    def test_fitted_partners_are_not_certified(self, tmp_path, capsys, mode):
        src = tmp_path / "xs.txt"
        src.write_text("-3 -1 -1 0 2 3\n")
        code, out, _ = run(capsys, ["test", "--input", str(src), *mode])
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is False
        assert 0.0 <= data["p_value"] <= 1.0
        assert data["n"] == 6

    def test_width_norm_overflow_is_quiet(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text("1.5e308 -1.5e308 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, ["test", "--input", str(src)])
        assert code == 0
        assert json.loads(out)["n"] == 3


def token_load_samples(path):
    """The token-by-token loader: every token read by ``float``."""
    tokens = cli._read_text(path).replace(",", "\n").split()
    if not tokens:
        raise cli.InputError("sample input is empty")
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        for token in tokens:
            try:
                float(token)
            except ValueError:
                raise cli.InputError(
                    f"not a number in sample input: {token!r}")
        raise


def loaded(load, path):
    """Float bits of what ``load`` reads, or its one-line error."""
    try:
        return load(path).view(np.int64).tolist()
    except cli.InputError as exc:
        return str(exc)


SEPARATORS = [" ", "\t", "\r\n", "\n", "\x0b", "\x0c", "\x1c", "\xa0",
              ",", ", ", ",,", " , ,", "\n\n"]
ODD_TOKENS = ["inf", "-nan", "1_000", "nan(1)", "\u0661\u0662", "-0",
              "nan(", "1e", "1-2", "0x10", "--1", "abc"]
TOKENS = st.one_of(
    st.floats().map(repr),
    st.builds(lambda x, p: f"%.{p}e" % x, st.floats(), st.integers(0, 20)),
    st.sampled_from(ODD_TOKENS))
SAMPLE_TEXTS = st.one_of(
    st.builds(lambda head, pairs: head + "".join(t + sep for t, sep in pairs),
              st.sampled_from(["", *SEPARATORS]),
              st.lists(st.tuples(TOKENS, st.sampled_from(SEPARATORS)),
                       min_size=1, max_size=8)),
    # blank and comma-only texts
    st.lists(st.sampled_from(SEPARATORS), max_size=6).map("".join))


@settings(max_examples=400)
@given(SAMPLE_TEXTS)
@example("")
@example("  \n")
@example(",,\n, ,")
@example("1 nan(1) 2")
@example("1\r\n-0\t2.5e-3,\x0b\x0c4")
@example("\u0661\u0662 1_000\xa03\x1c")
def test_load_samples_matches_token_loader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential-xs.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert loaded(cli.load_samples, str(path)) == loaded(token_load_samples,
                                                          str(path))


@pytest.mark.parametrize("text", ["", "\n", " \t\r\n ", ",", ",, ,\n,",
                                  " \n\t,\n"])
def test_blank_sample_input_is_empty(tmp_path, capsys, text):
    src = tmp_path / "xs.txt"
    src.write_text(text)
    code, out, err = run(capsys, ["test", "--input", str(src)])
    assert (code, out) == (1, "")
    assert err == "error: InputError: sample input is empty\n"


@pytest.mark.parametrize("argv", [["test"], ["estimate", "--seed", "1"]])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_invalid_utf8_is_one_error_line(tmp_path, capsys, monkeypatch,
                                        argv, source):
    raw = b"1\n\xff\n-1\n"
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(raw), "utf-8"))
        path = "-"
    else:
        (tmp_path / "xs.txt").write_bytes(raw)
        path = str(tmp_path / "xs.txt")
    code, out, err = run(capsys, [*argv, "--input", path])
    assert (code, out) == (1, "")
    assert err.startswith("error: InputError: could not decode sample "
                          "input: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, text, err", [
    (["test"], "1e308 1e308 -1\n", "InputError: sample sum overflows the "
     "float range"),
    (["test", "--mode", "bernoulli", "--p", "0.3"], "1e308 1e308 -1\n",
     "InputError: sample sum overflows the float range"),
    (["estimate", "--seed", "1"], "1e308 1e308 -1\n",
     "InputError: sample sum overflows the float range"),
    # a sample file is no measure
    (["verify"], "-3\n-1\n-1\n0\n2\n3\n", "InputError: could not parse"),
], ids=["test", "bernoulli-test", "estimate", "verify-a-sample"])
def test_unusable_input_file_is_one_error_line(tmp_path, capsys, argv, text,
                                               err):
    src = tmp_path / "in.txt"
    src.write_text(text)
    code, out, got = run(capsys, [*argv, "--input", str(src)])
    assert (code, out) == (1, "")
    assert got.startswith(f"error: {err}")
    assert len(got.splitlines()) == 1


@pytest.mark.parametrize("text, seed", [
    ("-3\n-1\n-1\n0\n2\n3\n", "7"),
    # mostly ties: most resamples pair zeros with zero, and some hold one
    # side only
    ("0 0 0 0 0 0 0 0 1 -1\n", "1"),
], ids=["readme-sample", "ties"])
def test_estimate_interval_holds_the_mean(tmp_path, capsys, text, seed):
    src = tmp_path / "xs.txt"
    src.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["estimate", "--input", str(src),
                                      "--seed", seed])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["ci"][0] <= data["mean"] <= data["ci"][1]


def test_invalid_utf8_measure_is_a_json_error(tmp_path, capsys):
    src = tmp_path / "mu.json"
    src.write_bytes(b'{"atoms": [[-1, 0.5], [1, 0.5]]}\xff')
    code, out, err = run(capsys, ["disintegrate", "--input", str(src)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: InputError: could not parse {str(src)!r} "
                          "as JSON: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def test_cli_loads_no_scipy(tmp_path):
    src = tmp_path / "xs.txt"
    src.write_text("-3 -1 -1 0 2 3\n")
    child = f"""
import sys
import twopoint, twopoint.cli
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
after_import = scipy()
for argv in (["test", "--mode", "bernoulli", "--p", "0.33"],
             ["estimate", "--seed", "1", "--resamples", "100"]):
    code = twopoint.cli.main(argv + ["--input", {str(src)!r},
                                     "--output", {str(tmp_path / "out")!r}])
    assert code == 0, argv
print(after_import, scipy())
"""
    env = {"PYTHONPATH": str(Path(twopoint.__file__).parents[1]),
           "PATH": ""}
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]


class TestModel:
    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, ["model", "--family", "power",
                                    "--p", "1", "--c", "1",
                                    "--table=-2:2:5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,r"
        assert len(lines) == 6
        x, r = lines[1].split(",")
        assert float(x) == -2.0
        assert float(r) == 2.0

    @pytest.mark.parametrize("argv, slope", [
        (["--family", "hyperbolic", "--alpha", "0.5", "--table",
          "1e200:1e201:2"], -1 / 3),
        (["--family", "cubic_rate", "--alpha", "0.5",
          "--table=-1e300:1e300:7"], -1.0),
    ], ids=["hyperbolic", "cubic_rate"])
    def test_table_far_out(self, capsys, argv, slope):
        # far out r(x) ~ -x (1 - alpha) / (1 + alpha), resp. -x + O(1)
        code, out, err = run(capsys, ["model", *argv])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "x,r"
        assert len(lines) == 1 + int(argv[-1].rsplit(":", 1)[1])
        for line in lines[1:]:
            x, r = map(float, line.split(","))  # plain repr floats
            assert abs(r - slope * x) <= 1e-12 * abs(x)

    def test_validate_json(self, capsys):
        code, out, _ = run(capsys, ["model", "--family", "two_slope",
                                    "--kappa", "2", "--validate"])
        assert code == 0
        data = json.loads(out)
        assert data["report"]["passed"] is True

    def test_validate_and_table(self, capsys):
        code, out, _ = run(capsys, ["model", "--family", "hyperbolic",
                                    "--alpha", "0.5", "--c", "1.3",
                                    "--validate", "--table", "0:2:3"])
        assert code == 0
        data = json.loads(out)
        assert data["report"]["passed"] is True
        assert len(data["table"]) == 3

    @pytest.mark.parametrize("extra", [
        ["power", "--p", "abc", "--c", "1"],
        ["power", "--c", "1"],
        ["power", "--p", "1", "--c", "1", "--table=-2:2:x"],
        ["power", "--p", "1", "--c", "1", "--table=-inf:2:3"],
        ["power", "--p", "1", "--c", "1", "--table=-1e308:1e308:3"],
        ["power", "--p", "1", "--c", "1", "--table", "1:2"],
        ["power", "--p", "2", "--alpha", "0.5"],
        ["two_slope", "--kappa", "2", "--c", "1"],
        ["power", "--p=[2]"],
        ["power", "--p", "null"],
        ["power", "--p", "true"],
    ], ids=["non-numeric-exponent", "missing-exponent", "bad-table-count",
            "infinite-table-bound", "table-span-overflows",
            "table-without-count", "power-with-alpha", "two-slope-with-c",
            "list-exponent", "null-exponent", "bool-exponent"])
    def test_bad_input_is_one_error_line(self, capsys, extra):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["model", "--family", *extra])
        assert code == 1
        assert out == ""
        assert err.startswith("error: InputError: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, codes", [
        (["--family", "hyperbolic", "--alpha", "1", "--c", "1e-300"], (0, 1)),
        (["--family", "power", "--p", "inf", "--c", "1e-300"], (0, 1)),
        (["--family", "power", "--p", "1e-300", "--c", "1"], (0,)),
    ], ids=["hyperbolic-tiny-scale", "power-inf-tiny-scale",
            "power-tiny-exponent"])
    def test_validate_at_extreme_scales(self, capsys, argv, codes):
        # the slope probes stay inside the curve's range, and a slope or
        # a jump that is not finite is a failure, not a nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["model", *argv, "--validate"])
        assert code in codes
        assert err == ""
        assert "nan" not in out.lower()
        report = json.loads(out)["report"]
        assert report["passed"] is (code == 0)

    def test_validate_cubic_rate(self, capsys):
        code, out, _ = run(capsys, ["model", "--family", "cubic_rate",
                                    "--alpha", "0.5", "--c", "1",
                                    "--validate"])
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    @pytest.mark.parametrize("p, label", [
        ("inf", "power(p=inf, c=1.0)"), ("-inf", "power(p=-inf, c=1.0)"),
        ("2", "power(p=2.0, c=1.0)")], ids=["inf", "minus-inf", "number"])
    def test_exponent_strings(self, capsys, p, label):
        code, out, _ = run(capsys, ["model", "--family", "power", f"--p={p}"])
        assert code == 0
        assert json.loads(out)["label"] == label


class TestOptimal:
    def test_alternative_report(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", FOUR)
        alt = write_json(tmp_path / "alt.json", {"components": [
            {"w": "3/10", "a": -2, "b": 1},
            {"w": "3/10", "a": -1, "b": 2},
            {"w": "4/10", "a": -1, "b": 1}]})
        code, out, _ = run(capsys, ["optimal", "--input", src,
                                    "--alt", alt])
        assert code == 0
        data = json.loads(out)
        assert data["marginals"]["passed"] is True
        assert data["norms"]["passed"] is True

    def test_single_cost(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", FOUR)
        alt = write_json(tmp_path / "alt.json", {"components": [
            {"w": "3/10", "a": -2, "b": 1},
            {"w": "3/10", "a": -1, "b": 2},
            {"w": "4/10", "a": -1, "b": 1}]})
        code, out, _ = run(capsys, [
            "optimal", "--input", src, "--alt", alt,
            "--cost", '{"kind": "ratio_pow", "p": 1}'])
        assert code == 0
        data = json.loads(out)
        assert data["comparison"]["satisfied"] is True


    def test_float_cost_within_tolerance(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", FOUR)
        alt = tmp_path / "alt.json"
        alt.write_text(ALT)
        code, out, _ = run(capsys, [
            "optimal", "--input", src, "--alt", str(alt),
            "--cost", '{"kind": "abs_sum_pow", "p": 2.5}'])
        assert code == 0
        data = json.loads(out)["comparison"]
        assert data["canonical"] == 14.437902832994922
        assert data["alternative"] == 12.277922928577391
        assert data["satisfied"] is True


class TestEstimate:
    def test_seeded_reproducibility(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text(" ".join(str((i * 7919 % 101) / 50.0 - 1.0)
                                for i in range(60)))
        args = ["estimate", "--input", str(src), "--resamples", "200"]
        _, out1, _ = run(capsys, args + ["--seed", "5"])
        _, out2, _ = run(capsys, args + ["--seed", "5"])
        _, out3, _ = run(capsys, args + ["--seed", "6"])
        assert out1 == out2
        assert out1 != out3
        data = json.loads(out1)
        assert data["seed"] == 5
        assert len(data["ci"]) == 2
        assert data["ci"][0] <= data["mean"] <= data["ci"][1]

    def test_seed_required(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text("1 2 3")
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--input", str(src)])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_is_one_usage_line(self, tmp_path, capsys, seed):
        src = tmp_path / "xs.txt"
        src.write_text("1 2 3")
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--input", str(src), "--seed", seed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "--seed" in captured.err

    def test_nan_result_is_an_error(self, tmp_path, capsys):
        # the resample sums overflow, so the interval ends are nan, which
        # JSON cannot carry
        src = tmp_path / "xs.txt"
        src.write_text("1.5e308 -1.5e308 1")
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, ["estimate", "--input", str(src),
                                          "--seed", "1", "--resamples", "100"])
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert errors[0].startswith("error: InputError: ")

    def test_subnormal_sample(self, tmp_path):
        # the squared widths underflow, so the studentizer rescales them;
        # the interval is finite and holds the mean
        src = tmp_path / "xs.txt"
        src.write_text("-3.5e-323 -1.5e-323 1e-323 0 5e-324 0 0 "
                       "-3.5e-323 3.5e-323 3.5e-323")
        env = {"PYTHONPATH": str(Path(twopoint.__file__).parents[1]),
               "PATH": ""}
        done = subprocess.run(
            [sys.executable, "-m", "twopoint.cli", "estimate", "--input",
             str(src), "--seed", "1"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""
        out = json.loads(done.stdout)
        assert out["denominator"] > 0
        assert out["ci"][0] <= out["mean"] <= out["ci"][1]

    @pytest.mark.parametrize("argv, kind", [
        (["test", "--mode", "bernoulli", "--p", "0.5", "--lambda", "inf"],
         "BadLambda"),
        (["estimate", "--seed", "1", "--mode", "Y_lambda", "--lambda", "inf"],
         "BadLambda"),
        (["estimate", "--seed", "1", "--mode", "Y_lambda", "--lambda", "nan"],
         "BadLambda"),
        (["estimate", "--seed", "1", "--mode", "Y_lambda", "--lambda",
          "1e-300"], "Unbounded"),
        (["estimate", "--seed", "1", "--lambda", "nan"], "BadLambda"),
        (["estimate", "--seed", "1", "--lambda", "0"], "BadLambda"),
        (["estimate", "--seed", "1", "--lambda", "inf"], "BadLambda"),
        (["test", "--lambda", "nan"], "BadLambda"),
        (["test", "--lambda", "-1"], "BadLambda"),
        (["test", "--p", "7"], "BadP"),
        (["test", "--p", "nan"], "BadP"),
    ], ids=["test-inf", "estimate-inf", "estimate-nan", "estimate-tiny",
            "width-nan", "width-zero", "width-inf", "gaussian-lambda-nan",
            "gaussian-lambda-negative", "gaussian-p-above-one",
            "gaussian-p-nan"])
    def test_unusable_lambda_is_one_error_line(self, tmp_path, argv, kind):
        src = tmp_path / "xs.txt"
        src.write_text("1 -2 3 0.5 -1.5 2 -3")
        env = {"PYTHONPATH": str(Path(twopoint.__file__).parents[1]),
               "PATH": ""}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "twopoint.cli", *argv,
             "--input", str(src)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith(f"error: {kind}: ")

    def test_overflowing_resamples_print_one_line(self, tmp_path):
        src = tmp_path / "xs.txt"
        src.write_text("1.5e308, -1.5e308, 1")
        env = {"PYTHONPATH": str(Path(twopoint.__file__).parents[1]),
               "PATH": ""}
        done = subprocess.run(
            [sys.executable, "-m", "twopoint.cli", "estimate", "--input",
             str(src), "--seed", "1", "--resamples", "100"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: InputError: ")


@pytest.mark.parametrize("argv", [
    ["model", "--family", "power", "--p", "2", "--c", "1",
     f"--table=0:1:{10**15}"],
    ["estimate", "--input", "xs.txt", "--seed", "7",
     "--resamples", str(10**15)],
], ids=["model-table", "estimate-resamples"])
def test_memory_error_is_one_line(tmp_path, capsys, argv):
    # each array would pass any 64-bit address space, so numpy refuses it
    # before allocating anything, whatever the overcommit policy
    write_json(tmp_path / "mu.json", EXAMPLE)
    (tmp_path / "xs.txt").write_text("-3 -1 -1 0 2 3\n")
    argv = [str(tmp_path / word) if word.endswith((".json", ".txt"))
            else word for word in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: MemoryError: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--input", "missing.json"],
    ["disintegrate", "--input", "mu.json",
     "--output", "no-such-dir/out.json"],
], ids=["missing-input", "output-dir-missing"])
def test_os_error_is_one_line(tmp_path, capsys, argv):
    write_json(tmp_path / "mu.json", EXAMPLE)
    argv = [str(tmp_path / word) if word.endswith(".json") else word
            for word in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: FileNotFoundError: ")
    assert len(err.splitlines()) == 1


class TestOutputFile:
    def test_writes_file(self, tmp_path, capsys):
        src = write_json(tmp_path / "mu.json", EXAMPLE)
        dst = tmp_path / "out.json"
        code, out, _ = run(capsys, ["disintegrate", "--input", src,
                                    "--output", str(dst)])
        assert code == 0
        assert out == ""
        data = json.loads(dst.read_text())
        assert as_float(data["m"]) == 0.5


def exact_atoms(mu):
    return {"atoms": [[str(loc), str(mass)] for loc, mass in mu.atoms]}


def wide_measure():
    """1001 integer atoms: the exact ratio moment has a denominator of
    about 30 000 bits, far past the int-to-str digit limit."""
    rng = np.random.default_rng([201, 0])
    return ZeroMeanMeasure.from_samples(
        rng.integers(-500, 501, 20_000).tolist())


class TestExactOracle:
    def test_atoms_beyond_float_range(self, tmp_path, capsys):
        src = tmp_path / "mu.json"
        src.write_text(BEYOND_FLOAT)
        code, out, _ = run(capsys, ["disintegrate", "--input", str(src)])
        assert code == 0
        data = json.loads(out)
        assert Fraction(data["m"]) == 10 ** 400 / Fraction(2)
        [comp] = data["decomposition"]["components"]
        assert comp["w"] == "1"
        src.write_text('{"atoms": [[-1e400, 0.5], [1, 0.5]]}')
        code, _, err = run(capsys, ["disintegrate", "--input", str(src)])
        assert code == 1
        assert err.startswith("error: NonZeroMean")
        assert len(err.splitlines()) == 1

    def test_verify_keeps_exact_levels(self, tmp_path, capsys):
        mu = ZeroMeanMeasure.from_samples(
            [-2, 5, 0, -9, 4, 8, -6, -4, 0, -6, 1])
        src = write_json(tmp_path / "mu.json", exact_atoms(mu))
        code, out, _ = run(capsys, ["verify", "--input", src])
        assert code == 0
        assert json.loads(out)["checks"]["v_involution"] is True

    def test_disintegrate_renders_huge_rationals(self, tmp_path, capsys):
        mu = wide_measure()
        src = write_json(tmp_path / "mu.json", exact_atoms(mu))
        code, out, _ = run(capsys, ["disintegrate", "--input", src])
        assert code == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            data = json.loads(out)
            er_over_x = Fraction(data["er_over_x"])
            weights = [Fraction(c["w"])
                       for c in data["decomposition"]["components"]]
        finally:
            sys.set_int_max_str_digits(limit)
        assert er_over_x == ratio_moments(mu).er_over_x
        assert weights == [w for w, _ in decompose(mu)]


HUGE = "1" * 5000
BEYOND_FLOAT = '{"atoms": [[-1e400, 0.5], [1e400, 0.5]]}'


@pytest.mark.parametrize("argv, text", [
    (["disintegrate"], '{"atoms": [[-1, 0.5], [1, 0.' + HUGE + ']]}'),
    (["verify"], '{"atoms": [[-1, 0.5], [' + HUGE + ', 0.5]]}'),
    (["disintegrate"], None),
    (["disintegrate"], "{not json"),
    (["disintegrate"], '{"atoms": [[NaN, 0.5], [1, 0.5]]}'),
    (["verify"], '{"atoms": [[-Infinity, 0.5], [1, 0.5]]}'),
    (["disintegrate"], '{"atoms": [["inf", 0.5], [1, 0.5]]}'),
    (["disintegrate"], '{"atoms": [[-1, 0.5], [1, 0.5], [2, -1e-5000]]}'),
    (["disintegrate"], '{"atoms": [[-1, 0.5], [1e-5000]]}'),
    (["verify"], '{"atoms": [[-1, 0.5], [1, 1e400]]}'),
    (["disintegrate"], BEYOND_FLOAT),
    (["disintegrate"], '{"atoms": [[-1e400, 0.5], [1, 0.5]]}'),
    (["verify"], BEYOND_FLOAT),
], ids=["huge-decimal", "huge-int", "huge-output", "malformed",
        "nan", "infinity", "inf-string", "huge-quoted-mass",
        "huge-quoted-entry", "huge-mass-sum", "beyond-float-atoms",
        "beyond-float-mean", "beyond-float-verify"])
def test_no_traceback(tmp_path, capsys, argv, text):
    src = tmp_path / "mu.json"
    src.write_text(text if text is not None
                   else json.dumps(exact_atoms(wide_measure())))
    # an exception escaping main would print a traceback and fail here
    try:
        code = cli.main([*argv, "--input", str(src)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1


ALT = json.dumps({"components": [{"w": "3/10", "a": -2, "b": 1},
                                 {"w": "3/10", "a": -1, "b": 2},
                                 {"w": "4/10", "a": -1, "b": 1}]})


@pytest.mark.parametrize("alt, extra", [
    (ALT, ["--cost", "{bad"]),
    ('{"components": [[1, 2, 3]]}', []),
    ('{"components": [{"w": -1e-5000, "a": -2, "b": 1}]}', []),
    ('{"components": [{"w": 1e400, "a": -2, "b": 1}]}', []),
    ('{"components": [{"w": 1, "a": 1e-5000, "b": 1}]}', []),
    (ALT, ["--cost", '{"kind": "ratio_pow", "p": "x"}']),
    (ALT, ["--cost", '{"kind": "indicator_ge", "a": "x"}']),
    (ALT, ["--cost", '{"kind": "abs_sum_pow", "p": null}']),
    (ALT, ["--cost", '{"kind": "abs_sum_pow", "p": 1000}']),
    (ALT, ["--cost", '{"kind": "ratio_pow", "p": 2000}']),
    (ALT, ["--cost", '{"kind": "abs_sum_pow", "p": [2]}']),
    (ALT, ["--cost", '{"kind": "neg_abs_diff_pow", "p": true}']),
    (ALT, ["--cost", '{"kind": "indicator_ge", "b": "abc"}']),
    (ALT, ["--cost", '{"kind": "abs_sum_pow", "P": 2}']),
    (ALT, ["--cost", '{"kind": "ratio_pow", "sid": "neg_over_pos"}']),
    (ALT, ["--cost", '{"kind": "abs_sum_pow", "p": 1e300}']),
    (ALT, ["--cost", '{"kind": "ratio_pow", "p": 1e10}']),
], ids=["malformed-cost", "list-component", "huge-quoted-weight",
        "huge-weight-sum", "huge-quoted-endpoint", "string-ratio-power",
        "string-threshold", "null-width-power", "beyond-float-width-power",
        "beyond-float-ratio-power", "list-power", "bool-power",
        "non-numeric-threshold", "unknown-key", "misspelt-side",
        "float-exponent-width-power", "float-exponent-ratio-power"])
def test_optimal_no_traceback(tmp_path, capsys, alt, extra):
    src = write_json(tmp_path / "mu.json", FOUR)
    alt_path = tmp_path / "alt.json"
    alt_path.write_text(alt)
    code = cli.main(["optimal", "--input", src, "--alt", str(alt_path),
                     *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_sample_commands(tmp_path, capsys):
    """The README's sample file and every documented command that reads
    it: each prints JSON and exits 0."""
    lines = README.read_text().splitlines()
    make = next(line for line in lines if line.endswith("> xs.txt"))
    words = shlex.split(make)
    assert words[:2] == ["printf", "%s\\n"]
    xs = tmp_path / "xs.txt"
    xs.write_text("\n".join(words[2:words.index(">")]) + "\n")
    commands = [shlex.split(line) for line in lines
                if line.startswith("twopoint ") and "xs.txt" in line]
    assert len(commands) >= 3
    for argv in commands:
        argv = [str(xs) if word == "xs.txt" else word for word in argv[1:]]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        json.loads(out)
