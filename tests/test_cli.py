"""End-to-end runs of the command line interface."""

import json
import sys
from fractions import Fraction

import numpy as np
import pytest

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

    def test_seed_required(self, tmp_path, capsys):
        src = tmp_path / "xs.txt"
        src.write_text("1 2 3")
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--input", str(src)])
        assert exc.value.code == 2
        capsys.readouterr()


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
], ids=["malformed-cost", "list-component", "huge-quoted-weight",
        "huge-weight-sum", "huge-quoted-endpoint"])
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
