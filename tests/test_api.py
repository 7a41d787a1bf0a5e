"""The names the package exports, those the bench wraps, and the
README's quick start."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import twopoint
from twopoint import ZeroMeanMeasure

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



def test_traced_names_resolve():
    """Every function the bench's tracer wraps exists under its name, so
    a rename breaks this test and not only a traced bench run."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        # measure names are members of the measure class
        owner = ZeroMeanMeasure if layer == "measure" \
            else importlib.import_module(f"twopoint.{layer}")
        for name in names:
            assert name in vars(owner), f"{layer}.{name}"


def test_readme_quick_start_runs(tmp_path):
    """The README's python block, cut out as the CI step's awk does, runs
    on its own and prints the first canonical component."""
    root = Path(__file__).parents[1]
    block, on = [], False
    for line in (root / "README.md").read_text().splitlines():
        if line == "```python":
            on = True
        elif line == "```":
            on = False
        elif on:
            block.append(line)
    script = tmp_path / "quickstart.py"
    script.write_text("\n".join(block) + "\n")
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env={"PYTHONPATH": str(root / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "3/5 -1 1" in done.stdout.splitlines()


def test_readme_command_line_runs(tmp_path):
    """The README's first shell block under "Command line", cut out as the
    CI step's awk does, runs under ``bash -eo pipefail`` with ``twopoint``
    on the path."""
    root = Path(__file__).parents[1]
    block, section, on = [], False, False
    for line in (root / "README.md").read_text().splitlines():
        section = section or line == "## Command line"
        if section and line == "```sh":
            on = True
        elif on and line == "```":
            break
        elif on:
            block.append(line)
    assert block
    script = tmp_path / "readme-cli.sh"
    script.write_text("\n".join(block) + "\n")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "twopoint"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m twopoint.cli "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    done = subprocess.run(
        ["bash", "-eo", "pipefail", str(script)], cwd=work,
        env={"PYTHONPATH": str(root / "src"),
             "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
