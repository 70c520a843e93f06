import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from conftest import cli_printed
from hypercomplex import (
    CartesianVec,
    DegenerateArgs,
    DegenerateLongitudeError,
    SphericalForm,
    add,
    divide,
    inverse,
    mul_cartesian,
    mul_geometric,
    nth_roots,
    pow_int,
    to_cartesian,
    to_spherical,
)
from hypercomplex import cli
from hypercomplex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_spherical_text(capsys):
    code, out, _ = run(
        capsys, "mul", "--dim", "3", "--form", "spherical", "2,1.0472,0.5236", "3,0.5236,0.5236"
    )
    assert code == 0
    assert out == "6,1.5708,1.0472\n"


def test_inv_cartesian_text(capsys):
    code, out, _ = run(capsys, "inv", "--form", "cartesian", "1,1,1")
    assert code == 0
    assert out == "0.333333333,-0.333333333,-0.333333333\n"


def test_cli_matches_library_formatting(capsys):
    code, out, _ = run(capsys, "mul", "--form", "spherical", "2,0.31,0.22", "1.5,0.11,-0.4")
    assert code == 0
    want = mul_geometric(SphericalForm(2, (0.31, 0.22)), SphericalForm(1.5, (0.11, -0.4)))
    assert out == cli_printed([want], "text")


def test_add_cartesian(capsys):
    code, out, _ = run(capsys, "add", "--form", "cartesian", "1,2,3", "4,5,6")
    assert code == 0
    assert out == "5,7,9\n"


def test_add_spherical_roundtrips_through_cartesian(capsys):
    code, out, _ = run(capsys, "add", "1,0,0", "1,0,0")
    assert code == 0
    assert out == "2,0,0\n"


def test_div_and_pow(capsys):
    code, out, _ = run(capsys, "div", "6,1.5708,1.0472", "3,0.5236,0.5236")
    assert code == 0
    assert out == "2,1.0472,0.5236\n"
    code, out, _ = run(capsys, "pow", "-m", "2", "1.4142135623730951,0.3926990816987241,0.2617993877991494")
    assert code == 0
    assert out.startswith("2,0.785398163,0.523598776")


def test_convert_both_ways(capsys):
    code, out, _ = run(capsys, "convert", "--to", "cartesian", "2,1.0471975511965976,0.5235987755982988")
    assert code == 0
    assert out == "0.866025404,1.5,1\n"
    code, out, _ = run(capsys, "convert", "--form", "cartesian", "--to", "spherical", "0,0,3",
                       "--fallback", "0.5")
    assert code == 0
    assert out == "3,0.5,1.57079633\n"


def test_roots_lines(capsys):
    code, out, _ = run(capsys, "roots", "-m", "2", "--form", "cartesian", "4,0,0")
    assert code == 0
    got = sorted(tuple(round(float(v), 9) for v in line.split(",")) for line in out.splitlines())
    assert got == sorted([(2.0, 0.0, 0.0), (-2.0, 0.0, 0.0), (0.0, 0.0, 2.0), (0.0, 0.0, -2.0)])


def test_conjugate_variant(capsys):
    code, out, _ = run(capsys, "conjugate", "--variant", "second", "--form", "cartesian", "1,1,1")
    assert code == 0
    assert out == "1,-1,1\n"


def test_json_lines_full_precision(capsys):
    code, out, _ = run(capsys, "inv", "--format", "json-lines", "3,0.1,0.2")
    assert code == 0
    obj = json.loads(out)
    want = inverse(SphericalForm(3, (0.1, 0.2)))
    assert obj["form"] == "spherical"
    assert obj["modulus"] == want.modulus
    assert obj["args"] == list(want.args)


def test_csv_format_includes_header(capsys):
    code, out, _ = run(capsys, "inv", "--format", "csv", "--form", "cartesian", "1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 2


def test_csv_writes_one_header_for_several_roots(capsys):
    code, out, _ = run(capsys, "roots", "-m", "2", "--format", "csv", "4,0,0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "theta2", "theta3"]
    assert len(rows) == 5 and all(len(row) == 3 for row in rows)


def test_property_check_csv_quotes_the_detail(capsys):
    from hypercomplex import checks

    code, out, _ = run(capsys, "property-check", "--format", "csv", "--seed", "3", "--trials", "20")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "result", "detail"]
    want = checks.run_property_checks(seed=3, trials=20)
    assert rows[1:] == [[r.name, "pass" if r.passed else "fail", r.detail] for r in want]
    assert any("," in r.detail for r in want)  # the rows a plain join would split


def test_format_ignores_the_environment(capsys, monkeypatch):
    # --format is the only source of the output format; its default is text
    monkeypatch.setenv("HYPERCOMPLEX_FORMAT", "json-lines")
    code, out, _ = run(capsys, "inv", "3,0.1,0.2")
    assert (code, out) == (0, "0.333333333,6.18318531,-0.2\n")


def test_config_file_is_not_an_option(capsys, tmp_path):
    conf = tmp_path / "conf"
    conf.write_text("format=json-lines\n", encoding="utf-8")
    code, out, _ = run(capsys, "inv", "--config", str(conf), "3,0.1,0.2")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "inv", f"--config={conf}", "3,0.1,0.2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --config=" in err


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "inv", "0,0,0")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "mul", "--form", "cartesian", "0,0,1", "0,0,1")
    assert code == 1 and "longitude" in err


def test_pow_overflow_exits_1(capsys):
    code, out, err = run(capsys, "pow", "-m", "2", "1e200,0.1,0.2")
    assert code == 1 and out == ""
    assert err == "error: result modulus overflowed to inf\n"


_HUGE = "1" + "0" * 400  # an int past the float range


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
@pytest.mark.parametrize("command", ["pow", "roots"])
def test_an_exponent_past_the_float_range_exits_1(capsys, command, fmt):
    code, out, err = run(capsys, command, "--format", fmt, "-m", _HUGE, "1,0.1,0.2")
    assert (code, out) == (1, "")
    assert err == "error: int too large to convert to float\n"
    assert "Traceback" not in err


def test_a_root_degree_past_the_candidate_bound_exits_1(capsys):
    code, out, err = run(capsys, "roots", "-m", "1000000", "1,0.1,0.2")
    assert (code, out) == (1, "")
    assert err == ("error: degree 1000000 in 3D makes (N-1)*m^(N-1) = 2000000000000 root "
                   "candidates, past the bound of 1048576\n")


@pytest.mark.parametrize("argv, message", [
    (("mul", "1e200,0.1,0.2", "1e200,0.1,0.2"), "result modulus overflowed to inf"),
    (("div", "1e200,0.1,0.2", "1e-200,0.1,0.2"), "result modulus overflowed to inf"),
    (("inv", "1e-320,0.1,0.2"), "result modulus overflowed to inf"),
    (("add", "1e308,0,0", "1e308,0,0"), "result components overflowed"),
    (("add", "--form", "cartesian", "1.7e308,0,0", "1.7e308,0,0"), "result components overflowed"),
    (("mul", "--form", "cartesian", "1e200,1e200,1e200", "1e200,1e200,1e200"),
     "result components overflowed"),
], ids=["mul", "div", "inv", "add", "add-cartesian", "mul-cartesian"])
def test_overflowed_results_exit_1_and_name_the_overflow(capsys, argv, message):
    # a finite input whose result leaves the float range is not a bad input
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_leading_dot_negative_operands_are_values(capsys):
    # "-.5" is a number, not an option, as an operand and as a --fallback
    code, out, _ = run(capsys, "inv", "--form", "cartesian", "-.5,1,1")
    assert code == 0
    want = to_cartesian(inverse(to_spherical(CartesianVec((-0.5, 1, 1)))))
    assert out == cli_printed([want], "text")
    code, out, _ = run(capsys, "inv", "--form", "cartesian", "--fallback", "-.5", "0,0,4")
    assert code == 0
    want = to_cartesian(inverse(to_spherical(CartesianVec((0, 0, 4)), DegenerateArgs((-0.5,)))))
    assert out == cli_printed([want], "text")


@pytest.mark.parametrize("token", ["-inf", "-INF", "-nan", "-NaN"])
def test_negative_non_finite_operands_reach_the_library(capsys, token):
    code, out, err = run(capsys, "inv", "--form", "cartesian", f"{token},1,1")
    assert (code, out) == (1, "")
    assert err == "error: components must be finite\n"


def test_dash_letter_tokens_stay_options(capsys):
    code, out, _ = run(capsys, "pow", "-m", "2", "--form", "cartesian", "-.5,1,1")
    assert code == 0
    assert run(capsys, "pow", "-m", "2", "--form", "cartesian", "-0.5,1,1") == (0, out, "")
    code, out, _ = run(capsys, "roots", "-h")
    assert code == 0 and out.startswith("usage: hypercomplex roots")


def test_mul_cartesian_with_subnormal_leading_components(capsys):
    # r_2 r'_2 is subnormal, so a Cartesian factor overflows; the product does not
    code, out, err = run(capsys, "mul", "--form", "cartesian", "5e-324,5e-324,1", "1,1,1")
    assert (code, err) == (0, "")
    assert out == "-1.8369702e-16,-1,1.41421356\n"


@pytest.mark.parametrize("trials", ["0", "-3", "1.5", "x"])
def test_trials_must_be_a_positive_integer(capsys, trials):
    code, out, err = run(capsys, "property-check", "--trials", trials)
    assert code == 2 and out == ""
    assert f"argument --trials: must be a positive integer, got '{trials}'" in err


def test_fractal_takes_no_workers_option(capsys, tmp_path):
    # the slab count is a library parameter; the CLI renders one slab
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "fractal", "--res", "2,2,2", "--workers", "2",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert "unrecognized arguments: --workers 2" in err
    assert not out_path.exists()


def test_fractal_takes_its_format_from_out_alone(capsys, tmp_path):
    # no option may override the format the --out extension names
    out_path = tmp_path / "x.raw"
    code, out, err = run(capsys, "fractal", "--res", "2,2,2", "--save-as", "csv",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert "unrecognized arguments: --save-as csv" in err
    assert list(tmp_path.iterdir()) == []


def test_every_help_renders_and_names_only_options_the_parser_takes(capsys):
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {}
    for argv in (["--help"], *([name, "--help"] for name in sub.choices)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: hypercomplex")
        helps[argv[0]] = out
    assert not any("--save-as" in text for text in helps.values())
    assert "--trials" not in helps["relativity-check"]
    assert "--seed" not in helps["relativity-check"]
    # options named after FractalConfig fields keep their flag-style metavars
    assert "[--nmax NMAX]" in helps["fractal"] and "N_MAX" not in helps["fractal"]


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "mul", "1,0,0")[0] == 2           # missing second value
    assert run(capsys, "inv", "not,a,number")[0] == 2
    assert run(capsys, "inv", "--dim", "4", "1,0,0")[0] == 1
    # output formats belong to the value and report commands, not to renders
    out_path = tmp_path / "x.csv"
    assert run(capsys, "fractal", "--format", "csv", "--res", "2,2,2", "--out", str(out_path))[0] == 2
    assert not out_path.exists()


@pytest.mark.parametrize("flag, message", [
    ("--region=-1:1,-1:1", "argument --region: region must look like x0:x1,y0:y1,z0:z1, "
                           "got '-1:1,-1:1'"),
    ("--region=a:b,-1:1,-1:1", "argument --region: region must look like x0:x1,y0:y1,z0:z1, "
                               "got 'a:b,-1:1,-1:1'"),
    ("--region=-1,1,-1", "argument --region: region must look like x0:x1,y0:y1,z0:z1, "
                         "got '-1,1,-1'"),
    ("--slice=w=0", "argument --slice: slice must look like z=0, got 'w=0'"),
    ("--slice=z0", "argument --slice: slice must look like z=0, got 'z0'"),
    ("--slice=z=x", "argument --slice: slice must look like z=0, got 'z=x'"),
    ("--res=4,4", "argument --res: resolution must be rx,ry,rz, got '4,4'"),
    ("--res=a,4,4", "argument --res: resolution must be rx,ry,rz, got 'a,4,4'"),
], ids=["region-two-spans", "region-not-numbers", "region-no-colon", "slice-axis-w",
        "slice-no-equals", "slice-not-a-number", "res-two", "res-not-a-number"])
def test_fractal_malformed_options_exit_2(capsys, tmp_path, flag, message):
    out_path = tmp_path / "x.pgm"
    code, out, err = run(capsys, "fractal", flag, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--region=nan:1,-1:1,-1:1", "--region=-inf:inf,-1:1,-1:1",
                                  "--region=-1e308:1e308,-1:1,-1:1", "--slice=z=nan"])
def test_fractal_non_finite_box_exits_1(capsys, tmp_path, flag):
    out_path = tmp_path / "x.pgm"
    code, out, err = run(capsys, "fractal", flag, "--res", "2,2,2", "--out", str(out_path))
    assert code == 1 and out == "" and "finite" in err
    assert not out_path.exists()


def test_fractal_n_max_past_the_int32_counts_exits_1(capsys, tmp_path):
    out_path = tmp_path / "o.csv"
    code, out, err = run(capsys, "fractal", "--nmax", "3000000000", "--res", "1,1,1",
                         "--region=3:3,0:0,0:0", "--out", str(out_path))
    assert code == 1 and out == "" and "n_max must be in [1, 2147483647]" in err
    assert not out_path.exists()
    code, out, _ = run(capsys, "fractal", "--nmax", "2147483647", "--res", "1,1,1",
                       "--region=3:3,0:0,0:0", "--out", str(out_path))
    assert code == 0 and out_path.read_text(encoding="utf-8") == "x,y,z,escape\n3.000000000e+00,0.000000000e+00,0.000000000e+00,1\n"


def test_successive_calls_reuse_the_parser_without_carrying_state(capsys):
    # the parser is built once per process; append options, defaults and a
    # usage error in between must not leak from one call into the next
    calls = [
        ["relativity-check", "--delta", "1,0,0,2", "--delta", "0,1,0,3", "--beta", "0.6"],
        ["div", "--form", "cartesian", "--fallback", "0.3", "--fallback", "0.5", "1,1,1", "0,0,2"],
        ["mul", "1,0,0"],
        ["relativity-check", "--delta", "2,0,0,1", "--beta", "0.5", "--format", "csv"],
        ["div", "--form", "cartesian", "--fallback", "0.1", "--fallback", "0.7", "1,1,1", "0,0,2"],
        ["div", "--form", "cartesian", "1,1,1", "0,0,2"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    assert len({out for _, out, _ in reused}) == len(calls)
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert cli._build_parser() is cli._build_parser()


def test_property_check_deterministic(capsys):
    code, first, _ = run(capsys, "property-check", "--seed", "3", "--trials", "20")
    assert code == 0
    code, second, _ = run(capsys, "property-check", "--seed", "3", "--trials", "20")
    assert code == 0
    assert first == second
    assert all(line.startswith("PASS") for line in first.splitlines())


def _report_text(results):
    return "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in results)


@pytest.mark.parametrize("argv, kwargs", [
    ((), {}),
    (("--seed", "3", "--trials", "5"), {"seed": 3, "trials": 5}),
], ids=["defaults", "given"])
def test_property_check_takes_its_defaults_from_the_library(capsys, argv, kwargs):
    from hypercomplex import checks

    code, out, err = run(capsys, "property-check", *argv)
    assert (code, err) == (0, "")
    assert out == _report_text(checks.run_property_checks(**kwargs))


def test_property_check_json_lines_are_the_library_results(capsys):
    from hypercomplex import checks

    code, out, err = run(capsys, "property-check", "--format", "json-lines")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 12
    assert rows == [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in checks.run_property_checks()]


def test_relativity_check_json_lines_carry_full_precision(capsys):
    from hypercomplex import relativity

    deltas = [(1.0, 0.0, 0.0, 2.0), (0.3, -1.7, 2.9, 0.1)]
    betas = [0.6, -0.123456789]
    code, out, err = run(capsys, "relativity-check", "--format", "json-lines",
                         *(f"--delta={','.join(map(repr, d))}" for d in deltas),
                         *(f"--beta={b!r}" for b in betas))
    assert (code, err) == (0, "")
    want = []
    for d in deltas:
        for beta in betas:
            delta = relativity.EventDelta(*d)
            spatial, _ = relativity.square_and_project(relativity.lorentz_boost(delta, beta))
            target = abs(relativity.interval_sq(delta))
            want.append({"delta": list(d), "beta": beta, "spatial_modulus": spatial,
                         "abs_ds2": target, "residual": abs(spatial - target)})
    assert [json.loads(line) for line in out.splitlines()] == want
    assert any(row["residual"] != 0.0 for row in want)  # the last bits are compared too


def test_relativity_check_table(capsys):
    code, out, _ = run(
        capsys, "relativity-check", "--delta", "1,0,0,2", "--beta", "0.6", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("dx,dy,dz,cdt,beta")
    row = lines[1].split(",")
    assert float(row[5]) == pytest.approx(3.0, abs=1e-9)   # spatial modulus
    assert float(row[7]) <= 1e-9                           # residual


def test_relativity_check_text_and_csv_bytes(capsys):
    from hypercomplex import relativity

    deltas = [(1.0, 0.0, 0.0, 2.0), (0.3, -1.7, 2.9, 0.1)]
    betas = [0.6, -0.123456789]
    argv = ["relativity-check", *(f"--delta={','.join(map(repr, d))}" for d in deltas),
            *(f"--beta={b!r}" for b in betas)]
    text = [f"{'delta':>36} {'beta':>7} {'spatial_mod':>14} {'|ds^2|':>14} {'residual':>10}"]
    rows = ["dx,dy,dz,cdt,beta,spatial_modulus,abs_ds2,residual"]
    for d in deltas:
        for beta in betas:
            delta = relativity.EventDelta(*d)
            spatial, _ = relativity.square_and_project(relativity.lorentz_boost(delta, beta))
            target = abs(relativity.interval_sq(delta))
            residual = abs(spatial - target)
            dtxt = ",".join("%.9g" % v for v in d)
            text.append(f"{dtxt:>36} {beta:>7.4f} {spatial:>14.9g} {target:>14.9g} "
                        f"{residual:>10.3e}")
            rows.append(",".join("%.17g" % v for v in (*d, beta, spatial, target, residual)))
    for fmt, lines in (("text", text), ("csv", rows)):
        assert run(capsys, *argv, "--format", fmt) == (0, "".join(f"{x}\n" for x in lines), "")


@pytest.mark.parametrize("fmt", ["text", "csv", "json-lines"])
@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: --delta"),
    (("--beta", "0.5"), "the following arguments are required: --delta"),
    (("--delta", "1,0,0"), "argument --delta: delta must be four numbers dx,dy,dz,cdt, got '1,0,0'"),
    (("--delta", "1,0,0,2,3"),
     "argument --delta: delta must be four numbers dx,dy,dz,cdt, got '1,0,0,2,3'"),
    (("--delta", "1,0,0,2", "--trials", "3"), "unrecognized arguments: --trials 3"),
], ids=["no-delta", "beta-only", "three-numbers", "five-numbers", "trials"])
def test_relativity_check_boosts_only_the_given_deltas(capsys, fmt, argv, message):
    # the table is made of the given displacements alone, each four numbers
    code, out, err = run(capsys, "relativity-check", "--format", fmt, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json-lines"])
@pytest.mark.parametrize("argv, message", [
    (("--delta", "1,0,0,2", "--beta", "0.5", "--beta", "1"), "|beta| must be < 1, got 1.0"),
    (("--delta", "1e200,0,0,2", "--beta", "0.5"), "result modulus overflowed to inf"),
    (("--delta", "1e154,0,0,1e154"), "result components overflowed"),
], ids=["beta", "overflow", "time-overflow"])
def test_relativity_check_failing_row_leaves_stdout_empty(capsys, fmt, argv, message):
    # a later row's error must not follow a header and earlier rows
    code, out, err = run(capsys, "relativity-check", "--format", fmt, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_relativity_check_of_a_huge_delta_with_finite_results(capsys):
    code, out, err = run(capsys, "relativity-check", "--format", "json-lines",
                         "--delta", "1e153,0,0,1.34e154")
    row = json.loads(out)
    assert (code, err) == (0, "")
    assert row["spatial_modulus"] == pytest.approx(1.7856e308, rel=1e-12)
    assert row["abs_ds2"] == pytest.approx(1.7856e308, rel=1e-12)


def test_module_entry_point():
    # `python -m hypercomplex` in a fresh interpreter: stdout, stderr and the
    # exit code are main's
    import hypercomplex

    src = os.path.dirname(os.path.dirname(hypercomplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def module(*argv):
        proc = subprocess.run([sys.executable, "-m", "hypercomplex", *argv], env=env,
                              capture_output=True, encoding="utf-8", timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    assert module("mul", "--dim", "3", "2,1.0472,0.5236", "3,0.5236,0.5236") == (
        0, "6,1.5708,1.0472\n", "")
    assert module("div", "1,0,0", "0,0,0") == (
        1, "", "error: division by a zero-modulus value\n")
    code, out, err = module("mul", "--no-such-option", "1,0,0", "1,0,0")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --no-such-option" in err


def test_algebra_commands_do_not_import_numpy():
    # a fresh interpreter, since this one has numpy loaded already
    import hypercomplex

    code = (
        "import sys\n"
        "from hypercomplex.cli import main\n"
        "for argv in (['mul', '2,1,0.5', '3,0.5,0.2'],\n"
        "             ['roots', '-m', '2', '--form', 'cartesian', '4,0,0'],\n"
        "             ['relativity-check', '--delta', '1,0,0,2', '--beta', '0.5'],\n"
        "             ['property-check', '--trials', '2']):\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(hypercomplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_algebra_commands_load_neither_dataclasses_nor_numpy():
    # a fresh interpreter; modules its site already loaded do not count
    import hypercomplex

    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from hypercomplex.cli import main\n"
        "assert main(['mul', '2,1,0.5', '3,0.5,0.2']) == 0\n"
        "after_mul = 'hypercomplex.checks' in sys.modules\n"
        "for argv in (['roots', '-m', '2', '--form', 'cartesian', '4,0,0'],\n"
        "             ['relativity-check', '--delta', '1,0,0,2', '--beta', '0.5'],\n"
        "             ['property-check', '--trials', '2']):\n"
        "    assert main(argv) == 0, argv\n"
        "added = set(sys.modules) - before\n"
        "print(json.dumps([after_mul, sorted(added & {'dataclasses', 'numpy'})]))\n"
    )
    src = os.path.dirname(os.path.dirname(hypercomplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    checks_after_mul, heavy = json.loads(proc.stdout.splitlines()[-1])
    assert not checks_after_mul
    assert heavy == []


def test_fractal_writes_pgm(capsys, tmp_path):
    out_path = tmp_path / "s.pgm"
    code, out, _ = run(
        capsys, "fractal", "--approach", "first", "--nmax", "40",
        "--region", "-2:2,-2:2,-2:2", "--res", "16,16,16",
        "--slice", "z=0", "--out", str(out_path),
    )
    assert code == 0
    data = out_path.read_bytes()
    assert data.startswith(b"P5\n16 16\n255\n")
    assert len(data) == len(b"P5\n16 16\n255\n") + 256
    assert str(out_path) in out


_SLICED = ("second", 30, ((-1.9, 1.1), (-1.2, 1.6), (-1.4, 1.3)), (9, 7, 6), ("y", 0.3))


def _render_spy(monkeypatch):
    from hypercomplex import fractal

    seen = []
    real = fractal.render_grid

    def spy(cfg, workers=1):
        seen.append(cfg)
        return real(cfg, workers)

    monkeypatch.setattr(fractal, "render_grid", spy)
    return fractal, real, seen


def _sliced_argv(out_path):
    approach, n_max, region, res, (axis, value) = _SLICED
    return ["fractal", "--approach", approach, "--nmax", str(n_max),
            "--region=" + ",".join(f"{lo}:{hi}" for lo, hi in region),
            "--res", ",".join(map(str, res)), "--slice", f"{axis}={value}",
            "--out", str(out_path)]


@pytest.mark.parametrize("argv, fields", [
    ((), {}),
    (("--approach", "second", "--nmax", "7"), {"approach": "second", "n_max": 7}),
    (("--region=-1:1,-0.5:0.5,0:2", "--slice", "x=0.25"),
     {"region": ((-1.0, 1.0), (-0.5, 0.5), (0.0, 2.0)), "slice_spec": ("x", 0.25)}),
], ids=["defaults", "approach-nmax", "region-slice"])
def test_fractal_renders_exactly_the_given_options(capsys, tmp_path, monkeypatch, argv, fields):
    # an option not given takes FractalConfig's own default
    fractal, _, seen = _render_spy(monkeypatch)
    out_path = tmp_path / "x.raw"
    code, _, err = run(capsys, "fractal", "--res", "2,2,2", *argv, "--out", str(out_path))
    assert (code, err) == (0, "")
    assert seen == [fractal.FractalConfig(resolution=(2, 2, 2), **fields)]


def test_fractal_pgm_slice_renders_only_its_plane(capsys, tmp_path, monkeypatch):
    fractal, real, seen = _render_spy(monkeypatch)
    full = fractal.FractalConfig(*_SLICED)
    out_path = tmp_path / "s.pgm"
    code, out, _ = run(capsys, *_sliced_argv(out_path))
    assert code == 0
    assert out == f"wrote {out_path} (pgm_slice, 9x7x6, n_max=30)\n"
    [cfg] = seen
    c = fractal.axis_centers(-1.2, 1.6, 7)[3]  # 0.3 is nearest the centre 0.2
    assert cfg.resolution == (9, 1, 6)
    assert cfg.region == (full.region[0], (c, c), full.region[2])
    assert (cfg.approach, cfg.n_max, cfg.slice_spec) == ("second", 30, ("y", 0.3))
    want = tmp_path / "want.pgm"
    fractal.export_grid(real(full), "pgm_slice", want)
    assert out_path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("ext, fmt", [("csv", "csv"), ("raw", "voxel_raw")])
def test_fractal_slice_with_other_outputs_renders_the_full_lattice(capsys, tmp_path,
                                                                   monkeypatch, ext, fmt):
    fractal, real, seen = _render_spy(monkeypatch)
    full = fractal.FractalConfig(*_SLICED)
    out_path = tmp_path / f"s.{ext}"
    code, out, _ = run(capsys, *_sliced_argv(out_path))
    assert code == 0
    assert out == f"wrote {out_path} ({fmt}, 9x7x6, n_max=30)\n"
    # every option is given, and each differs from its default
    assert seen == [full]
    assert all(getattr(full, k) != getattr(fractal.FractalConfig(), k)
               for k in fractal.FractalConfig.__slots__)
    want = tmp_path / f"want.{ext}"
    fractal.export_grid(real(full), fmt, want)
    assert out_path.read_bytes() == want.read_bytes()


def test_fractal_pgm_without_a_slice_exits_1(capsys, tmp_path):
    out_path = tmp_path / "x.pgm"
    code, out, err = run(capsys, "fractal", "--res", "2,2,2", "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: config has no slice; pgm_slice needs one\n"
    assert not out_path.exists()


def test_fractal_voxel_infers_format(capsys, tmp_path):
    out_path = tmp_path / "v.raw"
    code, _, _ = run(
        capsys, "fractal", "--nmax", "10", "--res", "4,4,4", "--out", str(out_path)
    )
    assert code == 0
    assert len(out_path.read_bytes()) == 64
    assert (tmp_path / "v.raw.meta").exists()


def test_fractal_unwritable_destination(capsys, tmp_path):
    code, _, err = run(
        capsys, "fractal", "--nmax", "5", "--res", "2,2,2",
        "--out", str(tmp_path / "missing" / "file.raw"),
    )
    assert code == 1 and "error:" in err


def test_cartesian_emit_matches_direct_conversion(capsys):
    # byte-identity of the CLI with library call + documented formatter
    code, out, _ = run(capsys, "convert", "--form", "spherical", "--to", "cartesian", "2,0.7,0.1")
    assert code == 0
    assert out == cli_printed([to_cartesian(SphericalForm(2, (0.7, 0.1)))], "text")


def test_cartesian_operands_take_their_own_fallbacks(capsys):
    # --fallback i belongs to operand i: only the degenerate divisor reads it
    argv = ["div", "--form", "cartesian", "--fallback", "0.3", "--fallback", "0.5", "1,1,1", "0,0,2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    a = to_spherical(CartesianVec((1, 1, 1)), DegenerateArgs((0.3,)))
    b = to_spherical(CartesianVec((0, 0, 2)), DegenerateArgs((0.5,)))
    assert out == cli_printed([to_cartesian(divide(a, b))], "text")
    argv[4], argv[6] = argv[6], argv[4]
    code, swapped, _ = run(capsys, *argv)
    assert code == 0 and swapped != out


def test_unary_commands_read_the_fallback_of_a_degenerate_operand(capsys):
    h = to_spherical(CartesianVec((0, 0, 4)), DegenerateArgs((0.7,)))
    code, out, _ = run(capsys, "roots", "-m", "2", "--form", "cartesian", "--fallback", "0.7", "0,0,4")
    assert code == 0
    assert out == cli_printed([to_cartesian(root) for root in nth_roots(h, 2).roots], "text")
    assert run(capsys, "roots", "-m", "2", "--form", "cartesian", "0,0,4")[1] != out
    code, out, _ = run(capsys, "inv", "--form", "cartesian", "--fallback", "0.7", "0,0,4")
    assert code == 0
    assert out == cli_printed([to_cartesian(inverse(h))], "text")


_CART = (CartesianVec((1, 2, 3)), CartesianVec((-0.5, 0.25, 2)))
_DEG = (CartesianVec((0, 0, 3)), CartesianVec((0, 0, -2)))
_FB = (DegenerateArgs((0.4,)), DegenerateArgs((1.1,)))


def _via_spherical(fn, *vecs):
    return to_cartesian(fn(*(to_spherical(v, fb) for v, fb in zip(vecs, _FB))))


@pytest.mark.parametrize("argv, want", [
    (["mul", "--form", "cartesian", "1,2,3", "-0.5,0.25,2"], lambda: mul_cartesian(*_CART)),
    (["mul", "--form", "cartesian", "--fallback", "0.4", "--fallback", "1.1", "0,0,3", "0,0,-2"],
     lambda: mul_cartesian(*_DEG, *_FB)),
    (["add", "--form", "spherical", "--fallback", "0.4", "0,0,0", "0,0,0"],
     lambda: to_spherical(add(CartesianVec((0, 0, 0)), CartesianVec((0, 0, 0))), _FB[0])),
    (["div", "--form", "cartesian", "--fallback", "0.4", "--fallback", "1.1", "1,2,3", "0,0,-2"],
     lambda: _via_spherical(divide, _CART[0], _DEG[1])),
    (["pow", "-m", "3", "--form", "cartesian", "--fallback", "0.4", "0,0,3"],
     lambda: _via_spherical(lambda h: pow_int(h, 3), _DEG[0])),
    (["convert", "--form", "spherical", "--to", "spherical", "2,0.7,0.1"],
     lambda: SphericalForm(2, (0.7, 0.1))),
    (["convert", "--form", "cartesian", "--to", "cartesian", "--fallback", "0.4", "0,0,3"],
     lambda: _DEG[0]),
])
@pytest.mark.parametrize("fmt", ["text", "json-lines", "csv"])
def test_value_commands_match_the_library_in_both_forms(capsys, argv, want, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == cli_printed([want()], fmt)


@pytest.mark.parametrize("operands, nth", [
    (("0,0,1", "1,2,3"), "first"),
    (("1,2,3", "0,0,1"), "second"),
])
def test_mul_names_the_fallback_a_degenerate_operand_needs(capsys, operands, nth):
    # the library's own words: the i-th --fallback is the i-th fallback
    code, out, err = run(capsys, "mul", "--form", "cartesian", *operands)
    assert code == 1 and out == ""
    with pytest.raises(DegenerateLongitudeError) as info:
        mul_cartesian(*(CartesianVec(map(float, v.split(","))) for v in operands))
    assert err == f"error: {info.value}\n"
    assert f"the {nth} operand" in err and f"the {nth} fallback" in err
