import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potts1d
from potts1d import ModelParams, ThermoState, thermo_point
from potts1d.cli import build_parser, main, parse_run_config, run, table_to_csv, table_to_json
from potts1d.sweep import GridSpec, sweep_1d, sweep_2d
from reference import pinned_tables


def _bytes(write, table):
    buf = io.BytesIO()
    write(table, buf)
    return buf.getvalue()


def _text(write, table):
    return _bytes(write, table).decode("ascii")


def _parse_point_output(text):
    values = {}
    for line in text.strip().splitlines():
        name, _, value = line.partition(" = ")
        values[name.strip()] = float(value)
    return values


def test_point_command(capsys):
    rc = main(["point", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"])
    assert rc == 0
    values = _parse_point_output(capsys.readouterr().out)
    expected = thermo_point(ModelParams(3, 1.0, 0.5), ThermoState(0.7))
    assert values["f"] == expected.f
    assert values["S"] == expected.S
    assert values["m"] == expected.m
    assert values["chi"] == expected.chi
    assert values["C"] == expected.C
    # frozen reference values, each backed by its finite-difference oracle
    assert values["f"] == pytest.approx(-2.7678678932972907, rel=1e-13)
    assert values["S"] == pytest.approx(1.2982546645409947, rel=1e-13)
    assert values["m"] == pytest.approx(1.3045976750349157, rel=1e-13)
    assert values["chi"] == pytest.approx(0.23718886297687336, rel=1e-13)
    assert values["C"] == pytest.approx(0.08135578000106754, rel=1e-13)


def test_point_accepts_temperature_flag(capsys):
    rc = main(["point", "--q", "3", "--J", "1", "--h", "0.5", "--T", str(1.0 / 0.7)])
    assert rc == 0
    values = _parse_point_output(capsys.readouterr().out)
    assert values["f"] == pytest.approx(-2.7678678932972907, rel=1e-12)


def test_point_domain_error_exit_code(capsys):
    rc = main(["point", "--q", "1", "--J", "1", "--h", "0", "--beta", "1"])
    assert rc == 1
    assert "q must be at least 2" in capsys.readouterr().err


def test_out_of_range_inputs_are_domain_errors(tmp_path, capsys):
    # each once ended in a traceback (TypeError, numpy's _ArrayMemoryError,
    # FileNotFoundError) or wrote q = -9223372036854775808 with exit 0
    sweep = ["sweep", "--q", "3", "--J", "1", "--h", "0", "--beta", "1", "--axis", "h", "--min", "0", "--max", "1"]
    cases = [
        (["point", "--q", "100000000000000000000", "--J", "1", "--h", "0", "--beta", "1"],
         "q must be at most 2**63 - 1"),
        ([*sweep, "--steps", "1000000000000000"], "steps = 1000000000000000 exceeds the grid-point cap of 4194304"),
        (["sweep", "--J", "1", "--h", "0", "--beta", "1", "--axis", "q", "--min", "2", "--max", "1e20", "--steps", "2"],
         "invalid grid point q=1e+20: q must be at most 2**63 - 1"),
        (["verify", "--q", "3", "--J", "1", "--h", "0", "--beta", "1", "--n", "10000"],
         "q^N at q=3, N=10000 exceeds the enumeration cap of 2000000 configurations"),
        ([*sweep, "--steps", "3", "--out", str(tmp_path / "missing" / "out.csv")],
         f"cannot open output file {str(tmp_path / 'missing' / 'out.csv')!r}: No such file or directory"),
        # this once read "beta must be positive and finite", though no beta was given
        (["point", "--q", "3", "--J", "1", "--h", "0.5", "--T", "1e-310"], "beta = 1/T overflows"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"


def test_usage_errors_exit_two(capsys):
    assert main(["point", "--q", "3", "--J", "1", "--h", "0"]) == 2
    assert main(["point", "--q", "3", "--J", "1", "--h", "0", "--beta", "1", "--T", "2"]) == 2
    assert main(["sweep", "--q", "3", "--J", "1", "--h", "0", "--beta", "1"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_point_missing_param_is_usage_error(capsys):
    assert main(["point", "--J", "1", "--h", "0", "--beta", "1"]) == 2
    capsys.readouterr()


def test_every_missing_flag_is_named_in_one_usage_error(capsys):
    assert main(["surface"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --axis, --min, --max, --steps, --axis2, --min2, --max2, "
        "--steps2, --q, --J, --h, --beta or --T\n")
    # a grid axis sets its parameter: a q axis needs no --q, a T axis no --beta or --T
    assert main(["sweep", "--J", "1", "--axis", "q", "--min", "2", "--max", "3", "--steps", "2"]) == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --h, --beta or --T\n")
    assert main(["surface", "--J", "1", "--h", "0", "--axis", "q", "--min", "2", "--max", "3", "--steps", "2",
                 "--axis2", "T", "--min2", "1", "--max2", "2", "--steps2", "2"]) == 0
    capsys.readouterr()
    # grid flags first, then the grid's own check (exit 1), then the model flags
    assert main(["sweep", "--axis", "h", "--min", "1", "--max", "0"]) == 2
    assert "required: --steps, --q, --J, --beta or --T\n" in capsys.readouterr().err
    assert main(["sweep", "--axis", "h", "--min", "1", "--max", "0", "--steps", "2"]) == 1
    assert capsys.readouterr().err == "min must be strictly less than max\n"


def test_beta_and_temperature_exclude_each_other(tmp_path, capsys):
    model = ["point", "--q", "3", "--J", "1", "--h", "0"]
    assert main([*model, "--beta", "1", "--T", "2"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --T: not allowed with argument --beta\n")
    assert _run_with_config(tmp_path, model, {"beta": 1.0, "T": 2.0}) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_help_shows_each_default(capsys):
    for argv, defaults in ((["verify", "--help"], ("(default 6)", "(default 1e-10)")),
                           (["peaks", "--help"], ("(default chi)",)),
                           (["sweep", "--help"], ("(default csv)",))):
        assert main(argv) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert all(default in out for default in defaults), argv


def test_exponent_number_is_a_value_not_an_option(capsys):
    # argparse once read -7.985984707303828e-05 as an option: exit 2 with
    # "argument --J: expected one argument" (the benchmark's verify stream, seed 1823)
    argv = ["verify", "--q", "3", "--J", "-7.985984707303828e-05", "--h", "2.3125265679489466",
            "--beta", "0.014270666465036991", "--n", "13"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: PASS"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(*[st.floats(allow_nan=False)] * 5))
def test_float_flags_parse_their_repr_bit_for_bit(values):
    # each value a separate argument; -0.0, subnormals and infinities included
    names = ("J", "h", "beta", "min", "max")
    argv = ["sweep"] + [token for name, v in zip(names, values) for token in (f"--{name}", repr(v))]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        raise AssertionError(f"usage error for {argv}") from None
    assert [getattr(args, name).hex() for name in names] == [v.hex() for v in values]


def test_non_finite_values_are_domain_errors(capsys):
    model = ["point", "--q", "3", "--J", "1", "--h", "0", "--beta", "0.7"]
    for flag, value, message in (("--h", "-inf", "h must be finite"), ("--J", "nan", "J must be finite")):
        argv = list(model)
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == message + "\n"


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--q", "3", "--J", "0", "--h", "0", "--axis", "beta",
         "--min", "0.5", "--max", "1.0", "--steps", "3", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "beta,beta,T,h,J,q,f,S,m,chi,C"
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 5  # header + 3 rows + trailing newline
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    # 17 significant digits in scientific notation
    assert first[0] == "5.0000000000000000e-01"
    assert float(first[7]) == pytest.approx(math.log(3.0), rel=1e-15)


def test_sweep_json_and_csv_round_trip_identically(tmp_path):
    table = sweep_1d(ModelParams(5, -1.3, 0.7), ThermoState(1.7), GridSpec("h", -2.0, 2.0, 11))
    csv_text = _text(table_to_csv, table)
    json_text = _text(table_to_json, table)
    payload = json.loads(json_text)
    csv_rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
    assert payload["metadata"]["columns"] == csv_text.split("\n")[0].split(",")
    assert len(csv_rows) == len(payload["rows"])
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        for cell, value in zip(csv_row, json_row):
            assert float(cell) == float(value)


def test_surface_refuses_two_axes_that_set_one_parameter(capsys):
    # --axis T with --axis2 beta once exited 0, its rows at the beta of the beta axis
    grids = {"T": ("1", "2"), "beta": ("1", "3"), "h": ("-1", "1")}
    for x, y, parameter, model in (("T", "beta", "beta", ["--h", "0"]), ("beta", "T", "beta", ["--h", "0"]),
                                   ("h", "h", "h", ["--beta", "0.7"])):
        argv = ["surface", "--q", "3", "--J", "1", *model, "--axis", x, "--min", grids[x][0], "--max", grids[x][1],
                "--steps", "2", "--axis2", y, "--min2", grids[y][0], "--max2", grids[y][1], "--steps2", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"axes {x} and {y} both set {parameter}: the grids must set distinct parameters\n")


def test_surface_command_row_major(tmp_path):
    out = tmp_path / "surface.csv"
    rc = main(
        ["surface", "--q", "16", "--J", "-12", "--h", "0",
         "--axis", "beta", "--min", "1.0", "--max", "2.0", "--steps", "2",
         "--axis2", "--min2", "-1.0", "--max2", "1.0", "--steps2", "2",
         "--out", str(out)]
    )
    # --axis2 value missing: argparse treats the next flag as its value
    assert rc == 2

    rc = main(
        ["surface", "--q", "16", "--J", "-12", "--h", "0",
         "--axis", "beta", "--min", "1.0", "--max", "2.0", "--steps", "2",
         "--axis2", "h", "--min2", "-1.0", "--max2", "1.0", "--steps2", "2",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "beta,h,beta,T,h,J,q,f,S,m,chi,C"
    coords = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in lines[1:]]
    assert coords == [(1.0, -1.0), (1.0, 1.0), (2.0, -1.0), (2.0, 1.0)]


def test_surface_json_is_json_dumps_text_and_q_stays_integer(tmp_path):
    # 5,600 rows: several output blocks
    argv = ["surface", "--J", "0.9", "--h", "0.1", "--beta", "0.8",
            "--axis", "q", "--min", "2", "--max", "9", "--steps", "8",
            "--axis2", "T", "--min2", "0.05", "--max2", "20", "--steps2", "700"]
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "s.json")]) == 0
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    text = (tmp_path / "s.json").read_text()
    payload = json.loads(text)
    assert json.dumps(payload) == text
    q_index = payload["metadata"]["columns"].index("q", 2)  # past the q coordinate
    assert [type(row[q_index]) for row in payload["rows"]] == [int] * 5600
    assert payload["rows"][-1][q_index] == 9

    lines = (tmp_path / "s.csv").read_text().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    assert all(row[q_index] == str(int(float(row[0]))) for row in cells)
    # both encodings hold the same values, row for row
    assert [[float(c) for c in row] for row in cells] == payload["rows"]


def test_negative_zero_keeps_its_sign_in_both_encodings():
    # the formatter works per distinct bit pattern, so -0.0 must not be
    # merged with 0.0
    table = sweep_1d(ModelParams(3, 1.0, -0.0), ThermoState(1.0), GridSpec("J", -1.0, 1.0, 3))
    columns = dict(table.columns, J=np.array([0.0, -0.0, 0.0]))
    table = dataclasses.replace(table, columns=columns)
    csv_rows = [line.split(",") for line in _text(table_to_csv, table).splitlines()[1:]]
    assert [row[3] for row in csv_rows] == ["-0.0000000000000000e+00"] * 3  # h
    assert [row[4] for row in csv_rows] == [  # J
        "0.0000000000000000e+00", "-0.0000000000000000e+00", "0.0000000000000000e+00"
    ]
    json_text = _text(table_to_json, table)
    assert [math.copysign(1.0, row[4]) for row in json.loads(json_text)["rows"]] == [1.0, -1.0, 1.0]
    assert json.dumps(json.loads(json_text)) == json_text


def test_coupling_overflow_is_a_domain_error(capsys):
    # h + J*beta = 1e310 leaves double range
    model = ["--q", "3", "--J", "1e300", "--h", "0"]
    grids = ["--axis", "beta", "--min", "1", "--max", "1e10", "--steps", "2",
             "--axis2", "h", "--min2", "0", "--max2", "1", "--steps2", "2"]
    for argv in (["point", *model, "--beta", "1e10"],
                 ["verify", *model, "--beta", "1e10"],
                 ["surface", *model, *grids]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "h + J*beta is not finite at J=1e+300, h=0.0, beta=10000000000.0\n"


def test_beta_with_overflowing_temperature_is_a_domain_error(capsys):
    # 1/beta overflows for beta = 1e-310, so f, m, chi and f_N have no value
    model = ["--q", "3", "--J", "1", "--h", "0"]
    grid = ["--axis", "beta", "--min", "1e-310", "--max", "1", "--steps", "2"]
    for argv in (["point", *model, "--beta", "1e-310"],
                 ["verify", *model, "--beta", "1e-310", "--n", "4"],
                 ["sweep", *model, *grid],
                 ["surface", *model[:4], *grid, "--axis2", "h", "--min2", "0", "--max2", "1", "--steps2", "2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "T = 1/beta overflows at beta=1e-310\n"


def test_verify_tiny_coupling_exponent_against_mpmath(capsys):
    mpmath = pytest.importorskip("mpmath")
    rc = main(["verify", "--q", "3", "--J", "0.1", "--h", "0", "--beta", "1e-17"])
    out = capsys.readouterr().out
    assert rc == 0, out
    values = {name.strip(): value for name, value in (line.split(" = ") for line in out.splitlines()[:3])}
    with mpmath.workdps(60):
        u = mpmath.mpf(0.1) * mpmath.mpf(1e-17)
        lam_max, lam_minor = mpmath.exp(-u) + 2 * mpmath.exp(u), mpmath.exp(-u) - mpmath.exp(u)
        ref = float(mpmath.log(lam_max**6 + 2 * lam_minor**6))  # q = 3, N = 6
    for route in ("ln_Z enumeration", "ln_Z trace power", "ln_Z eigen sum"):
        assert float(values[route]) == pytest.approx(ref, rel=1e-14)


def test_surface_matches_library_route(tmp_path):
    table = sweep_2d(
        ModelParams(4, 0.9, 0.0),
        None,
        GridSpec("beta", 0.5, 1.5, 3),
        GridSpec("h", -1.0, 1.0, 3),
    )
    text = _text(table_to_csv, table)
    rows = [r.split(",") for r in text.strip().split("\n")[1:]]
    assert len(rows) == 9
    for row, f in zip(rows, table.columns["f"].ravel()):
        assert float(row[-5]) == pytest.approx(f, rel=1e-15)


# SHA-256 of the tables of test_table_bytes_are_pinned, taken with Python
# 3.11.7 and numpy 2.4.6 on an x86-64 CPU with AVX-512.  A numpy or CPU whose
# exp and log round differently in the last place changes them; retake them
# there from an unchanged checkout, never from the change under test.  Only a
# change that moves the kernel's last bits on purpose retakes them from
# itself: after tests/crosscheck_kernel.py passes on it, with its changed
# cells listed in CHANGES.md.
TABLE_DIGESTS = {
    ("beta x h", "csv"): "7c551ccc3b06bc08496b1d77ec72402410377f71e8ec774337a0232f7cbea260",
    ("beta x h", "json"): "ef777cef1188877174fd600f890e2a63297620375d7efdbf582be2eb8d2da031",
    ("T x J", "csv"): "7dea60f8789d8e89ff208ae659afafe3a220e1eace18538e05b0f681e3e5534d",
    ("T x J", "json"): "6e4eced4f29b45273218014f57d130c4833576e108cd4df9d3acca052adf9421",
    ("h x J", "csv"): "15616b3b4cdd9374b3703cdf503ac7b6e7c9eef1798cf6082f00ba75e459b2f0",
    ("h x J", "json"): "188967665c3ff34c02d2b5f9347272db0ef557f619a9c7475e3cc1aabbe5e9ae",
    ("T", "csv"): "eef0aae1599977405105058316422981fb914a84235faf13b8c80d1b7e09c8d0",
    ("T", "json"): "ffbb89db9c0b61bc9a0903dd0e9b12d9320fe87eeabc6f3bf5a487e516c4d8b9",
}


def test_table_bytes_are_pinned():
    tables = pinned_tables()
    digests = {(name, fmt): hashlib.sha256(_bytes(write, table)).hexdigest()
               for name, table in tables.items() for fmt, write in (("csv", table_to_csv), ("json", table_to_json))}
    assert digests == TABLE_DIGESTS


def test_verify_command_pass_and_fail(capsys):
    rc = main(["verify", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7", "--n", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verify: PASS" in out
    line = next(l for l in out.splitlines() if "max relative discrepancy" in l)
    assert float(line.split("=")[1]) < 1e-10

    # an impossible tolerance flips the exit status
    rc = main(
        ["verify", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7",
         "--n", "6", "--tolerance", "0"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "verify: FAIL" in out


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: fd check m judges the rounding noise of its h-difference, about T*eps/step, against "
    "a floor of 1, so verify exits 1 on a correct point (CHANGES.md FOUND line on thermo.fd_verify m; "
    "ROADMAP item 2)"))
def test_verify_passes_at_a_tiny_beta_and_field(capsys):
    # the three routes agree to 1.3e-16 and the closed-form m is right
    rc = main(["verify", "--q", "2", "--J", "0.3", "--h", "1e-20", "--beta", "1e-6", "--n", "5"])
    assert "verify: PASS" in capsys.readouterr().out
    assert rc == 0


def test_verify_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys):
    # nan and -1 once printed "verify: FAIL" with no reason, and inf always passed
    argv = ["verify", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7", "--n", "4"]
    for value, shown in (("nan", "nan"), ("-1", "-1.0"), ("inf", "inf")):
        assert main([*argv, "--tolerance", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tolerance must be finite and >= 0, got {shown}\n"
    assert _run_with_config(tmp_path, argv, {"tolerance": float("nan")}) == 1
    assert capsys.readouterr().err == "tolerance must be finite and >= 0, got nan\n"


def test_verify_chain_below_two_sites_has_one_message(capsys):
    # 0 and -3 were refused by the eigen route, as "N must be at least 1"
    for n in ("1", "0", "-3"):
        assert main(["verify", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "N must be at least 2\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_device_is_a_domain_error(capsys):
    # the write, or the flush at close, once raised OSError: [Errno 28]
    sweep = ["sweep", "--q", "3", "--J", "1", "--h", "0", "--beta", "1", "--axis", "h", "--min", "0", "--max", "1",
             "--steps", "3"]
    surface = ["surface", "--q", "3", "--J", "1", "--axis", "beta", "--min", "0.5", "--max", "2", "--steps", "40",
               "--axis2", "h", "--min2", "-1", "--max2", "1", "--steps2", "30", "--format", "json"]
    for argv in (sweep, surface):
        assert main([*argv, "--out", "/dev/full"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot write output file '/dev/full': No space left on device\n"


def _child_env():  # the environment of a child interpreter that imports this potts1d
    src = str(Path(potts1d.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _potts1d_process(argv, stdout):
    return subprocess.Popen([sys.executable, "-m", "potts1d", *argv], stdout=stdout, stderr=subprocess.PIPE,
                            env=_child_env(), text=True)


def test_commands_without_a_table_do_not_import_numtext():
    # cli._rows_text imports numtext when a table is written, and only then
    code = ("import contextlib, io, sys\n"
            "from potts1d.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    statuses = [main(argv.split()) for argv in sys.argv[1:]]\n"
            "print(statuses, 'potts1d.numtext' in sys.modules)\n")
    runs = ["point --q 3 --J 1 --h 0.5 --beta 0.7", "verify --q 3 --J 1 --h 0.5 --beta 0.7",
            "peaks --q 3 --J 1 --beta 0.7 --axis h --min -2 --max 2 --steps 41"]
    child = subprocess.run([sys.executable, "-c", code, *runs], env=_child_env(), capture_output=True, text=True,
                           timeout=60)
    assert (child.stdout, child.stderr) == ("[0, 0, 0] False\n", "")


def test_closed_stdout_pipe_exits_without_traceback():
    # a reader that closes early once left a BrokenPipeError traceback
    surface = ["surface", "--q", "3", "--J", "1", "--axis", "beta", "--min", "0.5", "--max", "2", "--steps", "100",
               "--axis2", "h", "--min2", "-1", "--max2", "1", "--steps2", "100"]
    proc = _potts1d_process(surface, subprocess.PIPE)
    assert proc.stdout.readline().startswith("beta,h,")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == ""
    proc.stderr.close()
    # A short output stays buffered until the final flush; a pipe with no
    # reader at all fails it
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _potts1d_process(["point", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"], write_end)
    os.close(write_end)
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == ""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_device_exits_without_traceback():
    with open("/dev/full", "w") as full:
        proc = _potts1d_process(["point", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"], full)
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == "cannot write standard output: No space left on device\n"
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["point", "--help"]])
def test_help_to_a_full_stdout_device_fails(argv):
    # argparse swallowed the write error: exit status 0 with nothing written
    with open("/dev/full", "w") as full:
        proc = _potts1d_process(argv, full)
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == "cannot write standard output: No space left on device\n"
    proc.stderr.close()


def test_help_is_written_with_status_0(capsys):
    for argv in (["--help"], ["point", "--help"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: potts1d") and "--help" in out


def test_verify_is_deterministic(capsys):
    args = ["verify", "--q", "4", "--J", "-2", "--h", "1", "--beta", "0.9", "--n", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_peaks_command(capsys):
    rc = main(
        ["peaks", "--q", "22", "--J", "-3", "--beta", "0.9", "--observable", "chi",
         "--axis", "h", "--min", "-3", "--max", "3", "--steps", "10001"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("peak[chi] h = ")
    coord = float(out.split("=")[1].split("value")[0])
    value = float(out.rsplit("=", 1)[1])
    assert abs(coord - 1.1777387811382887) <= 6.0 / 10000
    assert value == pytest.approx(1.0 / 0.9, rel=1e-6)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 3, "J": 1.0, "h": 0.5, "beta": 0.7}))
    rc = main(["point", "--config", str(cfg)])
    assert rc == 0
    base = _parse_point_output(capsys.readouterr().out)
    assert base["f"] == pytest.approx(-2.7678678932972907, rel=1e-13)

    # explicit flags take precedence over file values
    rc = main(["point", "--config", str(cfg), "--h", "0.0"])
    assert rc == 0
    override = _parse_point_output(capsys.readouterr().out)
    expected = thermo_point(ModelParams(3, 1.0, 0.0), ThermoState(0.7))
    assert override["f"] == expected.f

    # --T overrides the file's beta rather than colliding with it
    rc = main(["point", "--config", str(cfg), "--T", "2.0"])
    assert rc == 0
    cooled = _parse_point_output(capsys.readouterr().out)
    expected = thermo_point(ModelParams(3, 1.0, 0.5), ThermoState(0.5))
    assert cooled["f"] == expected.f


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["point", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({"quux": 1}))
    assert main(["point", "--config", str(bad)]) == 2
    assert main(["point", "--config", str(tmp_path / "missing.json")]) == 2
    # a "config" key was once accepted and ignored
    bad.write_text(json.dumps({"config": str(bad)}))
    assert main(["point", "--q", "3", "--J", "1", "--h", "0", "--beta", "1", "--config", str(bad)]) == 2
    assert "unknown config key 'config'" in capsys.readouterr().err


def _run_with_config(tmp_path, argv, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    return main([*argv, "--config", str(cfg)])


SWEEP_ARGV = ["sweep", "--q", "3", "--J", "1", "--h", "0", "--axis", "beta", "--min", "1", "--max", "2"]


@pytest.mark.parametrize("value", [None, True, [1, 2], {"path": "x"}])
def test_config_value_must_be_a_string_or_a_number(value, tmp_path, monkeypatch, capsys):
    # "out": null once wrote the table to a file named None and exited 0
    monkeypatch.chdir(tmp_path)
    assert _run_with_config(tmp_path, [*SWEEP_ARGV, "--steps", "2"], {"out": value}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config key 'out' must hold a string or a number, got {json.dumps(value)}" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_config_file_choice_is_checked(tmp_path, capsys):
    # a file value outside the flag's choices once wrote JSON and exited 0
    assert _run_with_config(tmp_path, [*SWEEP_ARGV, "--steps", "2"], {"format": "xml"}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'xml'" in captured.err


def test_bad_grid_axis_is_a_usage_error(tmp_path, capsys):
    # an axis outside GRID_AXES once exited 1 through GridSpec, unlike a bad --format
    sweep = ["sweep", "--q", "3", "--J", "1", "--h", "0", "--beta", "1", "--min", "0", "--max", "1", "--steps", "2"]
    assert main([*sweep, "--axis", "x"]) == 2
    assert "argument --axis: invalid choice: 'x'" in capsys.readouterr().err
    assert _run_with_config(tmp_path, sweep, {"axis": "x"}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --axis: invalid choice: 'x'" in captured.err


def test_config_file_value_goes_through_the_flag_type(tmp_path, capsys):
    # 2.5 once reached GridSpec and raised a bare TypeError
    assert _run_with_config(tmp_path, SWEEP_ARGV, {"steps": 2.5}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --steps: invalid int value: '2.5'" in captured.err


def test_config_file_string_is_converted_as_on_the_command_line(tmp_path, capsys):
    # "6" once reached the oracle as a string and raised a bare TypeError;
    # like --n 6, it is now the integer 6
    argv = ["verify", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"]
    assert _run_with_config(tmp_path, argv, {"n": "6"}) == 0
    from_file = capsys.readouterr().out
    assert main([*argv, "--n", "6"]) == 0
    assert from_file == capsys.readouterr().out
    assert "(N=6)" in from_file
    assert _run_with_config(tmp_path, argv, {"n": "six"}) == 2
    assert "argument --n: invalid int value: 'six'" in capsys.readouterr().err


# A sweep over two blocks and a surface over one, each larger than a pipe's buffer
TABLE_ARGV = {
    "sweep": ["sweep", "--q", "3", "--J", "1", "--h", "0.5", "--axis", "T", "--min", "0.05", "--max", "20",
              "--steps", "3000"],
    "surface": ["surface", "--q", "5", "--J", "-0.7", "--axis", "beta", "--min", "0.5", "--max", "2", "--steps", "40",
                "--axis2", "h", "--min2", "-1", "--max2", "1", "--steps2", "30"],
}


def _out_bytes(tmp_path, argv):
    path = tmp_path / "table.out"
    assert main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


class _Trickle(io.RawIOBase):
    """A raw binary stream whose write takes at most 1000 bytes."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:1000])
        return min(len(b), 1000)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["sweep", "surface"])
def test_stdout_gets_the_bytes_of_out(command, fmt, tmp_path, capsys, monkeypatch):
    argv = [*TABLE_ARGV[command], "--format", fmt]
    want = _out_bytes(tmp_path, argv)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == want
    # a text stream without a binary buffer gets the same text
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0
    assert text.getvalue().encode() == want
    # text printed earlier and still in the stream's own buffer goes first
    stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stream)
    print("before")
    assert main(argv) == 0
    assert stream.buffer.getvalue() == b"before\n" + want
    # a raw buffer that takes fewer bytes than it is given, as stdout's is
    # under PYTHONUNBUFFERED, still receives all of them
    trickle = _Trickle()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(trickle, encoding="ascii", write_through=True))
    assert main(argv) == 0
    assert trickle.data == want


@pytest.mark.parametrize("unbuffered", [True, False])
def test_stdout_pipe_of_a_child_gets_the_bytes_of_out(unbuffered, tmp_path):
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = "import sys; print(type(sys.stdout.buffer).__name__)"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert child.stdout == (b"FileIO\n" if unbuffered else b"BufferedWriter\n")
    for command, fmt in [(command, fmt) for command in TABLE_ARGV for fmt in ("csv", "json")]:
        argv = [*TABLE_ARGV[command], "--format", fmt]
        child = subprocess.run([sys.executable, "-m", "potts1d", *argv], env=env, capture_output=True, timeout=60)
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout == _out_bytes(tmp_path, argv), (command, fmt)


def test_sweep_stdout_default(capsys):
    rc = main(
        ["sweep", "--q", "2", "--J", "1", "--h", "0", "--axis", "T",
         "--min", "0.5", "--max", "1.5", "--steps", "3", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["columns"][0] == "T"
    assert len(payload["rows"]) == 3
    # the swept temperature fills both the coordinate and the state columns
    for row in payload["rows"]:
        assert row[0] == pytest.approx(row[2], rel=1e-15)


def test_extreme_point_finite_through_cli(capsys):
    rc = main(["point", "--q", "3", "--J", "12", "--h", "3", "--beta", "30"])
    assert rc == 0
    values = _parse_point_output(capsys.readouterr().out)
    for v in values.values():
        assert math.isfinite(v)
    assert values["chi"] > 0.0
    assert values["C"] == values["chi"] * 12.0**2 * 30.0**3


def test_run_config_parsing_defaults():
    config = parse_run_config(
        ["verify", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"]
    )
    assert config.n == 6
    assert config.tolerance == 1e-10
    config = parse_run_config(
        ["sweep", "--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7",
         "--axis", "h", "--min", "-1", "--max", "1", "--steps", "3"]
    )
    assert config.format == "csv"
    assert config.grids[0].axis == "h"


def test_successive_commands_do_not_share_values(capsys):
    # the parser is built once per process; no value may carry over
    model = ["--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"]
    config = parse_run_config(["verify", *model, "--n", "4", "--tolerance", "1e-3"])
    assert (config.n, config.tolerance) == (4, 1e-3)
    config = parse_run_config(["verify", "--q", "2", "--J", "0", "--h", "0", "--T", "2"])
    assert (config.n, config.tolerance) == (6, 1e-10)
    assert config.params == ModelParams(2, 0.0, 0.0) and config.state == ThermoState(0.5)
    assert main(["peaks", *model, "--axis", "h", "--min", "-1", "--max", "1", "--steps", "5",
                 "--observable", "m"]) == 0
    assert main(["point", "--q", "3", "--J", "1", "--h", "0.5"]) == 2  # no beta from before
    capsys.readouterr()
    assert main(["point", *model]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"f = {thermo_point(ModelParams(3, 1.0, 0.5), ThermoState(0.7)).f!r}"
    config = parse_run_config(["peaks", *model, "--axis", "h", "--min", "-1", "--max", "1",
                               "--steps", "5"])
    assert config.observable == "chi" and config.format == "csv" and config.out is None


def test_overflow_at_a_tiny_normal_beta_is_a_domain_error(capsys):
    # T = 1/beta is finite at beta = 6e-309, but ln(lambda_max) * T is not
    model = ["--q", "3", "--J", "1", "--h", "0"]
    grid = ["--axis", "beta", "--min", "6e-309", "--max", "1", "--steps", "2"]
    f_error = "f = -ln(lambda_max)/beta overflows at q=3, J=1.0, h=0.0, beta=6e-309\n"
    for argv, error in (
        (["point", *model, "--beta", "6e-309"], f_error),
        (["verify", *model, "--beta", "6e-309"],
         "finite-N free energy -ln(Z_N)/(beta*N) overflows at q=3, J=1.0, h=0.0, beta=6e-309, N=6\n"),
        (["sweep", *model, *grid], f_error),
        (["surface", *model[:4], *grid, "--axis2", "h", "--min2", "0", "--max2", "1", "--steps2", "2"], f_error),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == error


def test_heat_capacity_where_j_squared_overflows(capsys, tmp_path):
    # J**2 = inf and chi = 0: C was inf * 0 = nan; the true C underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow and invalid warnings
        assert main(["point", "--q", "2", "--J", "1e200", "--h", "0", "--beta", "1"]) == 0
    assert _parse_point_output(capsys.readouterr().out)["C"] == 0.0
    # h cancels J*beta, so 4r(1-r) = 1 and C = (J*beta)^2 = 1e400
    assert main(["point", "--q", "2", "--J", "1e200", "--h=-1e200", "--beta", "1"]) == 1
    assert capsys.readouterr().err == "C overflows at q=2, J=1e+200, h=-1e+200, beta=1.0\n"
    out = tmp_path / "s.csv"
    argv = ["surface", "--q", "3", "--h", "0.5", "--axis", "beta", "--min", "0.5", "--max", "2", "--steps", "3",
            "--axis2", "J", "--min2=-1e200", "--max2", "1e200", "--steps2", "5", "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 15
    assert all(float(row[-1]) == 0.0 for row in rows if abs(float(row[1])) == 1e200)
    assert not any("nan" in row[-1] for row in rows)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every potts1d line of the README's shell blocks, continuations joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    commands = [c for c in "\n".join(blocks).replace("\\\n", " ").splitlines() if c.startswith("potts1d ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    capsys.readouterr()


def test_verify_second_differences_stay_in_double_range(capsys):
    # the squared second-difference step underflowed to 0 at beta ~ 3e290
    # (ZeroDivisionError) and overflowed at beta = 1e-300 (C error nan)
    for argv in (["--q", "2", "--J", "1e-300", "--h", "0.0", "--beta", "3.506144349373339e+290", "--n", "2"],
                 ["--q", "3", "--J", "0.5", "--h", "0.2", "--beta", "1e-300", "--n", "3"]):
        assert main(["verify", *argv]) == 0, argv
        out = capsys.readouterr().out
        assert "nan" not in out
        assert out.endswith("verify: PASS\n")


def test_point_where_twice_the_coupling_exponent_overflows(capsys):
    # |h + J*beta| >= 2**1023: 2u is inf, and the kernel takes that without
    # a RuntimeWarning (an error under this suite's filterwarnings)
    assert main(["point", "--q", "3", "--J", "0", "--h", "1e308", "--beta", "1"]) == 0
    captured = capsys.readouterr()
    values = _parse_point_output(captured.out)
    assert captured.err == ""
    assert values["f"] == -1e308
    assert (values["m"], values["chi"], values["C"]) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("axes", [("beta",), ("T",), ("h",), ("J",), ("q",), ("h", "J")])
def test_json_metadata_base_of_a_swept_parameter_is_null(axes, capsys):
    # the base value of a swept parameter was the CLI placeholder (q 2,
    # J 0, h 0) or the flag the grid overrides
    argv = ["sweep" if len(axes) == 1 else "surface", "--q", "3", "--J", "1.25", "--h", "0.5", "--beta", "2",
            "--format", "json"]
    for axis, suffix in zip(axes, ("", "2")):
        grid = ("2", "3") if axis == "q" else ("0.5", "1.5")
        argv += [f"--axis{suffix}", axis, f"--min{suffix}", grid[0], f"--max{suffix}", grid[1], f"--steps{suffix}", "2"]
    assert main(argv) == 0
    base = json.loads(capsys.readouterr().out)["metadata"]["base"]
    given = {"q": 3, "J": 1.25, "h": 0.5, "beta": 2.0}
    for axis in axes:
        given["beta" if axis == "T" else axis] = None
    assert base == given


def test_verify_refuses_an_overflowing_ln_z_by_name(capsys):
    # N*|h + J*beta| is beyond double range: the eigen route once returned inf,
    # and enumeration nan with two numpy warnings, before the dense-limit error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--q", "2", "--J", "0", "--h", "1e308", "--beta", "1", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ln Z_N overflows at q=2, J=0.0, h=1e+308, beta=1.0, N=2\n"
