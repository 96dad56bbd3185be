import dataclasses
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

import potts1d
from potts1d import ModelParams, ThermoState, thermo_point
from potts1d.cli import main, parse_run_config, run, table_to_csv, table_to_json
from potts1d.sweep import GridSpec, sweep_1d, sweep_2d


def _text(write, table):
    buf = io.StringIO()
    write(table, buf)
    return buf.getvalue()


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
    for row, f in zip(rows, table.columns["f"]):
        assert float(row[-5]) == pytest.approx(f, rel=1e-15)


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


def _potts1d_process(argv, stdout):
    src = str(Path(potts1d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen([sys.executable, "-m", "potts1d", *argv], stdout=stdout, stderr=subprocess.PIPE,
                            env=env, text=True)


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


def test_config_file_choice_is_checked(tmp_path, capsys):
    # a file value outside the flag's choices once wrote JSON and exited 0
    assert _run_with_config(tmp_path, [*SWEEP_ARGV, "--steps", "2"], {"format": "xml"}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'xml'" in captured.err


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
