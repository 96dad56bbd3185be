"""Output checks: structure exactly, values against an independent mpmath
reference within a relative tolerance.

The reference evaluates the paper's closed forms directly at 40 significant
digits, with none of the program's stable-core branches, so a change that
only moves the last bit of a result still passes while a wrong formula,
branch or column fails.  Each check also returns the numerical regime of the
points it saw (see `Regimes`).
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter

import numpy as np
from mpmath import exp, log, mp, mpf

from workloads import VERIFY_N, Request

OBSERVABLES = ("f", "S", "m", "chi", "C")
STANDARD_COLUMNS = ("beta", "T", "h", "J", "q") + OBSERVABLES

# Agreement required with the 40-digit reference.  Rounding in the
# program's own arithmetic stays below 1e-12 over the sampled domain.
RTOL = 1e-9
# S and m cross zero, so near the crossing they are judged on the scale 1.
UNIT_FLOOR = {"f": 0.0, "S": 1.0, "m": 1.0, "chi": 0.0, "C": 0.0}
# chi and C may be subnormal, where a double keeps few significant bits.
TINY = 1e-300
# Grid coordinates come from linspace; allow last-bit differences.
GRID_RTOL = 1e-12
# Rows per surface request checked against the reference.
SAMPLED_ROWS = 16
# The dominant log-eigenvalue switches to its large-exponent form above
# x = 2(h + J*beta) = 40.
LARGE_EXPONENT = 40.0


class CheckError(Exception):
    """A request's output is malformed or wrong."""


def reference_point(q: int, J: float, h: float, beta: float) -> dict[str, float]:
    """f, S, m, chi, C from the closed forms at 40 digits."""
    with mp.workdps(40):
        J, h, beta = mpf(J), mpf(h), mpf(beta)
        a = (q - 1) * exp(2 * (h + J * beta))  # r = a / (1 + a)
        log_lambda_max = -(h + J * beta) + log(1 + a)
        two_r_minus_one = (a - 1) / (a + 1)
        r_one_minus_r = a / (1 + a) ** 2
        values = {
            "f": -log_lambda_max / beta,
            "S": log_lambda_max - J * beta * two_r_minus_one,
            "m": two_r_minus_one / beta,
            "chi": 4 * r_one_minus_r / beta,
            "C": 4 * J**2 * beta**2 * r_one_minus_r,
        }
        return {k: float(v) for k, v in values.items()}


def reference_ln_Z(q: int, J: float, h: float, beta: float, N: int) -> float:
    """ln Z_N as the eigen-sum lambda_max^N + (q-1) lambda_minor^N at 60 digits."""
    with mp.workdps(60):
        u = mpf(h) + mpf(J) * mpf(beta)
        lam_max = exp(-u) + (q - 1) * exp(u)
        lam_minor = exp(-u) - exp(u)
        return float(log(lam_max**N + (q - 1) * lam_minor**N))


def _close(got: float, ref: float, floor: float = 0.0) -> bool:
    return abs(got - ref) <= RTOL * max(abs(ref), floor) + TINY


def _check_values(values: dict[str, float], q, J, h, beta, where: str) -> None:
    ref = reference_point(q, J, h, beta)
    for name in OBSERVABLES:
        if not _close(values[name], ref[name], UNIT_FLOOR[name]):
            raise CheckError(
                f"{where}: {name} = {values[name]!r}, reference {ref[name]!r} "
                f"(q={q}, J={J!r}, h={h!r}, beta={beta!r})"
            )


class Regimes(Counter):
    """Points seen, and how many took the x > 40 branch, have a saturated
    sigmoid (chi == 0) or a negative entropy."""

    def add(self, J, h, beta, chi, S) -> None:
        x = 2.0 * (np.asarray(h) + np.asarray(J) * np.asarray(beta))
        self["points"] += np.size(chi)
        self["x_gt_40"] += int(np.count_nonzero(x > LARGE_EXPONENT))
        self["chi_zero"] += int(np.count_nonzero(np.asarray(chi) == 0.0))
        self["s_negative"] += int(np.count_nonzero(np.asarray(S) < 0.0))


def _assignments(text: str) -> list[tuple[str, str]]:
    pairs = []
    for line in text.splitlines():
        m = re.fullmatch(r"(.+?)\s*=\s*(\S+)", line)
        pairs.append((m.group(1), m.group(2)) if m else (line, ""))
    return pairs


def _float(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(v):
        raise CheckError(f"{where}: {text!r} is not finite")
    return v


def check_verify(req: Request, stdout: str) -> Regimes:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "verify: PASS":
        raise CheckError(f"verify: last line is {lines[-1] if lines else ''!r}, not 'verify: PASS'")
    values = dict(_assignments(stdout))
    ln_Z = reference_ln_Z(req.q, req.J, req.h, req.beta, VERIFY_N)
    for route in ("ln_Z enumeration", "ln_Z trace power", "ln_Z eigen sum"):
        if route not in values:
            raise CheckError(f"verify: no {route!r} line")
        got = _float(values[route], route)
        if not _close(got, ln_Z, 1.0):
            raise CheckError(f"verify: {route} = {got!r}, mpmath eigen-sum {ln_Z!r}")
    key = f"finite-N free energy (N={VERIFY_N})"
    if key not in values:
        raise CheckError(f"verify: no {key!r} line")
    f_N = _float(values[key], key)
    if not _close(f_N, -ln_Z / (req.beta * VERIFY_N), 1.0):
        raise CheckError(f"verify: {key} = {f_N!r}")
    fd_lines = [name for name in values if name.startswith("fd check ")]
    if len(fd_lines) != 4:
        raise CheckError(f"verify: expected 4 fd check lines, got {len(fd_lines)}")
    # verify prints no observables; its regime is that of its one point.
    ref = reference_point(req.q, req.J, req.h, req.beta)
    regimes = Regimes()
    regimes.add(req.J, req.h, req.beta, ref["chi"], ref["S"])
    return regimes


def _grid(axis) -> np.ndarray:
    _, lo, hi, steps = axis
    return np.linspace(lo, hi, steps)


def _read_table(req: Request, text: str) -> tuple[list[str], np.ndarray]:
    """Columns and a float matrix of the table; checks the q cell is an integer."""
    if req.format == "csv":
        if not text.endswith("\n") or "\r" in text:
            raise CheckError("surface csv: lines must end in a single line feed")
        lines = text[:-1].split("\n")
        columns = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        if any(len(r) != len(columns) for r in rows):
            raise CheckError("surface csv: ragged row")
        q_index = columns.index("q") if "q" in columns else None
        if q_index is not None and not all(r[q_index].isdigit() for r in rows):
            raise CheckError("surface csv: a q cell is not an integer")
        try:
            matrix = np.array(rows, dtype=float)
        except ValueError as err:
            raise CheckError(f"surface csv: {err}") from None
        return columns, matrix.reshape(len(rows), len(columns))
    try:
        doc = json.loads(text)
        columns = doc["metadata"]["columns"]
        rows = doc["rows"]
    except (ValueError, KeyError, TypeError) as err:
        raise CheckError(f"surface json: {err!r}") from None
    if any(len(r) != len(columns) for r in rows):
        raise CheckError("surface json: ragged row")
    q_index = columns.index("q") if "q" in columns else None
    if q_index is not None and not all(type(r[q_index]) is int for r in rows):
        raise CheckError("surface json: a q value is not an integer")
    try:
        matrix = np.array(rows, dtype=float)
    except (ValueError, TypeError) as err:
        raise CheckError(f"surface json: {err}") from None
    return columns, matrix.reshape(len(rows), len(columns))


def check_surface(req: Request, text: str) -> Regimes:
    (ax, *_), (ay, *_) = req.grids
    columns, table = _read_table(req, text)
    expected_columns = [ax, ay] + list(STANDARD_COLUMNS)
    if columns != expected_columns:
        raise CheckError(f"surface: header {columns}, expected {expected_columns}")
    gx, gy = _grid(req.grids[0]), _grid(req.grids[1])
    if table.shape[0] != gx.size * gy.size:
        raise CheckError(f"surface: {table.shape[0]} rows, expected {gx.size * gy.size}")
    if not np.all(np.isfinite(table)):
        raise CheckError("surface: a cell is not finite")

    # Grid-index order: x varies slowest.  Each row's parameters follow from
    # the base values and its two coordinates.
    expect = {
        "q": np.full(table.shape[0], float(req.q)),
        "J": np.full(table.shape[0], np.nan if req.J is None else req.J),
        "h": np.full(table.shape[0], np.nan if req.h is None else req.h),
        "beta": np.full(table.shape[0], np.nan if req.beta is None else req.beta),
    }
    coords = {ax: np.repeat(gx, gy.size), ay: np.tile(gy, gx.size)}
    for axis, values in coords.items():
        if axis == "T":
            expect["beta"] = 1.0 / values
        else:
            expect[axis] = values
    expect["T"] = 1.0 / expect["beta"]
    col = {name: table[:, i + 2] for i, name in enumerate(STANDARD_COLUMNS)}
    checks = [("x coordinate", table[:, 0], coords[ax]), ("y coordinate", table[:, 1], coords[ay])]
    checks += [(name, col[name], expect[name]) for name in ("beta", "T", "h", "J", "q")]
    for what, got, want in checks:
        bad = np.abs(got - want) > GRID_RTOL * np.maximum(np.abs(want), 1.0)
        if np.any(bad) or np.any(np.isnan(want)):
            i = int(np.argmax(bad))
            raise CheckError(f"surface: row {i} {what} = {got[i]!r}, expected {want[i]!r}")

    rng = random.Random(req.check_seed)
    for i in sorted(rng.sample(range(table.shape[0]), SAMPLED_ROWS)):
        values = {name: float(col[name][i]) for name in OBSERVABLES}
        q, J, h, beta = int(expect["q"][i]), float(expect["J"][i]), float(expect["h"][i]), float(expect["beta"][i])
        _check_values(values, q, J, h, beta, f"surface row {i}")

    regimes = Regimes()
    regimes.add(expect["J"], expect["h"], expect["beta"], col["chi"], col["S"])
    return regimes


def check(req: Request, rc: int, stdout: str) -> Regimes:
    """Judge one request; raises CheckError when it failed or is wrong."""
    if rc != 0:
        raise CheckError(f"{req.workload}: exit status {rc}")
    if req.workload == "verify":
        return check_verify(req, stdout)
    try:
        with open(req.out, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as err:
        raise CheckError(f"surface: cannot read {req.out}: {err}") from None
    if stdout:
        raise CheckError("surface: wrote to stdout although --out was given")
    return check_surface(req, text)
