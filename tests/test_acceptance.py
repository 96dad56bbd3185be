"""Acceptance suite: eight end-to-end guarantees, each checked at a fixed
tolerance and reported with one pass/fail line.  Run with
`pytest -s tests/test_acceptance.py` to see the lines as the checks execute."""

import functools
import math

import numpy as np
import pytest

from potts1d import (
    GridSpec,
    ModelParams,
    ThermoState,
    entropy,
    fd_verify,
    find_peak,
    free_energy,
    heat_capacity,
    susceptibility,
    sweep_1d,
    three_route_report,
)
from potts1d.cli import main
from potts1d.oracle import build_matrix
from reference import (
    closed_form_spectrum,
    finite_N_free_energy,
    magnetization_zero_point,
    q_ordering_check,
    refine_peak,
)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return deco


def _draw_bounded(rng, limit=10.0):
    """One (J, h, beta) draw with |h + J*beta| capped at the given limit."""
    while True:
        J = float(rng.uniform(-4, 4))
        h = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.05, 2.5))
        if abs(h + J * beta) <= limit:
            return J, h, beta


def _criterion1_points():
    rng = np.random.default_rng(20250809)
    for q in (2, 3, 4, 5):
        for n in range(2, 9):
            for _ in range(20):
                J, h, beta = _draw_bounded(rng)
                yield q, n, ModelParams(q, J, h), ThermoState(beta)


@criterion("criterion 1 (three-route partition agreement)")
def test_criterion_1_three_route_agreement():
    for q, n, params, state in _criterion1_points():
        report = three_route_report(params, state, n)
        assert report.max_relative_discrepancy <= 1e-10, (q, n, params, state)


@criterion("criterion 2 (spectrum cross-check)")
def test_criterion_2_spectrum_cross_check():
    rng = np.random.default_rng(42)
    count = 0
    while count < 100:
        q = int(rng.integers(2, 9))
        J = float(rng.uniform(-5, 5))
        h = float(rng.uniform(-3, 3))
        beta = float(rng.uniform(0.05, 4.0))
        u = h + J * beta
        # the trace identity is ill conditioned only at the isolated point
        # where lambda_minor vanishes, so draws keep |u| off exact zero
        if not (0.05 <= abs(u) <= 20.0):
            continue
        count += 1
        params, state = ModelParams(q, J, h), ThermoState(beta)
        spectrum = closed_form_spectrum(params, state)
        matrix = build_matrix(params, state)
        lam = np.linalg.eigvalsh(matrix.to_dense())[-1]  # LAPACK, no start vector
        assert abs(lam - spectrum.lambda_max) <= 1e-10 * spectrum.lambda_max
        # trace(M) = (q-1) lambda_minor + lambda_max recovers the minor value
        minor_from_trace = (q * matrix.diag - lam) / (q - 1)
        assert abs(minor_from_trace - spectrum.lambda_minor) <= 1e-10 * abs(spectrum.lambda_minor)


@criterion("criterion 3 (derivative suite)")
def test_criterion_3_derivative_suite():
    rng = np.random.default_rng(777)
    for _ in range(50):
        q = int(rng.integers(2, 11))
        J = float(rng.uniform(0.3, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        h = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(0.3, 2.5))
        report = fd_verify(ModelParams(q, J, h), ThermoState(beta))
        assert report.entropy_error <= 1e-6
        assert report.magnetization_error <= 1e-6
        assert report.susceptibility_error <= 1e-5
        assert report.heat_capacity_error <= 1e-5
        assert report.passed


@criterion("criterion 4 (free-energy ordering in q)")
def test_criterion_4_q_ordering():
    grid = GridSpec("beta", 0.1, 30.0, 300)
    q_list = (3, 4, 5, 6, 7, 8, 9, 21)
    assert q_ordering_check(grid, h=-3.0, J=5.15, q_list=q_list)
    assert q_ordering_check(grid, h=4.0, J=-3.0, q_list=q_list)


@criterion("criterion 5 (low- and high-temperature asymptotics)")
def test_criterion_5_asymptotics():
    cold = ThermoState.from_temperature(1e-4)

    s = entropy(ModelParams(7, 5.3, -3.0), cold)
    assert abs(s - (-3.0 + math.log(6.0))) <= 1e-3
    assert s < 0.0  # negative low-temperature entropy

    s = entropy(ModelParams(17, -5.3, 2.0), cold)
    assert abs(s - (-2.0)) <= 1e-3

    params = ModelParams(3, 1.0, 0.5)
    assert heat_capacity(params, cold) < 1e-6
    assert heat_capacity(params, ThermoState.from_temperature(1e6)) < 1e-6


@criterion("criterion 6 (susceptibility peak law)")
def test_criterion_6_susceptibility_peak():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        q = int(rng.integers(2, 31))
        J = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(0.1, 5.0))
        params, state = ModelParams(q, J, 0.0), ThermoState(beta)
        hstar = magnetization_zero_point(params, state)
        assert hstar == pytest.approx(-0.5 * math.log((q - 1) * math.exp(2 * beta * J)))

        grid = GridSpec("h", hstar - 3.2, hstar + 2.8, 10001)
        table = sweep_1d(params, state, grid)
        coord, _ = find_peak(table, "chi")
        step = 6.0 / 10000
        assert abs(coord - hstar) <= step

        def chi_of(h, _p=params, _s=state):
            return susceptibility(ModelParams(_p.q, _p.J, h), _s)

        _, peak = refine_peak(chi_of, coord - step, coord + step)
        assert abs(peak - 1.0 / beta) <= 1e-6 / beta


@criterion("criterion 7 (stability at extreme exponents)")
def test_criterion_7_extreme_stability(capsys):
    for q in (3, 16):
        rc = main(["point", "--q", str(q), "--J", "12", "--h", "3", "--beta", "30"])
        assert rc == 0
        values = {}
        for line in capsys.readouterr().out.strip().splitlines():
            name, _, value = line.partition(" = ")
            values[name.strip()] = float(value)
        assert set(values) == {"f", "S", "m", "chi", "C"}
        for v in values.values():
            assert math.isfinite(v)
        lhs = values["C"]
        rhs = 12.0**2 * 30.0**3 * values["chi"]
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@criterion("criterion 8 (finite-size bound and doubling decay)")
def test_criterion_8_finite_size_bound():
    # Same parameter points as criterion 1; N runs over the doubling chain
    # 2 -> 4 -> 8.  For even N the correction log(1 + (q-1) rho^N) lies in
    # (0, log q), which proves the bound; with q = 2, odd N and a strongly
    # negative minor eigenvalue the bound itself is false, so odd N is
    # covered by the exact-expansion regression test in test_oracle instead.
    rng = np.random.default_rng(20250809)
    for q in (2, 3, 4, 5):
        for _ in range(7 * 20):
            J, h, beta = _draw_bounded(rng)
            params, state = ModelParams(q, J, h), ThermoState(beta)
            f = free_energy(params, state)
            gaps = []
            for n in (2, 4, 8):
                gap = abs(finite_N_free_energy(params, state, n) - f)
                assert gap <= math.log(q) / (beta * n), (q, J, h, beta, n)
                gaps.append(gap)
            assert gaps[0] > gaps[1] > gaps[2], (q, J, h, beta, gaps)
