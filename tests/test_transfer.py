"""The transfer-matrix method: the kernel's log spectrum and ln Z_N of
transfer, and the dense matrix of oracle, its numpy eigendecomposition and
the value-form spectrum of the test reference that check them."""

import math
import tracemalloc

import numpy as np
import pytest

from potts1d import ModelParams, ThermoState
from potts1d.oracle import (
    DENSE_EXPONENT_LIMIT,
    MAX_DENSE_Q,
    build_matrix,
    enumerate_partition,
    trace_power_partition,
)
from potts1d.thermo import coupling_exponent, spectrum_core
from potts1d.transfer import partition_function
from reference import closed_form_spectrum

POINT = (ModelParams(3, 1.0, 0.5), ThermoState(0.7))  # h + J*beta = 1.2


def test_build_matrix_trivial():
    m = build_matrix(ModelParams(2, 0.0, 0.0), ThermoState(1.0))
    assert np.array_equal(m.to_dense(), np.ones((2, 2)))


def test_build_matrix_entries():
    m = build_matrix(*POINT)
    assert m.diag == pytest.approx(math.exp(-1.2), rel=1e-15)
    assert m.offdiag == pytest.approx(math.exp(1.2), rel=1e-15)
    dense = m.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.all(dense > 0)
    # the two entry values are exact reciprocals for any parameters
    assert m.diag * m.offdiag == pytest.approx(1.0, rel=1e-15)


def test_dense_overflow_gate():
    m = build_matrix(ModelParams(2, 400.0, 0.0), ThermoState(1.0))
    with pytest.raises(OverflowError, match="log-domain"):
        m.to_dense()
    assert abs(m.log_offdiag) > DENSE_EXPONENT_LIMIT


def test_spectrum_all_ones_matrix():
    spectrum = closed_form_spectrum(ModelParams(2, 0.0, 0.0), ThermoState(1.0))
    assert spectrum.lambda_minor == 0.0
    assert spectrum.lambda_max == pytest.approx(2.0, rel=1e-15)


def test_spectrum_against_numeric_eigendecomposition():
    # oracle: numpy eigendecomposition of the dense matrix
    spectrum = closed_form_spectrum(*POINT)
    w = np.linalg.eigvalsh(build_matrix(*POINT).to_dense())
    assert spectrum.lambda_max == pytest.approx(w[-1], rel=1e-12)
    assert spectrum.lambda_minor == pytest.approx(w[0], rel=1e-12)
    # at u = 709.5 both values are still doubles, though the dense matrix
    # stops at u = 300
    edge = (ModelParams(2, 0.0, 709.5), ThermoState(1.0))
    for point, minor, lam in ((POINT, -3.0189227108243455, 6.941428057385298),
                              (edge, -1.3549863193146328e308, 1.3549863193146328e308)):
        params, state = point
        spectrum = closed_form_spectrum(params, state)
        log_lambda_max = spectrum_core(params.q, coupling_exponent(params.J, params.h, state.beta)).log_lambda_max
        assert spectrum.lambda_minor == pytest.approx(minor, rel=1e-14)
        assert spectrum.lambda_max == pytest.approx(lam, rel=1e-14)
        assert log_lambda_max == pytest.approx(math.log(spectrum.lambda_max), rel=1e-14)

    rng = np.random.default_rng(3)
    for _ in range(40):
        q = int(rng.integers(2, 8))
        params = ModelParams(q, float(rng.uniform(-3, 3)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.1, 3.0)))
        spectrum = closed_form_spectrum(params, state)
        w = np.linalg.eigvalsh(build_matrix(params, state).to_dense())
        assert spectrum.lambda_max == pytest.approx(w[-1], rel=1e-10)
        # the minor eigenvalue fills the remaining q-1 slots
        np.testing.assert_allclose(w[:-1], spectrum.lambda_minor, rtol=1e-10, atol=1e-12)


def test_spectrum_gap_identity():
    # lambda_max - lambda_minor = q * e^{h + J beta} for any parameters
    rng = np.random.default_rng(5)
    for _ in range(30):
        q = int(rng.integers(2, 9))
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.1, 2.0)))
        spectrum = closed_form_spectrum(params, state)
        gap = q * math.exp(params.h + params.J * state.beta)
        assert spectrum.lambda_max - spectrum.lambda_minor == pytest.approx(gap, rel=1e-12)


def test_log_branch_agreement_at_threshold():
    # ln lambda_max = -u + ln(1 + e^t) = u + ln(q-1) + ln(1 + e^-t), with
    # t = 2u + ln(q-1); the kernel switches from the first to the second at
    # t = 0, where the sigmoid switches
    for q in (2, 3, 7, 21, 2**62):
        for t in (-1.0, -1e-9, 1e-9, 1.0):
            u = 0.5 * (t - math.log(q - 1))
            below = -u + math.log1p(math.exp(t))
            above = u + math.log(q - 1) + math.log1p(math.exp(-t))
            assert below == pytest.approx(above, rel=1e-15, abs=0.0), (q, t)
            # the implementation agrees with both
            got = spectrum_core(q, coupling_exponent(0.0, u, 1.0)).log_lambda_max
            assert got == pytest.approx(below, rel=1e-15, abs=0.0), (q, t)


def test_log_dominant_eigenvalue_never_overflows():
    llm = spectrum_core(3, coupling_exponent(12.0, 3.0, 30.0)).log_lambda_max
    assert math.isfinite(llm)
    assert llm == pytest.approx(363.0 + math.log(2.0), rel=1e-12)
    llm = spectrum_core(16, coupling_exponent(-12.0, 3.0, 30.0)).log_lambda_max
    assert llm == pytest.approx(357.0, rel=1e-12)


def test_dominance_strict():
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = int(rng.integers(2, 12))
        params = ModelParams(q, float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3)))
        state = ThermoState(float(rng.uniform(0.05, 3.0)))
        if abs(params.h + params.J * state.beta) > 15.0:
            continue
        w = np.linalg.eigvalsh(build_matrix(params, state).to_dense())  # LAPACK
        rho = w[0] / w[-1]
        assert abs(rho) < 1.0
        spectrum = closed_form_spectrum(params, state)
        assert abs(spectrum.lambda_minor) < spectrum.lambda_max


def test_partition_function_unit_weights():
    # all weights are 1, so Z = q^N
    lnz = partition_function(ModelParams(2, 0.0, 0.0), ThermoState(1.0), 3)
    assert lnz == pytest.approx(math.log(8.0), rel=1e-14)


def test_partition_function_n1_is_trace():
    # Z_1 = q exp(-u); (q-1)|rho| comes within rounding of 1 once u >> ln q
    rng = np.random.default_rng(29)
    points = [(3, 0.0, 20.0, 1.0), (64, 0.0, 18.0, 1.0), (2, 0.0, 700.0, 1.0), (2**62, 0.0, -700.0, 1.0)]
    for _ in range(200):
        q = int(2.0 ** rng.uniform(1.0, 62.0))
        points.append((q, float(rng.uniform(-350, 350)), float(rng.uniform(-350, 350)), float(rng.uniform(0.1, 1.0))))
    for q, J, h, beta in points:
        params, state = ModelParams(q, J, h), ThermoState(beta)
        u = params.h + params.J * state.beta
        assert partition_function(params, state, 1) == pytest.approx(
            math.log(q) - u, rel=1e-12
        ), (params, state)


def test_partition_function_against_enumeration():
    # oracle: exhaustive sum over the 81 periodic configurations
    params, state = POINT
    lnz = partition_function(params, state, 4)
    assert lnz == pytest.approx(enumerate_partition(params, state, 4), rel=1e-12)
    assert lnz == pytest.approx(7.819141377869183, rel=1e-13)
    assert math.exp(lnz) == pytest.approx(2487.768437713772, rel=1e-12)


def test_partition_function_negative_minor_odd_n():
    # q = 2 with positive exponent: the minor eigenvalue is negative and the
    # odd-N correction term must subtract, never producing a NaN
    params = ModelParams(2, 1.0, 0.0)
    state = ThermoState(2.0)
    for n in (3, 5, 7):
        direct = (2 * math.cosh(2.0)) ** n + (-2 * math.sinh(2.0)) ** n
        assert partition_function(params, state, n) == pytest.approx(
            math.log(direct), rel=1e-12
        )


def test_partition_function_deep_cancellation_regime():
    # odd N with a strongly negative minor eigenvalue: the correction is
    # large but exactly representable through the complement form
    params = ModelParams(2, 0.0, 20.0)
    state = ThermoState(1.0)
    lnz = partition_function(params, state, 3)
    # Z = 2 e^{-60} + 6 e^{20}: the aligned pair is negligible
    assert lnz == pytest.approx(20.0 + math.log(6.0), rel=1e-12)

    params = ModelParams(2, 0.0, 300.0)
    lnz = partition_function(params, state, 3)
    assert lnz == pytest.approx(300.0 + math.log(6.0), rel=1e-12)


def test_partition_function_tiny_coupling_exponent():
    # 0 < |h + J*beta| < 1e-16 once made the cancellation-free complement
    # round to 1 and log1p(-1) raise
    mpmath = pytest.importorskip("mpmath")
    cases = [(ModelParams(2, 5.0, 0.0), ThermoState(1e-300)), (ModelParams(3, 0.1, 0.0), ThermoState(1e-17)),
             (ModelParams(5, 0.0, -3e-17), ThermoState(1.0)), (ModelParams(4, -1.0, 0.0), ThermoState(1e-320)),
             (ModelParams(7, 1.0, -0.1), ThermoState(0.3))]
    for params, state in cases:
        for n in (1, 2, 3, 6, 13):
            with mpmath.workdps(60):
                u = mpmath.mpf(params.h) + mpmath.mpf(params.J) * mpmath.mpf(state.beta)
                lam_max = mpmath.exp(-u) + (params.q - 1) * mpmath.exp(u)
                lam_minor = mpmath.exp(-u) - mpmath.exp(u)
                ref = float(mpmath.log(lam_max**n + (params.q - 1) * lam_minor**n))
            assert partition_function(params, state, n) == pytest.approx(ref, rel=1e-14), (params, state, n)


def test_partition_function_against_400_digit_eigen_sum():
    # Over q, N and both signs of u, including the (q-1)|rho|^N -> 1 corners:
    # N = 1 at large u, and q = 2 with odd N at u ~ 355..373, where
    # q(1-r) is subnormal.
    mpmath = pytest.importorskip("mpmath")
    mags = (1e-12, 1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 18.0, 20.0, 40.0, 100.0, 300.0, 700.0)
    us = [s * m for m in mags for s in (1.0, -1.0)] + [355.0, 360.0, 365.5, 372.0, 373.0]
    for u in us:
        # the odd-N sum cancels in up to 2|u|/ln 10 digits: keep 400 beyond that
        with mpmath.workdps(400 + int(0.87 * abs(u)) + 10):
            e = mpmath.exp(mpmath.mpf(u))
            for q in (2, 3, 5, 64, 10**6, 2**62):
                lam_max, lam_minor = 1 / e + (q - 1) * e, 1 / e - e
                for n in (1, 2, 3, 4, 5, 13, 1000):
                    ref = float(mpmath.log(lam_max**n + (q - 1) * lam_minor**n))
                    got = partition_function(ModelParams(q, 0.0, u), ThermoState(1.0), n)
                    assert abs(got - ref) <= 4e-15 * max(abs(ref), 1.0), (q, n, u, got, ref)


def test_partition_function_validates_n():
    with pytest.raises(ValueError):
        partition_function(POINT[0], POINT[1], 0)


def test_dense_routes_cap_q_before_allocating():
    # at q = 10^5 a dense q x q matrix would take 80 GB
    for q in (MAX_DENSE_Q + 1, 100_000):
        params, state = ModelParams(q, 1.0, 0.0), ThermoState(1.0)
        routes = (
            lambda: build_matrix(params, state).to_dense(),
            lambda: trace_power_partition(params, state, 4),
        )
        for route in routes:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"q = {q} exceeds the dense-matrix cap of {MAX_DENSE_Q} states"):
                    route()
                assert tracemalloc.get_traced_memory()[1] < 2**20
            finally:
                tracemalloc.stop()
