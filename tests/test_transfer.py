import math
import tracemalloc

import numpy as np
import pytest

from potts1d import (
    ConvergenceError,
    ModelParams,
    PartialPartitionVector,
    ThermoState,
    build_matrix,
    closed_form_spectrum,
    enumerate_partition,
    iterate_partial_partition,
    log_dominant_eigenvalue,
    minor_ratio,
    numeric_dominant_eigenvalue,
    partition_function,
    trace_power_partition,
)
from potts1d.thermo import LARGE_EXPONENT_THRESHOLD
from potts1d.transfer import DENSE_EXPONENT_LIMIT, MAX_DENSE_Q

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
    assert spectrum.lambda_minor == pytest.approx(-3.0189227108243455, rel=1e-14)
    assert spectrum.lambda_max == pytest.approx(6.941428057385298, rel=1e-14)
    assert spectrum.log_lambda_max == pytest.approx(math.log(spectrum.lambda_max), rel=1e-14)

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
    # both branch formulas evaluated exactly at the switch point
    x = LARGE_EXPONENT_THRESHOLD
    u = x / 2.0
    for q in (2, 3, 7, 21):
        low = -u + math.log1p((q - 1) * math.exp(x))
        high = u + math.log(q - 1) + math.log1p(math.exp(-x) / (q - 1))
        assert low == pytest.approx(high, rel=1e-12)
        # the implementation agrees with both on either side of the switch
        eps = 1e-9
        for uu in (u - eps, u + eps):
            params = ModelParams(q, 0.0, uu)
            got = log_dominant_eigenvalue(params, ThermoState(1.0))
            assert got == pytest.approx(low, rel=1e-9)


def test_log_dominant_eigenvalue_never_overflows():
    llm = log_dominant_eigenvalue(ModelParams(3, 12.0, 3.0), ThermoState(30.0))
    assert math.isfinite(llm)
    assert llm == pytest.approx(363.0 + math.log(2.0), rel=1e-12)
    llm = log_dominant_eigenvalue(ModelParams(16, -12.0, 3.0), ThermoState(30.0))
    assert llm == pytest.approx(357.0, rel=1e-12)


def test_dominance_strict():
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = int(rng.integers(2, 12))
        params = ModelParams(q, float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3)))
        state = ThermoState(float(rng.uniform(0.05, 3.0)))
        if abs(params.h + params.J * state.beta) > 15.0:
            continue
        rho = minor_ratio(params, state)
        assert abs(rho) < 1.0
        spectrum = closed_form_spectrum(params, state)
        assert abs(spectrum.lambda_minor) < spectrum.lambda_max


def test_minor_ratio_matches_direct_quotient():
    rng = np.random.default_rng(23)
    for _ in range(50):
        q = int(rng.integers(2, 9))
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.1, 2.5)))
        spectrum = closed_form_spectrum(params, state)
        assert minor_ratio(params, state) == pytest.approx(
            spectrum.lambda_minor / spectrum.lambda_max, rel=1e-12, abs=1e-15
        )


def test_power_iteration_all_ones():
    m = build_matrix(ModelParams(2, 0.0, 0.0), ThermoState(1.0))
    assert numeric_dominant_eigenvalue(m, tol=1e-12) == pytest.approx(2.0, rel=1e-14)


def test_power_iteration_matches_closed_form():
    for params, state in (
        (ModelParams(3, 1.0, 0.5), ThermoState(0.7)),
        (ModelParams(5, -2.0, 1.0), ThermoState(0.3)),
        (ModelParams(7, 3.0, -1.0), ThermoState(2.0)),
    ):
        lam = numeric_dominant_eigenvalue(build_matrix(params, state), tol=1e-12)
        assert lam == pytest.approx(closed_form_spectrum(params, state).lambda_max, rel=1e-12)


def test_power_iteration_convergence_error():
    m = build_matrix(*POINT)
    with pytest.raises(ConvergenceError, match="did not converge"):
        numeric_dominant_eigenvalue(m, tol=1e-12, max_iter=1)
    with pytest.raises(ValueError):
        numeric_dominant_eigenvalue(m, tol=0.0)


def test_partial_partition_uniform_step():
    v = PartialPartitionVector.uniform(2)
    out = iterate_partial_partition(v, ModelParams(2, 0.0, 0.0), ThermoState(1.0))
    np.testing.assert_allclose(out.components, 2.0, rtol=1e-15)

    v3 = PartialPartitionVector.uniform(3)
    out3 = iterate_partial_partition(v3, *POINT)
    expected = math.exp(-1.2) + 2 * math.exp(1.2)
    np.testing.assert_allclose(out3.components, expected, rtol=1e-14)
    assert expected == pytest.approx(6.941428057385297, rel=1e-15)


def test_partial_partition_scaled_accumulation():
    # from the uniform start the accumulated log scale is N * log(lambda_max)
    params, state = POINT
    llm = log_dominant_eigenvalue(params, state)
    v = PartialPartitionVector.uniform(3)
    n = 40
    for _ in range(n):
        v = iterate_partial_partition(v, params, state, scaled=True)
    np.testing.assert_allclose(v.components, 1.0, rtol=1e-13)
    assert v.log_scale == pytest.approx(n * llm, rel=1e-10)


def test_partial_partition_overflow_directs_to_scaled():
    params = ModelParams(2, 0.0, 200.0)  # offdiag e^200, still materializable
    state = ThermoState(1.0)
    v = PartialPartitionVector.uniform(2)
    with pytest.raises(OverflowError, match="scaled"):
        for _ in range(10):
            v = iterate_partial_partition(v, params, state, scaled=False)
    # the scaled form walks the same chain without trouble
    v = PartialPartitionVector.uniform(2)
    for _ in range(10):
        v = iterate_partial_partition(v, params, state, scaled=True)
    assert math.isfinite(v.log_scale)


def test_partition_function_unit_weights():
    # all weights are 1, so Z = q^N
    lnz = partition_function(ModelParams(2, 0.0, 0.0), ThermoState(1.0), 3)
    assert lnz == pytest.approx(math.log(8.0), rel=1e-14)


def test_partition_function_n1_is_trace():
    rng = np.random.default_rng(29)
    for _ in range(20):
        q = int(rng.integers(2, 9))
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.1, 2.0)))
        u = params.h + params.J * state.beta
        assert partition_function(params, state, 1) == pytest.approx(
            math.log(q) - u, rel=1e-12
        )


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


def test_partition_function_validates_n():
    with pytest.raises(ValueError):
        partition_function(POINT[0], POINT[1], 0)


def test_dense_routes_cap_q_before_allocating():
    # at q = 10^5 a dense q x q matrix would take 80 GB
    for q in (MAX_DENSE_Q + 1, 100_000):
        params, state = ModelParams(q, 1.0, 0.0), ThermoState(1.0)
        vector = PartialPartitionVector.uniform(q)
        routes = (
            lambda: build_matrix(params, state).to_dense(),
            lambda: numeric_dominant_eigenvalue(build_matrix(params, state)),
            lambda: iterate_partial_partition(vector, params, state),
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
