import math

import numpy as np
import pytest

from potts1d import (
    ModelParams,
    ThermoState,
    entropy,
    fd_verify,
    free_energy,
    heat_capacity,
    magnetization,
    susceptibility,
    sweep_1d,
    thermo_point,
)
from potts1d.sweep import GridSpec
from potts1d.thermo import coupling_exponent, spectrum_core, thermo_arrays
from reference import magnetization_zero_point

POINT = (ModelParams(3, 1.0, 0.5), ThermoState(0.7))
EPS = float(np.finfo(float).eps)


def _fd_first(fn, x, eps):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


def _fd_second(fn, x, eps):
    return (fn(x + eps) - 2.0 * fn(x) + fn(x - eps)) / (eps * eps)


def _random_points(seed, count, q_hi=12):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = int(rng.integers(2, q_hi))
        J = float(rng.uniform(-3, 3))
        h = float(rng.uniform(-2, 2))
        beta = float(rng.uniform(0.2, 3.0))
        if abs(h + J * beta) <= 15.0:
            out.append((ModelParams(q, J, h), ThermoState(beta)))
    return out


def test_stable_core_shape():
    params, state = POINT
    core = spectrum_core(params.q, coupling_exponent(params.J, params.h, state.beta))
    assert core.t == pytest.approx(2.4 + math.log(2.0), rel=1e-15)
    assert 0.0 < core.r < 1.0
    assert core.r == pytest.approx(0.9566091862622205, rel=1e-14)
    assert core.one_minus_r == pytest.approx(1.0 - core.r, rel=1e-12)
    assert core.two_r_minus_one == pytest.approx(2.0 * core.r - 1.0, rel=1e-12)


def test_stable_core_midpoint():
    # r = 1/2 exactly when x = -ln(q-1)
    for q in (2, 3, 5, 17):
        h = -0.5 * math.log(q - 1)
        core = spectrum_core(q, coupling_exponent(0.0, h, 1.0))
        assert core.r == pytest.approx(0.5, abs=1e-15)


def test_free_energy_trivial():
    assert free_energy(ModelParams(2, 0.0, 0.0), ThermoState(1.0)) == pytest.approx(
        -math.log(2.0), rel=1e-14
    )
    assert free_energy(ModelParams(3, 0.0, 0.0), ThermoState(2.0)) == pytest.approx(
        -0.5 * math.log(3.0), rel=1e-14
    )


def test_free_energy_reference_point():
    assert free_energy(*POINT) == pytest.approx(-2.7678678932972907, rel=1e-13)


def test_free_energy_shares_spectrum_code_path():
    # same code path as the kernel's spectrum, so equality is exact
    for params, state in _random_points(31, 25):
        core = spectrum_core(params.q, coupling_exponent(params.J, params.h, state.beta))
        assert free_energy(params, state) == -core.log_lambda_max / state.beta


def test_entropy_uniform_chain():
    for beta in (0.3, 1.0, 4.0):
        assert entropy(ModelParams(4, 0.0, 0.0), ThermoState(beta)) == pytest.approx(
            math.log(4.0), rel=1e-14
        )


def test_entropy_reference_point():
    # oracle: central finite difference of the free energy in T
    params, state = POINT
    T = state.T
    eps = 1e-5 * max(1.0, T)
    fd = -_fd_first(lambda t: free_energy(params, ThermoState(1.0 / t)), T, eps)
    s = entropy(params, state)
    assert s == pytest.approx(fd, rel=1e-6)
    assert s == pytest.approx(1.2982546645409947, rel=1e-13)


def test_entropy_low_temperature_plateau():
    # The paper's T -> 0 limits, h + ln(q-1) for J > 0 (negative for the
    # first point) and -h for J < 0, reached exactly.  An entropy formed as
    # ln(lambda_max) - J beta (2r - 1) cancels two terms of size |J|/T, and
    # was 17 % off at T = 1e-15 on the first point.
    for q, J, h in ((7, 5.3, -3.0), (3, 1.0, 0.1), (3, 1.0, 0.0), (17, -5.3, 0.37)):
        for T in (1e-3, 1e-4, 1e-8, 1e-12, 1e-15):
            s = entropy(ModelParams(q, J, h), ThermoState.from_temperature(T))
            assert s == (h + math.log(q - 1) if J > 0.0 else -h), (q, J, h, T)
    assert entropy(ModelParams(7, 5.3, -3.0), ThermoState(1.0 / 1e-3)) < 0.0


def test_magnetization_symmetric_zero():
    assert magnetization(ModelParams(2, 0.0, 0.0), ThermoState(1.0)) == 0.0


def test_magnetization_reference_point():
    params, state = POINT
    eps = 1e-5 * max(1.0, abs(params.h))
    fd = -_fd_first(
        lambda hh: free_energy(ModelParams(params.q, params.J, hh), state), params.h, eps
    )
    m = magnetization(params, state)
    assert m == pytest.approx(fd, rel=1e-6)
    assert m == pytest.approx(1.3045976750349157, rel=1e-13)


def test_magnetization_bounded_and_monotone():
    params = ModelParams(4, 0.3, 0.0)
    state = ThermoState(0.9)
    values = []
    for h in np.linspace(-2.0, 2.0, 41):
        m = magnetization(ModelParams(4, 0.3, float(h)), state)
        assert abs(m) < 1.0 / state.beta
        values.append(m)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_magnetization_zero_point_values():
    assert magnetization_zero_point(ModelParams(2, 0.0, 0.0), ThermoState(1.0)) == 0.0
    hstar = magnetization_zero_point(ModelParams(5, 1.2, 0.0), ThermoState(0.8))
    assert hstar == pytest.approx(-1.6531471805599454, rel=1e-14)
    # oracle: bisection root of the magnetization in h
    state = ThermoState(0.8)

    def m_of(h):
        return magnetization(ModelParams(5, 1.2, h), state)

    lo, hi = -5.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if m_of(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert hstar == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_magnetization_vanishes_at_zero_point():
    for params, state in _random_points(37, 20):
        hstar = magnetization_zero_point(params, state)
        m = magnetization(ModelParams(params.q, params.J, hstar), state)
        assert abs(m) < 1e-12
        chi = susceptibility(ModelParams(params.q, params.J, hstar), state)
        assert chi == pytest.approx(1.0 / state.beta, rel=1e-14)


def test_susceptibility_values():
    assert susceptibility(ModelParams(2, 0.0, 0.0), ThermoState(1.0)) == pytest.approx(
        1.0, rel=1e-15
    )
    params, state = POINT
    eps = 1e-4 * max(1.0, abs(params.h))
    fd = -_fd_second(
        lambda hh: free_energy(ModelParams(params.q, params.J, hh), state), params.h, eps
    )
    chi = susceptibility(params, state)
    assert chi == pytest.approx(fd, rel=1e-5)
    assert chi == pytest.approx(0.23718886297687336, rel=1e-13)
    # max value 1/beta is forced at the zero-magnetization field
    state2 = ThermoState(0.5)
    p2 = ModelParams(9, -0.7, 0.0)
    h2 = magnetization_zero_point(p2, state2)
    assert susceptibility(ModelParams(9, -0.7, h2), state2) == pytest.approx(2.0, rel=1e-14)


def test_susceptibility_positive_and_capped():
    for params, state in _random_points(41, 30):
        chi = susceptibility(params, state)
        assert chi > 0.0
        assert chi * state.beta <= 1.0 + 1e-15
        hstar = magnetization_zero_point(params, state)
        if abs(params.h - hstar) > 1e-2:
            assert chi * state.beta < 1.0


def test_heat_capacity_values():
    assert heat_capacity(ModelParams(5, 0.0, 1.3), ThermoState(0.7)) == 0.0
    params, state = POINT
    T = state.T
    eps = 1e-4 * max(1.0, T)
    fd = -T * _fd_second(lambda t: free_energy(params, ThermoState(1.0 / t)), T, eps)
    c = heat_capacity(params, state)
    assert c == pytest.approx(fd, rel=1e-5)
    assert c == pytest.approx(0.08135578000106754, rel=1e-13)


def test_heat_capacity_matches_direct_formula():
    # J^2 beta^3 chi equals 4 J^2 beta^2 r (1 - r) wherever both are normal
    for params, state in _random_points(43, 30):
        core = spectrum_core(params.q, coupling_exponent(params.J, params.h, state.beta))
        direct = 4.0 * params.J**2 * state.beta**2 * core.r * core.one_minus_r
        assert heat_capacity(params, state) == pytest.approx(direct, rel=1e-13, abs=1e-300)


def test_heat_capacity_nonnegative_and_zero_iff_j_zero():
    for params, state in _random_points(47, 30):
        c = heat_capacity(params, state)
        if params.J == 0.0:
            assert c == 0.0
        else:
            assert c > 0.0


def test_heat_capacity_single_interior_peak_in_temperature():
    # antiferromagnetic parameters with a known bump below T = 2
    params = ModelParams(20, -0.66, 4.0)
    ts = np.linspace(0.001, 2.0, 400)
    cs = [heat_capacity(params, ThermoState(1.0 / float(t))) for t in ts]
    k = int(np.argmax(cs))
    assert 0 < k < len(cs) - 1
    # unimodal on the grid: rises to the peak, falls after it
    assert all(b >= a for a, b in zip(cs[: k + 1], cs[1 : k + 1]))
    assert all(b <= a for a, b in zip(cs[k:], cs[k + 1 :]))


def test_algebraic_identity_c_equals_j2b3_chi():
    for params, state in _random_points(53, 40):
        chi = susceptibility(params, state)
        c = heat_capacity(params, state)
        ref = params.J**2 * state.beta**3 * chi
        assert abs(c - ref) <= 1e-12 * max(abs(c), abs(ref))


def test_entropy_beta_derivative_identity():
    # S = beta^2 df/dbeta
    for params, state in _random_points(59, 25):
        beta = state.beta
        eps = 1e-5 * max(1.0, beta)
        fd = _fd_first(lambda b: free_energy(params, ThermoState(b)), beta, eps)
        s = entropy(params, state)
        assert s == pytest.approx(beta * beta * fd, rel=1e-5, abs=1e-8)


# (q, J, h): both signs of J, |J| up to 12, q from 2 to 64
LIMIT_POINTS = [(2, 1.0, 0.3), (3, -0.5, 1.2), (16, 12.0, -2.0), (7, -12.0, 0.5), (64, 0.7, -3.0), (5, -3.3, -2.5)]

# (q, h, ln lambda_max(h)): with J = 0 the entropy is ln lambda_max(h) at
# every temperature, so it is also the limit at both ends
J_ZERO_ENTROPY = [(6, 0.0, math.log(6.0)), (3, 0.5, 1.361994804058251)]


def _assert_j_zero_entropy(state):
    for q, h, log_lambda in J_ZERO_ENTROPY:
        assert entropy(ModelParams(q, 0.0, h), state) == pytest.approx(log_lambda, rel=1e-14), (q, h)


def test_high_temperature_limits_of_all_five_functions():
    # At beta -> 0 the bond exponent u = h + J beta tends to h.  With
    # L(u) = ln lambda_max(u), dL/du = 2r - 1 and d(2r - 1)/du, d4r(1-r)/du
    # are at most 1 in size, so each limit holds to first order in
    # |J| beta; C = (J beta)^2 4r(1-r) is second order.
    beta = 1e-8
    for q, J, h in LIMIT_POINTS:
        p = thermo_point(ModelParams(q, J, h), ThermoState(beta))
        tol = abs(J) * beta
        log_lambda = math.log(math.exp(-h) + (q - 1) * math.exp(h))
        tanh = math.tanh(h + 0.5 * math.log(q - 1))
        assert beta * p.f == pytest.approx(-log_lambda, abs=tol), (q, J, h)
        assert p.S == pytest.approx(log_lambda, abs=2.0 * tol), (q, J, h)
        assert beta * p.m == pytest.approx(tanh, abs=tol), (q, J, h)
        assert beta * p.chi == pytest.approx(1.0 - tanh * tanh, abs=tol), (q, J, h)
        assert 0.0 < p.C <= tol * tol, (q, J, h)
    _assert_j_zero_entropy(ThermoState(beta))


def test_low_temperature_limits_of_all_five_functions():
    # At T -> 0 the chain orders: t = 2u + ln(q-1) goes to +inf for J > 0
    # and to -inf for J < 0, saturating the sigmoid either way.
    # f = -|J| - (h + ln(q-1)) T for J > 0 and -|J| + h T for J < 0, so f
    # is first order in T; the other limits have exponentially small
    # corrections, and the tolerance T is far above the rounding of
    # u = h + J beta (about eps |J| / T).  S is exact in h, so only the
    # rounding of h + ln(q-1) is left in it.
    T = 1e-6
    state = ThermoState.from_temperature(T)
    for q, J, h in LIMIT_POINTS:
        p = thermo_point(ModelParams(q, J, h), state)
        assert p.f == pytest.approx(-abs(J), abs=(abs(h) + math.log(q - 1) + 1.0) * T), (q, J, h)
        s_tol = 4.0 * EPS * max(abs(h), math.log(q - 1))
        assert p.S == pytest.approx(h + math.log(q - 1) if J > 0.0 else -h, rel=0.0, abs=s_tol), (q, J, h)
        assert state.beta * p.m == pytest.approx(math.copysign(1.0, J), abs=T), (q, J, h)
        assert 0.0 <= p.chi <= T and 0.0 <= p.C <= T, (q, J, h)
    _assert_j_zero_entropy(state)


def test_fd_verify_reference_point():
    report = fd_verify(*POINT)
    assert report.passed
    for err in report.errors().values():
        assert err < 1e-5


def test_fd_verify_degenerate_quantities():
    # J = 0 and h = 0 at q = 2: m and C are identically zero or constant,
    # so their reported errors sit at rounding level
    report = fd_verify(ModelParams(2, 0.0, 0.0), ThermoState(1.0))
    assert report.passed
    assert report.magnetization_error < 1e-10
    # second differences divide rounding noise by eps^2, so "zero" shows up
    # at the 1e-8 scale rather than at double epsilon
    assert report.heat_capacity_error < 1e-7


def test_fd_verify_antiferromagnetic_point():
    report = fd_verify(ModelParams(17, -2.0, 1.0), ThermoState(2.0))
    assert report.passed


def test_fd_verify_low_temperature_and_small_beta_points():
    # C at low T, where an absolute T step of 1e-4 was too coarse, and chi at
    # small beta, where an h step of 1e-4 was too fine against the rounding
    # of f = -ln(lambda_max)/beta
    for q, J, h, beta in ((3, -0.09599390645039385, 2.670184529861439, 21.758793554551666),
                          (46, 0.645, 2.11, 0.00114)):
        report = fd_verify(ModelParams(q, J, h), ThermoState(beta))
        assert report.passed, report


def test_fd_verify_passes_over_the_sampled_domain():
    # q 2..64, |J| <= 12, |h| <= 3, beta log-uniform in [1e-3, 30], as in verify
    rng = np.random.default_rng(2026)
    for _ in range(3000):
        q = int(rng.integers(2, 65))
        J, h = float(rng.uniform(-12, 12)), float(rng.uniform(-3, 3))
        beta = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
        report = fd_verify(ModelParams(q, J, h), ThermoState(beta))
        assert report.passed, (q, J, h, beta, report)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: f is flat at a huge beta, and the second T-difference divided by the step twice gives "
    "an infinite C error although C = 0 is right (CHANGES.md FOUND line on thermo.fd_verify C; "
    "ROADMAP item 2)"))
def test_fd_verify_heat_capacity_at_a_huge_beta():
    params, state = ModelParams(2, 3.0, 0.0), ThermoState(7.930747755350154e+284)
    assert heat_capacity(params, state) == 0.0  # right
    report = fd_verify(params, state)
    assert math.isfinite(report.heat_capacity_error)
    assert report.passed, report


def test_derivative_chain_on_random_grid():
    # every closed form tracks its finite-difference counterpart
    for params, state in _random_points(61, 50):
        report = fd_verify(params, state)
        assert report.entropy_error < 1e-6
        assert report.magnetization_error < 1e-6
        assert report.susceptibility_error < 1e-5
        assert report.heat_capacity_error < 1e-5


def test_q_ordering_of_free_energy():
    # f strictly decreases with q at fixed (beta, h, J)
    grid = GridSpec("beta", 0.1, 30.0, 60)
    for beta in grid.points():
        state = ThermoState(float(beta))
        previous = None
        for q in (3, 4, 5, 6, 7, 8, 9, 21):
            f = free_energy(ModelParams(q, 5.15, -3.0), state)
            if previous is not None:
                assert f < previous
            previous = f


def test_thermo_point_consistency():
    params, state = POINT
    pt = thermo_point(params, state)
    assert pt.f == free_energy(params, state)
    assert pt.S == entropy(params, state)
    assert pt.m == magnetization(params, state)
    assert pt.chi == susceptibility(params, state)
    assert pt.C == heat_capacity(params, state)


def test_extreme_exponent_point_is_finite():
    # beta = 30, J = 12, h = 3 sits far beyond exp(2(h+J*beta)) overflow
    params = ModelParams(3, 12.0, 3.0)
    state = ThermoState(30.0)
    pt = thermo_point(params, state)
    for v in (pt.f, pt.S, pt.m, pt.chi, pt.C):
        assert math.isfinite(v)
    assert pt.chi > 0.0
    assert pt.m == pytest.approx(1.0 / 30.0, rel=1e-14)


def test_heat_capacity_off_the_product_path_against_mpmath():
    # beta**3 underflows while J*beta = 1e30 and u = h + J*beta = 0 (the old
    # product J**2 * beta**3 * chi gave 0 instead of (J*beta)^2); J**2 is
    # subnormal; J**2 overflows while beta**3 underflows (the old C was nan)
    mpmath = pytest.importorskip("mpmath")
    cases = ((2, 1e150, -(1e150 * 1e-120), 1e-120), (5, 1e-160, 0.3, 2.0), (3, 1e250, 0.5 - 1e250 * 1e-110, 1e-110))
    for q, J, h, beta in cases:
        point = thermo_point(ModelParams(q, J, h), ThermoState(beta))
        with mpmath.workdps(50):
            u = mpmath.mpf(h) + mpmath.mpf(J * beta)  # the kernel rounds J*beta once
            a = (q - 1) * mpmath.exp(2 * u)
            ref = float(4 * (mpmath.mpf(J) * mpmath.mpf(beta)) ** 2 * a / (1 + a) ** 2)
        assert point.C == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert math.isfinite(point.chi)
    # J = 0 with beta**3 = inf: the product was 0 * inf = nan
    assert thermo_point(ModelParams(3, 0.0, 0.5), ThermoState(1e200)).C == 0.0


def test_susceptibility_keeps_a_subnormal_value():
    # 60-digit mpmath at the rounded u: chi = 4.8645e-322, which rounds to 98 subnormal ulps
    chi = thermo_arrays(63, -0.021633182822038483, -377.2451221538436, 1.0875887947509836e-4).chi
    assert abs(chi - 4.84e-322) <= 5e-324


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: C = 0 where chi underflows but C = (J beta)^2 4r(1-r) is a normal double, because "
    "J^2 beta^3 chi is kept wherever its factors are normal (CHANGES.md FOUND line on thermo.thermo_arrays "
    "C = 0; ROADMAP item 3).  The fix must keep acceptance criterion 7 (C = J^2 beta^3 chi at a subnormal chi)"))
def test_heat_capacity_where_chi_underflows():
    # u = 380 exactly; 60-digit mpmath gives C = 3.4534545508855545e-300
    point = thermo_point(ModelParams(2, 1e15, -999999999999620.0), ThermoState(1.0))
    assert point.C == pytest.approx(3.4534545508855545e-300, rel=1e-12, abs=0.0)


def test_heat_capacity_keeps_the_product_where_its_factors_are_normal():
    for q, J, h, beta in ((3, 1.0, 0.5, 0.7), (64, -12.0, 3.0, 30.0), (2, 0.0, 1.0, 1e-3), (7, 1e-5, -2.0, 1e-3)):
        point = thermo_point(ModelParams(q, J, h), ThermoState(beta))
        assert point.C == J**2 * beta**3 * point.chi
