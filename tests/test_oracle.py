import itertools
import math
import warnings

import numpy as np
import pytest

from potts1d import ModelParams, ThermoState, free_energy, three_route_report
from potts1d.oracle import (
    MAX_ENUMERATED_CONFIGS,
    _BLOCK,
    _bond_count_histogram,
    enumerate_partition,
    trace_power_partition,
)
from potts1d.transfer import partition_function
from reference import SpinConfig, closed_form_spectrum, config_energy, finite_N_free_energy

POINT = (ModelParams(3, 1.0, 0.5), ThermoState(0.7))


def _brute_force_lnz(params, state, n):
    """Reference enumeration that goes through config_energy one chain at a time."""
    z = 0.0
    for sites in itertools.product(range(1, params.q + 1), repeat=n):
        z += math.exp(-state.beta * config_energy(SpinConfig(sites), params, state))
    return math.log(z)


def test_enumeration_unit_weights():
    lnz = enumerate_partition(ModelParams(2, 0.0, 0.0), ThermoState(1.0), 3)
    assert lnz == pytest.approx(math.log(8.0), rel=1e-14)


def test_enumeration_four_term_hand_sum():
    # q=2, N=2: two aligned chains of weight e^{-2w} and two anti-aligned
    # of weight e^{+2w}, with w = beta*J + h = 1
    params = ModelParams(2, 1.0, 0.0)
    state = ThermoState(1.0)
    expected = math.log(2 * math.exp(-2.0) + 2 * math.exp(2.0))
    assert expected == pytest.approx(2.711297108477755, rel=1e-15)
    assert enumerate_partition(params, state, 2) == pytest.approx(expected, rel=1e-13)


def _small_chains(limit):
    """Every (q, N) with N >= 2 and q^N <= limit."""
    q = 2
    while q * q <= limit:
        n = 2
        while q**n <= limit:
            yield q, n
            n += 1
        q += 1


def test_enumeration_every_small_chain_against_config_energy():
    rng = np.random.default_rng(23)
    chains = list(_small_chains(5000))
    assert {(2, 12), (17, 3), (70, 2)} <= set(chains) and (71, 2) not in chains
    for q, n in chains:
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-1.5, 1.5)))
        state = ThermoState(float(rng.uniform(0.2, 2.0)))
        assert enumerate_partition(params, state, n) == pytest.approx(
            _brute_force_lnz(params, state, n), rel=1e-12
        ), (q, n)


def test_bond_count_histogram_counts_every_chain_once():
    for q, n in _small_chains(700):
        expected = np.zeros(n + 1, dtype=np.int64)
        for sites in itertools.product(range(q), repeat=n):
            expected[sum(sites[i] != sites[(i + 1) % n] for i in range(n))] += 1
        assert np.array_equal(_bond_count_histogram(q, n), expected), (q, n)


def test_bond_count_histogram_is_the_cycle_colouring_count():
    # Choosing which k of the N bonds are unequal leaves a k-cycle to be
    # coloured properly: C(N, k) * ((q-1)^k + (-1)^k (q-1)) chains, exactly
    chains = [c for c in _small_chains(MAX_ENUMERATED_CONFIGS) if c[0] <= 64] + [(1414, 2)]
    assert {(2, 20), (3, 13), (64, 3)} <= set(chains)
    for q, n in chains:
        expected = [math.comb(n, k) * ((q - 1) ** k + (-1) ** k * (q - 1)) for k in range(n + 1)]
        assert _bond_count_histogram(q, n).tolist() == expected, (q, n)


@pytest.mark.parametrize("q, n", [(2, 20), (3, 13), (1414, 2)])
def test_enumeration_at_the_cap_edge(q, n):
    assert q**n <= MAX_ENUMERATED_CONFIGS < (q + 1) ** n
    assert int(_bond_count_histogram(q, n).sum()) == q**n
    params, state = ModelParams(q, 0.83, -0.41), ThermoState(1.7)
    assert enumerate_partition(params, state, n) == pytest.approx(
        partition_function(params, state, n), rel=1e-12
    )


def test_enumeration_uses_no_transfer_matrix_route(monkeypatch):
    import potts1d.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration called a transfer-matrix route")

    params, state = POINT
    expected = partition_function(params, state, 9)
    for name in ("build_matrix", "coupling_exponent", "partition_function"):
        monkeypatch.setattr(oracle, name, refuse)
    assert enumerate_partition(params, state, 9) == pytest.approx(expected, rel=1e-12)


def test_enumeration_near_the_dense_limit_with_odd_chains():
    # |h + J*beta| close to 300: the weights span e^{+-300 N}, and for odd N
    # at u > 0 the eigen-sum cancels (q-1) lambda_minor^N against lambda_max^N
    for u in (299.5, -299.5):
        for q, n in ((2, 3), (2, 13), (3, 5), (3, 13), (7, 7)):
            params, state = ModelParams(q, 2.0, u - 2.0 * 1.25), ThermoState(1.25)
            assert enumerate_partition(params, state, n) == pytest.approx(
                partition_function(params, state, n), rel=1e-12
            ), (u, q, n)


def test_enumeration_against_config_energy_route():
    rng = np.random.default_rng(19)
    for _ in range(10):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-1.5, 1.5)))
        state = ThermoState(float(rng.uniform(0.2, 2.0)))
        assert enumerate_partition(params, state, n) == pytest.approx(
            _brute_force_lnz(params, state, n), rel=1e-12
        )


def test_enumeration_matches_eigen_route():
    params, state = POINT
    assert enumerate_partition(params, state, 4) == pytest.approx(
        partition_function(params, state, 4), rel=1e-12
    )


def test_enumeration_cap():
    with pytest.raises(ValueError, match="2000000"):
        enumerate_partition(ModelParams(3, 1.0, 0.0), ThermoState(1.0), 14)
    assert 3**14 > MAX_ENUMERATED_CONFIGS
    # q**N once went into the message: past 4,300 digits its text conversion
    # raised, and at a large N forming it took longer than any enumeration
    for q, N in ((3, 10**4), (2, 21), (2**63 - 1, 10**9)):
        with pytest.raises(ValueError, match=rf"^q\^N at q={q}, N={N} exceeds the enumeration cap of 2000000 "):
            enumerate_partition(ModelParams(q, 1.0, 0.0), ThermoState(1.0), N)


def test_enumeration_needs_two_sites():
    with pytest.raises(ValueError):
        enumerate_partition(POINT[0], POINT[1], 1)


def test_enumeration_spans_chunk_boundaries():
    # 3^12 chains visit 2 * 3^10 = 118098 with the first two spins fixed: 81
    # heads of 2 * 3^6 = 1458 bytes (2 * 3^7 exceeds an eighth of a block),
    # 22 heads to a block, so three full blocks and a last one of 15 heads
    head = 2 * 3**6
    assert head <= _BLOCK // 8 < 3 * head
    per_block, heads = _BLOCK // head, 2 * 3**10 // head
    assert heads // per_block == 3 and heads % per_block == 15
    params = ModelParams(3, 0.31, -0.17)
    state = ThermoState(1.1)
    assert enumerate_partition(params, state, 12) == pytest.approx(
        partition_function(params, state, 12), rel=1e-12
    )


def test_trace_power_n1_is_trace():
    rng = np.random.default_rng(43)
    for _ in range(10):
        q = int(rng.integers(2, 8))
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.2, 2.0)))
        u = params.h + params.J * state.beta
        assert trace_power_partition(params, state, 1) == pytest.approx(
            math.log(q) - u, rel=1e-13
        )


def test_trace_power_all_ones():
    lnz = trace_power_partition(ModelParams(2, 0.0, 0.0), ThermoState(1.0), 5)
    assert lnz == pytest.approx(math.log(32.0), rel=1e-14)


def test_trace_power_matches_enumeration():
    params, state = POINT
    assert trace_power_partition(params, state, 4) == pytest.approx(
        enumerate_partition(params, state, 4), rel=1e-12
    )


def test_trace_power_identity_against_eigen_sum():
    rng = np.random.default_rng(47)
    cases = [(*POINT, 40)]  # a 40-step chain, rescaled at every product
    for _ in range(40):
        q = int(rng.integers(2, 7))
        n = int(rng.integers(1, 13))
        params = ModelParams(q, float(rng.uniform(-4, 4)), float(rng.uniform(-3, 3)))
        state = ThermoState(float(rng.uniform(0.1, 2.0)))
        cases.append((params, state, n))
    for params, state, n in cases:
        if abs(params.h + params.J * state.beta) > 10.0:
            continue
        a = trace_power_partition(params, state, n)
        b = partition_function(params, state, n)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_trace_power_survives_large_exponents():
    # entries up to e^{120}, and e^{200} whose tenth power overflows unscaled:
    # the per-step rescale keeps the product bounded
    cases = [(ModelParams(3, 60.0, 0.0), ThermoState(2.0), 12)]
    cases += [(ModelParams(2, 0.0, h), ThermoState(1.0), n) for h in (200.0, -200.0) for n in (10, 11)]
    for params, state, n in cases:
        lnz = trace_power_partition(params, state, n)
        assert lnz == pytest.approx(partition_function(params, state, n), rel=1e-12), (params, n)


def test_finite_n_free_energy_exact_for_unit_weights():
    params = ModelParams(2, 0.0, 0.0)
    state = ThermoState(1.0)
    for n in (2, 3, 5, 9):
        assert finite_N_free_energy(params, state, n) == pytest.approx(
            -math.log(2.0), rel=1e-14
        )


def test_finite_n_free_energy_converges_within_bound():
    params, state = POINT
    f = free_energy(params, state)
    f12 = finite_N_free_energy(params, state, 12)
    assert abs(f12 - f) <= math.log(3) / (0.7 * 12)
    assert f12 == pytest.approx(-2.767878796870222, rel=1e-13)


def test_finite_n_gap_shrinks_when_n_doubles():
    rng = np.random.default_rng(53)
    for _ in range(25):
        q = int(rng.integers(2, 6))
        params = ModelParams(q, float(rng.uniform(-3, 3)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.2, 2.0)))
        if abs(params.h + params.J * state.beta) > 10.0:
            continue
        f = free_energy(params, state)
        gaps = [abs(finite_N_free_energy(params, state, n) - f) for n in (4, 8, 16)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_finite_n_even_bound_holds():
    # for even N the correction term is positive and below ln(q)
    rng = np.random.default_rng(59)
    for _ in range(40):
        q = int(rng.integers(2, 6))
        params = ModelParams(q, float(rng.uniform(-4, 4)), float(rng.uniform(-3, 3)))
        state = ThermoState(float(rng.uniform(0.1, 2.5)))
        if abs(params.h + params.J * state.beta) > 10.0:
            continue
        f = free_energy(params, state)
        for n in (2, 4, 6, 8):
            gap = abs(finite_N_free_energy(params, state, n) - f)
            assert gap <= math.log(q) / (state.beta * n)


def test_finite_n_odd_chain_exact_expansion():
    # the gap equals |log(1 + (q-1) rho^N)| / (beta N) for every N, which is
    # the exact statement that also covers negative rho with odd N
    params = ModelParams(2, 1.0, 1.0)
    state = ThermoState(2.0)
    f = free_energy(params, state)
    spectrum = closed_form_spectrum(params, state)
    rho = spectrum.lambda_minor / spectrum.lambda_max
    for n in (3, 5, 7):
        gap = finite_N_free_energy(params, state, n) - f
        expected = -math.log1p((params.q - 1) * rho**n) / (state.beta * n)
        assert gap == pytest.approx(expected, rel=1e-10)


def test_three_route_report():
    params, state = POINT
    report = three_route_report(params, state, 6)
    assert report.max_relative_discrepancy < 1e-12
    assert report.ln_Z_enumeration == pytest.approx(report.ln_Z_eigen, rel=1e-12)
    assert report.ln_Z_trace_power == pytest.approx(report.ln_Z_eigen, rel=1e-12)
    assert report.finite_N_free_energy == pytest.approx(
        -report.ln_Z_eigen / (state.beta * 6), rel=1e-14
    )
    # discrepancy definition: worst pairwise relative difference
    vals = (report.ln_Z_enumeration, report.ln_Z_trace_power, report.ln_Z_eigen)
    worst = max(
        abs(a - b) / max(abs(a), abs(b)) for a, b in itertools.combinations(vals, 2)
    )
    assert report.max_relative_discrepancy == pytest.approx(worst, rel=1e-12, abs=1e-18)


def test_three_route_report_evaluates_the_eigen_route_once(monkeypatch):
    import potts1d.oracle as oracle

    calls = []

    def counting(*args):
        calls.append(args)
        return partition_function(*args)

    monkeypatch.setattr(oracle, "partition_function", counting)
    params, state = POINT
    report = three_route_report(params, state, 6)
    assert calls == [(params, state, 6)]
    assert report.finite_N_free_energy == finite_N_free_energy(params, state, 6)


def test_three_route_agreement_grid():
    rng = np.random.default_rng(61)
    for q in (2, 3, 4, 5):
        for n in (2, 5, 8):
            params = ModelParams(q, float(rng.uniform(-3, 3)), float(rng.uniform(-2, 2)))
            state = ThermoState(float(rng.uniform(0.2, 2.0)))
            if abs(params.h + params.J * state.beta) > 10.0:
                continue
            report = three_route_report(params, state, n)
            assert report.max_relative_discrepancy < 1e-10


def test_finite_n_free_energy_names_its_overflow():
    with pytest.raises(ValueError, match=r"finite-N free energy .* overflows at q=3, J=1.0, h=0.0, beta=6e-309, N=4"):
        finite_N_free_energy(ModelParams(3, 1.0, 0.0), ThermoState(6e-309), 4)
    # ln Z_N * T overflows, but f_N = -ln(Z_N)/N * T does not (ln 2 * T < max)
    params, state = ModelParams(2, 0.0, 0.0), ThermoState(1e-308)
    assert finite_N_free_energy(params, state, 4) == pytest.approx(-math.log(2.0) * 1e308, rel=1e-14)


def test_finite_n_free_energy_where_the_minor_term_nears_the_dominant():
    # at N = 1, (q-1)|rho| is within 1e-14 of 1 here; f_1 = -(ln 64 - 18)
    f = finite_N_free_energy(ModelParams(64, 0.0, 18.0), ThermoState(1.0), 1)
    assert math.isfinite(f)
    assert f == pytest.approx(18.0 - math.log(64.0), rel=1e-13)


def test_every_chain_length_route_checks_n_by_name():
    # 2.5 once gave ln Z_N = 4.1625 and f_N = -1.665 for the eigen routes, and
    # a bare TypeError from the other two
    routes = (partition_function, finite_N_free_energy, enumerate_partition, trace_power_partition)
    for route in routes:
        with pytest.raises(ValueError, match=r"^N must be an integer, got 2\.5$"):
            route(*POINT, 2.5)
        with pytest.raises(ValueError, match=r"^N must be at least 1$"):
            route(*POINT, 0)
        assert route(*POINT, 3.0) == route(*POINT, 3)


def test_enumeration_refuses_an_overflowing_ln_z_by_name():
    # w * (2k - N) overflowed, and inf - inf gave nan with two numpy warnings
    message = r"^ln Z_N overflows at q=2, J=0\.0, h=1e\+308, beta=1\.0, N=2$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (enumerate_partition, partition_function):
            with pytest.raises(ValueError, match=message):
                route(ModelParams(2, 0.0, 1e308), ThermoState(1.0), 2)
        # an infinite beta*J, where 2k = N makes inf * 0
        with pytest.raises(ValueError, match=r"^ln Z_N overflows at q=3, J=1e\+308, h=0\.0, beta=10\.0, N=2$"):
            enumerate_partition(ModelParams(3, 1e308, 0.0), ThermoState(10.0), 2)
