import itertools
import math

import numpy as np
import pytest

from potts1d import ModelParams, ThermoState
from reference import SpinConfig, config_energy

UNIT = ThermoState(1.0)


def _agreement(sites, q):
    """The agreement sum of a chain: its energy at J = 1, h = 0, beta = 1 is minus it."""
    return -config_energy(SpinConfig(sites), ModelParams(q, 1.0, 0.0), UNIT)


def test_kronecker_case_split():
    # both bonds of a 2-site chain join the same pair of spins, so the
    # agreement sum is twice that pair's factor: -1 if equal, +1 otherwise
    assert _agreement((3, 3), 3) == -2.0
    assert _agreement((1, 2), 3) == 2.0
    for q in range(2, 8):
        assert _agreement((q, q), q) == -2.0


def test_kronecker_symmetry():
    # reversing a chain swaps the two spins of every bond
    for sites in itertools.product(range(1, 6), repeat=3):
        assert _agreement(sites, 5) == _agreement(sites[::-1], 5)


def test_kronecker_domain_errors():
    with pytest.raises(ValueError, match=r"^spin 0 outside 1\.\.q$"):
        SpinConfig((0, 1))
    with pytest.raises(ValueError, match=r"^spin 4 outside 1\.\.3$"):
        config_energy(SpinConfig((1, 4)), ModelParams(3, 1.0, 0.0), UNIT)
    with pytest.raises(ValueError, match=r"^spin 1\.5 outside 1\.\.q$"):
        SpinConfig((1.5, 2))


def test_params_validation():
    with pytest.raises(ValueError, match="q must be at least 2"):
        ModelParams(1, 0.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(2, math.inf, 0.0)
    with pytest.raises(ValueError):
        ModelParams(2, 0.0, math.nan)
    with pytest.raises(ValueError):
        ModelParams(2.5, 0.0, 0.0)
    # J = 0 and h = 0 are allowed, and integral floats normalize to int
    p = ModelParams(3.0, 0.0, 0.0)
    assert p.q == 3 and isinstance(p.q, int)
    # q columns are int64; q is refused by name before float(q), which
    # raised a bare OverflowError at 2**1024, and 2**63 - 1 is kept exactly
    for q in (2**63, 10**20, 2**1024, 1e300, math.inf):
        with pytest.raises(ValueError, match=r"^q must be at most 2\*\*63 - 1$"):
            ModelParams(q, 0.0, 0.0)
    assert ModelParams(2**63 - 1, 0.0, 0.0).q == 2**63 - 1


def test_state_validation():
    with pytest.raises(ValueError):
        ThermoState(0.0)
    with pytest.raises(ValueError):
        ThermoState(-1.0)
    with pytest.raises(ValueError):
        ThermoState(math.inf)
    assert ThermoState(0.5).T == 2.0
    assert ThermoState.from_temperature(4.0).beta == 0.25
    with pytest.raises(ValueError):
        ThermoState.from_temperature(0.0)
    # a subnormal beta has no finite temperature
    with pytest.raises(ValueError, match=r"^T = 1/beta overflows at beta=1e-310$"):
        ThermoState(1e-310).T
    assert ThermoState(1e-308).T == pytest.approx(1e308, rel=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        SpinConfig((1,))
    with pytest.raises(ValueError):
        SpinConfig((1, 0))
    assert len(SpinConfig((1, 2, 1))) == 3


def test_config_energy_trivial_cases():
    state = ThermoState(1.0)
    params = ModelParams(3, 1.0, 0.0)
    # all bonds equal: agreement sum is -N
    assert config_energy(SpinConfig((2, 2, 2, 2)), params, state) == pytest.approx(4.0)
    # alternating spins: all bonds unequal
    assert config_energy(SpinConfig((1, 2, 1, 2)), params, state) == pytest.approx(-4.0)


def test_config_energy_hand_sum():
    # oracle: direct summation over the three periodic bonds of (1,2,2):
    # bonds (1,2), (2,2), (2,1) give +1 - 1 + 1 = +1
    params = ModelParams(3, 1.0, 0.5)
    state = ThermoState(0.7)
    expected = -(1.0 + 0.5 / 0.7) * 1.0
    assert expected == pytest.approx(-1.7142857142857142, rel=1e-15)
    got = config_energy(SpinConfig((1, 2, 2)), params, state)
    assert got == pytest.approx(expected, rel=1e-14)


def test_config_energy_rejects_out_of_range_spin():
    params = ModelParams(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        config_energy(SpinConfig((1, 3)), params, ThermoState(1.0))


def test_bond_weight_values():
    # the Boltzmann weight of one bond, from a 2-site chain whose two bonds
    # join the same pair of spins: exp(-beta E / 2)
    state = ThermoState(0.7)
    params = ModelParams(3, 1.0, 0.5)

    def weight(s1, s2, p=params):
        return math.exp(-state.beta * config_energy(SpinConfig((s1, s2)), p, state) / 2.0)

    assert weight(1, 1, ModelParams(3, 0.0, 0.0)) == 1.0
    # oracle: direct exponentiation of +-(beta J + h) = +-1.2
    assert weight(1, 2) == pytest.approx(math.exp(1.2), rel=1e-15)
    assert weight(2, 2) == pytest.approx(math.exp(-1.2), rel=1e-15)
    assert weight(1, 2) == pytest.approx(3.3201169227365472, rel=1e-15)
    assert weight(2, 2) == pytest.approx(0.30119421191220214, rel=1e-15)


def test_weight_energy_identity():
    # exp(-beta E) must equal the product of the bond weights
    # exp((beta J + h) * a) on every config, a = -1 for equal spins, +1 otherwise
    rng = np.random.default_rng(7)
    for _ in range(60):
        q = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        params = ModelParams(q, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        state = ThermoState(float(rng.uniform(0.1, 3.0)))
        sites = tuple(int(s) for s in rng.integers(1, q + 1, size=n))
        config = SpinConfig(sites)
        product = 1.0
        for i in range(n):
            a = -1.0 if sites[i] == sites[(i + 1) % n] else 1.0
            product *= math.exp((state.beta * params.J + params.h) * a)
        lhs = math.exp(-state.beta * config_energy(config, params, state))
        assert lhs == pytest.approx(product, rel=1e-12, abs=0.0)


def test_energy_invariant_under_alphabet_permutation():
    rng = np.random.default_rng(11)
    params = ModelParams(4, 0.8, -0.3)
    state = ThermoState(1.3)
    for _ in range(20):
        sites = tuple(int(s) for s in rng.integers(1, 5, size=6))
        perm = rng.permutation(4) + 1
        relabeled = tuple(int(perm[s - 1]) for s in sites)
        e0 = config_energy(SpinConfig(sites), params, state)
        e1 = config_energy(SpinConfig(relabeled), params, state)
        assert e0 == pytest.approx(e1, rel=1e-14, abs=1e-14)


def test_energy_invariant_under_rotation():
    params = ModelParams(3, -1.1, 0.4)
    state = ThermoState(0.9)
    sites = (1, 3, 2, 2, 1, 3)
    e0 = config_energy(SpinConfig(sites), params, state)
    for k in range(1, len(sites)):
        rotated = sites[k:] + sites[:k]
        assert config_energy(SpinConfig(rotated), params, state) == pytest.approx(e0, rel=1e-14)


def test_config_energy_names_its_overflow():
    # h / beta overflows at a subnormal beta
    with pytest.raises(ValueError, match=r"energy .* overflows at J=1.0, h=0.5, beta=1e-310"):
        config_energy(SpinConfig((1, 2, 1)), ModelParams(3, 1, 0.5), ThermoState(1e-310))
    assert config_energy(SpinConfig((1, 2, 1)), ModelParams(3, 1, 0.0), ThermoState(1e-310)) == -1.0
