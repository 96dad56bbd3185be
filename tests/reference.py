"""Reference forms that only the tests use: a chain-by-chain energy for the
enumeration, the value-form spectrum the dense eigendecomposition is
compared against, the field where m vanishes, the free-energy ordering in
q, a golden-section peak search, and the finite-N free energy.  None of them
is run by a command, so none of them lives in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from potts1d import GridSpec, ModelParams, ThermoState, oracle
from potts1d.model import check_domain, require_finite
from potts1d.thermo import coupling_exponent, spectrum_core
from potts1d.transfer import partition_function


@dataclass(frozen=True)
class SpinConfig:
    """A periodic chain of N >= 2 spins; site N+1 is identified with site 1."""

    sites: tuple[int, ...]

    def __post_init__(self):
        for s in self.sites:
            if int(s) != s or s < 1:
                raise ValueError(f"spin {s!r} outside 1..q")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if len(self.sites) < 2:
            raise ValueError("a periodic chain needs at least 2 sites")

    def __len__(self) -> int:
        return len(self.sites)


def config_energy(config: SpinConfig, params: ModelParams, state: ThermoState) -> float:
    """Energy of a periodic configuration: -(J + h/beta) times the agreement sum.

    Each bond adds -1 to the agreement sum when its two spins are equal and
    +1 when they differ, so exp(-beta * E) is the product over the N bonds
    of exp((beta*J + h) * (+-1)), which is the identity the enumeration
    oracle relies on.  Spins must lie in 1..q.
    """
    sites = config.sites
    if max(sites) > params.q:
        raise ValueError(f"spin {max(sites)} outside 1..{params.q}")
    agreement = sum(1.0 if a != b else -1.0 for a, b in zip(sites, sites[1:] + sites[:1]))
    energy = -(params.J + params.h / state.beta) * agreement  # h / beta overflows at a tiny beta
    message = "energy -(J + h/beta) * (agreement sum) overflows"
    return require_finite(energy, message, J=params.J, h=params.h, beta=state.beta)


class EigenSpectrum(NamedTuple):
    """Both distinct eigenvalues of the transfer matrix.

    lambda_minor has multiplicity q - 1 and may be negative (it vanishes
    exactly when h + J*beta = 0); lambda_max is simple and positive.
    """

    lambda_minor: float
    lambda_max: float


def closed_form_spectrum(params: ModelParams, state: ThermoState) -> EigenSpectrum:
    """Exact spectrum of the transfer matrix in value form.

    lambda_minor = exp(-u) - exp(u) = -2 sinh(u) with multiplicity q - 1 and
    lambda_max = exp(-u) + (q-1) exp(u), the exp of the kernel's ln
    lambda_max.  Both saturate to +-inf once they leave double range.
    """
    u = coupling_exponent(params.J, params.h, state.beta)
    try:
        minor = -2.0 * math.sinh(u)
    except OverflowError:
        minor = math.inf if u < 0.0 else -math.inf
    try:
        lam = math.exp(spectrum_core(params.q, u).log_lambda_max)
    except OverflowError:
        lam = math.inf
    return EigenSpectrum(lambda_minor=minor, lambda_max=lam)


def magnetization_zero_point(params: ModelParams, state: ThermoState) -> float:
    """The field h* = -(J*beta + ln(q-1)/2) where the magnetization vanishes.

    The susceptibility attains its maximum value 1/beta at the same field.
    """
    return -(params.J * state.beta + 0.5 * math.log(params.q - 1))


def q_ordering_check(beta_grid: GridSpec, h: float, J: float, q_list) -> bool:
    """True iff the free energy strictly decreases along q_list at every beta.

    The pairwise difference of log dominant eigenvalues is evaluated in the
    cancellation-free form log1p((q' - q) r / (q - 1)), with r the kernel's
    sigmoid at q, so strictness is decided on the exact increment rather
    than on subtractions of nearly equal free energies.  Increments whose r
    underflows (x + ln(q-1) < -745) report as not strictly decreasing.
    """
    if beta_grid.axis != "beta":
        raise ValueError("q_ordering_check needs a beta grid")
    qs = [check_domain("q", q).item() for q in q_list]
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_list must be strictly increasing")
    qa, qb = np.array(qs[:-1])[:, None], np.array(qs[1:])[:, None]
    r = spectrum_core(qa, coupling_exponent(J, h, beta_grid.points())).r
    return bool(np.all(np.log1p((qb - qa) * r / (qa - 1)) > 0.0))


# Golden-section steps in refine_peak: each keeps 0.618 of the bracket, so
# the last bracket is about 2e-19 of the first.
GOLDEN_SECTION_STEPS = 90


def refine_peak(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximizer of a unimodal callable on [lo, hi]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_SECTION_STEPS):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = fn(d)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def finite_N_free_energy(params: ModelParams, state: ThermoState, N: int) -> float:
    """Free energy per site of the N-site chain, -log(Z_N) / (beta * N): the
    value three_route_report gives, at one N."""
    return oracle._free_energy_per_site(params, state, N, partition_function(params, state, N))
