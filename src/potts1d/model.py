"""Model definitions for a one-dimensional q-state chain in which both the
exchange coupling J and the external field h couple to nearest-neighbour
spin agreement.

Each periodic bond contributes -1 to the agreement sum when its two spins
are equal and +1 when they differ.  The field term enters the energy divided
by beta, so Boltzmann bond weights carry h without a beta factor.  The
Boltzmann constant is fixed to 1 throughout, hence T = 1/beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_spin_count(q) -> int:
    # q columns are int64; checked before float(q), which overflows at 2**1024.
    if q > 2**63 - 1:
        raise ValueError("q must be at most 2**63 - 1")
    if not float(q).is_integer():
        raise ValueError(f"q must be an integer, got {q!r}")
    qi = int(q)
    if qi < 2:
        raise ValueError("q must be at least 2")
    return qi


@dataclass(frozen=True)
class ModelParams:
    """The triple (q, J, h) defining one model instance.

    q is the spin-state count (at least 2), J the exchange coupling in
    energy units, h the dimensionless agreement field.
    """

    q: int
    J: float
    h: float

    def __post_init__(self):
        object.__setattr__(self, "q", _as_spin_count(self.q))
        object.__setattr__(self, "J", float(self.J))
        object.__setattr__(self, "h", float(self.h))
        if not math.isfinite(self.J):
            raise ValueError("J must be finite")
        if not math.isfinite(self.h):
            raise ValueError("h must be finite")


def require_finite(value, message: str, **inputs):
    """value, or a ValueError '<message> at name=..., ...' that names the
    inputs at the first point where value is not finite."""
    finite = np.isfinite(value)
    if not finite.all():
        i = int(np.argmin(finite))
        at = np.broadcast_arrays(value, *inputs.values())[1:]
        raise ValueError(f"{message} at " + ", ".join(f"{k}={a.flat[i].item()!r}" for k, a in zip(inputs, at)))
    return value


def temperature(beta):
    """T = 1/beta, elementwise over arrays.

    A subnormal beta has no finite temperature: a ValueError names the first
    beta whose reciprocal overflows.  ThermoState still accepts such a beta,
    since ln Z_N stays finite there; the quantities that scale with T (f, m,
    chi, the finite-N free energy) refuse it through this function.
    """
    with np.errstate(divide="ignore", over="ignore"):
        T = np.divide(1.0, beta)
    return require_finite(T, "T = 1/beta overflows", beta=beta)


@dataclass(frozen=True)
class ThermoState:
    """Inverse temperature beta > 0, with k_B = 1 so that T = 1/beta."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError("beta must be positive and finite")

    @property
    def T(self) -> float:
        return float(temperature(self.beta))

    @classmethod
    def from_temperature(cls, T) -> "ThermoState":
        T = float(T)
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError("T must be positive and finite")
        return cls(1.0 / T)


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
    energy = -(params.J + params.h / state.beta) * agreement
    if not math.isfinite(energy):  # h / beta overflows at a tiny beta
        raise ValueError(
            f"energy -(J + h/beta) * (agreement sum) overflows at J={params.J!r}, "
            f"h={params.h!r}, beta={state.beta!r}"
        )
    return energy
