"""Model definitions for a one-dimensional q-state chain in which both the
exchange coupling J and the external field h couple to nearest-neighbour
spin agreement.

Each periodic bond contributes -1 to the agreement sum when its two spins
are equal and +1 when they differ.  The field term enters the energy divided
by beta, so Boltzmann bond weights carry h without a beta factor.  The
Boltzmann constant is fixed to 1 throughout, hence T = 1/beta.

check_domain holds the domain of q, J, h, beta, T and the chain length N,
one message per rule, for every module that takes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _not_integer(v):
    return (np.trunc(v) != v) | np.isinf(v)


# Each quantity's rules, in the order checked, each with its message.  q is
# int64.  A positive T is outside where 1/T overflows, which is T <= 2**-1024.
_DOMAIN = {
    "q": ((lambda v: v >= 2**63, "q must be at most 2**63 - 1"), (_not_integer, "q must be an integer, got {!r}"),
          (lambda v: v < 2, "q must be at least 2")),
    "N": ((_not_integer, "N must be an integer, got {!r}"), (lambda v: v < 1, "N must be at least 1")),
    "J": ((lambda v: ~np.isfinite(v), "J must be finite"),),
    "h": ((lambda v: ~np.isfinite(v), "h must be finite"),),
    "beta": ((lambda v: ~(v > 0.0) | (v == np.inf), "beta must be positive and finite"),),
    "T": ((lambda v: ~(v > 0.0) | (v == np.inf), "T must be positive and finite"),
          (lambda v: v <= 2.0**-1024, "beta = 1/T overflows")),
}


def check_domain(name: str, values) -> np.ndarray:
    """values as an array (int64 for q) if each lies in the domain of the
    quantity name; else a ValueError for the first point outside and the first
    rule it breaks: the bare message for a scalar, and for an array
    'invalid grid point <name>=<p>: <message>'."""
    rules = _DOMAIN[name]
    v = np.asarray(values, dtype=None if name in ("q", "N") else float)
    if v.dtype == object:  # ints beyond uint64: clipped, as float() overflows at 2**1024
        v = np.asarray(np.clip(v, -(2**1023), 2**1023), dtype=float)
    bad = np.logical_or.reduce([fails(v) for fails, _ in rules])
    if np.count_nonzero(bad):
        p = v.flat[int(np.argmax(bad))]
        message = next(m for fails, m in rules if fails(p)).format(p.item())
        raise ValueError(message if v.ndim == 0 else f"invalid grid point {name}={p.item()!r}: {message}")
    return v.astype(np.int64) if name == "q" else v


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
        for name in ("q", "J", "h"):
            object.__setattr__(self, name, check_domain(name, getattr(self, name)).item())


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
        object.__setattr__(self, "beta", check_domain("beta", self.beta).item())

    @property
    def T(self) -> float:
        return float(temperature(self.beta))

    @classmethod
    def from_temperature(cls, T) -> "ThermoState":
        return cls(1.0 / check_domain("T", T).item())

