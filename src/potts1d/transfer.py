"""Transfer matrix of the chain, its two-eigenvalue spectrum, and the exact
finite-N partition function.

The matrix is q x q with constant diagonal exp(-(h + J*beta)) and constant
off-diagonal exp(+(h + J*beta)).  Its spectrum therefore collapses to two
distinct values: a dominant simple eigenvalue and a minor eigenvalue of
multiplicity q - 1.  All partition-function arithmetic is carried out in
the log domain; dense entries are materialized only when every exponent
magnitude stays below DENSE_EXPONENT_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermoState
from .thermo import coupling_exponent, spectrum_core

# Dense materialization bound: exp(300) is representable with margin, while
# the log-domain paths stay valid for any finite parameters.
DENSE_EXPONENT_LIMIT = 300.0

# Largest q with a dense q x q matrix: 32 MiB of float64, of which the
# trace-power route holds a few at a time.
MAX_DENSE_Q = 2048


class ConvergenceError(RuntimeError):
    """Power iteration did not reach the requested tolerance."""


@dataclass(frozen=True)
class TransferMatrix:
    """Bond-weight matrix: constant diagonal, constant off-diagonal.

    Stored in log form so the value object exists for any finite
    parameters; to_dense() is the only operation with an exponent gate.
    """

    q: int
    log_diag: float
    log_offdiag: float

    @property
    def diag(self) -> float:
        return math.exp(self.log_diag)

    @property
    def offdiag(self) -> float:
        return math.exp(self.log_offdiag)

    def to_dense(self) -> np.ndarray:
        """The q x q matrix; every dense route (power iteration, partial sums,
        trace powers) starts here, so q is capped before anything is allocated."""
        if self.q > MAX_DENSE_Q:
            raise ValueError(f"q = {self.q} exceeds the dense-matrix cap of {MAX_DENSE_Q} states")
        if abs(self.log_offdiag) > DENSE_EXPONENT_LIMIT:
            raise OverflowError(
                f"|h + J*beta| = {abs(self.log_offdiag):.6g} exceeds "
                f"{DENSE_EXPONENT_LIMIT:g}; dense entries would overflow, "
                "use the log-domain paths instead"
            )
        m = np.full((self.q, self.q), self.offdiag)
        np.fill_diagonal(m, self.diag)
        return m


def build_matrix(params: ModelParams, state: ThermoState) -> TransferMatrix:
    """Transfer matrix for the given parameters and inverse temperature."""
    u = coupling_exponent(params.J, params.h, state.beta)
    return TransferMatrix(q=params.q, log_diag=-u, log_offdiag=u)


@dataclass(frozen=True)
class EigenSpectrum:
    """Both distinct eigenvalues plus the stable log of the dominant one.

    lambda_minor has multiplicity q - 1 and may be negative (it vanishes
    exactly when h + J*beta = 0); lambda_max is simple and positive.
    """

    lambda_minor: float
    lambda_max: float
    log_lambda_max: float


def log_dominant_eigenvalue(params: ModelParams, state: ThermoState) -> float:
    """Stable log of the dominant transfer-matrix eigenvalue,
    log of exp(-u) * (1 + (q-1) exp(2u)), without overflow for any finite u."""
    u = coupling_exponent(params.J, params.h, state.beta)
    return float(spectrum_core(params.q, u).log_lambda_max)


def closed_form_spectrum(params: ModelParams, state: ThermoState) -> EigenSpectrum:
    """Exact spectrum of the transfer matrix.

    lambda_minor = exp(-u) - exp(u) = -2 sinh(u) with multiplicity q - 1,
    lambda_max = exp(-u) + (q-1) exp(u), and log_lambda_max is computed in
    the log domain so it stays finite for any finite parameters.  The two
    value fields saturate to +-inf once they leave double range; the log
    field is always finite.
    """
    u = coupling_exponent(params.J, params.h, state.beta)
    llm = log_dominant_eigenvalue(params, state)
    try:
        minor = -2.0 * math.sinh(u)
    except OverflowError:
        minor = math.inf if u < 0.0 else -math.inf
    return EigenSpectrum(
        lambda_minor=minor,
        lambda_max=math.exp(llm) if llm < 709.0 else math.inf,
        log_lambda_max=llm,
    )


def minor_ratio(params: ModelParams, state: ThermoState) -> float:
    """The ratio lambda_minor / lambda_max, always strictly inside (-1, 1).

    Computed without forming either eigenvalue, so it is exact in the
    regimes where the dense values would overflow or cancel.
    """
    u = coupling_exponent(params.J, params.h, state.beta)
    q = params.q
    if u > 0.0:
        return math.expm1(-2.0 * u) / (math.exp(-2.0 * u) + (q - 1))
    return -math.expm1(2.0 * u) / (1.0 + (q - 1) * math.exp(2.0 * u))


def _log_abs_minor_ratio(u: float, q: int, llm: float) -> float:
    """log |lambda_minor / lambda_max|, given llm = log lambda_max.

    For |u| < 1/2, where |ratio| < tanh(1/2), the direct form loses nothing
    and stays exact as u -> 0.  Otherwise 1 - |ratio| is formed directly
    from exp(-2|u|), which keeps the result meaningful even when |ratio| is
    within one ulp of 1.
    """
    if abs(u) < 0.5:
        return math.log(2.0) + math.log(abs(math.sinh(u))) - llm
    e2 = math.exp(-2.0 * abs(u))
    if u > 0.0:
        complement = (2.0 * e2 + (q - 2)) / (e2 + (q - 1))
    else:
        complement = q * e2 / (1.0 + (q - 1) * e2)
    return math.log1p(-complement)


def _log1mexp(z: float) -> float:
    """log(1 - exp(z)) for z < 0, accurate across both small and large |z|."""
    if z > -math.log(2.0):
        return math.log(-math.expm1(z))
    return math.log1p(-math.exp(z))


def numeric_dominant_eigenvalue(
    matrix: TransferMatrix, tol: float = 1e-12, max_iter: int = 10000
) -> float:
    """Dominant eigenvalue by power iteration from the all-ones vector.

    The matrix is entrywise positive, so the iteration converges to the
    simple dominant eigenvalue from any positive start; all-ones keeps the
    run deterministic.  Convergence is declared when the Rayleigh quotient
    changes by less than tol relative to its current magnitude.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = matrix.to_dense()
    v = np.ones(matrix.q)
    v /= np.linalg.norm(v)
    prev = None
    residual = math.inf
    for _ in range(max_iter):
        w = a @ v
        rayleigh = float(v @ w)
        if prev is not None:
            residual = abs(rayleigh - prev)
            if residual <= tol * max(1.0, abs(rayleigh)):
                return rayleigh
        prev = rayleigh
        v = w / np.linalg.norm(w)
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations; "
        f"last Rayleigh-quotient change {residual:.3e}"
    )


@dataclass(frozen=True)
class PartialPartitionVector:
    """Per-spin partial partition sums, optionally in max-normalized form.

    components[s] is the partial sum with the newest site frozen to spin
    s+1.  log_scale accumulates the log of every factor divided out by the
    scaled iteration, so the raw vector is components * exp(log_scale).
    """

    components: np.ndarray
    log_scale: float = 0.0

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        if comp.ndim != 1 or comp.size < 2:
            raise ValueError("components must be a vector of length q >= 2")
        if not np.all(comp > 0.0):
            raise ValueError("partial partition sums must stay positive")

    @classmethod
    def uniform(cls, q: int) -> "PartialPartitionVector":
        return cls(np.ones(q), 0.0)


def iterate_partial_partition(
    v: PartialPartitionVector,
    params: ModelParams,
    state: ThermoState,
    scaled: bool = False,
) -> PartialPartitionVector:
    """One recursion step: multiply the partial sums by the transfer matrix.

    With scaled=True the result is renormalized by its largest component
    and the log of that factor is added to log_scale, so arbitrarily long
    chains never overflow.  The unscaled form returns the raw product and
    raises once a component leaves double range.
    """
    if v.components.size != params.q:
        raise ValueError("vector length does not match q")
    with np.errstate(over="ignore"):
        w = build_matrix(params, state).to_dense() @ v.components
    if not np.all(np.isfinite(w)):
        raise OverflowError(
            "matrix-vector product overflowed; rerun with scaled=True "
            "from a normalized vector"
        )
    if scaled:
        s = float(w.max())
        return PartialPartitionVector(w / s, v.log_scale + math.log(s))
    return PartialPartitionVector(w, v.log_scale)


def partition_function(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of the periodic-chain partition function of N sites.

    Evaluates log of (q-1) * lambda_minor^N + lambda_max^N as
    N*log_lambda_max plus a log1p correction in the ratio
    lambda_minor/lambda_max, with explicit sign handling when the minor
    eigenvalue is negative and N is odd.  The sum stays positive because
    the dominant eigenvalue strictly dominates.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    q = params.q
    u = coupling_exponent(params.J, params.h, state.beta)
    llm = log_dominant_eigenvalue(params, state)
    if u == 0.0:
        return N * llm
    z = math.log(q - 1) + N * _log_abs_minor_ratio(u, q, llm)
    if u > 0.0 and N % 2 == 1:
        if z == 0.0:
            # q = 2 with exp(-2u) underflowed: the correction is
            # log(2N) - 2u, from 1 - tanh(u)^N ~ 2N exp(-2u).
            return N * llm + math.log(2.0 * N) - 2.0 * u
        return N * llm + _log1mexp(z)
    return N * llm + math.log1p(math.exp(z))
