"""Independent ground-truth layer: exhaustive configuration enumeration,
dense matrix-power traces, and finite-N free energies.

These routines never share arithmetic with the closed forms they check.
Enumeration walks all q^N periodic configurations by mixed-radix counting
in fixed-size chunks, so memory stays bounded at the configuration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermoState
from .transfer import build_matrix, partition_function

MAX_ENUMERATED_CONFIGS = 2_000_000

_CHUNK = 1 << 16


def enumerate_partition(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of the sum of exp(-beta * energy) over all q^N periodic chains.

    The sum is accumulated as a streaming log-sum-exp over fixed-size
    chunks of configurations, so neither the weights nor the running total
    can overflow.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    q = params.q
    total = q**N
    if total > MAX_ENUMERATED_CONFIGS:
        raise ValueError(
            f"q^N = {total} exceeds the enumeration cap of "
            f"{MAX_ENUMERATED_CONFIGS} configurations"
        )
    # -beta*E = (beta*J + h) * (agreement sum), per bond +1 unequal / -1 equal.
    w = state.beta * params.J + params.h

    running_max = -math.inf
    running_sum = 0.0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((idx.size, N), dtype=np.int64)
        rem = idx
        for j in range(N):
            rem, digits[:, j] = np.divmod(rem, q)
        unequal = digits != np.roll(digits, -1, axis=1)
        log_weights = w * (2.0 * unequal.sum(axis=1) - N)
        chunk_max = float(log_weights.max())
        chunk_sum = float(np.exp(log_weights - chunk_max).sum())
        if chunk_max > running_max:
            running_sum = running_sum * math.exp(running_max - chunk_max) + chunk_sum
            running_max = chunk_max
        else:
            running_sum += chunk_sum * math.exp(chunk_max - running_max)
    return running_max + math.log(running_sum)


def trace_power_partition(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of trace(M^N) by repeated dense multiplication with per-step scaling.

    Each product is renormalized by its largest entry and the log of the
    scale factor is accumulated, so the N-th power never overflows.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    m = build_matrix(params, state).to_dense()
    s0 = float(m.max())
    a = m / s0
    log_scale = N * math.log(s0)
    p = a.copy()
    for _ in range(N - 1):
        p = p @ a
        s = float(p.max())
        p /= s
        log_scale += math.log(s)
    return log_scale + math.log(float(np.trace(p)))


def finite_N_free_energy(params: ModelParams, state: ThermoState, N: int) -> float:
    """Free energy per site of the N-site chain, -log(Z_N) / (beta * N).

    Converges to the bulk free energy; for even N the gap is bounded by
    ln(q) / (beta * N) and shrinks geometrically in N.
    """
    return -partition_function(params, state, N) / (state.beta * N)


@dataclass(frozen=True)
class OracleReport:
    """The three independent log-partition routes and their worst pairwise
    relative discrepancy, plus the finite-N free energy at the same N."""

    ln_Z_enumeration: float
    ln_Z_trace_power: float
    ln_Z_eigen: float
    finite_N_free_energy: float
    max_relative_discrepancy: float


def three_route_report(params: ModelParams, state: ThermoState, N: int) -> OracleReport:
    """Compare enumeration, trace-power and eigen-sum log partition values."""
    ln_eigen = partition_function(params, state, N)  # first: it rejects h + J*beta overflow
    ln_enum = enumerate_partition(params, state, N)
    ln_trace = trace_power_partition(params, state, N)
    values = (ln_enum, ln_trace, ln_eigen)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            denom = max(abs(values[i]), abs(values[j]))
            if denom > 0.0:
                worst = max(worst, abs(values[i] - values[j]) / denom)
    return OracleReport(
        ln_Z_enumeration=ln_enum,
        ln_Z_trace_power=ln_trace,
        ln_Z_eigen=ln_eigen,
        finite_N_free_energy=finite_N_free_energy(params, state, N),
        max_relative_discrepancy=worst,
    )
