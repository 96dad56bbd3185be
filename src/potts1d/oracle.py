"""Independent ground-truth layer: exhaustive configuration enumeration,
dense matrix-power traces, and finite-N free energies.

These routines never share arithmetic with the closed forms they check.
Enumeration gives each of the q^N periodic chains its own count of unequal
bonds, built one site at a time so that chains sharing a prefix share the
work, and then weights the exact histogram of those counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermoState
from .transfer import build_matrix, partition_function

MAX_ENUMERATED_CONFIGS = 2_000_000

# bincount copies its input to intp; histogramming this many one-byte counts
# at a time keeps that copy at 512 KiB.
_CHUNK = 1 << 16


def _bond_count_histogram(q: int, N: int) -> np.ndarray:
    """Exact number of periodic q-state chains of N sites with k unequal
    bonds, for k = 0..N; the entries sum to q^N.

    The count of every chain is held as one uint8 (k <= N <= 20 under the
    cap), so the working memory stays at about q^N bytes.
    """
    ne = np.not_equal.outer(np.arange(q), np.arange(q)).view(np.uint8)
    # cnt[last spin, earlier spins]: the first spin is the fastest index.
    cnt = np.zeros((q, 1), dtype=np.uint8)
    for _ in range(N - 1):
        # The new spin goes on the slow axis, so numpy's inner loops run
        # over the long run of earlier chains.
        cnt = (ne[:, :, None] + cnt[None, :, :]).reshape(q, -1)
    cnt.reshape(q, -1, q)[...] += ne[:, None, :]  # the periodic bond (last, first)
    flat = cnt.ravel()
    hist = np.zeros(N + 1, dtype=np.int64)
    for start in range(0, flat.size, _CHUNK):
        hist += np.bincount(flat[start:start + _CHUNK], minlength=N + 1)
    return hist


def enumerate_partition(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of the sum of exp(-beta * energy) over all q^N periodic chains.

    Every chain is visited through its unequal-bond count k, and its weight
    exp(w * (2k - N)), w = beta*J + h, depends on nothing else; the sum is
    a log-sum-exp over the at most N + 1 occupied levels, so neither the
    weights nor the total can overflow.
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
    hist = _bond_count_histogram(q, N)
    # -beta*E = (beta*J + h) * (agreement sum), per bond +1 unequal / -1 equal.
    w = state.beta * params.J + params.h
    k = np.flatnonzero(hist)
    log_weights = w * (2.0 * k - N)
    peak = float(log_weights.max())
    return peak + math.log(float(hist[k] @ np.exp(log_weights - peak)))


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
    ln_z = partition_function(params, state, N)
    f = -ln_z * state.T / N
    if not math.isfinite(f):  # ln Z_N * T can overflow where f does not
        f = -(ln_z / N) * state.T
    if not math.isfinite(f):
        raise ValueError(
            f"finite-N free energy -ln(Z_N)/(beta*N) overflows at q={params.q}, "
            f"J={params.J!r}, h={params.h!r}, beta={state.beta!r}, N={N}"
        )
    return f


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
