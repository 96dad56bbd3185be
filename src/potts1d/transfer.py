"""Log spectrum of the transfer matrix and the exact finite-N partition
function.

The matrix is q x q with constant diagonal exp(-(h + J*beta)) and constant
off-diagonal exp(+(h + J*beta)).  Its spectrum therefore collapses to two
distinct values: a dominant simple eigenvalue and a minor eigenvalue of
multiplicity q - 1.  Only their logarithms and their ratio are formed here,
so ln Z_N stays finite for any finite parameters; the dense matrix and the
numeric routes that check these closed forms live in oracle.
"""

from __future__ import annotations

import math

from .model import ModelParams, ThermoState
from .thermo import coupling_exponent, spectrum_core


def log_dominant_eigenvalue(params: ModelParams, state: ThermoState) -> float:
    """Stable log of the dominant transfer-matrix eigenvalue,
    log of exp(-u) * (1 + (q-1) exp(2u)), without overflow for any finite u."""
    u = coupling_exponent(params.J, params.h, state.beta)
    return float(spectrum_core(params.q, u).log_lambda_max)


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
