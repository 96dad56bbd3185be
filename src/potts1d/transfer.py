"""The exact finite-N partition function from the transfer matrix's log
spectrum.

The matrix is q x q with constant diagonal exp(-(h + J*beta)) and constant
off-diagonal exp(+(h + J*beta)).  Its spectrum therefore collapses to two
distinct values: a dominant simple eigenvalue and a minor eigenvalue of
multiplicity q - 1.  Both are read from the kernel's sigmoid core (ln
lambda_max and 1 - r), never from exp(u), so ln Z_N stays finite for any
finite parameters; the dense matrix and the numeric routes that check these
closed forms live in oracle.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import ModelParams, ThermoState, check_domain, require_finite
from .thermo import coupling_exponent, spectrum_core


def _log1mexp(z: float) -> float:
    """log(1 - exp(z)) for z < 0, accurate across both small and large |z|."""
    if z > -math.log(2.0):
        return math.log(-math.expm1(z))
    return math.log1p(-math.exp(z))


def partition_function(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of the periodic-chain partition function of N sites.

    Evaluates log of lambda_max^N + (q-1) * lambda_minor^N from one kernel
    core.  The ratio lambda_minor/lambda_max is w/(q-1) with w = q(1-r) - 1,
    so the correction term (q-1) (lambda_minor/lambda_max)^N has log
    z = N ln|w| - (N-1) ln(q-1) and the sign of w^N.  Where w < 0,
    ln|w| = log1p(-q(1-r)), which does not cancel as r -> 1.  The sum stays
    positive because the dominant eigenvalue strictly dominates.  A ValueError
    names the point where ln Z_N itself leaves double range.
    """
    N = int(check_domain("N", N))
    q = params.q
    core = spectrum_core(q, coupling_exponent(params.J, params.h, state.beta))
    head = require_finite(N * float(core.log_lambda_max), "ln Z_N overflows",  # the rest adds at most ln q
                          q=q, J=params.J, h=params.h, beta=state.beta, N=N)
    a = q * float(core.one_minus_r)  # 1 - w
    with np.errstate(divide="ignore"):  # w rounds to 0 near u = 0, and z to -inf
        log_abs_w = float(np.log1p(-a) if a < 1.0 else np.log(a - 1.0))
    z = N * log_abs_w - (N - 1) * math.log(q - 1)
    if a >= 1.0 or N % 2 == 0:
        return head + math.log1p(math.exp(z))
    if a < sys.float_info.min and (q == 2 or N == 1):
        # 1 - (1-a)^N is N*a to rounding, but a subnormal a has lost digits:
        # take ln a = ln q + ln(1-r) from t instead.
        t = float(core.t)
        return head + math.log(N * q) - t - math.log1p(math.exp(-t))
    return head + _log1mexp(z)
