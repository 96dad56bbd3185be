"""Closed-form thermodynamic functions of the chain and their
finite-difference verification engine.

Every function is evaluated through the shared ratio
r = (q-1) e^{2(h+J beta)} / (1 + (q-1) e^{2(h+J beta)}), which is a plain
sigmoid in t = 2(h+J beta) + ln(q-1).  Working with the pair (r, 1-r) and
with tanh(t/2) = 2r - 1 keeps all five quantities finite and mutually
consistent far beyond the range where e^{2(h+J beta)} itself overflows.
thermo_arrays, the one place the five formulas are written, works
elementwise on numpy arrays; the scalar functions are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, ThermoState, require_finite, temperature

# Relative-error tolerances the finite-difference report is judged against
# (first derivatives, then second derivatives).
FIRST_DERIVATIVE_TOL = 1e-6
SECOND_DERIVATIVE_TOL = 1e-5

# First-derivative step scale; second differences use
# SECOND_DIFFERENCE_FACTOR times this.
FD_STEP = 1e-5

# The second-difference step balances truncation, which grows with the step,
# against rounding in f, which grows as 1/step^2.  At 50 (5e-4) neither C nor
# chi came within a factor of two of its tolerance in 10^7 draws from
# q 2..64, |J| <= 12, |h| <= 3, beta log-uniform in [1e-3, 30].
SECOND_DIFFERENCE_FACTOR = 50.0

_SMALLEST_NORMAL = 2.2250738585072014e-308  # np.finfo(float).tiny


class StableCore(NamedTuple):
    """The recurring ratio shared by all thermodynamic closed forms.

    t is 2*(h + J*beta) + log_q1, with log_q1 = ln(q-1); r is its sigmoid.
    one_minus_r and two_r_minus_one are computed independently of r so no
    precision is lost when r saturates at either end.  log1p_e is
    ln(1 + e^-|t|), and log_lambda_max the log of the dominant
    transfer-matrix eigenvalue.
    """

    log_q1: float
    t: float
    r: float
    one_minus_r: float
    two_r_minus_one: float
    log1p_e: float
    log_lambda_max: float


class ThermoPoint(NamedTuple):
    """The five thermodynamic functions, at one point or (thermo_arrays) elementwise."""

    f: float
    S: float
    m: float
    chi: float
    C: float


def coupling_exponent(J, h, beta):
    """The bond exponent u = h + J*beta shared by every weight, elementwise;
    a ValueError names the first point where it leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = h + J * beta
    return require_finite(u, "h + J*beta is not finite", J=J, h=h, beta=beta)


def spectrum_core(q, u) -> StableCore:
    """The stable core at bond exponent u, elementwise over arrays.  With
    lambda_max = e^-u (1 + e^t), ln lambda_max is -u + ln(1 + e^t) below
    t = 0 and u + ln(q-1) + ln(1 + e^-t) above it: one exp(-|t|), which never
    overflows, and one log1p, switched where the sigmoid switches."""
    log_q1 = np.log(q - 1)
    with np.errstate(over="ignore"):  # 2u = +-inf where |u| >= 2**1023, still the right t
        t = 2.0 * u + log_q1
    above, e = t >= 0.0, np.exp(-np.abs(t))
    log1p_e = np.log1p(e)
    log_lambda_max = np.where(above, u + log_q1, -u) + log1p_e
    two_r_minus_one = np.tanh(0.5 * t)
    upper, lower = 1.0 / (1.0 + e), e / (1.0 + e)
    del e  # one grid-sized array fewer while r and 1 - r are made
    return StableCore(log_q1, t, np.where(above, upper, lower), np.where(above, lower, upper), two_r_minus_one,
                      log1p_e, log_lambda_max)


def thermo_arrays(q, J, h, beta) -> ThermoPoint:
    """f, S, m, chi and C elementwise over broadcast arrays of q, J, h, beta."""
    # Arrays even for scalars, so one point and a whole grid share the same
    # numpy loops (numpy's scalar power rounds differently).
    J, beta = np.asarray(J, dtype=float), np.asarray(beta, dtype=float)
    temperature(beta)  # f, m and chi scale with T; a beta without one is refused
    core = spectrum_core(q, coupling_exponent(J, h, beta))
    at, jb = dict(q=q, J=J, h=h, beta=beta), J * beta
    with np.errstate(over="ignore"):
        f = core.log_lambda_max / -beta  # |ln lambda_max| > 1 can overflow at a tiny beta
    # S = ln lambda_max - J beta (2r - 1) with its two terms of size |J beta|
    # cancelled to the input h, on the core's switch: 2 J beta (1-r) + h +
    # ln(q-1) where t >= 0 and -2 J beta r - h below, plus ln(1 + e^-|t|)
    above = core.t >= 0.0
    S = jb * (2.0 * np.where(above, core.one_minus_r, -core.r))
    S += np.where(above, h + core.log_q1, -h)
    S += core.log1p_e
    chi = 4.0 * core.r * core.one_minus_r
    tail = chi < _SMALLEST_NORMAL  # 4r(1-r) below the normal range has lost bits: chi from its logarithm
    chi /= beta
    if tail.any():
        with np.errstate(over="ignore"):  # exp of ln 4r(1-r) - ln beta, which overflows only where 4r(1-r) is normal
            chi = np.where(tail, np.exp(math.log(4.0) - np.abs(core.t) - 2.0 * core.log1p_e - np.log(beta)), chi)
    return ThermoPoint(
        f=require_finite(f, "f = -ln(lambda_max)/beta overflows", **at),
        S=S,
        m=core.two_r_minus_one / beta,
        chi=chi,
        C=require_finite(_heat_capacity(J, beta, core, chi), "C overflows", **at),
    )


def _heat_capacity(J, beta, core: StableCore, chi):
    """C = J^2 beta^3 chi wherever J^2, beta^3 and their product are normal
    doubles, so that C and chi agree to rounding.  Elsewhere that product is
    wrong or nan (inf * 0); C is then exp of
    ln C = 2 ln|J beta| + ln 4r(1-r),  ln 4r(1-r) = ln 4 - |t| - 2 ln(1 + e^-|t|),
    from the core's t = 2u + ln(q-1) and ln(1 + e^-|t|), which underflows to
    its correct value (0 at J = 0) and overflows only where C itself does."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        j2, b3 = J**2, beta**3
        product = j2 * b3
        C = product * chi
        # normal: at least the smallest normal double, and below inf (not nan)
        direct = (np.minimum(np.minimum(j2, b3), product) >= _SMALLEST_NORMAL) & (product < np.inf)
    if direct.all():
        return C
    with np.errstate(divide="ignore", over="ignore"):
        log_c = 2.0 * (np.log(np.abs(J)) + np.log(beta)) + math.log(4.0) - np.abs(core.t) - 2.0 * core.log1p_e
        return np.where(direct, C, np.exp(log_c))


def thermo_point(params: ModelParams, state: ThermoState) -> ThermoPoint:
    """All five thermodynamic functions from one shared core evaluation."""
    return ThermoPoint(*map(float, thermo_arrays(params.q, params.J, params.h, state.beta)))


def free_energy(params: ModelParams, state: ThermoState) -> float:
    """Free energy per site: -log(dominant eigenvalue) / beta."""
    return thermo_point(params, state).f


def entropy(params: ModelParams, state: ThermoState) -> float:
    """Entropy per site, log(lambda_max) + J*beta*(1 - 2r).

    Negative values at low temperature are a genuine feature of this
    convention and are returned unclamped.
    """
    return thermo_point(params, state).S


def magnetization(params: ModelParams, state: ThermoState) -> float:
    """Magnetization per spin, (2r - 1) / beta; bounded by 1/beta."""
    return thermo_point(params, state).m


def susceptibility(params: ModelParams, state: ThermoState) -> float:
    """Susceptibility 4 r (1-r) / beta, strictly positive and at most 1/beta."""
    return thermo_point(params, state).chi


def heat_capacity(params: ModelParams, state: ThermoState) -> float:
    """Heat capacity per site, J^2 beta^2 * 4 r (1-r); zero exactly when J = 0.

    Computed as J^2 beta^3 times the susceptibility so the two functions
    stay consistent to rounding even where r(1-r) is subnormal; where J^2 or
    beta^3 leaves the normal range, from its logarithm (see _heat_capacity).
    """
    return thermo_point(params, state).C


@dataclass(frozen=True)
class FdReport:
    """Relative errors of the four closed-form derivatives versus central
    finite differences of the free energy, plus the overall verdict.

    Errors are |closed - fd| / max(|closed|, |fd|, 1), so quantities that
    are identically zero report their absolute error.
    """

    entropy_error: float
    magnetization_error: float
    susceptibility_error: float
    heat_capacity_error: float
    passed: bool

    def errors(self) -> dict[str, float]:
        return {
            "S": self.entropy_error,
            "m": self.magnetization_error,
            "chi": self.susceptibility_error,
            "C": self.heat_capacity_error,
        }


def _rel_error(closed: float, approx: float) -> float:
    # closed is finite; an infinite difference is an infinite error, not inf/inf = nan
    return math.inf if math.isinf(approx) else abs(closed - approx) / max(abs(closed), abs(approx), 1.0)


def fd_verify(params: ModelParams, state: ThermoState) -> FdReport:
    """Check S, m, chi and C against finite differences of the free energy.

    Central steps are FD_STEP*T in T, since f varies on the scale of T itself
    (an absolute step is too coarse at low T), and FD_STEP*max(1, |h|) in h;
    second differences use SECOND_DIFFERENCE_FACTOR times those steps.
    """
    T, h, beta = state.T, params.h, state.beta
    eps_t1 = FD_STEP * T
    eps_t2 = SECOND_DIFFERENCE_FACTOR * eps_t1
    eps_h1 = FD_STEP * max(1.0, abs(h))
    eps_h2 = SECOND_DIFFERENCE_FACTOR * eps_h1

    # One kernel call for the free energy at the point, at T +- eps_t1 and
    # T +- eps_t2 (h fixed), and at h +- eps_h1 and h +- eps_h2 (beta fixed).
    hs = np.array([h] * 5 + [h + eps_h1, h - eps_h1, h + eps_h2, h - eps_h2])
    betas = np.array([beta] + [1.0 / t for t in (T + eps_t1, T - eps_t1, T + eps_t2, T - eps_t2)] + [beta] * 4)
    f, *closed = thermo_arrays(params.q, params.J, hs, betas)  # closed: S, m, chi, C, at the point at index 0
    f0, t1p, t1m, t2p, t2m, h1p, h1m, h2p, h2m = f.tolist()

    s_fd = -(t1p - t1m) / (2.0 * eps_t1)
    m_fd = -(h1p - h1m) / (2.0 * eps_h1)
    # Divided by the step twice: its square leaves double range at either end of beta.
    chi_fd = -(h2p - 2.0 * f0 + h2m) / eps_h2 / eps_h2
    c_fd = -T * ((t2p - 2.0 * f0 + t2m) / eps_t2 / eps_t2)

    errors = [_rel_error(float(c[0]), fd) for c, fd in zip(closed, (s_fd, m_fd, chi_fd, c_fd))]
    tolerances = (FIRST_DERIVATIVE_TOL,) * 2 + (SECOND_DERIVATIVE_TOL,) * 2
    return FdReport(*errors, passed=all(e <= tol for e, tol in zip(errors, tolerances)))
