"""Cross-checks of the closed forms: the dense transfer matrix and the
routes the paper derives them by, exhaustive enumeration, and the report
that compares three routes to ln Z_N.

TransferMatrix is the q x q matrix itself, and trace powers work on its
dense form; closed_form_spectrum and minor_ratio give the two eigenvalues
in value form, which overflow where the log forms in transfer do not, for
the dense matrix and its eigendecomposition to be compared against.  The
numeric routes never share arithmetic with the closed forms they check.
Enumeration gives each periodic chain its own count of unequal bonds,
built one site at a time so that chains sharing a prefix share the work,
and then weights the exact histogram of those counts.  Relabelling the
spins keeps every bond equal or unequal, so only the 2 q^(N-2) chains whose
first spin is 0 and second spin 0 or 1 are visited, one byte each, in
blocks of 32 KiB, and their histograms are weighted to cover all q^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermoState, check_domain, require_finite
from .thermo import coupling_exponent
from .transfer import log_dominant_eigenvalue, partition_function

# Dense materialization bound: exp(300) is representable with margin, while
# the log-domain paths stay valid for any finite parameters.
DENSE_EXPONENT_LIMIT = 300.0

# Largest q with a dense q x q matrix: 32 MiB of float64, of which the
# trace-power route holds a few at a time.
MAX_DENSE_Q = 2048


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
        """The q x q matrix; every dense route (eigendecomposition, trace
        powers) starts here, so q is capped before anything is allocated."""
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
    try:
        lam = math.exp(llm)
    except OverflowError:
        lam = math.inf
    return EigenSpectrum(lambda_minor=minor, lambda_max=lam, log_lambda_max=llm)


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


MAX_ENUMERATED_CONFIGS = 2_000_000

# Chains are counted in blocks of this many bytes, so that bincount's intp
# copy of a block's uint16 pairs is 128 KiB (16 KiB blocks were about 15 %
# slower at q = 3, N = 13).  A chain's head is at most an eighth of a block,
# so whole heads fill at least 8/9 of it.
_BLOCK = 1 << 15


def _bond_count_histogram(q: int, N: int) -> np.ndarray:
    """Exact number of periodic q-state chains of N sites with k unequal
    bonds, for k = 0..N; the entries sum to q^N.

    Relabelling the spins keeps every bond equal or unequal, so the first
    spin is fixed at 0 (weight q) and the second at 0 (weight 1) or at 1
    (weight q - 1, one for each label other than the first spin's): the
    count of every one of the 2 q^(N-2) chains left is built as one uint8
    (k <= N <= 20 under the cap).  A chain is a head, spins 1..a, and a
    tail, spins a+1..N-1 with the bond back to the first spin.  A block is
    the head counts plus one offset per tail and spin a (the join bond and
    the tail's count), counted in uint16 pairs whose low byte has the
    second spin at 0 and whose high byte has it at 1.  Nothing outlives the
    call, and no temporary exceeds bincount's intp copy of a block.
    """
    # A chain of at most 3 sites has no bond without spin 0 or spin 1 in it.
    ne = np.not_equal.outer(np.arange(q), np.arange(q if N > 3 else 2)).view(np.uint8)

    def grow(cnt):
        # cnt[spin i, ...] -> cnt[spin i + 1, spin i, ...]: the new spin goes
        # on the slow axis, so numpy's inner loops run over the long axis.
        return (ne[:, :len(cnt), None] + cnt[None]).reshape(q, -1)

    head, rest = ne[:2, :1], N - 2  # head[second spin, 0] is the bond (first, second)
    while rest and head.size * q <= _BLOCK // 8:
        head, rest = grow(head), rest - 1
    tail = np.zeros((len(head), 1), dtype=np.uint8)
    for _ in range(rest):
        tail = grow(tail)
    # offsets[tail, spin a]: the join bond, the tail's bonds and the periodic bond
    offsets = (tail + ne[:len(tail), :1]).reshape(-1, len(head))
    blocks = np.empty((min(_BLOCK // head.size, len(offsets)),) + head.shape, dtype=np.uint8)
    table = np.zeros(256 * (N + 1), dtype=np.int64)
    for start in range(0, len(offsets), len(blocks)):
        block = blocks[:len(offsets) - start]  # the last block may be partial
        np.add(head, offsets[start:start + len(block), :, None], out=block)
        table += np.bincount(block.reshape(-1).view("<u2"), minlength=table.size)
    table = table.reshape(N + 1, 256)  # table[high byte, low byte]
    return q * (table.sum(axis=0)[:N + 1] + (q - 1) * table.sum(axis=1))


def enumerate_partition(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of the sum of exp(-beta * energy) over all q^N periodic chains.

    Every chain counts through its unequal-bond count k, and its weight
    exp(w * (2k - N)), w = beta*J + h, depends on nothing else; the sum is
    a log-sum-exp over the at most N + 1 occupied levels, so neither the
    weights nor the total can overflow.  The histogram of k comes from the
    2 q^(N-2) chains with the first spin at 0 and the second at 0 or 1,
    weighted by the spin-relabelling symmetry and counted in 32 KiB blocks,
    so the working set stays under 256 KiB; the cap still bounds q^N.  A
    ValueError names the point where ln Z_N leaves double range.
    """
    N = int(check_domain("N", N))
    if N < 2:
        raise ValueError("N must be at least 2")
    q = params.q
    # q >= 2, so q^N >= 2^N is over the cap once N reaches its bit length,
    # and q^N, a huge integer at a large N, need not be formed.
    if N >= MAX_ENUMERATED_CONFIGS.bit_length() or q**N > MAX_ENUMERATED_CONFIGS:
        raise ValueError(
            f"q^N at q={q}, N={N} exceeds the enumeration cap of "
            f"{MAX_ENUMERATED_CONFIGS} configurations"
        )
    hist = _bond_count_histogram(q, N)
    # -beta*E = (beta*J + h) * (agreement sum), per bond +1 unequal / -1 equal.
    w = state.beta * params.J + params.h
    k = np.flatnonzero(hist)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite w gives inf, or nan at 2k = N
        log_weights = w * (2.0 * k - N)
    peak = require_finite(float(log_weights.max()), "ln Z_N overflows",
                          q=q, J=params.J, h=params.h, beta=state.beta, N=N)
    return peak + math.log(float(hist[k] @ np.exp(log_weights - peak)))


def trace_power_partition(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of trace(M^N) by repeated dense multiplication with per-step scaling.

    Each product is renormalized by its largest entry and the log of the
    scale factor is accumulated, so the N-th power never overflows.
    """
    N = int(check_domain("N", N))
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
    return _free_energy_per_site(params, state, N, partition_function(params, state, N))


def _free_energy_per_site(params: ModelParams, state: ThermoState, N: int, ln_z: float) -> float:
    f = -ln_z * state.T / N
    if not math.isfinite(f):  # ln Z_N * T can overflow where f does not
        f = -(ln_z / N) * state.T
    return require_finite(f, "finite-N free energy -ln(Z_N)/(beta*N) overflows",
                          q=params.q, J=params.J, h=params.h, beta=state.beta, N=N)


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
    if N < 2:  # enumeration's bound, checked before any route runs
        raise ValueError("N must be at least 2")
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
        finite_N_free_energy=_free_energy_per_site(params, state, N, ln_eigen),
        max_relative_discrepancy=worst,
    )


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
