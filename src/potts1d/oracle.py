"""Cross-checks of the closed forms: the dense transfer matrix and the
routes the paper derives them by, exhaustive enumeration, and the report
that compares three routes to ln Z_N.

TransferMatrix is the q x q matrix itself: trace powers, by squaring with
each product rescaled, work on its dense form, and its eigendecomposition
checks the kernel's two eigenvalues.  The numeric routes never share
arithmetic with the closed forms they check.  Enumeration gives each
periodic chain its own count of unequal bonds, built one site at a time so
that chains sharing a prefix share the work, and then weights the exact
histogram of those counts.  Relabelling the spins keeps every bond equal
or unequal, so only chains whose first spin is 0 and second 0 or 1 are
enumerated, as heads and tails whose histograms are joined over the
junction spin and weighted to cover q^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermoState, check_domain, require_finite
from .thermo import coupling_exponent
from .transfer import partition_function

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


MAX_ENUMERATED_CONFIGS = 2_000_000

# A head grows while the grown head stays within 4 KiB; the rest of the chain is tail.
_HEAD_LIMIT = 1 << 12


def _bond_count_histogram(q: int, N: int) -> np.ndarray:
    """Exact number of periodic q-state chains of N sites with k unequal
    bonds, for k = 0..N; the entries sum to q^N.

    Relabelling the spins keeps every bond equal or unequal, so the first
    spin is fixed at 0 (weight q) and the second at 0 (weight 1) or at 1
    (weight q - 1, one for each label other than the first spin's).  A
    chain left is a head, spins 1..a, and a tail, spins a+1..N-1 with the
    bond back to the first spin, each enumerated with its own uint8 count
    (N <= 20 under the cap).  Heads are histogrammed by (spin a, second
    spin, count) and tails by (spin a, offset); a chain's count is its
    head's plus its offset, so the two are joined over spin a by one
    product and sums along anti-diagonals.
    """
    # A chain of at most 3 sites has no bond without spin 0 or spin 1 in it.
    ne = np.not_equal.outer(np.arange(q), np.arange(q if N > 3 else 2)).view(np.uint8)

    def grow(cnt):
        # cnt[spin i, ...] -> cnt[spin i + 1, spin i, ...]: the new spin goes
        # on the slow axis, so numpy's inner loops run over the long axis.
        return (ne[:, :len(cnt), None] + cnt[None]).reshape(q, -1)

    n = N + 1
    # head[second spin, 0]: the bond (first, second), plus n at second spin 1
    head, rest = ne[:2, :1] * np.uint8(n + 1), N - 2
    while rest and head.size * q <= _HEAD_LIMIT:
        head, rest = grow(head), rest - 1
    tail = np.zeros((len(head), 1), dtype=np.uint8)
    for _ in range(rest):
        tail = grow(tail)
    # offsets[tail, spin a]: the join bond, the tail's bonds and the periodic bond
    offsets = (tail + ne[:len(tail), :1]).reshape(-1, len(head))
    # 2n counts per spin a: heads by (second spin, count), tails by offset and n zeros
    rows = np.arange(0, 2 * n * len(head), 2 * n)
    heads = np.bincount((head + rows[:, None]).reshape(-1), minlength=rows.size * 2 * n)
    tails = np.bincount((offsets + rows).reshape(-1), minlength=rows.size * 2 * n).reshape(-1, 2 * n)
    heads = np.array([q, q * (q - 1)]) @ heads.reshape(-1, 2, n)  # heads[spin a, count], weighted
    # joined[j, i] counts the chains of head count j and offset i; shifting
    # row j right by j puts them in column k = j + i
    joined = (heads.T @ tails).reshape(-1)[:n * (2 * n - 1)].reshape(n, -1)
    return joined.sum(axis=0)[:n]


def enumerate_partition(params: ModelParams, state: ThermoState, N: int) -> float:
    """log of the sum of exp(-beta * energy) over all q^N periodic chains.

    Every chain counts through its unequal-bond count k, and its weight
    exp(w * (2k - N)), w = beta*J + h, depends on nothing else; the sum is
    a log-sum-exp over the at most N + 1 occupied levels, so neither the
    weights nor the total can overflow.  The histogram of k comes from the
    chains with the first spin at 0 and the second at 0 or 1, enumerated as
    heads and tails that are joined over their junction spin and weighted by
    the spin-relabelling symmetry; no array holds a value per chain, and the
    cap still bounds q^N.  A ValueError names the point where ln Z_N leaves
    double range.
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
    """log of trace(M^N) by dense squaring: floor(log2 N) squarings and
    popcount(N) - 1 products with M.  Each product is renormalized by its
    largest entry and the log of the scale factor is accumulated, so the
    N-th power never overflows."""
    N = int(check_domain("N", N))
    m = build_matrix(params, state).to_dense()
    s0 = float(m.max())
    a = m / s0
    p, log_p = a, 0.0  # (M / s0)^k = p * exp(log_p), from k = 1
    for bit in f"{N:b}"[1:]:
        log_p *= 2.0  # k -> 2k, then 2k + 1 where the bit is set
        for right in (p, a) if bit == "1" else (p,):
            p = p @ right
            s = float(p.max())
            p /= s
            log_p += math.log(s)
    return N * math.log(s0) + log_p + math.log(float(np.trace(p)))


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

