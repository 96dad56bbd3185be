"""Cross-checks of the closed forms: the dense transfer matrix and the
routes the paper derives them by, exhaustive enumeration, and the report
that compares three routes to ln Z_N.

TransferMatrix is the q x q matrix itself.  Power iteration, the
partial-partition recursion and trace powers work on its dense form;
closed_form_spectrum and minor_ratio give the two eigenvalues in value
form, which overflow where the log forms in transfer do not, for those
routes to be compared against.  The numeric routes never share arithmetic
with the closed forms they check.  Enumeration gives each of the q^N
periodic chains its own count of unequal bonds, built one site at a time so
that chains sharing a prefix share the work, and then weights the exact
histogram of those counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ThermoState
from .thermo import coupling_exponent
from .transfer import log_dominant_eigenvalue, partition_function

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


def refine_peak(fn, lo: float, hi: float, iters: int = 90) -> tuple[float, float]:
    """Golden-section maximizer of a unimodal callable on [lo, hi]."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
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
