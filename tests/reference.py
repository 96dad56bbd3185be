"""Reference forms that only the tests use: a chain-by-chain energy for the
enumeration, the value-form spectrum the dense eigendecomposition is
compared against, the field where m vanishes, the free-energy ordering in
q, a golden-section peak search, the finite-N free energy, numtext's
tables built by Python loops, and the four tables whose bytes are pinned.
None of them is run by a command, so none of them lives in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from potts1d import GridSpec, ModelParams, ThermoState, numtext, oracle, sweep_1d, sweep_2d
from potts1d.model import check_domain, require_finite
from potts1d.thermo import coupling_exponent, spectrum_core
from potts1d.transfer import partition_function


@dataclass(frozen=True)
class SpinConfig:
    """A periodic chain of N >= 2 spins; site N+1 is identified with site 1."""

    sites: tuple[int, ...]

    def __post_init__(self):
        for s in self.sites:
            if int(s) != s or s < 1:
                raise ValueError(f"spin {s!r} outside 1..q")
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if len(self.sites) < 2:
            raise ValueError("a periodic chain needs at least 2 sites")

    def __len__(self) -> int:
        return len(self.sites)


def config_energy(config: SpinConfig, params: ModelParams, state: ThermoState) -> float:
    """Energy of a periodic configuration: -(J + h/beta) times the agreement sum.

    Each bond adds -1 to the agreement sum when its two spins are equal and
    +1 when they differ, so exp(-beta * E) is the product over the N bonds
    of exp((beta*J + h) * (+-1)), which is the identity the enumeration
    oracle relies on.  Spins must lie in 1..q.
    """
    sites = config.sites
    if max(sites) > params.q:
        raise ValueError(f"spin {max(sites)} outside 1..{params.q}")
    agreement = sum(1.0 if a != b else -1.0 for a, b in zip(sites, sites[1:] + sites[:1]))
    energy = -(params.J + params.h / state.beta) * agreement  # h / beta overflows at a tiny beta
    message = "energy -(J + h/beta) * (agreement sum) overflows"
    return require_finite(energy, message, J=params.J, h=params.h, beta=state.beta)


class EigenSpectrum(NamedTuple):
    """Both distinct eigenvalues of the transfer matrix.

    lambda_minor has multiplicity q - 1 and may be negative (it vanishes
    exactly when h + J*beta = 0); lambda_max is simple and positive.
    """

    lambda_minor: float
    lambda_max: float


def closed_form_spectrum(params: ModelParams, state: ThermoState) -> EigenSpectrum:
    """Exact spectrum of the transfer matrix in value form.

    lambda_minor = exp(-u) - exp(u) = -2 sinh(u) with multiplicity q - 1 and
    lambda_max = exp(-u) + (q-1) exp(u), the exp of the kernel's ln
    lambda_max.  Both saturate to +-inf once they leave double range.
    """
    u = coupling_exponent(params.J, params.h, state.beta)
    try:
        minor = -2.0 * math.sinh(u)
    except OverflowError:
        minor = math.inf if u < 0.0 else -math.inf
    try:
        lam = math.exp(spectrum_core(params.q, u).log_lambda_max)
    except OverflowError:
        lam = math.inf
    return EigenSpectrum(lambda_minor=minor, lambda_max=lam)


def magnetization_zero_point(params: ModelParams, state: ThermoState) -> float:
    """The field h* = -(J*beta + ln(q-1)/2) where the magnetization vanishes.

    The susceptibility attains its maximum value 1/beta at the same field.
    """
    return -(params.J * state.beta + 0.5 * math.log(params.q - 1))


def q_ordering_check(beta_grid: GridSpec, h: float, J: float, q_list) -> bool:
    """True iff the free energy strictly decreases along q_list at every beta.

    The pairwise difference of log dominant eigenvalues is evaluated in the
    cancellation-free form log1p((q' - q) r / (q - 1)), with r the kernel's
    sigmoid at q, so strictness is decided on the exact increment rather
    than on subtractions of nearly equal free energies.  Increments whose r
    underflows (x + ln(q-1) < -745) report as not strictly decreasing.
    """
    if beta_grid.axis != "beta":
        raise ValueError("q_ordering_check needs a beta grid")
    qs = [check_domain("q", q).item() for q in q_list]
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_list must be strictly increasing")
    qa, qb = np.array(qs[:-1])[:, None], np.array(qs[1:])[:, None]
    r = spectrum_core(qa, coupling_exponent(J, h, beta_grid.points())).r
    return bool(np.all(np.log1p((qb - qa) * r / (qa - 1)) > 0.0))


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


def finite_N_free_energy(params: ModelParams, state: ThermoState, N: int) -> float:
    """Free energy per site of the N-site chain, -log(Z_N) / (beta * N): the
    value three_route_report gives, at one N."""
    return oracle._free_energy_per_site(params, state, N, partition_function(params, state, N))


def numtext_tables():
    """numtext._tables() built entry by entry with Python integers, bytes and
    loops: the power-of-ten table (hi and its halves) and the byte tables of
    the field layout."""
    WIDTH, _E_MIN, _E_MAX = numtext.WIDTH, numtext._E_MIN, numtext._E_MAX
    hi, lo, t = [], [], []
    for s in range(numtext._S_MIN, numtext._S_MAX + 1):
        # x = floor(10**s * 2**(120 - t)) with 10**s / 2**t in [1, 2)
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        t.append(num.bit_length() - den.bit_length() - (s < 0))
        x = (num << max(0, 120 - t[-1])) // (den << max(0, t[-1] - 120))
        h = float(x)
        hi.append(h)
        lo.append(float(x - int(h)))
    hi, lo, t = np.ldexp(np.array(hi), -120), np.ldexp(np.array(lo), -120), np.array(t, dtype=np.int64)
    split = []
    for h in hi.tolist():  # hi, then its halves of 26 bits (Veltkamp's split)
        c = 134217729.0 * h
        split.append((h, c - (c - h), h - (c - (c - h))))
    hi = np.array(split).T.copy()

    def words(texts):  # byte strings of up to 8 bytes as little-endian words
        return np.array([b.ljust(8, b"\0") for b in texts], dtype="S8").view("<u8").astype(np.uint64)

    # the digits of each group 0000..9999, in the low half of a word
    quad = words(b"%04d" % v for v in range(10_000))
    # 'e', the exponent's sign and digits, from byte 2 of a word
    suffix = words(b"\0\0e%+03d" % e for e in range(_E_MIN, _E_MAX + 1))

    def field(text=b"", at=0, spans=()):  # a field of `text` at byte `at`, 0xff over spans
        b = bytearray(WIDTH)
        b[at:at + len(text)] = text
        for start, end in spans:
            b[start:end] = b"\xff" * (end - start)
        return list(np.frombuffer(bytes(b), dtype="<u8"))

    # A `shortest` field by case: each digit count c of d1.d2...dc for each
    # notation, scientific or 0.d1d2...dc * 10**d with d = -3..16.  It keeps
    # the bytes `keep` of the field F of its digits (d1...d17 from byte 1),
    # takes the bytes `moved` of F shifted up `shift` bits, and adds `text`: a
    # point or a 0.000 prefix.
    shape = []
    for d in [None] + list(range(-3, 17)):
        for c in range(1, 18):
            if d is None:  # d1[.d2...dc]e+XX: the digits after d1 move up a byte, those not shown are cleared
                keep, moved, text, shift = [(0, 2), (19, WIDTH)], [(3, c + 2)], field(b"." * (c > 1), 2), 8
            elif d > 0:  # d1...dd.d(d+1)...: the digits after the point move up a byte; .0 is digit d + 1
                keep, moved, text, shift = [(0, d + 1)], [(d + 2, max(c, d + 1) + 2)], field(b".", d + 1), 8
            else:  # 0.000d1d2...: the digits move up past the prefix
                keep, moved = [(0, 1)], [(3 - d, c + 3 - d)]
                text, shift = field(b"0." + b"0" * -d, 1), 8 * (2 - d)
            shape.append(field(spans=keep) + field(spans=moved) + text + [shift])
    keep, moved, text, (shift,) = np.split(np.array(shape, dtype=np.uint64).T.copy(), [3, 6, 9])
    # by the row of the exponent d - 1: the first case of its notation, less one
    notation = np.array([17 * (-3 <= d <= 16 and d + 4) - 1 for d in range(_E_MIN + 1, _E_MAX + 2)])
    return hi, lo, t, quad, suffix, keep, moved, text, shift, notation


def pinned_tables():
    """The three axis pairs of the benchmark's 200 x 121 surfaces and a 1-D
    sweep, at one base point: the tables whose bytes test_cli pins and whose
    cells crosscheck_kernel samples.  Smaller grids miss numpy's long-array
    SIMD loops, so the sizes stay."""
    base = ModelParams(7, -0.7, 0.3), ThermoState(1.3)
    return {
        "beta x h": sweep_2d(*base, GridSpec("beta", 0.001, 30.0, 200), GridSpec("h", -3.0, 3.0, 121)),
        "T x J": sweep_2d(*base, GridSpec("T", 0.05, 20.0, 200), GridSpec("J", -12.0, 12.0, 121)),
        "h x J": sweep_2d(*base, GridSpec("h", -3.0, 3.0, 200), GridSpec("J", -12.0, 12.0, 121)),
        "T": sweep_1d(*base, GridSpec("T", 0.05, 20.0, 5000)),
    }
