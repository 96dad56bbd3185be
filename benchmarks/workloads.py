"""Seeded request generators for the two benchmark workloads.

A request is the argv list handed to ``potts1d.cli.main`` (or to
``python -m potts1d``) plus what the checker needs to judge its output.
The program receives only the argv.  Request size is fixed within a
workload; only the physical parameters vary with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("surface", "verify")

# The README surface: 200 x 121 points, first axis varying slowest.
SURFACE_STEPS = (200, 121)

# Axis pairs of the surface workload, each with its grid ranges and the
# model flags the command still needs.  beta x h is the README's shape.
SURFACE_AXES = (
    (("beta", 0.001, 30.0), ("h", -3.0, 3.0), ("q", "J")),
    (("T", 0.05, 20.0), ("J", -12.0, 12.0), ("q", "h")),
    (("h", -3.0, 3.0), ("J", -12.0, 12.0), ("q", "beta")),
)
SURFACE_FORMATS = ("csv", "json")

# One surface cycle holds every (axis pair, format) combination once, in a
# seeded order, so every run sees the same mix.
CYCLE = {"surface": len(SURFACE_AXES) * len(SURFACE_FORMATS), "verify": 1}

# verify: q = 3 and n = 13 give 3**13 = 1,594,323 configurations, the largest
# chain under the 2,000,000-configuration enumeration cap at q = 3.
VERIFY_Q = 3
VERIFY_N = 13
# verify builds the dense transfer matrix, which the program refuses by
# design when |h + J*beta| exceeds transfer.DENSE_EXPONENT_LIMIT; such draws
# (about 1 in 640) are drawn again.  Nothing else is excluded.
DENSE_EXPONENT_LIMIT = 300.0

# The valid domain the model parameters are drawn from.
Q_RANGE = (2, 64)
J_RANGE = (-12.0, 12.0)
H_RANGE = (-3.0, 3.0)
BETA_RANGE = (1e-3, 30.0)


@dataclass
class Request:
    workload: str
    argv: list[str]
    q: int
    J: float | None = None
    h: float | None = None
    beta: float | None = None
    # surface only: the two (axis, min, max, steps) grids, format and path
    grids: tuple = ()
    format: str | None = None
    out: str | None = None
    # seed for the rows of this request that are checked against mpmath
    check_seed: int = 0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _model(rng: random.Random) -> dict:
    return {
        "q": rng.randint(*Q_RANGE),
        "J": rng.uniform(*J_RANGE),
        "h": rng.uniform(*H_RANGE),
        "beta": _log_uniform(rng, *BETA_RANGE),
    }


def _flags(values: dict, names) -> list[str]:
    argv = []
    for name in names:
        v = values[name]
        argv += [f"--{name}", str(v) if name == "q" else repr(v)]
    return argv


def _verify(rng: random.Random) -> Request:
    m = _model(rng)
    while abs(m["h"] + m["J"] * m["beta"]) > DENSE_EXPONENT_LIMIT:
        m = _model(rng)
    m["q"] = VERIFY_Q
    argv = ["verify"] + _flags(m, ("q", "J", "h", "beta")) + ["--n", str(VERIFY_N)]
    return Request("verify", argv, VERIFY_Q, m["J"], m["h"], m["beta"])


def _surface(rng: random.Random, out_dir: str, combo: int) -> Request:
    (ax, ax_lo, ax_hi), (ay, ay_lo, ay_hi), needed = SURFACE_AXES[combo // len(SURFACE_FORMATS)]
    fmt = SURFACE_FORMATS[combo % len(SURFACE_FORMATS)]
    m = _model(rng)
    out = f"{out_dir}/surface.{fmt}"
    nx, ny = SURFACE_STEPS
    argv = (
        ["surface"]
        + _flags(m, needed)
        + ["--axis", ax, "--min", repr(ax_lo), "--max", repr(ax_hi), "--steps", str(nx)]
        + ["--axis2", ay, "--min2", repr(ay_lo), "--max2", repr(ay_hi), "--steps2", str(ny)]
        + ["--out", out, "--format", fmt]
    )
    base = {k: m[k] for k in needed}
    return Request(
        "surface",
        argv,
        base["q"],
        base.get("J"),
        base.get("h"),
        base.get("beta"),
        grids=((ax, ax_lo, ax_hi, nx), (ay, ay_lo, ay_hi, ny)),
        format=fmt,
        out=out,
        check_seed=rng.getrandbits(32),
    )


def requests(workload: str, seed: int, stream: str, out_dir: str):
    """Endless seeded request stream; `stream` separates independent samples
    (warm-up, in-process loop, cold processes, set-up) of one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{stream}")
    while True:
        if workload == "surface":
            order = list(range(CYCLE["surface"]))
            rng.shuffle(order)
            for combo in order:
                yield _surface(rng, out_dir, combo)
        else:
            yield _verify(rng)
