"""Deterministic parameter-grid evaluation, peak detection, and the
free-energy ordering check in the spin-state count.

Grids are linear with inclusive endpoints.  A sweep lays out one column per
parameter in grid-index order and evaluates the thermodynamic kernel over
them, so a table built twice from the same inputs is identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .model import ModelParams, ThermoState, temperature
from .thermo import coupling_exponent, spectrum_core, thermo_arrays

GRID_AXES = ("beta", "T", "h", "J", "q")
OBSERVABLES = ("f", "S", "m", "chi", "C")


@dataclass(frozen=True)
class GridSpec:
    """A linear grid over one parameter axis, endpoints included."""

    axis: str
    min: float
    max: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.axis not in GRID_AXES:
            raise ValueError(f"axis must be one of {GRID_AXES}, got {self.axis!r}")
        if self.scale != "linear":
            raise ValueError("only linear grids are supported")
        if not self.steps >= 2:
            raise ValueError("steps must be at least 2")
        if not self.min < self.max:
            raise ValueError("min must be strictly less than max")
        if self.axis == "q":
            for p in self.points():
                if not float(p).is_integer() or p < 2:
                    raise ValueError(f"q grid point {p!r} is not an integer >= 2")

    def points(self) -> np.ndarray:
        # linspace keeps both endpoints exact.
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Columns in grid-index order plus the base context they were built from.

    coords holds one column per axis.  columns maps beta, T, h, J, q, f, S,
    m, chi and C, in that order, to one value per row; a parameter the grid
    does not vary is a broadcast view of its base value.
    """

    axes: tuple[GridSpec, ...]
    coords: tuple[np.ndarray, ...]
    columns: dict[str, np.ndarray]
    base_params: ModelParams
    base_state: ThermoState | None

    def __len__(self) -> int:
        return self.coords[0].size


def _apply_axis(params: ModelParams, state: ThermoState | None, axis: str, value: float):
    try:
        if axis == "beta":
            return params, ThermoState(value)
        if axis == "T":
            return params, ThermoState.from_temperature(value)
        if axis == "q":
            return replace(params, q=int(round(value))), state
        return replace(params, **{axis: value}), state
    except ValueError as err:
        raise ValueError(f"invalid grid point {axis}={value!r}: {err}") from err


def _axis_values(grid: GridSpec) -> np.ndarray | None:
    """The column an axis sets (beta for T, integers for q); None if a point is invalid."""
    if grid.axis == "q":
        return np.rint(grid.points()).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        values = 1.0 / grid.points() if grid.axis == "T" else grid.points()
    lowest = 0.0 if grid.axis in ("beta", "T") else -np.inf
    return values if np.all((values > lowest) & (values < np.inf)) else None


def _sweep(base_params: ModelParams, base_state: ThermoState | None, grids) -> SweepTable:
    if base_state is None and not any(g.axis in ("beta", "T") for g in grids):
        raise ValueError("a base ThermoState is required unless beta or T is swept")
    values = [_axis_values(g) for g in grids]
    if any(v is None for v in values):
        # Walk the grid point by point so the scalar constructors name the
        # first invalid point in grid-index order.
        for point in itertools.product(*(g.points() for g in grids)):
            p, s = base_params, base_state
            for g, v in zip(grids, point):
                p, s = _apply_axis(p, s, g.axis, float(v))

    base = dict(asdict(base_params), beta=base_state and base_state.beta)
    for g, column in zip(grids, np.meshgrid(*values, indexing="ij")):  # later axes override earlier ones
        base["beta" if g.axis == "T" else g.axis] = column.ravel()
    n = math.prod(g.steps for g in grids)
    beta, h, J, q = (np.broadcast_to(base[name], n) for name in ("beta", "h", "J", "q"))
    columns = dict(beta=beta, T=temperature(beta), h=h, J=J, q=q, **thermo_arrays(q, J, h, beta)._asdict())
    coords = tuple(c.ravel() for c in np.meshgrid(*(g.points() for g in grids), indexing="ij"))
    return SweepTable(tuple(grids), coords, columns, base_params, base_state)


def sweep_1d(base_params: ModelParams, base_state: ThermoState | None, grid: GridSpec) -> SweepTable:
    """Evaluate all five thermodynamic functions along one grid axis."""
    return _sweep(base_params, base_state, (grid,))


def sweep_2d(
    base_params: ModelParams,
    base_state: ThermoState | None,
    grid_x: GridSpec,
    grid_y: GridSpec,
) -> SweepTable:
    """Evaluate a 2D grid in row-major order, the x coordinate varying slowest."""
    if grid_x.axis == grid_y.axis:
        raise ValueError("the two grids must use distinct axes")
    return _sweep(base_params, base_state, (grid_x, grid_y))


def find_peak(table: SweepTable, observable: str) -> tuple[float, float]:
    """Grid point maximizing one observable of a 1D table.

    Ties are broken toward the smallest grid index.
    """
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}, got {observable!r}")
    if len(table.axes) != 1:
        raise ValueError("find_peak needs a 1D table")
    values = table.columns[observable]
    i = int(np.argmax(values))  # the first index of the maximum
    return float(table.coords[0][i]), float(values[i])


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
    qs = [int(q) for q in q_list]
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_list must be strictly increasing")
    if any(q < 2 for q in qs):
        raise ValueError("q values must be at least 2")
    qa, qb = np.array(qs[:-1])[:, None], np.array(qs[1:])[:, None]
    r = spectrum_core(qa, coupling_exponent(J, h, beta_grid.points())).r
    return bool(np.all(np.log1p((qb - qa) * r / (qa - 1)) > 0.0))
