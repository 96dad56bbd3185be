"""Deterministic parameter-grid evaluation, peak detection, and the
free-energy ordering check in the spin-state count.

Grids are linear with inclusive endpoints and finite points.  A sweep lays
out one column per parameter in grid-index order and evaluates the
thermodynamic kernel over them, so a table built twice from the same inputs
is identical.  Grid points are validated as whole columns: a sweep with an
invalid point names the first one in grid-index order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelParams, ThermoState, _as_spin_count, temperature
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

    def __post_init__(self):
        if self.axis not in GRID_AXES:
            raise ValueError(f"axis must be one of {GRID_AXES}, got {self.axis!r}")
        if not self.steps >= 2:
            raise ValueError("steps must be at least 2")
        if not self.min < self.max:
            raise ValueError("min must be strictly less than max")
        width = float(self.max) - float(self.min)
        if not math.isfinite(width):  # linspace would give nan points
            raise ValueError(f"grid width max - min = {width!r} is not finite")
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


def _axis_values(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The column an axis sets (beta for T, integers for q) and a mask of its
    valid points.  GridSpec keeps every point finite and every q point an
    integer >= 2, so only a beta axis or a T axis can hold an invalid point:
    one whose beta is not positive and finite."""
    points = grid.points()
    if grid.axis in ("beta", "T"):
        with np.errstate(divide="ignore", over="ignore"):
            beta = 1.0 / points if grid.axis == "T" else points
        return beta, (beta > 0.0) & (beta < np.inf)
    values = np.rint(points).astype(np.int64) if grid.axis == "q" else points
    return values, np.ones(points.size, dtype=bool)


def _invalid_point(grids, valid) -> ValueError:
    """The error naming the first invalid point in grid-index order; at that
    point, the first axis in grid order that is invalid there."""
    ok = functools.reduce(np.logical_and, np.ix_(*valid))
    index = np.unravel_index(np.argmin(ok), ok.shape)
    grid, i = next((g, i) for g, v, i in zip(grids, valid, index) if not v[i])
    value = float(grid.points()[i])
    # A positive T is invalid only where 1/T overflows.
    name = "beta" if grid.axis == "T" and value > 0.0 else grid.axis
    return ValueError(f"invalid grid point {grid.axis}={value!r}: {name} must be positive and finite")


def _sweep(base_params: ModelParams, base_state: ThermoState | None, grids) -> SweepTable:
    if base_state is None and not any(g.axis in ("beta", "T") for g in grids):
        raise ValueError("a base ThermoState is required unless beta or T is swept")
    values, valid = zip(*map(_axis_values, grids))
    if not all(v.all() for v in valid):
        raise _invalid_point(grids, valid)

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
    qs = [_as_spin_count(q) for q in q_list]
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("q_list must be strictly increasing")
    qa, qb = np.array(qs[:-1])[:, None], np.array(qs[1:])[:, None]
    r = spectrum_core(qa, coupling_exponent(J, h, beta_grid.points())).r
    return bool(np.all(np.log1p((qb - qa) * r / (qa - 1)) > 0.0))
