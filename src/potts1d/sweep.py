"""Deterministic parameter-grid evaluation and peak detection.

Grids are linear with inclusive endpoints and finite points, and a GridSpec
refuses an invalid point when it is built.  A sweep evaluates the
thermodynamic kernel over the grid, each quantity in the shape it varies in,
so a table built twice from the same inputs is identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelParams, ThermoState, check_domain, temperature
from .thermo import ThermoPoint, thermo_arrays

GRID_AXES = ("beta", "T", "h", "J", "q")
OBSERVABLES = ThermoPoint._fields

# The most points one grid or one table may hold, checked before allocating:
# a sweep and its CSV writer peaked at about 144 bytes per point (0.6 GB).
MAX_GRID_POINTS = 2**22


@dataclass(frozen=True)
class GridSpec:
    """A linear grid over one parameter axis, endpoints included, whose
    points all lie in the model's domain (model.check_domain)."""

    axis: str
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if self.axis not in GRID_AXES:
            raise ValueError(f"axis must be one of {GRID_AXES}, got {self.axis!r}")
        if not isinstance(self.steps, (int, np.integer)):
            raise ValueError("steps must be an integer >= 2")
        if not self.steps >= 2:
            raise ValueError("steps must be at least 2")
        if self.steps > MAX_GRID_POINTS:
            raise ValueError(f"steps = {self.steps} exceeds the grid-point cap of {MAX_GRID_POINTS}")
        if not self.min < self.max:
            raise ValueError("min must be strictly less than max")
        width = float(self.max) - float(self.min)
        if not math.isfinite(width):  # linspace would give nan points
            raise ValueError(f"grid width max - min = {width!r} is not finite")
        check_domain(self.axis, self.points())

    def points(self) -> np.ndarray:
        # linspace keeps both endpoints exact.
        return np.linspace(self.min, self.max, self.steps)

    @property
    def parameter(self) -> str:
        """The model parameter the grid sets: beta on a T axis, else its axis."""
        return "beta" if self.axis == "T" else self.axis

    def values(self, points):
        """The parameter at the points: beta = 1/T on a T axis, int64 on a q axis."""
        if self.axis == "T":
            return 1.0 / points
        return np.rint(points).astype(np.int64) if self.axis == "q" else points


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Columns of the grid's shape plus the base context they were built from.

    coords holds one column per axis, and columns maps beta, T, h, J, q, f,
    S, m, chi and C, in that order: each a read-only view of the grid's shape,
    of stride 0 along each axis it does not vary along (.ravel(): row order).
    """

    axes: tuple[GridSpec, ...]
    coords: tuple[np.ndarray, ...]
    columns: dict[str, np.ndarray]
    base_params: ModelParams
    base_state: ThermoState | None

    def __len__(self) -> int:
        return self.coords[0].size


def _sweep(base_params: ModelParams, base_state: ThermoState | None, grids) -> SweepTable:
    parameters = [g.parameter for g in grids]
    if len(set(parameters)) < len(grids):
        raise ValueError(f"axes {' and '.join(g.axis for g in grids)} both set {parameters[-1]}: the grids must set distinct parameters")
    if base_state is None and "beta" not in parameters:
        raise ValueError("a base ThermoState is required unless beta or T is swept")
    shape = tuple(g.steps for g in grids)
    n = math.prod(shape)
    if n > MAX_GRID_POINTS:
        raise ValueError(f"the grid has {n} points, more than the grid-point cap of {MAX_GRID_POINTS}")

    # A base value is 0-d and an axis a sparse line: what does not vary is computed once.
    lines = np.meshgrid(*(g.points() for g in grids), indexing="ij", sparse=True)
    base = dict(asdict(base_params), beta=base_state and base_state.beta)
    base.update((g.parameter, g.values(line)) for g, line in zip(grids, lines))
    beta, h, J, q = (np.asarray(base[name]) for name in ("beta", "h", "J", "q"))
    columns = dict(beta=beta, T=temperature(beta), h=h, J=J, q=q, **thermo_arrays(q, J, h, beta)._asdict())
    columns = {name: np.broadcast_to(c, shape) for name, c in columns.items()}
    coords = tuple(np.broadcast_to(c, shape) for c in lines)
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

