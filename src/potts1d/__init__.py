"""Exact thermodynamics of a one-dimensional q-state chain whose exchange
and field terms both couple to nearest-neighbour spin agreement.

The package exports the user-facing API; the rest is imported from its
module (model, transfer, thermo, sweep, oracle, numtext, cli)."""

from .model import ModelParams, ThermoState
from .oracle import three_route_report
from .sweep import GridSpec, SweepTable, find_peak, sweep_1d, sweep_2d
from .thermo import entropy, fd_verify, free_energy, heat_capacity, magnetization, susceptibility, thermo_point

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ThermoState",
    "GridSpec",
    "SweepTable",
    "sweep_1d",
    "sweep_2d",
    "find_peak",
    "thermo_point",
    "free_energy",
    "entropy",
    "magnetization",
    "susceptibility",
    "heat_capacity",
    "fd_verify",
    "three_route_report",
    "__version__",
]
