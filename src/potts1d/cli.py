"""Command-line surface: single-point evaluation, 1D sweeps, 2D surfaces,
three-route verification runs, and peak reports, emitted as CSV or JSON.

CSV cells are '%.16e' % v (17 significant digits) with line-feed line
endings, so every double round-trips exactly.  JSON text is what json.dumps
gives, numbers at full precision.  numtext spells the cells byte for byte
as Python does; rows reach the file or stdout's binary buffer as ASCII
bytes, piece by piece, so the whole table is never held.
A JSON config file can mirror any flag; explicit flags override its values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import BinaryIO

from .model import ModelParams, ThermoState
from .oracle import three_route_report
from .sweep import GRID_AXES, OBSERVABLES, GridSpec, SweepTable, find_peak, sweep_1d, sweep_2d
from .thermo import fd_verify, thermo_point


@dataclass
class RunConfig:
    """Validated bundle of one command invocation.  The defaults are the
    flags' defaults, which a command without the flag keeps."""

    command: str
    params: ModelParams | None
    state: ThermoState | None
    grids: tuple[GridSpec, ...]
    out: str | None = None
    format: str = "csv"
    n: int = 6
    tolerance: float = 1e-10
    observable: str = "chi"


def _rows_text(table: SweepTable, shortest: bool, before: str, between: str, after: str):
    # The columns keep the grid's shape.  numtext is imported here, so that
    # point, verify and peaks, which write no table, do not load it (a process
    # without a bytecode cache spends about 4 ms compiling it).
    from . import numtext

    columns = table.coords + tuple(table.columns.values())
    spell = numtext.shortest if shortest else numtext.e16
    return numtext.rows_text(columns, spell, before, between, after)


def table_columns(table: SweepTable) -> list[str]:
    return [g.axis for g in table.axes] + list(table.columns)


def table_to_csv(table: SweepTable, out: BinaryIO) -> None:
    """Write the header and one row per grid point, cells as '%.16e' % v."""
    out.write((",".join(table_columns(table)) + "\n").encode("ascii"))
    for text in _rows_text(table, False, "", ",", "\n"):
        out.write(text)


def table_to_json(table: SweepTable, out: BinaryIO) -> None:
    """Write the text json.dumps gives for {"metadata": ..., "rows": [...]}.

    The metadata's base value of a swept parameter is null: the grid, not
    the base, gives its values."""
    base = dict(asdict(table.base_params), beta=None if table.base_state is None else table.base_state.beta)
    base.update((g.parameter, None) for g in table.axes)
    meta = {
        "base": base,
        "grids": [asdict(g) for g in table.axes],
        "columns": table_columns(table),
    }
    out.write(json.dumps({"metadata": meta, "rows": []})[:-2].encode("ascii"))
    pieces = _rows_text(table, True, ", [", ", ", "]")
    out.write(next(pieces)[2:])  # no separator before the first row
    for text in pieces:
        out.write(text)
    out.write(b"]}")


class _Stdout:
    """sys.stdout as a binary stream: every byte goes to its buffer (a raw file,
    whose write may take fewer, under PYTHONUNBUFFERED), or as text if it has none."""

    def write(self, data: bytes) -> None:
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(data.decode("ascii"))
            return
        view = memoryview(data)
        while view:
            view = view[buffer.write(view):]


def _add_model_flags(sub):
    sub.add_argument("--q", type=int, help="spin-state count (>= 2)")
    sub.add_argument("--J", type=float, help="exchange coupling")
    sub.add_argument("--h", type=float, help="agreement field")
    thermal = sub.add_mutually_exclusive_group()
    thermal.add_argument("--beta", type=float, help="inverse temperature")
    thermal.add_argument("--T", type=float, help="temperature (alternative to --beta)")
    sub.add_argument("--config", help="JSON file mirroring flags; flags override")


_GRID_FLAGS = ("axis", "min", "max", "steps")  # GridSpec's fields, in order


def _add_grid_flags(sub, suffix: str):
    grid = sub.add_argument_group("second grid" if suffix else "grid")
    grid.add_argument(f"--axis{suffix}", choices=GRID_AXES, metavar=f"AXIS{suffix}", help="grid axis: %(choices)s")
    grid.add_argument(f"--min{suffix}", type=float, help="grid lower endpoint")
    grid.add_argument(f"--max{suffix}", type=float, help="grid upper endpoint")
    grid.add_argument(f"--steps{suffix}", type=int, help="number of grid points (>= 2)")


def _add_output_flags(sub):
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=RunConfig.format,
                     help="table format (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """argparse, adapted in two ways; parsers of the subcommands are built
    from the same class.  Help is written and flushed directly, since
    argparse's helper swallows OSError, so a failed write reaches main.  And
    an argument that float() reads is a value, never an option."""

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()

    def _parse_optional(self, arg_string):
        # Overrides a private argparse method, which takes an argument that
        # starts with '-' for an option unless it looks like -12 or -1.5, so
        # that '--J -1e-05' and '--h -inf' failed.  tests/test_cli.py pins it.
        # No number starts with '--', so a flag pays nothing for the check.
        if arg_string.startswith("-") and not arg_string.startswith("--"):
            try:
                float(arg_string)
                return None  # a value
            except ValueError:
                pass
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves no state in it."""
    parser = _Parser(
        prog="potts1d",
        description="Exact transfer-matrix thermodynamics of the 1D q-state "
        "chain with agreement-coupled exchange and field terms.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("point", help="evaluate f, S, m, chi, C at one point")
    _add_model_flags(p)

    p = commands.add_parser("sweep", help="1D parameter sweep")
    _add_model_flags(p)
    _add_grid_flags(p, "")
    _add_output_flags(p)

    p = commands.add_parser("surface", help="2D parameter grid")
    _add_model_flags(p)
    _add_grid_flags(p, "")
    _add_grid_flags(p, "2")
    _add_output_flags(p)

    p = commands.add_parser("verify", help="three-route partition check plus derivative check")
    _add_model_flags(p)
    p.add_argument("--n", type=int, default=RunConfig.n,
                   help="chain length for the oracle routes (default %(default)s)")
    p.add_argument("--tolerance", type=float, default=RunConfig.tolerance,
                   help="relative tolerance (default %(default)s)")

    p = commands.add_parser("peaks", help="grid peak of one observable")
    _add_model_flags(p)
    _add_grid_flags(p, "")
    p.add_argument("--observable", choices=OBSERVABLES, default=RunConfig.observable,
                   help="observable to maximize (default %(default)s)")

    return parser


def _config_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> list[str]:
    """The config file's values as --key=value flags.  Parsed ahead of the
    explicit flags, each goes through its flag's type and choices, and an
    explicit flag, parsed later, wins."""
    try:
        with open(args.config) as fh:
            file_values = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        parser.error(f"cannot read config file: {err}")
    if not isinstance(file_values, dict):
        parser.error("config file must hold a JSON object")
    # beta and T name the same quantity, so either flag overrides both keys
    thermal_flag_given = args.beta is not None or args.T is not None
    flags = []
    for key, value in file_values.items():
        if key in ("command", "config") or not hasattr(args, key):
            parser.error(f"unknown config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            parser.error(f"config key {key!r} must hold a string or a number, got {json.dumps(value)}")
        if not (key in ("beta", "T") and thermal_flag_given):
            flags.append(f"--{key}={value}")
    return flags


def parse_run_config(argv) -> RunConfig:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv[:1] + _config_flags(args, parser) + argv[1:])
    given = vars(args)

    # A command needs its grid flags, and each of q, J, h and (beta or T)
    # that no grid axis sets.  Complete grids are checked (exit 1) before the
    # missing model flags are reported.
    suffixes = [s for s in ("", "2") if f"axis{s}" in given]
    axes = {given[f"axis{s}"] for s in suffixes}
    needs = [(k + s,) for s in suffixes for k in _GRID_FLAGS]
    needs += [need for need in (("q",), ("J",), ("h",), ("beta", "T")) if axes.isdisjoint(need)]
    missing = [" or ".join(f"--{k}" for k in need) for need in needs if all(given[k] is None for k in need)]
    grid_values = [[given[k + s] for k in _GRID_FLAGS] for s in suffixes]
    grids = () if any(None in v for v in grid_values) else tuple(GridSpec(*v) for v in grid_values)
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")

    swept = {g.axis: g.min for g in grids}  # stands in for a base the sweep replaces
    params = ModelParams(*(swept[k] if given[k] is None else given[k] for k in ("q", "J", "h")))
    state = None
    if args.beta is not None:
        state = ThermoState(args.beta)
    elif args.T is not None:
        state = ThermoState.from_temperature(args.T)
    # a RunConfig field that the command has no flag for keeps its default
    flags = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
    config = RunConfig(params=params, state=state, grids=grids, **flags)
    if not 0.0 <= config.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {config.tolerance!r}")
    return config


def run(config: RunConfig) -> int:
    """Execute a validated command; returns the process exit status."""
    if config.command == "point":
        for name, value in thermo_point(config.params, config.state)._asdict().items():
            print(f"{name} = {value!r}")
        return 0

    if config.command in ("sweep", "surface"):
        sweep = sweep_1d if config.command == "sweep" else sweep_2d
        table = sweep(config.params, config.state, *config.grids)
        write = table_to_csv if config.format == "csv" else table_to_json
        if config.out is None:
            sys.stdout.flush()  # text printed before goes first
            write(table, _Stdout())
        else:
            try:
                fh = open(config.out, "wb")
            except OSError as err:
                raise ValueError(f"cannot open output file {config.out!r}: {err.strerror}") from err
            try:
                with fh:
                    write(table, fh)
            except OSError as err:
                raise ValueError(f"cannot write output file {config.out!r}: {err.strerror}") from err
        return 0

    if config.command == "peaks":
        table = sweep_1d(config.params, config.state, config.grids[0])
        coord, value = find_peak(table, config.observable)
        print(f"peak[{config.observable}] {config.grids[0].axis} = {coord!r} value = {value!r}")
        return 0

    if config.command == "verify":
        report = three_route_report(config.params, config.state, config.n)
        fd = fd_verify(config.params, config.state)
        print(f"ln_Z enumeration  = {report.ln_Z_enumeration!r}")
        print(f"ln_Z trace power  = {report.ln_Z_trace_power!r}")
        print(f"ln_Z eigen sum    = {report.ln_Z_eigen!r}")
        print(f"finite-N free energy (N={config.n}) = {report.finite_N_free_energy!r}")
        print(f"max relative discrepancy = {report.max_relative_discrepancy!r}")
        for name, err in fd.errors().items():
            print(f"fd check {name}: relative error {err!r}")
        ok = report.max_relative_discrepancy <= config.tolerance and fd.passed
        print("verify: PASS" if ok else "verify: FAIL")
        return 0 if ok else 1

    raise ValueError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    try:
        config = parse_run_config(argv)
        status = run(config)
        sys.stdout.flush()  # a failed write shows here, not at interpreter exit
        return status
    except SystemExit as err:
        # argparse uses exit status 2 for usage errors
        return int(err.code) if err.code is not None else 0
    except (ValueError, OverflowError) as err:
        print(str(err), file=sys.stderr)
        return 1
    except OSError as err:
        # Only stdout is written unguarded: its reader has gone or its device
        # is full.  Point it at devnull, so that the interpreter's last flush
        # of what is still buffered cannot fail as well.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(err, BrokenPipeError):
            print(f"cannot write standard output: {err.strerror}", file=sys.stderr)
        return 1

