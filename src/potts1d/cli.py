"""Command-line surface: single-point evaluation, 1D sweeps, 2D surfaces,
three-route verification runs, and peak reports, emitted as CSV or JSON.

CSV cells are '%.16e' % v (17 significant digits) with line-feed line
endings, so every double round-trips exactly.  JSON text is what json.dumps
gives, numbers at full precision.  Cells are spelled by numtext, whole
arrays at a time and byte for byte as Python spells them: a column that
repeats over the grid once per value along its grid line, the others in
blocks of 1,024 rows.  Text is written in pieces of 256 rows as it is made,
so the whole table is never held as text.  A JSON config file can mirror any
flag; explicit flags take precedence over file values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import TextIO

from .model import ModelParams, ThermoState
from .oracle import three_route_report
from .sweep import GridSpec, SweepTable, find_peak, sweep_1d, sweep_2d
from .thermo import fd_verify, thermo_point


@dataclass
class RunConfig:
    """Validated bundle of one command invocation."""

    command: str
    params: ModelParams | None
    state: ThermoState | None
    grids: tuple[GridSpec, ...]
    out: str | None
    format: str
    n: int
    tolerance: float
    observable: str


def _rows_text(table: SweepTable, shortest: bool, before: str, between: str, after: str):
    # Imported here, so that point, verify and peaks, which write no table,
    # do not load it: a process that compiles from source (no bytecode
    # cache) spends about 4 ms compiling it.
    from . import numtext

    columns = table.coords + tuple(table.columns.values())
    spell = numtext.shortest if shortest else numtext.e16
    return numtext.rows_text(columns, tuple(g.steps for g in table.axes), spell, before, between, after)


def table_columns(table: SweepTable) -> list[str]:
    return [g.axis for g in table.axes] + list(table.columns)


def table_to_csv(table: SweepTable, out: TextIO) -> None:
    """Write the header and one row per grid point, cells as '%.16e' % v."""
    out.write(",".join(table_columns(table)) + "\n")
    for text in _rows_text(table, False, "", ",", "\n"):
        out.write(text)


def table_to_json(table: SweepTable, out: TextIO) -> None:
    """Write the text json.dumps gives for {"metadata": ..., "rows": [...]}.

    The metadata's base value of a swept parameter is null: the grid, not
    the base, gives its values."""
    base = dict(asdict(table.base_params), beta=None if table.base_state is None else table.base_state.beta)
    for g in table.axes:
        base["beta" if g.axis == "T" else g.axis] = None
    meta = {
        "base": base,
        "grids": [asdict(g) for g in table.axes],
        "columns": table_columns(table),
    }
    out.write(json.dumps({"metadata": meta, "rows": []})[:-2])
    pieces = _rows_text(table, True, ", [", ", ", "]")
    out.write(next(pieces)[2:])  # no separator before the first row
    for text in pieces:
        out.write(text)
    out.write("]}")


def _add_model_flags(sub):
    sub.add_argument("--q", type=int, default=None, help="spin-state count (>= 2)")
    sub.add_argument("--J", type=float, default=None, help="exchange coupling")
    sub.add_argument("--h", type=float, default=None, help="agreement field")
    sub.add_argument("--beta", type=float, default=None, help="inverse temperature")
    sub.add_argument("--T", type=float, default=None, help="temperature (alternative to --beta)")
    sub.add_argument("--config", default=None, help="JSON file mirroring flags; flags override")


def _add_grid_flags(sub, second: bool = False):
    sub.add_argument("--axis", default=None, help="grid axis: beta, T, h, J or q")
    sub.add_argument("--min", type=float, default=None, help="grid lower endpoint")
    sub.add_argument("--max", type=float, default=None, help="grid upper endpoint")
    sub.add_argument("--steps", type=int, default=None, help="number of grid points (>= 2)")
    if second:
        sub.add_argument("--axis2", default=None, help="second grid axis")
        sub.add_argument("--min2", type=float, default=None)
        sub.add_argument("--max2", type=float, default=None)
        sub.add_argument("--steps2", type=int, default=None)


def _add_output_flags(sub):
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)


class _Parser(argparse.ArgumentParser):
    """argparse writes its help through a helper that swallows OSError; this
    writes and flushes it directly, so a failed write reaches main.  Parsers
    of the subcommands are built from the same class."""

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


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
    _add_grid_flags(p)
    _add_output_flags(p)

    p = commands.add_parser("surface", help="2D parameter grid")
    _add_model_flags(p)
    _add_grid_flags(p, second=True)
    _add_output_flags(p)

    p = commands.add_parser("verify", help="three-route partition check plus derivative check")
    _add_model_flags(p)
    p.add_argument("--n", type=int, default=None, help="chain length for the oracle routes (default 6)")
    p.add_argument("--tolerance", type=float, default=None, help="relative tolerance (default 1e-10)")

    p = commands.add_parser("peaks", help="grid peak of one observable")
    _add_model_flags(p)
    _add_grid_flags(p)
    p.add_argument(
        "--observable",
        choices=("f", "S", "m", "chi", "C"),
        default=None,
        help="observable to maximize (default chi)",
    )

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
        if not (key in ("beta", "T") and thermal_flag_given):
            flags.append(f"--{key}={value}")
    return flags


def _resolve_state(args, parser, required: bool) -> ThermoState | None:
    if args.beta is not None and args.T is not None:
        parser.error("give exactly one of --beta / --T")
    if args.beta is not None:
        return ThermoState(args.beta)
    if args.T is not None:
        return ThermoState.from_temperature(args.T)
    if required:
        parser.error("one of --beta / --T is required")
    return None


def _resolve_params(args, parser, skip: set[str]) -> ModelParams:
    values = {}
    for name, placeholder in (("q", 2), ("J", 0.0), ("h", 0.0)):
        values[name] = getattr(args, name)
        if values[name] is None:
            if name not in skip:
                parser.error(f"--{name} is required")
            values[name] = placeholder  # replaced by the sweep axis
    return ModelParams(**values)


def _resolve_grid(args, parser, suffix: str = "") -> GridSpec:
    missing = [f"--{k}{suffix}" for k in ("axis", "min", "max", "steps")
               if getattr(args, k + suffix) is None]
    if missing:
        parser.error(f"missing grid flags: {', '.join(missing)}")
    return GridSpec(
        axis=getattr(args, "axis" + suffix),
        min=getattr(args, "min" + suffix),
        max=getattr(args, "max" + suffix),
        steps=getattr(args, "steps" + suffix),
    )


def parse_run_config(argv) -> RunConfig:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is not None:
        args = parser.parse_args(argv[:1] + _config_flags(args, parser) + argv[1:])
    command = args.command

    grids: tuple[GridSpec, ...] = ()
    if command in ("sweep", "peaks", "surface"):
        grids = (_resolve_grid(args, parser),)
    if command == "surface":
        grids += (_resolve_grid(args, parser, suffix="2"),)
    params = _resolve_params(args, parser, skip={g.axis for g in grids})
    state = _resolve_state(args, parser, required=not any(g.axis in ("beta", "T") for g in grids))

    def _default(name, fallback):
        value = getattr(args, name, None)
        return fallback if value is None else value

    tolerance = _default("tolerance", 1e-10)
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    return RunConfig(
        command=command,
        params=params,
        state=state,
        grids=grids,
        out=getattr(args, "out", None),
        format=_default("format", "csv"),
        n=_default("n", 6),
        tolerance=tolerance,
        observable=_default("observable", "chi"),
    )


def run(config: RunConfig) -> int:
    """Execute a validated command; returns the process exit status."""
    if config.command == "point":
        point = thermo_point(config.params, config.state)
        for name in ("f", "S", "m", "chi", "C"):
            print(f"{name} = {getattr(point, name)!r}")
        return 0

    if config.command in ("sweep", "surface"):
        sweep = sweep_1d if config.command == "sweep" else sweep_2d
        table = sweep(config.params, config.state, *config.grids)
        write = table_to_csv if config.format == "csv" else table_to_json
        if config.out is None:
            write(table, sys.stdout)
        else:
            try:
                fh = open(config.out, "w", newline="\n")
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


if __name__ == "__main__":
    sys.exit(main())
