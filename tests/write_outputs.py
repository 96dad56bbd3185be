"""Writes the outputs a change to the program must leave byte-identical, one
file per request, so two checkouts can be compared with `diff -r`:

    PYTHONPATH=src python tests/write_outputs.py DIR

- `surface-<seed>-<i>.<csv|json>`: the first cycle (every axis pair in both
  formats) of the benchmark's in-process `loop` stream for seeds 1-10, from
  benchmarks/workloads.py, with `--out` renamed: 60 files, about 330 MB;
- `sweep-<axis>.<csv|json>` and `peaks-<axis>-<observable>.txt`: a sweep and
  the peak of every observable along each axis beta, T, h, J and q;
- `point-<i>.txt` and `verify-<i>.txt`: the stdout and exit status of the
  first 30 requests of the benchmark's `verify` loop stream for seed 1, and
  of `point` at the same J, h and beta with a seeded q in 2..64;
- `help-<command>.txt`: the `--help` text of the root parser (`help-potts1d`)
  and of each command, at 80 columns;
- `cli-<case>.txt`: the stdout, stderr and exit status of command lines that
  leave out one flag of a command in turn (`cli-missing-<command>-<flag>`)
  or all of them, give `--beta` with `--T`, give a bad config file or
  value, give a value outside its domain, or give a surface two axes that
  set one parameter (`cli-same-axes`, `cli-T-and-beta-axes`,
  `cli-beta-and-T-axes`).  These run in DIR, so that
  config paths, and any file a faulty run writes, stay inside it.

The package comes from PYTHONPATH, so the same tool writes the outputs of
any checkout (PYTHONPATH=<checkout>/src).  The `verify` requests are the
benchmark's (q = 3, n = 13); the whole run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402  (benchmarks/ is put on the path above)

from potts1d.cli import main  # noqa: E402
from potts1d.sweep import OBSERVABLES  # noqa: E402

SEEDS = range(1, 11)
SURFACES_PER_SEED = workloads.CYCLE["surface"]
SEEDED = 30
# (axis, min, max, steps) of each sweep; the base gives the other parameters.
SWEEPS = (("beta", 0.001, 30.0, 301), ("T", 0.05, 20.0, 301), ("h", -3.0, 3.0, 241),
          ("J", -12.0, 12.0, 241), ("q", 2.0, 64.0, 63))
BASE = {"q": "7", "J": "-0.7", "h": "0.3", "beta": "1.3"}

# The flags of each command for the command-line cases; an h axis sets h
MODEL = {"q": "3", "J": "1", "h": "0.5", "beta": "0.7"}
GRID = {"axis": "h", "min": "-1", "max": "1", "steps": "3"}
COMMAND_FLAGS = {
    "point": MODEL,
    "sweep": {**MODEL, **GRID},
    "surface": {**MODEL, **GRID, "axis2": "T", "min2": "0.5", "max2": "2", "steps2": "3"},
    "verify": {**MODEL, "n": "4"},
    "peaks": {**MODEL, **GRID},
}
# case name: (command, flags over the command's own, config file content or None);
# a flag whose value is None is left out
CASES = {
    "beta-and-T": ("point", {"T": "2"}, None),
    "config-unknown-key": ("point", {}, {"quux": 1}),
    "config-command-key": ("point", {}, {"command": "point"}),
    "config-config-key": ("point", {}, {"config": "cli-config-config-key.json"}),
    "config-not-an-object": ("point", {}, [1, 2]),
    "config-missing-file": ("point", {"config": "absent.json"}, None),
    "config-null-out": ("sweep", {}, {"out": None}),
    "config-true-out": ("sweep", {}, {"out": True}),
    "config-list-out": ("sweep", {}, {"out": [1, 2]}),
    "config-object-out": ("sweep", {}, {"out": {"path": "x"}}),
    "config-beta-and-T": ("point", {"beta": None}, {"beta": 0.7, "T": 2.0}),
    "config-bad-choice": ("sweep", {}, {"format": "xml"}),
    "config-bad-int": ("sweep", {"steps": None}, {"steps": 2.5}),
    "q-1": ("point", {"q": "1"}, None),
    "q-2.5": ("point", {"q": "2.5"}, None),
    "q-huge": ("point", {"q": "100000000000000000000"}, None),
    "J-inf": ("point", {"J": "inf"}, None),
    "J-nan": ("point", {"J": "nan"}, None),
    "h-minus-inf": ("point", {"h": "-inf"}, None),
    "J-minus-exponent": ("point", {"J": "-1e-05"}, None),
    "min-minus-exponent": ("sweep", {"min": "-1e-05"}, None),
    "beta-0": ("point", {"beta": "0"}, None),
    "beta-minus-1": ("point", {"beta": "-1"}, None),
    "T-0": ("point", {"beta": None, "T": "0"}, None),
    "T-subnormal": ("point", {"beta": None, "T": "1e-310"}, None),
    "steps-1": ("sweep", {"steps": "1"}, None),
    "min-above-max": ("sweep", {"min": "2"}, None),
    "axis-x": ("sweep", {"axis": "x"}, None),
    "same-axes": ("surface", {"axis2": "h"}, None),
    "T-and-beta-axes": ("surface", {"axis": "T", "min": "1", "max": "2", "axis2": "beta", "min2": "1", "max2": "3"},
                        None),
    "beta-and-T-axes": ("surface", {"axis": "beta", "min": "1", "max": "3"}, None),
    "format-xml": ("sweep", {"format": "xml"}, None),
    "observable-x": ("peaks", {"observable": "x"}, None),
    "n-1": ("verify", {"n": "1"}, None),
    "tolerance-minus-1": ("verify", {"tolerance": "-1"}, None),
    "tolerance-nan": ("verify", {"tolerance": "nan"}, None),
}


def _output(argv) -> str:
    """The stdout and stderr of one in-process request, with its exit status last."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"{out.getvalue()}{err.getvalue()}exit {rc}\n"


def _flags(values: dict) -> list[str]:
    return [token for name, value in values.items() if value is not None for token in (f"--{name}", value)]


def _cli_cases(directory: Path) -> int:
    """Writes the help and command-line files; returns their number."""
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    for command in ("potts1d", *COMMAND_FLAGS):
        argv = ["--help"] if command == "potts1d" else [command, "--help"]
        (directory / f"help-{command}.txt").write_text(_output(argv))
    cases = {}
    for command, flags in COMMAND_FLAGS.items():
        cases[f"missing-{command}-all"] = [command]
        for name in flags:
            cases[f"missing-{command}-{name}"] = [command, *_flags({**flags, name: None})]
    for case, (command, flags, config) in CASES.items():
        cases[case] = [command, *_flags({**COMMAND_FLAGS[command], **flags})]
        if config is not None:
            (directory / f"cli-{case}.json").write_text(json.dumps(config))
            cases[case] += ["--config", f"cli-{case}.json"]
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for case, argv in cases.items():
            Path(f"cli-{case}.txt").write_text(_output(argv))
    finally:
        os.chdir(cwd)
    return 1 + len(COMMAND_FLAGS) + len(cases)


def _write(argv) -> None:
    """Runs one request that writes a table to its --out; a failure stops the run."""
    if main(argv) != 0:
        raise SystemExit(f"potts1d {' '.join(argv)} failed")


def _base_flags(axis: str) -> list[str]:
    skip = "beta" if axis == "T" else axis
    return [flag for name, value in BASE.items() if name != skip for flag in (f"--{name}", value)]


def write_outputs(directory: Path) -> int:
    """Writes every output to directory; returns the number of files."""
    directory.mkdir(parents=True, exist_ok=True)
    files = 0
    for seed in SEEDS:
        stream = workloads.requests("surface", seed, "loop", str(directory))
        for i, req in enumerate(itertools.islice(stream, SURFACES_PER_SEED)):
            argv = list(req.argv)
            argv[argv.index("--out") + 1] = str(directory / f"surface-{seed}-{i}.{req.format}")
            _write(argv)
            files += 1
    for axis, lo, hi, steps in SWEEPS:
        grid = ["--axis", axis, "--min", repr(lo), "--max", repr(hi), "--steps", str(steps)]
        for fmt in ("csv", "json"):
            out = directory / f"sweep-{axis}.{fmt}"
            _write(["sweep", *_base_flags(axis), *grid, "--format", fmt, "--out", str(out)])
            files += 1
        for observable in OBSERVABLES:
            text = _output(["peaks", *_base_flags(axis), *grid, "--observable", observable])
            (directory / f"peaks-{axis}-{observable}.txt").write_text(text)
            files += 1
    rng = random.Random("write_outputs")
    verifies = workloads.requests("verify", 1, "loop", str(directory))
    for i, verify in enumerate(itertools.islice(verifies, SEEDED)):
        # point at the same J, h and beta, with a q of its own
        point = ["point", *verify.argv[1:verify.argv.index("--n")]]
        point[point.index("--q") + 1] = str(rng.randint(*workloads.Q_RANGE))
        for name, argv in (("point", point), ("verify", verify.argv)):
            (directory / f"{name}-{i:02d}.txt").write_text(_output(argv))
            files += 1
    return files + _cli_cases(directory)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{write_outputs(Path(sys.argv[1]))} files written to {sys.argv[1]}")
