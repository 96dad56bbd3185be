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
  of `point` at the same J, h and beta with a seeded q in 2..64.

The package comes from PYTHONPATH, so the same tool writes the outputs of
any checkout (PYTHONPATH=<checkout>/src).  The `verify` requests are the
benchmark's (q = 3, n = 13); the whole run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402  (benchmarks/ is put on the path above)

from potts1d.cli import main  # noqa: E402

SEEDS = range(1, 11)
SURFACES_PER_SEED = workloads.CYCLE["surface"]
SEEDED = 30
# (axis, min, max, steps) of each sweep; the base gives the other parameters.
SWEEPS = (("beta", 0.001, 30.0, 301), ("T", 0.05, 20.0, 301), ("h", -3.0, 3.0, 241),
          ("J", -12.0, 12.0, 241), ("q", 2.0, 64.0, 63))
BASE = {"q": "7", "J": "-0.7", "h": "0.3", "beta": "1.3"}
OBSERVABLES = ("f", "S", "m", "chi", "C")


def _stdout(argv) -> str:
    """The stdout of one in-process request, with its exit status last."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return f"{out.getvalue()}exit {rc}\n"


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
            text = _stdout(["peaks", *_base_flags(axis), *grid, "--observable", observable])
            (directory / f"peaks-{axis}-{observable}.txt").write_text(text)
            files += 1
    rng = random.Random("write_outputs")
    verifies = workloads.requests("verify", 1, "loop", str(directory))
    for i, verify in enumerate(itertools.islice(verifies, SEEDED)):
        # point at the same J, h and beta, with a q of its own
        point = ["point", *verify.argv[1:verify.argv.index("--n")]]
        point[point.index("--q") + 1] = str(rng.randint(*workloads.Q_RANGE))
        for name, argv in (("point", point), ("verify", verify.argv)):
            (directory / f"{name}-{i:02d}.txt").write_text(_stdout(argv))
            files += 1
    return files


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{write_outputs(Path(sys.argv[1]))} files written to {sys.argv[1]}")
