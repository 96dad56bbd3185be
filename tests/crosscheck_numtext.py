"""Cross-check of numtext against Python's own spelling of 4 x 10**6 doubles
and of seeded random tables.

    PYTHONPATH=src python tests/crosscheck_numtext.py [--seed N] [--count N]

Four seeded populations of `count` doubles each (10**6 by default): random
bit patterns (every kind of double: nan payloads, infinities, subnormals),
log-uniform magnitudes in [1e-6, 1e18] of either sign (every decimal
exponent for which repr writes fixed notation), integers near 2**53 of
either sign, and decimals of 1 to 17 significant digits over every decimal
exponent, of either sign, each with both of its neighbouring doubles (repr
shorter than 16 digits, which the other populations almost never give).
Every value is spelled by numtext.e16 and numtext.shortest and
compared with '%.16e' % v and json.dumps(v).  Then TABLES seeded random
grids of 1 to 3 axes (2 to 5,000 points on the fastest axis longer than 1,
and at times an axis of size 1: before it, a line has stride 1 yet changes
from block to block) with constant, line and varying columns, float and
int, go through numtext.rows_text in both spellings, and each row is
compared with the row spelled cell by cell by Python.  A constant or line
column is a broadcast view (stride 0 where it does not vary), or at times a
full copy, which rows_text spells per block.  Half the float columns get
the cells a per-block field's width is chosen by: no negative cell, signed
zeros, a three-digit exponent in one stretch of rows only (one block of
rows_text or two) and non-finite cells, each in some of them.
Prints the mismatch counts and exits 1 on any mismatch.  Its name keeps it
out of the pytest run; it takes under a minute.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from potts1d import numtext

CHUNK = 1 << 16
# Random tables per spelling, and the most rows one may have.
TABLES = 40
MAX_ROWS = 12_000


def populations(rng: np.random.Generator, count: int):
    yield "random bit patterns", np.frombuffer(rng.bytes(8 * count), dtype=np.float64)
    sign = rng.choice([-1.0, 1.0], count)
    yield "log-uniform +-[1e-6, 1e18]", sign * 10.0 ** rng.uniform(-6.0, 18.0, count)
    sign = rng.choice([-1.0, 1.0], count)
    yield "integers near 2**53", sign * (2**53 + rng.integers(-(2**24), 2**24, count)).astype(np.float64)
    yield "decimals of 1-17 digits and neighbours", short_decimals(rng, count)


def short_decimals(rng: np.random.Generator, count: int) -> np.ndarray:
    """count doubles: decimals d1.d2...dn * 10**e (n in 1..17, e in -324..308,
    either sign), as parsed from their text, each between its two neighbours."""
    size = count // 3 + 1
    digits = rng.integers(1, 18, size)
    low = 10 ** (digits - 1)
    mantissa = rng.integers(low, 10 * low).astype(str)
    exponent = (rng.integers(-324, 309, size) - digits + 1).astype(str)
    text = np.char.add(np.char.add(rng.choice(["", "-"], size), mantissa), np.char.add("e", exponent))
    x = text.astype(np.float64)
    with np.errstate(over="ignore"):  # the largest double's neighbour is inf
        return np.stack([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)], axis=1).ravel()[:count]


def mismatches(values: np.ndarray, spell, python) -> int:
    """Values whose field text differs from python(v)."""
    fields = spell(values)
    lines = np.concatenate([fields, np.full((values.size, 1), ord("\n"), dtype=np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return sum(g != python(v) for g, v in zip(got, values.tolist()))


def random_table(rng: np.random.Generator):
    """Columns of a random grid's shape, of 1 to 3 axes: 1 or 2 axes of 2 to
    5,000 points on the fastest, and at times an axis of size 1 anywhere among
    them.  Each is constant, a line along one axis, or varying, with float64
    or int64 values."""
    fastest = int(rng.integers(2, 5001))
    grid = (fastest,) if rng.random() < 0.3 else (int(rng.integers(2, max(3, MAX_ROWS // fastest + 1))), fastest)
    if rng.random() < 0.5:  # before it, a line has stride 1 yet may change from block to block
        at = int(rng.integers(len(grid) + 1))
        grid = grid[:at] + (1,) + grid[at:]
    columns = []
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.integers(len(grid) + 2)  # 0: constant, 1: varying, else a line along axis kind - 2
        shape = (1,) * len(grid) if kind == 0 else grid if kind == 1 else tuple(
            size if axis == kind - 2 else 1 for axis, size in enumerate(grid))
        count = int(np.prod(shape))
        if rng.random() < 0.25:
            values = rng.integers(-(2**63), 2**63 - 1, count, endpoint=True)
        elif rng.random() < 0.5:
            values = np.frombuffer(rng.bytes(8 * count), dtype=np.float64)
        else:  # magnitudes like those of a sweep's cells
            values = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-12.0, 12.0, count)
        if values.dtype.kind == "f" and rng.random() < 0.5:
            values = field_width_cases(rng, values)
        column = np.broadcast_to(values.reshape(shape), grid)
        columns.append(np.ascontiguousarray(column) if kind != 1 and rng.random() < 0.3 else column)
    return columns


def field_width_cases(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """values, each case at a chance of one half: without a sign (as a column
    with no negative cell), with some cells 0.0 or -0.0, with a stretch of up to
    100 rows at a three-digit exponent, and with some cells nan or +-inf."""
    values = np.abs(values) if rng.random() < 0.5 else values.copy()
    for cases in ([0.0, -0.0], None, [np.nan, np.inf, -np.inf]):
        if rng.random() < 0.5:
            if cases is None:
                start = int(rng.integers(values.size))
                stretch = values[start:start + int(rng.integers(1, 101))]
                stretch[:] = np.copysign(10.0 ** (rng.choice([-1.0, 1.0]) * rng.uniform(100.0, 300.0, stretch.size)), stretch)
            else:
                at = rng.integers(values.size, size=max(1, values.size // 100))
                values[at] = rng.choice(cases, at.size)
    return values


def table_mismatches(rng: np.random.Generator, spell, python) -> int:
    """Rows of random tables whose rows_text differs from Python's text."""
    bad = 0
    for _ in range(TABLES):
        columns = random_table(rng)
        got = b"".join(numtext.rows_text(columns, spell, "[", ",", "]\n")).decode("ascii").split("\n")[:-1]
        cells = [[str(v) if c.dtype.kind == "i" else python(v) for v in c.ravel().tolist()] for c in columns]
        bad += sum(g != "[" + ",".join(row) + "]" for g, row in zip(got, zip(*cells))) + abs(len(got) - columns[0].size)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20261018)
    parser.add_argument("--count", type=int, default=10**6, help="doubles per population")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    total = bad = 0
    for name, values in populations(rng, args.count):
        counts = {"%.16e": 0, "json.dumps": 0}
        for start in range(0, values.size, CHUNK):
            chunk = values[start:start + CHUNK]
            counts["%.16e"] += mismatches(chunk, numtext.e16, "%.16e".__mod__)
            counts["json.dumps"] += mismatches(chunk, numtext.shortest, json.dumps)
        print(f"{name}: {values.size} doubles, mismatches " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        total += values.size
        bad += sum(counts.values())
    counts = {name: table_mismatches(rng, spell, python) for name, spell, python in
              (("%.16e", numtext.e16, "%.16e".__mod__), ("json.dumps", numtext.shortest, json.dumps))}
    print(f"rows_text: {TABLES} random tables per spelling, mismatched rows " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    bad += sum(counts.values())
    print(f"{total} doubles and {2 * TABLES} tables, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
