"""Cross-check of numtext against Python's own spelling of 3 x 10**6 doubles.

    PYTHONPATH=src python tests/crosscheck_numtext.py [--seed N] [--count N]

Three seeded populations of `count` doubles each (10**6 by default): random
bit patterns (every kind of double: nan payloads, infinities, subnormals),
log-uniform magnitudes in [1e-6, 1e18] of either sign (every decimal
exponent for which repr writes fixed notation) and integers near 2**53 of
either sign.  Every value is spelled by numtext.e16 and numtext.shortest and
compared with '%.16e' % v and json.dumps(v).  Prints the mismatch counts and
exits 1 on any mismatch.  Its name keeps it out of the pytest run; it takes
about half a minute.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from potts1d import numtext

CHUNK = 1 << 16


def populations(rng: np.random.Generator, count: int):
    yield "random bit patterns", np.frombuffer(rng.bytes(8 * count), dtype=np.float64)
    sign = rng.choice([-1.0, 1.0], count)
    yield "log-uniform +-[1e-6, 1e18]", sign * 10.0 ** rng.uniform(-6.0, 18.0, count)
    sign = rng.choice([-1.0, 1.0], count)
    yield "integers near 2**53", sign * (2**53 + rng.integers(-(2**24), 2**24, count)).astype(np.float64)


def mismatches(values: np.ndarray, spell, python) -> int:
    """Values whose field text differs from python(v)."""
    fields = spell(values)
    lines = np.concatenate([fields, np.full((values.size, 1), ord("\n"), dtype=np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return sum(g != python(v) for g, v in zip(got, values.tolist()))


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
    print(f"{total} doubles, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
