"""The array float-to-text conversion against Python's own spelling."""

import io
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potts1d import ModelParams, ThermoState, numtext
from potts1d.cli import table_to_csv, table_to_json
from potts1d.sweep import GridSpec, sweep_1d, sweep_2d
from reference import numtext_tables


def _texts(fields):
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in fields]


def _assert_spelled_like_python(values):
    x = np.array(values, dtype=np.float64)
    assert _texts(numtext.e16(x)) == ["%.16e" % v for v in x.tolist()]
    assert _texts(numtext.shortest(x)) == [json.dumps(v) for v in x.tolist()]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern_is_spelled_like_python(patterns):
    # every float64, finite or not: nan payloads, infinities, subnormals, -0.0
    _assert_spelled_like_python(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_hypothesis_floats_are_spelled_like_python(values):
    _assert_spelled_like_python(values)


def _neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def test_adversarial_values_are_spelled_like_python():
    rng = random.Random(20261018)
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    for e in range(-1074, 1024):  # every power of two and its neighbours
        values += _neighbours(math.ldexp(1.0, e))
    for e in range(-323, 309):  # every power of ten and its neighbours
        values += _neighbours(float(f"1e{e}"))
    for e in range(-320, 308):
        # round up to 10**17 in the 17th digit: 9.9999999999999999e...
        values += _neighbours(float(f"9.9999999999999999e{e}"))
        values += _neighbours(float(f"9.999999999999999e{e}"))
    for e in (-100, -99, 99, 100):  # the 2- to 3-digit exponent boundary
        values += _neighbours(float(f"1e{e}")) + _neighbours(float(f"9.87654321e{e}"))
    for bits in range(1, 64):  # integers up to 2**63
        n = rng.getrandbits(bits)
        values += [float(n), float(2**bits - 1), float(2**bits + 1)]
    values += [float(n) for n in range(-1000, 1001)] + [n / 8 for n in range(-1000, 1001)]
    values += [rng.uniform(0.0, 5e-308) for _ in range(2000)]  # subnormals and small normals
    values += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(5000)]
    for _ in range(3334):  # repr shorter than 16 digits: decimals of 1-17 digits over every exponent
        digits = rng.randint(1, 17)
        values += _neighbours(float(f"{rng.randrange(10 ** (digits - 1), 10**digits)}e{rng.randint(-324, 308) - digits + 1}"))
    values += [-v for v in values]
    _assert_spelled_like_python(values)


def _reference_text(table):
    """CSV and JSON bytes of a table spelled cell by cell by Python."""
    names = [g.axis for g in table.axes] + list(table.columns)
    columns = [c.ravel().tolist() for c in table.coords + tuple(table.columns.values())]
    rows = list(zip(*columns))
    csv = ",".join(names) + "\n" + "".join(
        ",".join(str(v) if isinstance(v, int) else "%.16e" % v for v in row) + "\n" for row in rows
    )
    base = {"q": table.base_params.q, "J": table.base_params.J, "h": table.base_params.h,
            "beta": None if table.base_state is None else table.base_state.beta}
    for g in table.axes:  # a swept parameter has no base value
        base["beta" if g.axis == "T" else g.axis] = None
    meta = {
        "base": base,
        "grids": [
            {"axis": g.axis, "min": g.min, "max": g.max, "steps": g.steps} for g in table.axes
        ],
        "columns": names,
    }
    return csv.encode(), json.dumps({"metadata": meta, "rows": [list(row) for row in rows]}).encode()


def test_tables_are_written_as_python_spells_each_cell():
    grids = {
        "beta": GridSpec("beta", 0.001, 30.0, 71),
        "T": GridSpec("T", 0.05, 20.0, 59),
        "h": GridSpec("h", -3.0, 3.0, 61),
        "J": GridSpec("J", -12.0, 12.0, 57),
        "q": GridSpec("q", 2.0, 38.0, 37),
    }
    base = ModelParams(16, -0.0, 0.5), ThermoState(0.7)
    tables = []
    # every pair of axes that set two parameters (T and beta both set beta), each over two blocks or more
    for x, y in [(x, y) for x in grids for y in grids if grids[x].parameter != grids[y].parameter]:
        tables.append(sweep_2d(*base, grids[x], grids[y]))
        assert len(tables[-1]) > numtext.BLOCK_ROWS
    tables += [
        # a fastest-axis line longer than a block, so blocks are slices of it
        sweep_2d(*base, GridSpec("h", -3.0, 3.0, 3), GridSpec("beta", 0.001, 30.0, numtext.BLOCK_ROWS + 7)),
        # a fastest axis that does not divide the block budget
        sweep_2d(*base, GridSpec("J", -12.0, 12.0, 45), GridSpec("T", 0.05, 20.0, 97)),
        # q, an int line, as the fastest axis over three blocks
        sweep_2d(*base, GridSpec("h", -3.0, 3.0, 130), GridSpec("q", 2.0, 38.0, 37)),
        # a 1-D sweep over four blocks
        sweep_1d(*base, GridSpec("J", -12.0, 12.0, 3 * numtext.BLOCK_ROWS + 5)),
        # q, an int line, on the slow axis of a fastest axis longer than a block
        sweep_2d(*base, GridSpec("q", 2.0, 4.0, 3), GridSpec("h", -3.0, 3.0, numtext.BLOCK_ROWS + 7)),
        # q as a fastest axis longer than a block
        sweep_2d(*base, GridSpec("J", -12.0, 12.0, 2),
                 GridSpec("q", 2.0, 2.0 + numtext.BLOCK_ROWS + 6, numtext.BLOCK_ROWS + 7)),
    ]
    for table in tables:
        csv, text = io.BytesIO(), io.BytesIO()
        table_to_csv(table, csv)
        table_to_json(table, text)
        assert (csv.getvalue(), text.getvalue()) == _reference_text(table), [g.axis for g in table.axes]


def _assert_rows_spelled_like_python(columns):
    for spell, python in ((numtext.e16, "%.16e".__mod__), (numtext.shortest, json.dumps)):
        rows = b"".join(numtext.rows_text(columns, spell, "[", ",", "]\n")).decode("ascii").split("\n")
        cells = [[str(v) if isinstance(v, int) else python(v) for v in c.ravel().tolist()] for c in columns]
        assert rows == ["[" + ",".join(row) + "]" for row in zip(*cells)] + [""]  # a list: pytest names the first bad row


def test_longest_spellings_survive_rows_text():
    # the longest text of each kind in every path: spelled per block (x and
    # the int64 extremes), on a repeated line (inner, outer) and constant
    longest = [-1.2345678901234567e-308, -0.00012345678901234567, -1234567890123456.7, -math.inf]
    x = np.array(longest + longest[::-1]).reshape(2, 4)
    inner, outer = np.broadcast_to(longest, (2, 4)), np.broadcast_to(np.array(longest[:2])[:, None], (2, 4))
    q = np.broadcast_to(2**63 - 1, (2, 4))
    ints = np.array([2**63 - 1, -(2**63)] + list(range(6))).reshape(2, 4)
    # short cells that Python spells (nan, +-inf, subnormals) side by side and
    # next to the int64 extremes: a 24-byte field of "nan" holds 21 zero bytes
    short = np.array([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 0.0, -0.0]).reshape(2, 4)
    _assert_rows_spelled_like_python(
        [x, inner, outer, q, ints, short, short[::-1, ::-1], ints[::-1], np.broadcast_to(-math.inf, (2, 4))])


@pytest.mark.parametrize("grid", [(5, 1), (3, 5, 1), (2, 1500, 1), (2, 3, 2100)])
def test_lines_along_every_axis_survive_rows_text(grid):
    # A float and an int line along each axis, a constant, and columns that
    # vary along every axis.  Before an axis of size 1 a line has stride 1, as
    # a fastest-axis line does, yet (2, 1500, 1) holds it over two blocks that
    # start at different rows of it.
    rng = np.random.default_rng(len(grid))
    columns = [np.broadcast_to(-math.inf, grid), rng.normal(size=grid), rng.integers(-(2**63), 2**63 - 1, size=grid)]
    for axis, k in enumerate(grid):
        shape = [k if a == axis else 1 for a in range(len(grid))]
        values = rng.normal(size=k) * 10.0 ** rng.integers(-30, 30, size=k)
        columns += [np.broadcast_to(values.reshape(shape), grid), np.broadcast_to(np.arange(k).reshape(shape) - 2, grid)]
    _assert_rows_spelled_like_python(columns)


def test_tables_equal_the_ones_built_by_python_loops():
    names = ("hi", "lo", "t", "quad", "suffix", "keep", "moved", "text", "shift", "notation")
    for name, got, want in zip(names, numtext._tables(), numtext_tables(), strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(got, want), name


def test_text_longer_than_a_field_is_refused():
    assert numtext.pack(["9" * numtext.WIDTH]).tobytes() == b"9" * numtext.WIDTH
    with pytest.raises(ValueError, match="does not fit"):
        numtext.pack(["9" * (numtext.WIDTH + 1)])
