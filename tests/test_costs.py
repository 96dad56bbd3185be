"""Costs pinned as counts, not times: each bound sits at today's value with
a stated margin, so a change that moves one fails here and is recorded."""

import tracemalloc

import pytest

from potts1d import ModelParams, ThermoState, numtext
from potts1d.cli import table_to_csv, table_to_json
from potts1d.oracle import MAX_ENUMERATED_CONFIGS, _bond_count_histogram
from potts1d.sweep import GridSpec, sweep_2d

# The benchmark's three axis pairs of a 200 x 121 surface.
AXIS_PAIRS = {
    ("beta", "h"): (GridSpec("beta", 0.001, 30.0, 200), GridSpec("h", -3.0, 3.0, 121)),
    ("T", "J"): (GridSpec("T", 0.05, 20.0, 200), GridSpec("J", -12.0, 12.0, 121)),
    ("h", "J"): (GridSpec("h", -3.0, 3.0, 200), GridSpec("J", -12.0, 12.0, 121)),
}


class _Sink:
    def write(self, data: bytes) -> None:
        pass


def _surface_200_by_121():
    table = sweep_2d(ModelParams(3, 0.5, 0.1), ThermoState(1.0), GridSpec("beta", 0.001, 30.0, 200),
                     GridSpec("h", -3.0, 3.0, 121))
    return table, table.coords + tuple(table.columns.values())


def test_bond_count_histogram_memory_at_the_cap_edge():
    # one 32 KiB block at a time, where one byte per chain with the first spin
    # fixed peaked at 0.8-2.0 MiB on these chains (the q x q inequality table
    # alone was 2 MiB at q = 1414)
    for q, n in ((2, 20), (3, 13), (4, 10), (5, 9), (1414, 2)):
        assert q**n <= MAX_ENUMERATED_CONFIGS < (q + 1) ** n
        tracemalloc.start()
        try:
            _bond_count_histogram(q, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10, (q, n, peak)


def test_repeated_lines_are_spelled_in_one_call_and_each_block_in_one():
    table, columns = _surface_200_by_121()
    # the float lines: beta and h as coordinates, then beta, T, h and the constant J
    lines = 200 + 121 + 200 + 200 + 121 + 1
    rows = numtext.BLOCK_ROWS // 121 * 121  # whole fastest-axis lines per block
    blocks = [rows] * (len(table) // rows) + [len(table) % rows]
    for spell in (numtext.e16, numtext.shortest):
        sizes = []

        def spy(values, spell=spell):
            sizes.append(values.size)
            return spell(values)

        assert b"".join(numtext.rows_text(columns, spy, "", ",", "\n")).count(b"\n") == len(table)
        assert sizes == [lines] + [5 * b for b in blocks]  # f, S, m, chi and C per block


def test_python_spells_no_more_values_of_a_surface_than_before(monkeypatch):
    # The values handed to Python's own spelling (one call per distinct value
    # of a spell call) for a 200 x 121 surface.  Before the walk-free digit
    # search they were 1 for e16 (0.0) and 9 for shortest (0.0 and the eight
    # powers of two +-0.25, +-0.5, +-1.0 and +-2.0 on the h line); numtext
    # now spells all of them.  The h line's short decimals (-2.95, 0.05, ...)
    # take the digit search, so a search that left them to Python fails here.
    table, columns = _surface_200_by_121()
    spell = numtext._spell
    for name, before in (("e16", 1), ("shortest", 9)):
        calls = []
        monkeypatch.setattr(numtext, "_spell", lambda x, shortest, python: spell(
            x, shortest, lambda v: calls.append(v) or python(v)))
        assert b"".join(numtext.rows_text(columns, getattr(numtext, name), "", ",", "\n")).count(b"\n") == len(table)
        assert len(calls) <= before, (name, calls)


# Zero bytes per row that pad the fields before they are removed, at base
# q = 16, J = -12, h = 0.5, beta = 0.7: today's counts and 2-6 % more.  A
# field spelled per block leaves out the bytes no value of its column fills
# (the sign's, and an `e16` field's last); with whole 24-byte fields CSV rows
# held 7.2, 9.9 and 10.4 zero bytes and JSON rows 41.7, 47.8 and 45.7.
ZEROS_PER_ROW = {("beta", "h"): (2.3, 40.5), ("T", "J"): (5.0, 46.5), ("h", "J"): (3.6, 44.5)}


@pytest.mark.parametrize("axes", list(AXIS_PAIRS), ids="x".join)
def test_fields_leave_out_the_bytes_no_value_fills(axes, monkeypatch):
    table = sweep_2d(ModelParams(16, -12.0, 0.5), ThermoState(0.7), *AXIS_PAIRS[axes])
    unpadded, zeros = numtext._unpadded, []
    monkeypatch.setattr(numtext, "_unpadded", lambda piece, few: zeros.append(piece.count(b"\0")) or unpadded(piece, few))
    for write, bound in zip((table_to_csv, table_to_json), ZEROS_PER_ROW[axes]):
        zeros.clear()
        write(table, _Sink())
        assert sum(zeros) <= bound * len(table), (write.__name__, sum(zeros) / len(table))


@pytest.mark.parametrize("axes", list(AXIS_PAIRS), ids="x".join)
def test_writing_a_surface_allocates_block_sized_buffers(axes):
    # tracemalloc sees numpy's buffers.  Writing a 200 x 121 surface peaked at
    # 2.3 MiB in each spelling: the block of 1,936 rows and the temporaries of
    # spelling one block.  One table-sized buffer of its five observables'
    # fields alone would be 2.8 MiB.
    table = sweep_2d(ModelParams(16, -12.0, 0.5), ThermoState(0.7), *AXIS_PAIRS[axes])
    numtext._tables()  # built once per process, and kept
    for write in (table_to_csv, table_to_json):
        tracemalloc.start()
        try:
            write(table, _Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, (write.__name__, peak)
