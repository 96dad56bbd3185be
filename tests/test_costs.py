"""Costs pinned as counts, not times: each bound sits at today's value with
a stated margin, so a change that moves one fails here and is recorded."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import potts1d
from potts1d import ModelParams, ThermoState, numtext, oracle, thermo, transfer
from potts1d.cli import main, table_to_csv, table_to_json
from potts1d.oracle import MAX_ENUMERATED_CONFIGS, _bond_count_histogram, enumerate_partition, trace_power_partition
from potts1d.sweep import GridSpec, sweep_2d

# The benchmark's three axis pairs of a 200 x 121 surface.
AXIS_PAIRS = {
    ("beta", "h"): (GridSpec("beta", 0.001, 30.0, 200), GridSpec("h", -3.0, 3.0, 121)),
    ("T", "J"): (GridSpec("T", 0.05, 20.0, 200), GridSpec("J", -12.0, 12.0, 121)),
    ("h", "J"): (GridSpec("h", -3.0, 3.0, 200), GridSpec("J", -12.0, 12.0, 121)),
}


class _Sink:
    size = 0

    def write(self, data: bytes) -> None:
        self.size += len(data)


def _surface_200_by_121():
    table = sweep_2d(ModelParams(3, 0.5, 0.1), ThermoState(1.0), GridSpec("beta", 0.001, 30.0, 200),
                     GridSpec("h", -3.0, 3.0, 121))
    return table, table.coords + tuple(table.columns.values())


def test_bond_count_histogram_memory_at_the_cap_edge():
    # heads and tails are histogrammed and joined, so no array holds a value
    # per chain: 34-103 KiB on these chains, where chains counted in 32 KiB
    # blocks peaked at 203-250 KiB
    for q, n in ((2, 20), (3, 13), (4, 10), (5, 9), (1414, 2)):
        assert q**n <= MAX_ENUMERATED_CONFIGS < (q + 1) ** n
        tracemalloc.start()
        try:
            _bond_count_histogram(q, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**10, (q, n, peak)


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
# held 7.2, 9.9 and 10.4 zero bytes and JSON rows 41.7, 47.8 and 45.7.  On
# beta x h, 134 S cells at h = 0 lie below 1e-99 (an S that cancelled two
# terms of size |J beta| gave 0.0 in 188 cells there), so every block keeps
# a three-digit exponent in its S field: 2.2 -> 3.2 CSV and 39.7 -> 42.7
# JSON zero bytes per row.
ZEROS_PER_ROW = {("beta", "h"): (3.3, 43.8), ("T", "J"): (5.0, 46.5), ("h", "J"): (3.6, 44.5)}


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


# The tracemalloc peak of sweep_2d on each benchmark axis pair at base
# q = 16, J = -12, h = 0.5, beta = 0.7, after one warm-up call, in MiB:
# today's values and 5 % more.  A float column of the 24,200 points is
# 0.18 MiB.  On beta x h, 310 points take chi's log form, and evaluating it
# over the grid costs 0.14 MiB there (2.13 MiB without it).
SWEEP_PEAK_MIB = {("beta", "h"): 2.27, ("T", "J"): 3.04, ("h", "J"): 2.65}


@pytest.mark.parametrize("axes", list(AXIS_PAIRS), ids="x".join)
def test_sweep_peak_memory(axes):
    base = ModelParams(16, -12.0, 0.5), ThermoState(0.7)
    sweep_2d(*base, *AXIS_PAIRS[axes])
    tracemalloc.start()
    try:
        sweep_2d(*base, *AXIS_PAIRS[axes])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * SWEEP_PEAK_MIB[axes] * 2**20, peak / 2**20


# Grid-sized np.exp calls of sweep_2d on each benchmark axis pair at base
# q = 7, J = -0.7, h = 0.3, beta = 1.3: the core's e^-|t| alone, as no point
# there needs a tail.  J = 0, a line of T x J and h x J, keeps C's product
# form although J^2 = 0 is not normal, so C's log form, a second exp over the
# grid, is not evaluated.
@pytest.mark.parametrize("axes", list(AXIS_PAIRS), ids="x".join)
def test_sweep_takes_one_grid_sized_exp(axes, monkeypatch):
    exp, sizes = np.exp, []
    monkeypatch.setattr(np, "exp", lambda x, *a, **k: sizes.append(np.size(x)) or exp(x, *a, **k))
    sweep_2d(ModelParams(7, -0.7, 0.3), ThermoState(1.3), *AXIS_PAIRS[axes])
    assert sizes.count(200 * 121) == 1, sizes


MODEL = ["--q", "3", "--J", "1", "--h", "0.5", "--beta", "0.7"]
GRID = ["--axis", "h", "--min", "-1", "--max", "1", "--steps", "5"]
TABLE_OUT = ["--out", os.devnull]
# One request of each command, and the points of each spectrum_core call it
# makes: one call over the whole grid, and for verify one for ln Z_N and one
# over the nine points of fd_verify.
COMMANDS = {
    "point": (["point", *MODEL], [1]),
    "sweep": (["sweep", *MODEL, *GRID, *TABLE_OUT], [5]),
    "surface": (["surface", *MODEL, *GRID, "--axis2", "T", "--min2", "0.5", "--max2", "2", "--steps2", "4",
                 *TABLE_OUT], [20]),
    "peaks": (["peaks", *MODEL, *GRID], [5]),
    "verify": (["verify", *MODEL, "--n", "13"], [1, 9]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_request_evaluates_the_kernel_once_per_grid(command, monkeypatch):
    argv, want = COMMANDS[command]
    core, sizes = thermo.spectrum_core, []
    spy = lambda q, u: sizes.append(np.size(u)) or core(q, u)  # noqa: E731
    monkeypatch.setattr(thermo, "spectrum_core", spy)
    monkeypatch.setattr(transfer, "spectrum_core", spy)
    assert main(argv) == 0
    assert sizes == want, sizes


# Bytes written for each of the benchmark's axis pairs at base q = 16,
# J = -12, h = 0.5, beta = 0.7: today's counts (beta x h, T x J, h x J; CSV
# then JSON) and 1 % more.  CSV fields are fixed but for the sign and a third
# exponent digit; JSON gets shorter where a value has a short repr.
BYTES_TODAY = {("beta", "h"): (6_336_171, 4_992_274), ("T", "J"): (6_246_678, 4_819_899),
               ("h", "J"): (6_281_485, 4_919_075)}


@pytest.mark.parametrize("axes", list(AXIS_PAIRS), ids="x".join)
def test_bytes_written_per_surface(axes):
    table = sweep_2d(ModelParams(16, -12.0, 0.5), ThermoState(0.7), *AXIS_PAIRS[axes])
    for write, today in zip((table_to_csv, table_to_json), BYTES_TODAY[axes]):
        out = _Sink()
        write(table, out)
        assert out.size <= 1.01 * today, (write.__name__, out.size)


def test_enumeration_bincounts_each_head_and_each_tail_once(monkeypatch):
    # one bincount of the heads and one of the tail offsets, joined over the
    # junction spin: the values each reads per call, exact
    bincount, sizes = np.bincount, []
    monkeypatch.setattr(oracle.np, "bincount", lambda x, **kw: sizes.append(x.size) or bincount(x, **kw))
    for q, n, heads, tails in ((3, 13, 1458, 729), (2, 20, 4096, 256), (5, 9, 1250, 625), (64, 3, 128, 64),
                               (1414, 2, 2, 2)):
        sizes.clear()
        enumerate_partition(ModelParams(q, 1.0, 0.5), ThermoState(0.7), n)
        assert sizes == [heads, tails], (q, n)


class _CountedProducts(np.ndarray):
    products = 0

    def __matmul__(self, other):
        _CountedProducts.products += 1
        return super().__matmul__(other)


def test_trace_power_squares_and_multiplies_by_the_bits_of_n(monkeypatch):
    # a squaring per bit of N after the first and a product with M per set
    # bit after the first; exact
    to_dense = oracle.TransferMatrix.to_dense
    monkeypatch.setattr(oracle.TransferMatrix, "to_dense", lambda self: to_dense(self).view(_CountedProducts))
    for n, products in ((1, 0), (2, 1), (6, 3), (13, 5), (20, 5)):
        _CountedProducts.products = 0
        trace_power_partition(ModelParams(3, 1.0, 0.5), ThermoState(0.7), n)
        assert _CountedProducts.products == n.bit_length() - 1 + bin(n).count("1") - 1 == products, n


# The potts1d modules a process of each command has loaded when it is done:
# at most these (every command loads oracle through the package and cli;
# only the table writers load numtext).  A change that imports less narrows
# a set; one that imports more fails here.
ALL_BUT_NUMTEXT = {"potts1d", "potts1d.cli", "potts1d.model", "potts1d.oracle", "potts1d.sweep",
                   "potts1d.thermo", "potts1d.transfer"}
IMPORTED = {command: ALL_BUT_NUMTEXT | ({"potts1d.numtext"} if "--out" in argv else set())
            for command, (argv, _) in COMMANDS.items()}


def _child(code, argv):  # a child interpreter, importing this potts1d, that runs code with argv
    src = str(Path(potts1d.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_modules_each_command_imports():
    code = ("import sys\nfrom potts1d.cli import main\nstatus = main(sys.argv[1:])\n"
            "print(status, *sorted(m for m in sys.modules if m.split('.')[0] == 'potts1d'))")
    for command, (argv, _) in COMMANDS.items():
        child = _child(code, argv)
        status, *modules = child.stdout.splitlines()[-1].split()
        assert status == "0", child.stderr
        assert set(modules) <= IMPORTED[command], (command, sorted(set(modules) - IMPORTED[command]))


# Objects tracked by the cyclic collector when a `python -m potts1d` process
# reaches its atexit handlers, which interpreter shutdown's full collections
# would traverse: 22,009-22,159 on Python 3.11 before the process entry froze
# them, and 0 now; the bound leaves room for the few an atexit handler or
# another interpreter version may add.  In-process main(argv) freezes nothing.
TRACKED_AT_EXIT = 100


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_process_leaves_shutdown_no_objects_to_collect(command):
    argv, _ = COMMANDS[command]
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('tracked', len(gc.get_objects())))\n"
            "runpy.run_module('potts1d', run_name='__main__', alter_sys=True)\n")
    child = _child(code, argv)
    assert (child.returncode, child.stderr) == (0, "")
    label, tracked = child.stdout.splitlines()[-1].split()
    assert label == "tracked" and int(tracked) <= TRACKED_AT_EXIT, tracked
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0
