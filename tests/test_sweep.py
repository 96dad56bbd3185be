import math
import tracemalloc
import warnings

import numpy as np
import pytest

from potts1d import (
    GridSpec,
    ModelParams,
    ThermoState,
    find_peak,
    susceptibility,
    sweep_1d,
    sweep_2d,
    thermo_point,
)
from potts1d.sweep import GRID_AXES, MAX_GRID_POINTS
from reference import magnetization_zero_point, q_ordering_check, refine_peak


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec("energy", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        GridSpec("h", 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        GridSpec("h", 0.0, 1.0, 1)
    # the grids are linear; there is no scale option to choose another
    with pytest.raises(TypeError, match="scale"):
        GridSpec("h", 0.0, 1.0, 5, scale="linear")
    # a float step count once constructed and failed in the sweep as a bare TypeError
    for steps in (2.5, 3.0):
        with pytest.raises(ValueError, match=r"^steps must be an integer >= 2$"):
            GridSpec("h", 0.0, 1.0, steps)
    with pytest.raises(ValueError, match=r"^invalid grid point q=2\.5: q must be an integer, got 2\.5$"):
        GridSpec("q", 2.0, 3.0, 3)
    with pytest.raises(ValueError, match=r"^invalid grid point q=1\.0: q must be at least 2$"):
        GridSpec("q", 1.0, 4.0, 4)
    GridSpec("q", 2.0, 8.0, 7)  # integers 2..8
    # q columns are int64: 1e20 once wrapped to -9223372036854775808
    for hi, shown in ((2.0**63, r"9\.223372036854776e\+18"), (1e20, r"1e\+20")):
        with pytest.raises(ValueError, match=rf"^invalid grid point q={shown}: q must be at most 2\*\*63 - 1$"):
            GridSpec("q", 2.0, hi, 2)
    assert GridSpec("q", 2.0, 2.0**63 - 1024, 2).points()[-1] == 2.0**63 - 1024


def test_grid_point_cap_is_checked_before_allocating():
    x, y = GridSpec("h", -1.0, 1.0, 2), GridSpec("J", -1.0, 1.0, MAX_GRID_POINTS // 2 + 1)
    tracemalloc.start()
    try:
        for axis in GRID_AXES:
            with pytest.raises(ValueError, match=rf"^steps = {MAX_GRID_POINTS + 1} exceeds the grid-point cap"):
                GridSpec(axis, 2.0, 3.0, MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match=rf"^the grid has {MAX_GRID_POINTS + 2} points, more than"):
            sweep_2d(ModelParams(3, 1.0, 0.0), ThermoState(1.0), x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gridspec_rejects_a_width_that_overflows():
    # linspace over such a range warns and gives nan points
    for lo, hi in ((-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^grid width max - min = inf is not finite$"):
                GridSpec("h", lo, hi, 3)
    GridSpec("h", -1e308, 0.0, 3)


def test_grid_endpoints_exact():
    g = GridSpec("beta", 0.1, 30.0, 300)
    pts = g.points()
    assert pts[0] == 0.1
    assert pts[-1] == 30.0
    assert len(pts) == 300


def test_sweep_constant_columns_for_uniform_chain():
    table = sweep_1d(ModelParams(3, 0.0, 0.0), None, GridSpec("beta", 0.5, 2.0, 7))
    assert len(table) == 7
    c = table.columns
    for f, beta, S, C in zip(c["f"], c["beta"], c["S"], c["C"]):
        assert f * beta == pytest.approx(-math.log(3.0), rel=1e-14)
        assert S == pytest.approx(math.log(3.0), rel=1e-14)
        assert C == 0.0


def test_sweep_requires_state_unless_thermal_axis():
    with pytest.raises(ValueError, match="ThermoState"):
        sweep_1d(ModelParams(3, 1.0, 0.0), None, GridSpec("h", -1.0, 1.0, 3))
    table = sweep_1d(ModelParams(3, 1.0, 0.0), ThermoState(1.0), GridSpec("h", -1.0, 1.0, 3))
    assert table.columns["h"].tolist() == [-1.0, 0.0, 1.0]


def test_sweep_invalid_grid_point_names_coordinate():
    params = ModelParams(3, 1.0, 0.0)
    with pytest.raises(ValueError, match="beta=-1.0"):
        sweep_1d(params, None, GridSpec("beta", -1.0, 1.0, 3))
    # the spec itself refuses the point, before any sweep
    with pytest.raises(ValueError, match=r"^invalid grid point beta=0.0: beta must be positive and finite$"):
        GridSpec("beta", 0.0, 1.0, 3)
    with pytest.raises(ValueError, match=r"^invalid grid point T=0.0: T must be positive and finite$"):
        sweep_1d(params, None, GridSpec("T", 0.0, 1.0, 3))
    # 1/T overflows for a subnormal T
    with pytest.raises(ValueError, match=r"^invalid grid point T=5e-324: beta must be positive and finite$"):
        sweep_1d(params, None, GridSpec("T", 5e-324, 1.0, 3))
    # 2D: the first invalid point in grid-index order, x checked before y
    with pytest.raises(ValueError, match="T=0.0"):
        sweep_2d(params, None, GridSpec("beta", 0.5, 1.0, 2), GridSpec("T", 0.0, 1.0, 3))
    with pytest.raises(ValueError, match="beta=-1.0"):
        sweep_2d(params, None, GridSpec("beta", -1.0, 1.0, 3), GridSpec("T", 0.0, 1.0, 3))
    with pytest.raises(ValueError, match="beta=-1.0"):
        sweep_2d(params, ThermoState(1.0), GridSpec("h", 0.0, 1.0, 3), GridSpec("beta", -1.0, 1.0, 3))


def test_sweep_temperature_axis_heat_capacity_peak():
    # antiferromagnetic bump below T = 2
    table = sweep_1d(
        ModelParams(20, -0.66, 4.0), None, GridSpec("T", 0.001, 2.0, 400)
    )
    cs = table.columns["C"].tolist()
    k = int(np.argmax(cs))
    assert 0 < k < len(cs) - 1


def test_sweep_q_axis():
    table = sweep_1d(ModelParams(3, 5.15, -3.0), ThermoState(1.0), GridSpec("q", 3.0, 9.0, 7))
    fs = table.columns["f"].tolist()
    assert table.columns["q"].tolist() == [3, 4, 5, 6, 7, 8, 9]
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_susceptibility_peak_location_and_value():
    params = ModelParams(22, -3.0, 0.0)
    state = ThermoState(0.9)
    hstar = magnetization_zero_point(params, state)
    assert hstar == pytest.approx(1.1777387811382887, rel=1e-14)
    table = sweep_1d(params, state, GridSpec("h", -3.0, 3.0, 10001))
    coord, value = find_peak(table, "chi")
    step = 6.0 / 10000
    assert abs(coord - hstar) <= step
    assert value == pytest.approx(1.0 / 0.9, rel=1e-6)


def test_find_peak_tie_breaks_to_first_index():
    # J = 0 makes the C column identically zero
    table = sweep_1d(ModelParams(3, 0.0, 0.0), None, GridSpec("beta", 0.5, 2.0, 5))
    coord, value = find_peak(table, "C")
    assert coord == 0.5
    assert value == 0.0


def test_find_peak_validation():
    table = sweep_1d(ModelParams(3, 0.0, 0.0), None, GridSpec("beta", 0.5, 2.0, 5))
    with pytest.raises(ValueError):
        find_peak(table, "energy")
    table2d = sweep_2d(
        ModelParams(3, 0.0, 0.0), None, GridSpec("beta", 0.5, 2.0, 2), GridSpec("h", -1.0, 1.0, 2)
    )
    with pytest.raises(ValueError, match="1D"):
        find_peak(table2d, "chi")


def test_peak_distance_halves_with_grid_resolution():
    params = ModelParams(9, 1.1, 0.0)
    state = ThermoState(1.4)
    hstar = magnetization_zero_point(params, state)
    lo, hi = hstar - 1.37, hstar + 1.61
    prev_bound = None
    for steps in (101, 201, 401, 801):
        table = sweep_1d(params, state, GridSpec("h", lo, hi, steps))
        coord, _ = find_peak(table, "chi")
        spacing = (hi - lo) / (steps - 1)
        assert abs(coord - hstar) <= 0.5 * spacing + 1e-15
        if prev_bound is not None:
            assert 0.5 * spacing <= 0.5 * prev_bound + 1e-15
        prev_bound = spacing


def test_refine_peak_reaches_continuum_maximum():
    params = ModelParams(13, -0.8, 0.0)
    state = ThermoState(2.2)
    hstar = magnetization_zero_point(params, state)

    def chi_of(h):
        return susceptibility(ModelParams(params.q, params.J, h), state)

    x, value = refine_peak(chi_of, hstar - 0.05, hstar + 0.04)
    # chi is float-flat within ~sqrt(eps) of the maximum, so the located
    # coordinate can wander inside that plateau
    assert abs(x - hstar) < 1e-7
    assert value == pytest.approx(1.0 / state.beta, rel=1e-12)


def test_sweep_2d_row_major_order():
    table = sweep_2d(
        ModelParams(3, 1.0, 0.0),
        None,
        GridSpec("beta", 1.0, 2.0, 2),
        GridSpec("h", -1.0, 1.0, 2),
    )
    assert len(table) == 4
    assert list(zip(*(c.tolist() for c in table.coords))) == [
        (1.0, -1.0),
        (1.0, 1.0),
        (2.0, -1.0),
        (2.0, 1.0),
    ]


def test_sweep_2d_rows_bit_identical_to_thermo_point():
    # every axis pair of the README surfaces, far beyond exp overflow too
    base = ModelParams(16, -12.0, 0.5)
    grids = {
        "beta": GridSpec("beta", 0.001, 30.0, 9),
        "T": GridSpec("T", 0.05, 20.0, 8),
        "h": GridSpec("h", -3.0, 3.0, 7),
        "J": GridSpec("J", -12.0, 12.0, 6),
        "q": GridSpec("q", 2.0, 38.0, 5),
    }
    for gx, gy in (("beta", "h"), ("T", "J"), ("h", "J"), ("q", "beta")):
        table = sweep_2d(base, ThermoState(0.7), grids[gx], grids[gy])
        c = {name: col.tolist() for name, col in table.columns.items()}
        for i in range(len(table)):
            point = thermo_point(ModelParams(c["q"][i], c["J"][i], c["h"][i]), ThermoState(c["beta"][i]))
            for name in ("f", "S", "m", "chi", "C"):
                assert c[name][i] == getattr(point, name)
                assert math.copysign(1.0, c[name][i]) == math.copysign(1.0, getattr(point, name))


def test_sweep_2d_rejects_duplicate_axis():
    with pytest.raises(ValueError, match="distinct"):
        sweep_2d(
            ModelParams(3, 1.0, 0.0),
            None,
            GridSpec("beta", 1.0, 2.0, 2),
            GridSpec("beta", 1.0, 2.0, 2),
        )


def test_sweep_2d_antiferromagnetic_surface_is_finite():
    # the steep corner of this surface lives far beyond exp overflow
    table = sweep_2d(
        ModelParams(16, -12.0, 0.0),
        None,
        GridSpec("beta", 0.001, 30.0, 12),
        GridSpec("h", -3.0, 3.0, 7),
    )
    assert len(table) == 84
    for name in ("f", "S", "m", "chi", "C"):
        for v in table.columns[name]:
            assert math.isfinite(v)


def test_sweep_2d_ferromagnetic_surface_monotone_where_entropy_positive():
    # with J = 0.95, q = 16 the free energy rises with beta at fixed h as
    # long as the low-temperature entropy h + ln(q-1) stays positive
    table = sweep_2d(
        ModelParams(16, 0.95, 0.0),
        None,
        GridSpec("h", -2.0, 3.0, 3),
        GridSpec("beta", 0.001, 30.0, 40),
    )
    by_h = {}
    for h, f in zip(table.coords[0].tolist(), table.columns["f"].tolist()):
        by_h.setdefault(h, []).append(f)
    for h, fs in by_h.items():
        assert h + math.log(15.0) > 0.0
        assert all(b > a for a, b in zip(fs, fs[1:]))


def test_sweep_determinism():
    args = (ModelParams(5, -1.3, 0.7), ThermoState(1.7), GridSpec("h", -2.0, 2.0, 31))
    t1 = sweep_1d(*args)
    t2 = sweep_1d(*args)
    assert (t1.axes, list(t1.columns)) == (t2.axes, list(t2.columns))
    for a, b in zip(t1.coords + tuple(t1.columns.values()), t2.coords + tuple(t2.columns.values())):
        assert np.array_equal(a, b)


def test_sweep_rows_satisfy_heat_capacity_identity():
    table = sweep_1d(ModelParams(7, -1.1, 0.4), None, GridSpec("beta", 0.2, 5.0, 25))
    c = table.columns
    for J, beta, chi, C in zip(*(c[name].tolist() for name in ("J", "beta", "chi", "C"))):
        ref = J**2 * beta**3 * chi
        assert abs(C - ref) <= 1e-12 * max(abs(C), abs(ref), 1e-300)


def test_q_ordering_check_reference_parameter_sets():
    grid = GridSpec("beta", 0.1, 30.0, 300)
    qs = (3, 4, 5, 6, 7, 8, 9, 21)
    assert q_ordering_check(grid, h=-3.0, J=5.15, q_list=qs)
    assert q_ordering_check(grid, h=4.0, J=-3.0, q_list=qs)


def test_q_ordering_check_matches_direct_comparison_at_moderate_beta():
    # where no cancellation occurs, the stable increment and a plain
    # free-energy comparison must agree
    from potts1d import free_energy

    grid = GridSpec("beta", 0.2, 4.0, 15)
    qs = (3, 5, 9)
    assert q_ordering_check(grid, h=0.4, J=-1.2, q_list=qs)
    for beta in grid.points():
        state = ThermoState(float(beta))
        fs = [free_energy(ModelParams(q, -1.2, 0.4), state) for q in qs]
        assert all(b < a for a, b in zip(fs, fs[1:]))


def test_q_ordering_check_vacuous_and_invalid():
    grid = GridSpec("beta", 0.5, 2.0, 4)
    assert q_ordering_check(grid, h=0.0, J=1.0, q_list=(2,))
    with pytest.raises(ValueError):
        q_ordering_check(grid, h=0.0, J=1.0, q_list=(3, 3))
    with pytest.raises(ValueError):
        q_ordering_check(grid, h=0.0, J=1.0, q_list=(1, 2))
    with pytest.raises(ValueError, match="beta"):
        q_ordering_check(GridSpec("h", 0.0, 1.0, 3), h=0.0, J=1.0, q_list=(2, 3))
    # int() once truncated 3.7 to 3 and the check passed
    with pytest.raises(ValueError, match="q must be an integer, got 3.7"):
        q_ordering_check(grid, h=0.0, J=1.0, q_list=(2, 3.7, 5))
