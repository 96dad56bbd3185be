"""Property tests over the whole valid domain, and over every input (hypothesis)."""

import math
import re
import warnings

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potts1d import ModelParams, ThermoState, fd_verify, thermo_point, three_route_report
from potts1d.oracle import finite_N_free_energy
from potts1d.transfer import partition_function


@st.composite
def _oracle_cases(draw):
    n = draw(st.integers(2, 13))
    q = draw(st.integers(2, int(10_000 ** (1 / n))))  # q^N <= 10^4
    beta = draw(st.floats(1e-6, 1e3))
    J = draw(st.floats(-1e3, 1e3))
    # u = h + J*beta is drawn and h derived, so |u| stays within the dense
    # trace-power limit of 300 without discarding most draws
    u = draw(st.floats(-300.0, 300.0))
    h = u - J * beta
    assume(abs(h + J * beta) <= 300.0)
    return ModelParams(q, J, h), ThermoState(beta), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_oracle_cases())
def test_three_routes_agree_over_the_valid_domain(case):
    params, state, n = case
    report = three_route_report(params, state, n)
    assert report.max_relative_discrepancy <= 1e-12, report


def _first_invalid(q, J, h, beta):
    """The name of the first of q, J, h, beta outside the model's domain, or None."""
    q_ok = (isinstance(q, int) or q.is_integer()) and 2 <= q <= 2**63 - 1
    for name, ok in (("q", q_ok), ("J", math.isfinite(J)), ("h", math.isfinite(h)), ("beta", 0.0 < beta < math.inf)):
        if not ok:
            return name
    return None


# A refusal past the constructors names the point it was evaluated at.
_NAMES_THE_POINT = re.compile(r" at (\w+=\S+, )*beta=")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    q=st.integers(-5, 2**70) | st.floats(),
    J=st.floats(),
    h=st.floats(),
    beta=st.floats(),
    N=st.integers(1, 50),
)
def test_every_input_gives_finite_values_or_a_named_error(q, J, h, beta, N):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning escapes
        invalid = _first_invalid(q, J, h, beta)
        try:
            params, state = ModelParams(q, J, h), ThermoState(beta)
        except ValueError as err:
            assert invalid is not None and str(err).startswith(f"{invalid} must be "), (err, invalid)
            return
        assert invalid is None
        routes = (
            (lambda: thermo_point(params, state), lambda point: all(map(math.isfinite, point))),
            # an infinite difference is an infinite error, never nan
            (lambda: fd_verify(params, state), lambda report: not any(map(math.isnan, report.errors().values()))),
            (lambda: partition_function(params, state, N), math.isfinite),
            (lambda: finite_N_free_energy(params, state, N), math.isfinite),
        )
        for route, holds in routes:
            try:
                value = route()
            except ValueError as err:
                assert _NAMES_THE_POINT.search(str(err)), err
            else:
                assert holds(value), (params, state, N, value)
