"""Property tests over the whole valid domain (hypothesis)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potts1d import ModelParams, ThermoState, three_route_report


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
