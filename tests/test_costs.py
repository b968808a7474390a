"""Table 2 atomic costs, the Appendix A multiplex term and the message sizes.

Expected values are the paper's literal numbers (Table 2, Table 3, the
Section 4.1 worked example), written out rather than read back from
``repro.core.costs``.  A guard keeps Table 2 in that one module, and two
tests check that the simulator charges exactly its prices.
"""

from pathlib import Path
import re

import numpy as np
import pytest

from repro.config import Configuration
from repro.core import costs
from repro.querymodel.distributions import default_query_model
from repro.sim import network
from repro.topology.builder import build_instance


class TestWorkedExample:
    """Section 4.1: client with x files and m open connections joining."""

    def test_client_join_outgoing_bandwidth(self):
        # "Outgoing bandwidth for the client is therefore 80 + 72x".
        x, m = 25, 1
        nbytes, _ = costs.send_join(x, m)
        assert nbytes == 80 + 72 * x

    def test_client_join_processing(self):
        # "processing cost is .44 + .2x + .01m", evaluated in that order.
        for x in (0, 1, 25, 168, 1999):
            for m in (0, 1, 3, 59):
                assert costs.send_join(x, m)[1] == .44 + .2 * x + .01 * m

    def test_superpeer_join_side(self):
        # Receiving: .56 + .3x + .01m, plus index insertion .14 + .105x.
        x, m = 10, 50
        nbytes, units = costs.recv_join(x, m)
        assert nbytes == 80 + 72 * x
        assert units == pytest.approx(0.56 + 0.3 * x + 0.01 * m)
        assert costs.process_join(x) == pytest.approx(0.14 + 0.105 * x)
        assert costs.recv_index_join(x, m) == (
            nbytes, .56 + .3 * x + .01 * m + .14 + .105 * x)


#: Every Table 2 row at one message, 10 open connections, 4 files,
#: 2 addresses and 5 results: (bytes, units) from the paper's numbers.
_M, _X, _A, _R = 10.0, 4.0, 2.0, 5.0
TABLE_2 = {
    "send_query": (lambda: costs.send_query(_M), (94, .44 + .003 * 12 + .01 * _M)),
    "recv_query": (lambda: costs.recv_query(_M), (94, .57 + .004 * 12 + .01 * _M)),
    "process_query": (lambda: (0, costs.process_query(_R)), (0, .14 + 1.1 * _R)),
    "send_response": (lambda: costs.send_response(1.0, _A, _R, _M),
                      (80 + 28 * _A + 76 * _R, .21 + .31 * _A + .2 * _R + .01 * _M)),
    "recv_response": (lambda: costs.recv_response(1.0, _A, _R, _M),
                      (80 + 28 * _A + 76 * _R, .26 + .41 * _A + .3 * _R + .01 * _M)),
    "send_join": (lambda: costs.send_join(_X, _M), (80 + 72 * _X, .44 + .2 * _X + .01 * _M)),
    "recv_join": (lambda: costs.recv_join(_X, _M), (80 + 72 * _X, .56 + .3 * _X + .01 * _M)),
    "process_join": (lambda: (0, costs.process_join(_X)), (0, .14 + .105 * _X)),
    "send_update": (lambda: costs.send_update(_M), (152, .6 + .01 * _M)),
    "recv_update": (lambda: costs.recv_update(_M), (152, .8 + .01 * _M)),
    "process_update": (lambda: (0, costs.process_update()), (0, .30)),
    "packet_multiplex": (lambda: (0, costs.MULTIPLEX_PER_CONNECTION * _M), (0, .01 * _M)),
}


@pytest.mark.parametrize("row", sorted(TABLE_2))
def test_every_table2_row(row):
    priced, (want_bytes, want_units) = TABLE_2[row]
    got_bytes, got_units = priced()
    assert got_bytes == want_bytes
    assert got_units == pytest.approx(want_units, rel=1e-15)


def test_atomic_costs_covers_all_table2_rows():
    for row in TABLE_2:
        if row != "packet_multiplex":
            assert callable(getattr(costs, row))


class TestQueryCosts:
    def test_send_query_bandwidth_and_processing(self):
        nbytes, units = costs.send_query(10)
        assert nbytes == 94
        assert units == pytest.approx(0.44 + 0.003 * 12 + 0.01 * 10)

    def test_recv_query(self):
        nbytes, units = costs.recv_query(0, 2)
        assert nbytes == 188
        assert units == pytest.approx(2 * (0.57 + 0.004 * 12))

    def test_process_query_scales_with_results(self):
        base = costs.process_query(0)
        loaded = costs.process_query(10)
        assert loaded > base
        assert base == pytest.approx(0.14)
        assert loaded == pytest.approx(0.14 + 1.1 * 10)


class TestResponseCosts:
    def test_bandwidth_matches_message_formula(self):
        nbytes, _ = costs.send_response(1, 2, 5, 0)
        assert nbytes == 80 + 56 + 380

    def test_fractional_expected_messages(self):
        # Mean-value analysis weights the fixed header by P(respond).
        nbytes, _ = costs.send_response(0.5, 1.0, 2.0, 0)
        assert nbytes == pytest.approx(0.5 * 80 + 28 + 152)

    def test_recv_mirror(self):
        assert costs.recv_response(1, 2, 5, 0)[0] == costs.send_response(1, 2, 5, 0)[0]

    def test_multiplex_charged_per_message(self):
        delta = costs.send_response(2, 0, 0, 100)[1] - costs.send_response(2, 0, 0, 0)[1]
        assert delta == pytest.approx(2 * 0.01 * 100)


class TestUpdateCosts:
    def test_update_sizes(self):
        assert costs.send_update(0)[0] == 152
        assert costs.recv_update(0)[0] == 152

    def test_update_processing(self):
        assert costs.process_update(3) == pytest.approx(3 * 0.30)


class TestMessages:
    """The bandwidth column: Gnutella v0.4 sizes plus transport framing."""

    def test_query_default_is_94_bytes(self):
        # Table 2: 82 + query length; Table 3: expected length 12 B.
        assert costs.send_query(0)[0] == costs.recv_query(0)[0] == 94

    def test_response_formula(self):
        # 80 + 28 * #addr + 76 * #results.
        assert costs.send_response(1, 0, 0, 0)[0] == 80
        assert costs.send_response(1, 2, 5, 0)[0] == 80 + 56 + 380

    def test_response_accepts_expected_fractional_counts(self):
        assert costs.send_response(1, 0.5, 1.5, 0)[0] == pytest.approx(80 + 14 + 114)

    def test_join_formula(self):
        # 80 + 72 * #files.
        assert costs.send_join(0, 0)[0] == 80
        assert costs.send_join(10, 0)[0] == 800

    def test_update_is_fixed(self):
        assert costs.send_update(0)[0] == 152.0

    def test_handshake_is_an_empty_message_each_way(self):
        # By definition (Section 4.1) an empty message sent and received
        # costs about one unit.
        nbytes, units = costs.handshake(0)
        assert nbytes == 80
        assert units == pytest.approx(1.0, abs=0.02)
        assert costs.send_empty(0)[1] + costs.recv_empty(0)[1] == units


class TestConnections:
    def test_multiplex_is_point_zero_one_per_connection(self):
        # Appendix A: .04 units per descriptor scan amortized over 4
        # messages per select call -> .01 units/connection/message.
        assert costs.MULTIPLEX_PER_CONNECTION == pytest.approx(0.01)
        assert costs.SELECT_SCAN_COST_UNITS == pytest.approx(0.04)

    def test_multiplex_linear_in_connections(self):
        for row in (costs.send_query, costs.recv_query, costs.send_update,
                    costs.recv_update, costs.send_empty, costs.recv_empty):
            assert row(100)[1] - row(0)[1] == pytest.approx(1.0)
            assert row(100, 3)[1] - row(0, 3)[1] == pytest.approx(3.0)
        assert costs.handshake(100)[1] - costs.handshake(0)[1] == pytest.approx(2.0)

    def test_zero_connections_free(self):
        assert costs.send_update(0)[1] == 0.6
        assert costs.send_join(5, 0)[1] == .44 + .2 * 5


def test_scaling_in_n():
    """``n`` messages cost n times one message when the payload scales
    with them (every cost is linear)."""
    n, x, m = 3.0, 7.0, 12.0
    for many, one in (
        (costs.send_query(m, n), costs.send_query(m)),
        (costs.recv_query(m, n), costs.recv_query(m)),
        (costs.send_join(n * x, m, n), costs.send_join(x, m)),
        (costs.recv_join(n * x, m, n), costs.recv_join(x, m)),
        (costs.recv_index_join(n * x, m, n), costs.recv_index_join(x, m)),
        (costs.exchange_join(n * x, m, n), costs.exchange_join(x, m)),
        (costs.send_update(m, n), costs.send_update(m)),
        (costs.exchange_update(m, n), costs.exchange_update(m)),
        (costs.handshake(m, n), costs.handshake(m)),
        (costs.send_response(n, n * 2.0, n * 5.0, m), costs.send_response(1.0, 2.0, 5.0, m)),
    ):
        assert many == pytest.approx(tuple(n * v for v in one), rel=1e-14)
    assert costs.process_join(n * x, n) == pytest.approx(n * costs.process_join(x))
    assert costs.process_query(n * x, n) == pytest.approx(n * costs.process_query(x))
    assert costs.process_update(n) == pytest.approx(n * costs.process_update())
    assert costs.reindex_units(n, n * x, m) == pytest.approx(n * costs.reindex_units(1, x, m))


def test_array_inputs_are_elementwise():
    files = np.array([0.0, 3.0, 168.0, 1999.0])
    conns = np.array([0.0, 1.0, 17.0, 59.0])
    for row in (costs.send_join, costs.recv_join, costs.recv_index_join,
                costs.exchange_join):
        nbytes, units = row(files, conns)
        for i in range(files.size):
            assert (nbytes[i], units[i]) == row(files[i], conns[i])
    nbytes, units = costs.send_response(files, files, files, conns)
    for i in range(files.size):
        assert (nbytes[i], units[i]) == costs.send_response(files[i], files[i], files[i], conns[i])


def test_composites_keep_the_per_event_order():
    """Composite events sum Table 2 terms left to right, as one event."""
    x, old, m = 211.0, 37.0, 9.0
    assert costs.exchange_join(x, m, dropped=old)[1] == (
        .44 + .2 * x + .56 + .3 * x + 2 * .01 * m + .14 + .105 * x + .14 + .105 * old)
    assert costs.exchange_update(m)[1] == .6 + .8 + 2 * .01 * m + .30
    assert costs.handshake(m)[1] == .44 + .57 + 2.0 * .01 * m
    assert costs.reindex_units(4, x, m) == 4 * (.56 + .14 + .01 * m) + (.3 + .105) * x


# --- the simulator charges these prices ---------------------------------------------


def _state():
    instance = build_instance(Configuration(
        graph_size=60, cluster_size=10, redundancy=True), seed=3)
    state = network._State(instance, default_query_model(), np.random.default_rng(0))
    cluster = int(np.nonzero(instance.clients)[0][0])
    return state, cluster, int(instance.client_ptr[cluster])


_METERS = ("sp_in", "sp_out", "sp_proc", "cl_in", "cl_out", "cl_proc")


def _assert_only(state, charged):
    for meter in _METERS:
        values = getattr(state, meter).copy()
        for index, amount in charged.get(meter, {}).items():
            assert values[index] == amount, meter
            values[index] = 0.0
        assert not values.any(), meter


def test_simulator_client_join_charges_the_costs_values():
    state, cluster, client = _state()
    old, new, partners = 37, 212, 2
    network._charge_client_join(state, cluster, client, old, new, partners)
    join_bytes, send_units = costs.send_join(new, state.m_cl)
    m = state.m_sp[cluster]
    _assert_only(state, {
        "cl_out": {client: partners * join_bytes},
        "cl_proc": {client: partners * send_units},
        "sp_in": {cluster: join_bytes},
        "sp_proc": {cluster: costs.process_join(old) + costs.recv_index_join(new, m)[1]},
    })
    assert state.cl_proc[client] == pytest.approx(2 * (.44 + .2 * new + .01 * state.m_cl))
    assert state.sp_proc[cluster] == pytest.approx(
        .14 + .105 * old + .56 + .3 * new + .01 * m + .14 + .105 * new)


def test_simulator_client_update_charges_the_costs_values():
    state, cluster, client = _state()
    partners = 2
    network._charge_client_update(state, cluster, client, partners)
    m = state.m_sp[cluster]
    _assert_only(state, {
        "cl_out": {client: partners * costs.send_update(state.m_cl)[0]},
        "cl_proc": {client: partners * costs.send_update(state.m_cl)[1]},
        "sp_in": {cluster: costs.recv_update(m)[0]},
        "sp_proc": {cluster: costs.recv_update(m)[1] + costs.process_update()},
    })
    assert state.cl_out[client] == 2 * 152
    assert state.sp_proc[cluster] == pytest.approx(.8 + .01 * m + .30)


# --- Table 2 lives in one module -------------------------------------------------------

#: Table 2 message-size constants (``repro.constants`` defines them).
_MESSAGE_SIZES = (
    "QUERY_MESSAGE_BASE", "QUERY_STRING_LENGTH", "AVERAGE_QUERY_MESSAGE_SIZE",
    "RESPONSE_MESSAGE_BASE", "RESPONSE_ADDRESS_SIZE", "RESULT_RECORD_SIZE",
    "JOIN_MESSAGE_BASE", "FILE_METADATA_SIZE", "UPDATE_MESSAGE_SIZE",
)


def test_table2_is_priced_in_one_module():
    """No module but ``core/costs.py`` names a Table 2 processing constant,
    the multiplex constant or a Table 2 message size; ``constants.py``
    only defines the sizes."""
    names = [name for name in vars(costs) if name.isupper()] + list(_MESSAGE_SIZES)
    assert "MULTIPLEX_PER_CONNECTION" in names and "SEND_JOIN_BASE" in names
    pattern = re.compile(r"\b(" + "|".join(names) + r")\b")
    root = Path(costs.__file__).resolve().parents[1]
    exempt = {root / "core" / "costs.py", root / "constants.py"}
    offenders = [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for path in sorted(root.rglob("*.py")) if path not in exempt
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "\n".join(offenders)
