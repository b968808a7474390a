"""T2/T3 — Tables 2 and 3: the atomic-action cost model.

Renders the cost table (bandwidth bytes + processing units per atomic
action, evaluated at the Table 3 general statistics) from the constants
of ``repro.core.costs``, and times the calls the engines make: per-event
prices as the event engine charges them, and whole per-node vectors as
the MVA and the array engine charge them.
"""

import numpy as np

from repro import constants
from repro.core import costs
from repro.reporting import render_table

from conftest import run_once


def _u(value: float) -> str:
    """A processing constant in the paper's style (``.44``, ``1.1``)."""
    text = f"{value:g}"
    return text[1:] if text.startswith("0.") else text


def _cost_table_rows():
    c, k = costs, constants
    response_bytes = (f"{k.RESPONSE_MESSAGE_BASE} + {k.RESPONSE_ADDRESS_SIZE}/addr"
                      f" + {k.RESULT_RECORD_SIZE}/result")
    join_bytes = f"{k.JOIN_MESSAGE_BASE} + {k.FILE_METADATA_SIZE}/file"
    return [
        ["Send Query", f"{k.QUERY_MESSAGE_BASE} + len = {c.send_query(0)[0]:g}",
         f"{_u(c.SEND_QUERY_BASE)} + {_u(c.SEND_QUERY_PER_BYTE)} len"
         f" = {c.send_query(0)[1]:.3f}"],
        ["Recv Query", f"{k.QUERY_MESSAGE_BASE} + len = {c.recv_query(0)[0]:g}",
         f"{_u(c.RECV_QUERY_BASE)} + {_u(c.RECV_QUERY_PER_BYTE)} len"
         f" = {c.recv_query(0)[1]:.3f}"],
        ["Process Query", "0",
         f"{_u(c.PROCESS_QUERY_BASE)} + {_u(c.PROCESS_QUERY_PER_RESULT)}/result"],
        ["Send Response", response_bytes,
         f"{_u(c.SEND_RESPONSE_BASE)} + {_u(c.SEND_RESPONSE_PER_ADDRESS)}/addr"
         f" + {_u(c.SEND_RESPONSE_PER_RESULT)}/result"],
        ["Recv Response", response_bytes,
         f"{_u(c.RECV_RESPONSE_BASE)} + {_u(c.RECV_RESPONSE_PER_ADDRESS)}/addr"
         f" + {_u(c.RECV_RESPONSE_PER_RESULT)}/result"],
        ["Send Join", join_bytes,
         f"{_u(c.SEND_JOIN_BASE)} + {_u(c.SEND_JOIN_PER_FILE)}/file"],
        ["Recv Join", join_bytes,
         f"{_u(c.RECV_JOIN_BASE)} + {_u(c.RECV_JOIN_PER_FILE)}/file"],
        ["Process Join", "0",
         f"{_u(c.PROCESS_JOIN_BASE)} + {_u(c.PROCESS_JOIN_PER_FILE)}/file"],
        ["Send Update", f"{k.UPDATE_MESSAGE_SIZE}", _u(c.SEND_UPDATE_UNITS)],
        ["Recv Update", f"{k.UPDATE_MESSAGE_SIZE}", _u(c.RECV_UPDATE_UNITS)],
        ["Process Update", "0", _u(c.PROCESS_UPDATE_UNITS)],
        ["Packet Multiplex", "0",
         f"{_u(c.MULTIPLEX_PER_CONNECTION)}/connection/message"],
    ]


def test_t2_cost_table(benchmark, emit):
    files = np.arange(2000.0)
    conns = np.full(files.size, 30.0)

    def experiment():
        # Per-event prices, one scalar call each (the event engine).
        total = 0.0
        for x in range(2000):
            total += (costs.send_join(float(x), 3.0)[1]
                      + costs.recv_index_join(float(x), 30.0)[1]
                      + costs.send_query(30.0)[1]
                      + costs.process_query(0.1 * x))
        # Whole per-node vectors (the MVA and the array engine).
        for _ in range(200):
            total += float(costs.send_response(0.8, files * 0.1, files, conns)[1].sum()
                           + costs.recv_join(files, conns, files)[1].sum()
                           + costs.handshake(conns, files)[1].sum())
        return total

    total = run_once(benchmark, experiment)
    assert total > 0.0

    rows = _cost_table_rows()
    assert rows[0][1].endswith(f"= {constants.AVERAGE_QUERY_MESSAGE_SIZE}")
    table = render_table(
        ["Action", "Bandwidth (bytes)", "Processing (units)"],
        rows,
        title="Table 2 — costs of atomic actions (1 unit = 7200 cycles)",
    )
    stats = render_table(
        ["Statistic", "Value"],
        [
            ["Expected query string length", f"{constants.QUERY_STRING_LENGTH} B"],
            ["Average result record size", f"{constants.RESULT_RECORD_SIZE} B"],
            ["Average per-file metadata size", f"{constants.FILE_METADATA_SIZE} B"],
            ["Queries per user per second", f"{constants.DEFAULT_QUERY_RATE:.2e}"],
            ["Updates per user per second", f"{constants.DEFAULT_UPDATE_RATE:.2e}"],
        ],
        title="Table 3 — general statistics",
    )
    emit("T2_T3_costs", table + "\n\n" + stats)
