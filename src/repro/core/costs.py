"""Atomic-action costs: Table 2 of the paper.

Each atomic action has a **bandwidth cost** (bytes transferred, attributed
to the sender's outgoing or the receiver's incoming budget) and a
**processing cost** (coarse units; 1 unit = 7200 cycles on the reference
Pentium III 930 MHz, see ``units.CYCLES_PER_UNIT``).  On top of every
message handled, a node pays the packet-multiplex overhead of
``0.01 * open_connections`` units (Appendix A; ``protocol.connections``).

Provenance of the constants
---------------------------
The bandwidth column and the Join processing costs are stated verbatim in
the paper (the Section 4.1 worked example fixes Send Join at
``.44 + .2 * files + .01 * connections``).  Several processing constants
in our source text are typographically corrupted; the table below marks
each constant ``[paper]`` (verbatim) or ``[recon]`` (reconstructed from
the corrupted glyphs, holding to the paper's magnitudes — the paper
itself stresses these are "representative, rather than exact").

==============  ==============================  ================================
Action          Bandwidth (bytes)               Processing (units)
==============  ==============================  ================================
Send Query      82 + len(q)          [paper]    .44 + .003 len(q)      [paper]
Recv Query      82 + len(q)          [paper]    .57 + .004 len(q)      [paper]
Process Query   0                    [paper]    .14 + 1.1 #results     [recon]
Send Response   80 + 28 #addr + 76 #res [paper]  .21 + .31 #addr + .2 #res [recon]
Recv Response   80 + 28 #addr + 76 #res [paper]  .26 + .41 #addr + .3 #res [recon]
Send Join       80 + 72 #files       [paper]    .44 + .2 #files        [paper]
Recv Join       80 + 72 #files       [paper]    .56 + .3 #files        [paper]
Process Join    0                    [paper]    .14 + .105 #files      [recon]
Send Update     152                  [paper]    .6                     [recon]
Recv Update     152                  [paper]    .8                     [recon]
Process Update  0                    [paper]    .30                    [recon]
Packet Multiplex 0                   [paper]    .01 #connections       [paper]
==============  ==============================  ================================
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .. import constants
from ..protocol.connections import MULTIPLEX_COST_PER_CONNECTION
from ..protocol.messages import (
    join_message_bytes,
    query_message_bytes,
    response_message_bytes,
    update_message_bytes,
)


@dataclass(frozen=True)
class CostVector:
    """Cost along the three resources of Section 4: in-bw, out-bw, processing.

    Bandwidth components are in **bytes**, processing in **units**;
    conversion to bps / Hz happens once at reporting time (``units`` module).
    Supports addition and scalar multiplication so macro actions compose
    algebraically from atomic ones.
    """

    incoming_bytes: float = 0.0
    outgoing_bytes: float = 0.0
    processing_units: float = 0.0

    def __add__(self, other: "CostVector") -> "CostVector":
        if not isinstance(other, CostVector):
            return NotImplemented
        return CostVector(
            self.incoming_bytes + other.incoming_bytes,
            self.outgoing_bytes + other.outgoing_bytes,
            self.processing_units + other.processing_units,
        )

    def __mul__(self, factor: float) -> "CostVector":
        return CostVector(
            self.incoming_bytes * factor,
            self.outgoing_bytes * factor,
            self.processing_units * factor,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "CostVector":
        return self * -1.0

    def __sub__(self, other: "CostVector") -> "CostVector":
        if not isinstance(other, CostVector):
            return NotImplemented
        return self + (-other)

    @property
    def total_bytes(self) -> float:
        """In + out bandwidth, the quantity Figure 4 plots."""
        return self.incoming_bytes + self.outgoing_bytes

    def is_nonnegative(self) -> bool:
        return (
            self.incoming_bytes >= 0
            and self.outgoing_bytes >= 0
            and self.processing_units >= 0
        )


ZERO_COST = CostVector()

# --- Table 2 processing constants -------------------------------------------

#: Send Query: .44 + .003 * query_length   [paper]
SEND_QUERY_BASE = 0.44
SEND_QUERY_PER_BYTE = 0.003

#: Recv Query: .57 + .004 * query_length   [paper]
RECV_QUERY_BASE = 0.57
RECV_QUERY_PER_BYTE = 0.004

#: Process Query: .14 + 1.1 * #results     [recon]
PROCESS_QUERY_BASE = 0.14
PROCESS_QUERY_PER_RESULT = 1.1

#: Send Response: .21 + .31 * #addr + .2 * #results   [recon]
SEND_RESPONSE_BASE = 0.21
SEND_RESPONSE_PER_ADDRESS = 0.31
SEND_RESPONSE_PER_RESULT = 0.2

#: Recv Response: .26 + .41 * #addr + .3 * #results   [recon]
RECV_RESPONSE_BASE = 0.26
RECV_RESPONSE_PER_ADDRESS = 0.41
RECV_RESPONSE_PER_RESULT = 0.3

#: Send Join: .44 + .2 * #files            [paper, worked example]
SEND_JOIN_BASE = 0.44
SEND_JOIN_PER_FILE = 0.2

#: Recv Join: .56 + .3 * #files            [paper]
RECV_JOIN_BASE = 0.56
RECV_JOIN_PER_FILE = 0.3

#: Process Join (index insertion): .14 + .105 * #files   [recon]
PROCESS_JOIN_BASE = 0.14
PROCESS_JOIN_PER_FILE = 0.105

#: Send / Recv / Process Update            [recon]
SEND_UPDATE_UNITS = 0.6
RECV_UPDATE_UNITS = 0.8
PROCESS_UPDATE_UNITS = 0.30

#: Packet multiplex: .01 * #open connections per message   [paper, App. A]
MULTIPLEX_PER_CONNECTION = MULTIPLEX_COST_PER_CONNECTION

#: Read-only export of every processing constant, keyed as in Table 2,
#: for documentation tables and the T2 benchmark.
ATOMIC_COSTS = MappingProxyType({
    "send_query": (SEND_QUERY_BASE, SEND_QUERY_PER_BYTE),
    "recv_query": (RECV_QUERY_BASE, RECV_QUERY_PER_BYTE),
    "process_query": (PROCESS_QUERY_BASE, PROCESS_QUERY_PER_RESULT),
    "send_response": (SEND_RESPONSE_BASE, SEND_RESPONSE_PER_ADDRESS, SEND_RESPONSE_PER_RESULT),
    "recv_response": (RECV_RESPONSE_BASE, RECV_RESPONSE_PER_ADDRESS, RECV_RESPONSE_PER_RESULT),
    "send_join": (SEND_JOIN_BASE, SEND_JOIN_PER_FILE),
    "recv_join": (RECV_JOIN_BASE, RECV_JOIN_PER_FILE),
    "process_join": (PROCESS_JOIN_BASE, PROCESS_JOIN_PER_FILE),
    "send_update": (SEND_UPDATE_UNITS,),
    "recv_update": (RECV_UPDATE_UNITS,),
    "process_update": (PROCESS_UPDATE_UNITS,),
    "packet_multiplex": (MULTIPLEX_PER_CONNECTION,),
})

# --- Atomic actions ----------------------------------------------------------
#
# Each function returns the CostVector incurred *by the node performing
# the action*, already including the packet-multiplex overhead for the
# node's ``connections`` open connections.  ``num_messages`` may be a
# fractional expected count: the mean-value analysis scales the fixed
# per-message parts by expected message counts and the variable parts by
# expected payload totals, which is exact because every cost is linear.


def send_query(
    connections: float,
    num_messages: float = 1.0,
    query_length: float = constants.QUERY_STRING_LENGTH,
) -> CostVector:
    """Cost of sending ``num_messages`` Query messages."""
    per_message = (
        SEND_QUERY_BASE
        + SEND_QUERY_PER_BYTE * query_length
        + MULTIPLEX_PER_CONNECTION * connections
    )
    return CostVector(
        outgoing_bytes=query_message_bytes(query_length) * num_messages,
        processing_units=per_message * num_messages,
    )


def recv_query(
    connections: float,
    num_messages: float = 1.0,
    query_length: float = constants.QUERY_STRING_LENGTH,
) -> CostVector:
    """Cost of receiving ``num_messages`` Query messages (dropped duplicates
    included — they are received and then discarded)."""
    per_message = (
        RECV_QUERY_BASE
        + RECV_QUERY_PER_BYTE * query_length
        + MULTIPLEX_PER_CONNECTION * connections
    )
    return CostVector(
        incoming_bytes=query_message_bytes(query_length) * num_messages,
        processing_units=per_message * num_messages,
    )


def process_query(expected_results: float, num_queries: float = 1.0) -> CostVector:
    """Cost of evaluating ``num_queries`` queries over the local index."""
    return CostVector(
        processing_units=(
            PROCESS_QUERY_BASE * num_queries
            + PROCESS_QUERY_PER_RESULT * expected_results
        )
    )


def send_response(
    connections: float,
    num_messages: float,
    num_addresses: float,
    num_results: float,
) -> CostVector:
    """Cost of sending Response traffic.

    ``num_messages`` is the expected number of Response messages;
    ``num_addresses`` and ``num_results`` are the expected *totals* across
    those messages (linearity makes this exact).
    """
    payload_bytes = response_message_bytes(num_addresses, num_results)
    # response_message_bytes charges one fixed header; re-weight it by the
    # expected message count.
    fixed = constants.RESPONSE_MESSAGE_BASE
    bytes_total = fixed * num_messages + (payload_bytes - fixed)
    processing = (
        (SEND_RESPONSE_BASE + MULTIPLEX_PER_CONNECTION * connections) * num_messages
        + SEND_RESPONSE_PER_ADDRESS * num_addresses
        + SEND_RESPONSE_PER_RESULT * num_results
    )
    return CostVector(outgoing_bytes=bytes_total, processing_units=processing)


def recv_response(
    connections: float,
    num_messages: float,
    num_addresses: float,
    num_results: float,
) -> CostVector:
    """Cost of receiving Response traffic (see :func:`send_response`)."""
    payload_bytes = response_message_bytes(num_addresses, num_results)
    fixed = constants.RESPONSE_MESSAGE_BASE
    bytes_total = fixed * num_messages + (payload_bytes - fixed)
    processing = (
        (RECV_RESPONSE_BASE + MULTIPLEX_PER_CONNECTION * connections) * num_messages
        + RECV_RESPONSE_PER_ADDRESS * num_addresses
        + RECV_RESPONSE_PER_RESULT * num_results
    )
    return CostVector(incoming_bytes=bytes_total, processing_units=processing)


def response_costs(num_messages, num_addresses, num_results, connections, send: bool):
    """(bytes, processing units) of Response traffic, elementwise.

    The array form of :func:`send_response` (``send``) and
    :func:`recv_response`: the engines charge whole per-node vectors of
    Response messages, addresses and result records at once.
    """
    if send:
        base, per_address, per_result = (
            SEND_RESPONSE_BASE, SEND_RESPONSE_PER_ADDRESS, SEND_RESPONSE_PER_RESULT)
    else:
        base, per_address, per_result = (
            RECV_RESPONSE_BASE, RECV_RESPONSE_PER_ADDRESS, RECV_RESPONSE_PER_RESULT)
    nbytes = (
        constants.RESPONSE_MESSAGE_BASE * num_messages
        + constants.RESPONSE_ADDRESS_SIZE * num_addresses
        + constants.RESULT_RECORD_SIZE * num_results
    )
    units = (
        (base + MULTIPLEX_PER_CONNECTION * connections) * num_messages
        + per_address * num_addresses
        + per_result * num_results
    )
    return nbytes, units


def send_join(connections: float, num_files: float, num_messages: float = 1.0) -> CostVector:
    """Cost of sending a Join carrying metadata for ``num_files`` files.

    Matches the worked example of Section 4.1: outgoing ``80 + 72x`` bytes
    and ``.44 + .2x + .01m`` units for a client with x files and m open
    connections.
    """
    processing = (
        (SEND_JOIN_BASE + MULTIPLEX_PER_CONNECTION * connections) * num_messages
        + SEND_JOIN_PER_FILE * num_files
    )
    fixed = constants.JOIN_MESSAGE_BASE
    bytes_total = fixed * num_messages + (join_message_bytes(num_files) - fixed)
    return CostVector(outgoing_bytes=bytes_total, processing_units=processing)


def recv_join(connections: float, num_files: float, num_messages: float = 1.0) -> CostVector:
    """Cost of receiving a Join message (super-peer side)."""
    processing = (
        (RECV_JOIN_BASE + MULTIPLEX_PER_CONNECTION * connections) * num_messages
        + RECV_JOIN_PER_FILE * num_files
    )
    fixed = constants.JOIN_MESSAGE_BASE
    bytes_total = fixed * num_messages + (join_message_bytes(num_files) - fixed)
    return CostVector(incoming_bytes=bytes_total, processing_units=processing)


def process_join(num_files: float, num_joins: float = 1.0) -> CostVector:
    """Cost of inserting (or removing) ``num_files`` metadata records."""
    return CostVector(
        processing_units=PROCESS_JOIN_BASE * num_joins + PROCESS_JOIN_PER_FILE * num_files
    )


def send_update(connections: float, num_messages: float = 1.0) -> CostVector:
    """Cost of sending ``num_messages`` Update messages."""
    per_message = SEND_UPDATE_UNITS + MULTIPLEX_PER_CONNECTION * connections
    return CostVector(
        outgoing_bytes=update_message_bytes() * num_messages,
        processing_units=per_message * num_messages,
    )


def recv_update(connections: float, num_messages: float = 1.0) -> CostVector:
    """Cost of receiving ``num_messages`` Update messages."""
    per_message = RECV_UPDATE_UNITS + MULTIPLEX_PER_CONNECTION * connections
    return CostVector(
        incoming_bytes=update_message_bytes() * num_messages,
        processing_units=per_message * num_messages,
    )


def process_update(num_updates: float = 1.0) -> CostVector:
    """Cost of applying ``num_updates`` index updates."""
    return CostVector(processing_units=PROCESS_UPDATE_UNITS * num_updates)
