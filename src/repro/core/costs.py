"""Atomic-action costs: Table 2 of the paper, the one price list.

Each atomic action has a **bandwidth cost** (bytes transferred, attributed
to the sender's outgoing or the receiver's incoming budget) and a
**processing cost** (coarse units; 1 unit = 7200 cycles on the reference
Pentium III 930 MHz, see ``units.CYCLES_PER_UNIT``).  On top of every
message handled, a node pays the packet-multiplex overhead of
``0.01 * open_connections`` units (Appendix A, below).

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

Message sizes follow Gnutella v0.4 plus the Ethernet/TCP/IP framing the
paper includes (``constants``): a Query is ``82 + len(q)`` bytes (94 at
the default 12-byte string), a Response ``80 + 28 #addr + 76 #results``,
a Join ``80 + 72 #files`` and an Update a fixed 152.

Packet multiplex (Appendix A)
-----------------------------
The super-peer is an event-driven server: one thread services all
connections via ``select``, whose common implementation scans one file
descriptor per open connection.  The measured scan cost is about 3
microseconds per descriptor on a Pentium 100 (Gooch), **0.04 units** on
the paper's scale, and under the default load about four messages are
discovered per ``select`` call, so the amortized overhead is
``0.04 / 4 = 0.01`` units per open connection, per message sent or
received.  This is the ``.01 * m`` of the Section 4.1 Join example; the
linear regime holds for the <= 1000 connections the paper considers
(Banga & Mogul see it level off only beyond that).

Evaluation order
----------------
Every function is elementwise over numpy arrays or scalars and charges
``n`` messages (or index operations) at a node with ``m`` open
connections.  A row is written ``BASE*n + PER*payload + MUX*m*n``, where
the payload is the total over the ``n`` messages; at ``n = 1`` this is
the per-event ``BASE + PER*x + MUX*m`` of the worked example bit for bit,
so a caller may charge one event and scale it, or pass expected counts
and totals as ``n`` and payload (every cost is linear).  Response rows
are written ``(BASE + MUX*m)*n + PER_ADDR*#addr + PER_RES*#res``, the
order in which the simulator charges whole vectors of Responses.  The
composite events below (a partner receiving and indexing a Join, an
exchange between fellow partners, a handshake pair, a promotion's index
rebuild) sum their terms in the simulator's per-event order.  Both keep
the simulator's loads, which the benchmark pins bit for bit, unchanged.
"""

from __future__ import annotations

from .. import constants

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

# --- Appendix A: packet multiplex ---------------------------------------------

#: Cost of scanning one file descriptor in a select() call, units.
SELECT_SCAN_COST_UNITS = 0.04

#: Average number of messages amortizing one select() call.
MESSAGES_PER_SELECT = 4.0

#: Per-message, per-open-connection overhead, units (0.01).
MULTIPLEX_PER_CONNECTION = SELECT_SCAN_COST_UNITS / MESSAGES_PER_SELECT

#: An empty message (a handshake half, a verification probe): the fixed
#: 80-byte header alone.
EMPTY_MESSAGE_BYTES = 80.0


# --- Table 2 rows ----------------------------------------------------------------
#
# Send/Recv rows return (bytes, units); Process rows move no bytes and
# return units.


def send_query(m, n=1.0):
    """Send Query: ``n`` Query messages of the default query length."""
    return (constants.AVERAGE_QUERY_MESSAGE_SIZE * n,
            SEND_QUERY_BASE * n
            + SEND_QUERY_PER_BYTE * (constants.QUERY_STRING_LENGTH * n)
            + MULTIPLEX_PER_CONNECTION * m * n)


def recv_query(m, n=1.0):
    """Recv Query: ``n`` Query messages received (dropped duplicates
    included — they are received and then discarded)."""
    return (constants.AVERAGE_QUERY_MESSAGE_SIZE * n,
            RECV_QUERY_BASE * n
            + RECV_QUERY_PER_BYTE * (constants.QUERY_STRING_LENGTH * n)
            + MULTIPLEX_PER_CONNECTION * m * n)


def process_query(results, n=1.0):
    """Process Query: ``n`` index probes returning ``results`` in all."""
    return PROCESS_QUERY_BASE * n + PROCESS_QUERY_PER_RESULT * results


def _response(n, addresses, results, m, base, per_address, per_result):
    nbytes = (
        constants.RESPONSE_MESSAGE_BASE * n
        + constants.RESPONSE_ADDRESS_SIZE * addresses
        + constants.RESULT_RECORD_SIZE * results
    )
    units = (
        (base + MULTIPLEX_PER_CONNECTION * m) * n
        + per_address * addresses
        + per_result * results
    )
    return nbytes, units


def send_response(n, addresses, results, m):
    """Send Response: ``n`` Response messages carrying ``addresses``
    collection addresses and ``results`` records in all."""
    return _response(n, addresses, results, m, SEND_RESPONSE_BASE,
                     SEND_RESPONSE_PER_ADDRESS, SEND_RESPONSE_PER_RESULT)


def recv_response(n, addresses, results, m):
    """Recv Response (see :func:`send_response`)."""
    return _response(n, addresses, results, m, RECV_RESPONSE_BASE,
                     RECV_RESPONSE_PER_ADDRESS, RECV_RESPONSE_PER_RESULT)


def _join_bytes(files, n):
    return constants.JOIN_MESSAGE_BASE * n + constants.FILE_METADATA_SIZE * files


def send_join(files, m, n=1.0):
    """Send Join: ``n`` Joins carrying metadata for ``files`` files in all
    (Section 4.1: ``80 + 72x`` bytes and ``.44 + .2x + .01m`` units)."""
    return (_join_bytes(files, n),
            SEND_JOIN_BASE * n + SEND_JOIN_PER_FILE * files
            + MULTIPLEX_PER_CONNECTION * m * n)


def recv_join(files, m, n=1.0):
    """Recv Join (see :func:`send_join`)."""
    return (_join_bytes(files, n),
            RECV_JOIN_BASE * n + RECV_JOIN_PER_FILE * files
            + MULTIPLEX_PER_CONNECTION * m * n)


def process_join(files, n=1.0):
    """Process Join: ``n`` index insertions (or removals) of ``files``
    metadata records in all."""
    return PROCESS_JOIN_BASE * n + PROCESS_JOIN_PER_FILE * files


def send_update(m, n=1.0):
    """Send Update: ``n`` single-file metadata deltas."""
    return (constants.UPDATE_MESSAGE_SIZE * n,
            SEND_UPDATE_UNITS * n + MULTIPLEX_PER_CONNECTION * m * n)


def recv_update(m, n=1.0):
    """Recv Update (see :func:`send_update`)."""
    return (constants.UPDATE_MESSAGE_SIZE * n,
            RECV_UPDATE_UNITS * n + MULTIPLEX_PER_CONNECTION * m * n)


def process_update(n=1.0):
    """Process Update: ``n`` index updates applied."""
    return PROCESS_UPDATE_UNITS * n


# --- Composite events -------------------------------------------------------------


def handshake(m, n=1.0):
    """``n`` connection handshakes: one empty message each way.

    Returns the bytes of each direction and the units of the pair.  By
    definition (Section 4.1) sending plus receiving an empty message costs
    one unit; it is split with the Send and Recv Query base costs, which
    sum to ~1.
    """
    return (EMPTY_MESSAGE_BYTES * n,
            (SEND_QUERY_BASE + RECV_QUERY_BASE) * n
            + 2.0 * MULTIPLEX_PER_CONNECTION * m * n)


def send_empty(m, n=1.0):
    """The sending half of :func:`handshake` alone (a verification probe)."""
    return (EMPTY_MESSAGE_BYTES * n,
            SEND_QUERY_BASE * n + MULTIPLEX_PER_CONNECTION * m * n)


def recv_empty(m, n=1.0):
    """The receiving half of :func:`handshake` alone."""
    return (EMPTY_MESSAGE_BYTES * n,
            RECV_QUERY_BASE * n + MULTIPLEX_PER_CONNECTION * m * n)


def recv_index_join(files, m, n=1.0):
    """A partner receives ``n`` client Joins and indexes their ``files``
    records: Recv Join then Process Join."""
    return (_join_bytes(files, n),
            RECV_JOIN_BASE * n + RECV_JOIN_PER_FILE * files
            + MULTIPLEX_PER_CONNECTION * m * n
            + PROCESS_JOIN_BASE * n + PROCESS_JOIN_PER_FILE * files)


def exchange_join(files, m, n=1.0, dropped=None):
    """A partner ships its own metadata (``files`` records) to a fellow
    partner, which indexes it: the Send Join, Recv Join and Process Join
    of one message whose two ends share a meter.  With ``dropped`` the
    fellow also removes that many records of a departed partner."""
    units = (SEND_JOIN_BASE * n + SEND_JOIN_PER_FILE * files
             + RECV_JOIN_BASE * n + RECV_JOIN_PER_FILE * files
             + 2.0 * MULTIPLEX_PER_CONNECTION * m * n
             + PROCESS_JOIN_BASE * n + PROCESS_JOIN_PER_FILE * files)
    if dropped is not None:
        units = units + PROCESS_JOIN_BASE * n + PROCESS_JOIN_PER_FILE * dropped
    return _join_bytes(files, n), units


def exchange_update(m, n=1.0):
    """A partner's own metadata delta sent to a fellow partner, which
    receives and applies it (both ends on one meter)."""
    return (constants.UPDATE_MESSAGE_SIZE * n,
            SEND_UPDATE_UNITS * n + RECV_UPDATE_UNITS * n
            + 2.0 * MULTIPLEX_PER_CONNECTION * m * n
            + PROCESS_UPDATE_UNITS * n)


def reindex_units(n, files, m):
    """Units for a promoted partner to receive and index the Joins of ``n``
    clients holding ``files`` records in all (the bytes are the Joins'
    own, :func:`send_join`)."""
    return (n * (RECV_JOIN_BASE + PROCESS_JOIN_BASE + MULTIPLEX_PER_CONNECTION * m)
            + (RECV_JOIN_PER_FILE + PROCESS_JOIN_PER_FILE) * files)
