"""Units and conversions used throughout the cost model.

The paper measures load along three resources (Section 4):

* **incoming bandwidth**, in bits per second (bps);
* **outgoing bandwidth**, in bits per second (bps);
* **processing power**, in cycles per second (Hz).

Message sizes in the cost table (Table 2) are given in *bytes*; processing
costs are given in coarse *units*, where one unit is the cost of sending
and receiving a Gnutella message with no payload — measured as roughly
7200 cycles on the paper's reference machine (a Pentium III 930 MHz
running Linux 2.2).

This module owns the conversion constants so that every other module can
work in the paper's native table units (bytes, units) and convert to
figure units (bps, Hz) exactly once, at reporting time.
"""

from __future__ import annotations

#: Bits per byte; message sizes are tabulated in bytes, figures in bps.
BITS_PER_BYTE = 8

#: Cycles per processing "unit" (Section 4.1, step 2): one unit is the
#: measured cost of sending and receiving an empty Gnutella message.
CYCLES_PER_UNIT = 7200.0

#: Clock speed of the paper's reference measurement machine, for context
#: when interpreting processing loads (Pentium III 930 MHz).
REFERENCE_CPU_HZ = 930e6


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return num_bytes * BITS_PER_BYTE


def units_to_cycles(units: float) -> float:
    """Convert coarse processing units to CPU cycles.

    One unit is defined as the cost of sending and receiving an empty
    Gnutella message (~7200 cycles on the reference machine).
    """
    return units * CYCLES_PER_UNIT


def cycles_to_units(cycles: float) -> float:
    """Convert CPU cycles back to coarse processing units."""
    return cycles / CYCLES_PER_UNIT


def bytes_per_second_to_bps(bytes_per_second: float) -> float:
    """Convert a byte rate into the bps figures the paper plots."""
    return bytes_per_second * BITS_PER_BYTE


def units_per_second_to_hz(units_per_second: float) -> float:
    """Convert a unit rate into the Hz figures the paper plots."""
    return units_per_second * CYCLES_PER_UNIT


def format_bps(bps: float) -> str:
    """Render a bandwidth value the way the paper's figures label them."""
    return _format_engineering(bps, "bps")


def format_hz(hz: float) -> str:
    """Render a processing value the way the paper's figures label them."""
    return _format_engineering(hz, "Hz")


def _format_engineering(value: float, unit: str) -> str:
    """Format ``value`` with an engineering prefix (K/M/G/T)."""
    prefixes = [(1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")]
    magnitude = abs(value)
    for threshold, prefix in prefixes:
        if magnitude >= threshold:
            return f"{value / threshold:.3g} {prefix}{unit}"
    return f"{value:.3g} {unit}"
