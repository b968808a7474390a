"""Unit-conversion tests."""

import math

import pytest

from repro import units


def test_bytes_to_bits_roundtrip():
    assert units.bytes_to_bits(100) == 800
    assert units.bytes_to_bits(123.5) / units.BITS_PER_BYTE == pytest.approx(123.5)


def test_unit_definition_is_7200_cycles():
    # One unit = sending + receiving an empty Gnutella message (Section 4.1).
    assert units.units_to_cycles(1.0) == 7200.0
    assert units.cycles_to_units(7200.0) == 1.0


def test_cycles_roundtrip():
    assert units.cycles_to_units(units.units_to_cycles(3.7)) == pytest.approx(3.7)


def test_rate_conversions():
    assert units.bytes_per_second_to_bps(125.0) == 1000.0
    assert units.units_per_second_to_hz(2.0) == 14400.0


def test_format_bps_engineering_prefixes():
    assert units.format_bps(1.5e5) == "150 Kbps"
    assert units.format_bps(2.5e6) == "2.5 Mbps"
    assert units.format_bps(3.0e9) == "3 Gbps"
    assert units.format_bps(12.0) == "12 bps"


def test_format_hz():
    assert units.format_hz(9.3e8) == "930 MHz"
    assert "GHz" in units.format_hz(2.4e9)


def test_format_handles_negative_values():
    assert units.format_bps(-2.5e6) == "-2.5 Mbps"


def test_reference_cpu_is_930mhz():
    assert units.REFERENCE_CPU_HZ == pytest.approx(930e6)
