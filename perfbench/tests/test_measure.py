"""Segment statistics and the host-speed scaling."""

import pytest

from perfbench import measure


def block(seconds, unit):
    ops = [("count", seconds, True)] * 4
    return measure.Block(4 * seconds, ops, [unit] * 3)


def test_scaling_divides_out_host_speed():
    ref = measure.REFERENCE_UNIT_S
    # The same program work on a host twice as slow in the second half:
    # wall figures differ, scaled ones do not.
    records = [block(0.01, ref)] * 5 + [block(0.02, 2 * ref)] * 5
    wall = measure.segment_summary(records, ["count"], 5, normalise=False)
    scaled = measure.segment_summary(records, ["count"], 5)
    assert wall["count_p50_ms"] == pytest.approx(15.0)
    assert scaled["count_p50_ms"] == pytest.approx(10.0)
    assert scaled["ops_per_s"] == pytest.approx(100.0)


def test_calibration_units_are_timed_one_by_one():
    units = measure.calibration_units(3)
    assert len(units) == 3
    assert all(u > 0 for u in units)
