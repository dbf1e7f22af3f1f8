"""Tests of the gauge that reads timings at the reference speed.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import yardstick  # noqa: E402
from yardstick import CAP, REFERENCE_S, WINDOW_S, Gauge  # noqa: E402


def gauge(paces: list[tuple[float, float]], threads: int = 1) -> Gauge:
    g = Gauge()
    for when, seconds in paces:
        g.add(when, seconds, threads)
    return g


def test_factor_is_reference_over_mean_of_nearby_paces():
    ref = REFERENCE_S[1]
    g = gauge([(0.0, ref), (1.0, 2 * ref), (100.0, 4 * ref), (101.0, 4 * ref)])
    # around t=0.5 only the first two are near: mean 1.5 ref
    assert g.factor(0.5) == pytest.approx(1 / 1.5)


def test_preempted_pace_counts_at_most_cap_times_the_median():
    ref = REFERENCE_S[1]
    g = gauge([(0.0, ref), (0.5, ref), (1.0, ref), (1.5, 50 * ref)])
    assert g.factor(0.75) == pytest.approx(4 / (3 + CAP))


def test_lone_sample_uses_the_two_nearest_paces():
    ref = REFERENCE_S[1]
    g = gauge([(0.0, ref), (10.0, 2 * ref), (30.0, 4 * ref)])
    assert WINDOW_S < 9.0
    assert g.factor(9.0) == pytest.approx(1 / 1.5)


def test_thread_counts_are_gauged_apart():
    g = gauge([(0.0, REFERENCE_S[1])])
    g.add(0.0, REFERENCE_S[1], 1)
    g.add(0.0, 2 * REFERENCE_S[2], 2)
    g.add(0.1, 2 * REFERENCE_S[2], 2)
    assert g.factor(0.0, 1) == pytest.approx(1.0)
    assert g.factor(0.0, 2) == pytest.approx(0.5)


def test_pace_runs_the_fixed_work_on_each_thread():
    assert yardstick._work() == yardstick._work()
    assert yardstick.pace(1) > 0
    assert yardstick.pace(2) > 0
