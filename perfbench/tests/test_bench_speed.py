"""Scaling measured times by the machine-speed probe."""

import pytest

import speed


def _probe(samples):
    probe = speed.SpeedProbe()
    for t, cost in samples:
        probe.times.append(t)
        probe.costs.append(cost)
    return probe


def test_scaled_time_at_nominal_speed_is_unchanged():
    probe = _probe([(t / 10, speed.NOMINAL_S) for t in range(20)])
    assert probe.scaled(0.25, 1.25) == pytest.approx(1.0)


def test_slow_interval_is_scaled_down_by_mean_speed():
    # reference twice as slow for half the interval: mean speed 3/4 of nominal
    slow, fast = 2 * speed.NOMINAL_S, speed.NOMINAL_S
    probe = _probe([(0.1, slow), (0.2, slow), (0.3, fast), (0.4, fast)])
    assert probe.factor(0.05, 0.45) == pytest.approx(0.75)


def test_short_interval_uses_neighbouring_samples():
    probe = _probe([(0.1, speed.NOMINAL_S), (0.2, 2 * speed.NOMINAL_S), (0.3, 4 * speed.NOMINAL_S)])
    assert probe.factor(0.12, 0.18) == pytest.approx((1 + 0.5) / 2)
    assert probe.factor(0.35, 0.4) == pytest.approx(0.25)


def test_sample_records_cpu_time_of_reference_work():
    probe = speed.SpeedProbe()
    probe.sample()
    probe.sample()
    assert len(probe.costs) == 2 and all(c > 0 for c in probe.costs)
    assert probe.times == sorted(probe.times)
