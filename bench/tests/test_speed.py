import time

import pytest

from speed import INTERVAL_S, REFERENCE_S, SpeedProbe


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def test_scale_is_the_mean_reference_speed_of_the_samples_in_the_interval():
    probe = SpeedProbe()
    probe.samples = [(0.0, REFERENCE_S), (1.0, REFERENCE_S / 2), (2.0, REFERENCE_S * 4)]
    assert probe.scale(0.0, 2.0) == pytest.approx((1 + 2) / 2)
    assert probe.scale(0.5, 3.0) == pytest.approx((2 + 0.25) / 2)
    with pytest.raises(ValueError):
        probe.scale(3.0, 4.0)


def test_probe_samples_a_busy_thread_until_stopped():
    probe = SpeedProbe()
    probe.start()
    try:
        busy(20 * INTERVAL_S)
    finally:
        probe.stop()
    taken = len(probe.samples)
    assert taken >= 10
    assert all(seconds > 0 for _, seconds in probe.samples)
    busy(4 * INTERVAL_S)
    assert len(probe.samples) == taken
