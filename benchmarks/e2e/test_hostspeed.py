"""Tests for the host-speed scaling of measured intervals (``hostspeed.py``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import signal
import time

import pytest

import hostspeed
from hostspeed import REFERENCE_S, HostSpeed


def _host(*samples):
    host = HostSpeed()
    host.samples = list(samples)
    return host


def test_interval_scales_by_mean_kernel_time_around_it():
    # Kernel runs at twice and four times the reference time: mean 3x.
    host = _host((10.0, 10.0, 2 * REFERENCE_S), (11.0, 11.0, 4 * REFERENCE_S),
                 (30.0, 30.0, 100 * REFERENCE_S))
    assert host.normalized(10.2, 10.8) == pytest.approx(0.6 / 3)


def test_kernel_time_inside_an_interval_is_not_counted():
    host = _host((1.0, 1.5, REFERENCE_S))
    assert host.normalized(0.0, 2.0) == pytest.approx(1.5)


def test_interval_with_no_kernel_run_near_it_uses_its_neighbours():
    host = _host((0.0, 0.0, REFERENCE_S), (10.0, 10.0, 3 * REFERENCE_S),
                 (20.0, 20.0, 9 * REFERENCE_S))
    assert host.normalized(4.0, 6.0) == pytest.approx(2.0 / 2)
    assert host.normalized(25.0, 26.0) == pytest.approx(1.0 / 6)


def test_timer_samples_and_restores_the_previous_handler():
    before = signal.getsignal(signal.SIGALRM)
    host = HostSpeed()
    host.start()
    try:
        time.sleep(3.5 * hostspeed.INTERVAL_S)
    finally:
        host.stop()
    assert len(host.samples) >= 3
    assert all(cpu > 0 for *_, cpu in host.samples)
    assert signal.getsignal(signal.SIGALRM) == before
    assert host.slowdown() > 0
