"""Shared fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from majorant import lp_engine


@pytest.fixture
def time_limit():
    """`with time_limit(s):` fails the test once the block has run s seconds.

    The limit is a real-time interval timer, so a block that would never
    finish fails instead of hanging the suite.
    """

    @contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def squares_builds(monkeypatch):
    """The grid of every `lp_engine._half_grid_squares` call made in the test."""
    built: list[int] = []
    real = lp_engine._half_grid_squares

    def spy(freqs, rows, n):
        built.append(n)
        return real(freqs, rows, n)

    monkeypatch.setattr(lp_engine, "_half_grid_squares", spy)
    return built
