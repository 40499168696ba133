"""Shared fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest


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
