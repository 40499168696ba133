"""Shared fixtures."""

from __future__ import annotations

import signal
import tracemalloc
from contextlib import contextmanager

import pytest

from majorant import constructions, lp_engine


@pytest.fixture(autouse=True)
def forget_evaluation():
    """Empties the last evaluation before each test; call it to empty it again."""

    def forget():
        constructions._last = (None, {})

    forget()
    return forget


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
def grid_passes(monkeypatch):
    """The grid of every `lp_engine._grid_means` pass made in the test."""
    passes: list[int] = []
    real = lp_engine._grid_means

    def spy(freqs, rows, n, ps, half=False):
        passes.append(n)
        return real(freqs, rows, n, ps, half)

    monkeypatch.setattr(lp_engine, "_grid_means", spy)
    return passes


@pytest.fixture
def traced_peak_mb():
    """`traced_peak_mb(f, *args)`: the peak memory tracemalloc sees f(*args) add, in MiB."""

    def peak(f, *args) -> float:
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            f(*args)
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
