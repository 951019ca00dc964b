"""Timers for benchmarking the analysis engines.

Deliberately tiny: a context-manager :class:`Timer` whose plain-number
readings the benchmark JSON writer (:mod:`repro.perf.trajectory`) can embed
directly.
"""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """Wall-clock context manager: ``with Timer() as t: ...; t.seconds``."""

    __slots__ = ("seconds", "_started")

    def __init__(self):
        self.seconds: float = 0.0
        self._started: float | None = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += time.perf_counter() - self._started
        self._started = None

    def rate(self, count: int) -> float:
        """Events per second over the measured time (0.0 when unmeasured)."""
        if self.seconds <= 0.0:
            return 0.0
        return count / self.seconds

