"""Timers and counters for benchmarking the analysis engines.

Deliberately tiny: a context-manager :class:`Timer` and an integer
:class:`Counter` map.  Both render to plain numbers and dicts so the
benchmark JSON writer (:mod:`repro.perf.trajectory`) can embed them
directly.
"""

from __future__ import annotations

import time

__all__ = ["Timer", "Counter"]


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


class Counter:
    """A string-keyed integer counter map."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Counter({self._counts})"

