"""Low-overhead wall-clock timers for instrumentation.

The engine's hot paths (unit propagation, the grounding join) cannot
afford dictionary lookups per event, so the pattern throughout the
codebase is: count with plain integer attributes inside the hot loop,
then publish snapshots into a :class:`~repro.observability.SolveStats`
tree at stage boundaries (:meth:`~repro.observability.SolveStats.incr`
for code that is not hot).  :class:`Timer` wraps those boundaries.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class Timer:
    """A re-entrant ``perf_counter`` stopwatch and context manager.

    Accumulates across multiple ``with`` blocks (or ``start``/``stop``
    pairs), so one timer can meter a stage that runs in pieces::

        timer = Timer()
        with timer:
            ...
        with timer:
            ...
        timer.elapsed   # total seconds across both blocks

    ``on_stop`` (used by ``SolveStats.timer``) receives each block's
    duration as it completes.
    """

    __slots__ = ("elapsed", "_started", "_on_stop")

    def __init__(self, on_stop: Optional[Callable[[float], None]] = None):
        self.elapsed = 0.0
        self._started: Optional[float] = None
        self._on_stop = on_stop

    def start(self) -> "Timer":
        """Begin (or resume) timing; returns ``self``."""
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """End the current block; returns its duration in seconds."""
        if self._started is None:
            return 0.0
        duration = time.perf_counter() - self._started
        self._started = None
        self.elapsed += duration
        if self._on_stop is not None:
            self._on_stop(duration)
        return duration

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["Timer"]
