"""Time sources for the bus: real wall time or a driven logical clock.

Timer-style consumers schedule repeating callbacks against whichever clock
the bus was built with. ``SimulatedClock`` never waits: due callbacks fire
only when the clock is advanced, which makes timed routes deterministic in
tests and CI.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time


class TimerHandle:
    def __init__(self, cancel):
        self._cancel = cancel
        self.cancelled = False

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            self._cancel()


class WallClock:
    """Real time; repeating schedules run on daemon threads."""

    def __init__(self):
        self.now = time.monotonic  # the C function itself: reading the clock adds no call

    def schedule_repeating(self, period: float, fn) -> TimerHandle:
        stop = threading.Event()

        def loop():
            while not stop.wait(period):
                fn()

        thread = threading.Thread(target=loop, name="clock-timer", daemon=True)
        thread.start()
        return TimerHandle(stop.set)


class SimulatedClock:
    """Logical time under test control.

    Scheduled callbacks fire during :meth:`advance` / :meth:`fire_next`, on
    the advancing thread, in (due time, registration order). ``now()`` starts
    at 0.0.
    """

    def __init__(self):
        self._now = 0.0
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, dict]] = []

    def now(self) -> float:
        with self._lock:
            return self._now

    def schedule_repeating(self, period: float, fn) -> TimerHandle:
        if period <= 0:
            raise ValueError("period must be positive")
        entry = {"fn": fn, "period": period, "cancelled": False}
        with self._lock:
            heapq.heappush(self._heap, (self._now + period, next(self._seq), entry))

        def cancel():
            entry["cancelled"] = True

        return TimerHandle(cancel)

    def advance(self, dt: float) -> int:
        """Move time forward by ``dt``, firing every callback that comes due.

        Returns the number of callbacks fired.
        """
        if dt < 0:
            raise ValueError("cannot advance backwards")
        with self._lock:
            deadline = self._now + dt
        fired = 0
        while True:
            with self._lock:
                if not self._heap or self._heap[0][0] > deadline:
                    self._now = deadline
                    return fired
                due, _, entry = heapq.heappop(self._heap)
                self._now = max(self._now, due)
                if not entry["cancelled"]:
                    heapq.heappush(
                        self._heap, (due + entry["period"], next(self._seq), entry)
                    )
            if not entry["cancelled"]:
                entry["fn"]()
                fired += 1

    def fire_next(self) -> bool:
        """Jump to the next scheduled callback and fire it; False when idle."""
        with self._lock:
            if not self._heap:
                return False
            horizon = self._heap[0][0] - self._now
        return self.advance(horizon) > 0
