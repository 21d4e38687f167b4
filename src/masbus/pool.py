"""An elastic worker pool whose threads serve serial lanes: routes, agents.

A lane that goes from idle to having work calls ``dispatch``, which appends
it to the pool's FIFO ready queue and returns ``QUEUED``, the lane's owner
until a worker claims it in the lane's ``_serve(worker)``. That returns True
once the lane is idle, or at once if the lane was taken while it waited, and
False when the worker is to end. At most one worker is waking at a time:
``dispatch`` wakes the most recently parked worker, or starts one, only when
none is on its way, and a worker that takes a lane wakes one more while lanes
still wait. So a lane waits for a thread on its way, never behind a busy
lane, and a burst on one CPU starts one thread, not one per lane. A worker
that finishes a lane takes the next waiting one before it parks. A serving
worker is named after its lane (``thread_name``), a parked one after its pool.
"""

from __future__ import annotations

import threading
from collections import deque

# a lane's owner while it waits in a ready queue
QUEUED = "queued"


class Worker(threading.Thread):
    """A pool thread, parked on ``wake``; it ends once ``close`` moves its pool past ``epoch``."""

    def __init__(self, pool: "WorkerPool"):
        super().__init__(name=pool._parked_name, daemon=True)
        self.pool = pool
        self.epoch = pool._epoch
        self.wake = threading.Lock()
        self.wake.acquire()

    def run(self):
        self.wake.acquire()
        lane = self.pool._take(self, True)
        while lane is not None and lane._serve(self):
            lane = self.pool._take(self, False)


class WorkerPool:
    """The workers of one bus or registry, and the lanes waiting for one.

    One lock guards the ready queue, the workers, ``_waking`` (a worker was
    woken or started and has not taken a lane yet) and the epoch. Lanes
    dispatch holding their own lock; the pool never takes a lane's."""

    def __init__(self, parked_name: str):
        self._parked_name = parked_name
        self._lock = threading.Lock()
        self._ready: deque = deque()
        self._waking = False
        self._epoch = 0
        self._parked: list[Worker] = []
        self._workers: list[Worker] = []

    def dispatch(self, lane) -> str:
        """Queue ``lane`` for a worker; returns ``QUEUED``. A failed thread start
        leaves the lane unqueued and no worker waking, and raises."""
        with self._lock:
            self._ready.append(lane)
            if not self._waking:
                try:
                    self._wake()
                except BaseException:
                    self._ready.pop()
                    raise
        return QUEUED

    def _wake(self):
        """Wake the most recently parked worker, or start one; hold the lock."""
        if self._parked:
            worker = self._parked.pop()
        else:
            worker = Worker(self)
            worker.start()
            self._workers.append(worker)
        self._waking = True
        worker.wake.release()

    def _take(self, worker: Worker, woken: bool):
        """The next waiting lane, parking ``worker`` while none waits; None: it is to end."""
        while True:
            with self._lock:
                if worker.epoch != self._epoch:
                    return None
                if woken:
                    self._waking = False
                if self._ready:
                    lane = self._ready.popleft()
                    if self._ready and not self._waking:
                        try:
                            self._wake()
                        except RuntimeError:
                            pass  # no thread: the lanes left wait for this worker's next take
                    return lane
                worker.name = self._parked_name
                self._parked.append(worker)
            worker.wake.acquire()
            woken = True

    def ready(self):
        """Start a worker, which parks, so the first work need not wait for a thread."""
        with self._lock:
            self._wake()

    def close(self) -> list[Worker]:
        """Forget the waiting lanes, end the parked and waking workers and return every
        worker, to wait for; a serving one ends when ``_serve`` is False or at its take."""
        with self._lock:
            self._epoch += 1
            self._ready.clear()
            self._waking = False
            parked, self._parked = self._parked, []
            workers, self._workers = self._workers, []
        for worker in parked:
            worker.wake.release()
        return workers
