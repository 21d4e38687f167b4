"""An elastic worker pool whose threads serve serial lanes: routes, agents.

A lane has a ``thread_name`` and a ``_serve(worker)`` that works off the
lane's queue and returns True once it parked the worker, False when the
worker is to end. A lane that gets work while no worker serves it gets the
most recently parked worker, and the pool starts a new thread only when
every worker is busy: a busy lane never waits for another, so distinct
lanes run concurrently. A worker keeps its lane until the lane's queue is
empty, then parks; while it serves a lane its thread is named after it,
and while it is parked after its pool.
"""

from __future__ import annotations

import threading


class Worker:
    """A pool thread and the lane it serves, or None once it is told to end.

    The worker takes ``wake`` before each lane; whoever hands it a lane
    releases ``wake``, before or after the worker blocks on it. A new
    worker starts parked.
    """

    __slots__ = ("lane", "wake", "thread")

    def __init__(self, name: str):
        self.lane = None
        self.wake = threading.Lock()
        self.wake.acquire()
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self):
        while True:
            self.wake.acquire()
            if self.lane is None or not self.lane._serve(self):
                return

    def hand(self, lane):
        """Let the worker, which serves no lane, serve ``lane``."""
        self.lane = lane
        self.wake.release()


class WorkerPool:
    """The workers of one bus or registry: never more than lanes were busy at once.

    Callers hold the lane's lock; ``list.append`` and ``list.pop`` are
    atomic, so the pool needs no lock of its own.
    """

    def __init__(self, parked_name: str):
        # names a worker that serves no lane; a serving one takes the lane's name
        self._parked_name = parked_name
        self._parked: list[Worker] = []
        self._workers: list[Worker] = []

    def dispatch(self, lane) -> Worker:
        worker = self.take()
        worker.hand(lane)
        return worker

    def take(self) -> Worker:
        """The most recently parked worker, or a new one, for the caller to ``hand`` a lane.

        A caller that needs several workers takes them all before handing
        any its lane, so no lane it hands runs while it starts a thread.
        """
        try:
            return self._parked.pop()
        except IndexError:
            return self._start(Worker(self._parked_name))

    def ready(self):
        """Start one parked worker, so the first work need not wait for a thread."""
        self._parked.append(self._start(Worker(self._parked_name)))

    def _start(self, worker: Worker) -> Worker:
        worker.thread.start()
        self._workers.append(worker)
        return worker

    def park(self, worker: Worker):
        worker.thread.name = self._parked_name
        self._parked.append(worker)

    def close(self) -> list[Worker]:
        """End the parked workers; returns every worker, for the caller to wait for.

        Call once no lane will park a worker again: a worker still serving
        ends by itself when its lane's ``_serve`` returns False.
        """
        parked, self._parked = self._parked, []
        workers, self._workers = self._workers, []
        for worker in parked:
            worker.lane = None
            worker.wake.release()
        return workers
