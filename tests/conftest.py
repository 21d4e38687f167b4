from __future__ import annotations

import contextlib
import os
import string
import threading
import time

import pytest

from masbus import Atom, ListTerm, Number, String, Structure
from masbus.components.base import Component, Producer


def wait_for(predicate, timeout=5.0, interval=0.005) -> bool:
    """Poll until ``predicate()`` is truthy or the timeout elapses."""
    deadline = time.monotonic() + timeout
    pause = threading.Event()
    while time.monotonic() < deadline:
        if predicate():
            return True
        pause.wait(interval)
    return bool(predicate())


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Run the block with the calling thread on one CPU; threads it starts inherit that."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


_ATOM_HEADS = string.ascii_lowercase
_ATOM_TAILS = string.ascii_letters + string.digits + "_"
# \x0b/\x0c have no XML 1.0 encoding, which the config corpus cares about
_STRING_CHARS = (
    string.ascii_letters + string.digits + string.punctuation + " \t\n\r" + "äβ☂"
)


def random_atom_name(rng) -> str:
    return rng.choice(_ATOM_HEADS) + "".join(
        rng.choice(_ATOM_TAILS) for _ in range(rng.randint(0, 8))
    )


def random_term(rng, depth: int = 0):
    """Seeded generator over the whole term grammar, depth-bounded."""
    choices = ["atom", "int", "float", "string"]
    if depth < 3:
        choices += ["structure", "list"]
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(random_atom_name(rng))
    if kind == "int":
        return Number(rng.randint(-10**9, 10**9))
    if kind == "float":
        return Number(rng.uniform(-1e6, 1e6))
    if kind == "string":
        text = "".join(rng.choice(_STRING_CHARS) for _ in range(rng.randint(0, 12)))
        return String(text)
    if kind == "structure":
        args = tuple(random_term(rng, depth + 1) for _ in range(rng.randint(1, 3)))
        return Structure(random_atom_name(rng), args)
    items = tuple(random_term(rng, depth + 1) for _ in range(rng.randint(0, 4)))
    return ListTerm(items)


class CollectorProducer(Producer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component

    def send(self, exchange):
        with self.component.lock:
            self.component.received.append(
                (self.ctx.route_id, str(self.uri), exchange)
            )


class CollectorComponent(Component):
    """Test sink capturing every delivered exchange."""

    def __init__(self):
        self.received: list = []
        self.lock = threading.Lock()

    def create_producer(self, ctx):
        return CollectorProducer(ctx, self)

    def exchanges(self):
        with self.lock:
            return [ex for _, _, ex in self.received]

    def for_route(self, route_id):
        with self.lock:
            return [ex for rid, _, ex in self.received if rid == route_id]


class FailingProducer(Producer):
    def send(self, exchange):
        raise RuntimeError("intentional producer failure")


class FailingComponent(Component):
    def create_producer(self, ctx):
        return FailingProducer(ctx)
