"""Route worker lifecycle: idleness across hops and the bound on stop()."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from masbus import Bus, Number, RouteDefinition
from masbus.components import DirectComponent
from masbus.components.base import Component, Producer
from conftest import CollectorComponent

CHAIN = (
    RouteDefinition("a", "direct:in", (), ("direct:hop1",)),
    RouteDefinition("b", "direct:hop1", (), ("direct:hop2",)),
    RouteDefinition("c", "direct:hop2", (), ("collect:sink",)),
)


@pytest.mark.parametrize("order", ["upstream_first", "downstream_first"])
def test_wait_until_idle_covers_direct_hops_in_any_order(order):
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    for definition in CHAIN if order == "upstream_first" else reversed(CHAIN):
        bus.add_route(definition)
    bus.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(200):
            bus.process_exchange("a", bus.new_exchange(body=Number(i)))
        assert bus.wait_until_idle(10.0)
        assert [ex.body.value for ex in collector.for_route("c")] == list(range(200))
    finally:
        sys.setswitchinterval(interval)
        bus.stop()


class _BlockingProducer(Producer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component

    def send(self, exchange):
        self.component.entered.set()
        self.component.release.wait(2.0)
        self.component.returned.set()


class _BlockingComponent(Component):
    """Producers block until released (2 s at most)."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.returned = threading.Event()

    def create_producer(self, ctx):
        return _BlockingProducer(ctx, self)


def test_stop_honours_drain_bound_with_stuck_producer():
    bus = Bus()
    blocking = _BlockingComponent()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("r", "direct:x", (), ("block:y", "collect:z")))
    bus.start()
    stuck = bus.new_exchange(body=Number(1))
    bus.process_exchange("r", stuck)
    assert blocking.entered.wait(2.0)
    worker = next(t for t in threading.enumerate() if t.name == "route-r")

    t0 = time.monotonic()
    bus.stop(drain_timeout=0.1)
    assert time.monotonic() - t0 < 0.5
    assert [d.exchange["id"] for d in bus.dropped()] == [stuck.id]

    blocking.release.set()
    assert blocking.returned.wait(2.0)
    worker.join(2.0)
    assert not worker.is_alive()
    # the abandoned worker recorded nothing and sent to no later producer
    assert bus.deliveries() == ()
    assert bus.dead_letters() == ()
    assert collector.exchanges() == []

    # a restart serves the route with a fresh worker only
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Number(2)))
    assert bus.wait_until_idle()
    assert [ex.body for ex in collector.exchanges()] == [Number(2)]
    dropped = {d.exchange["id"] for d in bus.dropped()}
    assert dropped.isdisjoint(d.exchange_id for d in bus.deliveries())
    bus.stop()
