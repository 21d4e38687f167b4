"""Route lifecycle: start order, a failed start, idleness across hops, the
bound on stop(), released listeners and the bounded delivery log."""

from __future__ import annotations

import http.client
import socket
import sys
import threading
import time
from collections import deque

import pytest

from masbus import Bus, Number, RouteDefinition, SetHeader, Transform
from masbus.components import DirectComponent, register_builtin_components
from masbus.components.base import Component, Consumer, Producer
from masbus.errors import UnknownTransformError
from masbus.pool import Worker
from masbus.routing import DELIVERY_LOG_SIZE
from conftest import CollectorComponent, pinned_to_one_cpu, wait_for

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


class _PublishOnStartConsumer(Consumer):
    def start(self):
        self.ctx.bus.component_for("mqttlite").broker("h").publish("t", "1")
        time.sleep(0.001)  # time for a to be served before b binds, were a not held


class _PublishOnStartComponent(Component):
    def create_consumer(self, ctx):
        return _PublishOnStartConsumer(ctx)


def test_start_binds_every_route_before_any_route_sends():
    bus = Bus()
    collector = CollectorComponent()
    register_builtin_components(bus)
    bus.register_component("collect", collector)
    bus.register_component("publish", _PublishOnStartComponent())
    # a is fed while the bus starts: by the consumer started after a's and before b's
    bus.add_route(
        RouteDefinition("a", "mqttlite:c?host=h&subscribeTopicName=t", (), ("direct:b",))
    )
    bus.add_route(RouteDefinition("feed", "publish:x", (), ("collect:unused",)))
    bus.add_route(RouteDefinition("b", "direct:b", (), ("collect:sink",)))
    for _ in range(200):
        bus.start()
        assert bus.wait_until_idle()
        bus.stop()
    assert bus.dead_letters() == ()
    assert [ex.body for ex in collector.exchanges()] == [Number(1)] * 200


class _EagerConsumer(Consumer):
    """Admits three exchanges, and one for route ``old``, while it starts."""

    def start(self):
        for i in range(3):
            self.ctx.emit(self.ctx.new_exchange(body=Number(i)))
        self.ctx.bus.process_exchange("old", self.ctx.bus.new_exchange(body=Number(3)))
        time.sleep(0.05)  # old is served meanwhile; this route is held until released


class _EagerComponent(Component):
    def create_consumer(self, ctx):
        return _EagerConsumer(ctx)


def test_add_route_wakes_routes_fed_while_it_ran():
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("eager", _EagerComponent())
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("old", "direct:old", (), ("collect:a",)))
    bus.start()
    try:
        bus.add_route(RouteDefinition("new", "eager:x", (), ("collect:b",)))
        # no further emit: reopening the gate has to wake both workers
        assert bus.wait_until_idle(2.0)
        assert [ex.body.value for ex in collector.for_route("new")] == [0, 1, 2]
        assert [ex.body.value for ex in collector.for_route("old")] == [3]
    finally:
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


def test_stop_keeps_deliveries_made_before_the_drop():
    bus = Bus()
    blocking = _BlockingComponent()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:a", "block:y", "collect:z")))
    bus.start()
    stuck = bus.new_exchange(body=Number(1))
    bus.process_exchange("r", stuck)
    assert blocking.entered.wait(2.0)
    worker = next(t for t in threading.enumerate() if t.name == "route-r")
    bus.stop(drain_timeout=0.1)

    blocking.release.set()
    assert blocking.returned.wait(2.0)
    worker.join(2.0)
    assert not worker.is_alive()
    # the delivery before the stuck producer stays; none follows the drop
    assert [(d.exchange_id, d.endpoint) for d in bus.deliveries()] == [(stuck.id, "collect:a")]
    assert bus.report()["delivered"] == 1
    assert [d.exchange["id"] for d in bus.dropped()] == [stuck.id]
    assert [ex.body for ex in collector.exchanges()] == [Number(1)]


def test_stop_drops_the_held_exchange_then_the_queued_ones_in_admission_order():
    bus = Bus()
    blocking = _BlockingComponent()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("r", "direct:x", (), ("block:y", "collect:z")))
    bus.start()
    exchanges = [bus.new_exchange(body=Number(i)) for i in range(3)]
    bus.process_exchange("r", exchanges[0])
    assert blocking.entered.wait(2.0)
    worker = next(t for t in threading.enumerate() if t.name == "route-r")
    for queued in exchanges[1:]:
        bus.process_exchange("r", queued)

    bus.stop(drain_timeout=0.1)
    assert [d.exchange["id"] for d in bus.dropped()] == [ex.id for ex in exchanges]

    blocking.release.set()
    assert blocking.returned.wait(2.0)
    worker.join(2.0)
    assert not worker.is_alive()
    assert bus.deliveries() == ()
    assert bus.report()["delivered"] == 0
    assert collector.exchanges() == []


class _LogThatLetsTheWorkerOn(deque):
    """A delivery log whose armed ``extend`` releases a stuck producer and
    waits until the route's worker has staged the delivery it then made."""

    def __init__(self, blocking, runtime):
        super().__init__(maxlen=DELIVERY_LOG_SIZE)
        self.blocking = blocking
        self.runtime = runtime
        self.armed = False

    def extend(self, records):
        super().extend(records)
        if self.armed:
            self.armed = False
            self.blocking.release.set()
            assert wait_for(lambda: len(self.runtime._staged) == 1, 2.0)


def test_stop_counts_exactly_the_deliveries_it_records():
    bus = Bus()
    blocking = _BlockingComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.add_route(RouteDefinition("r", "direct:x", (), ("block:y",)))
    log = bus._deliveries = _LogThatLetsTheWorkerOn(blocking, bus._routes["r"])
    bus.start()
    stuck = bus.new_exchange(body=Number(1))
    bus.process_exchange("r", stuck)
    assert blocking.entered.wait(2.0)
    worker = next(t for t in threading.enumerate() if t.name == "route-r")
    # the stuck send returns while stop records what was staged before the drop
    log.armed = True
    bus.stop(drain_timeout=0.1)
    worker.join(2.0)
    assert not worker.is_alive()
    assert not log.armed
    assert [d.exchange["id"] for d in bus.dropped()] == [stuck.id]
    assert bus.deliveries() == ()
    assert bus.report()["delivered"] == 0


def test_a_route_stuck_in_its_producer_does_not_delay_another_route():
    bus = Bus()
    blocking = _BlockingComponent()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("a", "direct:a", (), ("block:y",)))
    bus.add_route(RouteDefinition("b", "direct:b", (), ("collect:z",)))
    bus.start()
    try:
        bus.process_exchange("a", bus.new_exchange(body=Number(1)))
        assert blocking.entered.wait(2.0)
        bus.process_exchange("b", bus.new_exchange(body=Number(2)))
        # the pool grows a worker for b instead of waiting for a's
        assert wait_for(collector.exchanges, timeout=1.0)
        assert not blocking.returned.is_set()
        assert [ex.body for ex in collector.exchanges()] == [Number(2)]
    finally:
        blocking.release.set()
        bus.stop()
    assert bus.dropped() == ()


def test_add_route_does_not_wait_for_another_routes_stuck_producer():
    bus = Bus()
    blocking = _BlockingComponent()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("a", "direct:a", (), ("block:y", "collect:z")))
    bus.start()
    try:
        stuck = bus.new_exchange(body=Number(1))
        bus.process_exchange("a", stuck)
        assert blocking.entered.wait(2.0)
        t0 = time.monotonic()
        bus.add_route(RouteDefinition("n", "direct:n", (), ("collect:n",)))
        assert time.monotonic() - t0 < 0.5
        assert not blocking.returned.is_set()
        bus.process_exchange("n", bus.new_exchange(body=Number(2)))
        assert wait_for(lambda: collector.for_route("n"), timeout=1.0)
        blocking.release.set()
        assert bus.wait_until_idle(2.0)
    finally:
        blocking.release.set()
        bus.stop()
    # the blocked exchange went on once it was released, to each producer once
    assert [(d.exchange_id, d.endpoint) for d in bus.deliveries() if d.route_id == "a"] == [
        (stuck.id, "block:y"),
        (stuck.id, "collect:z"),
    ]
    assert [ex.body for ex in collector.for_route("a")] == [Number(1)]
    assert [ex.body for ex in collector.for_route("n")] == [Number(2)]
    assert bus.dead_letters() == ()
    assert bus.dropped() == ()


def test_add_route_under_traffic_keeps_fifo_and_exactly_once():
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("a", "direct:a", (), ("collect:a",)))
    bus.start()

    def feed(i):
        for k in range(500):
            bus.process_exchange("a", bus.new_exchange(body=Number(i * 1000 + k)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        feeders = [threading.Thread(target=feed, args=(i,)) for i in range(4)]
        for feeder in feeders:
            feeder.start()
        # each new route is bound and fed while route a is busy
        for j in range(50):
            bus.add_route(RouteDefinition(f"n{j}", f"direct:n{j}", (), ("collect:n",)))
            bus.process_exchange(f"n{j}", bus.new_exchange(body=Number(j)))
        for feeder in feeders:
            feeder.join(10.0)
        assert not [f for f in feeders if f.is_alive()]
        assert bus.wait_until_idle(10.0)
    finally:
        sys.setswitchinterval(interval)
        bus.stop()
    bodies = [ex.body.value for ex in collector.for_route("a")]
    for i in range(4):
        assert [b for b in bodies if b // 1000 == i] == list(range(i * 1000, i * 1000 + 500))
    assert len(bodies) == 2000
    for j in range(50):
        assert [ex.body.value for ex in collector.for_route(f"n{j}")] == [j]
    assert bus.dead_letters() == ()


class _FeedOnStartConsumer(Consumer):
    def start(self):
        for i in range(3):
            self.ctx.emit(self.ctx.new_exchange(body=Number(i)))


class _FeedOnStartComponent(Component):
    def create_consumer(self, ctx):
        return _FeedOnStartConsumer(ctx)


def test_start_holds_exchanges_admitted_before_later_routes_bind():
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("feed", _FeedOnStartComponent())
    bus.register_component("collect", collector)
    # a admits while it starts, before b binds direct:b
    bus.add_route(RouteDefinition("a", "feed:x", (), ("direct:b",)))
    bus.add_route(RouteDefinition("b", "direct:b", (), ("collect:sink",)))
    bus.start()
    try:
        assert bus.wait_until_idle(2.0)
    finally:
        bus.stop()
    assert bus.dead_letters() == ()
    assert [ex.body.value for ex in collector.exchanges()] == [0, 1, 2]


def _route_thread_starts(monkeypatch) -> list:
    """The threads with a ``route-`` name started from now on."""
    started = []
    thread_start = threading.Thread.start

    def recording_start(thread):
        if thread.name.startswith("route-"):
            started.append(thread)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_failed_start_drops_what_started_routes_admitted_and_ends_their_workers(
    monkeypatch,
):
    started = _route_thread_starts(monkeypatch)
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("feed", _FeedOnStartComponent())
    bus.register_component("collect", collector)
    # a is fed while it starts; b then fails to bind its transform
    bus.add_route(RouteDefinition("a", "feed:x", (), ("collect:a",)))
    bus.add_route(RouteDefinition("b", "direct:b", (Transform("tag"),), ("collect:b",)))
    with pytest.raises(UnknownTransformError):
        bus.start()
    assert not bus.is_running
    dropped = bus.dropped()
    assert [d.route_id for d in dropped] == ["a"] * 3
    assert [d.exchange["body"] for d in dropped] == ["0", "1", "2"]
    # every route was still held: no worker was started to end
    assert not started
    assert bus.deliveries() == ()

    bus.register_transform("tag", lambda ex: None)
    bus.start()
    try:
        bus.process_exchange("b", bus.new_exchange(body=Number(3)))
        assert bus.wait_until_idle(2.0)
    finally:
        bus.stop()
    assert [ex.body.value for ex in collector.for_route("a")] == [0, 1, 2]
    assert [ex.body.value for ex in collector.for_route("b")] == [3]
    assert len(bus.dropped()) == 3
    assert not [t for t in started if t.is_alive()]


def test_worker_pool_grows_to_the_routes_busy_at_once_and_ends_at_stop(monkeypatch):
    started = _route_thread_starts(monkeypatch)
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    for i in range(10):
        to = f"direct:h{i + 1}" if i < 9 else "collect:sink"
        bus.add_route(RouteDefinition(f"r{i}", f"direct:h{i}", (), (to,)))
    bus.start()
    try:
        # one exchange at a time: at most a sending and a receiving route are busy
        for i in range(50):
            bus.process_exchange("r0", bus.new_exchange(body=Number(i)))
            assert bus.wait_until_idle(2.0)
    finally:
        bus.stop()
    assert [ex.body.value for ex in collector.exchanges()] == list(range(50))
    assert 1 <= len(started) <= 3, [t.name for t in started]
    assert not [t for t in started if t.is_alive()]


def test_worker_pool_keeps_fifo_and_exactly_once_under_frequent_thread_switches():
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    # six fed routes fan in to two: workers park and are handed on constantly
    for i in range(6):
        bus.add_route(RouteDefinition(f"a{i}", f"direct:a{i}", (), (f"direct:b{i % 2}",)))
    for j in range(2):
        bus.add_route(RouteDefinition(f"b{j}", f"direct:b{j}", (), ("collect:sink",)))
    before = set(threading.enumerate())

    def feed(i):
        for k in range(100):
            bus.process_exchange(f"a{i}", bus.new_exchange(body=Number(i * 1000 + k)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cycle in range(3):
            bus.start()
            feeders = [threading.Thread(target=feed, args=(i,)) for i in range(6)]
            for feeder in feeders:
                feeder.start()
            for feeder in feeders:
                feeder.join(10.0)
            assert not [f for f in feeders if f.is_alive()]
            assert bus.wait_until_idle(10.0)
            bus.stop()
            assert set(threading.enumerate()) <= before, cycle
    finally:
        sys.setswitchinterval(interval)
    bodies = [ex.body.value for ex in collector.exchanges()]
    for i in range(6):
        # each feeder's exchanges arrive once per cycle, in the order fed
        assert [b for b in bodies if b // 1000 == i] == list(range(i * 1000, i * 1000 + 100)) * 3
    assert bus.report()["delivered"] == 3 * 2 * 600
    assert bus.dead_letters() == ()
    assert bus.dropped() == ()


def test_a_burst_on_one_cpu_starts_one_route_worker_not_one_per_route(monkeypatch):
    started = _route_thread_starts(monkeypatch)
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    for k in range(8):
        steps = (SetHeader("source", Number(k)), SetHeader("hop", Number(1)))
        bus.add_route(RouteDefinition(f"src-{k}", f"direct:src-{k}", steps, ("direct:sink",)))
    bus.add_route(RouteDefinition("sink", "direct:sink", (), ("collect:y",)))
    with pinned_to_one_cpu():
        bus.start()
        try:
            for i in range(32):
                bus.process_exchange(f"src-{i % 8}", bus.new_exchange(body=Number(i)))
            assert bus.wait_until_idle(2.0)
        finally:
            bus.stop()
    assert sorted(ex.body.value for ex in collector.exchanges()) == list(range(32))
    # the worker start readies, and the one it wakes while routes still wait
    assert len(started) <= 2, [t.name for t in started]


class _GatheringComponent(Component):
    """Producers note their route in ``inside``, then wait in ``send`` until released."""

    def __init__(self):
        self.inside: list[str] = []
        self.release = threading.Event()

    def create_producer(self, ctx):
        return _GatheringProducer(ctx, self)


class _GatheringProducer(Producer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component

    def send(self, exchange):
        self.component.inside.append(self.ctx.route_id)
        self.component.release.wait(5.0)


def test_no_route_waits_behind_a_busy_route():
    bus = Bus()
    gathering = _GatheringComponent()
    bus.register_component("feed", _FeedOnStartComponent())
    bus.register_component("gather", gathering)
    # each route admits while held, so all three wait for a worker at once
    for name in "abc":
        bus.add_route(RouteDefinition(name, f"feed:{name}", (), ("gather:y",)))
    bus.start()
    try:
        assert wait_for(lambda: len(gathering.inside) == 3, timeout=1.0), gathering.inside
        assert sorted(gathering.inside) == ["a", "b", "c"]
    finally:
        gathering.release.set()
        bus.stop()
    assert bus.report()["delivered"] == 9


def test_a_worker_waking_at_stop_serves_nothing_after_a_restart(monkeypatch):
    started = _route_thread_starts(monkeypatch)
    gate = threading.Event()
    gated = []
    run = Worker.run

    def gated_run(worker):
        if not gated:  # the worker the first start readies
            gated.append(threading.current_thread())
            gate.wait(5.0)
        run(worker)

    monkeypatch.setattr(Worker, "run", gated_run)
    bus = Bus()
    servers = []
    bus.add_delivery_listener(lambda ex, route_id, endpoint: servers.append(threading.current_thread()))
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", CollectorComponent())
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    try:
        # wakes the readied worker, which is held at the gate
        bus.process_exchange("r", bus.new_exchange(body=Number(1)))
        bus.stop(drain_timeout=0.1)
        first_run = list(started)
        bus.start()
        gate.set()
        assert wait_for(lambda: not gated[0].is_alive(), timeout=2.0)
        bus.process_exchange("r", bus.new_exchange(body=Number(2)))
        assert bus.wait_until_idle(2.0)
    finally:
        gate.set()
        bus.stop()
    assert [d.exchange["body"] for d in bus.dropped()] == ["1"]
    assert len(servers) == 1
    assert servers[0] not in first_run
    assert not [t for t in started if t.is_alive()]


def test_a_failed_thread_start_strands_no_route(monkeypatch):
    started = _route_thread_starts(monkeypatch)
    bus = Bus()
    blocking = _BlockingComponent()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("block", blocking)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("a", "direct:a", (), ("block:y",)))
    bus.add_route(RouteDefinition("b", "direct:b", (), ("collect:z",)))
    bus.start()
    try:
        # a holds the readied worker: b needs a thread of its own
        bus.process_exchange("a", bus.new_exchange(body=Number(1)))
        assert blocking.entered.wait(2.0)
        thread_start = threading.Thread.start

        def fail_once(thread):
            monkeypatch.setattr(threading.Thread, "start", thread_start)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", fail_once)
        with pytest.raises(RuntimeError):
            bus.process_exchange("b", bus.new_exchange(body=Number(2)))
        bus.process_exchange("b", bus.new_exchange(body=Number(3)))
        assert wait_for(collector.exchanges, timeout=1.0)
        assert not blocking.returned.is_set()
    finally:
        blocking.release.set()
        bus.stop()
    assert [ex.body for ex in collector.exchanges()] == [Number(3)]
    assert bus.report()["delivered"] == 2
    assert bus.dropped() == ()
    # the readied worker and b's: a lane left queued by the failure would wake a third
    assert len(started) == 2, [t.name for t in started]


def test_a_worker_that_cannot_start_another_serves_the_waiting_routes_itself(monkeypatch):
    thread_start = threading.Thread.start

    def main_thread_only(thread):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("can't start new thread")
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", main_thread_only)
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("feed", _FeedOnStartComponent())
    bus.register_component("collect", collector)
    # all three wait at once: the readied worker tries to wake a second for b and c
    for name in "abc":
        bus.add_route(RouteDefinition(name, f"feed:{name}", (), ("collect:y",)))
    bus.start()
    try:
        assert bus.wait_until_idle(2.0)
    finally:
        bus.stop()
    assert sorted(ex.body.value for ex in collector.exchanges()) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert bus.dropped() == ()


def test_delivery_log_keeps_the_newest_records_and_an_exact_count():
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    try:
        exchanges = [bus.new_exchange(body=Number(i)) for i in range(12_000)]
        for exchange in exchanges:
            bus.process_exchange("r", exchange)
        assert bus.wait_until_idle(10.0)
    finally:
        bus.stop()
    assert DELIVERY_LOG_SIZE == 10_000
    newest = [ex.id for ex in exchanges[-DELIVERY_LOG_SIZE:]]
    assert [d.exchange_id for d in bus.deliveries()] == newest
    assert bus.report()["delivered"] == len(collector.exchanges()) == 12_000


def _send_tcp_line(address):
    with socket.create_connection(address, timeout=5.0) as conn:
        conn.sendall(b"1\n")


def _post_http(address):
    conn = http.client.HTTPConnection(*address, timeout=5.0)
    try:
        conn.request("POST", "/hook", body=b"1")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
    finally:
        conn.close()


def _listener_threads() -> set:
    return {t for t in threading.enumerate() if t.name in ("tcpline-accept", "httplite-serve")}


def test_stop_releases_listener_port_and_thread():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    before = _listener_threads()
    # one fixed port, bound again by each bus right after the previous stop
    for scheme, path, send in (
        ("tcpline", "", _send_tcp_line),
        ("httplite", "/hook", _post_http),
        ("tcpline", "", _send_tcp_line),
    ):
        bus = Bus()
        collector = CollectorComponent()
        register_builtin_components(bus)
        bus.register_component("collect", collector)
        bus.add_route(
            RouteDefinition("in", f"{scheme}:127.0.0.1:{port}{path}", (), ("collect:y",))
        )
        bus.start()
        send(bus.consumer("in").address)
        assert wait_for(lambda: collector.exchanges())
        bus.stop()
        assert [ex.body for ex in collector.exchanges()] == [Number(1)]
        assert _listener_threads() == before, scheme


@pytest.mark.parametrize(
    "uri, thread_name",
    [
        ("tcpline:127.0.0.1:0", "tcpline-accept"),
        ("httplite:127.0.0.1:0/hook", "httplite-serve"),
    ],
    ids=["tcpline", "httplite"],
)
def test_stop_ends_connections_of_silent_peers(uri, thread_name):
    bus = Bus()
    collector = CollectorComponent()
    register_builtin_components(bus)
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("in", uri, (), ("collect:y",)))
    bus.start()

    def listener_threads():
        return [t for t in threading.enumerate() if t.name == thread_name]

    address = bus.consumer("in").address
    # a peer that connects and then neither sends nor closes
    with socket.create_connection(address, timeout=5.0) as peer:
        # accepts are FIFO: once a later peer that ends its side is closed,
        # the silent peer has been accepted
        with socket.create_connection(address, timeout=5.0) as later:
            later.shutdown(socket.SHUT_WR)
            assert later.recv(1) == b""
        bus.stop()
        assert wait_for(lambda: not listener_threads(), timeout=0.5)
        assert peer.recv(1) == b""  # the bus closed its end
    assert collector.exchanges() == []
