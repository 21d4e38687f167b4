from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from masbus import Atom, Bus, Number, RouteDefinition, SetHeader, Transform
from masbus.components import DirectComponent
from masbus.components.base import Component, Consumer, Producer
from masbus.errors import (
    AlreadyRunningError,
    AlreadyStoppedError,
    BusRunningError,
    DuplicateRouteIdError,
    DuplicateSchemeError,
    RouteNotRunningError,
    UnknownRouteError,
    UnknownSchemeError,
    UnknownTransformError,
)
from masbus.routing import DELIVERY_LOG_SIZE, DeliveryRecord, Exchange
from conftest import CollectorComponent, FailingComponent, wait_for


def make_bus(**kwargs):
    bus = Bus(**kwargs)
    collector = CollectorComponent()
    bus.register_component("direct", DirectComponent())
    bus.register_component("collect", collector)
    return bus, collector


def test_register_component_duplicate():
    bus, _ = make_bus()
    with pytest.raises(DuplicateSchemeError):
        bus.register_component("direct", DirectComponent())


def test_register_component_while_running():
    bus, _ = make_bus()
    bus.start()
    with pytest.raises(BusRunningError):
        bus.register_component("late", DirectComponent())
    bus.stop()


def test_unknown_scheme_rejected_at_add():
    bus, _ = make_bus()
    with pytest.raises(UnknownSchemeError):
        bus.add_route(RouteDefinition("r", "nosuch:x", (), ("collect:y",)))


def test_empty_to_list_rejected_at_construction():
    with pytest.raises(ValueError):
        RouteDefinition("r", "direct:x", (), ())


def test_duplicate_route_id():
    bus, _ = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    with pytest.raises(DuplicateRouteIdError):
        bus.add_route(RouteDefinition("r", "direct:z", (), ("collect:y",)))


def test_auto_route_ids_are_assigned():
    bus, _ = make_bus()
    rid1 = bus.add_route(RouteDefinition(None, "direct:a", (), ("collect:y",)))
    rid2 = bus.add_route(RouteDefinition(None, "direct:b", (), ("collect:y",)))
    assert rid1 != rid2
    assert bus.route_definition(rid1).route_id == rid1


def test_start_twice_and_stop_twice():
    bus, _ = make_bus()
    bus.start()
    with pytest.raises(AlreadyRunningError):
        bus.start()
    bus.stop()
    with pytest.raises(AlreadyStoppedError):
        bus.stop()


def test_unknown_transform_fails_route_start():
    bus, _ = make_bus()
    bus.add_route(
        RouteDefinition("r", "direct:x", (Transform("missing"),), ("collect:y",))
    )
    with pytest.raises(UnknownTransformError):
        bus.start()
    assert not bus.is_running


def test_transform_registered_after_add_but_before_start_is_fine():
    bus, collector = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("tag"),), ("collect:y",)))
    bus.register_transform("tag", lambda ex: ex.headers.__setitem__("tag", Atom("t")))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    assert collector.exchanges()[0].headers["tag"] == Atom("t")
    bus.stop()


def test_set_header_applied_and_idempotent():
    bus, collector = make_bus()
    spec = SetHeader("OperationName", Atom("giveDistance"))
    bus.add_route(RouteDefinition("r", "direct:x", (spec, spec), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    delivered = collector.exchanges()[0]
    assert delivered.headers["OperationName"] == Atom("giveDistance")
    bus.stop()


def test_identity_pipeline_and_trace():
    bus, collector = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    ex = bus.new_exchange(body=Atom("payload"), headers={"h": Number(1)})
    bus.process_exchange("r", ex)
    assert bus.wait_until_idle()
    delivered = collector.exchanges()[0]
    assert delivered.body == Atom("payload")
    assert delivered.headers == {"h": Number(1)}
    assert delivered.trace == ["direct:x", "collect:y"]
    bus.stop()


def test_multicast_delivers_to_both_in_order():
    bus, collector = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:one", "collect:two")))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    endpoints = [endpoint for _, endpoint, _ in collector.received]
    assert endpoints == ["collect:one", "collect:two"]
    delivered = collector.exchanges()[0]
    assert delivered.trace == ["direct:x", "collect:one", "collect:two"]
    assert len({(d.exchange_id, d.endpoint) for d in bus.deliveries()}) == 2
    bus.stop()


def test_transform_failure_goes_to_dead_letter():
    bus, collector = make_bus()

    def boom(ex):
        raise ValueError("broken transform")

    bus.register_transform("boom", boom)
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("boom"),), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    assert collector.exchanges() == []
    (entry,) = bus.dead_letters()
    assert entry.route_id == "r"
    assert entry.kind == "transform"
    assert "broken transform" in entry.error
    assert entry.exchange["body"] == "m"
    bus.stop()


def test_producer_failure_dead_letters_but_others_still_attempted():
    bus, collector = make_bus()
    bus.register_component("failing", FailingComponent())
    bus.add_route(RouteDefinition("r", "direct:x", (), ("failing:z", "collect:y")))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    assert len(collector.exchanges()) == 1
    (entry,) = bus.dead_letters()
    assert entry.kind == "producer"
    assert entry.endpoint == "failing:z"
    bus.stop()


def test_fifo_order_per_route():
    bus, collector = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    for i in range(50):
        bus.process_exchange("r", bus.new_exchange(body=Number(i)))
    assert bus.wait_until_idle()
    assert [ex.body.value for ex in collector.exchanges()] == list(range(50))
    bus.stop()


def test_stop_drains_in_flight_exchange():
    bus, collector = make_bus()

    def slow(ex):
        time.sleep(0.15)

    bus.register_transform("slow", slow)
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("slow"),), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    bus.stop()
    assert len(collector.exchanges()) == 1
    assert bus.dropped() == ()


def test_stop_after_drain_timeout_records_dropped():
    bus, collector = make_bus()

    def very_slow(ex):
        time.sleep(0.4)

    bus.register_transform("slow", very_slow)
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("slow"),), ("collect:y",)))
    bus.start()
    for i in range(4):
        bus.process_exchange("r", bus.new_exchange(body=Number(i)))
    bus.stop(drain_timeout=0.1)
    delivered = len(collector.exchanges())
    dropped = bus.dropped()
    assert delivered + len(dropped) == 4
    assert dropped, "expected at least one dropped exchange"
    assert all(d.route_id == "r" for d in dropped)


def test_process_exchange_on_stopped_route():
    bus, _ = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    with pytest.raises(RouteNotRunningError):
        bus.process_exchange("r", bus.new_exchange(body=Atom("m")))


def test_an_unknown_route_id_is_a_typed_error():
    bus, _ = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    try:
        with pytest.raises(UnknownRouteError):
            bus.process_exchange("ghost", bus.new_exchange(body=Atom("m")))
        with pytest.raises(UnknownRouteError):
            bus.route_definition("ghost")
        with pytest.raises(UnknownRouteError):
            bus.consumer("ghost")
    finally:
        bus.stop()


def test_direct_hop_bridges_routes():
    bus, collector = make_bus()
    bus.add_route(RouteDefinition("a", "direct:in", (), ("direct:hop",)))
    bus.add_route(RouteDefinition("b", "direct:hop", (), ("collect:sink",)))
    bus.start()
    bus.process_exchange("a", bus.new_exchange(body=Atom("m"), headers={"k": Atom("v")}))
    assert bus.wait_until_idle()
    assert wait_for(lambda: collector.for_route("b"))
    delivered = collector.for_route("b")[0]
    assert delivered.body == Atom("m")
    assert delivered.headers["k"] == Atom("v")
    assert delivered.trace == ["direct:hop", "collect:sink"]
    bus.stop()


def test_add_route_while_running_starts_immediately():
    bus, collector = make_bus()
    bus.start()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    assert len(collector.exchanges()) == 1
    bus.stop()


def test_exchange_ids_unique_and_counted():
    bus, _ = make_bus()
    ids = {bus.new_exchange(body=Atom("x")).id for _ in range(100)}
    assert len(ids) == 100
    assert bus.exchanges_created == 100


def test_trace_completeness_over_random_fanouts():
    import random

    rng = random.Random(33)
    bus, collector = make_bus()
    expected = {}
    for i in range(10):
        fanout = rng.randint(1, 4)
        tos = tuple(f"collect:sink{i}_{j}" for j in range(fanout))
        bus.add_route(RouteDefinition(f"r{i}", f"direct:in{i}", (), tos))
        expected[f"r{i}"] = [f"direct:in{i}", *tos]
    bus.start()
    for i in range(10):
        bus.process_exchange(f"r{i}", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    for route_id, trace in expected.items():
        exchanges = collector.for_route(route_id)
        final = exchanges[-1]
        assert final.trace == trace
    bus.stop()


def test_report_summarises_run():
    bus, _ = make_bus(run_id="rep")
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    bus.stop()
    report = bus.report()
    assert report["run_id"] == "rep"
    assert report["status"] == "stopped"
    assert report["routes"] == ["r"]
    assert report["delivered"] == 1
    assert report["dropped"] == []
    assert report["dead_letters"] == []
    assert report["exchanges_created"] == 1


def test_concurrent_injection_keeps_exactly_once():
    bus, collector = make_bus()
    for i in range(4):
        bus.add_route(RouteDefinition(f"r{i}", f"direct:x{i}", (), ("collect:y",)))
    bus.start()

    def inject(route_id):
        for _ in range(50):
            bus.process_exchange(route_id, bus.new_exchange(body=Atom("m")))

    threads = [threading.Thread(target=inject, args=(f"r{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert bus.wait_until_idle(10.0)
    pairs = [(d.exchange_id, d.endpoint) for d in bus.deliveries()]
    assert len(pairs) == 200
    assert len(set(pairs)) == 200
    bus.stop()


class _NoopProducer(Producer):
    def send(self, exchange):
        pass


class _NoopComponent(Component):
    def create_producer(self, ctx):
        return _NoopProducer(ctx)


def _noop_bus(routes: int) -> Bus:
    """A bus with ``routes`` direct routes ``r<i>`` into a producer that does nothing."""
    bus = Bus()
    bus.register_component("direct", DirectComponent())
    bus.register_component("noop", _NoopComponent())
    for i in range(routes):
        bus.add_route(RouteDefinition(f"r{i}", f"direct:x{i}", (), ("noop:y",)))
    return bus


def test_reading_the_delivery_log_while_routes_commit():
    bus = _noop_bus(8)
    done = threading.Event()
    errors = []

    def feed(route_id):
        for _ in range(2_500):
            bus.process_exchange(route_id, bus.new_exchange(body=Atom("m")))

    def read():
        while not done.is_set():
            try:
                bus.deliveries()
                bus.report()
            except Exception as err:
                errors.append(err)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    bus.start()
    reader = threading.Thread(target=read)
    try:
        reader.start()
        feeders = [threading.Thread(target=feed, args=(f"r{i}",)) for i in range(8)]
        for t in feeders:
            t.start()
        for t in feeders:
            t.join(30.0)
        assert not any(t.is_alive() for t in feeders)
        assert bus.wait_until_idle(30.0)
    finally:
        done.set()
        reader.join(10.0)
        sys.setswitchinterval(interval)
        bus.stop()
    assert not reader.is_alive()
    assert errors == []
    assert bus.report()["delivered"] == 20_000
    records = bus.deliveries()
    assert len(records) == DELIVERY_LOG_SIZE
    assert all(isinstance(record, DeliveryRecord) for record in records)


def test_the_delivery_log_adds_no_gc_tracked_objects():
    bus = _noop_bus(1)
    bus.start()
    try:
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(20_000):
            bus.process_exchange("r0", bus.new_exchange(body=Atom("m")))
        assert bus.wait_until_idle(10.0)
        gc.collect()
        grown = len(gc.get_objects()) - before
    finally:
        bus.stop()
    assert bus.report()["delivered"] == 20_000
    assert grown < 1_000


class _FeedOnStartConsumer(Consumer):
    """Admits one exchange per body of ``component.bodies`` from ``start``,
    while its route is held: the worker takes them all as one batch."""

    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component

    def start(self):
        for body in self.component.bodies:
            self.ctx.emit(self.ctx.new_exchange(body=body))


class _FeedOnStartComponent(Component):
    def __init__(self, bodies: list):
        self.bodies = bodies

    def create_consumer(self, ctx):
        return _FeedOnStartConsumer(ctx, self)


def _feed_on_start_bus(count: int, to: str = "noop:y") -> Bus:
    bus = Bus()
    # one body: no term is built per exchange
    bus.register_component("feed", _FeedOnStartComponent([Atom("m")] * count))
    bus.register_component("noop", _NoopComponent())
    bus.register_component("collect", CollectorComponent())
    bus.add_route(RouteDefinition("r", "feed:x", (), (to,)))
    return bus


def _python_calls(count: int) -> int:
    """Python ``call`` events, on every thread, of a bus run that routes ``count`` exchanges."""
    bus = _feed_on_start_bus(count)
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # no collection runs, so no gc callback (hypothesis installs one) is counted
    enabled = gc.isenabled()
    gc.disable()
    # before start: the worker that start readies must count too
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        bus.start()
        assert bus.wait_until_idle(10.0)
        bus.stop()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        if enabled:
            gc.enable()
    assert bus.report()["delivered"] == count
    return calls


def test_a_routed_exchange_costs_at_most_six_python_calls():
    # minting, admitting, processing and the producer's send; locks and the
    # clock are C calls, and the difference of two runs cancels the set-up
    per_exchange = (_python_calls(2_000) - _python_calls(1_000)) / 1_000
    assert per_exchange <= 6, per_exchange


def test_a_consumer_minted_exchange_starts_its_trace_at_the_routes_from_endpoint():
    bus = _feed_on_start_bus(3, to="collect:y")
    collector = bus.component_for("collect")
    bus.start()
    assert bus.wait_until_idle()
    bus.stop()
    traces = [ex.trace for ex in collector.exchanges()]
    assert traces == [["feed:x", "collect:y"]] * 3


def test_process_exchange_keeps_a_trace_already_set():
    bus, collector = make_bus()
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    exchange = bus.new_exchange(body=Atom("m"))
    exchange.trace.append("elsewhere:a")
    bus.process_exchange("r", exchange)
    assert bus.wait_until_idle()
    bus.stop()
    (delivered,) = collector.exchanges()
    assert delivered.trace == ["elsewhere:a", "collect:y"]


def test_routes_across_a_direct_hop_do_not_share_headers():
    bus, collector = make_bus()
    up, down = (SetHeader("up", Number(1)),), (SetHeader("down", Number(2)),)
    bus.add_route(RouteDefinition("a", "direct:in", up, ("direct:hop", "collect:upstream")))
    bus.add_route(RouteDefinition("b", "direct:hop", down, ("collect:down",)))
    bus.start()
    bus.process_exchange("a", bus.new_exchange(body=Atom("m"), headers={"k": Atom("v")}))
    assert bus.wait_until_idle()
    bus.stop()
    (upstream,) = collector.for_route("a")
    (downstream,) = collector.for_route("b")
    assert upstream is not downstream
    # the downstream SetHeader ran after the hop and left the upstream headers alone
    assert upstream.headers == {"k": Atom("v"), "up": Number(1)}
    assert downstream.headers == {"k": Atom("v"), "up": Number(1), "down": Number(2)}
    upstream.headers["late"] = Atom("x")
    assert "late" not in downstream.headers


def test_a_batched_exchange_costs_at_most_four_python_calls():
    # every exchange fed on start is in one batch, so the chain runs once per
    # batch: minting, admitting and the producer's send are left
    _python_calls(10)  # fills the logging level caches first
    # no collection runs, so no gc callback (hypothesis installs one) is counted
    enabled = gc.isenabled()
    gc.disable()
    try:
        per_exchange = (_python_calls(2_000) - _python_calls(1_000)) / 1_000
    finally:
        if enabled:
            gc.enable()
    assert per_exchange <= 4, per_exchange


def test_a_failing_exchange_with_a_non_term_header_is_dead_lettered():
    bus, _ = make_bus()
    bus.register_component("failing", FailingComponent())

    def count(ex):
        ex.headers["n"] = 5

    bus.register_transform("count", count)
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("count"),), ("failing:z",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    bus.stop()
    (entry,) = bus.dead_letters()
    assert entry.kind == "producer"
    assert entry.exchange["headers"] == {"n": "5"}


def test_a_transform_that_returns_a_non_exchange_is_dead_lettered():
    bus, collector = make_bus()
    bus.register_transform("oops", lambda ex: ex.body)
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("oops"),), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert bus.wait_until_idle()
    bus.stop()
    assert collector.exchanges() == []
    assert bus.deliveries() == ()
    (entry,) = bus.dead_letters()
    assert entry.kind == "transform"
    assert entry.error.startswith("TypeError")


class _ComponentProducer(Producer):
    """Hands every exchange to its component's ``send``."""

    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component

    def send(self, exchange):
        self.component.send(exchange)


class _StuckOnTenComponent(Component):
    """Records what its producers sent; blocks on body 10 until released."""

    def __init__(self):
        self.sent: list = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self.returned = threading.Event()

    def create_producer(self, ctx):
        return _ComponentProducer(ctx, self)

    def send(self, exchange):
        if exchange.body == Number(10):
            self.entered.set()
            self.release.wait(5.0)
            self.returned.set()
        self.sent.append(exchange)


def test_stop_during_a_stuck_batch_drops_its_rest_and_keeps_its_deliveries():
    bus = Bus()
    stuck = _StuckOnTenComponent()
    bus.register_component("feed", _FeedOnStartComponent([Number(i) for i in range(1, 51)]))
    bus.register_component("stuck", stuck)
    bus.add_route(RouteDefinition("r", "feed:x", (), ("stuck:y",)))
    bus.start()
    try:
        assert stuck.entered.wait(5.0)
        worker = next(t for t in threading.enumerate() if t.name == "route-r")
        bus.stop(drain_timeout=0.2)
        at_stop = len(bus.deliveries()), bus.report()["delivered"]
        dropped = [d.exchange["body"] for d in bus.dropped()]
    finally:
        # a failed assertion leaves no worker named route-r stuck for later tests
        stuck.release.set()
    assert at_stop == (9, 9)
    assert dropped == [str(i) for i in range(10, 51)]

    assert stuck.returned.wait(5.0)
    worker.join(5.0)
    assert not worker.is_alive()
    # the dropped exchange that was stuck got no record once its send returned
    ten = stuck.sent[9]
    assert ten.body == Number(10)
    assert len(bus.deliveries()) == 9
    assert bus.report()["delivered"] == 9
    assert ten.id not in {d.exchange_id for d in bus.deliveries()}


class _FailOnSevensComponent(Component):
    """Records what its producers sent; fails every body divisible by 7."""

    def __init__(self):
        self.sent: list = []

    def create_producer(self, ctx):
        return _ComponentProducer(ctx, self)

    def send(self, exchange):
        if exchange.body.value % 7 == 0:
            raise RuntimeError("seven")
        self.sent.append(exchange)


def test_failures_in_one_batch_leave_every_exchange_one_outcome_in_order():
    bus = Bus()
    producer = _FailOnSevensComponent()
    bus.register_component("feed", _FeedOnStartComponent([Number(i) for i in range(1, 101)]))
    bus.register_component("sevens", producer)

    def fives(ex):
        if ex.body.value % 5 == 0:
            raise ValueError("five")

    bus.register_transform("fives", fives)
    bus.add_route(RouteDefinition("r", "feed:x", (Transform("fives"),), ("sevens:y",)))
    bus.start()
    assert bus.wait_until_idle()
    bus.stop()

    delivered = [d.exchange_id for d in bus.deliveries()]
    dead = [d.exchange["id"] for d in bus.dead_letters()]
    assert len(delivered) + len(dead) == 100
    assert len(set(delivered) | set(dead)) == 100
    assert delivered == [ex.id for ex in producer.sent]
    assert [ex.body.value for ex in producer.sent] == [
        i for i in range(1, 101) if i % 5 and i % 7
    ]
    kinds = {d.exchange["body"]: d.kind for d in bus.dead_letters()}
    assert kinds == {
        str(i): "transform" if i % 5 == 0 else "producer"
        for i in range(1, 101)
        if i % 5 == 0 or i % 7 == 0
    }
    assert bus.dropped() == ()


def test_an_exchange_failing_outside_the_chain_does_not_stop_its_batch():
    bus = Bus()
    collector = CollectorComponent()
    bus.register_component("feed", _FeedOnStartComponent([Number(i) for i in range(1, 6)]))
    bus.register_component("collect", collector)

    def untraceable(ex):
        # a replacement whose trace cannot grow fails after the producer's send
        if ex.body == Number(3):
            return Exchange(ex.id, ex.headers, ex.body, ex.created_at, trace=())

    bus.register_transform("untraceable", untraceable)
    bus.add_route(RouteDefinition("r", "feed:x", (Transform("untraceable"),), ("collect:y",)))
    bus.start()
    assert bus.wait_until_idle()
    bus.stop()
    assert [ex.body.value for ex in collector.exchanges()] == [1, 2, 3, 4, 5]
    assert bus.report()["delivered"] == 4


def test_an_exchange_failing_outside_the_chain_is_dead_lettered_as_a_route_failure():
    bus = Bus()
    bus.register_component("feed", _FeedOnStartComponent([Number(i) for i in range(1, 6)]))
    bus.register_component("collect", CollectorComponent())

    def untraceable(ex):
        if ex.body == Number(3):
            return Exchange(ex.id, ex.headers, ex.body, ex.created_at, trace=())

    bus.register_transform("untraceable", untraceable)
    bus.add_route(RouteDefinition("r", "feed:x", (Transform("untraceable"),), ("collect:y",)))
    bus.start()
    assert bus.wait_until_idle()
    bus.stop()
    (entry,) = bus.dead_letters()
    assert (entry.route_id, entry.kind, entry.endpoint) == ("r", "route", None)
    assert entry.exchange["body"] == "3"
    assert entry.error.startswith("AttributeError")
    assert bus.report()["delivered"] == 4


def test_a_body_that_cannot_be_rendered_is_dead_lettered_and_spares_the_route():
    from masbus.components import register_builtin_components

    bus = Bus()
    register_builtin_components(bus)

    def grow(ex):
        if ex.body == Atom("big"):
            ex.body = Number(10**5000)  # past the int-to-str digit limit

    bus.register_transform("grow", grow)
    bus.add_route(
        RouteDefinition(
            "r", "direct:x", (Transform("grow"),), ("mqttlite:out?host=h&publishTopicName=t",)
        )
    )
    bus.start()
    first, second = bus.new_exchange(body=Atom("big")), bus.new_exchange(body=Atom("m"))
    bus.process_exchange("r", first)
    bus.process_exchange("r", second)
    assert bus.wait_until_idle()
    bus.stop()
    (entry,) = bus.dead_letters()
    assert entry.kind == "producer"
    assert entry.error.startswith("ValueError")
    assert entry.exchange["id"] == first.id
    assert [d.exchange_id for d in bus.deliveries()] == [second.id]
