"""Cross-module flows: declarative files driving the live bus."""

from __future__ import annotations

from masbus import (
    AclMessage,
    AgentBehavior,
    AgentRegistry,
    Atom,
    Bus,
    Environment,
    Number,
    Performative,
    PropertyChanged,
    RouteDefinition,
    SetHeader,
    String,
    Transform,
    counter_template,
    parse_route_file,
)
from masbus.components import register_builtin_components
from conftest import CollectorComponent, wait_for

NOTIFY_XML = """\
<routes>
  <aliases>
    <alias scheme="telegram" component="chatstub"/>
  </aliases>
  <route id="customer">
    <from uri="jason:DummyCustomerAgent"/>
    <to uri="telegram:bots/sometoken?chatId=-364531"/>
  </route>
</routes>
"""


def test_notification_route_file_runs_verbatim():
    env = Environment()
    registry = AgentRegistry(env)
    bus = Bus()
    components = register_builtin_components(bus, registry, env)
    route_file = parse_route_file(NOTIFY_XML)
    for scheme, target in route_file.aliases.items():
        bus.register_alias(scheme, target)
    for definition in route_file.routes:
        bus.add_route(definition)
    bus.start()
    # the route consumer bound its dummy agent under the URI path
    assert registry.dummy_names() == ("DummyCustomerAgent",)
    registry.spawn_agent("delivery_agent")
    registry.send_message(
        AclMessage(
            "delivery_agent",
            "DummyCustomerAgent",
            Performative.TELL,
            Atom("arriving"),
        )
    )
    assert bus.wait_until_idle()
    (row,) = components["chatstub"].transcript()
    assert row.chat_id == "-364531"
    assert row.token == "sometoken"
    assert row.text == "arriving"
    bus.stop()
    registry.stop()


def test_no_message_loss_counts():
    env = Environment()
    registry = AgentRegistry(env)
    bus = Bus()
    register_builtin_components(bus, registry, env)
    collector = CollectorComponent()
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("r", "jason:Gateway", (), ("collect:y",)))
    bus.start()
    registry.spawn_agent("local")
    registry.spawn_agent("sender")
    for i in range(5):
        registry.send_message(
            AclMessage("sender", "Gateway", Performative.TELL, Number(i))
        )
        registry.send_message(
            AclMessage("sender", "local", Performative.TELL, Number(i))
        )
    assert bus.wait_until_idle()
    # local: every send enqueued; dummy: every send became one exchange
    assert registry.mailbox_size("local") == 5
    assert bus.exchanges_created == 5
    assert len(collector.exchanges()) == 5
    bus.stop()
    registry.stop()


def test_artifact_header_spelling_is_case_sensitive():
    env = Environment()
    bus = Bus()
    register_builtin_components(bus, environment=env)
    from masbus import counter_template

    env.create_artifact("main", "c", counter_template())
    bus.add_route(
        RouteDefinition(
            "r",
            "direct:in",
            (
                SetHeader("artifactname", String("c")),
                SetHeader("operationname", String("increment")),
            ),
            ("artifact:main",),
        )
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Number(1)))
    assert bus.wait_until_idle()
    (entry,) = bus.dead_letters()
    assert "ArtifactName" in entry.error
    assert env.operation_log() == ()
    bus.stop()


def test_bus_restart_reuses_routes():
    bus = Bus()
    register_builtin_components(bus)
    collector = CollectorComponent()
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("r", "direct:x", (), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("first")))
    bus.stop()
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("second")))
    assert bus.wait_until_idle()
    assert [ex.body for ex in collector.exchanges()] == [Atom("first"), Atom("second")]
    bus.stop()


def test_add_route_does_not_wait_for_another_routes_exchange():
    import threading
    import time

    bus = Bus()
    register_builtin_components(bus)
    collector = CollectorComponent()
    bus.register_component("collect", collector)
    entered = threading.Event()

    def slow(ex):
        entered.set()
        time.sleep(0.2)

    bus.register_transform("slow", slow)
    bus.add_route(RouteDefinition("r", "direct:x", (Transform("slow"),), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("m")))
    assert entered.wait(2.0)
    t0 = time.monotonic()
    bus.add_route(RouteDefinition("r2", "direct:x2", (), ("collect:y",)))
    # r2 binds and is released while r's exchange is still in its transform
    assert time.monotonic() - t0 < 0.1
    bus.process_exchange("r2", bus.new_exchange(body=Atom("n")))
    assert bus.wait_until_idle()
    assert len(collector.exchanges()) == 2
    bus.stop()


def test_a_percept_batch_on_a_cold_registry_starts_no_second_route_worker():
    # the feeding route's worker starts the agents' workers; an agent that
    # reacted meanwhile would feed route "out" while that worker is busy
    def on_percept(ctx, percept):
        # the focus snapshot has no ``old``: only a change is told
        changed = isinstance(percept, PropertyChanged) and percept.old is not None
        return [ctx.tell("Out", percept.new)] if changed else []

    workers = []
    for _ in range(10):
        env = Environment()
        env.create_artifact("main", "c", counter_template())
        registry = AgentRegistry(env)
        for i in range(4):
            behavior = AgentBehavior(on_percept=on_percept, initial=lambda ctx: [ctx.focus("c")])
            registry.spawn_agent(f"a{i}", behavior)
        bus = Bus()
        register_builtin_components(bus, registry, env)
        collector = CollectorComponent()
        bus.register_component("collect", collector)
        to = "artifact:main?artifactName=c&operationName=increment"
        bus.add_route(RouteDefinition("in", "direct:in", (), (to,)))
        bus.add_route(RouteDefinition("out", "jason:Out", (), ("collect:y",)))
        bus.start()
        try:
            bus.process_exchange("in", bus.new_exchange(body=Number(1)))
            assert wait_for(lambda: len(collector.exchanges()) == 4)
            assert bus.wait_until_idle()
            workers.append(len(bus._pool._workers))
        finally:
            bus.stop()
            registry.stop()
    # a preempted route worker may rarely let one build grow
    assert workers.count(1) >= 9, workers
