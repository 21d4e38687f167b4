from __future__ import annotations

import errno
import http.client
import http.server
import socket
import threading
import time
import types
import unittest.mock

import pytest
from hypothesis import given, settings, strategies as st

from masbus import (
    AclMessage,
    AgentBehavior,
    AgentRegistry,
    Atom,
    Bus,
    Environment,
    ListTerm,
    Number,
    Performative,
    RouteBuilder,
    RouteDefinition,
    SimulatedClock,
    String,
    Structure,
    counter_template,
    tracker_template,
)
from masbus.components import httplite, register_builtin_components, tcpline
from masbus.components.httplite import serve_http
from masbus.errors import (
    ConsumerUnsupportedError,
    MissingArtifactNameError,
    MissingOperationNameError,
    MissingParamError,
    ProducerUnsupportedError,
    TermSyntaxError,
    UnknownArtifactError,
)
from masbus.terms import parse_term, payload_to_term
from masbus.uris import parse_uri
from conftest import CollectorComponent, wait_for


@pytest.fixture
def stack():
    env = Environment()
    registry = AgentRegistry(env)
    bus = Bus()
    components = register_builtin_components(bus, registry, env)
    collector = CollectorComponent()
    bus.register_component("collect", collector)
    yield bus, registry, env, components, collector
    if bus.is_running:
        bus.stop()
    registry.stop()


def tell(sender, receiver, content):
    return AclMessage(sender, receiver, Performative.TELL, content)


# -- jason component -----------------------------------------------------------


def test_jason_consumer_builds_exchange_with_exact_headers(stack):
    bus, registry, _, _, collector = stack
    bus.add_route(RouteDefinition("r", "jason:DummyCustomerAgent", (), ("collect:y",)))
    bus.start()
    assert "DummyCustomerAgent" in registry.dummy_names()
    registry.spawn_agent("delivery_agent")
    registry.send_message(tell("delivery_agent", "DummyCustomerAgent", Atom("done")))
    assert bus.wait_until_idle()
    (ex,) = collector.exchanges()
    assert set(ex.headers) == {"performative", "sender", "receiver", "msgId"}
    assert ex.headers["performative"] == String("tell")
    assert ex.headers["sender"] == String("delivery_agent")
    assert ex.headers["receiver"] == String("DummyCustomerAgent")
    assert ex.body == Atom("done")


def test_a_told_message_is_built_once(stack, monkeypatch):
    bus, registry, _, _, collector = stack
    bus.add_route(RouteDefinition("r", "jason:Customer", (), ("collect:y",)))
    bus.start()
    built = []
    post_init = AclMessage.__post_init__

    def counted_post_init(message):
        built.append(message)
        post_init(message)

    monkeypatch.setattr(AclMessage, "__post_init__", counted_post_init)
    registry.spawn_agent(
        "notifier", AgentBehavior(initial=lambda ctx: [ctx.tell("Customer", Atom("near"))])
    )
    assert bus.wait_until_idle()
    (ex,) = collector.exchanges()
    assert ex.headers["msgId"] == String("reg-m1")
    assert ex.headers["receiver"] == String("Customer")
    assert len(built) == 1


def test_jason_consumer_keeps_structured_content_as_body(stack):
    bus, registry, _, _, collector = stack
    bus.add_route(RouteDefinition("r", "jason:DummyCustomerAgent", (), ("collect:y",)))
    bus.start()
    registry.spawn_agent("delivery_agent")
    content = __import__("masbus").parse_term("production(done)")
    registry.send_message(tell("delivery_agent", "DummyCustomerAgent", content))
    assert bus.wait_until_idle()
    (ex,) = collector.exchanges()
    assert ex.body == content
    assert ex.body.functor == "production"


def test_jason_dummy_lifecycle_follows_route_lifecycle(stack):
    bus, registry, _, _, _ = stack
    bus.add_route(RouteDefinition("r1", "jason:DummyA", (), ("collect:y",)))
    bus.add_route(RouteDefinition("r2", "jason:DummyB", (), ("collect:y",)))
    assert registry.dummy_names() == ()
    bus.start()
    assert set(registry.dummy_names()) == {"DummyA", "DummyB"}
    bus.stop()
    assert registry.dummy_names() == ()
    registry.spawn_agent("a")
    from masbus.errors import UnknownReceiverError

    with pytest.raises(UnknownReceiverError):
        registry.send_message(tell("a", "DummyA", Atom("x")))


def test_two_routes_cannot_bind_the_same_dummy(stack):
    bus, registry, _, _, _ = stack
    bus.add_route(RouteDefinition("r1", "jason:Same", (), ("collect:y",)))
    bus.add_route(RouteDefinition("r2", "jason:Same", (), ("collect:y",)))
    from masbus.errors import DuplicateNameError

    with pytest.raises(DuplicateNameError):
        bus.start()
    # failed start rolls everything back, including the first binding
    assert not bus.is_running
    assert registry.dummy_names() == ()


def test_jason_producer_defaults_to_tell(stack):
    bus, registry, _, _, _ = stack
    registry.spawn_agent("delivery_agent")
    bus.add_route(RouteDefinition("r", "direct:in", (), ("jason:delivery_agent",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("payload")))
    assert wait_for(lambda: registry.mailbox_size("delivery_agent") == 1)
    msg = registry.receive("delivery_agent")
    assert msg.performative is Performative.TELL
    assert msg.content == Atom("payload")
    # no sender header or param: the endpoint name stands in
    assert msg.sender == "delivery_agent"


def test_jason_producer_honours_headers_and_params(stack):
    bus, registry, _, _, _ = stack
    registry.spawn_agent("target")
    bus.add_route(
        RouteDefinition(
            "r", "direct:in", (), ("jason:target?performative=achieve&sender=gateway",)
        )
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("goal")))
    assert wait_for(lambda: registry.mailbox_size("target") == 1)
    msg = registry.receive("target")
    assert msg.performative is Performative.ACHIEVE
    assert msg.sender == "gateway"
    # headers win over URI parameters
    bus.process_exchange(
        "r",
        bus.new_exchange(
            body=Atom("note"),
            headers={"performative": String("tell"), "sender": String("alice")},
        ),
    )
    assert wait_for(lambda: registry.mailbox_size("target") == 1)
    msg = registry.receive("target")
    assert msg.performative is Performative.TELL
    assert msg.sender == "alice"


def test_jason_producer_unknown_target_dead_letters(stack):
    bus, registry, _, _, _ = stack
    bus.add_route(RouteDefinition("r", "direct:in", (), ("jason:nobody",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("x")))
    assert bus.wait_until_idle()
    (entry,) = bus.dead_letters()
    assert "nobody" in entry.error


def test_aa_loopback_transparency(stack):
    bus, registry, _, _, _ = stack
    registry.spawn_agent("a")
    registry.spawn_agent("b")
    bus.add_route(RouteDefinition("out", "jason:EchoDummy", (), ("direct:hop",)))
    bus.add_route(RouteDefinition("in", "direct:hop", (), ("jason:b",)))
    bus.start()
    content = ListTerm((Atom("x"), Number(4.5)))
    registry.send_message(AclMessage("a", "EchoDummy", Performative.ACHIEVE, content))
    registry.send_message(AclMessage("a", "b", Performative.ACHIEVE, content))
    assert wait_for(lambda: registry.mailbox_size("b") == 2)
    first, second = registry.receive("b"), registry.receive("b")
    assert (first.performative, first.content) == (second.performative, second.content)
    assert {first.sender, second.sender} == {"a"}


# -- artifact component -----------------------------------------------------------


def test_artifact_producer_dispatches_from_headers(stack):
    bus, _, env, _, _ = stack
    env.create_artifact("main", "TrackedArtifact", tracker_template((0.0, 1.0), 0.5))
    bus.add_route(
        RouteBuilder("r")
        .from_("direct:in")
        .set_header("ArtifactName", "TrackedArtifact")
        .set_header("OperationName", "giveDistance")
        .to("artifact:cartago")
        .build()
    )
    bus.start()
    body = ListTerm((Number(0.0), Number(0.0)))
    bus.process_exchange("r", bus.new_exchange(body=body))
    assert bus.wait_until_idle()
    (entry,) = env.operation_log()
    assert entry.artifact == "TrackedArtifact"
    assert entry.operation == "giveDistance"
    assert entry.params == (Number(0.0), Number(0.0))
    assert entry.origin.route_id == "r"
    assert env.artifact("TrackedArtifact").properties["distanceKm"].value == pytest.approx(
        111.19492664455873, abs=0.01
    )


def test_artifact_producer_scalar_body_becomes_single_param(stack):
    bus, _, env, _, _ = stack
    env.create_artifact("main", "c", counter_template())
    bus.add_route(
        RouteDefinition(
            "r", "direct:in", (), ("artifact:main?artifactName=c&operationName=increment",)
        )
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Number(5)))
    assert bus.wait_until_idle()
    assert env.artifact("c").properties["count"] == Number(5)
    (entry,) = env.operation_log()
    assert entry.params == (Number(5),)


def test_artifact_producer_missing_names_dead_letter(stack):
    bus, _, env, _, _ = stack
    env.create_artifact("main", "c", counter_template())
    bus.add_route(
        RouteDefinition("r", "direct:in", (), ("artifact:main?artifactName=c",))
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Number(1)))
    assert bus.wait_until_idle()
    (entry,) = bus.dead_letters()
    assert "OperationName" in entry.error


@pytest.mark.parametrize(
    "uri, error",
    [
        ("artifact:main", MissingArtifactNameError),
        ("artifact:main?artifactName=c", MissingOperationNameError),
    ],
)
def test_artifact_producer_without_a_name_dead_letters_a_typed_error(stack, uri, error):
    bus, _, env, _, _ = stack
    env.create_artifact("main", "c", counter_template())
    bus.add_route(RouteDefinition("r", "direct:in", (), (uri,)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Number(1)))
    assert bus.wait_until_idle()
    (entry,) = bus.dead_letters()
    assert entry.kind == "producer"
    assert entry.error.startswith(f"{error.__name__}: ")


def test_a_consumer_only_scheme_as_producer_fails_route_start(stack):
    bus, _, _, _, _ = stack
    bus.add_route(RouteBuilder("r").from_("direct:in").to("timer:x?periodMs=5").build())
    with pytest.raises(ProducerUnsupportedError):
        bus.start()
    assert not bus.is_running


def test_artifact_producer_failed_op_dead_letters(stack):
    bus, _, env, _, _ = stack
    env.create_artifact("main", "t", tracker_template((0.0, 0.0), 1.0))
    bus.add_route(
        RouteDefinition(
            "r",
            "direct:in",
            (),
            ("artifact:cartago?artifactName=t&operationName=giveDistance",),
        )
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=ListTerm((Number(95), Number(0)))))
    assert bus.wait_until_idle()
    (entry,) = bus.dead_letters()
    assert "bad_coordinates" in entry.error


def test_artifact_consumer_emits_outbound_payloads(stack):
    bus, _, env, _, collector = stack
    env.create_artifact("main", "erp", counter_template())
    env.artifact_send("erp", {"kind": Atom("note")}, Atom("queued"))
    bus.add_route(
        RouteDefinition("r", "artifact:main?artifactName=erp", (), ("collect:y",))
    )
    bus.start()
    env.artifact_send("erp", None, Atom("live"))
    assert wait_for(lambda: len(collector.exchanges()) == 2)
    first, second = collector.exchanges()
    assert first.body == Atom("queued")
    assert first.headers["ArtifactName"] == String("erp")
    assert first.headers["kind"] == Atom("note")
    assert second.body == Atom("live")


def test_artifact_consumer_unknown_artifact_fails_at_start(stack):
    bus, _, _, _, _ = stack
    bus.add_route(
        RouteDefinition("r", "artifact:main?artifactName=ghost", (), ("collect:y",))
    )
    with pytest.raises(UnknownArtifactError):
        bus.start()


def test_artifact_consumer_requires_artifact_name_param(stack):
    bus, _, _, _, _ = stack
    bus.add_route(RouteDefinition("r", "artifact:main", (), ("collect:y",)))
    with pytest.raises(MissingParamError):
        bus.start()


# -- mqttlite -------------------------------------------------------------------


def test_mqtt_publish_reaches_subscribed_route(stack):
    bus, _, _, components, collector = stack
    bus.add_route(
        RouteDefinition(
            "r",
            "mqttlite:foo?host=tcp://broker&subscribeTopicName=latLong",
            (),
            ("collect:y",),
        )
    )
    bus.start()
    broker = components["mqttlite"].broker("tcp://broker")
    broker.publish("latLong", "pos(1.0,2.0)")
    assert wait_for(lambda: collector.exchanges())
    (ex,) = collector.exchanges()
    assert ex.body == __import__("masbus").parse_term("pos(1.0,2.0)")


def test_mqtt_unparseable_payload_becomes_string_term(stack):
    bus, _, _, components, collector = stack
    bus.add_route(
        RouteDefinition(
            "r", "mqttlite:foo?host=h&subscribeTopicName=t", (), ("collect:y",)
        )
    )
    bus.start()
    components["mqttlite"].broker("h").publish("t", "Not A Term")
    assert wait_for(lambda: collector.exchanges())
    assert collector.exchanges()[0].body == String("Not A Term")


@pytest.mark.parametrize(
    "text, position", [("[1e999,2]", 1), ("-1e999", 0), ("f(1, 2e400)", 5)]
)
def test_a_number_that_overflows_is_a_syntax_error_at_its_start(text, position):
    with pytest.raises(TermSyntaxError) as raised:
        parse_term(text)
    assert raised.value.position == position
    assert "number out of range" in str(raised.value)
    assert payload_to_term(text) == String(text)


def test_mqtt_publish_of_an_overflowing_number_reaches_the_route_as_text(stack):
    bus, _, _, components, collector = stack
    bus.add_route(
        RouteDefinition(
            "r", "mqttlite:foo?host=h&subscribeTopicName=t", (), ("collect:y",)
        )
    )
    bus.start()
    components["mqttlite"].broker("h").publish("t", "1e999")  # returns, raises nothing
    assert wait_for(lambda: collector.exchanges())
    assert collector.exchanges()[0].body == String("1e999")


def test_mqtt_publish_without_subscribers_is_noop(stack):
    _, _, _, components, _ = stack
    broker = components["mqttlite"].broker("h")
    assert broker.publish("quiet", "x") == 0
    assert broker.retained("quiet") == "x"


def test_mqtt_fan_out_two_subscribers(stack):
    bus, _, _, components, collector = stack
    for i in (1, 2):
        bus.add_route(
            RouteDefinition(
                f"r{i}", "mqttlite:foo?host=h&subscribeTopicName=t", (), ("collect:y",)
            )
        )
    bus.start()
    components["mqttlite"].broker("h").publish("t", "1")
    assert wait_for(lambda: len(collector.exchanges()) == 2)
    assert len(collector.exchanges()) == 2


def test_mqtt_producer_publishes_rendered_body(stack):
    bus, _, _, components, _ = stack
    seen = []
    components["mqttlite"].broker("h").subscribe("out", seen.append)
    bus.add_route(
        RouteDefinition("r", "direct:in", (), ("mqttlite:foo?host=h&publishTopicName=out",))
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=ListTerm((Number(1), Number(2)))))
    assert wait_for(lambda: seen)
    assert seen == ["[1,2]"]


def test_mqtt_missing_params_fail_route_start(stack):
    bus, _, _, _, _ = stack
    bus.add_route(RouteDefinition("r", "mqttlite:foo?host=h", (), ("collect:y",)))
    with pytest.raises(MissingParamError):
        bus.start()


# -- tcpline ---------------------------------------------------------------------


def test_tcpline_consumer_and_producer_round_trip(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    host, port = bus.consumer("in").address
    out_bus = Bus()
    register_builtin_components(out_bus)
    out_bus.add_route(
        RouteDefinition("out", "direct:src", (), (f"tcpline:127.0.0.1:{port}",))
    )
    out_bus.start()
    out_bus.process_exchange("out", out_bus.new_exchange(body=Atom("done")))
    assert wait_for(lambda: collector.exchanges())
    assert collector.exchanges()[0].body == Atom("done")
    out_bus.stop()


def test_tcpline_multiple_lines_one_connection(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address
    with socket.create_connection(address) as conn:
        conn.sendall(b"1\n2\n3\n")
    assert wait_for(lambda: len(collector.exchanges()) == 3)
    assert [ex.body for ex in collector.exchanges()] == [Number(1), Number(2), Number(3)]


def test_tcpline_deeply_nested_line_is_admitted_as_text(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    deep = "[" * 5000
    with socket.create_connection(bus.consumer("in").address) as conn:
        conn.sendall(deep.encode() + b"\n1\n")
    # the connection survives the hostile line and admits the next one
    assert wait_for(lambda: len(collector.exchanges()) == 2)
    assert [ex.body for ex in collector.exchanges()] == [String(deep), Number(1)]


def test_tcpline_overflowing_number_is_admitted_as_text(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    with socket.create_connection(bus.consumer("in").address) as conn:
        conn.sendall(b"one\n[1e999,2]\nthree\n")
    assert wait_for(lambda: len(collector.exchanges()) == 3)
    assert [ex.body for ex in collector.exchanges()] == [
        Atom("one"), String("[1e999,2]"), Atom("three"),
    ]
    assert bus.dead_letters() == ()


def test_tcpline_undecodable_line_spares_its_neighbours(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    with socket.create_connection(bus.consumer("in").address) as conn:
        conn.sendall(b"a\n\xff\xfe\nb\nc\n")
    assert wait_for(lambda: len(collector.exchanges()) == 4)
    assert [ex.body for ex in collector.exchanges()] == [
        Atom("a"), String("\\xff\\xfe"), Atom("b"), Atom("c"),
    ]


def test_tcpline_over_long_line_is_discarded_and_spares_its_neighbours(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    with socket.create_connection(bus.consumer("in").address) as conn:
        conn.sendall(b"1\n" + b"a" * 200_000 + b"\n2\n")
    assert wait_for(lambda: len(collector.exchanges()) == 2)
    assert [ex.body for ex in collector.exchanges()] == [Number(1), Number(2)]


def test_tcpline_line_cap_counts_the_newline(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    fits = "a" * (tcpline.MAX_LINE - 1)
    with socket.create_connection(bus.consumer("in").address) as conn:
        conn.sendall(f"{fits}\n{fits}b\n2\n".encode())
    assert wait_for(lambda: len(collector.exchanges()) == 2)
    assert [ex.body for ex in collector.exchanges()] == [Atom(fits), Number(2)]


def test_tcpline_survives_random_byte_streams(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address
    sent = 0

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=400))
    def check(data):
        nonlocal sent
        sent += 1
        marker = Atom(f"after{sent}")
        with socket.create_connection(address, timeout=5.0) as conn:
            conn.sendall(data)
            # the same connection still admits a valid line
            conn.sendall(f"\n{marker.name}\n".encode())
            assert wait_for(lambda: marker in [ex.body for ex in collector.exchanges()])

    check()


def _expected_lines(data: bytes, max_line: int) -> list[bytes]:
    """The lines a whole stream admits: a line over ``max_line`` bytes with its
    newline is dropped, and a last line needs no newline."""
    *complete, last = data.split(b"\n")
    lines = [line for line in complete if 0 < len(line) < max_line]
    return lines + [last] if 0 < len(last) <= max_line else lines


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([b"a", b"b", b"\n"]), min_size=1, max_size=12).map(b"".join),
        max_size=8,
    )
)
def test_tcpline_admits_the_same_lines_however_the_bytes_arrive(chunks):
    ctx = types.SimpleNamespace(uri=parse_uri("tcpline:127.0.0.1:0"), route_id="r")
    consumer = tcpline.TcpLineComponent().create_consumer(ctx)
    admitted = []
    consumer._admit = lambda line: admitted.append(bytes(line)) or True
    feed = consumer._connection(None, ("127.0.0.1", 1))
    with unittest.mock.patch.object(tcpline, "MAX_LINE", 5):
        for chunk in chunks:
            assert feed(chunk)
        assert not feed(b"")
    assert admitted == _expected_lines(b"".join(chunks), 5)


def test_tcpline_producer_connection_refused_dead_letters(stack):
    bus, _, _, _, _ = stack
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    bus.add_route(
        RouteDefinition("r", "direct:in", (), (f"tcpline:127.0.0.1:{free_port}",))
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("x")))
    assert bus.wait_until_idle(10.0)
    (entry,) = bus.dead_letters()
    assert entry.kind == "producer"


def test_tcpline_bind_conflict_fails_start(stack):
    bus, _, _, _, _ = stack
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen()
    port = blocker.getsockname()[1]
    bus.add_route(RouteDefinition("in", f"tcpline:127.0.0.1:{port}", (), ("collect:y",)))
    try:
        with pytest.raises(OSError):
            bus.start()
        assert not bus.is_running
    finally:
        blocker.close()


def test_tcpline_silent_and_half_line_peers_do_not_hold_up_a_third(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address
    with socket.create_connection(address, timeout=5.0), socket.create_connection(
        address, timeout=5.0
    ) as half:
        half.sendall(b"hal")
        with socket.create_connection(address, timeout=5.0) as third:
            third.sendall(b"3\n")
            assert wait_for(lambda: collector.exchanges(), timeout=1.0)
        assert [ex.body for ex in collector.exchanges()] == [Number(3)]
        half.sendall(b"f\n")
        assert wait_for(lambda: len(collector.exchanges()) == 2)
    assert [ex.body for ex in collector.exchanges()] == [Number(3), Atom("half")]


def test_a_failing_accept_backs_off_and_keeps_serving(stack, monkeypatch, caplog):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "tcpline:127.0.0.1:0", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address

    def exhausted(sock):
        raise OSError(errno.EMFILE, "Too many open files")

    with socket.create_connection(address, timeout=5.0) as open_before:
        open_before.sendall(b"1\n")
        assert wait_for(lambda: len(collector.exchanges()) == 1)
        with monkeypatch.context() as patch:
            patch.setattr(socket.socket, "accept", exhausted)
            # a waiting connection makes every accept fail until the patch ends
            waiting = socket.create_connection(address, timeout=5.0)
            time.sleep(0.15)
            open_before.sendall(b"2\n")  # still served while accepts back off
            assert wait_for(lambda: len(collector.exchanges()) == 2, timeout=1.0)
            time.sleep(0.15)
        failures = [r for r in caplog.records if "accept failed" in r.getMessage()]
        # 5 ms doubling: about 7 tries in 0.3 s, where a retry at once made thousands
        assert 1 <= len(failures) <= 12, len(failures)
        with waiting, socket.create_connection(address, timeout=5.0) as later:
            later.sendall(b"3\n")
            assert wait_for(lambda: len(collector.exchanges()) == 3)
    assert [ex.body for ex in collector.exchanges()] == [Number(1), Number(2), Number(3)]


# -- httplite --------------------------------------------------------------------


def test_httplite_consumer_maps_requests_to_exchanges(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "httplite:127.0.0.1:0/hook", (), ("collect:y",)))
    bus.start()
    host, port = bus.consumer("in").address
    conn = http.client.HTTPConnection(host, port)
    conn.request("POST", "/hook", body=b"f(1)")
    response = conn.getresponse()
    assert response.status == 200
    response.read()
    conn.close()
    assert wait_for(lambda: collector.exchanges())
    (ex,) = collector.exchanges()
    assert ex.body == __import__("masbus").parse_term("f(1)")
    assert ex.headers["HttpMethod"] == String("POST")
    assert ex.headers["HttpPath"] == String("/hook")


def test_httplite_consumer_answers_an_overflowing_number_and_admits_it_as_text(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "httplite:127.0.0.1:0/hook", (), ("collect:y",)))
    bus.start()
    assert _post(bus.consumer("in").address, b"1e999") == 200
    assert wait_for(lambda: collector.exchanges())
    assert [ex.body for ex in collector.exchanges()] == [String("1e999")]


def test_httplite_consumer_ends_kept_alive_connection_at_stop(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "httplite:127.0.0.1:0/hook", (), ("collect:y",)))
    bus.start()
    conn = http.client.HTTPConnection(*bus.consumer("in").address, timeout=5.0)
    conn.request("POST", "/hook", body=b"1")
    response = conn.getresponse()
    response.read()
    assert response.status == 200
    bus.stop()
    # stop() closed the kept-alive connection; its next request cannot reach the route
    with pytest.raises((ConnectionError, http.client.HTTPException)):
        conn.request("POST", "/hook", body=b"2")
        conn.getresponse()
    conn.close()
    assert [ex.body for ex in collector.exchanges()] == [Number(1)]


@pytest.mark.parametrize(
    "length, body",
    [("-5", b""), ("abc", b""), ("1", b"\xff"), ("5", b"ab")],
    ids=["negative", "text", "utf8", "short"],
)
def test_httplite_consumer_answers_400_to_unreadable_body(stack, length, body):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "httplite:127.0.0.1:0/hook", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address
    with socket.create_connection(address, timeout=5.0) as raw:
        raw.sendall(
            f"POST /hook HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
            + body
        )
        raw.shutdown(socket.SHUT_WR)  # a body shorter than its length ends here
        with raw.makefile("rb") as reader:
            reply = reader.read()  # the server closes after a 400
    assert reply.startswith(b"HTTP/1.1 400 ")
    # the listener serves the next request on a new connection
    conn = http.client.HTTPConnection(*address, timeout=5.0)
    conn.request("POST", "/hook", body=b"f(1)")
    response = conn.getresponse()
    response.read()
    conn.close()
    assert response.status == 200
    assert wait_for(lambda: collector.exchanges())
    assert [ex.body for ex in collector.exchanges()] == [Structure("f", (Number(1),))]


def _post(address, body: bytes = b"f(1)") -> int:
    """Status of one POST on a new connection."""
    conn = http.client.HTTPConnection(*address, timeout=5.0)
    try:
        conn.request("POST", "/hook", body=body)
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _send_and_read_to_close(address, data: bytes) -> bytes:
    """Send ``data``, end the write side and read until the server closes."""
    with socket.create_connection(address, timeout=5.0) as raw:
        raw.sendall(data)
        raw.shutdown(socket.SHUT_WR)
        with raw.makefile("rb") as reader:
            return reader.read()


def test_serve_http_answers_kept_alive_requests_without_delay():
    received = []

    def respond(method, path, text):
        received.append(text)
        return 200, f"ok {text}"

    server = serve_http(("127.0.0.1", 0), respond, "keep-alive-stub")
    conn = http.client.HTTPConnection(*server.address, timeout=5.0)
    try:
        replies = []
        started = time.perf_counter()
        for i in range(50):
            conn.request("POST", "/hook", body=str(i).encode())
            if i == 0:
                sock = conn.sock
            response = conn.getresponse()
            replies.append((response.status, response.read()))
        elapsed = time.perf_counter() - started
        assert conn.sock is sock  # every request went over the first connection
    finally:
        conn.close()
        server.close()
    # a head and a body written apart wait out a delayed ACK, ~40 ms each
    assert elapsed < 0.5
    assert replies == [(200, f"ok {i}".encode()) for i in range(50)]
    assert received == [str(i) for i in range(50)]


def test_serve_http_answers_expect_continue_and_closes_when_asked():
    received = []

    def respond(method, path, text):
        received.append(text)
        return 200, ""

    server = serve_http(("127.0.0.1", 0), respond, "continue-stub")
    try:
        with socket.create_connection(server.address, timeout=5.0) as raw:
            raw.sendall(b"POST /a HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n")
            assert raw.recv(100) == b"HTTP/1.1 100 Continue\r\n\r\n"
            raw.sendall(b"abc")
            assert raw.recv(100).startswith(b"HTTP/1.1 200 ")
        for request in (
            b"GET /b HTTP/1.0\r\n\r\n",
            b"GET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
        ):
            reply = _send_and_read_to_close(server.address, request + request)
            # one answer, then the connection ends: the repeat is never served
            assert reply.count(b"HTTP/1.1 200 ") == 1
    finally:
        server.close()
    assert received == ["abc", "", ""]


@pytest.mark.parametrize(
    "data, status",
    [
        (b"DELETE /hook HTTP/1.1\r\nHost: x\r\n\r\n", 501),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
        (b"POST /hook HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        (b"POST /hook HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
        (b"\x16\x03\x01\x02\x00 garbage\r\n\r\n", 400),
        (b"POST /hook HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n", 413),
        (b"POST /hook HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", 413),
    ],
    ids=[
        "method", "long-request-line", "long-header", "many-headers", "garbage",
        "huge-body", "endless-length",
    ],
)
def test_httplite_consumer_answers_and_closes_on_bad_requests(stack, data, status):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "httplite:127.0.0.1:0/hook", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address
    # the reply is read to the end: the server closed the connection
    assert _send_and_read_to_close(address, data).startswith(b"HTTP/1.1 %d " % status)
    assert _post(address) == 200
    assert wait_for(lambda: collector.exchanges())
    assert [ex.body for ex in collector.exchanges()] == [Structure("f", (Number(1),))]


def test_serve_http_survives_random_byte_streams():
    server = serve_http(("127.0.0.1", 0), lambda method, path, text: (200, ""), "fuzz-stub")
    try:

        @settings(max_examples=60, deadline=None)
        @given(st.binary(max_size=400))
        def check(data):
            try:
                _send_and_read_to_close(server.address, data)
            except ConnectionResetError:
                pass  # a close with unread input resets the connection
            assert server._thread.is_alive()
            assert _post(server.address) == 200

        check()
    finally:
        server.close()


def test_serve_http_silent_and_half_request_peers_do_not_hold_up_a_third():
    received = []

    def respond(method, path, text):
        received.append(text)
        return 200, ""

    server = serve_http(("127.0.0.1", 0), respond, "patient-stub")
    try:
        with socket.create_connection(server.address, timeout=5.0), socket.create_connection(
            server.address, timeout=5.0
        ) as half:
            half.sendall(b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
            started = time.perf_counter()
            assert _post(server.address, b"third") == 200
            assert time.perf_counter() - started < 1.0
            assert received == ["third"]
            half.sendall(b"cde")
            assert half.recv(100).startswith(b"HTTP/1.1 200 ")
    finally:
        server.close()
    assert received == ["third", "abcde"]


def _read_replies(raw: socket.socket, count: int) -> list[tuple[bytes, bytes]]:
    """``(status line, body)`` of the next ``count`` replies on ``raw``."""
    replies = []
    with raw.makefile("rb") as reader:
        for _ in range(count):
            status = reader.readline().rstrip()
            length = 0
            while (line := reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            replies.append((status, reader.read(length)))
    return replies


def test_serve_http_answers_a_request_sent_one_byte_per_send():
    server = serve_http(("127.0.0.1", 0), lambda m, p, text: (200, f"ok {text}"), "slow-stub")
    request = b"POST /a HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n%s"
    try:
        with socket.create_connection(server.address, timeout=5.0) as raw:
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for body in (b"abc", b"def"):
                for byte in request % body:
                    raw.sendall(bytes([byte]))
                    time.sleep(0.0005)
            # one 100 Continue per request, however often its head was parsed
            assert _read_replies(raw, 4) == [
                (b"HTTP/1.1 100 Continue", b""),
                (b"HTTP/1.1 200 OK", b"ok abc"),
                (b"HTTP/1.1 100 Continue", b""),
                (b"HTTP/1.1 200 OK", b"ok def"),
            ]
    finally:
        server.close()


def test_serve_http_answers_pipelined_requests_in_order():
    server = serve_http(("127.0.0.1", 0), lambda m, path, text: (200, path + text), "pipe-stub")
    try:
        with socket.create_connection(server.address, timeout=5.0) as raw:
            raw.sendall(
                b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\n1"
                b"POST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\n2"
            )
            assert _read_replies(raw, 2) == [
                (b"HTTP/1.1 200 OK", b"/a1"),
                (b"HTTP/1.1 200 OK", b"/b2"),
            ]
    finally:
        server.close()


def test_httplite_consumer_answers_400_to_a_half_received_request_at_stop(stack):
    bus, _, _, _, collector = stack
    bus.add_route(RouteDefinition("in", "httplite:127.0.0.1:0/hook", (), ("collect:y",)))
    bus.start()
    address = bus.consumer("in").address
    with socket.create_connection(address, timeout=5.0) as raw:
        raw.sendall(b"POST /hook HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
        # accepts are FIFO: once a later peer that ends its side is closed,
        # the first was accepted, and stop() reads what it sent
        with socket.create_connection(address, timeout=5.0) as later:
            later.shutdown(socket.SHUT_WR)
            assert later.recv(1) == b""
        bus.stop()
        with raw.makefile("rb") as reader:
            reply = reader.read()  # the bus answered, then closed
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert collector.exchanges() == []


class _SentRecorder:
    def __init__(self):
        self.sent = []

    def sendall(self, data):
        self.sent.append(bytes(data))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.text("ab", max_size=4), st.booleans()), min_size=1, max_size=3),
    st.data(),
)
def test_serve_http_answers_alike_however_the_bytes_arrive(requests, data):
    messages = [
        b"POST /%d HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s"
        % (i, b"Expect: 100-continue\r\n" if expect else b"", len(body), body.encode())
        for i, (body, expect) in enumerate(requests)
    ]
    stream = b"".join(messages)
    stream = stream[: data.draw(st.integers(0, len(stream)))]  # the peer may stop anywhere
    cuts = data.draw(st.sets(st.integers(1, max(1, len(stream) - 1)), max_size=6))
    server = serve_http(("127.0.0.1", 0), lambda m, path, text: (200, path + text), "feed-stub")
    try:
        runs = []
        for bounds in ([0, len(stream)], sorted({0, len(stream), *cuts} - {len(stream) + 1})):
            peer = _SentRecorder()
            feed = server._protocol(peer, ("127.0.0.1", 1))
            for start, end in zip(bounds, bounds[1:]):
                assert end == start or feed(stream[start:end])
            feed(b"")
            runs.append(peer.sent)
    finally:
        server.close()
    whole, chunked = runs
    assert chunked == whole
    complete = sum(len(b"".join(messages[: i + 1])) <= len(stream) for i in range(len(messages)))
    answered = sum(reply.startswith(b"HTTP/1.1 200 ") for reply in whole)
    assert answered == complete


def test_serve_http_answers_400_to_a_head_cut_short_by_the_end_of_the_stream():
    calls = []

    def respond(method, path, text):
        calls.append(path)
        return 200, ""

    server = serve_http(("127.0.0.1", 0), respond, "cut-stub")
    try:
        peer = _SentRecorder()
        feed = server._protocol(peer, ("127.0.0.1", 1))
        assert feed(b"POST /1 HTTP/1.1\r\nExpect: 100-continu")
        assert not feed(b"")
    finally:
        server.close()
    assert [reply.split(b"\r\n", 1)[0] for reply in peer.sent] == [b"HTTP/1.1 400 Bad Request"]
    assert calls == []


class _ChunkedReply(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for chunk in (b"f(", b"1, ", b"two)"):
            self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        self.wfile.write(b"0\r\n\r\n")

    def log_message(self, *args):
        pass


class _ReplyUntilClose(_ChunkedReply):
    protocol_version = "HTTP/1.0"  # no length: the reply ends with the connection

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.end_headers()
        self.wfile.write(b"f(1, two)")


@pytest.mark.parametrize("handler", [_ChunkedReply, _ReplyUntilClose], ids=["chunked", "eof"])
def test_httplite_producer_routes_replies_of_every_framing(stack, handler):
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    serving = threading.Thread(target=server.handle_request, daemon=True)
    serving.start()
    try:
        bus, _, _, _, collector = stack
        port = server.server_address[1]
        bus.add_route(
            RouteDefinition(
                "r", "direct:in", (), (f"httplite:127.0.0.1:{port}/x?replyTo=reply",)
            )
        )
        bus.add_route(RouteDefinition("reply", "direct:reply-src", (), ("collect:y",)))
        bus.start()
        bus.process_exchange("r", bus.new_exchange(body=Atom("order")))
        assert wait_for(lambda: collector.exchanges())
        (reply,) = collector.exchanges()
        assert reply.body == Structure("f", (Number(1), Atom("two")))
        assert bus.dead_letters() == ()
    finally:
        serving.join(5.0)
        server.server_close()
    assert not serving.is_alive()


class _OversizedReply(http.server.BaseHTTPRequestHandler):
    """Answers with ``reply``, written as is; HTTP/1.0 closes after it."""

    reply = b""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.wfile.write(self.reply)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize(
    "reply",
    [
        b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nabcdefghijk",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"6\r\nabcdef\r\n6\r\nghijkl\r\n0\r\n\r\n",
        b"HTTP/1.0 200 OK\r\n\r\nabcdefghijk",
        b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n",
    ],
    ids=["length", "chunked", "eof", "announced"],
)
def test_httplite_producer_dead_letters_a_reply_over_the_body_cap(stack, monkeypatch, reply):
    monkeypatch.setattr(httplite, "MAX_BODY", 10)
    handler = type("Handler", (_OversizedReply,), {"reply": reply})
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    serving = threading.Thread(target=server.handle_request, daemon=True)
    serving.start()
    try:
        bus, _, _, _, collector = stack
        port = server.server_address[1]
        bus.add_route(
            RouteDefinition(
                "r", "direct:in", (), (f"httplite:127.0.0.1:{port}/x?replyTo=reply",)
            )
        )
        bus.add_route(RouteDefinition("reply", "direct:reply-src", (), ("collect:y",)))
        bus.start()
        bus.process_exchange("r", bus.new_exchange(body=Atom("order")))
        assert bus.wait_until_idle(10.0)
        (entry,) = bus.dead_letters()
        assert entry.kind == "producer"
        assert entry.error.startswith("HttpMessageError: body of ")
        assert collector.exchanges() == []
    finally:
        serving.join(5.0)
        server.server_close()


def test_httplite_producer_posts_and_routes_reply(stack):
    received = []

    def respond(method, path, text):
        received.append((method, text))
        return 200, "ok"

    server = serve_http(("127.0.0.1", 0), respond, "checkout-stub")
    port = server.address[1]

    bus, _, _, _, collector = stack
    bus.add_route(
        RouteDefinition(
            "r",
            "direct:in",
            (),
            (f"httplite:127.0.0.1:{port}/checkout?method=POST&replyTo=reply",),
        )
    )
    bus.add_route(RouteDefinition("reply", "direct:reply-src", (), ("collect:y",)))
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("order")))
    assert wait_for(lambda: collector.exchanges())
    assert received == [("POST", "order")]
    (reply_ex,) = collector.exchanges()
    assert reply_ex.body == Atom("ok")
    assert reply_ex.headers["HttpStatus"] == Number(200)
    server.close()


def test_httplite_producer_connection_refused_dead_letters(stack):
    bus, _, _, _, _ = stack
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    bus.add_route(
        RouteDefinition("r", "direct:in", (), (f"httplite:127.0.0.1:{free_port}/x",))
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("x")))
    assert bus.wait_until_idle(10.0)
    assert len(bus.dead_letters()) == 1


# -- chatstub --------------------------------------------------------------------


def test_chatstub_records_transcript_row(stack):
    bus, _, _, components, _ = stack
    bus.add_route(
        RouteDefinition(
            "r", "direct:in", (), ("chatstub:bots/sometoken?chatId=-364531",)
        )
    )
    bus.start()
    bus.process_exchange("r", bus.new_exchange(body=Atom("arriving")))
    assert bus.wait_until_idle()
    (row,) = components["chatstub"].transcript()
    assert row.token == "sometoken"
    assert row.chat_id == "-364531"
    assert row.text == "arriving"
    exported = components["chatstub"].export_jsonl()
    assert '"chatId": "-364531"' in exported


def test_chatstub_consumer_unsupported(stack):
    bus, _, _, _, _ = stack
    bus.add_route(RouteDefinition("r", "chatstub:bots/t?chatId=1", (), ("collect:y",)))
    with pytest.raises(ConsumerUnsupportedError):
        bus.start()


# -- timer ------------------------------------------------------------------------


def test_timer_wall_clock_tick_band():
    bus = Bus()
    register_builtin_components(bus)
    collector = CollectorComponent()
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("t", "timer:tick?periodMs=10", (), ("collect:y",)))
    bus.start()
    time.sleep(0.105)
    bus.stop()
    count = len(collector.exchanges())
    assert 8 <= count <= 12, f"got {count} ticks"
    bodies = [ex.body.value for ex in collector.exchanges()]
    assert bodies == list(range(count))


def test_timer_simulated_clock_is_exact():
    clock = SimulatedClock()
    bus = Bus(clock=clock)
    register_builtin_components(bus)
    collector = CollectorComponent()
    bus.register_component("collect", collector)
    bus.add_route(RouteDefinition("t", "timer:tick?periodMs=10", (), ("collect:y",)))
    bus.start()
    fired = clock.advance(0.1)
    assert fired == 10
    assert bus.wait_until_idle()
    assert [ex.body.value for ex in collector.exchanges()] == list(range(10))
    bus.stop()


def test_timer_requires_period(stack):
    bus, _, _, _, _ = stack
    bus.add_route(RouteDefinition("t", "timer:tick", (), ("collect:y",)))
    with pytest.raises(MissingParamError):
        bus.start()
