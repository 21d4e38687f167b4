from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from masbus import (
    Atom,
    Number,
    RouteBuilder,
    RouteDefinition,
    SetHeader,
    String,
    Transform,
    constant,
    parse_route_file,
    parse_routes_xml,
    render_routes_xml,
)
from masbus.errors import (
    BadUriError,
    IncompleteRouteError,
    MissingFromError,
    MissingToError,
    OrderViolationError,
    RouteConfigError,
    UnknownElementError,
    XmlSyntaxError,
)
from conftest import random_atom_name, random_term

NOTIFY_ROUTE = """\
<routes>
  <route>
    <from uri="jason:DummyCustomerAgent"/>
    <to uri="telegram:bots/sometoken?chatId=-364531"/>
  </route>
</routes>
"""


def test_parse_notification_route():
    (route,) = parse_routes_xml(NOTIFY_ROUTE)
    assert route.route_id == "route-1"
    assert str(route.from_uri) == "jason:DummyCustomerAgent"
    assert route.processors == ()
    assert [str(u) for u in route.to_uris] == ["telegram:bots/sometoken?chatId=-364531"]


def test_parse_empty_routes():
    assert parse_routes_xml("<routes/>") == []


def test_parse_set_header_and_transform():
    text = """
    <routes>
      <route id="track">
        <from uri="mqtt : foo? host=tcp://broker &amp; subscribeTopicName=latLong"/>
        <setHeader headerName="ArtifactName"><constant>TrackedArtifact</constant></setHeader>
        <setHeader headerName="OperationName"><constant>giveDistance</constant></setHeader>
        <transform name="clean"/>
        <to uri="artifact : cartago"/>
      </route>
    </routes>
    """
    (route,) = parse_routes_xml(text)
    assert route.route_id == "track"
    assert route.processors == (
        SetHeader("ArtifactName", String("TrackedArtifact")),
        SetHeader("OperationName", Atom("giveDistance")),
        Transform("clean"),
    )
    assert str(route.from_uri) == "mqtt:foo?host=tcp://broker&subscribeTopicName=latLong"
    assert str(route.to_uris[0]) == "artifact:cartago"


def test_parse_aliases_block():
    text = """
    <routes>
      <aliases>
        <alias scheme="mqtt" component="mqttlite"/>
        <alias scheme="telegram" component="chatstub"/>
      </aliases>
      <route><from uri="a:x"/><to uri="b:y"/></route>
    </routes>
    """
    rf = parse_route_file(text)
    assert rf.aliases == {"mqtt": "mqttlite", "telegram": "chatstub"}
    assert len(rf.routes) == 1


def test_declaration_and_comments_are_tolerated():
    text = """<?xml version="1.0" encoding="UTF-8"?>
<routes>
  <!-- notification path -->
  <route id="r">
    <from uri="a:x"/>
    <!-- fan out later -->
    <to uri="b:y"/>
  </route>
</routes>
"""
    (route,) = parse_routes_xml(text)
    assert route.route_id == "r"


def test_missing_to_is_located():
    text = "<routes>\n  <route>\n    <from uri=\"a:x\"/>\n  </route>\n</routes>"
    with pytest.raises(MissingToError) as err:
        parse_routes_xml(text)
    assert err.value.line == 2


def test_missing_from_is_located():
    with pytest.raises(MissingFromError):
        parse_routes_xml("<routes><route><to uri='a:x'/></route></routes>")


def test_unknown_element_is_located():
    text = "<routes>\n  <route>\n    <from uri=\"a:x\"/>\n    <weird/>\n    <to uri=\"b:y\"/>\n  </route>\n</routes>"
    with pytest.raises(UnknownElementError) as err:
        parse_routes_xml(text)
    assert err.value.line == 4


def test_xml_syntax_error_is_located():
    with pytest.raises(XmlSyntaxError) as err:
        parse_routes_xml("<routes><route></routes>")
    assert err.value.line == 1
    assert err.value.col is not None


def test_bad_uri_is_located():
    with pytest.raises(BadUriError) as err:
        parse_routes_xml("<routes>\n<route><from uri='nocolon'/><to uri='b:y'/></route>\n</routes>")
    assert err.value.line == 2


def test_root_must_be_routes():
    with pytest.raises(UnknownElementError):
        parse_routes_xml("<r/>")


def test_stray_text_rejected():
    with pytest.raises(RouteConfigError):
        parse_routes_xml("<routes>boom<route><from uri='a:x'/><to uri='b:y'/></route></routes>")


def test_builder_matches_xml_parse():
    built = (
        RouteBuilder("track")
        .from_("mqtt : foo? host=tcp://broker & subscribeTopicName=latLong")
        .set_header("ArtifactName", constant("TrackedArtifact"))
        .set_header("OperationName", constant("giveDistance"))
        .to("artifact : cartago")
        .build()
    )
    text = """
    <routes>
      <route id="track">
        <from uri="mqtt:foo?host=tcp://broker&amp;subscribeTopicName=latLong"/>
        <setHeader headerName="ArtifactName"><constant>TrackedArtifact</constant></setHeader>
        <setHeader headerName="OperationName"><constant>giveDistance</constant></setHeader>
        <to uri="artifact:cartago"/>
      </route>
    </routes>
    """
    (parsed,) = parse_routes_xml(text)
    assert built == parsed


def test_builder_accepts_plain_values():
    route = (
        RouteBuilder("r")
        .from_("a:x")
        .set_header("n", 42)
        .set_header("s", "tell")
        .to("b:y")
        .build()
    )
    assert route.processors == (SetHeader("n", Number(42)), SetHeader("s", Atom("tell")))


def test_builder_order_violations():
    with pytest.raises(OrderViolationError):
        RouteBuilder().to("a:x")
    with pytest.raises(OrderViolationError):
        RouteBuilder().set_header("h", 1)
    with pytest.raises(OrderViolationError):
        RouteBuilder().from_("a:x").from_("a:y")
    with pytest.raises(OrderViolationError):
        RouteBuilder().from_("a:x").to("b:y").set_header("h", 1)


def test_builder_incomplete():
    with pytest.raises(IncompleteRouteError):
        RouteBuilder().build()
    with pytest.raises(IncompleteRouteError):
        RouteBuilder().from_("a:x").build()


def random_definition(rng, index) -> RouteDefinition:
    def rand_uri():
        scheme = rng.choice(["alpha", "beta", "gamma", "mq"])
        path = "/".join(random_atom_name(rng) for _ in range(rng.randint(0, 2)))
        params = {
            random_atom_name(rng) + str(i): f"val{rng.randint(0, 99)}"
            for i in range(rng.randint(0, 3))
        }
        return f"{scheme}:{path}" + (
            "?" + "&".join(f"{k}={v}" for k, v in params.items()) if params else ""
        )

    processors = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.7:
            processors.append(SetHeader(random_atom_name(rng), random_term(rng)))
        else:
            processors.append(Transform(random_atom_name(rng)))
    return RouteDefinition(
        f"route-{index}",
        rand_uri(),
        tuple(processors),
        tuple(rand_uri() for _ in range(rng.randint(1, 3))),
    )


def test_render_parse_round_trip_over_generated_corpus():
    rng = random.Random(552)
    definitions = [random_definition(rng, i) for i in range(200)]
    text = render_routes_xml(definitions, aliases={"mq": "mqttlite"})
    rf = parse_route_file(text)
    assert rf.aliases == {"mq": "mqttlite"}
    assert list(rf.routes) == definitions


def test_builder_equivalent_of_generated_routes():
    rng = random.Random(553)
    for i in range(60):
        definition = random_definition(rng, i)
        builder = RouteBuilder(definition.route_id).from_(definition.from_uri)
        for proc in definition.processors:
            if isinstance(proc, SetHeader):
                builder.set_header(proc.name, proc.value)
            else:
                builder.transform(proc.name)
        for uri in definition.to_uris:
            builder.to(uri)
        assert builder.build() == definition


# pieces of route files, so generated text gets past the XML parser
_ROUTE_FILE_PIECES = st.sampled_from([
    "<routes>", "</routes>", "<route>", "<route id='r'>", "</route>", "<from uri='direct:a'/>",
    "<from uri='::'/>", "<from/>", "<to uri='x:y?a=1'/>", "<to uri='x:y?a'/>",
    "<setHeader name='h'><constant>f(1)</constant></setHeader>", "<constant>",
    "</constant>", "<transform name='t'/>", "<alias scheme='mq' component='mqttlite'/>",
    "<bogus/>", "text", "&amp;", "&bad;", "<!-- c -->", "<?xml version='1.0'?>", "'", "<",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_ROUTE_FILE_PIECES, max_size=12).map("".join)))
def test_parse_route_file_raises_only_route_config_errors(text):
    try:
        parse_route_file(text)
    except RouteConfigError:
        pass
