from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from masbus import EndpointUri, format_uri, parse_uri
from masbus.errors import (
    BadParamError,
    DuplicateParamKeyError,
    EmptyUriError,
    MissingSchemeError,
    UriError,
)
from conftest import random_atom_name


def test_parse_plain():
    assert parse_uri("jason:DummyCustomerAgent") == EndpointUri(
        "jason", "DummyCustomerAgent", {}
    )


def test_parse_path_with_slash_and_param():
    assert parse_uri("telegram:bots/sometoken?chatId=-364531") == EndpointUri(
        "telegram", "bots/sometoken", {"chatId": "-364531"}
    )


def test_parse_tolerates_typeset_whitespace():
    uri = parse_uri("mqtt : foo? host=tcp://broker & subscribeTopicName=latLong")
    assert uri == EndpointUri(
        "mqtt", "foo", {"host": "tcp://broker", "subscribeTopicName": "latLong"}
    )


def test_param_values_keep_nested_separators():
    uri = parse_uri("x:p?a=b://c:9?d&e=f")
    assert uri.params == {"a": "b://c:9?d", "e": "f"}


def test_format_canonical():
    uri = EndpointUri("jason", "DummyCustomerAgent", {})
    assert format_uri(uri) == "jason:DummyCustomerAgent"
    assert format_uri(EndpointUri("a", "", {})) == "a:"


def test_parse_format_round_trip_of_messy_input():
    text = "mqtt : foo? host=tcp://broker & subscribeTopicName=latLong"
    assert format_uri(parse_uri(text)) == "mqtt:foo?host=tcp://broker&subscribeTopicName=latLong"
    # canonicalisation is a fixpoint: parse . format . parse == parse
    assert parse_uri(format_uri(parse_uri(text))) == parse_uri(text)


@pytest.mark.parametrize("bad", ["", "   "])
def test_empty_input(bad):
    with pytest.raises(EmptyUriError):
        parse_uri(bad)


def test_missing_scheme():
    with pytest.raises(MissingSchemeError):
        parse_uri("noscheme")
    with pytest.raises(MissingSchemeError):
        parse_uri("9bad:path")


def test_bad_param():
    with pytest.raises(BadParamError):
        parse_uri("a:b?novalue")
    with pytest.raises(BadParamError):
        parse_uri("a:b?=v")


def test_duplicate_param_key():
    with pytest.raises(DuplicateParamKeyError):
        parse_uri("a:b?k=1&k=2")


def test_round_trip_property_over_random_uris():
    rng = random.Random(7341)
    for _ in range(300):
        scheme = rng.choice("abcdefgh") + "".join(
            rng.choice("abc123") for _ in range(rng.randint(0, 5))
        )
        path = "/".join(random_atom_name(rng) for _ in range(rng.randint(0, 3)))
        params = {
            random_atom_name(rng) + str(i): f"v{rng.randint(0, 999)}://x"
            for i in range(rng.randint(0, 4))
        }
        uri = EndpointUri(scheme, path, params)
        assert parse_uri(format_uri(uri)) == uri


def test_invalid_scheme_token_rejected_on_construction():
    with pytest.raises(MissingSchemeError):
        EndpointUri("Bad", "x", {})


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="ab1:?&=/% \t-_.")))
def test_parse_uri_raises_only_uri_errors(text):
    try:
        parse_uri(text)
    except UriError:
        pass
