from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from masbus import (
    Atom,
    ListTerm,
    Number,
    String,
    Structure,
    coerce_term,
    parse_term,
    render_term,
    structure,
    term_text,
)
from masbus.errors import TermSyntaxError
from masbus.terms import MAX_TERM_DEPTH, payload_to_term
from conftest import random_term


def test_parse_atom():
    assert parse_term("giveDistance") == Atom("giveDistance")


def test_parse_structure_with_numbers():
    assert parse_term("pos(-27.59, 48.55)") == Structure(
        "pos", (Number(-27.59), Number(48.55))
    )


def test_parse_integers_and_floats_are_distinct_renderings():
    assert render_term(parse_term("42")) == "42"
    assert render_term(parse_term("42.0")) == "42.0"
    assert render_term(parse_term("-7")) == "-7"


def test_parse_string_with_escapes():
    term = parse_term('"a\\"b\\\\c\\nd"')
    assert term == String('a"b\\c\nd')
    assert parse_term(render_term(term)) == term


def test_parse_list_nested():
    term = parse_term("[1, [a, b], done]")
    assert term == ListTerm(
        (Number(1), ListTerm((Atom("a"), Atom("b"))), Atom("done"))
    )


def test_parse_empty_list():
    assert parse_term("[]") == ListTerm(())


def test_whitespace_between_tokens():
    assert parse_term(" f ( 1 , 2 ) ") == Structure("f", (Number(1), Number(2)))


@pytest.mark.parametrize(
    "bad, pos",
    [
        ("", 0),
        ("(", 0),
        ("f(", 2),
        ("f(a", 3),
        ("[a,", 3),
        ('"abc', 4),
        ("Upper", 0),
        ("1 2", 2),
        pytest.param("[" * 5000, 101, id="deep-list"),
        pytest.param("f(" * 5000, 202, id="deep-structure"),
    ],
)
def test_syntax_errors_carry_position(bad, pos):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(bad)
    assert err.value.position == pos


def test_nesting_limit_keeps_hostile_payloads_as_text():
    limit = "[" * MAX_TERM_DEPTH + "1" + "]" * MAX_TERM_DEPTH
    assert render_term(parse_term(limit)) == limit
    deep = "[" * 5000
    assert payload_to_term(deep) == String(deep)


def test_structure_requires_args():
    with pytest.raises(ValueError):
        Structure("f", ())
    assert structure("f", []) == Atom("f")


def test_number_rejects_non_finite():
    with pytest.raises(ValueError):
        Number(float("nan"))
    with pytest.raises(ValueError):
        Number(float("inf"))


def test_round_trip_over_generated_corpus():
    rng = random.Random(20240917)
    for _ in range(1000):
        term = random_term(rng)
        rendered = render_term(term)
        assert parse_term(rendered) == term
        # canonical form is a fixpoint
        assert render_term(parse_term(rendered)) == rendered


def test_term_text_reads_identifiers():
    assert term_text(Atom("tell")) == "tell"
    assert term_text(String("TrackedArtifact")) == "TrackedArtifact"
    assert term_text(Number(3)) == "3"


def test_coerce_term_interprets_literals():
    assert coerce_term("giveDistance") == Atom("giveDistance")
    assert coerce_term("TrackedArtifact") == String("TrackedArtifact")
    assert coerce_term(7) == Number(7)
    assert coerce_term([1, "a"]) == ListTerm((Number(1), Atom("a")))


_TERM_TEXT = st.one_of(st.text(), st.text(alphabet="()[],.'\"\\ _aZ09-+eE\n\t"))


@settings(max_examples=300, deadline=None)
@given(_TERM_TEXT)
def test_parse_term_raises_only_term_syntax_error(text):
    try:
        parse_term(text)
    except TermSyntaxError:
        pass
