from __future__ import annotations

import gc
import random
import sys

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


_TOO_DEEP = f"terms nest deeper than {MAX_TERM_DEPTH} levels"


def _syntax_error(bad, pos, message, name=None):
    # a row is named by its text and position only
    return pytest.param(bad, pos, message, id=name or f"{bad}-{pos}")


@pytest.mark.parametrize(
    "bad, pos, message",
    [
        _syntax_error("", 0, "empty input"),
        _syntax_error("(", 0, "unexpected character '('"),
        _syntax_error("f(", 2, "expected a term"),
        _syntax_error("f(a", 3, "expected ')'"),
        _syntax_error("[a,", 3, "expected a term"),
        _syntax_error('"abc', 4, "unterminated string"),
        _syntax_error("Upper", 0, "unexpected character 'U'"),
        _syntax_error("1 2", 2, "unexpected trailing input"),
        _syntax_error("[" * 5000, 101, _TOO_DEEP, name="deep-list"),
        _syntax_error("f(" * 5000, 202, _TOO_DEEP, name="deep-structure"),
        _syntax_error('"a\\qb"', 3, "unknown escape '\\q'"),
        _syntax_error('"ab\\', 4, "unterminated escape"),
        _syntax_error("+x", 0, "malformed number"),
        _syntax_error("f(a b)", 4, "expected ')'"),
        _syntax_error("[1 2]", 3, "expected ']'"),
        _syntax_error("  ]", 2, "unexpected character ']'"),
        _syntax_error("f(1,)", 4, "unexpected character ')'"),
        _syntax_error("é", 0, "malformed atom"),
        _syntax_error("Ä", 0, "unexpected character 'Ä'"),
        _syntax_error("1e999", 0, "number out of range"),
        _syntax_error("[1,2", 4, "expected ']'"),
        _syntax_error(" f ( ", 5, "expected a term"),
        _syntax_error('"a" x', 4, "unexpected trailing input"),
        _syntax_error("f()", 2, "unexpected character ')'"),
    ],
)
def test_syntax_errors_carry_position(bad, pos, message):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(bad)
    assert err.value.position == pos
    assert str(err.value).startswith(message)


def test_a_waypoint_parses_in_six_python_calls():
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    # no collection runs, so no gc callback (hypothesis installs one) is counted
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        parse_term("[12.345678,-45.678901]")
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    # each token is one regex match, a C call; the rest are the term constructors
    assert calls == ["parse_term", *["__init__", "__post_init__"] * 2, "__init__"]


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
        term = parse_term(text)
    except TermSyntaxError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert parse_term(render_term(term)) == term
