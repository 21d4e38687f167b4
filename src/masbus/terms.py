"""Term values: the common content language for message bodies, headers and
artifact operation parameters.

Grammar (whitespace is allowed between tokens)::

    term      = number | string | list | atom [ "(" term { "," term } ")" ]
    atom      = [a-z][A-Za-z0-9_]*
    number    = [+-]? digits [ "." digits ] [ ("e"|"E") [+-]? digits ]
    string    = '"' { character | escape } '"'
    list      = "[" [ term { "," term } ] "]"

``parse_term`` reads each token with the whitespace before it in one regex match.
Lists and structures nest at most ``MAX_TERM_DEPTH`` levels deep.
``render_term`` emits the canonical minimal form (no whitespace) and
``parse_term(render_term(t)) == t`` holds for every term within that depth.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import TermSyntaxError


class Term:
    """Base class; concrete terms are the frozen dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_term(self)


@dataclass(frozen=True, slots=True)
class Atom(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Number(Term):
    value: int | float

    def __post_init__(self):
        # non-finite floats would render as bare words and break round-trips
        if isinstance(self.value, float) and not math.isfinite(self.value):
            raise ValueError(f"{self.value} is not a representable number term")


@dataclass(frozen=True, slots=True)
class String(Term):
    text: str


@dataclass(frozen=True, slots=True)
class Structure(Term):
    functor: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.functor:
            raise ValueError("structure functor must be non-empty")
        if not self.args:
            raise ValueError("a structure needs arguments; use Atom for a bare name")


@dataclass(frozen=True, slots=True)
class ListTerm(Term):
    items: tuple[Term, ...] = ()


def structure(functor: str, args) -> Term:
    """Build a structure, collapsing the zero-argument case to an atom."""
    args = tuple(args)
    if not args:
        return Atom(functor)
    return Structure(functor, args)


_WS = r"[ \t\r\n]*"
_SPACE = re.compile(_WS)
# a string's text up to its closing quote, each escape checked
_STRING_BODY = re.compile(r'[^"\\]*(?:\\[nrt"\\][^"\\]*)*')
# the whitespace before a term and the term's first token: a number, an atom
# with the "(" of its structure, a whole string, or a "[" with the whitespace
# after it and the "]" of an empty list
_TOKEN = re.compile(
    _WS
    + r"(?:(?P<number>[+-]?\d+(?P<float>(?:\.\d+)?(?:[eE][+-]?\d+)?))"
    + rf"|(?P<atom>[a-z][A-Za-z0-9_]*)(?P<open>{_WS}\()?"
    + rf'|"(?P<string>{_STRING_BODY.pattern})"'
    + rf"|\[{_WS}(?P<empty>\])?)"
)
# the whitespace after a term and the ",", ")" or "]" that follows it, if any
_CLOSE = re.compile(_WS + r"([,)\]]?)")
_ESCAPED = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_REVERSE_ESCAPES = str.maketrans({"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"})
# lists and structures nest at most this deep, so hostile input cannot
# exhaust the stack of later recursive rendering
MAX_TERM_DEPTH = 100


def _diagnose(text: str, pos: int) -> TermSyntaxError:
    """The error for a term at ``pos`` whose first token matches no pattern."""
    pos = _SPACE.match(text, pos).end()
    if pos == len(text):
        return TermSyntaxError("expected a term", pos)
    ch = text[pos]
    if ch == '"':
        end = _STRING_BODY.match(text, pos + 1).end()  # stops at a bad escape or the end
        if end == len(text):
            return TermSyntaxError("unterminated string", end)
        if end + 1 == len(text):
            return TermSyntaxError("unterminated escape", end + 1)
        return TermSyntaxError(f"unknown escape '\\{text[end + 1]}'", end + 1)
    if ch in "+-" or ch.isdigit():
        return TermSyntaxError("malformed number", pos)
    if ch.islower():
        return TermSyntaxError("malformed atom", pos)
    return TermSyntaxError(f"unexpected character {ch!r}", pos)


def parse_term(text: str) -> Term:
    """Parse ``text`` into a term, raising :class:`TermSyntaxError` on bad input."""
    if not text:
        raise TermSyntaxError("empty input", 0)
    open_terms = []  # (functor or None for a list, items so far) of each one still open
    pos = 0
    while True:
        if len(open_terms) > MAX_TERM_DEPTH:
            raise TermSyntaxError(f"terms nest deeper than {MAX_TERM_DEPTH} levels", pos)
        token = _TOKEN.match(text, pos)
        if token is None:
            raise _diagnose(text, pos)
        pos = token.end()
        literal = token["number"]
        if literal is not None:
            try:
                term = Number(float(literal) if token["float"] else int(literal))
            except ValueError:  # a float that overflows, or more digits than int() takes
                raise TermSyntaxError("number out of range", token.start("number")) from None
        elif token["atom"] is not None:
            if token["open"] is not None:
                open_terms.append((token["atom"], []))
                continue
            term = Atom(token["atom"])
        elif token["string"] is not None:
            term = String(_ESCAPED.sub(lambda e: _ESCAPES[e[1]], token["string"]))
        elif token["empty"] is not None:
            term = ListTerm(())
        else:
            open_terms.append((None, []))
            continue
        # the term is whole: add it to the term it is in, and close each one it ends
        while True:
            end = _CLOSE.match(text, pos)
            if not open_terms:
                if end.start(1) != len(text):
                    raise TermSyntaxError("unexpected trailing input", end.start(1))
                return term
            functor, items = open_terms[-1]
            items.append(term)
            pos = end.end()
            if end[1] == ",":
                break
            closer = "]" if functor is None else ")"
            if end[1] != closer:
                raise TermSyntaxError(f"expected '{closer}'", end.start(1))
            open_terms.pop()
            term = ListTerm(tuple(items)) if functor is None else Structure(functor, tuple(items))


def payload_to_term(payload: str) -> Term:
    """Parse text arriving from outside; text that is not a term stays a string term."""
    try:
        return parse_term(payload)
    except TermSyntaxError:
        return String(payload)


def render_term(term: Term) -> str:
    """Render a term in canonical minimal form (inverse of :func:`parse_term`)."""
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, Number):
        return repr(term.value)
    if isinstance(term, String):
        return f'"{term.text.translate(_REVERSE_ESCAPES)}"'
    if isinstance(term, Structure):
        args = ",".join(render_term(a) for a in term.args)
        return f"{term.functor}({args})"
    if isinstance(term, ListTerm):
        return "[" + ",".join(render_term(i) for i in term.items) + "]"
    raise TypeError(f"not a term: {term!r}")


def term_text(term: Term) -> str:
    """The plain-text reading of a term: atom name, string text, or rendered form.

    Used wherever a header or parameter is consumed as an identifier, so that
    ``Atom("tell")`` and ``String("tell")`` are interchangeable.
    """
    if isinstance(term, Atom):
        return term.name
    if isinstance(term, String):
        return term.text
    return render_term(term)


def coerce_term(value) -> Term:
    """Lift a plain Python value into a term; terms pass through unchanged.

    Strings are parsed when they form a valid term and kept as string terms
    otherwise, which keeps route definitions written with bare literals
    (``"giveDistance"``, ``"TrackedArtifact"``) doing the obvious thing.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return Atom("true") if value else Atom("false")
    if isinstance(value, (int, float)):
        return Number(value)
    if isinstance(value, str):
        return payload_to_term(value)
    if isinstance(value, (list, tuple)):
        return ListTerm(tuple(coerce_term(v) for v in value))
    raise TypeError(f"cannot represent {type(value).__name__} as a term")
