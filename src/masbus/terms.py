"""Term values: the common content language for message bodies, headers and
artifact operation parameters.

Grammar (whitespace is allowed between tokens)::

    term      = number | string | list | atom [ "(" term { "," term } ")" ]
    atom      = [a-z][A-Za-z0-9_]*
    number    = [+-]? digits [ "." digits ] [ ("e"|"E") [+-]? digits ]
    string    = '"' { character | escape } '"'
    list      = "[" [ term { "," term } ] "]"

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


@dataclass(frozen=True, slots=True)
class Atom(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Number(Term):
    value: int | float

    def __post_init__(self):
        # non-finite floats would render as bare words and break round-trips
        if isinstance(self.value, float) and not math.isfinite(self.value):
            raise ValueError(f"{self.value} is not a representable number term")

    def __str__(self) -> str:
        return render_term(self)


@dataclass(frozen=True, slots=True)
class String(Term):
    text: str

    def __str__(self) -> str:
        return render_term(self)


@dataclass(frozen=True, slots=True)
class Structure(Term):
    functor: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not self.functor:
            raise ValueError("structure functor must be non-empty")
        if not self.args:
            raise ValueError("a structure needs arguments; use Atom for a bare name")

    def __str__(self) -> str:
        return render_term(self)


@dataclass(frozen=True, slots=True)
class ListTerm(Term):
    items: tuple[Term, ...] = ()

    def __str__(self) -> str:
        return render_term(self)


def structure(functor: str, args) -> Term:
    """Build a structure, collapsing the zero-argument case to an atom."""
    args = tuple(args)
    if not args:
        return Atom(functor)
    return Structure(functor, args)


_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[+-]?\d+(\.\d+)?([eE][+-]?\d+)?")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
_REVERSE_ESCAPES = str.maketrans({"\n": "\\n", "\t": "\\t", "\r": "\\r", '"': '\\"', "\\": "\\\\"})
# lists and structures nest at most this deep, so hostile input cannot
# exhaust the stack of the parser or of later recursive rendering
MAX_TERM_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TermSyntaxError:
        return TermSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Term:
        self.skip_ws()
        term = self.term()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return term

    def term(self, depth: int = 0) -> Term:
        if depth > MAX_TERM_DEPTH:
            raise self.error(f"terms nest deeper than {MAX_TERM_DEPTH} levels")
        self.skip_ws()
        ch = self.peek()
        if not ch:
            raise self.error("expected a term")
        if ch == '"':
            return self.string()
        if ch == "[":
            return self.list_term(depth)
        if ch in "+-" or ch.isdigit():
            return self.number()
        if ch.islower():
            return self.atom_or_structure(depth)
        raise self.error(f"unexpected character {ch!r}")

    def number(self) -> Number:
        m = _NUMBER_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("malformed number")
        self.pos = m.end()
        literal = m.group(0)
        try:
            if m.group(1) is None and m.group(2) is None:
                return Number(int(literal))
            return Number(float(literal))
        except ValueError:  # a float that overflows, or more digits than int() takes
            raise TermSyntaxError("number out of range", m.start()) from None

    def string(self) -> String:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return String("".join(out))
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("unterminated escape")
                esc = self.text[self.pos]
                if esc not in _ESCAPES:
                    raise self.error(f"unknown escape '\\{esc}'")
                out.append(_ESCAPES[esc])
                self.pos += 1
            else:
                out.append(ch)

    def list_term(self, depth: int) -> ListTerm:
        self.expect("[")
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return ListTerm(())
        items = [self.term(depth + 1)]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            items.append(self.term(depth + 1))
            self.skip_ws()
        self.expect("]")
        return ListTerm(tuple(items))

    def atom_or_structure(self, depth: int) -> Term:
        m = _ATOM_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("malformed atom")
        self.pos = m.end()
        name = m.group(0)
        self.skip_ws()
        if self.peek() != "(":
            return Atom(name)
        self.pos += 1
        args = [self.term(depth + 1)]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            args.append(self.term(depth + 1))
            self.skip_ws()
        self.expect(")")
        return Structure(name, tuple(args))


def parse_term(text: str) -> Term:
    """Parse ``text`` into a term, raising :class:`TermSyntaxError` on bad input."""
    if not text:
        raise TermSyntaxError("empty input", 0)
    return _Parser(text).parse()


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
