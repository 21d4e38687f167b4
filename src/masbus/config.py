"""Declarative route files and the fluent route builder.

Route file grammar (UTF-8 XML)::

    <routes>
      <aliases>
        <alias scheme="mqtt" component="mqttlite"/>
      </aliases>
      <route id="optional">
        <from uri="scheme:path?k=v"/>
        <setHeader headerName="Name"><constant>value</constant></setHeader>
        <transform name="registeredName"/>
        <to uri="scheme:path"/>
      </route>
    </routes>

Every parse error is located (line, column). The builder produces the same
:class:`~masbus.routing.RouteDefinition` values, so a route written either
way compares equal; ``render_routes_xml`` closes the loop by emitting XML
that parses back to the same definitions.

Constant values in ``setHeader`` are interpreted as terms when the text is
valid term syntax and kept as string terms otherwise, in both formats.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, quoteattr

from .errors import (
    BadUriError,
    IncompleteRouteError,
    MissingFromError,
    MissingToError,
    OrderViolationError,
    RouteConfigError,
    UnknownElementError,
    UriError,
    XmlSyntaxError,
)
from .routing import RouteDefinition, SetHeader, Transform
from .terms import String, Term, TermSyntaxError, coerce_term, parse_term, render_term
from .uris import EndpointUri, format_uri, parse_uri


def constant(value) -> Term:
    """Constant literal for ``set_header``: term syntax or a plain string."""
    return coerce_term(value)


# -- XML loading ------------------------------------------------------------


@dataclass
class _Node:
    tag: str
    attrs: dict[str, str]
    line: int
    col: int
    children: list["_Node"] = field(default_factory=list)
    text: str = ""


def _load_tree(text: str) -> _Node:
    parser = xml.parsers.expat.ParserCreate()
    root: list[_Node] = []
    stack: list[_Node] = []

    def start(tag, attrs):
        node = _Node(tag, dict(attrs), parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag):
        stack.pop()

    def chars(data):
        if stack:
            stack[-1].text += data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as err:
        raise XmlSyntaxError(
            xml.parsers.expat.errors.messages[err.code], err.lineno, err.offset + 1
        ) from None
    return root[0]


@dataclass(frozen=True)
class RouteFile:
    routes: tuple[RouteDefinition, ...]
    aliases: dict[str, str]


def _expect_attrs(node: _Node, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for name in required:
        if name not in node.attrs:
            raise RouteConfigError(
                f"<{node.tag}> is missing attribute {name!r}", node.line, node.col
            )
    for name in node.attrs:
        if name not in required and name not in optional:
            raise UnknownElementError(
                f"unknown attribute {name!r} on <{node.tag}>", node.line, node.col
            )


def _no_stray_text(node: _Node):
    if node.text.strip():
        raise RouteConfigError(
            f"unexpected text {node.text.strip()!r} inside <{node.tag}>", node.line, node.col
        )


def _parse_uri_attr(node: _Node) -> EndpointUri:
    try:
        return parse_uri(node.attrs["uri"])
    except UriError as err:
        raise BadUriError(f"bad uri in <{node.tag}>: {err}", node.line, node.col) from None


def _parse_set_header(node: _Node) -> SetHeader:
    _expect_attrs(node, ("headerName",))
    _no_stray_text(node)
    constants = [c for c in node.children if c.tag == "constant"]
    if len(constants) != 1 or len(node.children) != 1:
        raise RouteConfigError(
            "<setHeader> needs exactly one <constant> child", node.line, node.col
        )
    child = constants[0]
    _expect_attrs(child, ())
    if child.children:
        raise UnknownElementError(
            "unexpected element inside <constant>", child.line, child.col
        )
    return SetHeader(node.attrs["headerName"], constant(child.text.strip()))


def _parse_route(node: _Node, index: int) -> RouteDefinition:
    _expect_attrs(node, (), ("id",))
    _no_stray_text(node)
    from_uri: EndpointUri | None = None
    processors = []
    to_uris = []
    for child in node.children:
        if child.tag == "from":
            _expect_attrs(child, ("uri",))
            if from_uri is not None:
                raise RouteConfigError("multiple <from> elements", child.line, child.col)
            if to_uris or processors:
                raise RouteConfigError(
                    "<from> must precede processors and <to>", child.line, child.col
                )
            from_uri = _parse_uri_attr(child)
        elif child.tag == "setHeader":
            if to_uris:
                raise RouteConfigError("processor after <to>", child.line, child.col)
            processors.append(_parse_set_header(child))
        elif child.tag == "transform":
            _expect_attrs(child, ("name",))
            if to_uris:
                raise RouteConfigError("processor after <to>", child.line, child.col)
            processors.append(Transform(child.attrs["name"]))
        elif child.tag == "to":
            _expect_attrs(child, ("uri",))
            to_uris.append(_parse_uri_attr(child))
        else:
            raise UnknownElementError(
                f"unknown element <{child.tag}> in <route>", child.line, child.col
            )
    if from_uri is None:
        raise MissingFromError("route has no <from>", node.line, node.col)
    if not to_uris:
        raise MissingToError("route has no <to>", node.line, node.col)
    route_id = node.attrs.get("id") or f"route-{index}"
    return RouteDefinition(route_id, from_uri, tuple(processors), tuple(to_uris))


def _parse_aliases(node: _Node) -> dict[str, str]:
    _no_stray_text(node)
    aliases: dict[str, str] = {}
    for child in node.children:
        if child.tag != "alias":
            raise UnknownElementError(
                f"unknown element <{child.tag}> in <aliases>", child.line, child.col
            )
        _expect_attrs(child, ("scheme", "component"))
        aliases[child.attrs["scheme"]] = child.attrs["component"]
    return aliases


def parse_route_file(text: str) -> RouteFile:
    """Parse a full route file: alias table plus route definitions."""
    root = _load_tree(text)
    if root.tag != "routes":
        raise UnknownElementError(
            f"expected root <routes>, got <{root.tag}>", root.line, root.col
        )
    _expect_attrs(root, ())
    _no_stray_text(root)
    aliases: dict[str, str] = {}
    routes = []
    index = 0
    for child in root.children:
        if child.tag == "aliases":
            aliases.update(_parse_aliases(child))
        elif child.tag == "route":
            index += 1
            routes.append(_parse_route(child, index))
        else:
            raise UnknownElementError(
                f"unknown element <{child.tag}> in <routes>", child.line, child.col
            )
    return RouteFile(tuple(routes), aliases)


def parse_routes_xml(text: str) -> list[RouteDefinition]:
    """Parse route definitions from XML text, in document order."""
    return list(parse_route_file(text).routes)


# -- XML rendering -----------------------------------------------------------


def _render_constant(term: Term) -> str:
    # plain string terms keep their raw spelling when it would read back
    # identically; everything else uses term syntax
    rendered = None
    if (
        isinstance(term, String)
        and term.text.strip() == term.text
        and not any(ord(c) < 0x20 for c in term.text)
    ):
        try:
            parse_term(term.text)
        except TermSyntaxError:
            rendered = term.text
    if rendered is None:
        rendered = render_term(term)
    # term syntax escapes \t, \n and \r; anything below 0x20 that survives
    # (e.g. a vertical tab inside a string term) has no XML 1.0 encoding
    if any(ord(c) < 0x20 and c not in "\t\n\r" for c in rendered):
        raise ValueError(f"constant {term!r} contains characters XML cannot carry")
    return rendered


def render_routes_xml(
    definitions, aliases: dict[str, str] | None = None
) -> str:
    """Emit a route file that parses back to the same definitions."""
    lines = ["<routes>"]
    for scheme, component in (aliases or {}).items():
        if len(lines) == 1:
            lines.append("  <aliases>")
        lines.append(f"    <alias scheme={quoteattr(scheme)} component={quoteattr(component)}/>")
    if len(lines) > 1:
        lines.append("  </aliases>")
    for definition in definitions:
        attr = f" id={quoteattr(definition.route_id)}" if definition.route_id else ""
        lines.append(f"  <route{attr}>")
        lines.append(f"    <from uri={quoteattr(format_uri(definition.from_uri))}/>")
        for proc in definition.processors:
            if isinstance(proc, SetHeader):
                lines.append(
                    f"    <setHeader headerName={quoteattr(proc.name)}>"
                    f"<constant>{escape(_render_constant(proc.value))}</constant>"
                    f"</setHeader>"
                )
            else:
                lines.append(f"    <transform name={quoteattr(proc.name)}/>")
        for uri in definition.to_uris:
            lines.append(f"    <to uri={quoteattr(format_uri(uri))}/>")
        lines.append("  </route>")
    lines.append("</routes>")
    return "\n".join(lines) + "\n"


# -- fluent builder ------------------------------------------------------------


class RouteBuilder:
    """Accumulates ``from_`` -> ``set_header``/``transform`` -> ``to`` calls.

    ``build()`` yields a :class:`RouteDefinition` equal to the XML-parsed
    encoding of the same route.
    """

    def __init__(self, route_id: str | None = None):
        self._route_id = route_id
        self._from: EndpointUri | None = None
        self._processors: list = []
        self._to: list[EndpointUri] = []

    def from_(self, uri: str | EndpointUri) -> "RouteBuilder":
        if self._from is not None:
            raise OrderViolationError("from() may only be called once")
        if self._processors or self._to:
            raise OrderViolationError("from() must come first")
        self._from = parse_uri(uri) if isinstance(uri, str) else uri
        return self

    def set_header(self, name: str, value) -> "RouteBuilder":
        if self._from is None:
            raise OrderViolationError("set_header() before from()")
        if self._to:
            raise OrderViolationError("set_header() after to()")
        self._processors.append(SetHeader(name, constant(value)))
        return self

    def transform(self, name: str) -> "RouteBuilder":
        if self._from is None:
            raise OrderViolationError("transform() before from()")
        if self._to:
            raise OrderViolationError("transform() after to()")
        self._processors.append(Transform(name))
        return self

    def to(self, uri: str | EndpointUri) -> "RouteBuilder":
        if self._from is None:
            raise OrderViolationError("to() before from()")
        self._to.append(parse_uri(uri) if isinstance(uri, str) else uri)
        return self

    def build(self) -> RouteDefinition:
        if self._from is None:
            raise IncompleteRouteError("route has no from()")
        if not self._to:
            raise IncompleteRouteError("route has no to()")
        return RouteDefinition(
            self._route_id, self._from, tuple(self._processors), tuple(self._to)
        )
