"""Endpoint URI grammar: ``scheme:path?k1=v1&k2=v2``.

Whitespace adjacent to the ``:``, ``?``, ``=`` and ``&`` delimiters is
tolerated on parse (route text copied out of documents often carries typeset
spaces) and never emitted on format. Parameter values are opaque: they may contain ``://`` or
``=`` and are not parsed further.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    BadParamError,
    DuplicateParamKeyError,
    EmptyUriError,
    MissingSchemeError,
)

_SCHEME_RE = re.compile(r"[a-z][a-z0-9]*\Z")


@dataclass(frozen=True)
class EndpointUri:
    scheme: str
    path: str
    params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not _SCHEME_RE.match(self.scheme):
            raise MissingSchemeError(f"invalid scheme {self.scheme!r}")

    def __str__(self) -> str:
        return format_uri(self)


def parse_uri(text: str) -> EndpointUri:
    """Parse an endpoint address of the form ``scheme:path?k=v&k2=v2``."""
    if not text or not text.strip():
        raise EmptyUriError("empty endpoint URI")
    text = text.strip()
    scheme, sep, rest = text.partition(":")
    if not sep:
        raise MissingSchemeError(f"no ':' in endpoint URI {text!r}")
    scheme = scheme.strip().lower()
    if not _SCHEME_RE.match(scheme):
        raise MissingSchemeError(f"invalid scheme {scheme!r} in {text!r}")

    path, sep, query = rest.partition("?")
    path = path.strip()
    params: dict[str, str] = {}
    if sep:
        for pair in query.split("&"):
            key, eq, value = pair.partition("=")
            if not eq:
                raise BadParamError(f"parameter {pair.strip()!r} has no '='")
            key = key.strip()
            if not key:
                raise BadParamError(f"parameter {pair.strip()!r} has an empty key")
            if key in params:
                raise DuplicateParamKeyError(f"duplicate parameter key {key!r}")
            params[key] = value.strip()
    return EndpointUri(scheme, path, params)


def format_uri(uri: EndpointUri) -> str:
    """Render the canonical text form; ``parse_uri(format_uri(u)) == u``."""
    out = f"{uri.scheme}:{uri.path}"
    if uri.params:
        out += "?" + "&".join(f"{k}={v}" for k, v in uri.params.items())
    return out


def as_uri(value: str | EndpointUri) -> EndpointUri:
    """Accept either an already-parsed URI or its text form."""
    if isinstance(value, EndpointUri):
        return value
    return parse_uri(value)
