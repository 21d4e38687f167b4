"""Plain HTTP endpoints over a small HTTP/1.1 codec on raw sockets (no TLS).

``httplite:<host>:<port>/<path>?method=GET|POST`` as producer opens one
connection per exchange and sends one request, the rendered body as
payload. It reads a reply framed by ``Content-Length``, by chunked transfer
coding or by the end of the stream; a status of 400 or more, a refused
connection, an unreadable reply or a reply body over ``MAX_BODY`` raises, so
the exchange is dead-lettered.
When the endpoint carries ``replyTo=<route-id>``, the response body is
parsed into a new exchange and injected into that route; otherwise the
response is discarded.

As consumer the endpoint runs a listener: every incoming request becomes an
exchange (headers ``HttpMethod`` and ``HttpPath``, parsed body) and is
answered with an empty 200, or 503 once the route no longer admits
exchanges. The listener's one thread serves every connection: a request is
parsed again from its start as its bytes arrive until it is whole, and one
cut short by the end of the stream is answered 400. Connections
are kept alive between requests, pipelined requests are answered in order,
and every answer is written in one piece. A request body is framed by ``Content-Length``
only: a length that is not a non-negative integer, a body shorter than it
or one that is not UTF-8 is answered 400, a ``Transfer-Encoding`` 501, and
a length over ``MAX_BODY`` (16 MiB) 413, before any of the body is read.
The standard library server's limits hold: a request line over 65,536
bytes is answered 414, a longer header line or more than 100 header lines
431, a malformed request line 400 and a method other than GET or POST 501.
Every answer but 200 closes the connection, as does ``Connection: close``
or an HTTP/1.0 request; ``Expect: 100-continue`` is answered once per
request, before its body is read. Port 0 binds a free port, exposed as ``address``.
"""

from __future__ import annotations

import socket
from http import HTTPStatus

from ..errors import BusError
from ..terms import Number, String, payload_to_term, render_term
from ..uris import format_uri
from .base import Component, Consumer, Listener, Producer

# the limits of the standard library's HTTP server
MAX_LINE = 65_536  # bytes in a start or header line
MAX_HEADERS = 100  # header lines in one message
# bytes in a request or reply body; a request over it is answered 413
MAX_BODY = 16 * 1024 * 1024
METHODS = ("GET", "POST")


class HttpMessageError(BusError):
    """A message that breaks the supported HTTP framing; ``status`` answers it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _split_location(uri) -> tuple[str, int, str]:
    location, slash, path = uri.path.partition("/")
    host, sep, port = location.rpartition(":")
    if not sep or not port.isdigit():
        raise BusError(f"httplite path must be host:port[/path], got {format_uri(uri)!r}")
    return host, int(port), "/" + path if slash else "/"


def _read_line(reader, too_long: int) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HttpMessageError(too_long, "line too long")
    return line


def _read_headers(reader) -> dict[str, str]:
    """Header fields up to the blank line, names lower-cased; the first of
    a repeated name wins."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(reader, 431)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or not name or name != name.strip():
            raise HttpMessageError(400, f"malformed header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())
    raise HttpMessageError(431, "too many headers")


def _within_cap(size: int) -> int:
    if size > MAX_BODY:
        raise HttpMessageError(413, f"body of {size} bytes or more, over {MAX_BODY}")
    return size


def _content_length(headers: dict[str, str]) -> int | None:
    length = headers.get("content-length")
    if length is None:
        return None
    if not (length.isascii() and length.isdigit()):
        raise HttpMessageError(400, f"bad Content-Length {length[:80]!r}")
    digits = length.lstrip("0") or "0"
    # a long number is over the cap, and int() refuses one of 4,300 digits
    return _within_cap(int(digits) if len(digits) <= 20 else MAX_BODY + 1)


def _read_exactly(reader, length: int) -> bytes:
    data = reader.read(length)
    if len(data) != length:
        # the connection ended before the whole body came
        raise HttpMessageError(400, f"body of {len(data)} bytes, {length} announced")
    return data


def _message(start: str, body: bytes, close: bool) -> bytes:
    head = f"{start}\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _phrase(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return ""


# -- server --------------------------------------------------------------------


class _Incomplete(Exception):
    """The bytes received so far end inside a request."""


class _Received:
    """A reader over the bytes received so far that raises ``_Incomplete``
    where a line or a body runs past them."""

    def __init__(self, data: bytearray):
        self._data = data
        self._pos = 0

    def tell(self) -> int:
        return self._pos

    def readline(self, limit: int) -> bytes:
        end = self._data.find(b"\n", self._pos, self._pos + limit) + 1 or self._pos + limit
        return self.read(end - self._pos)

    def read(self, size: int) -> bytes:
        start = self._pos
        if len(self._data) - start < size:
            raise _Incomplete
        self._pos += size
        return bytes(self._data[start : self._pos])


def _read_request(reader, send_continue) -> tuple[str, str, bool, str]:
    """``(method, target, keep_alive, text)`` of the next request in ``reader``."""
    line = _read_line(reader, 414)
    words = line.decode("iso-8859-1").split()
    if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpMessageError(400, f"bad request line {line[:80]!r}")
    method, target, version = words
    if method not in METHODS:
        raise HttpMessageError(501, f"unsupported method {method[:80]!r}")
    headers = _read_headers(reader)
    if "transfer-encoding" in headers:
        raise HttpMessageError(501, "request Transfer-Encoding is not supported")
    length = _content_length(headers) or 0
    keep_alive = version == "HTTP/1.1" and headers.get("connection", "").lower() != "close"
    if headers.get("expect", "").lower() == "100-continue":
        send_continue()
    try:
        text = _read_exactly(reader, length).decode("utf-8")
    except UnicodeDecodeError:
        raise HttpMessageError(400, "body is not UTF-8") from None
    return method, target, keep_alive, text


def serve_http(address: tuple[str, int], respond, name: str) -> Listener:
    """Serve HTTP/1.1 GET and POST on ``address`` until the listener is closed.

    ``respond(method, path, text)`` returns ``(status, body text)``. It runs
    on the listener's one thread, so it must not block. A request that
    breaks the framing is answered 400, 413, 414, 431 or 501 without calling
    ``respond``; any status but 200 also closes the connection.
    """

    def connection(conn: socket.socket, _peer):
        received = bytearray()  # from the start of the first request not yet answered
        continued = False  # 100 Continue was sent for that request

        def send_continue():
            nonlocal continued
            if not continued:
                continued = True
                conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")

        def feed(data: bytes) -> bool:
            nonlocal continued
            received.extend(data)
            reader = _Received(received)
            while True:
                start = reader.tell()
                try:
                    request = _read_request(reader, send_continue)
                except _Incomplete:
                    del received[:start]
                    if data:
                        return True
                    if not received:  # the stream ended between requests
                        return False
                    status, body, keep_alive = 400, "", False
                except HttpMessageError as err:
                    status, body, keep_alive = err.status, "", False
                else:
                    continued = False
                    method, target, keep_alive, text = request
                    status, body = respond(method, target, text)
                close = status != 200 or not keep_alive
                start_line = f"HTTP/1.1 {status} {_phrase(status)}"
                conn.sendall(_message(start_line, body.encode("utf-8"), close))
                if close:
                    return False

        return feed

    return Listener(address, connection, name)


class _HttpConsumer(Consumer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port, self.path = _split_location(ctx.uri)
        self._listener: Listener | None = None
        self.address: tuple[str, int] | None = None

    def start(self):
        self._listener = serve_http((self.host, self.port), self._respond, "httplite-serve")
        self.address = self._listener.address

    def stop(self):
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _respond(self, method: str, path: str, text: str) -> tuple[int, str]:
        headers = {"HttpMethod": String(method), "HttpPath": String(path)}
        exchange = self.ctx.new_exchange(body=payload_to_term(text), headers=headers)
        return (200, "") if self.ctx.emit(exchange) else (503, "")


# -- client --------------------------------------------------------------------


def _read_chunked(reader) -> bytes:
    chunks = []
    total = 0
    while True:
        line = _read_line(reader, 502)
        try:
            size = int(line.split(b";", 1)[0], 16)
        except ValueError:
            raise HttpMessageError(502, f"bad chunk size line {line[:80]!r}") from None
        if size == 0:
            _read_headers(reader)  # the trailer
            return b"".join(chunks)
        total = _within_cap(total + size)
        chunks.append(_read_exactly(reader, size))
        if _read_line(reader, 502) not in (b"\r\n", b"\n"):
            raise HttpMessageError(502, "chunk not followed by a line end")


def _read_response(reader) -> tuple[int, bytes]:
    """Status and body of the reply; interim 1xx replies are skipped. The
    request asks the server to close, so a body framed neither by length
    nor by chunks ends with the connection."""
    while True:
        line = _read_line(reader, 502)
        version, _, rest = line.decode("iso-8859-1").partition(" ")
        code = rest[:3]
        if not (version.startswith("HTTP/1.") and code.isascii() and code.isdigit()):
            raise HttpMessageError(502, f"bad status line {line[:80]!r}")
        status = int(code)
        headers = _read_headers(reader)
        if not 100 <= status < 200:
            break
    if "chunked" in headers.get("transfer-encoding", "").lower():
        return status, _read_chunked(reader)
    length = _content_length(headers)
    if length is None:
        data = reader.read(MAX_BODY + 1)
        _within_cap(len(data))
        return status, data
    return status, _read_exactly(reader, length)


class _HttpProducer(Producer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port, self.path = _split_location(ctx.uri)
        self.method = ctx.uri.params.get("method", "POST").upper()
        if self.method not in METHODS:
            raise BusError(f"unsupported method {self.method!r} in {format_uri(ctx.uri)!r}")
        self.reply_route = ctx.uri.params.get("replyTo")
        host = f"[{self.host}]" if ":" in self.host else self.host
        self._head = f"{self.method} {self.path} HTTP/1.1\r\nHost: {host}:{self.port}"

    def send(self, exchange):
        payload = render_term(exchange.body).encode("utf-8") if self.method == "POST" else b""
        with socket.create_connection((self.host, self.port), timeout=10.0) as conn:
            conn.sendall(_message(self._head, payload, close=True))
            with conn.makefile("rb") as reader:
                status, data = _read_response(reader)
        text = data.decode("utf-8")
        if status >= 400:
            raise BusError(f"http status {status} from {self.host}:{self.port}")
        if self.reply_route:
            reply = self.ctx.bus.new_exchange(
                body=payload_to_term(text), headers={"HttpStatus": Number(status)}
            )
            self.ctx.bus.process_exchange(self.reply_route, reply)


class HttpLiteComponent(Component):
    def create_consumer(self, ctx):
        return _HttpConsumer(ctx)

    def create_producer(self, ctx):
        return _HttpProducer(ctx)
