"""Plain HTTP endpoints over a small HTTP/1.1 subset (no chunking, no TLS).

``httplite:<host>:<port>/<path>?method=GET|POST`` as producer sends one
request per exchange with the rendered body as payload. When the endpoint
carries ``replyTo=<route-id>``, the response body is parsed into a new
exchange and injected into that route; otherwise the response is discarded.

As consumer the endpoint runs a listener: every incoming request becomes an
exchange (headers ``HttpMethod`` and ``HttpPath``, parsed body) and is
answered with an empty 200, or 503 once the route no longer admits
exchanges. A ``Content-Length`` that is not a non-negative integer, or a
body that is not UTF-8, is answered 400. Port 0 binds a free port, exposed
as ``address``.
"""

from __future__ import annotations

import http.client
import logging
from http.server import BaseHTTPRequestHandler

from ..errors import BusError
from ..terms import Number, String, payload_to_term, render_term
from ..uris import format_uri
from .base import Component, Consumer, Listener, Producer

logger = logging.getLogger(__name__)


def _split_location(uri) -> tuple[str, int, str]:
    location, slash, path = uri.path.partition("/")
    host, sep, port = location.rpartition(":")
    if not sep or not port.isdigit():
        raise BusError(f"httplite path must be host:port[/path], got {format_uri(uri)!r}")
    return host, int(port), "/" + path if slash else "/"


def _read_text(request: BaseHTTPRequestHandler) -> str | None:
    """The request body as text; None when Content-Length, the length of
    the body or its UTF-8 is bad."""
    length = request.headers.get("Content-Length") or "0"
    if not (length.isascii() and length.isdigit()):
        return None
    data = request.rfile.read(int(length))
    if len(data) != int(length):
        return None  # the connection ended before the whole body came
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


def serve_http(address: tuple[str, int], respond, name: str) -> Listener:
    """Serve HTTP/1.1 GET and POST on ``address`` until the listener is closed.

    ``respond(method, path, text)`` returns ``(status, body text)``. A request
    whose body cannot be read is answered 400 without calling ``respond``;
    any status but 200 also closes the connection.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _handle(self):
            text = _read_text(self)
            status, body = (400, "") if text is None else respond(self.command, self.path, text)
            payload = body.encode("utf-8")
            self.send_response(status)
            if status != 200:
                self.send_header("Connection", "close")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = _handle
        do_POST = _handle

        def log_message(self, *args):
            pass

    # a request handler never consults its server, so it gets none
    return Listener(address, lambda conn, peer: Handler(conn, peer, None), name)


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


class _HttpProducer(Producer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port, self.path = _split_location(ctx.uri)
        self.method = ctx.uri.params.get("method", "POST").upper()
        if self.method not in ("GET", "POST"):
            raise BusError(f"unsupported method {self.method!r} in {format_uri(ctx.uri)!r}")
        self.reply_route = ctx.uri.params.get("replyTo")

    def send(self, exchange):
        payload = render_term(exchange.body).encode("utf-8") if self.method == "POST" else None
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10.0)
        try:
            conn.request(self.method, self.path, body=payload)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            if response.status >= 400:
                raise BusError(f"http status {response.status} from {self.host}:{self.port}")
        finally:
            conn.close()
        if self.reply_route:
            reply = self.ctx.bus.new_exchange(
                body=payload_to_term(text),
                headers={"HttpStatus": Number(response.status)},
            )
            self.ctx.bus.process_exchange(self.reply_route, reply)


class HttpLiteComponent(Component):
    def create_consumer(self, ctx):
        return _HttpConsumer(ctx)

    def create_producer(self, ctx):
        return _HttpProducer(ctx)
