"""Plain HTTP endpoints over a small HTTP/1.1 subset (no chunking, no TLS).

``httplite:<host>:<port>/<path>?method=GET|POST`` as producer sends one
request per exchange with the rendered body as payload. When the endpoint
carries ``replyTo=<route-id>``, the response body is parsed into a new
exchange and injected into that route; otherwise the response is discarded.

As consumer the endpoint runs a listener: every incoming request becomes an
exchange (headers ``HttpMethod`` and ``HttpPath``, parsed body) and is
answered with an empty 200. Port 0 binds a free port, exposed as
``address``.
"""

from __future__ import annotations

import http.client
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import BusError
from ..terms import Number, String, payload_to_term, render_term
from ..uris import format_uri
from .base import Component, Consumer, Producer

logger = logging.getLogger(__name__)


def _split_location(uri) -> tuple[str, int, str]:
    location, slash, path = uri.path.partition("/")
    host, sep, port = location.rpartition(":")
    if not sep or not port.isdigit():
        raise BusError(f"httplite path must be host:port[/path], got {format_uri(uri)!r}")
    return host, int(port), "/" + path if slash else "/"


class _HttpConsumer(Consumer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port, self.path = _split_location(ctx.uri)
        self._server: ThreadingHTTPServer | None = None
        self.address: tuple[str, int] | None = None

    def start(self):
        consumer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _handle(self):
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length).decode("utf-8") if length else ""
                consumer._admit(self.command, self.path, raw)
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            do_GET = _handle
            do_POST = _handle

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.address = self._server.server_address[:2]
        threading.Thread(
            target=self._server.serve_forever, name="httplite-serve", daemon=True
        ).start()

    def stop(self):
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def _admit(self, method: str, path: str, raw: str):
        headers = {"HttpMethod": String(method), "HttpPath": String(path)}
        self.ctx.emit(self.ctx.new_exchange(body=payload_to_term(raw), headers=headers))


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
