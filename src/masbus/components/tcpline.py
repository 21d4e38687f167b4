"""Line-oriented TCP endpoints: ``tcpline:<host>:<port>``.

Wire format: UTF-8 text, one message per ``\\n``-terminated line. The
consumer listens and emits one exchange per received line; the producer
opens a connection per send and writes the rendered body plus newline.
Binding to port 0 picks a free port; the bound address is exposed on the
consumer as ``address``.
"""

from __future__ import annotations

import logging
import socket
import threading

from ..errors import BusError
from ..terms import payload_to_term, render_term
from ..uris import format_uri
from .base import Component, Consumer, Producer

logger = logging.getLogger(__name__)


def _host_port(uri) -> tuple[str, int]:
    host, sep, port = uri.path.rpartition(":")
    if not sep or not port.isdigit():
        raise BusError(f"tcpline path must be host:port, got {format_uri(uri)!r}")
    return host, int(port)


class _TcpLineConsumer(Consumer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port = _host_port(ctx.uri)
        self._server: socket.socket | None = None
        self.address: tuple[str, int] | None = None
        self._stopping = False

    def start(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen()
        self._server = server
        self.address = server.getsockname()[:2]
        threading.Thread(target=self._accept_loop, name="tcpline-accept", daemon=True).start()

    def stop(self):
        self._stopping = True
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None

    def _accept_loop(self):
        server = self._server
        while not self._stopping:
            try:
                conn, _ = server.accept()
            except OSError:
                return
            threading.Thread(
                target=self._read_lines, args=(conn,), name="tcpline-read", daemon=True
            ).start()

    def _read_lines(self, conn: socket.socket):
        with conn, conn.makefile("r", encoding="utf-8", newline="\n") as reader:
            for line in reader:
                if self._stopping:
                    return
                text = line.rstrip("\n")
                if text:
                    self.ctx.emit(self.ctx.new_exchange(body=payload_to_term(text)))


class _TcpLineProducer(Producer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port = _host_port(ctx.uri)

    def send(self, exchange):
        # one connection per message keeps failure units independent
        with socket.create_connection((self.host, self.port), timeout=5.0) as conn:
            conn.sendall(render_term(exchange.body).encode("utf-8") + b"\n")


class TcpLineComponent(Component):
    def create_consumer(self, ctx):
        return _TcpLineConsumer(ctx)

    def create_producer(self, ctx):
        return _TcpLineProducer(ctx)
