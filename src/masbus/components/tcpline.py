"""Line-oriented TCP endpoints: ``tcpline:<host>:<port>``.

Wire format: UTF-8 text, one message per ``\\n``-terminated line. The
consumer listens and emits one exchange per received line, each line
decoded on its own: a line that is not UTF-8 is admitted as a string term
of its text with every undecodable byte written as ``\\xNN``, and the lines
around it are admitted as usual. A line of more than ``MAX_LINE`` bytes
(64 KiB, its newline included) is discarded up to its newline with a logged
warning, never held whole, and the lines around it are admitted. A last
line without a newline is admitted at the end of its stream, and no line is
admitted once ``stop`` has begun. The listener's one thread serves every
connection, splitting each one's bytes into lines as they arrive. The
producer opens a connection per send and writes the rendered body plus
newline.
Binding to port 0 picks a free port; the bound address is exposed on the
consumer as ``address``.
"""

from __future__ import annotations

import logging
import socket

from ..errors import BusError
from ..terms import String, payload_to_term, render_term
from ..uris import format_uri
from .base import Component, Consumer, Listener, Producer

logger = logging.getLogger(__name__)

MAX_LINE = 65_536  # bytes in a line with its newline; a longer line is discarded


def _host_port(uri) -> tuple[str, int]:
    host, sep, port = uri.path.rpartition(":")
    if not sep or not port.isdigit():
        raise BusError(f"tcpline path must be host:port, got {format_uri(uri)!r}")
    return host, int(port)


class _TcpLineConsumer(Consumer):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.host, self.port = _host_port(ctx.uri)
        self._listener: Listener | None = None
        self.address: tuple[str, int] | None = None
        self._stopping = False

    def start(self):
        self._listener = Listener((self.host, self.port), self._connection, "tcpline-accept")
        self.address = self._listener.address

    def stop(self):
        self._stopping = True
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _connection(self, conn: socket.socket, address):
        """The ``feed`` of one connection: admits each line as its newline comes."""
        held = bytearray()  # the start of a line whose newline has not come yet
        skipping = False  # inside a discarded line, up to its newline

        def discard():
            logger.warning(
                "tcpline %s: discarded a line over %d bytes from %s",
                self.ctx.route_id, MAX_LINE, address,
            )

        def feed(data: bytes) -> bool:
            nonlocal skipping
            *lines, rest = data.split(b"\n")
            for line in lines:
                if held:
                    line = held + line
                    held.clear()
                if skipping:
                    skipping = False
                elif len(line) >= MAX_LINE:  # over MAX_LINE with its newline
                    discard()
                elif line and not self._admit(line):
                    return False
            if not data:  # the end of the stream: a last line needs no newline
                if held:
                    self._admit(held)
                return False
            if skipping:
                return True
            if len(held) + len(rest) > MAX_LINE:
                held.clear()
                skipping = True
                discard()
            else:
                held.extend(rest)
            return True

        return feed

    def _admit(self, line) -> bool:
        """Emits one exchange of ``line``; False, admitting nothing, once stop has begun."""
        if self._stopping:
            return False
        try:
            body = payload_to_term(line.decode("utf-8"))
        except UnicodeDecodeError:
            body = String(line.decode("utf-8", "backslashreplace"))
        self.ctx.emit(self.ctx.new_exchange(body=body))
        return True


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
