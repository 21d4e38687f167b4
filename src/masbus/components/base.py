"""Component SPI: how a URI scheme turns into consumers and producers.

A component is registered on the bus under a scheme. When a route starts,
the bus asks the ``from`` component for a consumer and each ``to`` component
for a producer, passing a :class:`~masbus.routing.RouteContext` that carries
the endpoint URI and, for consumers, the exchange-admission hooks.
Listening consumers serve their socket through :class:`Listener`.
"""

from __future__ import annotations

import contextlib
import logging
import select
import socket
import threading
import time

from ..errors import ConsumerUnsupportedError, MissingParamError, ProducerUnsupportedError
from ..uris import EndpointUri, format_uri

logger = logging.getLogger(__name__)

SEND_TIMEOUT_S = 1.0  # how long a write to a connection may wait for its peer to read
RECV_BYTES = 65_536  # bytes asked for in one read of a connection
ACCEPT_PAUSE_S = 0.005  # first pause after a failed accept; each next one doubles
ACCEPT_PAUSE_MAX_S = 1.0


class Consumer:
    """Admits external data into a route; start/stop bracket its lifetime."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.uri: EndpointUri = ctx.uri

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


class Producer:
    """Emits exchanges to an endpoint; ``send`` raises to signal failure."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.uri: EndpointUri = ctx.uri

    def send(self, exchange) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        pass


class Listener:
    """A listening TCP socket whose connections are all served by one daemon thread.

    The thread named ``name`` polls the listening socket and every open
    connection. At accept, ``protocol(conn, address)`` returns the
    connection's ``feed``; the thread calls ``feed(data)`` with the bytes as
    they arrive and ``feed(b"")`` at the end of the stream, and closes the
    connection once ``feed`` returns False or raises. ``feed`` runs on this
    thread, so one that blocks holds up the other connections; a write to a
    peer that does not read fails after ``SEND_TIMEOUT_S``. A failed accept
    is tried again after a pause that doubles from ``ACCEPT_PAUSE_S`` to
    ``ACCEPT_PAUSE_MAX_S``, while the open connections are still served.

    :meth:`close` shuts the listening socket down to wake the thread, which
    ends each open connection as if its peer had closed, with writes bounded
    by ``SEND_TIMEOUT_S`` in all, closes every socket and exits. ``close``
    joins it, unless called from a ``feed``, so once it returns the port can
    be bound again.
    """

    def __init__(self, address: tuple[str, int], protocol, name: str):
        self._sock = socket.create_server(address)
        self._sock.setblocking(False)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._protocol = protocol
        self._stopping = False
        self._thread = threading.Thread(target=self._poll_loop, name=name, daemon=True)
        self._thread.start()

    def _poll_loop(self):
        listening = self._sock.fileno()
        poller = select.poll()
        poller.register(listening, select.POLLIN)
        connections: dict[int, tuple] = {}  # fd: (socket, peer address, feed)
        pause = 0.0  # after the last failed accept
        resume_at = None  # when a failed accept is tried again
        try:
            while True:
                if resume_at is None:
                    events = poller.poll()
                else:
                    events = poller.poll(max(0.0, resume_at - time.monotonic()) * 1000)
                    if time.monotonic() >= resume_at:
                        poller.modify(listening, select.POLLIN)
                        resume_at = None
                for fd, _ in events:
                    if fd != listening:
                        conn, address, feed = connections[fd]
                        if not self._receive(conn, address, feed):
                            poller.unregister(fd)
                            del connections[fd]
                            conn.close()
                        continue
                    if self._stopping:
                        return
                    try:
                        conn, address = self._sock.accept()
                    except OSError:
                        logger.exception("%s: accept failed", self._thread.name)
                        pause = min(2 * pause, ACCEPT_PAUSE_MAX_S) if pause else ACCEPT_PAUSE_S
                        resume_at = time.monotonic() + pause
                        poller.modify(listening, 0)  # close() still wakes the poll
                        continue
                    pause = 0.0
                    conn.settimeout(SEND_TIMEOUT_S)
                    connections[conn.fileno()] = conn, address, self._protocol(conn, address)
                    poller.register(conn, select.POLLIN)
        finally:
            self._sock.close()
            deadline = time.monotonic() + SEND_TIMEOUT_S
            for conn, address, feed in connections.values():
                with contextlib.suppress(OSError):  # the peer is gone already
                    conn.shutdown(socket.SHUT_RD)  # a read past what was sent ends the stream
                    conn.settimeout(max(0.0, deadline - time.monotonic()))
                    while time.monotonic() < deadline and self._receive(conn, address, feed):
                        pass
                conn.close()

    def _receive(self, conn: socket.socket, address, feed) -> bool:
        """Feeds one read of ``conn``; False once the connection is to be closed."""
        try:
            return feed(conn.recv(RECV_BYTES))
        except OSError:
            return False  # the peer went away, or did not read in time
        except Exception:
            logger.exception("%s: connection from %s failed", self._thread.name, address)
            return False

    def close(self) -> None:
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # closed before
        if threading.current_thread() is not self._thread:
            self._thread.join()


class Component:
    def create_consumer(self, ctx) -> Consumer:
        raise ConsumerUnsupportedError(
            f"{type(self).__name__} cannot consume from {format_uri(ctx.uri)}"
        )

    def create_producer(self, ctx) -> Producer:
        raise ProducerUnsupportedError(
            f"{type(self).__name__} cannot produce to {format_uri(ctx.uri)}"
        )


def require_param(uri: EndpointUri, key: str) -> str:
    value = uri.params.get(key)
    if not value:
        raise MissingParamError(key, format_uri(uri))
    return value
