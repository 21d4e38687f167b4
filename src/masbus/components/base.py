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
import socket
import threading
import time

from ..errors import ConsumerUnsupportedError, MissingParamError, ProducerUnsupportedError
from ..uris import EndpointUri, format_uri

logger = logging.getLogger(__name__)

CONNECTION_JOIN_S = 1.0  # how long ``Listener.close`` waits for connection threads


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
    """A listening TCP socket whose connections are served in daemon threads.

    The thread named ``name`` blocks in ``accept()`` with no timeout and
    starts one thread per connection, which runs ``handle(conn, address)``
    and then closes ``conn``. :meth:`close` sets the stop flag, wakes the
    blocked ``accept()`` by shutting the listening socket down, joins the
    accept thread and only then closes the socket, so once it returns no
    accept thread is left and the port can be bound again. It then shuts
    down the reading side of each open connection, so a handler waiting for
    input reads end-of-file while one answering can still write, and joins
    the connection threads for at most ``CONNECTION_JOIN_S`` in all.
    """

    def __init__(self, address: tuple[str, int], handle, name: str):
        self._sock = socket.create_server(address)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._handle = handle
        self._stopping = False
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._thread = threading.Thread(target=self._accept_loop, name=name, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        name = self._thread.name
        while True:
            try:
                conn, address = self._sock.accept()
            except OSError:
                if self._stopping:
                    return
                logger.exception("%s: accept failed", name)
                continue
            thread = threading.Thread(
                target=self._serve, args=(conn, address), name=f"{name}-conn", daemon=True
            )
            with self._connections_lock:
                self._connections[conn] = thread
            thread.start()

    def _serve(self, conn: socket.socket, address):
        with conn:
            try:
                self._handle(conn, address)
            except Exception:
                logger.exception("%s: connection from %s failed", self._thread.name, address)
            finally:
                with self._connections_lock:
                    self._connections.pop(conn, None)

    def close(self) -> None:
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # closed before
        self._thread.join()
        self._sock.close()
        # under the lock: a connection still listed is not closed yet
        with self._connections_lock:
            for conn in self._connections:
                with contextlib.suppress(OSError):  # the peer is gone already
                    conn.shutdown(socket.SHUT_RD)
            threads = list(self._connections.values())
        deadline = time.monotonic() + CONNECTION_JOIN_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


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
