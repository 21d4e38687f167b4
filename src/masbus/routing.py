"""The mediation engine: exchanges, routes, components and the delivery loop.

A :class:`Bus` owns named components (keyed by URI scheme) and routes. A
route's consumer endpoint wraps what it admits in an :class:`Exchange` whose
trace starts at that endpoint; an ordered processor chain follows, then one
or more producer endpoints that receive the exchange in declaration order.

Delivery guarantees:

* exactly-once per (exchange, producer) pair absent errors;
* per-route FIFO: exchanges admitted by a route's consumer are processed one
  at a time, in creation order; a worker takes its route's whole queue at once;
* failures never crash a route: a failing transform, producer or other step
  diverts the exchange to the bus dead-letter log and the route keeps running;
* ``stop`` is bounded: exchanges not finished by its drain deadline are
  recorded as dropped, per route in admission order, and a dropped exchange
  gets no delivery record after.

A route is held while its bus binds it: its consumer may admit, but no
worker serves it until ``start`` has bound every route, or ``add_route`` the
new one, and releases it. The routes already running go on meanwhile, and a
failed ``start`` starts no worker. ``stop`` drains while processing goes on;
a failed ``start`` shuts down the same way, with no time to drain.

Routes are the lanes of one elastic worker pool per bus (see
:mod:`masbus.pool`); a worker serving a route is named ``route-<id>``.
Lock rounds take a route's C-level lock; its condition only serves waits.
``start`` readies one parked worker. No worker outlives ``stop``, except
one stuck in a producer past the drain deadline, which ends once the
producer returns and serves nothing again.

``deliveries()`` keeps the latest ``DELIVERY_LOG_SIZE`` records, built when read;
the ``delivered`` count of ``report()`` is kept per route and is exact. Both take
a batch's deliveries when it ends or ``stop`` drops it; listeners run per delivery.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .clock import WallClock
from .errors import (
    AlreadyRunningError,
    AlreadyStoppedError,
    BusRunningError,
    DuplicateRouteIdError,
    DuplicateSchemeError,
    RouteNotRunningError,
    UnknownRouteError,
    UnknownSchemeError,
    UnknownTransformError,
)
from .pool import QUEUED, Worker, WorkerPool
from .terms import Term, render_term
from .uris import EndpointUri, as_uri, format_uri

logger = logging.getLogger(__name__)

# delivery records kept by a bus; older ones are only counted
DELIVERY_LOG_SIZE = 10_000
# default bound, in seconds, on how long ``Bus.stop`` waits for in-flight exchanges
DRAIN_TIMEOUT_S = 5.0


@dataclass
class Exchange:
    """The universal envelope moved from a consumer to producers."""

    id: str
    headers: dict[str, Term]
    body: Term
    created_at: float
    trace: list[str] = field(default_factory=list)

    def snapshot(self) -> dict:
        """Plain-data copy for dead-letter records and reports; never fails."""
        return {
            "id": self.id,
            "headers": {k: _render(v) for k, v in self.headers.items()},
            "body": _render(self.body),
            "trace": list(self.trace),
        }


def _render(value) -> str:
    try:
        return render_term(value)
    except TypeError:  # not a term, or a structure holding one
        try:
            return repr(value)
        except Exception:
            pass
    except Exception:  # such as an int past the int-to-str digit limit
        pass
    return f"<unrenderable {type(value).__name__}>"


@dataclass(frozen=True)
class SetHeader:
    """Processor that stores a constant term under a header name."""

    name: str
    value: Term


@dataclass(frozen=True)
class Transform:
    """Processor that applies a bus-registered function to the exchange, which returns
    None to change the exchange in place or the replacement ``Exchange``."""

    name: str


ProcessorSpec = SetHeader | Transform


@dataclass(frozen=True)
class RouteDefinition:
    """Declared path: one consumer endpoint, processors, producer endpoints."""

    route_id: str | None
    from_uri: EndpointUri
    processors: tuple[ProcessorSpec, ...] = ()
    to_uris: tuple[EndpointUri, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "from_uri", as_uri(self.from_uri))
        object.__setattr__(
            self, "to_uris", tuple(as_uri(u) for u in self.to_uris)
        )
        object.__setattr__(self, "processors", tuple(self.processors))
        if not self.to_uris:
            raise ValueError("a route needs at least one 'to' endpoint")
        for p in self.processors:
            if not isinstance(p, (SetHeader, Transform)):
                raise TypeError(f"not a processor spec: {p!r}")


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    exchange_id: str
    route_id: str
    endpoint: str
    at: float


@dataclass(frozen=True)
class DeadLetter:
    route_id: str
    kind: str  # "transform", "producer" or "route"
    endpoint: str | None
    error: str
    exchange: dict
    at: float


@dataclass(frozen=True)
class DroppedExchange:
    route_id: str
    exchange: dict


class RouteContext:
    """Per-endpoint view handed to components when they build endpoints.

    Consumers admit data with ``new_exchange`` and ``emit``, bound straight
    to the bus's and the route's own methods; ``emit`` starts an empty trace
    with the route's from-endpoint. Producers mostly need ``route_id`` and ``bus``.
    """

    def __init__(self, runtime: "_RouteRuntime", uri: EndpointUri):
        self.bus = runtime.bus
        self.route_id = runtime.route_id
        self.uri = uri
        self.new_exchange = runtime.bus.new_exchange
        self.emit = runtime.emit


class _RouteRuntime:
    """One route's consumer, processors and producers, served by a pool worker.

    One lock guards everything the route knows about its exchanges: the
    deque of admitted exchanges, ``_current`` (the batch the worker took; its
    head is in process) with its staged deliveries, ``_worker`` (the pool
    worker serving the route, None while the route is idle, ``QUEUED`` while
    it waits for a worker, True while it is held), the admission and
    delivery counts and whether the consumer is still accepting. Rounds take
    the C-level ``_lock``; ``_cond`` is for waits.
    """

    def __init__(self, bus: "Bus", definition: RouteDefinition):
        self.bus = bus
        self.definition = definition
        self.route_id = definition.route_id
        self.thread_name = f"route-{self.route_id}"
        self.from_endpoint = format_uri(definition.from_uri)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque[Exchange] = deque()
        self._current: deque[Exchange] | None = None
        self._staged: list[tuple] = []
        # held: the route is not dispatched until the bus releases it
        self._worker: Worker | str | bool | None = True
        self.admitted = 0
        self.delivered = 0
        self._accepting = False
        self.consumer = None
        self.producers: list[tuple[str, object]] = []
        # (name, value, fn): fn is None for a SetHeader, else the transform
        self._chain: tuple[tuple, ...] = ()

    def start(self):
        try:
            self._chain = tuple(
                (spec.name, spec.value, None) if isinstance(spec, SetHeader)
                else (spec.name, None, self.bus.transform(spec.name))
                for spec in self.definition.processors
            )
            for uri in self.definition.to_uris:
                component = self.bus.component_for(uri.scheme)
                producer = component.create_producer(RouteContext(self, uri))
                self.producers.append((format_uri(uri), producer))
            from_uri = self.definition.from_uri
            component = self.bus.component_for(from_uri.scheme)
            self.consumer = component.create_consumer(RouteContext(self, from_uri))
            self._accepting = True
            self.consumer.start()
        except Exception:
            self.close()
            raise
        logger.debug("route %s started", self.route_id)

    def deactivate(self):
        """Stop admitting new exchanges; in-flight ones continue."""
        if self.consumer is not None:
            try:
                self.consumer.stop()
            except Exception:
                logger.exception("consumer stop failed on route %s", self.route_id)
        with self._lock:
            self._accepting = False

    def drain(self, deadline: float) -> bool:
        # deadline is wall time: draining bounds real waiting even when the
        # bus runs on a simulated clock
        with self._lock:
            return self._cond.wait_for(
                lambda: not self._queue and self._current is None, deadline - time.monotonic()
            )

    def close(self):
        """Drop what is left in admission order, end the worker, stop the producers."""
        with self._lock:
            self._accepting = False
            # the held batch first, head first; C-level copies, which the worker's popleft
            # and append cannot split: a stuck worker keeps its deliveries so far, no more
            batch, self._current = self._current, None
            held = staged = ()
            if batch is not None:
                held, staged = tuple(batch), tuple(self._staged)
            self.bus._deliveries.extend(staged)
            self.delivered += len(staged)
            for exchange in held + tuple(self._queue):
                self.bus._record_dropped(self.route_id, exchange)
            self._queue.clear()
            # a worker left behind ends; a restart starts the route held
            self._worker = True
            self._cond.notify_all()
        for _, producer in self.producers:
            try:
                producer.stop()
            except Exception:
                logger.exception("producer stop failed on route %s", self.route_id)
        self.producers = []
        self.consumer = None
        logger.debug("route %s stopped", self.route_id)

    def release(self):
        """Let workers serve the route, starting with what it admitted while held."""
        with self._lock:
            self._worker = None
            if self._queue:
                self._worker = self.bus._pool.dispatch(self)

    def emit(self, exchange: Exchange) -> bool:
        if not exchange.trace:
            exchange.trace.append(self.from_endpoint)
        with self._lock:
            if not self._accepting:
                return False
            if self._worker is None:
                self._worker = self.bus._pool.dispatch(self)
            self._queue.append(exchange)
            self.admitted += 1
        return True

    def _serve(self, worker: Worker) -> bool:
        """Claim the queued route for ``worker`` and process batches until the queue is empty.

        Each round records the deliveries of the batch it ends, then takes the
        whole queue as the next batch, ``_current``, whose head is popped once
        processed. True once the route is idle, or if ``close`` took it while
        queued; False if ``close`` took it from ``worker``, which then ends.
        """
        worker.name = self.thread_name
        bus = self.bus
        batch = staged = None
        owner = QUEUED
        while True:
            with self._lock:
                # otherwise close recorded ``staged``, dropped the rest and took the route
                if batch is not None and self._current is batch:
                    self._current = None
                    if staged:
                        # a C-level deque.extend is atomic under the GIL: no shared lock
                        bus._deliveries.extend(staged)
                        self.delivered += len(staged)
                    if not self._queue:
                        self._cond.notify_all()
                if self._worker is not owner:
                    return owner is QUEUED
                if not self._queue:
                    self._worker = None
                    return True
                owner = self._worker = worker
                batch = self._current = self._queue
                self._queue = deque()
                # close records these itself if it drops the batch
                staged = self._staged = []
            self._process(batch, staged)

    def _dead_letter(self, batch: deque, *args) -> bool:
        """Record a dead letter unless stop has dropped ``batch``; False if it has."""
        with self._lock:
            if self._current is not batch:
                return False
            self.bus._record_dead_letter(self.route_id, *args)
            return True

    def _process(self, batch: deque[Exchange], staged: list[tuple]):
        bus = self.bus
        route_id = self.route_id
        chain = self._chain
        producers = self.producers
        now = bus.clock.now
        listeners = bus._delivery_listeners
        # stop dropped the batch: none of it reaches a later step
        while batch and self._current is batch:
            exchange = batch[0]
            try:
                for name, value, fn in chain:
                    try:
                        if fn is None:
                            exchange.headers[name] = value
                        elif (result := fn(exchange)) is not None:
                            if not isinstance(result, Exchange):
                                raise TypeError(f"transform {name!r} returned {result!r}")
                            exchange = result
                    except Exception as err:
                        self._dead_letter(batch, "transform", None, err, exchange)
                        break
                else:
                    for endpoint, producer in producers:
                        if self._current is not batch:
                            return
                        try:
                            producer.send(exchange)
                        except Exception as err:
                            if not self._dead_letter(batch, "producer", endpoint, err, exchange):
                                return
                            continue
                        exchange.trace.append(endpoint)
                        staged.append((exchange.id, route_id, endpoint, now()))
                        if listeners:
                            bus._notify_delivery(exchange, route_id, endpoint)
            except Exception as err:
                # contained outside the chain and the sends too: the rest of the batch goes on
                self._dead_letter(batch, "route", None, err, exchange)
            batch.popleft()


class Bus:
    """Routing engine; safe to share across threads.

    Parameters
    ----------
    run_id:
        Prefix for exchange identifiers; fixed by default so repeated runs
        with the same inputs mint the same ids.
    clock:
        Time source (``WallClock`` by default); also drives timer consumers.

    ``stop(drain_timeout=DRAIN_TIMEOUT_S)`` sets how many seconds stop waits
    for in-flight exchanges before it records them as dropped.
    """

    def __init__(self, *, run_id: str = "bus", clock=None):
        self.run_id = run_id
        self.clock = clock if clock is not None else WallClock()
        self._components: dict[str, object] = {}
        self._aliases: dict[str, str] = {}
        self._transforms: dict[str, object] = {}
        self._routes: dict[str, _RouteRuntime] = {}
        self._pool = WorkerPool("route-pool-parked")
        self._admin = threading.RLock()
        self._running = False
        self._id_lock = threading.Lock()
        self._exchange_counter = 0
        self._log_lock = threading.Lock()  # guards dead letters and dropped exchanges
        self._dead_letters: list[DeadLetter] = []
        self._deliveries: deque[tuple] = deque(maxlen=DELIVERY_LOG_SIZE)  # DeliveryRecord fields
        self._dropped: list[DroppedExchange] = []
        self._delivery_listeners: list = []

    # -- registration -------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def register_component(self, scheme: str, component) -> None:
        self._register(self._components, "components", scheme, component)

    def register_alias(self, scheme: str, target: str) -> None:
        """Let URIs written with ``scheme`` resolve to the ``target`` component."""
        self._register(self._aliases, "aliases", scheme, target)

    def _register(self, table: dict, kind: str, scheme: str, value) -> None:
        with self._admin:
            if self._running:
                raise BusRunningError(f"cannot register {kind} while running")
            EndpointUri(scheme, "")  # validates the scheme token
            if scheme in self._components or scheme in self._aliases:
                raise DuplicateSchemeError(f"scheme {scheme!r} already registered")
            table[scheme] = value

    def register_transform(self, name: str, fn) -> None:
        with self._admin:
            self._transforms[name] = fn

    def component_for(self, scheme: str):
        resolved = self._aliases.get(scheme, scheme)
        try:
            return self._components[resolved]
        except KeyError:
            raise UnknownSchemeError(f"no component registered for scheme {scheme!r}") from None

    def transform(self, name: str):
        try:
            return self._transforms[name]
        except KeyError:
            raise UnknownTransformError(f"transform {name!r} is not registered") from None

    # -- routes ---------------------------------------------------------

    def add_route(self, definition: RouteDefinition) -> str:
        with self._admin:
            route_id = definition.route_id
            if route_id is None:
                route_id = self._next_route_id()
                definition = RouteDefinition(
                    route_id, definition.from_uri, definition.processors, definition.to_uris
                )
            if route_id in self._routes:
                raise DuplicateRouteIdError(f"route id {route_id!r} already in use")
            self.component_for(definition.from_uri.scheme)
            for uri in definition.to_uris:
                self.component_for(uri.scheme)
            runtime = _RouteRuntime(self, definition)
            if self._running:
                runtime.start()
                self._routes[route_id] = runtime
                runtime.release()
            else:
                self._routes[route_id] = runtime
            return route_id

    def _next_route_id(self) -> str:
        n = len(self._routes) + 1
        while f"route-{n}" in self._routes:
            n += 1
        return f"route-{n}"

    def route_definition(self, route_id: str) -> RouteDefinition:
        try:
            return self._routes[route_id].definition
        except KeyError:
            raise UnknownRouteError(f"no route {route_id!r}") from None

    def consumer(self, route_id: str):
        """The live consumer endpoint of a running route (None when stopped)."""
        try:
            return self._routes[route_id].consumer
        except KeyError:
            raise UnknownRouteError(f"no route {route_id!r}") from None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        with self._admin:
            if self._running:
                raise AlreadyRunningError("bus already running")
            try:
                for runtime in self._routes.values():
                    runtime.start()
                if self._routes:
                    self._pool.ready()
            except Exception:
                # every route is held: no worker holds an exchange to wait for
                self._shutdown(time.monotonic())
                raise
            # no route sends before every route is bound
            for runtime in self._routes.values():
                runtime.release()
            self._running = True
            logger.info("bus %s started with %d routes", self.run_id, len(self._routes))

    def stop(self, drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
        with self._admin:
            if not self._running:
                raise AlreadyStoppedError("bus is not running")
            drained = self._shutdown(time.monotonic() + drain_timeout)
            self._running = False
            logger.info("bus %s stopped (drained=%s)", self.run_id, drained)

    def _shutdown(self, deadline: float) -> bool:
        """Deactivate every route, drain them until ``deadline``, drop what is
        left, then wait for the workers until ``deadline``; True if drained."""
        routes = self._routes.values()
        for runtime in routes:
            runtime.deactivate()
        drained = all(runtime.drain(deadline) for runtime in routes)
        # every worker is told to end before any is waited for
        for runtime in routes:
            runtime.close()
        for worker in self._pool.close():
            worker.join(max(0.0, deadline - time.monotonic()))
        return drained

    # -- exchanges -------------------------------------------------------

    def new_exchange(self, body: Term, headers: dict[str, Term] | None = None) -> Exchange:
        with self._id_lock:
            self._exchange_counter += 1
            n = self._exchange_counter
        headers = dict(headers) if headers else {}  # the one copy per hop
        return Exchange(f"{self.run_id}-x{n}", headers, body, self.clock.now())

    @property
    def exchanges_created(self) -> int:
        return self._exchange_counter

    def process_exchange(self, route_id: str, exchange: Exchange) -> None:
        """Inject an exchange into a running route, FIFO with consumer traffic."""
        try:
            runtime = self._routes[route_id]
        except KeyError:
            raise UnknownRouteError(f"no route {route_id!r}") from None
        if not runtime.emit(exchange):
            raise RouteNotRunningError(f"route {route_id!r} is not running")

    def wait_until_idle(self, timeout: float = 5.0) -> bool:
        """Block until no route has queued or in-process exchanges."""
        deadline = time.monotonic() + timeout
        seen = None
        while True:
            routes = list(self._routes.values())
            if not all(rt.drain(deadline) for rt in routes):
                return False
            # A drained route can be fed again by a route drained after it
            # (a direct hop). Two passes with no admission in between show
            # every route idle at one moment, after which none can be fed.
            admitted = [rt.admitted for rt in routes]
            if admitted == seen:
                return True
            seen = admitted

    # -- observability ----------------------------------------------------

    def add_delivery_listener(self, fn) -> None:
        """``fn(exchange, route_id, endpoint)`` after each successful delivery.

        Listeners run on route worker threads and must not call admin
        operations on the bus.
        """
        self._delivery_listeners.append(fn)

    def dead_letters(self) -> tuple[DeadLetter, ...]:
        with self._log_lock:
            return tuple(self._dead_letters)

    def deliveries(self) -> tuple[DeliveryRecord, ...]:
        """The latest ``DELIVERY_LOG_SIZE`` delivery records, oldest first, built when read."""
        # snapshot first: a generator over the live deque races the workers' commits
        return tuple(DeliveryRecord(*fields) for fields in tuple(self._deliveries))

    def dropped(self) -> tuple[DroppedExchange, ...]:
        with self._log_lock:
            return tuple(self._dropped)

    def report(self) -> dict:
        """Plain-data summary; ``delivered`` is exact, summed over per-route counts."""
        # snapshot first: a generator over the live dict races add_route
        routes = tuple(self._routes.values())
        with self._log_lock:
            return {
                "run_id": self.run_id,
                "status": "running" if self._running else "stopped",
                "routes": sorted(self._routes),
                "exchanges_created": self._exchange_counter,
                "delivered": sum(runtime.delivered for runtime in routes),
                "dropped": [
                    {"route_id": d.route_id, "exchange": d.exchange} for d in self._dropped
                ],
                "dead_letters": [
                    {
                        "route_id": d.route_id,
                        "kind": d.kind,
                        "endpoint": d.endpoint,
                        "error": d.error,
                        "exchange": d.exchange,
                    }
                    for d in self._dead_letters
                ],
            }

    def _notify_delivery(self, exchange: Exchange, route_id: str, endpoint: str):
        for fn in self._delivery_listeners:
            try:
                fn(exchange, route_id, endpoint)
            except Exception:
                logger.exception("delivery listener failed")

    def _record_dead_letter(self, route_id, kind, endpoint, error, exchange):
        logger.warning(
            "dead letter on route %s (%s via %s): %s", route_id, kind, endpoint, error
        )
        entry = DeadLetter(
            route_id=route_id,
            kind=kind,
            endpoint=endpoint,
            error=f"{type(error).__name__}: {error}",
            exchange=exchange.snapshot(),
            at=self.clock.now(),
        )
        with self._log_lock:
            self._dead_letters.append(entry)

    def _record_dropped(self, route_id, exchange):
        with self._log_lock:
            self._dropped.append(DroppedExchange(route_id, exchange.snapshot()))
