"""Workspaces, artifacts, operations, observable properties and percepts.

Artifacts are passive entities grouped into workspaces. Agents focus on an
artifact to observe it; every observable-property change and every signal
then reaches each current observer as a :class:`Percept` of its own, a
plain record (like :class:`OperationRequest`) that its receiver owns.
Operations run atomically per artifact: two operations on the same artifact
never interleave, while distinct artifacts execute concurrently.

An artifact can also address the outside world by queueing
:class:`OutboundPayload` entries on its outbox, which a route consumer may
attach to and drain in FIFO order.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import (
    DuplicateNameError,
    OperationFailedError,
    OutboxBusyError,
    UnknownArtifactError,
    UnknownOperationError,
    UnknownWorkspaceError,
)
from .terms import Atom, Number, String, Term, structure

logger = logging.getLogger(__name__)

DEFAULT_WORKSPACE = "main"
OP_LOG_SIZE = 10_000  # entries kept by ``operation_log()``


@dataclass(frozen=True, slots=True)
class OutboundPayload:
    headers: tuple[tuple[str, Term], ...]
    body: Term

    @staticmethod
    def of(body: Term, headers: Mapping[str, Term] | None = None) -> "OutboundPayload":
        return OutboundPayload(tuple((headers or {}).items()), body)

    def header_map(self) -> dict[str, Term]:
        return dict(self.headers)


@dataclass(frozen=True, slots=True)
class AgentOrigin:
    agent: str


@dataclass(frozen=True, slots=True)
class RouteOrigin:
    route_id: str


Origin = AgentOrigin | RouteOrigin


@dataclass(slots=True)
class OperationRequest:
    """Ask an artifact to run one of its operations.

    ``workspace`` is optional; when omitted the artifact is looked up in the
    default workspace.
    """

    artifact_name: str
    operation_name: str
    params: tuple[Term, ...] = ()
    origin: Origin = AgentOrigin("")
    workspace: str | None = None

    def __post_init__(self):
        if not self.artifact_name or not self.operation_name:
            raise ValueError("artifact and operation names must be non-empty")
        if type(self.params) is not tuple:
            self.params = tuple(self.params)


@dataclass
class OpResult:
    """What an operation did: status, property writes, signals, outbound data."""

    status: str = "ok"  # "ok" or "failed"
    reason: Term | None = None
    property_updates: dict[str, Term] = field(default_factory=dict)
    signals: list[tuple[str, Term]] = field(default_factory=list)
    outbound: list[OutboundPayload] = field(default_factory=list)

    @staticmethod
    def failed(reason: Term) -> "OpResult":
        return OpResult(status="failed", reason=reason)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(slots=True)
class Percept:
    agent: str
    artifact: str
    seq: int


@dataclass(slots=True)
class PropertyChanged(Percept):
    prop: str = ""
    old: Term | None = None
    new: Term = Atom("nil")


@dataclass(slots=True)
class SignalPercept(Percept):
    label: str = ""
    payload: Term = Atom("nil")


class OpContext:
    """Read view of an artifact handed to operation implementations."""

    def __init__(self, artifact: "Artifact"):
        self.name = artifact.name
        self.state = artifact.state
        self.properties = dict(artifact.properties)


OperationFn = Callable[[OpContext, list[Term]], OpResult | None]


@dataclass(frozen=True)
class ArtifactTemplate:
    """Blueprint: operation table, initial observable properties, private state."""

    operations: Mapping[str, OperationFn]
    properties: Mapping[str, Term] = field(default_factory=dict)
    state: Mapping[str, object] = field(default_factory=dict)


class Artifact:
    def __init__(self, name: str, template: ArtifactTemplate):
        self.name = name
        self.operations = dict(template.operations)
        self.properties: dict[str, Term] = dict(template.properties)
        self.state: dict[str, object] = dict(template.state)
        self.observers: set[str] = set()
        self.outbox: deque[OutboundPayload] = deque()
        self.outbox_consumer = None
        self.lock = threading.RLock()


class Workspace:
    def __init__(self, name: str):
        self.name = name
        self.artifacts: dict[str, Artifact] = {}


@dataclass(frozen=True, slots=True)
class OperationLogEntry:
    workspace: str
    artifact: str
    operation: str
    params: tuple[Term, ...]
    origin: Origin
    status: str


class Environment:
    """Shared environment: workspaces of artifacts plus percept delivery.

    Percepts are pushed into a per-agent FIFO queue; agents (or an agent
    runtime) poll with :meth:`poll_percept`. A change is minted and queued
    for all its observers in one lock round, so each queue is in ``seq``
    order even across concurrent artifacts; after that round each percept
    listener is called once for the whole batch, with the names of the
    agents whose queues it filled. :meth:`operation_log` keeps the latest
    ``OP_LOG_SIZE`` entries. An omitted workspace means ``DEFAULT_WORKSPACE``.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self.workspaces: dict[str, Workspace] = {}
        self.create_workspace(DEFAULT_WORKSPACE)
        self._percept_queues: defaultdict[str, deque[Percept]] = defaultdict(deque)
        self._percept_seq: dict[str, int] = {}
        self._percept_listeners: list = []
        self._op_log: deque[tuple] = deque(maxlen=OP_LOG_SIZE)  # OperationLogEntry fields
        self._op_listeners: list = []

    # -- structure ---------------------------------------------------------

    def create_workspace(self, name: str) -> None:
        with self._lock:
            if name in self.workspaces:
                raise DuplicateNameError(f"workspace {name!r} already exists")
            self.workspaces[name] = Workspace(name)

    def create_artifact(self, workspace: str, name: str, template: ArtifactTemplate) -> None:
        with self._lock:
            ws = self._workspace(workspace)
            if name in ws.artifacts:
                raise DuplicateNameError(
                    f"artifact {name!r} already exists in workspace {workspace!r}"
                )
            ws.artifacts[name] = Artifact(name, template)

    def _workspace(self, name: str | None) -> Workspace:
        key = DEFAULT_WORKSPACE if name is None else name
        try:
            return self.workspaces[key]
        except KeyError:
            raise UnknownWorkspaceError(f"no workspace {key!r}") from None

    def artifact(self, name: str, workspace: str | None = None) -> Artifact:
        with self._lock:
            ws = self._workspace(workspace)
            try:
                return ws.artifacts[name]
            except KeyError:
                raise UnknownArtifactError(
                    f"no artifact {name!r} in workspace {ws.name!r}"
                ) from None

    # -- observation -------------------------------------------------------

    def focus(self, agent: str, workspace: str | None, artifact: str) -> list[Percept]:
        """Add ``agent`` to the artifact's observers.

        Returns one snapshot percept per currently-set observable property
        (``old`` absent); snapshots are returned, not queued. Idempotent.
        """
        art = self.artifact(artifact, workspace)
        with art.lock:
            art.observers.add(agent)
            with self._lock:
                last = self._percept_seq.get(agent, 0)
                self._percept_seq[agent] = last + len(art.properties)
            return [
                PropertyChanged(agent, art.name, last + i, prop, None, value)
                for i, (prop, value) in enumerate(art.properties.items(), 1)
            ]

    def unfocus(self, agent: str, workspace: str | None, artifact: str) -> None:
        art = self.artifact(artifact, workspace)
        with art.lock:
            art.observers.discard(agent)

    def poll_percept(self, agent: str) -> Percept | None:
        with self._lock:
            queue = self._percept_queues.get(agent)
            if queue:
                return queue.popleft()
            return None

    def _take_percepts(self, agent: str) -> deque[Percept] | tuple:
        """Dequeue every queued percept of ``agent`` in one lock round."""
        with self._lock:
            return self._percept_queues.pop(agent, ())

    def add_percept_listener(self, fn) -> None:
        """``fn(agents)`` once per batch of percepts, with the names of the
        agents whose queues the batch filled."""
        self._percept_listeners.append(fn)

    def _queue_percepts(self, agents, artifact: str, changes) -> None:
        """Queue ``cls(agent, artifact, seq, *fields)`` for each change in
        ``changes`` (``(cls, fields)`` pairs) and each agent, then call each
        listener once with ``agents``. Minting and queueing share one lock round."""
        with self._lock:
            seqs, queues = self._percept_seq, self._percept_queues
            for cls, fields in changes:
                for agent in agents:
                    seq = seqs[agent] = seqs.get(agent, 0) + 1
                    queues[agent].append(cls(agent, artifact, seq, *fields))
        for fn in self._percept_listeners:
            try:
                fn(agents)
            except Exception:
                logger.exception("percept listener failed")

    # -- operations ----------------------------------------------------------

    def execute_op(self, request: OperationRequest, *, notify_origin: bool = True) -> OpResult:
        """Run an operation atomically and fan out its effects.

        Unknown artifact/operation raise; an operation that reports failure
        comes back as a ``failed`` result. In every failure case an
        agent origin is additionally notified with an ``operation_failed``
        signal percept, unless ``notify_origin`` is false (the agent takes
        no percepts); route origins are left to the caller (the route
        machinery dead-letters the exchange).
        """
        notify = self._notify_origin_failure if notify_origin else lambda request, reason: None
        try:
            art = self.artifact(request.artifact_name, request.workspace)
        except (UnknownWorkspaceError, UnknownArtifactError) as err:
            notify(request, String(str(err)))
            raise
        with art.lock:
            fn = art.operations.get(request.operation_name)
            if fn is None:
                self._log_op(request, art, "unknown_operation")
                err = UnknownOperationError(
                    f"artifact {art.name!r} has no operation {request.operation_name!r}"
                )
                notify(request, String(str(err)))
                raise err
            try:
                result = fn(OpContext(art), list(request.params))
            except OperationFailedError as failure:
                result = OpResult.failed(failure.reason)
            if result is None:
                result = OpResult()
            status = result.status
            if status == "ok":
                self._apply(art, result)
            self._log_op(request, art, status)
        if status != "ok":
            reason = result.reason if result.reason is not None else Atom("failed")
            notify(request, reason)
        return result

    def _apply(self, art: Artifact, result: OpResult) -> None:
        # runs under the artifact lock; observers at change time get percepts
        changes = []
        for prop, new in result.property_updates.items():
            old = art.properties.get(prop)
            if old == new:
                continue
            art.properties[prop] = new
            changes.append((PropertyChanged, (prop, old, new)))
        for label, payload in result.signals:
            changes.append((SignalPercept, (label, payload)))
        if changes and art.observers:
            self._queue_percepts(art.observers, art.name, changes)
        for payload in result.outbound:
            self._queue_outbound(art, payload)

    def _log_op(self, request: OperationRequest, art: Artifact, status: str) -> None:
        fields = (request.workspace or DEFAULT_WORKSPACE, art.name, request.operation_name,
                  request.params, request.origin, status)
        self._op_log.append(fields)  # atomic under the GIL: no lock round
        for fn in self._op_listeners:
            try:
                fn(OperationLogEntry(*fields))
            except Exception:
                logger.exception("operation listener failed")

    def _notify_origin_failure(self, request: OperationRequest, reason: Term) -> None:
        origin = request.origin
        if isinstance(origin, AgentOrigin) and origin.agent:
            payload = structure(
                "operation_failed",
                [String(request.artifact_name), String(request.operation_name), reason],
            )
            self._queue_percepts(
                (origin.agent,),
                request.artifact_name,
                [(SignalPercept, ("operation_failed", payload))],
            )

    def operation_log(self) -> tuple[OperationLogEntry, ...]:
        """The latest ``OP_LOG_SIZE`` entries, oldest first, built when read."""
        # snapshot first: a generator over the live deque races concurrent operations
        return tuple(OperationLogEntry(*fields) for fields in tuple(self._op_log))

    def add_op_listener(self, fn) -> None:
        """``fn(entry)`` after every operation execution attempt."""
        self._op_listeners.append(fn)

    # -- outbound ------------------------------------------------------------

    def artifact_send(
        self,
        artifact: str,
        headers: Mapping[str, Term] | None,
        body: Term,
        workspace: str | None = None,
    ) -> None:
        """Queue an outbound payload on the artifact's outbox."""
        art = self.artifact(artifact, workspace)
        with art.lock:
            self._queue_outbound(art, OutboundPayload.of(body, headers))

    def _queue_outbound(self, art: Artifact, payload: OutboundPayload) -> None:
        if art.outbox_consumer is not None:
            art.outbox_consumer(payload)
        else:
            art.outbox.append(payload)

    def attach_outbox_consumer(
        self, artifact: str, fn, workspace: str | None = None
    ) -> None:
        """Bind ``fn(payload)`` as the single consumer of the artifact outbox.

        Queued payloads are delivered immediately, in order.
        """
        art = self.artifact(artifact, workspace)
        with art.lock:
            if art.outbox_consumer is not None:
                raise OutboxBusyError(f"artifact {artifact!r} outbox already consumed")
            backlog = list(art.outbox)
            art.outbox.clear()
            art.outbox_consumer = fn
            for payload in backlog:
                fn(payload)

    def detach_outbox_consumer(self, artifact: str, workspace: str | None = None) -> None:
        art = self.artifact(artifact, workspace)
        with art.lock:
            art.outbox_consumer = None


# -- built-in templates --------------------------------------------------------

EARTH_RADIUS_KM = 6371.0


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon points, in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def _as_float(term: Term) -> float:
    if isinstance(term, Number):
        return float(term.value)
    raise OperationFailedError(Atom("bad_coordinates"))


def tracker_template(
    destination: tuple[float, float], threshold_km: float
) -> ArtifactTemplate:
    """Position tracker: ``giveDistance(lat, lon)`` maintains ``distanceKm``.

    The distance to the configured destination is published as an observable
    property; when it falls below the threshold a ``near_destination`` signal
    is raised. ``distanceKm`` is unset until the first position arrives.
    """

    def give_distance(ctx: OpContext, params: list[Term]) -> OpResult:
        if len(params) != 2:
            raise OperationFailedError(Atom("bad_coordinates"))
        lat, lon = _as_float(params[0]), _as_float(params[1])
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise OperationFailedError(Atom("bad_coordinates"))
        dest_lat, dest_lon = ctx.state["destination"]
        distance = great_circle_km(lat, lon, dest_lat, dest_lon)
        result = OpResult(property_updates={"distanceKm": Number(distance)})
        if distance < ctx.state["threshold_km"]:
            result.signals.append(("near_destination", Number(distance)))
        return result

    return ArtifactTemplate(
        operations={"giveDistance": give_distance},
        state={
            "destination": (float(destination[0]), float(destination[1])),
            "threshold_km": float(threshold_km),
        },
    )


def counter_template(start: int = 0) -> ArtifactTemplate:
    """Counter with an ``increment`` operation; handy for atomicity checks."""

    def increment(ctx: OpContext, params: list[Term]) -> OpResult:
        step = int(params[0].value) if params else 1
        current = ctx.properties.get("count", Number(start))
        return OpResult(property_updates={"count": Number(current.value + step)})

    return ArtifactTemplate(
        operations={"increment": increment},
        properties={"count": Number(start)},
    )
