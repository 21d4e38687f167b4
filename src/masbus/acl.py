"""Agent-to-agent messaging: speech-act messages, mailboxes and dummy agents.

Agents are registered by name. A *local* agent has a FIFO mailbox and,
optionally, a reactive behavior executed serially as a lane of the
registry's worker pool. A *dummy* agent is the in-system counterpart of an
external entity: it has no mailbox, and anything sent to it is converted to
an exchange and injected into the route it is bound to. From the sender's
point of view both kinds are addressed identically. Effects are plain
records owned by the behavior that returns them; an :class:`AclMessage` is
frozen, as its mailbox, the send listeners and a dummy's route share it.
"""

from __future__ import annotations

import enum
import itertools
import logging
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .environment import AgentOrigin, Environment, OperationRequest, Percept
from .errors import (
    DuplicateNameError,
    NotLocalAgentError,
    UnknownAgentError,
    UnknownReceiverError,
)
from .pool import Worker, WorkerPool
from .terms import Term

logger = logging.getLogger(__name__)


class Performative(str, enum.Enum):
    """Speech-act types; ``tell`` informs, ``achieve`` requests a goal."""

    TELL = "tell"
    UNTELL = "untell"
    ACHIEVE = "achieve"
    UNACHIEVE = "unachieve"
    ASK_ONE = "askOne"
    ASK_ALL = "askAll"


@dataclass(frozen=True, slots=True)
class AclMessage:
    sender: str
    receiver: str
    performative: Performative
    content: Term
    msg_id: str = ""
    in_reply_to: str | None = None

    def __post_init__(self):
        if not self.sender or not self.receiver:
            raise ValueError("sender and receiver must be non-empty")
        if not isinstance(self.performative, Performative):
            object.__setattr__(self, "performative", Performative(self.performative))


class Delivery(enum.Enum):
    LOCAL = "local"
    ROUTED = "routed"


# -- effects -------------------------------------------------------------


@dataclass(slots=True)
class Send:
    message: AclMessage


@dataclass(slots=True)
class ArtifactOp:
    request: OperationRequest


@dataclass(slots=True)
class Focus:
    workspace: str | None
    artifact: str


@dataclass(slots=True)
class Log:
    entry: Term


Effect = Union[Send, ArtifactOp, Focus, Log]


@dataclass
class AgentBehavior:
    """Deterministic reactions of a local agent.

    ``on_message``/``on_percept`` map (context, stimulus) to a list of
    effects; ``initial`` effects run once at spawn, before any stimulus.
    Reactions must be deterministic given the stimulus and the agent's
    private ``context.state``.
    """

    on_message: Optional[Callable[["AgentContext", AclMessage], list[Effect]]] = None
    on_percept: Optional[Callable[["AgentContext", Percept], list[Effect]]] = None
    initial: Optional[Callable[["AgentContext"], list[Effect]]] = None


class AgentContext:
    """Handed to behaviors: private state plus effect constructors."""

    def __init__(self, name: str, next_msg_id: Callable[[], str]):
        self.name = name
        self.state: dict = {}
        self._next_msg_id = next_msg_id

    def tell(self, receiver: str, content: Term) -> Send:
        return Send(
            AclMessage(self.name, receiver, Performative.TELL, content, self._next_msg_id())
        )

    def achieve(self, receiver: str, content: Term) -> Send:
        return Send(
            AclMessage(self.name, receiver, Performative.ACHIEVE, content, self._next_msg_id())
        )

    def op(
        self,
        artifact: str,
        operation: str,
        params=(),
        workspace: str | None = None,
    ) -> ArtifactOp:
        return ArtifactOp(
            OperationRequest(
                artifact_name=artifact,
                operation_name=operation,
                params=tuple(params),
                origin=AgentOrigin(self.name),
                workspace=workspace,
            )
        )

    def focus(self, artifact: str, workspace: str | None = None) -> Focus:
        return Focus(workspace, artifact)

    def log(self, entry: Term) -> Log:
        return Log(entry)


class _Agent:
    """A local agent; one that reacts is a lane of the registry's pool.

    ``lock`` guards the mailbox, ``stirred`` (a stimulus came since the
    last take) and ``worker`` (the pool worker serving the agent, ``QUEUED``
    while it waits for one, True while it is held, or None).
    """

    def __init__(self, registry: "AgentRegistry", name: str, behavior: AgentBehavior | None):
        self.registry = registry
        self.name = name
        self.thread_name = f"agent-{name}"
        self.on_message = behavior.on_message if behavior is not None else None
        self.on_percept = behavior.on_percept if behavior is not None else None
        self.mailbox: deque[AclMessage] = deque()
        self.lock = threading.Lock()
        self.log: list[Term] = []
        self.context = AgentContext(name, registry.next_msg_id)
        self.stirred = False
        # the spawning thread holds the lane until the initial effects have run
        self.worker: Worker | str | bool | None = True

    def _serve(self, worker: Worker) -> bool:
        """React in passes until nothing stirs the agent; True once it is
        idle, False when the registry stopped."""
        worker.name = self.thread_name
        environment = self.registry.environment if self.on_percept is not None else None
        while True:
            with self.lock:
                if self.registry._stopped:
                    return False
                if not self.stirred:
                    self.worker = None
                    return True
                self.worker = worker
                # cleared before taking: a stimulus queued after the take stirs again
                self.stirred = False
                messages = ()
                if self.on_message is not None and self.mailbox:
                    messages, self.mailbox = self.mailbox, deque()
            percepts = environment._take_percepts(self.name) if environment is not None else ()
            for reaction, stimuli in ((self.on_percept, percepts), (self.on_message, messages)):
                for stimulus in stimuli:
                    if self.registry._stopped:
                        return False
                    self.registry._react(self, reaction, stimulus)


class AgentRegistry:
    """Names, mailboxes and delivery for local and dummy agents.

    Local delivery enqueues into the receiver's mailbox; delivery to a dummy
    hands the message to the bound route. Message ids, ``run_id`` plus a
    monotonic count, are minted as an agent builds a message, else on send.

    A local agent that reacts is a lane of the registry's worker pool: a
    stimulus it reacts to stirs it, and a stirred agent that is idle is
    dispatched to the pool, so spawning starts no thread. Each pass takes
    every queued message and then every queued percept, and reacts to the
    percepts in ``seq`` order, then to the messages in arrival order.
    """

    def __init__(self, environment: Environment | None = None, *, run_id: str = "reg"):
        self.run_id = run_id
        self.environment = environment
        self._lock = threading.RLock()
        self._agents: dict[str, _Agent] = {}
        self._dummies: dict[str, Callable[[AclMessage], None]] = {}
        self._msg_ids = itertools.count(1)  # next() on it is atomic: no lock
        self._send_listeners: list = []
        self._pool = WorkerPool("agent-pool-parked")
        self._stopped = False
        if environment is not None:
            environment.add_percept_listener(self._on_percepts_queued)

    # -- registration ----------------------------------------------------

    def spawn_agent(self, name: str, behavior: AgentBehavior | None = None) -> None:
        """Create a local agent; its initial effects run before this returns."""
        with self._lock:
            if name in self._agents or name in self._dummies:
                raise DuplicateNameError(f"agent name {name!r} already in use")
            agent = _Agent(self, name, behavior)
            self._agents[name] = agent
        if behavior is not None and behavior.initial is not None:
            self._run_effects(agent, behavior.initial(agent.context))
        with agent.lock:  # stimuli that came during the initial effects get a pass now
            agent.worker = None
            if agent.stirred:
                self._stir(agent)

    def register_dummy(self, name: str, route_id: str, deliver) -> None:
        """Bind a dummy agent; ``deliver(message)`` feeds route ``route_id``."""
        with self._lock:
            if name in self._agents or name in self._dummies:
                raise DuplicateNameError(f"agent name {name!r} already in use")
            self._dummies[name] = deliver

    def unregister_dummy(self, name: str) -> None:
        self._dummies.pop(name, None)

    def dummy_names(self) -> tuple[str, ...]:
        return tuple(self._dummies)

    # -- messaging ----------------------------------------------------------

    def next_msg_id(self) -> str:
        return f"{self.run_id}-m{next(self._msg_ids)}"

    def send_message(self, message: AclMessage) -> Delivery:
        """Deliver locally when possible, otherwise through the bound route."""
        if not message.msg_id:
            message = replace(message, msg_id=self.next_msg_id())
        # registration writes these dicts under the lock; one get needs none
        agent = self._agents.get(message.receiver)
        if agent is not None:
            with agent.lock:
                agent.mailbox.append(message)
                if agent.on_message is not None:
                    self._stir(agent)
            outcome = Delivery.LOCAL
        elif (deliver := self._dummies.get(message.receiver)) is not None:
            deliver(message)
            outcome = Delivery.ROUTED
        else:
            raise UnknownReceiverError(f"no agent or dummy named {message.receiver!r}")
        for fn in self._send_listeners:
            try:
                fn(message, outcome)
            except Exception:
                logger.exception("send listener failed")
        return outcome

    def _agent(self, name: str) -> _Agent:
        agent = self._agents.get(name)  # like send_message: one get needs no lock
        if agent is None:
            raise UnknownAgentError(f"no agent named {name!r}")
        return agent

    def receive(self, agent_name: str) -> AclMessage | None:
        """Dequeue the oldest mailbox message of a local agent, if any."""
        if agent_name in self._dummies:
            raise NotLocalAgentError(f"{agent_name!r} is a dummy agent")
        agent = self._agent(agent_name)
        with agent.lock:
            if agent.mailbox:
                return agent.mailbox.popleft()
            return None

    def mailbox_size(self, agent_name: str) -> int:
        agent = self._agent(agent_name)
        with agent.lock:
            return len(agent.mailbox)

    def add_send_listener(self, fn) -> None:
        """``fn(message, outcome)`` after every successful send."""
        self._send_listeners.append(fn)

    def agent_log(self, name: str) -> tuple[Term, ...]:
        return tuple(self._agent(name).log)

    def stop(self) -> None:
        """Dispatch nothing more: parked workers end now, a reacting one
        after its current reaction; none is waited for."""
        self._stopped = True
        for agent in list(self._agents.values()):
            with agent.lock:  # after this the agent is not dispatched again
                pass
        self._pool.close()

    # -- behavior execution ---------------------------------------------------

    def _stir(self, agent: _Agent) -> None:
        """Give ``agent`` a pass, dispatching it if it is idle; hold ``agent.lock``."""
        agent.stirred = True
        if agent.worker is None and not self._stopped:
            agent.worker = self._pool.dispatch(agent)

    def _on_percepts_queued(self, agents) -> None:
        for name in agents:
            agent = self._agents.get(name)
            # a stirred agent takes the new percepts in its next pass: no lock needed
            if agent is not None and agent.on_percept is not None and not agent.stirred:
                with agent.lock:
                    self._stir(agent)

    def _react(self, agent: _Agent, reaction, stimulus) -> None:
        try:
            effects = reaction(agent.context, stimulus) or []
        except Exception:
            logger.exception("behavior of %s failed on %r", agent.name, stimulus)
            return
        self._run_effects(agent, effects)

    def _run_effects(self, agent: _Agent, effects) -> None:
        for effect in effects:
            try:
                self._run_effect(agent, effect)
            except Exception:
                logger.exception("effect %r of agent %s failed", effect, agent.name)

    def _run_effect(self, agent: _Agent, effect: Effect) -> None:
        if isinstance(effect, Send):
            self.send_message(effect.message)
        elif isinstance(effect, Log):
            agent.log.append(effect.entry)
        elif not isinstance(effect, (ArtifactOp, Focus)):
            raise TypeError(f"unknown effect {effect!r}")
        elif self.environment is None:
            raise RuntimeError(f"no environment attached; cannot run {effect!r}")
        elif isinstance(effect, ArtifactOp):
            # an operation_failed percept would pile up for an agent that takes none
            self.environment.execute_op(effect.request, notify_origin=agent.on_percept is not None)
        elif agent.on_percept is None:
            # nothing would ever take its percepts: they would pile up
            raise RuntimeError(f"agent {agent.name!r} has no on_percept; cannot focus")
        else:
            snapshots = self.environment.focus(agent.name, effect.workspace, effect.artifact)
            for percept in snapshots:
                self._react(agent, agent.on_percept, percept)
