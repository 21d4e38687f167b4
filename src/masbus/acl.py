"""Agent-to-agent messaging: speech-act messages, mailboxes and dummy agents.

Agents are registered by name. A *local* agent has a FIFO mailbox and,
optionally, a reactive behavior executed serially on its own worker. A
*dummy* agent is the in-system counterpart of an external entity: it has no
mailbox, and anything sent to it is converted to an exchange and injected
into the route it is bound to. From the sender's point of view both kinds
are addressed identically.
"""

from __future__ import annotations

import enum
import itertools
import logging
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .environment import AgentOrigin, Environment, OperationRequest, Percept
from .errors import (
    DuplicateNameError,
    NotLocalAgentError,
    UnknownAgentError,
    UnknownReceiverError,
)
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


@dataclass(frozen=True, slots=True)
class Send:
    message: AclMessage


@dataclass(frozen=True, slots=True)
class ArtifactOp:
    request: OperationRequest


@dataclass(frozen=True, slots=True)
class Focus:
    workspace: str | None
    artifact: str


@dataclass(frozen=True, slots=True)
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
    initial: Union[Callable[["AgentContext"], list[Effect]], list[Effect], None] = None


class AgentContext:
    """Handed to behaviors: private state plus effect constructors."""

    def __init__(self, name: str):
        self.name = name
        self.state: dict = {}

    def tell(self, receiver: str, content: Term) -> Send:
        return Send(AclMessage(self.name, receiver, Performative.TELL, content))

    def achieve(self, receiver: str, content: Term) -> Send:
        return Send(AclMessage(self.name, receiver, Performative.ACHIEVE, content))

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
    def __init__(self, name: str, behavior: AgentBehavior | None):
        self.name = name
        self.behavior = behavior
        self.mailbox: deque[AclMessage] = deque()
        self.lock = threading.Lock()
        self.wake = threading.Event()
        self.log: list[Term] = []
        self.context = AgentContext(name)
        self.thread: threading.Thread | None = None
        self.stopping = False


class _Dummy:
    def __init__(self, name: str, route_id: str, deliver):
        self.name = name
        self.route_id = route_id
        self.deliver = deliver


class AgentRegistry:
    """Names, mailboxes and delivery for local and dummy agents.

    Local delivery enqueues into the receiver's mailbox; delivery to a dummy
    hands the message to the bound route. Message ids are minted from a
    monotonic counter prefixed with ``run_id``.

    A local agent with a behavior runs on its own thread. A new percept or
    message wakes it only when it sleeps; each pass it takes every queued
    percept in one round and every queued message in another, then reacts
    to them in that order: percepts in ``seq`` order, messages in arrival
    order.
    """

    def __init__(self, environment: Environment | None = None, *, run_id: str = "reg"):
        self.run_id = run_id
        self.environment = environment
        self._lock = threading.RLock()
        self._agents: dict[str, _Agent] = {}
        self._dummies: dict[str, _Dummy] = {}
        self._msg_ids = itertools.count(1)  # next() on it is atomic: no lock
        self._send_listeners: list = []
        if environment is not None:
            environment.add_percept_listener(self._on_percept_queued)

    # -- registration ----------------------------------------------------

    def spawn_agent(self, name: str, behavior: AgentBehavior | None = None) -> None:
        """Create a local agent; its initial effects run before this returns."""
        with self._lock:
            if name in self._agents or name in self._dummies:
                raise DuplicateNameError(f"agent name {name!r} already in use")
            agent = _Agent(name, behavior)
            self._agents[name] = agent
        if behavior is not None and behavior.initial is not None:
            initial = behavior.initial
            effects = initial(agent.context) if callable(initial) else initial
            self._run_effects(agent, effects)
        if behavior is not None and (behavior.on_message or behavior.on_percept):
            agent.thread = threading.Thread(
                target=self._agent_loop, args=(agent,), name=f"agent-{name}", daemon=True
            )
            agent.thread.start()

    def register_dummy(self, name: str, route_id: str, deliver) -> None:
        """Bind a dummy agent; ``deliver(message)`` feeds the bound route."""
        with self._lock:
            if name in self._agents or name in self._dummies:
                raise DuplicateNameError(f"agent name {name!r} already in use")
            self._dummies[name] = _Dummy(name, route_id, deliver)

    def unregister_dummy(self, name: str) -> None:
        with self._lock:
            self._dummies.pop(name, None)

    def dummy_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._dummies)

    # -- messaging ----------------------------------------------------------

    def next_msg_id(self) -> str:
        return f"{self.run_id}-m{next(self._msg_ids)}"

    def send_message(self, message: AclMessage) -> Delivery:
        """Deliver locally when possible, otherwise through the bound route."""
        if not message.msg_id:
            m = message
            message = AclMessage(
                m.sender, m.receiver, m.performative, m.content, self.next_msg_id(), m.in_reply_to
            )
        # registration writes these dicts under the lock; one get needs none
        agent = self._agents.get(message.receiver)
        if agent is not None:
            with agent.lock:
                agent.mailbox.append(message)
            # a set flag is cleared before the agent's next take, which gets this
            if not agent.wake.is_set():
                agent.wake.set()
            outcome = Delivery.LOCAL
        elif (dummy := self._dummies.get(message.receiver)) is not None:
            dummy.deliver(message)
            outcome = Delivery.ROUTED
        else:
            raise UnknownReceiverError(f"no agent or dummy named {message.receiver!r}")
        for fn in self._send_listeners:
            try:
                fn(message, outcome)
            except Exception:
                logger.exception("send listener failed")
        return outcome

    def receive(self, agent_name: str) -> AclMessage | None:
        """Dequeue the oldest mailbox message of a local agent, if any."""
        with self._lock:
            if agent_name in self._dummies:
                raise NotLocalAgentError(f"{agent_name!r} is a dummy agent")
            agent = self._agents.get(agent_name)
        if agent is None:
            raise UnknownAgentError(f"no agent named {agent_name!r}")
        with agent.lock:
            if agent.mailbox:
                return agent.mailbox.popleft()
            return None

    def mailbox_size(self, agent_name: str) -> int:
        with self._lock:
            agent = self._agents.get(agent_name)
        if agent is None:
            raise UnknownAgentError(f"no agent named {agent_name!r}")
        with agent.lock:
            return len(agent.mailbox)

    def add_send_listener(self, fn) -> None:
        """``fn(message, outcome)`` after every successful send."""
        self._send_listeners.append(fn)

    def agent_log(self, name: str) -> tuple[Term, ...]:
        with self._lock:
            agent = self._agents.get(name)
        if agent is None:
            raise UnknownAgentError(f"no agent named {name!r}")
        return tuple(agent.log)

    def stop(self) -> None:
        with self._lock:
            agents = list(self._agents.values())
        for agent in agents:
            agent.stopping = True
            agent.wake.set()

    # -- behavior execution ---------------------------------------------------

    def _on_percept_queued(self, percept: Percept) -> None:
        agent = self._agents.get(percept.agent)
        if agent is not None and not agent.wake.is_set():
            agent.wake.set()

    def _agent_loop(self, agent: _Agent) -> None:
        on_percept, on_message = agent.behavior.on_percept, agent.behavior.on_message
        environment = self.environment if on_percept is not None else None
        while not agent.stopping:
            agent.wake.wait()
            # cleared before taking: a stimulus queued after the take sets it again
            agent.wake.clear()
            percepts = environment._take_percepts(agent.name) if environment is not None else ()
            messages = ()
            if on_message is not None and agent.mailbox:
                with agent.lock:
                    messages, agent.mailbox = agent.mailbox, deque()
            for reaction, stimuli in ((on_percept, percepts), (on_message, messages)):
                for stimulus in stimuli:
                    if agent.stopping:
                        return
                    self._react(agent, reaction, stimulus)

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
        on_percept = agent.behavior.on_percept if agent.behavior is not None else None
        if isinstance(effect, Send):
            self.send_message(effect.message)
        elif isinstance(effect, ArtifactOp):
            if self.environment is None:
                raise RuntimeError("no environment attached; cannot act on artifacts")
            # an operation_failed percept would pile up for an agent that takes none
            self.environment.execute_op(effect.request, notify_origin=on_percept is not None)
        elif isinstance(effect, Focus):
            if self.environment is None:
                raise RuntimeError("no environment attached; cannot focus")
            if on_percept is None:
                # nothing would ever take its percepts: they would pile up
                raise RuntimeError(f"agent {agent.name!r} has no on_percept; cannot focus")
            snapshots = self.environment.focus(agent.name, effect.workspace, effect.artifact)
            for percept in snapshots:
                self._react(agent, on_percept, percept)
        elif isinstance(effect, Log):
            agent.log.append(effect.entry)
        else:
            raise TypeError(f"unknown effect {effect!r}")
