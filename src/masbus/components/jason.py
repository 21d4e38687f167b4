"""Agent-side bridge between ACL messages and route exchanges.

Consumer side (``from "jason:<DummyName>"``): registers a dummy agent under
the URI path; every ACL message addressed to that dummy becomes an exchange
with headers ``performative``, ``sender``, ``receiver`` and ``msgId``, and
the message content as body.

Producer side (``to "jason:<agent>"``): turns an exchange back into an ACL
message for a local agent. The performative comes from the ``performative``
header, then the ``performative`` URI parameter, then defaults to ``tell``;
the sender comes from the ``sender`` header, then the ``sender`` URI
parameter, then the endpoint name itself.
"""

from __future__ import annotations

from ..acl import AclMessage, AgentRegistry, Performative
from ..terms import String, Term, term_text
from .base import Component, Consumer, Producer

_PERFORMATIVE_TERMS = {p: String(p.value) for p in Performative}


class _JasonConsumer(Consumer):
    def __init__(self, ctx, registry: AgentRegistry):
        super().__init__(ctx)
        self.registry = registry
        self.dummy_name = ctx.uri.path
        self.receiver = String(self.dummy_name)

    def start(self):
        self.registry.register_dummy(self.dummy_name, self.ctx.route_id, self._deliver)

    def stop(self):
        self.registry.unregister_dummy(self.dummy_name)

    def _deliver(self, message: AclMessage):
        headers: dict[str, Term] = {
            "performative": _PERFORMATIVE_TERMS[message.performative],
            "sender": String(message.sender),
            "receiver": self.receiver,
            "msgId": String(message.msg_id),
        }
        self.ctx.emit(self.ctx.new_exchange(body=message.content, headers=headers))


class _JasonProducer(Producer):
    def __init__(self, ctx, registry: AgentRegistry):
        super().__init__(ctx)
        self.registry = registry
        self.target = ctx.uri.path
        self.default_performative = ctx.uri.params.get("performative", Performative.TELL.value)
        self.sender_alias = ctx.uri.params.get("sender", self.target)

    def send(self, exchange):
        performative_header = exchange.headers.get("performative")
        performative = Performative(
            term_text(performative_header)
            if performative_header is not None
            else self.default_performative
        )
        sender_header = exchange.headers.get("sender")
        sender = term_text(sender_header) if sender_header is not None else self.sender_alias
        message = AclMessage(
            sender=sender,
            receiver=self.target,
            performative=performative,
            content=exchange.body,
            msg_id=self.registry.next_msg_id(),
        )
        self.registry.send_message(message)


class JasonComponent(Component):
    """One dummy agent per consumer; producers deliver through the registry."""

    def __init__(self, registry: AgentRegistry):
        self.registry = registry

    def create_consumer(self, ctx):
        return _JasonConsumer(ctx, self.registry)

    def create_producer(self, ctx):
        return _JasonProducer(ctx, self.registry)
