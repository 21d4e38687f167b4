"""In-process publish/subscribe broker with MQTT-shaped endpoint URIs.

``mqttlite:<client>?host=<broker-key>&subscribeTopicName=<t>`` consumes,
``mqttlite:<client>?host=<broker-key>&publishTopicName=<t>`` produces.
Brokers live inside the component, keyed by the opaque ``host`` string, so
one component instance gives every route with the same host the same broker.
Payloads are plain text: producers publish rendered body terms; consumers
parse payloads back into terms where possible and fall back to string terms.
"""

from __future__ import annotations

import threading

from ..terms import payload_to_term, render_term
from .base import Component, Consumer, Producer, require_param


class Broker:
    """Topic fan-out: every current subscriber sees each publish exactly once."""

    def __init__(self, key: str):
        self.key = key
        self._lock = threading.Lock()
        # tuples, replaced on change, so publish can call them without a copy
        self._subscribers: dict[str, tuple] = {}
        self._retained: dict[str, str] = {}

    def subscribe(self, topic: str, fn) -> None:
        with self._lock:
            self._subscribers[topic] = self._subscribers.get(topic, ()) + (fn,)

    def unsubscribe(self, topic: str, fn) -> None:
        with self._lock:
            handlers = list(self._subscribers.get(topic, ()))
            if fn in handlers:
                handlers.remove(fn)
                self._subscribers[topic] = tuple(handlers)

    def publish(self, topic: str, payload: str) -> int:
        """Deliver to current subscribers; returns the delivery count."""
        with self._lock:
            self._retained[topic] = payload
            handlers = self._subscribers.get(topic, ())
        for fn in handlers:
            fn(payload)
        return len(handlers)

    def retained(self, topic: str) -> str | None:
        with self._lock:
            return self._retained.get(topic)


class _MqttConsumer(Consumer):
    def __init__(self, ctx, broker: Broker):
        super().__init__(ctx)
        self.broker = broker
        self.topic = require_param(ctx.uri, "subscribeTopicName")

    def start(self):
        self.broker.subscribe(self.topic, self._on_payload)

    def stop(self):
        self.broker.unsubscribe(self.topic, self._on_payload)

    def _on_payload(self, payload: str):
        self.ctx.emit(self.ctx.new_exchange(body=payload_to_term(payload)))


class _MqttProducer(Producer):
    def __init__(self, ctx, broker: Broker):
        super().__init__(ctx)
        self.broker = broker
        self.topic = require_param(ctx.uri, "publishTopicName")

    def send(self, exchange):
        self.broker.publish(self.topic, render_term(exchange.body))


class MqttLiteComponent(Component):
    def __init__(self):
        self._brokers: dict[str, Broker] = {}
        self._lock = threading.Lock()

    def broker(self, key: str) -> Broker:
        with self._lock:
            if key not in self._brokers:
                self._brokers[key] = Broker(key)
            return self._brokers[key]

    def create_consumer(self, ctx):
        return _MqttConsumer(ctx, self.broker(require_param(ctx.uri, "host")))

    def create_producer(self, ctx):
        return _MqttProducer(ctx, self.broker(require_param(ctx.uri, "host")))
