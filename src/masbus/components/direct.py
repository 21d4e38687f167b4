"""In-process hop: producers hand exchanges straight to the same-named consumer."""

from __future__ import annotations

import threading

from ..errors import BusError
from .base import Component, Consumer, Producer


class DirectNoConsumerError(BusError):
    pass


class _DirectConsumer(Consumer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component
        self.name = ctx.uri.path

    def start(self):
        self.component._bind(self.name, self)

    def stop(self):
        self.component._unbind(self.name, self)

    def accept(self, headers, body):
        # a fresh exchange with a copy of the headers: each route keeps its own identity and trace
        exchange = self.ctx.new_exchange(body=body, headers=headers)
        if not self.ctx.emit(exchange):
            # the sending route dead-letters it instead of losing it silently
            raise DirectNoConsumerError(f"direct:{self.name} is shutting down")


class _DirectProducer(Producer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component
        self.name = ctx.uri.path

    def send(self, exchange):
        consumer = self.component._consumers.get(self.name)
        if consumer is None:
            raise DirectNoConsumerError(f"no consumer bound to direct:{self.name}")
        consumer.accept(exchange.headers, exchange.body)


class DirectComponent(Component):
    """Pairs producers and consumers by path within one bus."""

    def __init__(self):
        self._consumers: dict[str, _DirectConsumer] = {}
        self._lock = threading.Lock()

    def create_consumer(self, ctx):
        return _DirectConsumer(ctx, self)

    def create_producer(self, ctx):
        return _DirectProducer(ctx, self)

    def _bind(self, name, consumer):
        with self._lock:
            if name in self._consumers:
                raise BusError(f"direct:{name} already has a consumer")
            self._consumers[name] = consumer

    def _unbind(self, name, consumer):
        with self._lock:
            if self._consumers.get(name) is consumer:
                del self._consumers[name]
