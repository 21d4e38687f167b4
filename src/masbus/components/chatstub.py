"""Chat notification sink: ``chatstub:bots/<token>?chatId=<id>``.

Stands in for chat-bot style notification channels. Producing appends a row
to an inspectable transcript; there is no consumer side. The transcript
exports as JSON lines ``{"token": ..., "chatId": ..., "text": ..., "ts": ...}``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

from ..terms import render_term
from .base import Component, Producer, require_param


@dataclass(frozen=True)
class TranscriptRow:
    token: str
    chat_id: str
    text: str
    ts: float

    def to_json(self) -> str:
        return json.dumps(
            {"token": self.token, "chatId": self.chat_id, "text": self.text, "ts": self.ts}
        )


def _token_of(uri) -> str:
    prefix, sep, token = uri.path.partition("/")
    return token if sep and prefix == "bots" else uri.path


class _ChatProducer(Producer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.component = component
        self.token = _token_of(ctx.uri)
        self.chat_id = require_param(ctx.uri, "chatId")

    def send(self, exchange):
        self.component._append(
            TranscriptRow(self.token, self.chat_id, render_term(exchange.body), time.time())
        )


class ChatStubComponent(Component):
    def __init__(self):
        self._rows: list[TranscriptRow] = []
        self._lock = threading.Lock()

    def create_producer(self, ctx):
        return _ChatProducer(ctx, self)

    def _append(self, row: TranscriptRow):
        with self._lock:
            self._rows.append(row)

    def transcript(self) -> tuple[TranscriptRow, ...]:
        with self._lock:
            return tuple(self._rows)

    def export_jsonl(self) -> str:
        return "\n".join(row.to_json() for row in self.transcript())
