"""track_notify: the paper's artifact path followed by its dummy-agent path.

Text waypoints are published on the in-process ``mqttlite`` topic
``latLong``; a route turns each into ``giveDistance`` on a tracker artifact
that four agents focus on. The notifier agent tells the dummy agent
``Customer`` about every ``distanceKm`` change, and the ``jason:Customer``
route publishes that on the reply topic the generator subscribes to. About
5% of payloads are malformed and must be dead-lettered exactly once; about
10% repeat the previous position, change nothing and get no reply.

Most time goes to ``terms``, ``environment`` and ``acl``; ``routing`` carries
two light routes with heavy producers.
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import NamedTuple

from masbus import (
    AgentBehavior,
    AgentRegistry,
    Bus,
    Environment,
    ListTerm,
    Number,
    OperationRequest,
    PropertyChanged,
    RouteOrigin,
    great_circle_km,
    parse_route_file,
    parse_term,
    render_term,
    structure,
    tracker_template,
)
from masbus.components import register_builtin_components
from masbus.components.mqttlite import payload_to_term
from masbus.errors import TermSyntaxError

from harness import (
    WAIT_S,
    Result,
    Tracer,
    WorkloadBus,
    cold_builds,
    measure_rounds,
    mismatches,
    now,
    percentile,
    report_overhead,
    retained_per_exchange,
    saturate_alternately,
    warm_up,
)

LABEL = "track_notify"
# about a seventh of the ~7.3k/s saturation rate measured pinned
PACED_RATE = 1000.0
BATCH = 2000
THRESHOLD_KM = 1.0
AGENTS = ("notifier", "watcher-1", "watcher-2", "watcher-3")

ROUTES_XML = """\
<routes>
  <aliases>
    <alias scheme="mqtt" component="mqttlite"/>
  </aliases>
  <route id="track">
    <from uri="mqtt:tracker?host=bench&amp;subscribeTopicName=latLong"/>
    <setHeader headerName="ArtifactName"><constant>TrackedArtifact</constant></setHeader>
    <setHeader headerName="OperationName"><constant>giveDistance</constant></setHeader>
    <to uri="artifact:cartago"/>
  </route>
  <route id="customer">
    <from uri="jason:Customer"/>
    <to uri="mqtt:customer?host=bench&amp;publishTopicName=distances"/>
  </route>
</routes>
"""


def reference_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance on the 6371.0 km sphere, written apart from masbus."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    a = (
        math.sin((phi2 - phi1) / 2) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    )
    return 2 * 6371.0 * math.asin(math.sqrt(a))


class Waypoint(NamedTuple):
    payload: str
    position: tuple[float, float] | None  # None when malformed
    dead_body: str | None  # the dead letter's rendered body, when malformed


class Inputs:
    """Seeded waypoint stream with its expected outcomes."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        rng = self._rng
        self.destination = (round(rng.uniform(-50, 50), 4), round(rng.uniform(-140, 140), 4))
        self._last: Waypoint | None = None

    def _move(self) -> Waypoint:
        rng = self._rng
        while True:
            pos = (round(rng.uniform(-60, 60), 6), round(rng.uniform(-170, 170), 6))
            far = reference_km(*pos, *self.destination) > 2 * THRESHOLD_KM
            if far and (self._last is None or pos != self._last.position):
                return Waypoint(f"[{pos[0]!r},{pos[1]!r}]", pos, None)

    def _malformed(self) -> Waypoint:
        rng = self._rng
        lat, lon = round(rng.uniform(-60, 60), 3), round(rng.uniform(-170, 170), 3)
        # valid term text of the wrong shape is dead-lettered as written;
        # text that is no term at all travels as a string term
        shape = rng.choice((f"[{lat!r}]", f"[{95.0 + abs(lat)!r},{lon!r}]", f"pos({lat!r},{lon!r})"))
        text = f"lat={lat};lon={lon}"
        if rng.random() < 0.25:
            return Waypoint(text, None, f'"{text}"')
        return Waypoint(shape, None, shape)

    def batch(self, n: int) -> list[Waypoint]:
        out = []
        for i in range(n):
            r = self._rng.random()
            if i == n - 1 or self._last is None or r >= 0.15:
                # a batch ends on a move, so its last reply closes it
                self._last = self._move()
                out.append(self._last)
            elif r < 0.05:
                out.append(self._malformed())
            else:
                out.append(self._last)
        return out


class _Progress:
    """Reaction counts of the four observers; ``done`` when all reach ``target``."""

    def __init__(self):
        self.counts = [0] * len(AGENTS)
        self.target = 0
        self.done = threading.Event()

    def react(self, index: int) -> None:
        self.counts[index] += 1
        if min(self.counts) >= self.target:
            self.done.set()


class TrackBus(WorkloadBus):
    """One cold build: tracker artifact, four focused agents, two routes."""

    def __init__(self, destination, tracer: Tracer | None = None):
        self.tracer = tracer
        self.destination = destination
        self.position = None
        self.progress = _Progress()
        self.replies: list[tuple[float, str]] = []
        self.reply_target = 0
        self.reply_done = threading.Event()
        self.ops: list[float] = []
        self.reactions: list[tuple[float, float]] = []
        self.sends: list[tuple[str, float]] = []
        self.published = 0  # inputs sent to this bus before the current batch
        self.first = 0
        start = now()
        self.environment = Environment()
        self.environment.create_artifact(
            "main", "TrackedArtifact", tracker_template(destination, THRESHOLD_KM)
        )
        self.registry = AgentRegistry(self.environment)
        for index, name in enumerate(AGENTS):
            self.registry.spawn_agent(name, self._behavior(index))
        self.bus = Bus(run_id="track")
        components = register_builtin_components(self.bus, self.registry, self.environment)
        parse_start = now()
        route_file = parse_route_file(ROUTES_XML)
        parse_end = now()
        for scheme, component in route_file.aliases.items():
            self.bus.register_alias(scheme, component)
        for definition in route_file.routes:
            self.bus.add_route(definition)
        bus_start = now()
        self.bus.start()
        self._record_setup(start, (parse_start, parse_end), bus_start, now())
        self.broker = components["mqttlite"].broker("bench")
        self.broker.subscribe("distances", self._on_reply)
        if tracer is not None:
            self.environment.add_op_listener(lambda entry: self.ops.append(now()))
            self.registry.add_send_listener(
                lambda message, outcome: self.sends.append((message.msg_id, now()))
            )

    def _behavior(self, index: int) -> AgentBehavior:
        progress = self.progress
        notifier = index == 0
        traced = self.tracer is not None

        def initial(ctx):
            return [ctx.focus("TrackedArtifact")]

        def on_percept(ctx, percept):
            if not (isinstance(percept, PropertyChanged) and percept.prop == "distanceKm"):
                return []
            entered = now()
            effects = [ctx.tell("Customer", structure("distance", [percept.new]))] if notifier else []
            if notifier and traced:
                self.reactions.append((entered, now()))
            progress.react(index)
            return effects

        return AgentBehavior(on_percept=on_percept, initial=initial)

    def _on_reply(self, payload: str) -> None:
        replies = self.replies
        replies.append((now(), payload))
        if len(replies) >= self.reply_target:
            self.reply_done.set()

    def _expect(self, batch):
        """Expected (input index, reply text) pairs, dead-letter bodies, and
        the number of distances that disagree with ``reference_km``."""
        replies, dead, off = [], [], 0
        for i, waypoint in enumerate(batch):
            if waypoint.position is None:
                dead.append(waypoint.dead_body)
                continue
            if waypoint.position == self.position:
                continue
            self.position = waypoint.position
            distance = great_circle_km(*waypoint.position, *self.destination)
            reference = reference_km(*waypoint.position, *self.destination)
            off += abs(distance - reference) > 1e-9 * reference
            replies.append((i, render_term(structure("distance", [Number(distance)]))))
        # only called while the bus is idle
        self.first, self.published = self.published, self.published + len(batch)
        self.replies, self.ops, self.reactions, self.sends = [], [], [], []
        self.reply_target = len(replies)
        self.reply_done.clear()
        self.progress.target += len(replies)
        self.progress.done.clear()
        return replies, dead, off

    def _drain(self, replies, dead, off: int, dead_before: int) -> int:
        """Wait for every outcome; returns the number of wrong outcomes."""
        self.reply_done.wait(WAIT_S)
        self.progress.done.wait(WAIT_S)
        self.bus.wait_until_idle(WAIT_S)
        wrong = off + mismatches([text for _, text in replies], [text for _, text in self.replies])
        lettered = [d.exchange["body"] for d in self.bus.dead_letters()[dead_before:]]
        wrong += mismatches(dead, lettered)
        wrong += sum(abs(self.progress.target - c) for c in self.progress.counts)
        return wrong

    def run_batch(self, batch) -> tuple[float, int]:
        """Publish a batch back to back; returns (inputs/s, wrong outcomes)."""
        replies, dead, off = self._expect(batch)
        dead_before = len(self.bus.dead_letters())
        publish = self.broker.publish
        start = now()
        for waypoint in batch:
            publish("latLong", waypoint.payload)
        self.reply_done.wait(WAIT_S)
        last = self.replies[-1][0] if self.replies else now()
        return len(batch) / (last - start), self._drain(replies, dead, off, dead_before)

    def run_paced(self, batch, rate: float):
        """Open loop at ``rate``; returns (reply latencies µs, wrong, lateness µs)."""
        replies, dead, off = self._expect(batch)
        dead_before = len(self.bus.dead_letters())
        publish = self.broker.publish
        published, late = [], []
        traced = self.tracer is not None
        start = now() + 0.002
        for i, waypoint in enumerate(batch):
            due = start + i / rate
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            if traced:
                t = now()
                late.append((t - due) * 1e6)
                publish("latLong", waypoint.payload)
                published.append((t, now()))
            else:
                publish("latLong", waypoint.payload)
        wrong = self._drain(replies, dead, off, dead_before)
        if traced:
            self._split_hops(published, replies)
        latencies = [
            (arrived - (start + i / rate)) * 1e6
            for (i, _), (arrived, _) in zip(replies, self.replies)
        ]
        return latencies, wrong, late

    def _split_hops(self, published, replies) -> None:
        # spans come from the paced phase only, where queues stay short;
        # under saturation the waits measure the backlog.
        # publish -> op listener: track queue, chain, artifact producer and the
        # operation; op -> on_percept entry: agent wake-up; entry -> return:
        # reaction; return -> send listener: registry send to the dummy;
        # send -> reply: customer route and reply publish
        tracer, first = self.tracer, self.first
        roots = []
        for i, (start, end) in enumerate(published):
            roots.append(tracer.add("components.mqtt_publish", start, end, ref=first + i))
            tracer.add("components.artifact_hop", end, self.ops[i], roots[i], first + i)
        rows = zip(replies, self.reactions, self.sends, self.replies)
        for (i, _), (entered, returned), (msg_id, sent), (arrived, _) in rows:
            span = tracer.add("acl.wake", self.ops[i], entered, roots[i], first + i)
            tracer.add("acl.react", entered, returned, span, first + i)
            tracer.add("acl.dummy_send", returned, sent, span, msg_id)
            tracer.add("components.reply_hop", sent, arrived, span, msg_id)


def measure(seed: int, seconds: float, result: Result) -> None:
    """End-to-end metrics with tracing off, then the untimed retained bytes."""
    inputs = Inputs(seed)
    measure_rounds(
        lambda: TrackBus(inputs.destination), inputs, seconds, result,
        label=LABEL, setup_messages=8, batch=BATCH, paced_rate=PACED_RATE,
    )
    result.put("retained_bytes_per_exchange", _retained(inputs, result)["total"], "bytes", 1)


def _retained(inputs: Inputs, result: Result) -> dict[str, float]:
    kept = TrackBus(inputs.destination)
    warm_up(kept, inputs, BATCH // 4, result, LABEL)
    layers = retained_per_exchange(
        kept, inputs.batch(BATCH), result, LABEL, lambda: setattr(kept, "replies", [])
    )
    kept.stop()
    return layers


def _terms(batch, tracer: Tracer) -> None:
    for i, waypoint in enumerate(batch):
        with tracer.span("terms.parse_term", ref=i):
            try:
                parse_term(waypoint.payload)
            except TermSyntaxError:
                pass
        if waypoint.position is not None:
            reply = structure("distance", [Number(reference_km(*waypoint.position, 0.0, 0.0))])
            with tracer.span("terms.render_term", ref=i):
                render_term(reply)


def _twin(destination, batch, tracer: Tracer) -> float:
    """``execute_op`` on a twin tracker with the same observers, off the bus."""
    environment = Environment()
    environment.create_artifact("main", "Twin", tracker_template(destination, THRESHOLD_KM))
    for name in AGENTS:
        environment.focus(name, None, "Twin")
    percepts = 0
    for i, waypoint in enumerate(batch):
        body = payload_to_term(waypoint.payload)
        params = body.items if isinstance(body, ListTerm) else (body,)
        request = OperationRequest("Twin", "giveDistance", params, RouteOrigin("twin"))
        with tracer.span("environment.execute_op", ref=i):
            environment.execute_op(request)
        for name in AGENTS:
            while environment.poll_percept(name) is not None:
                percepts += 1
    return percepts / len(batch)


def trace(seed: int, seconds: float, result: Result, tracer: Tracer, own: bool) -> None:
    """Per-layer metrics of terms, components, environment and acl."""
    inputs = Inputs(seed)
    cold_builds(
        lambda: TrackBus(inputs.destination, tracer), inputs, max(5, int(2 * seconds)), 8,
        result, LABEL,
    )

    track = TrackBus(inputs.destination, tracer)
    warm_up(track, inputs, BATCH // 4, result, LABEL)
    buses = [track]
    if own:
        buses.append(TrackBus(inputs.destination))
        warm_up(buses[1], inputs, BATCH // 4, result, LABEL)
    rates = saturate_alternately(buses, inputs, BATCH, result, LABEL, 0.5 * seconds)
    if own:
        buses[1].stop()
        report_overhead(result, *rates)
    batch = inputs.batch(int(0.3 * seconds * PACED_RATE))
    latencies, wrong, _ = track.run_paced(batch, PACED_RATE)
    result.count(len(batch), wrong, f"{LABEL} paced")
    result.put("bench.track_latency_p90_us", percentile(latencies, 90), "us", len(latencies))
    dead_letters = len(track.bus.dead_letters())
    dropped = len(track.bus.dropped())
    track.stop()

    sample = inputs.batch(max(BATCH // 4, int(100 * seconds)))
    _terms(sample, tracer)
    percepts_per_op = _twin(inputs.destination, sample, tracer)
    result.put("environment.percepts_per_op", percepts_per_op, "count", len(sample))
    result.put("routing.dead_letters", dead_letters, "count", 1)
    result.put("routing.dropped", dropped, "count", 1)
    result.put_spans(
        tracer,
        {
            "terms.parse_us": "terms.parse_term",
            "terms.render_us": "terms.render_term",
            "components.mqtt_publish_us": "components.mqtt_publish",
            "components.artifact_hop_us": "components.artifact_hop",
            "acl.wake_us": "acl.wake",
            "acl.react_us": "acl.react",
            "acl.dummy_send_us": "acl.dummy_send",
            "components.reply_hop_us": "components.reply_hop",
            "environment.execute_op_us": "environment.execute_op",
        },
    )

    layers = _retained(inputs, result)
    result.put("retained.track_bytes_per_exchange", layers["total"], "bytes", 1)
    for layer in ("routing", "environment", "acl"):
        result.put(f"retained.{layer}_bytes_per_exchange", layers[layer], "bytes", 1)
