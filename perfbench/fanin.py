"""direct_fanin: eight ``direct`` source routes fan in to one sink route.

Each message enters a source route ``direct:src-k`` (two ``setHeader``
steps), hops over ``direct:sink`` into the sink route, and ends at a
benchmark ``stamp:`` producer that records its arrival. Traffic is injected
with ``Bus.process_exchange`` and the bodies are built as terms before any
timing starts, so what is measured is the routing engine's per-exchange
overhead: the queue hop, the read lock, ``_finish``, the delivery log and
``format_uri`` per producer. ``terms``, ``environment`` and ``acl`` do
almost nothing here.
"""

from __future__ import annotations

import random
import threading
import time
from collections import defaultdict

from masbus import AgentRegistry, Bus, Environment, Number, Structure, format_uri, parse_route_file
from masbus.components import Component, Producer, register_builtin_components

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
    saturate,
    saturate_alternately,
    warm_up,
)

LABEL = "direct_fanin"
SOURCES = 8
# the saturation rate pinned to one CPU is ~22k/s; a fifth of it keeps the
# paced phase well clear of queueing
PACED_RATE = 4000.0
BATCH = 4000


def routes_xml(sources: int, stamped: bool) -> str:
    """Source routes ``src-0..`` feeding ``direct:sink``, plus the sink route.

    ``stamped`` puts the ``benchStamp`` transform first in each source chain;
    it splits queue wait from the rest of the hop in traced runs.
    """
    first = '\n    <transform name="benchStamp"/>' if stamped else ""
    parts = ["<routes>"]
    for k in range(sources):
        parts.append(
            f'  <route id="src-{k}">\n'
            f'    <from uri="direct:src-{k}"/>{first}\n'
            f'    <setHeader headerName="source"><constant>{k}</constant></setHeader>\n'
            f'    <setHeader headerName="hop"><constant>fanin</constant></setHeader>\n'
            f'    <to uri="direct:sink"/>\n'
            f"  </route>"
        )
    parts.append(
        '  <route id="sink">\n'
        '    <from uri="direct:sink"/>\n'
        '    <to uri="stamp:arrivals"/>\n'
        "  </route>"
    )
    parts.append("</routes>")
    return "\n".join(parts) + "\n"


class Inputs:
    """Seeded message stream: ``m(source, seq, value)`` bodies on random routes."""

    def __init__(self, seed: int, sources: int):
        self._rng = random.Random(seed)
        self._seq = [0] * sources
        self.sources = sources

    def batch(self, n: int) -> list[tuple[str, Structure]]:
        out = []
        for _ in range(n):
            k = self._rng.randrange(self.sources)
            self._seq[k] += 1
            value = Number(round(self._rng.uniform(-1000.0, 1000.0), 3))
            out.append((f"src-{k}", Structure("m", (Number(k), Number(self._seq[k]), value))))
        return out


class Sink(Component):
    """``stamp:`` producers record ``(time, body, source header, created_at)``."""

    def __init__(self):
        self.arrivals: list[tuple] = []
        self.done = threading.Event()
        self._target = 0

    def expect(self, n: int) -> None:
        # only called while the bus is idle
        self.arrivals = []
        self._target = n
        self.done.clear()

    def create_producer(self, ctx):
        return _SinkProducer(ctx, self)

    def arrive(self, exchange) -> None:
        arrivals = self.arrivals
        arrivals.append(
            (now(), exchange.body, exchange.headers.get("source"), exchange.created_at)
        )
        if len(arrivals) >= self._target:
            self.done.set()


class _SinkProducer(Producer):
    def __init__(self, ctx, sink: Sink):
        super().__init__(ctx)
        self.sink = sink

    def send(self, exchange):
        self.sink.arrive(exchange)


def check(batch, arrivals) -> int:
    """Wrong outcomes: each body arrives once, FIFO per source, right header."""
    expected = defaultdict(list)
    for _, body in batch:
        expected[body.args[0].value].append(body)
    got = defaultdict(list)
    wrong = 0
    for _, body, source, _ in arrivals:
        k = body.args[0].value
        if source != Number(k):
            wrong += 1
        got[k].append(body)
    return wrong + sum(mismatches(expected[k], got[k]) for k in expected.keys() | got.keys())


class FaninBus(WorkloadBus):
    """One cold build of environment, registry and bus with the fan-in routes."""

    def __init__(self, sources: int, tracer: Tracer | None = None):
        self.tracer = tracer
        self.stamps: dict[str, float] = {}
        start = now()
        self.environment = Environment()
        self.registry = AgentRegistry(self.environment)
        self.bus = Bus(run_id="fanin")
        register_builtin_components(self.bus, self.registry, self.environment)
        self.sink = Sink()
        self.bus.register_component("stamp", self.sink)
        if tracer is not None:
            self.bus.register_transform("benchStamp", self._stamp)
        parse_start = now()
        route_file = parse_route_file(routes_xml(sources, tracer is not None))
        parse_end = now()
        for definition in route_file.routes:
            self.bus.add_route(definition)
        bus_start = now()
        self.bus.start()
        self._record_setup(start, (parse_start, parse_end), bus_start, now())
        self.routes = route_file.routes

    def _stamp(self, exchange):
        self.stamps[exchange.id] = now()

    def run_batch(self, batch) -> tuple[float, int]:
        """Admit a batch as fast as possible; returns (outcomes/s, wrong)."""
        self.sink.expect(len(batch))
        new_exchange, process = self.bus.new_exchange, self.bus.process_exchange
        start = now()
        for route_id, body in batch:
            process(route_id, new_exchange(body))
        self.sink.done.wait(WAIT_S)
        arrivals = self.sink.arrivals
        last = arrivals[-1][0] if arrivals else now()
        self.bus.wait_until_idle(WAIT_S)
        if self.tracer is not None:
            self.tracer.add("routing.idle_lag", last, now())
            self.stamps.clear()
        return len(arrivals) / (last - start), check(batch, arrivals)

    def run_paced(self, batch, rate: float) -> tuple[list[float], int, list[float]]:
        """Open loop at ``rate``; returns (latencies µs, wrong, lateness µs).

        Traced runs also keep the largest backlog seen in ``backlog_max``.
        """
        self.sink.expect(len(batch))
        new_exchange, process = self.bus.new_exchange, self.bus.process_exchange
        index = {body: i for i, (_, body) in enumerate(batch)}
        traced = self.tracer is not None
        sent, late, self.backlog_max = {}, [], 0
        arrivals = self.sink.arrivals
        start = now() + 0.002
        for i, (route_id, body) in enumerate(batch):
            due = start + i / rate
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            if traced:
                t = now()
                late.append((t - due) * 1e6)
                self.backlog_max = max(self.backlog_max, i - len(arrivals))
                exchange = new_exchange(body)
                process(route_id, exchange)
                sent[body] = (exchange, self.tracer.add("routing.admit", t, now(), ref=exchange.id))
            else:
                process(route_id, new_exchange(body))
        self.sink.done.wait(WAIT_S)
        self.bus.wait_until_idle(WAIT_S)
        if traced:
            self._split_hops(sent, arrivals)
        latencies = [(t - (start + index[body] / rate)) * 1e6 for t, body, _, _ in arrivals]
        return latencies, check(batch, arrivals), late

    def _split_hops(self, sent, arrivals) -> None:
        # split in the paced phase only, where queues stay short; under
        # saturation the waits measure the backlog, not the engine.
        # created_at -> benchStamp: waiting in the source queue; benchStamp ->
        # sink exchange created: source chain and direct producer; sink
        # exchange created -> stamp: sink queue, sink chain and producer
        for arrived, body, _, sink_created in arrivals:
            exchange, admit = sent[body]
            stamped = self.stamps.pop(exchange.id)
            self.tracer.add("routing.queue_wait", exchange.created_at, stamped, admit, exchange.id)
            self.tracer.add("routing.chain", stamped, sink_created, admit, exchange.id)
            self.tracer.add("routing.hop", sink_created, arrived, admit, exchange.id)


def measure(seed: int, seconds: float, result: Result) -> None:
    """End-to-end metrics with tracing off, then the untimed retained bytes."""
    inputs = Inputs(seed, SOURCES)
    measure_rounds(
        lambda: FaninBus(SOURCES), inputs, seconds, result,
        label=LABEL, setup_messages=4 * SOURCES, batch=BATCH, paced_rate=PACED_RATE,
    )
    result.put("retained_bytes_per_exchange", _retained(inputs, result)["total"], "bytes", 1)


def _retained(inputs: Inputs, result: Result) -> dict[str, float]:
    kept = FaninBus(inputs.sources)
    warm_up(kept, inputs, BATCH // 4, result, LABEL)
    layers = retained_per_exchange(
        kept, inputs.batch(BATCH), result, LABEL, lambda: kept.sink.expect(0)
    )
    kept.stop()
    return layers


def trace(seed: int, seconds: float, result: Result, tracer: Tracer, own: bool) -> None:
    """Per-layer metrics of the routing engine, from spans around public calls."""
    inputs = Inputs(seed, SOURCES)
    cold_builds(
        lambda: FaninBus(SOURCES, tracer), inputs, max(5, int(4 * seconds)), 4 * SOURCES,
        result, LABEL,
    )

    fan = FaninBus(SOURCES, tracer)
    for _ in range(200):
        for definition in fan.routes:
            for uri in (definition.from_uri, *definition.to_uris):
                with tracer.span("uris.format_uri"):
                    format_uri(uri)
    # the engine formats the consumer URI once per exchange and each producer
    # URI once per delivery; a message makes one exchange per route it crosses
    path = [d for d in fan.routes if d.route_id in ("src-0", "sink")]
    calls = sum(1 + len(d.to_uris) for d in path)
    result.put("uris.format_calls_per_exchange", calls / len(path), "count", len(path))

    warm_up(fan, inputs, BATCH // 4, result, LABEL)
    buses = [fan]
    if own:
        buses.append(FaninBus(SOURCES))
        warm_up(buses[1], inputs, BATCH // 4, result, LABEL)
    rates = saturate_alternately(buses, inputs, BATCH, result, LABEL, 0.5 * seconds)
    if own:
        buses[1].stop()
        report_overhead(result, *rates)
    idle_lag = tracer.durations_us()["routing.idle_lag"]
    batch = inputs.batch(int(0.2 * seconds * PACED_RATE))
    latencies, wrong, late = fan.run_paced(batch, PACED_RATE)
    result.count(len(batch), wrong, f"{LABEL} paced")
    fan.stop()
    result.put_median("bench.generator_late_us", late, "us")
    result.put("bench.fanin_latency_p90_us", percentile(latencies, 90), "us", len(latencies))
    result.put("routing.backlog_max", fan.backlog_max, "count", len(batch))
    result.put_median("routing.idle_lag_us", idle_lag, "us")
    result.put_spans(
        tracer,
        {
            "config.parse_route_file_us": "config.parse_route_file",
            "routing.start_us": "routing.start",
            "routing.stop_us": "routing.stop",
            "uris.format_us": "uris.format_uri",
            "routing.admit_us": "routing.admit",
            "routing.queue_wait_us": "routing.queue_wait",
            "routing.chain_us": "routing.chain",
            "routing.hop_us": "routing.hop",
        },
    )

    single = Inputs(seed, 1)
    one = FaninBus(1)
    warm_up(one, single, BATCH // 4, result, LABEL)
    one_route = saturate(one, single, BATCH, result, LABEL, budget=0.1 * seconds)
    result.put_median("routing.one_route_xps", one_route, "1/s")
    one.stop()

    layers = _retained(inputs, result)
    result.put("retained.fanin_bytes_per_exchange", layers["total"], "bytes", 1)
