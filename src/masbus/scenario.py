"""End-to-end production-and-delivery scenario over the integration bus.

Three agents manage a pipeline of five stages against five external
entities, each integrated according to its nature:

i.   a production controller (line device, TCP) signals the finished
     product; the ``plc`` artifact publishes it and ``production_agent``
     perceives it;
ii.  ``production_agent`` checks the order out on the ``erp`` artifact,
     whose outbound request is routed to the ERP HTTP service; the
     confirmation flows back into the artifact;
iii. ``distribution_agent`` fetches freight quotes through the ``quotes``
     artifact (HTTP-backed, perceived as an observable property), picks the
     strict minimum price (ties: lexicographically smallest name) and hires
     the winner by telling its dummy agent, whose route writes the hire to
     the chat transcript before stage iv starts;
iv.  the hired carrier publishes tracking waypoints on the in-process
     pub/sub topic ``latLong``; a route feeds them to ``TrackedArtifact``
     which maintains the distance to the destination;
v.   on the ``near_destination`` signal, ``delivery_agent`` tells
     ``DummyCustomerAgent``, whose route ends in the chat transcript.

Each stage is stamped after the operation that defines it and before
anything it causes:

* i when ``production_agent`` perceives the ``plc`` status, before it
  checks the order out;
* ii when the ERP stub answers the checkout;
* iii at the delivery of the hire on the ``supplier-<name>`` route, which
  writes the hire's chat row;
* iv when ``delivery_agent`` first perceives ``distanceKm``, which is
  queued ahead of any ``near_destination`` of the same waypoint;
* v at the delivery on the ``customer`` route.

Stages iii and v are read through one bus delivery listener, which also
paces simulated waypoints by the ``track`` deliveries. A delivery listener
runs after the delivery's effects have begun (the ``plc-in`` and ``track``
operations have queued their percepts by then), so stages i and iv are not
read from deliveries. ``delivery_agent`` also stamps the
``near_destination`` signal when it perceives it.

With ``simulated=True`` waypoint publishing runs in lockstep with artifact
processing instead of wall-clock pacing, so two runs with the same config
produce reports that are identical except for timestamps.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable

from .acl import AgentBehavior, AgentRegistry, Performative
from .components import register_builtin_components
from .components.base import Listener
from .components.httplite import serve_http
from .config import RouteBuilder
from .environment import (
    ArtifactTemplate,
    Environment,
    OpResult,
    OutboundPayload,
    PropertyChanged,
    SignalPercept,
    tracker_template,
)
from .errors import ScenarioConfigError, StageTimeoutError
from .routing import Bus
from .terms import Atom, ListTerm, Number, String, Structure, render_term, structure, term_text

logger = logging.getLogger(__name__)

STAGES = ("i", "ii", "iii", "iv", "v")


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of a scenario run; JSON-mirrored for the CLI."""

    seed: int
    supplier_quotes: tuple[tuple[str, float], ...]
    track_waypoints: tuple[tuple[float, float], ...]
    destination: tuple[float, float]
    near_threshold_km: float
    tick_period_ms: float = 50.0
    chat_token: str = "sometoken"
    chat_id: str = "-364531"
    stage_timeout_s: float = 10.0

    def validate(self) -> None:
        if len(self.supplier_quotes) < 2:
            raise ScenarioConfigError("need at least 2 supplier quotes")
        names = [name for name, _ in self.supplier_quotes]
        if len(set(names)) != len(names) or not all(names):
            raise ScenarioConfigError("supplier names must be unique and non-empty")
        if len(self.track_waypoints) < 2:
            raise ScenarioConfigError("need at least 2 track waypoints")
        for lat, lon in (*self.track_waypoints, self.destination):
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise ScenarioConfigError(f"coordinate out of range: ({lat}, {lon})")
        if self.near_threshold_km <= 0:
            raise ScenarioConfigError("near_threshold_km must be positive")
        if self.tick_period_ms <= 0:
            raise ScenarioConfigError("tick_period_ms must be positive")
        if self.stage_timeout_s <= 0:
            raise ScenarioConfigError("stage_timeout_s must be positive")

    def expected_winner(self) -> str:
        return min(self.supplier_quotes, key=lambda q: (q[1], q[0]))[0]

    @staticmethod
    def generate(seed: int) -> "ScenarioConfig":
        """Derive a reachable nominal configuration from a seed."""
        rng = random.Random(seed)
        names = rng.sample(["alpha", "beta", "gamma", "delta", "epsilon"], 3)
        quotes = tuple((name, round(rng.uniform(5.0, 20.0), 2)) for name in names)
        dest = (round(rng.uniform(-60, 60), 4), round(rng.uniform(-150, 150), 4))
        waypoints = []
        steps = rng.randint(3, 5)
        for k in range(steps):
            back = (steps - 1 - k) * 0.5
            waypoints.append((round(dest[0] + back, 4), round(dest[1] + back, 4)))
        return ScenarioConfig(
            seed=seed,
            supplier_quotes=quotes,
            track_waypoints=tuple(waypoints),
            destination=dest,
            near_threshold_km=5.0,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        # ValueError also covers integers past int()'s digit limit
        except (ValueError, RecursionError) as err:
            raise ScenarioConfigError(f"config is not valid JSON: {err}") from None
        try:
            return ScenarioConfig(
                seed=int(data["seed"]),
                supplier_quotes=tuple((str(n), float(p)) for n, p in data["supplier_quotes"]),
                track_waypoints=tuple((float(a), float(b)) for a, b in data["track_waypoints"]),
                destination=(float(data["destination"][0]), float(data["destination"][1])),
                near_threshold_km=float(data["near_threshold_km"]),
                # a defaulted field left out of the JSON keeps the dataclass default
                **{
                    f.name: type(f.default)(data[f.name])
                    for f in fields(ScenarioConfig)
                    if f.default is not MISSING and f.name in data
                },
            )
        except (LookupError, TypeError, ValueError, OverflowError) as err:
            raise ScenarioConfigError(f"bad config field: {err}") from None


@dataclass
class ScenarioReport:
    seed: int
    stage_timestamps: dict[str, float] = field(default_factory=dict)
    winner_supplier: str | None = None
    hire_message: dict | None = None
    erp_checkout_record: dict | None = None
    chat_transcript: list[dict] = field(default_factory=list)
    dead_letters: list[dict] = field(default_factory=list)
    near_signal_ts: float | None = None
    delivery_order_ok: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def deterministic_view(self) -> dict:
        """The report minus wall-clock detail, for run-to-run comparison."""
        view = self.to_dict()
        view["stage_order"] = sorted(
            view.pop("stage_timestamps"), key=self.stage_timestamps.get
        )
        view.pop("near_signal_ts")
        view["erp_checkout_record"] = _strip_ts(self.erp_checkout_record)
        view["chat_transcript"] = [_strip_ts(row) for row in self.chat_transcript]
        return view


def _strip_ts(record: dict | None) -> dict | None:
    if record is None:
        return None
    return {k: v for k, v in record.items() if k != "ts"}


def assert_report(report: ScenarioReport, cfg: ScenarioConfig) -> list[str]:
    """Check a finished report against the configuration; [] when clean."""
    violations: list[str] = []
    missing = [s for s in STAGES if s not in report.stage_timestamps]
    if missing:
        violations.append(f"stages missing: {', '.join(missing)}")
    timestamps = [report.stage_timestamps[s] for s in STAGES if s in report.stage_timestamps]
    if any(b < a for a, b in zip(timestamps, timestamps[1:])):
        violations.append("stage timestamps are not monotonically ordered")
    expected = cfg.expected_winner()
    if report.winner_supplier != expected:
        violations.append(
            f"winner {report.winner_supplier!r} is not the minimum quote {expected!r}"
        )
    if report.hire_message is None:
        violations.append("no hire message recorded")
    elif report.hire_message.get("performative") != Performative.TELL.value:
        violations.append(f"hire message is not a tell: {report.hire_message}")
    chat_ids = [r.get("chatId") for r in report.chat_transcript]
    customer_rows = [r for r in report.chat_transcript if r.get("chatId") == cfg.chat_id]
    if not customer_rows:
        violations.append(f"no chat transcript row with chatId {cfg.chat_id}")
    if report.winner_supplier not in chat_ids:
        violations.append(f"no chat transcript row for the hired {report.winner_supplier!r}")
    elif customer_rows and chat_ids.index(report.winner_supplier) > chat_ids.index(cfg.chat_id):
        violations.append("the customer chat row precedes the hire row")
    stage_v = report.stage_timestamps.get("v")
    if customer_rows and report.near_signal_ts is None:
        violations.append("customer chat row without a preceding near_destination signal")
    elif stage_v is not None and report.near_signal_ts is not None:
        if report.near_signal_ts > stage_v:
            violations.append("near_destination signal recorded after the chat row")
    if report.dead_letters:
        violations.append(f"dead letters present: {len(report.dead_letters)}")
    if not report.delivery_order_ok:
        violations.append("stage order flag not set")
    return violations


# -- external entity stubs ---------------------------------------------------


def _send_line(address: tuple[str, int], text: str) -> None:
    with socket.create_connection(address, timeout=5.0) as conn:
        conn.sendall(text.encode("utf-8") + b"\n")


# -- artifact templates ---------------------------------------------------------


def _plc_template() -> ArtifactTemplate:
    def signal_done(ctx, params):
        status = params[0] if params else Atom("done")
        return OpResult(property_updates={"status": status})

    return ArtifactTemplate(operations={"signalDone": signal_done})


def _erp_template() -> ArtifactTemplate:
    def checkout(ctx, params):
        body = structure("checkout", params) if params else Atom("checkout")
        return OpResult(outbound=[OutboundPayload.of(body)])

    def confirm(ctx, params):
        status = params[0] if params else Atom("ok")
        return OpResult(property_updates={"lastCheckout": status})

    return ArtifactTemplate(operations={"checkout": checkout, "confirm": confirm})


def _quotes_template() -> ArtifactTemplate:
    def fetch(ctx, params):
        return OpResult(outbound=[OutboundPayload.of(Atom("quotes"))])

    def loaded(ctx, params):
        return OpResult(property_updates={"quoteList": ListTerm(tuple(params))})

    return ArtifactTemplate(operations={"fetch": fetch, "loaded": loaded})


# -- agent behaviors -------------------------------------------------------------


def _production_behavior(cfg: ScenarioConfig, on_done: Callable[[], None]) -> AgentBehavior:
    """Checks the order out on the first ``plc`` status, after ``on_done()``."""

    def initial(ctx):
        return [ctx.focus("plc"), ctx.focus("erp")]

    def on_percept(ctx, percept):
        if (
            isinstance(percept, PropertyChanged)
            and percept.artifact == "plc"
            and percept.prop == "status"
            and not ctx.state.get("checked_out")
        ):
            ctx.state["checked_out"] = True
            on_done()
            return [ctx.op("erp", "checkout", [structure("product", [Number(cfg.seed)])])]
        if (
            isinstance(percept, PropertyChanged)
            and percept.artifact == "erp"
            and percept.prop == "lastCheckout"
            and not ctx.state.get("handed_off")
        ):
            ctx.state["handed_off"] = True
            return [ctx.achieve("distribution_agent", Atom("hire_freight"))]
        return []

    return AgentBehavior(on_percept=on_percept, initial=initial)


def _quote_key(quote) -> tuple[float, str]:
    # quote(name, price) structures; malformed entries sort last
    if isinstance(quote, Structure) and len(quote.args) == 2:
        name, price = quote.args
        if isinstance(price, Number):
            return (float(price.value), getattr(name, "text", render_term(name)))
    return (float("inf"), render_term(quote))


def _distribution_behavior() -> AgentBehavior:
    def initial(ctx):
        return [ctx.focus("quotes")]

    def on_message(ctx, message):
        if message.performative is Performative.ACHIEVE and not ctx.state.get("fetched"):
            ctx.state["fetched"] = True
            return [ctx.op("quotes", "fetch", [])]
        return []

    def on_percept(ctx, percept):
        if (
            isinstance(percept, PropertyChanged)
            and percept.artifact == "quotes"
            and percept.prop == "quoteList"
            and not ctx.state.get("hired")
        ):
            quotes = percept.new.items if isinstance(percept.new, ListTerm) else ()
            if not quotes:
                return []
            ctx.state["hired"] = True
            best = min(quotes, key=_quote_key)
            price, name = _quote_key(best)
            return [
                ctx.tell(name, structure("hire", [String(name), Number(price)])),
                ctx.log(structure("hired", [String(name)])),
            ]
        return []

    return AgentBehavior(on_message=on_message, on_percept=on_percept, initial=initial)


def _delivery_behavior(
    on_distance: Callable[[], None], on_near: Callable[[], None]
) -> AgentBehavior:
    """Calls ``on_distance()`` on the first ``distanceKm``, and tells the
    customer on the first ``near_destination``, after ``on_near()``."""

    def initial(ctx):
        return [ctx.focus("TrackedArtifact")]

    def on_percept(ctx, percept):
        if (
            isinstance(percept, PropertyChanged)
            and percept.prop == "distanceKm"
            and not ctx.state.get("tracking")
        ):
            ctx.state["tracking"] = True
            on_distance()
        elif (
            isinstance(percept, SignalPercept)
            and percept.label == "near_destination"
            and not ctx.state.get("notified")
        ):
            ctx.state["notified"] = True
            on_near()
            return [
                ctx.tell(
                    "DummyCustomerAgent", structure("near_destination", [percept.payload])
                )
            ]
        return []

    return AgentBehavior(on_percept=on_percept, initial=initial)


# -- orchestration ------------------------------------------------------------------


TRACK_FROM_URI = "mqtt : foo? host=tcp://broker & subscribeTopicName=latLong"
TRACK_TO_URI = "artifact : cartago"


def _into_artifact(
    route_id: str, from_uri: str, artifact: str, operation: str, to: str = "artifact:main"
) -> RouteBuilder:
    """A route that runs ``operation`` of ``artifact`` on each exchange's body."""
    return (
        RouteBuilder(route_id)
        .from_(from_uri)
        .set_header("ArtifactName", artifact)
        .set_header("OperationName", operation)
        .to(to)
    )


class _Run:
    def __init__(self, cfg: ScenarioConfig, simulated: bool):
        self.cfg = cfg
        self.simulated = simulated
        self.report = ScenarioReport(seed=cfg.seed)
        self.stage_events = {s: threading.Event() for s in STAGES}
        self.give_distance_done = threading.Semaphore(0)
        self.erp_stub: Listener | None = None
        self.quotes_stub: Listener | None = None
        self.bus: Bus | None = None
        self.registry: AgentRegistry | None = None
        self.chat = None
        self.broker = None

    # observation ----------------------------------------------------------

    def _mark(self, stage: str):
        if not self.stage_events[stage].is_set():
            self.report.stage_timestamps[stage] = time.monotonic()
            self.stage_events[stage].set()
            logger.info("scenario stage %s reached", stage)

    def _on_delivery(self, exchange, route_id: str, endpoint: str):
        # stages iii and v each end in a delivery on a named route
        if route_id == "track":
            self.give_distance_done.release()
        elif route_id == "customer":
            self._mark("v")
        elif route_id.startswith("supplier-"):
            headers = exchange.headers
            self.report.winner_supplier = term_text(headers["receiver"])
            self.report.hire_message = {
                "msg_id": term_text(headers["msgId"]),
                "sender": term_text(headers["sender"]),
                "receiver": self.report.winner_supplier,
                "performative": term_text(headers["performative"]),
                "content": render_term(exchange.body),
            }
            # iii ends at the hire's chat row, so stage iv cannot overtake it
            self._mark("iii")

    def _on_near(self):
        self.report.near_signal_ts = time.monotonic()

    # setup ----------------------------------------------------------------

    def build(self):
        cfg = self.cfg
        env = Environment()
        env.create_artifact("main", "plc", _plc_template())
        env.create_artifact("main", "erp", _erp_template())
        env.create_artifact("main", "quotes", _quotes_template())
        env.create_artifact(
            "main", "TrackedArtifact", tracker_template(cfg.destination, cfg.near_threshold_km)
        )
        registry = AgentRegistry(env, run_id="scenario")

        self.erp_stub = serve_http(("127.0.0.1", 0), self._erp_response, "erp-stub")
        self.quotes_stub = serve_http(("127.0.0.1", 0), self._quotes_response, "quotes-stub")

        bus = Bus(run_id="scenario")
        components = register_builtin_components(bus, registry, env)
        self.chat = components["chatstub"]
        self.broker = components["mqttlite"].broker("tcp://broker")
        bus.register_alias("telegram", "chatstub")
        bus.register_alias("mqtt", "mqttlite")
        bus.add_delivery_listener(self._on_delivery)

        registry.spawn_agent(
            "production_agent", _production_behavior(cfg, lambda: self._mark("i"))
        )
        registry.spawn_agent("distribution_agent", _distribution_behavior())
        registry.spawn_agent(
            "delivery_agent", _delivery_behavior(lambda: self._mark("iv"), self._on_near)
        )

        erp = f"httplite:127.0.0.1:{self.erp_stub.address[1]}"
        quotes = f"httplite:127.0.0.1:{self.quotes_stub.address[1]}"
        routes = [
            RouteBuilder("customer")
            .from_("jason:DummyCustomerAgent")
            .to(f"telegram:bots/{cfg.chat_token}?chatId={cfg.chat_id}"),
            _into_artifact("track", TRACK_FROM_URI, "TrackedArtifact", "giveDistance", TRACK_TO_URI),
            _into_artifact("plc-in", "tcpline:127.0.0.1:0", "plc", "signalDone"),
            RouteBuilder("erp-out")
            .from_("artifact:main?artifactName=erp")
            .to(f"{erp}/checkout?method=POST&replyTo=erp-confirm"),
            _into_artifact("erp-confirm", "direct:erp-confirm", "erp", "confirm"),
            RouteBuilder("quotes-out")
            .from_("artifact:main?artifactName=quotes")
            .to(f"{quotes}/quotes?method=GET&replyTo=quotes-loaded"),
            _into_artifact("quotes-loaded", "direct:quotes-loaded", "quotes", "loaded"),
        ]
        routes += [
            RouteBuilder(f"supplier-{name}")
            .from_(f"jason:{name}")
            .to(f"chatstub:bots/freight?chatId={name}")
            for name, _ in sorted(cfg.supplier_quotes)
        ]
        for route in routes:
            bus.add_route(route.build())
        self.bus = bus
        self.registry = registry

    def _erp_response(self, method, path, body):
        self.report.erp_checkout_record = {
            "method": method,
            "path": path,
            "body": body,
            "ts": time.monotonic(),
        }
        self._mark("ii")
        return 200, "ok"

    def _quotes_response(self, method, path, body):
        quotes = ListTerm(
            tuple(
                Structure("quote", (String(name), Number(price)))
                for name, price in self.cfg.supplier_quotes
            )
        )
        return 200, render_term(quotes)

    # driving ---------------------------------------------------------------

    def _await(self, stage: str):
        start = time.monotonic()
        if not self.stage_events[stage].wait(self.cfg.stage_timeout_s):
            raise StageTimeoutError(
                stage, time.monotonic() - start, self._finalize(partial=True)
            )

    def _publish_waypoints(self):
        payloads = [
            render_term(ListTerm((Number(lat), Number(lon))))
            for lat, lon in self.cfg.track_waypoints
        ]
        if self.simulated:
            for payload in payloads:
                self.broker.publish("latLong", payload)
                if not self.give_distance_done.acquire(timeout=self.cfg.stage_timeout_s):
                    raise StageTimeoutError(
                        "iv", self.cfg.stage_timeout_s, self._finalize(partial=True)
                    )
        else:
            period = self.cfg.tick_period_ms / 1000.0

            def pace():
                for payload in payloads:
                    self.broker.publish("latLong", payload)
                    time.sleep(period)

            threading.Thread(target=pace, name="track-publisher", daemon=True).start()

    def run(self) -> ScenarioReport:
        try:
            self.build()
            self.bus.start()
            plc_address = self.bus.consumer("plc-in").address
            _send_line(plc_address, "done")
            self._await("i")
            self._await("ii")
            self._await("iii")
            self._publish_waypoints()
            self._await("iv")
            self._await("v")
            self.bus.wait_until_idle(self.cfg.stage_timeout_s)
            return self._finalize(partial=False)
        finally:
            self._teardown()

    def _teardown(self):
        try:
            if self.bus is not None and self.bus.is_running:
                self.bus.stop()
        finally:
            if self.registry is not None:
                self.registry.stop()
            for stub in (self.erp_stub, self.quotes_stub):
                if stub is not None:
                    stub.close()

    def _finalize(self, *, partial: bool) -> ScenarioReport:
        report = self.report
        if self.chat is not None:
            report.chat_transcript = [
                {"token": r.token, "chatId": r.chat_id, "text": r.text, "ts": r.ts}
                for r in self.chat.transcript()
            ]
        if self.bus is not None:
            report.dead_letters = self.bus.report()["dead_letters"]
        ordered = [report.stage_timestamps.get(s) for s in STAGES]
        report.delivery_order_ok = (
            not partial
            and all(t is not None for t in ordered)
            and all(a <= b for a, b in zip(ordered, ordered[1:]))
        )
        return report


def run_scenario(cfg: ScenarioConfig, *, simulated: bool = False) -> ScenarioReport:
    """Run the five stages to completion and return the filled report.

    Raises :class:`StageTimeoutError` (carrying the partial report) when a
    stage fails to complete within ``cfg.stage_timeout_s``.
    """
    cfg.validate()
    return _Run(cfg, simulated).run()
