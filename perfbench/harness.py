"""Shared benchmark machinery: CPU pinning, statistics, spans and results.

Every timestamp comes from ``time.monotonic``, the clock the bus itself uses
(``WallClock.now``) for ``Exchange.created_at`` and dead-letter records, so
benchmark stamps and bus stamps can be subtracted from each other.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

now = time.monotonic

# longest wait for one batch's outcomes; a correct bus needs under a second
WAIT_S = 10.0

# per round of measure_rounds: cold builds, saturation batches, paced seconds
ROUND_BUILDS = 4
ROUND_BATCHES = 2
ROUND_PACED_S = 0.5


def pin_to_one_cpu() -> int:
    """Bind this process to the highest CPU it may run on; returns the CPU.

    Threads inherit the affinity of the thread that starts them, so this must
    run before the first thread starts. With every bus thread on one CPU the
    interpreter lock changes hands without cross-core wake-ups: on a 2-core
    machine, fresh unpinned processes ran the fan-in at 9k to 24k exchanges/s,
    pinned ones at 21k to 25k.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


median = statistics.median


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def mismatches(want: list, got: list) -> int:
    """Wrong outcomes of ``got`` against ``want``: lost, extra, out of order.

    An item missing from ``got`` counts once, an extra one (duplicated or
    unexpected) once, and each arrival that comes before an item it should
    follow once; a single loss does not make every later item wrong.
    """
    balance = Counter(want)
    balance.subtract(got)
    wrong = sum(abs(n) for n in balance.values())
    positions = defaultdict(deque)
    for i, item in enumerate(want):
        positions[item].append(i)
    order = [positions[item].popleft() for item in got if positions[item]]
    return wrong + sum(1 for a, b in zip(order, order[1:]) if b < a)


def settle(baseline_threads: int, timeout: float = 2.0) -> None:
    """Collect garbage and wait until threads started since the baseline end.

    ``AgentRegistry.stop`` only signals agent threads; waiting here keeps
    their exit out of the next timed step.
    """
    deadline = now() + timeout
    while threading.active_count() > baseline_threads and now() < deadline:
        time.sleep(0.001)
    gc.collect()


class Tracer:
    """In-memory spans: ``(id, name, start, end, parent, ref)`` tuples.

    ``ref`` is the exchange id, message id or input index the span belongs
    to; ``parent`` is the id of the span that caused it (0 for none). Spans
    are appended from bus threads; ``list.append`` and ``next`` on a counter
    are atomic under the interpreter lock.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, parent: int = 0, ref=None) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, ref))
        return span_id

    @contextmanager
    def span(self, name: str, ref=None):
        start = now()
        try:
            yield
        finally:
            self.add(name, start, now(), ref=ref)

    def durations_us(self) -> dict[str, list[float]]:
        by_name: dict[str, list[float]] = {}
        for _, name, start, end, _, _ in self.spans:
            by_name.setdefault(name, []).append((end - start) * 1e6)
        return by_name

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, ref in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "ref": ref}
                    )
                )
                out.write("\n")


class WorkloadBus:
    """Timed stop and setup spans shared by the workloads' cold builds.

    Subclasses set ``bus``, ``registry`` and ``tracer`` and call
    ``_record_setup`` at the end of their build.
    """

    bus = registry = tracer = None
    setup_s = 0.0

    def _record_setup(self, start: float, parse: tuple[float, float], bus_start: float,
                      end: float) -> None:
        self.setup_s = end - start
        if self.tracer is not None:
            setup = self.tracer.add("bench.setup", start, end)
            self.tracer.add("config.parse_route_file", *parse, setup)
            self.tracer.add("routing.start", bus_start, end, setup)

    def stop(self) -> float:
        """``Bus.stop`` plus ``AgentRegistry.stop``; returns seconds taken."""
        start = now()
        self.bus.stop()
        bus_stopped = now()
        self.registry.stop()
        end = now()
        if self.tracer is not None:
            self.tracer.add("routing.stop", start, bus_stopped)
        return end - start


class Mismatch(Exception):
    """An output was wrong; the run stops measuring and reports failure."""


class Result:
    """Metrics of one run plus the outcome counts behind ``failed_ratio``."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def put_median(self, name: str, values, unit: str) -> None:
        self.put(name, median(values), unit, len(values))

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Add checked outcomes; raises ``Mismatch`` when any was wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            raise Mismatch(f"{what}: {failed} of {attempted} outcomes wrong")

    def put_spans(self, tracer: Tracer, names: dict[str, str]) -> None:
        """Median span duration in µs for each ``metric name -> span name``."""
        durations = tracer.durations_us()
        for metric, span_name in names.items():
            self.put_median(metric, durations[span_name], "us")


def warm_up(bus, inputs, size: int, result: Result, label: str) -> None:
    batch = inputs.batch(size)
    result.count(len(batch), bus.run_batch(batch)[1], f"{label} warm-up")


def cold_builds(build, inputs, repeats: int, messages: int, result: Result, label: str):
    """Build, drive ``messages``, drain and stop; returns (setup times, stop times)."""
    setups, stops = [], []
    baseline = threading.active_count()
    for _ in range(repeats):
        cold = build()
        traffic = inputs.batch(messages)
        result.count(len(traffic), cold.run_batch(traffic)[1], f"{label} setup traffic")
        stops.append(cold.stop())
        setups.append(cold.setup_s)
        settle(baseline)
    return setups, stops


def saturate(bus, inputs, size: int, result: Result, label: str, *,
             budget: float = 0.0, at_least: int = 3) -> list[float]:
    """Batches of ``size`` back to back for ``budget`` seconds; returns their rates."""
    rates = []
    start = now()
    while len(rates) < at_least or now() - start < budget:
        batch = inputs.batch(size)
        rate, wrong = bus.run_batch(batch)
        result.count(len(batch), wrong, f"{label} saturation")
        rates.append(rate)
        gc.collect()
    return rates


def saturate_alternately(buses, inputs, size: int, result: Result, label: str,
                         budget: float) -> list[list[float]]:
    """One batch on each bus in turn for ``budget`` seconds; rates per bus.

    Alternating keeps slow and fast stretches of the machine from landing
    on one bus only, so the buses' rates can be compared.
    """
    rates = [[] for _ in buses]
    start = now()
    while len(rates[0]) < 3 or now() - start < budget:
        for bus, out in zip(buses, rates):
            out += saturate(bus, inputs, size, result, label, at_least=1)
    return rates


def measure_rounds(build, inputs, seconds: float, result: Result, *, label: str,
                   setup_messages: int, batch: int, paced_rate: float) -> None:
    """End-to-end metrics with tracing off, in rounds until ``seconds`` pass.

    ``build()`` returns a started workload bus with ``setup_s``,
    ``run_batch``, ``run_paced`` and ``stop``. Each round makes cold builds
    (``setup_s``, ``stop_s``), saturation batches (``throughput_xps``) and a
    paced slice (``latency_*``) on a long-lived bus. On the shared 2-core
    machine the benchmark was tuned on, a fixed pure-Python loop took from
    6 to 9 ms for stretches of seconds to minutes; spreading every metric
    over the whole run, instead of one phase after another, keeps run
    medians close.
    """
    main = build()
    warm_up(main, inputs, batch // 4, result, label)
    setups, stops, rates, latencies = [], [], [], []
    start = now()
    while now() - start < seconds or len(rates) < 3:
        built, stopped = cold_builds(build, inputs, ROUND_BUILDS, setup_messages, result, label)
        setups += built
        stops += stopped
        rates += saturate(main, inputs, batch, result, label, at_least=ROUND_BATCHES)
        paced = inputs.batch(int(ROUND_PACED_S * paced_rate))
        lat, wrong, _ = main.run_paced(paced, paced_rate)
        result.count(len(paced), wrong, f"{label} paced")
        latencies += lat
        gc.collect()
    main.stop()
    result.put_median("setup_s", setups, "s")
    result.put_median("stop_s", stops, "s")
    result.put_median("throughput_xps", rates, "1/s")
    result.put("latency_p50_us", percentile(latencies, 50), "us", len(latencies))
    result.put("latency_p90_us", percentile(latencies, 90), "us", len(latencies))


def retained_per_exchange(bus, batch, result: Result, label: str, forget) -> dict[str, float]:
    """Bytes per exchange each masbus layer still holds after a drained batch.

    Runs ``bus.run_batch(batch)`` under tracemalloc; it is not timed.
    ``forget()`` drops what the benchmark itself kept of the batch, so only
    what the program retains is counted. Sizes are grouped by source file:
    ``routing.py``, ``environment.py`` and ``acl.py`` are their own layers,
    the rest of the package is ``other``, and ``total`` sums them.
    """
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.take_snapshot()
        created = bus.bus.exchanges_created
        result.count(len(batch), bus.run_batch(batch)[1], f"{label} retained")
        exchanges = bus.bus.exchanges_created - created
        forget()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = str(ROOT / "src" / "masbus")
    layers = {"routing": 0, "environment": 0, "acl": 0, "other": 0, "total": 0}
    for stat in after.compare_to(before, "filename"):
        filename = stat.traceback[0].filename
        if filename.startswith(package):
            name = Path(filename).stem
            layers[name if name in layers else "other"] += stat.size_diff
            layers["total"] += stat.size_diff
    return {layer: size / exchanges for layer, size in layers.items()}


def report_overhead(result: Result, traced, untraced) -> None:
    """Tracing cost: the traced run's throughput against an untraced one."""
    traced_xps, untraced_xps = median(traced), median(untraced)
    result.put("bench.traced_throughput_xps", traced_xps, "1/s", len(traced))
    result.put("bench.untraced_throughput_xps", untraced_xps, "1/s", len(untraced))
    result.put("bench.trace_overhead_pct", 100.0 * (untraced_xps / traced_xps - 1.0), "%", 2)


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def metadata(args, cpu: int, why: str) -> dict:
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_commit": git_commit(),
    }
