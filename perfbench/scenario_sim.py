"""scenario_sim: back-to-back runs of the five-stage scenario, simulated time.

The only workload that exercises ``tcpline``, ``httplite``, the HTTP stubs
and the whole bus lifecycle. About 499 ms of each ~509 ms run is teardown
of the two HTTP stubs after stage ``v``.

Every run gets its own config from ``ScenarioConfig.generate`` with a seed
drawn from the run seed, and is checked with ``assert_report``. The
end-to-end metrics map onto the shared names as follows: ``setup_s`` is the
time from the ``run_scenario`` call until stage ``i`` is marked (build,
start and the first TCP line handled), ``latency_p50_us`` the time until
stage ``v`` (``scenario_work_s``), ``stop_s`` the time from stage ``v`` until
the call returns, and ``throughput_xps`` runs per second at the median run's
wall time (``1 / scenario_s``).
"""

from __future__ import annotations

import gc
import random

from masbus import ScenarioConfig, assert_report, run_scenario
from masbus.errors import StageTimeoutError
from masbus.scenario import STAGES

from harness import Result, Tracer, median, now, percentile, report_overhead

MIN_RUNS = 3


def _run(cfg: ScenarioConfig, result: Result, tracer: Tracer | None) -> list[float]:
    """One checked run; returns [call, stage i .. stage v, return] stamps."""
    called = now()
    try:
        report = run_scenario(cfg, simulated=True)
    except StageTimeoutError as err:
        result.count(1, 1, f"scenario seed {cfg.seed}: {err}")
    returned = now()
    violations = assert_report(report, cfg)
    result.count(1, 1 if violations else 0, f"scenario seed {cfg.seed}: {violations}")
    stamps = [called, *(report.stage_timestamps[s] for s in STAGES), returned]
    if tracer is not None:
        run = tracer.add("scenario.run", called, returned, ref=cfg.seed)
        names = [f"scenario.stage_{s}" for s in STAGES] + ["scenario.after_v"]
        for name, begin, end in zip(names, stamps, stamps[1:]):
            tracer.add(name, begin, end, run, cfg.seed)
    gc.collect()
    return stamps


def _configs(seed: int):
    rng = random.Random(seed)
    while True:
        yield ScenarioConfig.generate(rng.randrange(1 << 30))


def _rate(runs) -> float:
    # a run's HTTP teardown sometimes waits one more 0.5 s poll of the stub
    # servers; runs per second from the median wall time ignores those
    return 1.0 / median([r[6] - r[0] for r in runs])


def measure(seed: int, seconds: float, result: Result) -> None:
    """End-to-end metrics with tracing off."""
    configs = _configs(seed)
    runs = []
    start = now()
    while len(runs) < MIN_RUNS or now() - start < seconds:
        runs.append(_run(next(configs), result, None))
    work_us = [(r[5] - r[0]) * 1e6 for r in runs]
    result.put_median("setup_s", [r[1] - r[0] for r in runs], "s")
    result.put_median("stop_s", [r[6] - r[5] for r in runs], "s")
    result.put("throughput_xps", _rate(runs), "1/s", len(runs))
    result.put("latency_p50_us", percentile(work_us, 50), "us", len(runs))
    result.put("latency_p90_us", percentile(work_us, 90), "us", len(runs))
    result.put_median("scenario_s", [r[6] - r[0] for r in runs], "s")
    result.put_median("scenario_work_s", [w / 1e6 for w in work_us], "s")


def trace(seed: int, seconds: float, result: Result, tracer: Tracer, own: bool) -> None:
    """Per-stage times of the scenario, from its report's stage timestamps.

    As the named workload it alternates traced and untraced runs, whose
    rates give the tracing overhead.
    """
    configs = _configs(seed)
    traced, plain = [], []
    start = now()
    while len(traced) < MIN_RUNS or now() - start < seconds:
        traced.append(_run(next(configs), result, tracer))
        if own:
            plain.append(_run(next(configs), result, None))
    names = {f"scenario.stage_{s}_us": f"scenario.stage_{s}" for s in STAGES}
    names["scenario.after_v_us"] = "scenario.after_v"
    result.put_spans(tracer, names)
    if own:
        report_overhead(result, [1.0 / (r[6] - r[0]) for r in traced],
                        [1.0 / (r[6] - r[0]) for r in plain])
