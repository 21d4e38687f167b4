#!/usr/bin/env python3
"""Benchmark of the masbus integration bus, run from the repository root.

One workload per run::

    python3 perfbench/run.py --workload direct_fanin --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` records spans around the public calls into each layer and
reports the per-layer metrics instead: the named workload runs for
``--seconds`` and the other two run as short probes, so every layer is
measured in every traced run. Spans are written to
``.perfbench_out/spans-<workload>-<job>.jsonl``.

Every workload at once, end-to-end metrics only::

    python3 perfbench/run.py --all --seed 1 --seconds 10

Rewrite ``BENCHMARK.json`` from the tables below::

    python3 perfbench/run.py --write-spec

The process pins itself to one CPU before any thread starts. The last line
of standard output is the JSON result; the exit code is non-zero when any
output was wrong.
"""

from __future__ import annotations

import argparse
import json
import logging
import subprocess
import sys

import harness
from harness import OUT_DIR, ROOT, Mismatch, Result, Tracer

RUN_SECONDS = 30
PROBE_SECONDS = 1.0

WORKLOADS = {
    "direct_fanin": (
        "eight direct routes fan in to one sink: the routing engine's per-exchange "
        "overhead, with terms, environment and acl idle"
    ),
    "track_notify": (
        "mqtt waypoints to a tracker artifact, agents tell a dummy, reply over mqtt: "
        "terms, environment and acl dominate"
    ),
    "scenario_sim": (
        "the five-stage scenario back to back: the only user of tcpline, httplite, "
        "the HTTP stubs and the full bus lifecycle"
    ),
}

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("stop_s", "s", "lower", 0.25),
    ("throughput_xps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
)

# name, unit, better
PER_LAYER = (
    ("terms.parse_us", "us", "lower"),
    ("terms.render_us", "us", "lower"),
    ("uris.format_us", "us", "lower"),
    ("uris.format_calls_per_exchange", "count", "lower"),
    ("config.parse_route_file_us", "us", "lower"),
    ("routing.admit_us", "us", "lower"),
    ("routing.queue_wait_us", "us", "lower"),
    ("routing.chain_us", "us", "lower"),
    ("routing.hop_us", "us", "lower"),
    ("routing.backlog_max", "count", "lower"),
    ("routing.idle_lag_us", "us", "lower"),
    ("routing.start_us", "us", "lower"),
    ("routing.stop_us", "us", "lower"),
    ("routing.one_route_xps", "1/s", "higher"),
    ("routing.dead_letters", "count", "lower"),
    ("routing.dropped", "count", "lower"),
    ("components.mqtt_publish_us", "us", "lower"),
    ("components.artifact_hop_us", "us", "lower"),
    ("components.reply_hop_us", "us", "lower"),
    ("environment.execute_op_us", "us", "lower"),
    ("environment.percepts_per_op", "count", "lower"),
    ("acl.wake_us", "us", "lower"),
    ("acl.react_us", "us", "lower"),
    ("acl.dummy_send_us", "us", "lower"),
    ("scenario.stage_i_us", "us", "lower"),
    ("scenario.stage_ii_us", "us", "lower"),
    ("scenario.stage_iii_us", "us", "lower"),
    ("scenario.stage_iv_us", "us", "lower"),
    ("scenario.stage_v_us", "us", "lower"),
    ("scenario.after_v_us", "us", "lower"),
    ("retained.fanin_bytes_per_exchange", "bytes", "lower"),
    ("retained.track_bytes_per_exchange", "bytes", "lower"),
    ("retained.routing_bytes_per_exchange", "bytes", "lower"),
    ("retained.environment_bytes_per_exchange", "bytes", "lower"),
    ("retained.acl_bytes_per_exchange", "bytes", "lower"),
    ("bench.generator_late_us", "us", "lower"),
    ("bench.fanin_latency_p90_us", "us", "lower"),
    ("bench.track_latency_p90_us", "us", "lower"),
    ("bench.traced_throughput_xps", "1/s", "higher"),
    ("bench.untraced_throughput_xps", "1/s", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
)


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def load_masbus() -> None:
    """Import masbus from this checkout's ``src`` and silence its logging.

    The dead letters the workloads provoke on purpose log warnings; a
    ``NullHandler`` keeps them off stderr while timing.
    """
    src = ROOT / "src"
    if not (src / "masbus" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no masbus sources under {src}")
    sys.path.insert(0, str(src))
    import masbus

    if not masbus.__file__.startswith(str(src)):
        raise SystemExit(f"perfbench: masbus imported from {masbus.__file__}, not {src}")
    logging.getLogger("masbus").addHandler(logging.NullHandler())


def run_workload(args) -> int:
    cpu = harness.pin_to_one_cpu()
    load_masbus()
    import fanin
    import scenario_sim
    import track

    jobs = {"direct_fanin": fanin, "track_notify": track, "scenario_sim": scenario_sim}
    result = Result()
    table = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            for name, module in sorted(jobs.items(), key=lambda item: item[0] != args.workload):
                own = name == args.workload
                tracer = Tracer()
                module.trace(args.seed, args.seconds if own else PROBE_SECONDS, result, tracer, own)
                tracer.write(OUT_DIR / f"spans-{args.workload}-{name}.jsonl")
        else:
            jobs[args.workload].measure(args.seed, args.seconds, result)
    except Mismatch as wrong:
        mismatch = str(wrong)
        print(f"perfbench: wrong output, measuring stopped: {mismatch}", file=sys.stderr)
    else:
        mismatch = None
        missing = [row[0] for row in table if row[0] not in result.metrics]
        if missing:
            raise SystemExit(f"perfbench: metrics not measured: {missing}")
    meta = harness.metadata(args, cpu, WORKLOADS[args.workload])
    meta["samples"] = {name: n for name, (_, _, n) in result.metrics.items()}
    meta["failed_ratio"] = result.failed / max(1, result.attempted)
    meta["mismatch"] = mismatch
    print(json.dumps(meta))
    for name, (value, unit, samples) in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    print(f"{args.workload} failed_ratio = {meta['failed_ratio']:.6g} 1 (n={result.attempted})")

    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": unit}
            for name, unit, *_ in table
            if name in result.metrics
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as out:
        json.dump({"meta": meta, "result": line, "all_metrics": result.metrics}, out, indent=1)
    print(json.dumps(line))
    return 0 if result.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own pinned process, end-to-end metrics only."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = [ln for ln in done.stdout.splitlines() if ln.startswith(workload + " ")]
        print("\n".join(lines))
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload, --all or --write-spec is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
