"""Command line front end.

Commands and exit codes::

    masbus validate <routes.xml> [--alias scheme=component ...]
        0 ok, 2 parse error (diagnostic cites line:col), 3 unresolved scheme
    masbus run <routes.xml> [--trace] [--simulated-time] [--alias ...]
        0 after clean interrupt, 2 parse error, 3 unresolved scheme,
        4 start failure (bind conflict, unknown transform, ...)
    masbus scenario <config.json> [--report-out <path>] [--simulated-time]
        0 ok, 2 bad config, 5 report violations (listed on stderr),
        6 stage timeout

``run`` keeps the bus alive until SIGINT; ``--trace`` prints one stable line
per delivery: ``exchange=<id> route=<id> from=<uri> to=<uri>``.
"""

from __future__ import annotations

import argparse
import sys
import threading

from .acl import AgentRegistry
from .clock import SimulatedClock
from .components import BUILTIN_SCHEMES, register_builtin_components
from .config import parse_route_file
from .environment import Environment
from .errors import BusError, RouteConfigError, ScenarioConfigError, StageTimeoutError
from .routing import Bus
from .scenario import ScenarioConfig, assert_report, run_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SCHEME = 3
EXIT_START = 4
EXIT_VIOLATIONS = 5
EXIT_TIMEOUT = 6


def _parse_aliases(pairs) -> dict[str, str]:
    aliases = {}
    for pair in pairs or ():
        scheme, sep, component = pair.partition("=")
        if not sep or not scheme or not component:
            raise ValueError(f"--alias needs scheme=component, got {pair!r}")
        aliases[scheme] = component
    return aliases


def _unresolved_schemes(route_file, aliases) -> list[str]:
    known = set(BUILTIN_SCHEMES)
    missing = []
    for definition in route_file.routes:
        for uri in (definition.from_uri, *definition.to_uris):
            resolved = aliases.get(uri.scheme, uri.scheme)
            if resolved not in known and resolved not in missing:
                missing.append(resolved)
    return missing


def _load(args):
    """``(route_file, aliases, EXIT_OK)``, or ``(None, None, code)`` after a diagnostic.

    ``--alias`` pairs override the file's own aliases.
    """
    try:
        cli_aliases = _parse_aliases(args.alias)
        with open(args.route_file, "r", encoding="utf-8") as fh:
            route_file = parse_route_file(fh.read())
    except (OSError, ValueError, RouteConfigError) as err:
        print(f"{args.route_file}: {err}", file=sys.stderr)
        return None, None, EXIT_PARSE
    aliases = {**route_file.aliases, **cli_aliases}
    missing = _unresolved_schemes(route_file, aliases)
    if missing:
        print(
            f"{args.route_file}: unresolved scheme(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return None, None, EXIT_SCHEME
    return route_file, aliases, EXIT_OK


def cmd_validate(args) -> int:
    route_file, _, code = _load(args)
    if code == EXIT_OK:
        print(f"{args.route_file}: {len(route_file.routes)} route(s) ok")
    return code


def cmd_run(args) -> int:
    route_file, aliases, code = _load(args)
    if code != EXIT_OK:
        return code
    clock = SimulatedClock() if args.simulated_time else None
    environment = Environment()
    registry = AgentRegistry(environment)
    bus = Bus(clock=clock)
    register_builtin_components(bus, registry, environment)
    for scheme, component in aliases.items():
        bus.register_alias(scheme, component)
    if args.trace:
        def trace(exchange, route_id, endpoint):
            source = exchange.trace[0] if exchange.trace else "?"
            print(
                f"exchange={exchange.id} route={route_id} from={source} to={endpoint}",
                flush=True,
            )

        bus.add_delivery_listener(trace)
    try:
        for definition in route_file.routes:
            bus.add_route(definition)
        bus.start()
    except (BusError, OSError) as err:
        print(f"start failed: {err}", file=sys.stderr)
        return EXIT_START
    print(f"bus running with {len(route_file.routes)} route(s); Ctrl-C to stop", flush=True)

    stop_driving = threading.Event()
    if args.simulated_time:
        # drive scheduled timers in logical order, paced so shutdown can
        # always drain what the clock produced
        def drive():
            while not stop_driving.is_set():
                fired = clock.fire_next()
                stop_driving.wait(0.001 if fired else 0.01)

        threading.Thread(target=drive, name="sim-driver", daemon=True).start()
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        stop_driving.set()
        bus.stop()
        registry.stop()
    return EXIT_OK


def cmd_scenario(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = ScenarioConfig.from_json(fh.read())
        cfg.validate()
    except (OSError, ScenarioConfigError) as err:
        print(f"{args.config}: {err}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = run_scenario(cfg, simulated=args.simulated_time)
    except StageTimeoutError as err:
        print(f"scenario timed out: {err}", file=sys.stderr)
        if err.report is not None:
            _write_report(err.report, args.report_out)
        return EXIT_TIMEOUT
    _write_report(report, args.report_out)
    violations = assert_report(report, cfg)
    if violations:
        for violation in violations:
            print(f"violation: {violation}", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def _write_report(report, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masbus", description="Run and validate integration-bus route files."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a route file and its schemes")
    p_validate.add_argument("route_file")
    p_validate.add_argument("--alias", action="append", metavar="SCHEME=COMPONENT")
    p_validate.set_defaults(fn=cmd_validate)

    p_run = sub.add_parser("run", help="start a bus from a route file")
    p_run.add_argument("route_file")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--simulated-time", action="store_true")
    p_run.add_argument("--alias", action="append", metavar="SCHEME=COMPONENT")
    p_run.set_defaults(fn=cmd_run)

    p_scenario = sub.add_parser("scenario", help="run the delivery scenario from a config")
    p_scenario.add_argument("config")
    p_scenario.add_argument("--report-out")
    p_scenario.add_argument("--simulated-time", action="store_true")
    p_scenario.set_defaults(fn=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def console_main() -> None:
    sys.exit(main())
