"""Integration bus for multi-agent systems.

External autonomous entities join the system as dummy agents addressed with
ordinary speech-act messages; non-autonomous ones appear as artifacts whose
operations and observable properties bridge to protocol endpoints. Routes
move exchanges between pluggable components (in-process, TCP, HTTP, pub/sub,
chat) declared in XML or built fluently.
"""

from .acl import (
    AclMessage,
    AgentBehavior,
    AgentContext,
    AgentRegistry,
    ArtifactOp,
    Delivery,
    Focus,
    Log,
    Performative,
    Send,
)
from .clock import SimulatedClock, WallClock
from .config import (
    RouteBuilder,
    constant,
    parse_route_file,
    parse_routes_xml,
    render_routes_xml,
)
from .environment import (
    AgentOrigin,
    Artifact,
    ArtifactTemplate,
    Environment,
    OpContext,
    OperationRequest,
    OpResult,
    OutboundPayload,
    Percept,
    PropertyChanged,
    RouteOrigin,
    SignalPercept,
    counter_template,
    great_circle_km,
    tracker_template,
)
from .routing import (
    Bus,
    Exchange,
    RouteDefinition,
    SetHeader,
    Transform,
)
from .scenario import ScenarioConfig, ScenarioReport, assert_report, run_scenario
from .terms import (
    Atom,
    ListTerm,
    Number,
    String,
    Structure,
    Term,
    coerce_term,
    parse_term,
    render_term,
    structure,
    term_text,
)
from .uris import EndpointUri, format_uri, parse_uri

__version__ = "0.1.0"

__all__ = [
    "AclMessage",
    "AgentBehavior",
    "AgentContext",
    "AgentOrigin",
    "AgentRegistry",
    "Artifact",
    "ArtifactOp",
    "ArtifactTemplate",
    "Atom",
    "Bus",
    "Delivery",
    "EndpointUri",
    "Environment",
    "Exchange",
    "Focus",
    "ListTerm",
    "Log",
    "Number",
    "OpContext",
    "OperationRequest",
    "OpResult",
    "OutboundPayload",
    "Percept",
    "Performative",
    "PropertyChanged",
    "RouteBuilder",
    "RouteDefinition",
    "RouteOrigin",
    "ScenarioConfig",
    "ScenarioReport",
    "Send",
    "SetHeader",
    "SignalPercept",
    "SimulatedClock",
    "String",
    "Structure",
    "Term",
    "Transform",
    "WallClock",
    "assert_report",
    "coerce_term",
    "constant",
    "counter_template",
    "format_uri",
    "great_circle_km",
    "parse_route_file",
    "parse_routes_xml",
    "parse_term",
    "parse_uri",
    "render_routes_xml",
    "render_term",
    "run_scenario",
    "structure",
    "term_text",
    "tracker_template",
]
