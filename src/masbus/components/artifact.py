"""Environment-side bridge between artifacts and route exchanges.

Consumer side (``from "artifact:<workspace>?artifactName=X"``): attaches to
artifact X's outbox; each outbound payload becomes an exchange carrying the
payload headers plus ``ArtifactName``.

Producer side (``to "artifact:<workspace>"``): reads the target from the
exchange headers ``ArtifactName`` and ``OperationName`` (exact, case
sensitive spelling), falling back to the ``artifactName``/``operationName``
URI parameters, and executes the operation with the body as parameters: a
list body maps element-wise, anything else becomes the single parameter.

The workspace path ``cartago`` is an alias for the environment's default
workspace.
"""

from __future__ import annotations

from ..environment import (
    DEFAULT_WORKSPACE,
    Environment,
    OperationRequest,
    OutboundPayload,
    RouteOrigin,
)
from ..errors import (
    MissingArtifactNameError,
    MissingOperationNameError,
    OperationFailedError,
)
from ..terms import ListTerm, String, Term, term_text
from .base import Component, Consumer, Producer, require_param

CARTAGO_ALIAS = "cartago"

ARTIFACT_HEADER = "ArtifactName"
OPERATION_HEADER = "OperationName"


def _workspace_of(uri) -> str:
    path = uri.path
    return DEFAULT_WORKSPACE if not path or path == CARTAGO_ALIAS else path


class _ArtifactConsumer(Consumer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.environment: Environment = component.environment
        self.workspace = _workspace_of(ctx.uri)
        self.artifact_name = require_param(ctx.uri, "artifactName")

    def start(self):
        # raises UnknownArtifactError at route start when misconfigured
        self.environment.artifact(self.artifact_name, self.workspace)
        self.environment.attach_outbox_consumer(
            self.artifact_name, self._deliver, self.workspace
        )

    def stop(self):
        try:
            self.environment.detach_outbox_consumer(self.artifact_name, self.workspace)
        except Exception:
            pass

    def _deliver(self, payload: OutboundPayload):
        headers = payload.header_map()
        headers[ARTIFACT_HEADER] = String(self.artifact_name)
        self.ctx.emit(self.ctx.new_exchange(body=payload.body, headers=headers))


class _ArtifactProducer(Producer):
    def __init__(self, ctx, component):
        super().__init__(ctx)
        self.environment: Environment = component.environment
        self.workspace = _workspace_of(ctx.uri)
        self.origin = RouteOrigin(ctx.route_id)

    def _resolve(self, exchange, header: str, param: str, error) -> str:
        value: Term | None = exchange.headers.get(header)
        if value is not None:
            return term_text(value)
        fallback = self.uri.params.get(param)
        if fallback:
            return fallback
        raise error(f"neither header {header!r} nor URI parameter {param!r} present")

    def send(self, exchange):
        artifact = self._resolve(
            exchange, ARTIFACT_HEADER, "artifactName", MissingArtifactNameError
        )
        operation = self._resolve(
            exchange, OPERATION_HEADER, "operationName", MissingOperationNameError
        )
        body = exchange.body
        params = tuple(body.items) if isinstance(body, ListTerm) else (body,)
        request = OperationRequest(
            artifact_name=artifact,
            operation_name=operation,
            params=params,
            origin=self.origin,
            workspace=self.workspace,
        )
        result = self.environment.execute_op(request)
        if not result.ok:
            raise OperationFailedError(result.reason)


class ArtifactComponent(Component):
    def __init__(self, environment: Environment):
        self.environment = environment

    def create_consumer(self, ctx):
        return _ArtifactConsumer(ctx, self)

    def create_producer(self, ctx):
        return _ArtifactProducer(ctx, self)
