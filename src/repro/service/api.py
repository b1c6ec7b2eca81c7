"""HTTP/JSON surface of the tuning service (stdlib ``http.server`` only).

Routes::

    GET  /v1/health              liveness probe
    GET  /v1/jobs                paginated job listing (``?offset=&limit=``,
                                 stable (tenant, seq) order) + queued snapshot
    POST /v1/experiments         submit one ExperimentSpec payload
    POST /v1/campaigns           submit one CampaignSpec payload
    GET  /v1/jobs/{id}           manifest-backed status (attempts, leases)
    GET  /v1/jobs/{id}/events    live progress as NDJSON (one JSON per line)
    GET  /v1/jobs/{id}/report    campaign report tables as JSON (cached by
                                 manifest fingerprint while unchanged)

Submission bodies are ``{"tenant": "...", "spec": {...}}`` /
``{"tenant": "...", "campaign": {...}}``; ``tenant`` defaults to
``"default"``.  Validation failures surface the spec layer's key-naming
error messages verbatim as ``{"error": ...}`` 400 bodies — that is why
:meth:`ExperimentSpec.from_dict` names the offending field.

The events stream replays the job's buffered history, then follows live
until the job reaches a terminal state (or the optional ``timeout_s`` /
``max_events`` query bounds hit).  Responses carry no content-length and
close the connection to mark the end of the stream — NDJSON over plain
HTTP needs nothing fancier, and every line is one complete JSON object.
"""

from __future__ import annotations

import json
import queue as queue_module
import re
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

#: largest accepted request body; a campaign grid spec is a few KB.
MAX_BODY_BYTES = 1 << 20

_JOB_ROUTE = re.compile(r"^/v1/jobs/([^/]+)(/events|/report)?$")


class ApiError(Exception):
    """An HTTP-visible failure: status code plus a JSON error body."""

    def __init__(self, status: int, message: str,
                 details: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.details = details

    def body(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.message}
        if self.details:
            body.update(self.details)
        return body


def _dumps(document: Any) -> bytes:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline.

    ``campaign report --json`` uses the identical serialization, so the CI
    smoke can byte-diff the HTTP report against the CLI report.
    """
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


def make_handler(service) -> type:
    """Build the request-handler class bound to *service*.

    ``BaseHTTPRequestHandler`` is instantiated per request by the server,
    so the service reference is carried through a closure rather than an
    attribute protocol.
    """

    class Handler(BaseHTTPRequestHandler):
        # keep-alive for the JSON endpoints; event streams opt out.
        protocol_version = "HTTP/1.1"
        server_version = "repro-tuning"
        # _send_json writes headers and body in two sends; with Nagle on, a
        # keep-alive client's delayed ACK holds the body back ~40 ms.
        disable_nagle_algorithm = True

        # -- plumbing -------------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:
            # requests are the service's steady state; stay quiet unless
            # the server wants access logs (tests don't).
            pass

        def _send_json(self, status: int, document: Any) -> None:
            payload = _dumps(document)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _read_body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                raise ApiError(400, "request body required")
            if length > MAX_BODY_BYTES:
                raise ApiError(413, "request body too large")
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ApiError(400, "request body is not valid JSON: "
                               "{}".format(error))
            if not isinstance(body, dict):
                raise ApiError(400, "request body must be a JSON object "
                               "(got {})".format(type(body).__name__))
            return body

        def _payload(self, body: Dict[str, Any],
                     key: str) -> Tuple[str, Dict[str, Any]]:
            tenant = body.get("tenant", "default")
            if not isinstance(tenant, str):
                raise ApiError(400, "field 'tenant' must be a string "
                               "(got {})".format(type(tenant).__name__))
            if key not in body:
                raise ApiError(400, "field {!r} required".format(key))
            extra = sorted(set(body) - {"tenant", key})
            if extra:
                raise ApiError(400, "unknown fields: {}".format(
                    ", ".join(extra)))
            return tenant, body[key]

        # -- routes ---------------------------------------------------------
        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            try:
                path = urlparse(self.path).path
                body = self._read_body()
                if path == "/v1/experiments":
                    tenant, payload = self._payload(body, "spec")
                    document = service.submit_experiment(tenant, payload)
                elif path == "/v1/campaigns":
                    tenant, payload = self._payload(body, "campaign")
                    document = service.submit_campaign(tenant, payload)
                else:
                    raise ApiError(404, "no such endpoint: POST {}".format(
                        path))
                self._send_json(201, document)
            except ApiError as error:
                self._send_json(error.status, error.body())
            except Exception as error:  # noqa: BLE001 - HTTP boundary
                self._send_json(500, {"error": "{}: {}".format(
                    type(error).__name__, error)})

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            try:
                parsed = urlparse(self.path)
                path = parsed.path
                if path == "/v1/health":
                    self._send_json(200, {"status": "ok"})
                    return
                if path == "/v1/jobs":
                    query = parse_qs(parsed.query)
                    offset = self._int_param(query, "offset", minimum=0)
                    limit = self._int_param(query, "limit", minimum=1)
                    self._send_json(200, service.list_jobs(
                        offset=0 if offset is None else offset, limit=limit))
                    return
                match = _JOB_ROUTE.match(path)
                if not match:
                    raise ApiError(404, "no such endpoint: GET {}".format(
                        path))
                job_id, view = match.group(1), match.group(2)
                if view == "/events":
                    self._stream_events(job_id, parse_qs(parsed.query))
                elif view == "/report":
                    self._send_json(200, service.job_report(job_id))
                else:
                    self._send_json(200, service.job_status(job_id))
            except ApiError as error:
                self._send_json(error.status, error.body())
            except BrokenPipeError:
                pass  # client went away mid-stream; nothing to answer
            except Exception as error:  # noqa: BLE001 - HTTP boundary
                self._send_json(500, {"error": "{}: {}".format(
                    type(error).__name__, error)})

        @staticmethod
        def _int_param(query: Dict[str, Any], key: str,
                       minimum: int) -> Optional[int]:
            """Validated integer query parameter; ``None`` when absent."""
            values = query.get(key)
            if not values:
                return None
            try:
                value = int(values[0])
            except ValueError:
                raise ApiError(400, "query parameter {!r} must be an "
                               "integer (got {!r})".format(key, values[0]))
            if value < minimum:
                raise ApiError(400, "query parameter {!r} must be >= "
                               "{}".format(key, minimum))
            return value

        def _stream_events(self, job_id: str,
                           query: Dict[str, Any]) -> None:
            def _float(key: str) -> Optional[float]:
                values = query.get(key)
                if not values:
                    return None
                try:
                    value = float(values[0])
                except ValueError:
                    raise ApiError(400, "query parameter {!r} must be a "
                                   "number (got {!r})".format(key, values[0]))
                if value <= 0:
                    raise ApiError(400, "query parameter {!r} must be "
                                   "positive".format(key))
                return value

            timeout_s = _float("timeout_s")
            max_events = _float("max_events")
            bus = service.job_events(job_id)
            subscriber = bus.subscribe()
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Cache-Control", "no-store")
            # end-of-stream is marked by closing the connection.
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            sent = 0
            try:
                while True:
                    try:
                        event = subscriber.get(timeout=timeout_s)
                    except queue_module.Empty:
                        break
                    if event is None:
                        break
                    line = json.dumps(event, sort_keys=True) + "\n"
                    self.wfile.write(line.encode())
                    self.wfile.flush()
                    sent += 1
                    if max_events is not None and sent >= max_events:
                        break
            finally:
                bus.unsubscribe(subscriber)

    return Handler
