"""HTTP front end (and client) for the batch scheduling service.

Pure standard library -- :class:`http.server.ThreadingHTTPServer` on the
serving side, :mod:`urllib.request` on the client side -- so ``repro
serve`` / ``repro submit`` / ``repro worker`` add no dependencies.  The
wire format is the versioned JSON of :mod:`repro.serialize`.

Endpoints (all JSON; paths are routed on the *path* component, so query
strings are accepted and ignored):

========  =====================  ========================================
method    path                   meaning
========  =====================  ========================================
GET       /v2/health             liveness + version + job/fleet counters
GET       /v2/schema             the serialization schema (``repro schema``)
GET       /v2/jobs               status of every known job
POST      /v2/jobs               submit a job request; returns ``job_id``
GET       /v2/jobs/<id>          status of one job (result embedded when done)
DELETE    /v2/jobs/<id>          cancel a queued job
GET       /v2/runs               run-table rows (filters as query params)
GET       /v2/report             self-contained HTML report (``?format=csv``)
GET       /v2/workers            every registered fleet worker (coordinator)
POST      /v2/workers/register   register a worker; returns its identity
POST      /v2/workers/lease      pull one shard lease (``lease: null`` = idle)
POST      /v2/workers/heartbeat  renew a lease (``extended: false`` = lost)
POST      /v2/workers/complete   post a ``shard_result`` (or an error)
========  =====================  ========================================

The ``/v2/workers/*`` family is only served when the scheduler was built
with a :class:`~repro.service.coordinator.ShardCoordinator` (``repro
serve --coordinator``); otherwise it answers 503.  ``/v2/runs`` and
``/v2/report`` likewise require a :class:`~repro.store.db.RunDatabase`
(``repro serve --db``).

Malformed input never produces a traceback 500: a body that is not
valid JSON, not a JSON object, larger than the server's
``max_body_bytes``, or carries an unknown envelope type is answered
with a structured 400 (``{"error": ...}``); a full client quota is a
429.

The client helpers (:func:`fetch_json`, :func:`post_json`,
:func:`submit_job`, :func:`poll_job`) are what ``repro submit`` and the
worker loop run on.  ``fetch_json``/``post_json`` retry *transient*
transport failures (connection refused/reset, timeouts) with bounded
exponential backoff -- a blip must not kill an hours-long poll while the
job keeps running server-side.  HTTP-level errors (4xx/5xx) are real
answers and are never retried; ``submit_job`` also never retries, since
re-POSTing a submission that may have been accepted would double-submit.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro import serialize
from repro.service.batch import BatchScheduler, QuotaExceeded

__all__ = [
    "ServiceHTTPServer",
    "make_server",
    "fetch_json",
    "post_json",
    "submit_job",
    "poll_job",
]

#: Default bounded-retry budget of the JSON client helpers: up to this
#: many *extra* attempts after the first, with exponential backoff.
DEFAULT_RETRIES: int = 3

#: First-retry backoff in seconds; doubles per attempt.
DEFAULT_BACKOFF_S: float = 0.1

#: Default request-body ceiling.  Far above any legitimate job request
#: or shard completion, low enough that a runaway client cannot make a
#: handler thread buffer gigabytes.
DEFAULT_MAX_BODY_BYTES: int = 64 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one :class:`BatchScheduler`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], scheduler: BatchScheduler,
                 *, verbose: bool = False,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.verbose = verbose
        self.max_body_bytes = int(max_body_bytes)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: object) -> None:
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send(self, code: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _route(self) -> str:
        """The request's routing path: the path component alone.

        ``GET /v2/jobs?x=1`` must route exactly like ``GET /v2/jobs`` --
        clients legitimately append query strings (cache busters,
        tracing ids), and routing on the raw request target turned every
        one of them into a 404.
        """
        return urllib.parse.urlsplit(self.path).path.rstrip("/")

    def _job_id(self, path: str) -> Optional[str]:
        parts = path.split("/")
        # /v2/jobs/<id> -> ["", "v2", "jobs", "<id>"]
        if len(parts) == 4 and parts[1] == "v2" and parts[2] == "jobs":
            return parts[3]
        return None

    def _body(self) -> Dict:
        """The request body as a JSON object.

        Every malformed shape raises ``ValueError`` -- a non-integer or
        negative Content-Length, a body over the server's
        ``max_body_bytes``, invalid JSON, or JSON that is not an object
        -- so every route's handler turns it into a structured 400
        instead of an unhandled-traceback 500.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ValueError(
                f"Content-Length must be an integer, got "
                f"{self.headers.get('Content-Length')!r}"
            )
        if length < 0:
            raise ValueError(f"Content-Length must be >= 0, got {length}")
        limit = getattr(self.server, "max_body_bytes", DEFAULT_MAX_BODY_BYTES)
        if length > limit:
            raise ValueError(
                f"request body of {length} bytes exceeds the service's "
                f"{limit}-byte limit"
            )
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ValueError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    def _send_raw(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _db(self):
        db = getattr(self.server.scheduler, "db", None)
        if db is None:
            self._error(
                503,
                "this service has no run database "
                "(start it with 'repro serve --db PATH')",
            )
        return db

    def _report_query(self):
        """The URL query string as a validated ReportQuery."""
        from repro.report import ReportQuery

        params = urllib.parse.parse_qs(
            urllib.parse.urlsplit(self.path).query, keep_blank_values=False
        )
        params.pop("format", None)  # rendering knob, not a filter
        return ReportQuery.from_params(params)

    def _coordinator(self):
        coordinator = getattr(self.server.scheduler, "coordinator", None)
        if coordinator is None:
            self._error(
                503,
                "this service is not a fleet coordinator "
                "(start it with 'repro serve --coordinator')",
            )
        return coordinator

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        import repro

        scheduler = self.server.scheduler
        path = self._route()
        if path == "/v2/health":
            health = {
                "status": "ok",
                "version": repro.__version__,
                "schema": serialize.SCHEMA_VERSION,
                "n_jobs": len(scheduler.list_jobs()),
                "scheduler": scheduler.stats(),
            }
            if scheduler.coordinator is not None:
                health["fleet"] = scheduler.coordinator.stats()
            self._send(200, health)
            return
        if path == "/v2/schema":
            self._send(200, serialize.schema())
            return
        if path == "/v2/jobs":
            self._send(200, {"jobs": scheduler.list_jobs()})
            return
        if path == "/v2/runs":
            db = self._db()
            if db is None:
                return
            try:
                query = self._report_query()
            except ValueError as exc:
                self._error(400, str(exc))
                return
            rows = db.query_runs(
                configs=query.configs, policies=query.policies,
                tiers=query.tiers, loop=query.loop,
                since=query.since, until=query.until, limit=query.limit,
            )
            self._send(200, {"runs": [serialize.to_dict(row) for row in rows]})
            return
        if path == "/v2/report":
            db = self._db()
            if db is None:
                return
            from repro.report import build_report, render_csv, render_html

            try:
                query = self._report_query()
            except ValueError as exc:
                self._error(400, str(exc))
                return
            wants_csv = "format=csv" in urllib.parse.urlsplit(self.path).query
            data = build_report(db, query)
            if wants_csv:
                self._send_raw(200, render_csv(data.rows).encode("utf-8"),
                               "text/csv; charset=utf-8")
            else:
                self._send_raw(200, render_html(data).encode("utf-8"),
                               "text/html; charset=utf-8")
            return
        if path == "/v2/workers":
            coordinator = self._coordinator()
            if coordinator is None:
                return
            self._send(200, {
                "workers": [
                    serialize.to_dict(status) for status in coordinator.workers()
                ],
            })
            return
        job_id = self._job_id(path)
        if job_id is not None:
            try:
                status, result_text = scheduler.status_with_result_text(job_id)
            except KeyError:
                self._error(404, f"unknown job id {job_id!r}")
                return
            self._send_raw(200, _status_body(status, result_text),
                           "application/json")
            return
        self._error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path = self._route()
        if path == "/v2/jobs":
            try:
                job_id = self.server.scheduler.submit(self._body())
            except (ValueError, json.JSONDecodeError) as exc:
                self._error(400, str(exc))
                return
            except QuotaExceeded as exc:
                self._error(429, str(exc))
                return
            except RuntimeError as exc:  # shut down
                self._error(503, str(exc))
                return
            self._send(202, {"job_id": job_id})
            return
        if path.startswith("/v2/workers/"):
            self._post_workers(path)
            return
        self._error(404, f"unknown path {self.path!r}")

    def _post_workers(self, path: str) -> None:
        """The fleet protocol: register / lease / heartbeat / complete."""
        from repro.service.coordinator import CoordinatorClosed

        coordinator = self._coordinator()
        if coordinator is None:
            return
        try:
            body = self._body()
            if path == "/v2/workers/register":
                status = coordinator.register_worker(body.get("name"))
                self._send(200, {
                    "worker": serialize.to_dict(status),
                    "lease_timeout_s": coordinator.lease_timeout_s,
                })
                return
            if path == "/v2/workers/lease":
                lease = coordinator.acquire_lease(_required(body, "worker_id"))
                self._send(200, {
                    "lease": None if lease is None else serialize.to_dict(lease),
                })
                return
            if path == "/v2/workers/heartbeat":
                heartbeat = coordinator.heartbeat(
                    _required(body, "worker_id"), _required(body, "lease_id")
                )
                self._send(200, serialize.to_dict(heartbeat))
                return
            if path == "/v2/workers/complete":
                ack = coordinator.complete(
                    _required(body, "worker_id"),
                    _required(body, "lease_id"),
                    body.get("result"),
                    error=body.get("error"),
                )
                self._send(200, ack)
                return
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else "unknown id")
            return
        except (ValueError, serialize.SerializationError,
                json.JSONDecodeError) as exc:
            self._error(400, str(exc))
            return
        except CoordinatorClosed as exc:
            self._error(503, str(exc))
            return
        self._error(404, f"unknown path {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        job_id = self._job_id(self._route())
        if job_id is None:
            self._error(404, f"unknown path {self.path!r}")
            return
        try:
            cancelled = self.server.scheduler.cancel(job_id)
        except KeyError:
            self._error(404, f"unknown job id {job_id!r}")
            return
        self._send(200, {"job_id": job_id, "cancelled": cancelled})


def _status_body(status: Dict, result_text: Optional[str]) -> bytes:
    """A job's status as sorted-key JSON, its stored result text embedded.

    The result goes in verbatim, between the status keys that sort
    before and after ``"result"``.  For a result stored as sorted-key
    JSON, as the scheduler stores every result, the body is byte for
    byte the ``json.dumps(..., sort_keys=True)`` of the status with the
    decoded result in it, without the result being decoded or encoded.
    """
    if result_text is None:
        return json.dumps(status, sort_keys=True).encode("utf-8")
    before = json.dumps({k: v for k, v in status.items() if k < "result"},
                        sort_keys=True)
    after = json.dumps({k: v for k, v in status.items() if k > "result"},
                       sort_keys=True)
    # A status always has keys on both sides of "result" ("client" ...
    # "state"), so neither half is empty.
    return f'{before[:-1]}, "result": {result_text}, {after[1:]}'.encode("utf-8")


def _required(body: Dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"request body is missing required key {key!r}")
    return value


def make_server(
    scheduler: BatchScheduler,
    host: str = "127.0.0.1",
    port: int = 8734,
    *,
    verbose: bool = False,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> ServiceHTTPServer:
    """Bind the service to ``host:port`` (``port=0`` picks a free one)."""
    return ServiceHTTPServer((host, port), scheduler, verbose=verbose,
                             max_body_bytes=max_body_bytes)


# --------------------------------------------------------------------------- #
# Client helpers (what ``repro submit`` and the worker loop run on)
# --------------------------------------------------------------------------- #
def _request_json(
    url: str,
    *,
    data: Optional[Dict] = None,
    method: Optional[str] = None,
    timeout: float,
    retries: int,
    backoff: float,
    deadline: Optional[float] = None,
) -> Dict:
    """One JSON request with bounded retry on *transient* failures.

    Transient means the transport failed -- connection refused or reset,
    DNS blip, socket timeout -- i.e. no HTTP answer arrived at all;
    these retry up to ``retries`` extra times with exponential backoff
    (never past ``deadline``, a monotonic timestamp).  An HTTP error
    status is an answer and is raised immediately.
    """
    verb = method or ("POST" if data is not None else "GET")
    body = None if data is None else json.dumps(data).encode("utf-8")
    attempt = 0
    while True:
        request = urllib.request.Request(
            url, data=body,
            headers={"Content-Type": "application/json"} if body else {},
            method=verb,
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            raise RuntimeError(f"{verb} {url} failed: {exc.code} {detail}") from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
            attempt += 1
            delay = backoff * (2 ** (attempt - 1))
            out_of_time = (
                deadline is not None and time.monotonic() + delay >= deadline
            )
            if attempt > retries or out_of_time:
                reason = getattr(exc, "reason", exc)
                raise RuntimeError(
                    f"{verb} {url} failed after {attempt} attempt(s): {reason}"
                ) from exc
            time.sleep(delay)


def fetch_json(
    url: str,
    *,
    timeout: float = 10.0,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF_S,
    deadline: Optional[float] = None,
) -> Dict:
    """GET one JSON document (raises ``RuntimeError`` on HTTP errors).

    Transient transport failures retry ``retries`` times with
    exponential ``backoff`` (see :func:`post_json`); pass ``retries=0``
    for the old fail-fast behaviour.
    """
    return _request_json(
        url, timeout=timeout, retries=retries, backoff=backoff,
        deadline=deadline,
    )


def post_json(
    url: str,
    data: Dict,
    *,
    timeout: float = 10.0,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF_S,
    deadline: Optional[float] = None,
) -> Dict:
    """POST one JSON object and return the JSON answer, with retry.

    Only use on idempotent endpoints (the whole ``/v2/workers/*`` family
    is; job submission is *not* -- that is why :func:`submit_job` never
    retries).
    """
    return _request_json(
        url, data=data, timeout=timeout, retries=retries, backoff=backoff,
        deadline=deadline,
    )


def submit_job(base_url: str, request: Dict, *, timeout: float = 10.0) -> str:
    """POST a job request; returns the job id.

    Deliberately retry-free: a submission whose response was lost may
    still have been accepted, and blindly re-POSTing it would enqueue
    the job twice.  Callers that want robust submission should check
    ``GET /v2/jobs`` before retrying.
    """
    payload = post_json(
        f"{base_url.rstrip('/')}/v2/jobs", request,
        timeout=timeout, retries=0,
    )
    return payload["job_id"]


def poll_job(
    base_url: str,
    job_id: str,
    *,
    poll_interval: float = 0.25,
    timeout: float = 300.0,
    progress=None,
) -> Dict:
    """Poll one job until it reaches a terminal state; returns its status.

    ``progress`` (optional callable) receives every status snapshot whose
    progress counters changed.  Raises ``TimeoutError`` when the deadline
    passes first.

    Transient fetch failures (a connection reset, a coordinator restart)
    are retried with backoff *inside* the poll deadline instead of
    killing the poll -- the job keeps running server-side either way, so
    giving up on a blip threw away an arbitrarily long wait.
    """
    deadline = time.monotonic() + timeout
    last_progress: Optional[Dict] = None
    base = base_url.rstrip("/")
    while True:
        status = fetch_json(
            f"{base}/v2/jobs/{job_id}",
            retries=DEFAULT_RETRIES, backoff=max(poll_interval, DEFAULT_BACKOFF_S),
            deadline=deadline,
        )
        if progress is not None and status.get("progress") != last_progress:
            last_progress = status.get("progress")
            progress(status)
        if status.get("state") not in ("queued", "running"):
            return status
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"job {job_id} did not finish within {timeout:.0f}s "
                f"(last state: {status.get('state')})"
            )
        time.sleep(poll_interval)
