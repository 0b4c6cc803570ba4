"""HTTP front end (and client) for the batch scheduling service.

Pure standard library -- :class:`http.server.ThreadingHTTPServer` on the
serving side, :mod:`http.client` on the client side -- so ``repro
serve`` / ``repro submit`` / ``repro worker`` add no dependencies.  The
wire format is the versioned JSON of :mod:`repro.serialize`.

Connections persist (HTTP/1.1, ``TCP_NODELAY`` on both ends): the server
answers any number of requests on one connection, and each client thread
keeps one connection open for its next call, so a job no longer pays a
TCP handshake and a server thread per request.  A URL that urllib would
send through an environment proxy (``http_proxy`` and friends, minus
``no_proxy``) still goes through :mod:`urllib.request`, one connection
per call.  See "Transport" in ``docs/service.md``.

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
A request that finds its kept connection closed by the server before any
answer arrives is sent once more on a fresh connection -- outside the
retry budget, and never for ``submit_job`` (RFC 9112 section 9.3.1).
"""

from __future__ import annotations

import functools
import http.client
import json
import select
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Set, Tuple

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
    """An HTTP server bound to one :class:`BatchScheduler`.

    Each accepted connection is served by one daemon thread for as long
    as the client keeps it open.  :meth:`server_close` ends every open
    connection and joins its thread.
    """

    def __init__(self, address: Tuple[str, int], scheduler: BatchScheduler,
                 *, verbose: bool = False,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES) -> None:
        # Set before binding: a failed bind calls server_close().
        self._lock = threading.Lock()
        #: Accepted sockets not yet closed by their handler thread.
        self._connections: Set[socket.socket] = set()
        #: Handler threads, pruned of finished ones at each accept.
        self._handlers: List[threading.Thread] = []
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.verbose = verbose
        self.max_body_bytes = int(max_body_bytes)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._lock:
            self._connections.add(request)
            self._handlers = [t for t in self._handlers if t.is_alive()]
            thread.start()
            self._handlers.append(thread)

    def shutdown_request(self, request) -> None:
        # Forget the socket before it is closed, so server_close() never
        # shuts down a descriptor that was closed (and maybe reused).
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, end every open connection, join every handler.

        A kept connection would otherwise outlive the server: its handler
        thread would go on answering the client for a closed server, and
        a new server on the same port would never see that client.
        """
        super().server_close()
        with self._lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client has already gone
                    pass
            handlers, self._handlers = self._handlers, []
        for thread in handlers:
            thread.join()


class _Handler(BaseHTTPRequestHandler):
    """Answers every request of one connection (HTTP/1.1, kept open).

    One handler object serves each request on its connection in turn, so
    whatever a request stores on it is set again by the next request
    (:meth:`parse_request`).
    """

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle's algorithm the
    # second waits for the client's delayed ACK (~40 ms per answer).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: object) -> None:
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Parse the request head, then read its body: one place per request.

        A kept connection must never carry an unread body into the next
        request, which would be parsed from the leftover bytes; so every
        request's body is read here, whatever its method and route.  A
        body that cannot be read safely -- an unusable Content-Length,
        one over the server's ``max_body_bytes``, or any
        Transfer-Encoding -- closes the connection after the answer, and
        :meth:`_body` reports the first two as a 400 to the routes that
        read a body.
        """
        if not super().parse_request():
            return False
        self._raw_body = b""
        self._body_error: Optional[str] = None
        try:
            length = self._content_length()
        except ValueError as exc:
            self._body_error = str(exc)
            self.close_connection = True
        else:
            if length:
                self._raw_body = self.rfile.read(length)
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
        return True

    def _content_length(self) -> int:
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
        return length

    def _send(self, code: int, payload: Dict) -> None:
        self._send_raw(code, json.dumps(payload, sort_keys=True).encode("utf-8"),
                       "application/json")

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
        """The request body (read by :meth:`parse_request`) as a JSON object.

        Every malformed shape raises ``ValueError`` -- a non-integer or
        negative Content-Length, a body over the server's
        ``max_body_bytes``, invalid JSON, or JSON that is not an object
        -- so every route's handler turns it into a structured 400
        instead of an unhandled-traceback 500.
        """
        if self._body_error is not None:
            raise ValueError(self._body_error)
        try:
            payload = json.loads(self._raw_body or b"{}")
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
        if self.close_connection:
            self.send_header("Connection", "close")
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
        """The URL query string as a validated ReportQuery and its format.

        ``format`` is the rendering knob, not a filter: ``html`` (the
        default) or ``csv``, given at most once.  Anything else raises
        ``ValueError``, like every malformed report parameter.
        """
        from repro.report import ReportQuery

        params = urllib.parse.parse_qs(
            urllib.parse.urlsplit(self.path).query, keep_blank_values=False
        )
        formats = params.pop("format", ["html"])
        if len(formats) > 1:
            raise ValueError("report parameter 'format' given more than once")
        if formats[0] not in ("html", "csv"):
            raise ValueError(
                f"report parameter 'format' must be 'html' or 'csv', "
                f"got {formats[0]!r}"
            )
        return ReportQuery.from_params(params), formats[0]

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
                query, _ = self._report_query()
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
                query, render_as = self._report_query()
            except ValueError as exc:
                self._error(400, str(exc))
                return
            data = build_report(db, query)
            if render_as == "csv":
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
class _KeptConnection:
    """One thread's persistent connection to one origin.

    The finalizer closes the socket when the connection is dropped or
    replaced, when its thread ends (the thread-local releases it) and at
    interpreter exit.
    """

    def __init__(self, scheme: str, netloc: str, timeout: float) -> None:
        factory = (http.client.HTTPSConnection if scheme == "https"
                   else http.client.HTTPConnection)
        self.origin = (scheme, netloc)
        self.connection = factory(netloc, timeout=timeout)
        self.close = weakref.finalize(self, self.connection.close)


#: Each thread's kept connection (``.kept``): ``http.client`` connections
#: are not thread-safe, so threads never share one.
_local = threading.local()


def _drop_connection() -> None:
    """Close and forget this thread's kept connection, if it has one."""
    kept = getattr(_local, "kept", None)
    _local.kept = None
    if kept is not None:
        kept.close()


def _idle_and_open(sock: Optional[socket.socket]) -> bool:
    """Whether a kept socket can carry the next request.

    An idle connection has nothing to read.  One that polls readable has
    been closed by the server (a restart, or ``server_close()``), or
    holds bytes no request asked for; either way it is not reused.
    ``select`` refuses descriptors past ``FD_SETSIZE``: such a socket is
    not reused either.
    """
    if sock is None:
        return False
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return False
    return not readable


def _thread_connection(parts: urllib.parse.SplitResult,
                       timeout: float) -> Tuple[_KeptConnection, bool]:
    """This thread's connection to the URL's origin, and whether it is reused."""
    kept = getattr(_local, "kept", None)
    if (kept is not None and kept.origin == (parts.scheme, parts.netloc)
            and _idle_and_open(kept.connection.sock)):
        kept.connection.sock.settimeout(timeout)
        return kept, True
    _drop_connection()
    kept = _local.kept = _KeptConnection(parts.scheme, parts.netloc, timeout)
    return kept, False


def _send(connection: http.client.HTTPConnection, verb: str, target: str,
          body: Optional[bytes]) -> http.client.HTTPResponse:
    headers = {"Content-Type": "application/json"} if body else {}
    connection.request(verb, target, body=body, headers=headers)
    return connection.getresponse()


def _kept_exchange(parts: urllib.parse.SplitResult, verb: str,
                   body: Optional[bytes], timeout: float,
                   idempotent: bool) -> Tuple[int, bytes]:
    """One request on this thread's kept connection: (status, body).

    A request whose reused connection fails before any answer arrives
    -- the server closed it just as the request went out -- is sent once
    more on a fresh connection, but only when it is ``idempotent``
    (RFC 9112 section 9.3.1): a job request that may have reached the
    server is never sent twice.
    """
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    kept, reused = _thread_connection(parts, timeout)
    try:
        try:
            response = _send(kept.connection, verb, target, body)
        except ConnectionError:
            if not (reused and idempotent):
                raise
            _drop_connection()
            kept, _ = _thread_connection(parts, timeout)
            response = _send(kept.connection, verb, target, body)
        payload = response.read()
    except BaseException:
        _drop_connection()
        raise
    if response.will_close:
        _drop_connection()
    return response.status, payload


def _urllib_exchange(url: str, verb: str, body: Optional[bytes],
                     timeout: float) -> Tuple[int, bytes]:
    """One request through :mod:`urllib.request`: (status, body)."""
    request = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": "application/json"} if body else {},
        method=verb,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@functools.lru_cache(maxsize=None)
def _via_urllib(scheme: str, netloc: str) -> bool:
    """Whether only urllib serves this origin: another scheme, or a proxy.

    The environment's proxies are read once per process (they cost
    ~0.1 ms a read), as ``urllib.request.urlopen``'s own opener does.
    """
    if scheme not in ("http", "https"):
        return True
    return (scheme in urllib.request.getproxies()
            and not urllib.request.proxy_bypass(netloc))


def _request_json(
    url: str,
    *,
    data: Optional[Dict] = None,
    method: Optional[str] = None,
    timeout: float,
    retries: int,
    backoff: float,
    deadline: Optional[float] = None,
    idempotent: bool = True,
) -> Dict:
    """One JSON request with bounded retry on *transient* failures.

    Transient means the transport failed -- connection refused or reset,
    DNS blip, socket timeout -- i.e. no HTTP answer arrived at all;
    these retry up to ``retries`` extra times with exponential backoff
    (never past ``deadline``, a monotonic timestamp).  An HTTP error
    status is an answer and is raised immediately.  ``idempotent=False``
    forbids the resend on a fresh connection (see :func:`_kept_exchange`).
    """
    verb = method or ("POST" if data is not None else "GET")
    body = None if data is None else json.dumps(data).encode("utf-8")
    parts = urllib.parse.urlsplit(url)
    via_urllib = _via_urllib(parts.scheme, parts.netloc)
    attempt = 0
    while True:
        try:
            if via_urllib:
                status, payload = _urllib_exchange(url, verb, body, timeout)
            else:
                status, payload = _kept_exchange(parts, verb, body, timeout,
                                                 idempotent)
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
            continue
        if not 200 <= status < 300:
            detail = payload.decode("utf-8", "replace")
            raise RuntimeError(f"{verb} {url} failed: {status} {detail}")
        return json.loads(payload)


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
    payload = _request_json(
        f"{base_url.rstrip('/')}/v2/jobs", data=request,
        timeout=timeout, retries=0, backoff=DEFAULT_BACKOFF_S,
        idempotent=False,
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
