"""Tests for the batch scheduling service (repro.service) and its CLI.

Covers the three layers: request validation, the in-process
:class:`BatchScheduler` (submit -> poll/stream -> serialized result),
and the HTTP wire (server + client helpers + ``repro submit``), all on a
single shared session exactly as ``repro serve`` runs them.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.request
from contextlib import contextmanager

import pytest

from repro import serialize
from repro.service import (
    BatchScheduler,
    JobRequest,
    ServiceHTTPServer,
    fetch_json,
    make_server,
    poll_job,
    post_json,
    submit_job,
)
from repro.session import Session


@pytest.fixture(scope="module")
def scheduler():
    session = Session()
    batch = BatchScheduler(session)
    yield batch
    batch.shutdown()
    session.close()


@pytest.fixture(scope="module")
def server(scheduler):
    http_server = make_server(scheduler, "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


# --------------------------------------------------------------------------- #
# Request validation
# --------------------------------------------------------------------------- #
class TestJobRequest:
    def test_valid_schedule_request(self):
        request = JobRequest.from_dict(
            {"kind": "schedule",
             "params": {"kernel": "daxpy", "config": "4C16S16",
                        "kernel_params": {"trip_count": 64}}}
        )
        assert request.kind == "schedule"
        assert request.to_dict()["params"]["kernel"] == "daxpy"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobRequest.from_dict({"kind": "explode", "params": {}})

    def test_missing_required_params_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            JobRequest.from_dict({"kind": "schedule", "params": {"kernel": "daxpy"}})

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown params"):
            JobRequest.from_dict(
                {"kind": "evaluate", "params": {"config": "S64", "frobnicate": 1}}
            )

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            JobRequest.from_dict("schedule daxpy")


# --------------------------------------------------------------------------- #
# In-process batch scheduler
# --------------------------------------------------------------------------- #
class TestBatchScheduler:
    def test_schedule_job_roundtrip(self, scheduler):
        job_id = scheduler.submit(
            {"kind": "schedule", "params": {"kernel": "daxpy", "config": "4C16S16"}}
        )
        status = scheduler.wait(job_id, timeout=120)
        assert status["state"] == "done"
        assert status["progress"] == {"n_done": 1, "n_total": 1}
        envelope = scheduler.result(job_id)
        serialize.validate(envelope, expect_type="schedule_result")
        result = serialize.from_dict(envelope)
        assert result.success and result.config_name == "4C16S16"

    def test_evaluate_job_reports_progress(self, scheduler):
        job_id = scheduler.submit(
            {"kind": "evaluate", "params": {"config": "S64", "n_loops": 4}}
        )
        snapshots = list(scheduler.stream(job_id, timeout=120))
        assert snapshots[-1]["state"] == "done"
        assert snapshots[-1]["progress"] == {"n_done": 4, "n_total": 4}
        report = serialize.from_dict(scheduler.result(job_id))
        assert report.n_failed == 0
        assert len(report.runs) == 4

    def test_failed_job_carries_error(self, scheduler):
        job_id = scheduler.submit(
            {"kind": "schedule",
             "params": {"kernel": "daxpy", "config": "not-a-config"}}
        )
        status = scheduler.wait(job_id, timeout=60)
        assert status["state"] == "failed"
        assert "not-a-config" in status["error"]
        with pytest.raises(RuntimeError, match="no result"):
            scheduler.result(job_id)

    def test_unknown_job_id_raises(self, scheduler):
        with pytest.raises(KeyError):
            scheduler.status("job-999999")

    def test_jobs_share_one_warm_session_cache(self):
        from repro.eval.cache import EvalCache

        session = Session(cache=EvalCache())
        batch = BatchScheduler(session)
        try:
            first = batch.submit(
                {"kind": "evaluate", "params": {"config": "S64", "n_loops": 3}}
            )
            batch.wait(first, timeout=120)
            stores = session.cache.stores
            assert stores == 3
            second = batch.submit(
                {"kind": "evaluate", "params": {"config": "S64", "n_loops": 3}}
            )
            batch.wait(second, timeout=120)
            # The second client's job was served entirely by the cache.
            assert session.cache.stores == stores
            assert session.cache.hits >= 3
        finally:
            batch.shutdown()
            session.close()

    def test_cancel_and_queue_order(self):
        session = Session()
        batch = BatchScheduler(session, start=False)
        try:
            first = batch.submit(
                {"kind": "schedule", "params": {"kernel": "daxpy", "config": "S64"}}
            )
            second = batch.submit(
                {"kind": "schedule", "params": {"kernel": "vadd", "config": "S64"}}
            )
            assert [job["state"] for job in batch.list_jobs()] == ["queued", "queued"]
            assert batch.cancel(second) is True
            assert batch.cancel(second) is False  # already cancelled
            batch.start()
            status = batch.wait(first, timeout=120)
            assert status["state"] == "done"
            assert batch.status(second)["state"] == "cancelled"
        finally:
            batch.shutdown()
            session.close()

    def test_submit_after_shutdown_rejected(self):
        session = Session()
        batch = BatchScheduler(session)
        batch.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            batch.submit(
                {"kind": "schedule", "params": {"kernel": "daxpy", "config": "S64"}}
            )
        session.close()


# --------------------------------------------------------------------------- #
# HTTP wire
# --------------------------------------------------------------------------- #
class TestHTTPService:
    def test_health_and_schema(self, base_url):
        health = fetch_json(f"{base_url}/v2/health")
        assert health["status"] == "ok"
        assert health["schema"] == serialize.SCHEMA_VERSION
        remote_schema = fetch_json(f"{base_url}/v2/schema")
        assert remote_schema == serialize.schema()

    def test_submit_poll_result_roundtrip(self, base_url):
        job_id = submit_job(
            base_url,
            {"kind": "schedule",
             "params": {"kernel": "fir_filter", "config": "S64",
                        "kernel_params": {"taps": 4}}},
        )
        status = poll_job(base_url, job_id, timeout=120, poll_interval=0.05)
        assert status["state"] == "done"
        envelope = status["result"]
        serialize.validate(envelope, expect_type="schedule_result")
        assert serialize.from_dict(envelope).success

    def test_bad_request_is_400(self, base_url):
        with pytest.raises(RuntimeError, match="unknown job kind"):
            submit_job(base_url, {"kind": "nope", "params": {}})

    def test_unknown_job_is_404(self, base_url):
        with pytest.raises(RuntimeError, match="404"):
            fetch_json(f"{base_url}/v2/jobs/job-424242")

    def test_unknown_path_is_404(self, base_url):
        with pytest.raises(RuntimeError, match="404"):
            fetch_json(f"{base_url}/v2/frobnicate")

    def test_jobs_listing(self, base_url):
        listing = fetch_json(f"{base_url}/v2/jobs")
        assert isinstance(listing["jobs"], list)


class TestQueryStringRouting:
    """Query strings must route like the bare path, on every route.

    Clients legitimately append them (cache busters, tracing ids);
    routing on the raw request target turned ``GET /v2/jobs?x=1`` into a
    404 while ``GET /v2/jobs`` worked.
    """

    def test_get_routes_accept_query_strings(self, base_url):
        assert fetch_json(f"{base_url}/v2/health?x=1")["status"] == "ok"
        assert fetch_json(f"{base_url}/v2/schema?probe=1") == serialize.schema()
        listing = fetch_json(f"{base_url}/v2/jobs?verbose=1")
        assert isinstance(listing["jobs"], list)

    def test_job_lifecycle_with_query_strings(self, base_url):
        from repro.service.http import _request_json

        # Submit, fetch and cancel one job, a query string on every call.
        payload = post_json(
            f"{base_url}/v2/jobs?trace=abc",
            {"kind": "schedule",
             "params": {"kernel": "daxpy", "config": "S64"}},
        )
        job_id = payload["job_id"]
        status = fetch_json(f"{base_url}/v2/jobs/{job_id}?include=result")
        assert status["job_id"] == job_id
        answer = _request_json(
            f"{base_url}/v2/jobs/{job_id}?reason=test", method="DELETE",
            timeout=10.0, retries=0, backoff=0.01,
        )
        assert answer["job_id"] == job_id  # cancelled or already running

    def test_worker_routes_accept_query_strings(self, base_url):
        # No coordinator attached: still routed (503), never a 404.
        with pytest.raises(RuntimeError, match="503"):
            fetch_json(f"{base_url}/v2/workers?x=1")
        with pytest.raises(RuntimeError, match="503"):
            post_json(f"{base_url}/v2/workers/register?x=1", {"name": "a"},
                      retries=0)

    def test_trailing_slash_routes_like_bare_path(self, base_url):
        assert fetch_json(f"{base_url}/v2/health/")["status"] == "ok"

    def test_unknown_path_with_query_string_is_still_404(self, base_url):
        with pytest.raises(RuntimeError, match="404"):
            fetch_json(f"{base_url}/v2/frobnicate?x=1")


# --------------------------------------------------------------------------- #
# Transient-failure retry in the client helpers
# --------------------------------------------------------------------------- #
class _FlakyServer(threading.Thread):
    """A TCP stub that drops the first N connections, then serves JSON.

    Dropping a freshly accepted connection looks to the client exactly
    like a service restart mid-poll: the TCP handshake succeeds and the
    HTTP exchange then dies (RemoteDisconnected/ConnectionReset) -- the
    transient failure class the client helpers must survive.
    """

    def __init__(self, payload: dict, n_failures: int) -> None:
        super().__init__(daemon=True)
        self.payload = payload
        self.n_failures = n_failures
        self.n_served = 0
        self._closing = False
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.url = "http://127.0.0.1:%d" % self.sock.getsockname()[1]

    def run(self) -> None:
        while not self._closing:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                if self.n_failures > 0:
                    self.n_failures -= 1
                    continue  # close without answering: transport failure
                try:
                    conn.recv(65536)  # drain the request; content ignored
                    body = json.dumps(self.payload).encode()
                    # Counted before the answer leaves: a client that has
                    # the answer may read the count before this thread
                    # runs again.
                    self.n_served += 1
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                        b"Connection: close\r\n\r\n" + body
                    )
                except OSError:  # pragma: no cover - client went away
                    pass

    def close(self) -> None:
        self._closing = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


@pytest.fixture()
def flaky_server(request):
    servers = []

    def make(payload: dict, n_failures: int) -> _FlakyServer:
        server = _FlakyServer(payload, n_failures)
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


class TestTransientRetry:
    """The bugfix: one connection blip must not kill a client call."""

    def test_fetch_json_survives_transient_failures(self, flaky_server):
        server = flaky_server({"ok": True}, n_failures=2)
        assert fetch_json(server.url, retries=3, backoff=0.01) == {"ok": True}
        assert server.n_served == 1

    def test_fetch_json_without_retries_fails_fast(self, flaky_server):
        server = flaky_server({"ok": True}, n_failures=1)
        with pytest.raises(RuntimeError, match="after 1 attempt"):
            fetch_json(server.url, retries=0)

    def test_retry_budget_is_bounded(self, flaky_server):
        server = flaky_server({"ok": True}, n_failures=100)
        with pytest.raises(RuntimeError, match="after 3 attempt"):
            fetch_json(server.url, retries=2, backoff=0.01)

    def test_poll_job_survives_blips_inside_the_deadline(self, flaky_server):
        done = {"job_id": "job-1", "state": "done",
                "progress": {"n_done": 1, "n_total": 1}}
        server = flaky_server(done, n_failures=2)
        status = poll_job(server.url, "job-1", poll_interval=0.01, timeout=30)
        assert status["state"] == "done"

    def test_poll_job_retries_never_outlive_the_deadline(self, flaky_server):
        server = flaky_server({"state": "running"}, n_failures=10_000)
        with pytest.raises(RuntimeError, match="failed after"):
            poll_job(server.url, "job-1", poll_interval=0.01, timeout=0.3)

    def test_post_json_survives_transient_failures(self, flaky_server):
        server = flaky_server({"echo": True}, n_failures=1)
        answer = post_json(server.url, {"probe": 1}, retries=2, backoff=0.01)
        assert answer == {"echo": True}


# --------------------------------------------------------------------------- #
# Persistent connections: one per client thread, every route on it
# --------------------------------------------------------------------------- #
DAXPY = {"kind": "schedule", "params": {"kernel": "daxpy", "config": "S64"}}
VADD = {"kind": "schedule", "params": {"kernel": "vadd", "config": "S64"}}


class _CountingServer(ServiceHTTPServer):
    """Counts accepted connections and records its handler threads."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n_accepted = 0
        self.handler_threads = []

    def process_request(self, request, client_address) -> None:
        self.n_accepted += 1
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        self.handler_threads.append(threading.current_thread())
        super().process_request_thread(request, client_address)


@contextmanager
def _counting_server(scheduler, port=0, **kwargs):
    server = _CountingServer(("127.0.0.1", port), scheduler, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _helper_calls(url: str) -> None:
    """Eleven client-helper calls: answers and HTTP errors alike."""
    from repro.service.http import _request_json

    assert fetch_json(f"{url}/v2/health")["status"] == "ok"
    assert fetch_json(f"{url}/v2/schema") == serialize.schema()
    job_id = submit_job(url, DAXPY)
    assert poll_job(url, job_id, poll_interval=0.01, timeout=120)["state"] == "done"
    assert fetch_json(f"{url}/v2/jobs/{job_id}")["job_id"] == job_id
    assert _request_json(f"{url}/v2/jobs/{job_id}", method="DELETE",
                         timeout=10.0, retries=0, backoff=0.01)["job_id"] == job_id
    assert "jobs" in fetch_json(f"{url}/v2/jobs?x=1")
    assert post_json(f"{url}/v2/jobs", VADD, retries=0)["job_id"]
    for call, code in (
        (lambda: fetch_json(f"{url}/v2/jobs/job-424242"), "404"),
        (lambda: fetch_json(f"{url}/v2/runs"), "503"),
        (lambda: post_json(f"{url}/v2/workers/register", {"name": "w"},
                           retries=0), "503"),
    ):
        with pytest.raises(RuntimeError, match=code):
            call()


class TestOneConnectionCarriesEveryRoute:
    """Error answers must leave a kept connection ready for the next request.

    Routes that answer without reading the body (a 503 on a worker route,
    a 404 on an unknown path) once left it on the connection, and the next
    request was parsed from the leftover bytes.
    """

    def test_error_paths_then_valid_requests_on_one_connection(self):
        session = Session()
        batch = BatchScheduler(session, max_queued_per_client=1, start=False)
        try:
            with _counting_server(batch, max_body_bytes=256) as (server, _):
                connection = http.client.HTTPConnection(
                    *server.server_address[:2], timeout=10)

                def exchange(verb, path, body=None):
                    connection.request(verb, path, body=body)
                    response = connection.getresponse()
                    return response.status, json.loads(response.read()), response

                code, payload, _ = exchange("POST", "/v2/jobs", b'{"kind": "sche')
                assert code == 400 and "not valid JSON" in payload["error"]
                assert exchange("GET", "/v2/health")[1]["status"] == "ok"

                code, payload, _ = exchange("POST", "/v2/jobs", b"[1, 2, 3]")
                assert code == 400 and "must be a JSON object" in payload["error"]
                assert exchange("GET", "/v2/jobs")[1] == {"jobs": []}

                code, payload, _ = exchange("POST", "/v2/frobnicate", b'{"name": "a"}')
                assert code == 404
                assert exchange("GET", "/v2/schema")[1] == serialize.schema()

                # A read body, then a route that answers without reading one.
                code, job, _ = exchange("POST", "/v2/jobs", json.dumps(DAXPY).encode())
                assert code == 202
                code, payload, _ = exchange("POST", "/v2/workers/register",
                                            b'{"name": "a"}')
                assert code == 503 and "not a fleet coordinator" in payload["error"]
                assert exchange("GET", "/v2/health/")[1]["n_jobs"] == 1

                code, payload, _ = exchange("POST", "/v2/jobs", json.dumps(VADD).encode())
                assert code == 429
                status = exchange("GET", f"/v2/jobs/{job['job_id']}")[1]
                assert status["state"] == "queued"

                code, payload, _ = exchange("GET", "/v2/jobs/job-424242")
                assert code == 404
                assert exchange("GET", "/v2/jobs")[1]["jobs"][0]["job_id"] == job["job_id"]
                assert server.n_accepted == 1

                # A body over the limit is never read: the answer closes.
                big = json.dumps({**DAXPY, "pad": "x" * 4096}).encode()
                code, payload, response = exchange("POST", "/v2/jobs", big)
                assert code == 400 and "256-byte limit" in payload["error"]
                assert response.getheader("Connection") == "close"
                assert exchange("GET", "/v2/health")[1]["status"] == "ok"
                assert server.n_accepted == 2
                connection.close()
        finally:
            batch.shutdown()
            session.close()


class _DroppingServer(threading.Thread):
    """A keep-alive JSON stub that reads the request after ``drop_next``
    is set and closes the connection without answering it."""

    def __init__(self, payload: dict) -> None:
        super().__init__(daemon=True)
        self.payload = json.dumps(payload).encode()
        self.drop_next = False
        self.methods = []
        self.n_connections = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.sock.getsockname()[1]
        self.conn = None

    def run(self) -> None:
        while True:
            try:
                self.conn, _ = self.sock.accept()
            except OSError:
                return
            self.n_connections += 1
            with self.conn, self.conn.makefile("rb") as reader:
                while self._answer(reader):
                    pass

    def _answer(self, reader) -> bool:
        request_line = reader.readline()
        if not request_line:
            return False
        length = 0
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode().partition(":")
            if name.lower() == "content-length":
                length = int(value)
        reader.read(length)
        # Recorded before the answer or the close: a client that sees
        # either may read the list at once.
        self.methods.append(request_line.split()[0].decode())
        if self.drop_next:
            self.drop_next = False
            return False
        self.conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                          b"Content-Length: %d\r\n\r\n" % len(self.payload)
                          + self.payload)
        return True

    def close(self) -> None:
        self.sock.close()
        if self.conn is not None:
            try:
                self.conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already closed
                pass
        self.join(timeout=10)


@pytest.fixture()
def dropping_server():
    servers = []

    def make(payload: dict) -> _DroppingServer:
        server = _DroppingServer(payload)
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


class TestConnectionReuse:
    def test_one_connection_per_client_thread(self, scheduler):
        with _counting_server(scheduler) as (server, url):
            _helper_calls(url)
            _helper_calls(url)
            assert server.n_accepted == 1
        with _counting_server(scheduler) as (server, url):
            errors = []

            def calls():
                try:
                    _helper_calls(url)
                except BaseException as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=calls) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert server.n_accepted == 2

    def test_client_threads_under_contention_each_keep_one_connection(
        self, scheduler
    ):
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _counting_server(scheduler) as (server, url):
                answers = []

                def calls():
                    for _ in range(25):
                        answers.append(fetch_json(f"{url}/v2/health")["status"])

                threads = [threading.Thread(target=calls) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
            assert answers == ["ok"] * 200
            assert server.n_accepted == 8
            assert not any(t.is_alive() for t in server.handler_threads)
        finally:
            sys.setswitchinterval(interval)

    def test_a_restarted_server_answers_the_next_calls(self):
        session = Session()
        old_batch = BatchScheduler(session)
        try:
            with _counting_server(old_batch) as (old, url):
                submit_job(url, DAXPY)
                submit_job(url, VADD)
                assert fetch_json(f"{url}/v2/health")["n_jobs"] == 2
            old_batch.shutdown()
            # server_close() ended the kept connection and its thread; the
            # old server must not answer for the new one below.
            assert old.n_accepted == 1
            assert not any(t.is_alive() for t in old.handler_threads)
            new_batch = BatchScheduler(session)
            try:
                port = int(url.rsplit(":", 1)[1])
                with _counting_server(new_batch, port=port) as (new, _):
                    # First a call that is never resent: the client must see
                    # the closed connection before it sends.
                    job_id = submit_job(url, VADD)
                    assert fetch_json(f"{url}/v2/health", retries=0)["n_jobs"] == 1
                    assert new_batch.wait(job_id, timeout=120)["state"] == "done"
                    assert new.n_accepted == 1
            finally:
                new_batch.shutdown()
        finally:
            old_batch.shutdown()
            session.close()

    def test_idempotent_request_is_resent_on_a_fresh_connection(
        self, dropping_server
    ):
        stub = dropping_server({"ok": True})
        assert fetch_json(stub.url) == {"ok": True}
        stub.drop_next = True
        # Closed unanswered on the reused connection: sent once more on a
        # fresh one, outside the retry budget.
        assert fetch_json(stub.url, retries=0) == {"ok": True}
        assert stub.methods == ["GET", "GET", "GET"]
        assert stub.n_connections == 2

    def test_submit_job_is_never_sent_twice(self, dropping_server):
        stub = dropping_server({"job_id": "job-1"})
        assert fetch_json(stub.url) == {"job_id": "job-1"}
        stub.drop_next = True
        with pytest.raises(RuntimeError, match="after 1 attempt"):
            submit_job(stub.url, DAXPY)
        assert stub.methods == ["GET", "POST"]
        assert submit_job(stub.url, DAXPY) == "job-1"
        assert stub.methods == ["GET", "POST", "POST"]

    def test_proxied_urls_stay_on_urllib(self, flaky_server, monkeypatch):
        from repro.service.http import _via_urllib

        proxy = flaky_server({"via": "proxy"}, n_failures=0)
        closed = socket.create_server(("127.0.0.1", 0))
        target = "http://127.0.0.1:%d/v2/health" % closed.getsockname()[1]
        closed.close()  # nothing listens there: only the proxy answers
        try:
            with monkeypatch.context() as patch:
                patch.setenv("http_proxy", proxy.url)
                patch.delenv("no_proxy", raising=False)
                patch.delenv("NO_PROXY", raising=False)
                _via_urllib.cache_clear()
                urllib.request.install_opener(None)  # re-read the environment
                assert fetch_json(target, retries=0) == {"via": "proxy"}
                patch.setenv("no_proxy", "127.0.0.1")
                with pytest.raises(RuntimeError, match="refused"):
                    fetch_json(target, retries=0)
            assert proxy.n_served == 1
        finally:
            _via_urllib.cache_clear()
            urllib.request.install_opener(None)


# --------------------------------------------------------------------------- #
# Shutdown / wait-timeout lifecycle (the BatchScheduler bugfixes)
# --------------------------------------------------------------------------- #
class TestSchedulerLifecycle:
    def test_shutdown_cancels_queued_jobs(self):
        """Queued jobs must not be stranded ``queued`` forever."""
        session = Session()
        batch = BatchScheduler(session, start=False)  # nothing ever runs
        try:
            first = batch.submit(
                {"kind": "schedule", "params": {"kernel": "daxpy", "config": "S64"}}
            )
            second = batch.submit(
                {"kind": "schedule", "params": {"kernel": "vadd", "config": "S64"}}
            )
            batch.shutdown()
            for job_id in (first, second):
                status = batch.status(job_id)
                assert status["state"] == "cancelled"
                assert "shut down before the job started" in status["error"]
                assert status["finished_at"] is not None
            # Waiters observe the terminal state instead of hanging.
            status = batch.wait(first, timeout=5)
            assert status["state"] == "cancelled"
            assert "timed_out" not in status
        finally:
            session.close()

    def test_wait_timeout_is_distinguishable_from_completion(self):
        """``wait(timeout=)`` must mark a non-terminal return."""
        session = Session()
        batch = BatchScheduler(session, start=False)  # the job never starts
        try:
            job_id = batch.submit(
                {"kind": "schedule", "params": {"kernel": "daxpy", "config": "S64"}}
            )
            status = batch.wait(job_id, timeout=0.05)
            assert status["state"] == "queued"
            assert status["timed_out"] is True
            batch.start()
            status = batch.wait(job_id, timeout=120)
            assert status["state"] == "done"
            assert "timed_out" not in status
        finally:
            batch.shutdown()
            session.close()


# --------------------------------------------------------------------------- #
# CLI: serve/submit/schema plumbing
# --------------------------------------------------------------------------- #
class TestServiceCLI:
    def test_parser_serve_and_submit(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0", "--jobs", "2"])
        assert args.command == "serve" and args.port == 0

        args = build_parser().parse_args(
            ["submit", "--url", "http://localhost:1", "schedule", "daxpy",
             "4C16S16", "--param", "trip_count=64"]
        )
        assert args.kind == "schedule" and args.param == ["trip_count=64"]

        args = build_parser().parse_args(
            ["submit", "evaluate", "S64", "--loops", "8"]
        )
        assert args.kind == "evaluate" and args.loops == 8

        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])  # kind is required

    def test_parser_coordinator_and_worker(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--coordinator", "--lease-timeout", "30s", "--port", "0"]
        )
        assert args.coordinator is True and args.lease_timeout == 30.0
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.coordinator is False

        args = build_parser().parse_args(
            ["worker", "--url", "http://h:1", "--jobs", "2",
             "--max-leases", "5", "--idle-exit", "2s", "--name", "alice"]
        )
        assert args.command == "worker"
        assert (args.url, args.jobs, args.max_leases) == ("http://h:1", 2, 5)
        assert args.idle_exit == 2.0 and args.name == "alice"

    def test_build_submit_request_parses_params(self):
        from repro.cli import _build_submit_request, build_parser

        args = build_parser().parse_args(
            ["submit", "schedule", "fir_filter", "4C16S16",
             "--param", "taps=8", "--policy", "non_iterative"]
        )
        request = _build_submit_request(args)
        assert request == {
            "kind": "schedule",
            "params": {"kernel": "fir_filter", "config": "4C16S16",
                       "policy": "non_iterative",
                       "kernel_params": {"taps": 8}},
        }

    def test_submit_command_end_to_end(self, base_url, capsys):
        from repro.cli import main

        exit_code = main([
            "submit", "--url", base_url, "--poll", "0.05", "--validate",
            "schedule", "daxpy", "S64",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        envelope = json.loads(out)
        serialize.validate(envelope, expect_type="schedule_result")

    def test_schema_command_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "schema.json"
        assert main(["schema", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload == serialize.schema()
        assert main(["schema"]) == 0  # stdout variant
        printed = capsys.readouterr().out
        assert '"schedule_result"' in printed


# --------------------------------------------------------------------------- #
# HTTP error paths: malformed input is a structured 4xx, never a 500
# --------------------------------------------------------------------------- #
def _raw_request(url: str, body: bytes, *, method: str = "POST",
                 content_type: str = "application/json"):
    """Send raw bytes; returns (status_code, decoded JSON body)."""
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}, method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHTTPErrorPaths:
    def test_malformed_json_body_is_400(self, base_url):
        code, payload = _raw_request(f"{base_url}/v2/jobs", b'{"kind": "sche')
        assert code == 400
        assert "not valid JSON" in payload["error"]

    def test_non_object_json_body_is_400(self, base_url):
        code, payload = _raw_request(f"{base_url}/v2/jobs", b"[1, 2, 3]")
        assert code == 400
        assert "must be a JSON object" in payload["error"]

    def test_unknown_envelope_payload_is_400(self, base_url):
        # A structurally-valid dict that is not a valid job request.
        code, payload = _raw_request(
            f"{base_url}/v2/jobs",
            json.dumps({"kind": "schedule", "params": {
                "kernel": "daxpy", "config": "S64", "frobnicate": 1,
            }}).encode(),
        )
        assert code == 400
        assert "unknown params" in payload["error"]

    def test_oversized_body_is_400(self, scheduler):
        server = make_server(scheduler, "127.0.0.1", 0, max_body_bytes=256)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            big = json.dumps(
                {"kind": "schedule",
                 "params": {"kernel": "daxpy", "config": "S64",
                            "kernel_params": {"pad": "x" * 4096}}}
            ).encode()
            code, payload = _raw_request(f"http://{host}:{port}/v2/jobs", big)
            assert code == 400
            assert "256-byte limit" in payload["error"]
            # A small request still fits under the tightened ceiling.
            code, _ = _raw_request(
                f"http://{host}:{port}/v2/jobs",
                json.dumps({"kind": "schedule",
                            "params": {"kernel": "daxpy",
                                       "config": "S64"}}).encode(),
            )
            assert code == 202
        finally:
            server.shutdown()
            server.server_close()

    def test_runs_and_report_without_db_are_503(self, base_url):
        with pytest.raises(RuntimeError, match="503"):
            fetch_json(f"{base_url}/v2/runs")
        with pytest.raises(RuntimeError, match="503"):
            fetch_json(f"{base_url}/v2/report")

    def test_quota_exhaustion_is_429(self, tmp_path):
        session = Session()
        batch = BatchScheduler(session, max_queued_per_client=1, start=False)
        server = make_server(batch, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            submit_job(url, {"kind": "schedule",
                             "params": {"kernel": "daxpy", "config": "S64"}})
            with pytest.raises(RuntimeError, match="429"):
                submit_job(url, {"kind": "schedule",
                                 "params": {"kernel": "vadd",
                                            "config": "S64"}})
        finally:
            server.shutdown()
            server.server_close()
            batch.shutdown()
            session.close()


class TestFleetRouteErrorPaths:
    @pytest.fixture()
    def fleet_url(self, tmp_path):
        from repro.eval.shards import ResultStore
        from repro.service import ShardCoordinator

        session = Session()
        coordinator = ShardCoordinator(ResultStore(tmp_path / "store"))
        batch = BatchScheduler(session, coordinator=coordinator)
        server = make_server(batch, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        batch.shutdown()
        session.close()

    def test_missing_required_key_is_400(self, fleet_url):
        code, payload = _raw_request(f"{fleet_url}/v2/workers/lease", b"{}")
        assert code == 400
        assert "worker_id" in payload["error"]

    def test_unknown_result_envelope_type_is_400(self, fleet_url):
        code, payload = _raw_request(
            f"{fleet_url}/v2/workers/complete",
            json.dumps({"worker_id": "w", "lease_id": "l",
                        "result": {"schema": 1, "generator": "test",
                                   "type": "frobnicate", "data": {}}}).encode(),
        )
        assert code == 400

    def test_malformed_json_on_worker_route_is_400(self, fleet_url):
        code, payload = _raw_request(
            f"{fleet_url}/v2/workers/register", b"not json{"
        )
        assert code == 400
        assert "not valid JSON" in payload["error"]


# --------------------------------------------------------------------------- #
# The db-backed routes: /v2/runs and /v2/report
# --------------------------------------------------------------------------- #
class TestRunTableRoutes:
    @pytest.fixture(scope="class")
    def db_service(self, tmp_path_factory):
        session = Session()
        batch = BatchScheduler(
            session, db=tmp_path_factory.mktemp("dbsvc") / "runs.sqlite"
        )
        server = make_server(batch, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        for kernel in ("daxpy", "vadd"):
            job_id = submit_job(url, {
                "kind": "schedule",
                "params": {"kernel": kernel, "config": "S64"},
            })
            assert poll_job(url, job_id, timeout=120,
                            poll_interval=0.05)["state"] == "done"
        yield url
        server.shutdown()
        server.server_close()
        batch.shutdown()
        batch.db.close()
        session.close()

    def test_runs_route_returns_envelopes(self, db_service):
        listing = fetch_json(f"{db_service}/v2/runs")
        assert len(listing["runs"]) == 2
        for envelope in listing["runs"]:
            serialize.validate(envelope, expect_type="run_row")
            row = serialize.from_dict(envelope)
            assert row.status == "ok" and row.config_name == "S64"

    def test_runs_route_applies_filters(self, db_service):
        listing = fetch_json(f"{db_service}/v2/runs?loop=daxpy")
        assert len(listing["runs"]) == 1
        assert fetch_json(f"{db_service}/v2/runs?config=unseen")["runs"] == []

    def test_bad_query_parameter_is_400(self, db_service):
        with pytest.raises(RuntimeError, match="400"):
            fetch_json(f"{db_service}/v2/runs?frobnicate=1")
        with pytest.raises(RuntimeError, match="400"):
            fetch_json(f"{db_service}/v2/report?limit=0")

    def test_report_route_renders_html(self, db_service):
        import urllib.request

        with urllib.request.urlopen(
            f"{db_service}/v2/report", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/html")
            page = response.read().decode()
        assert page.startswith("<!DOCTYPE html>")
        assert "daxpy" in page and "vadd" in page and "<svg" in page

    def test_report_route_renders_csv(self, db_service):
        import urllib.request

        with urllib.request.urlopen(
            f"{db_service}/v2/report?format=csv", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/csv")
            text = response.read().decode()
        lines = text.splitlines()
        assert lines[0].startswith("run_key,")
        assert len(lines) == 3

    def test_report_format_is_html_or_csv_given_once(self, db_service):
        with urllib.request.urlopen(
            f"{db_service}/v2/report?format=html", timeout=10
        ) as response:
            assert response.headers["Content-Type"].startswith("text/html")
        for query in ("format=csvx", "format=xml", "format=csv&format=html"):
            with pytest.raises(RuntimeError,
                               match=r"failed: 400 .*report parameter 'format'"):
                fetch_json(f"{db_service}/v2/report?{query}")

    def test_health_exposes_scheduler_and_db_stats(self, db_service):
        health = fetch_json(f"{db_service}/v2/health")
        stats = health["scheduler"]
        assert stats["db"]["n_runs"] == 2
        assert stats["db"]["journal_mode"] == "wal"


class TestWorkbenchTierJobs:
    def test_unknown_tier_rejected_at_submission(self):
        with pytest.raises(ValueError, match="unknown workbench tier"):
            JobRequest.from_dict(
                {"kind": "evaluate", "params": {"config": "S64", "tier": "huge"}}
            )

    def test_oversized_tier_request_rejected_at_submission(self):
        with pytest.raises(ValueError, match="available tiers"):
            JobRequest.from_dict(
                {"kind": "evaluate",
                 "params": {"config": "S64", "tier": "tiny", "n_loops": 40}}
            )

    def test_evaluate_job_with_tier_runs(self, scheduler):
        job_id = scheduler.submit(
            {"kind": "evaluate",
             "params": {"config": "S64", "tier": "tiny", "n_loops": 4}}
        )
        status = scheduler.wait(job_id, timeout=120)
        assert status["state"] == "done"
        envelope = scheduler.result(job_id)
        assert envelope["type"] == "configuration_report"
        assert len(envelope["data"]["runs"]) == 4

    def test_checkpointed_session_resumes_across_jobs(self, tmp_path):
        from repro.session import Session

        session = Session(checkpoint=tmp_path / "ck", shard_size=2)
        scheduler = BatchScheduler(session)
        try:
            request = {"kind": "evaluate",
                       "params": {"config": "S64", "tier": "tiny",
                                  "n_loops": 4}}
            first = scheduler.submit(request)
            assert scheduler.wait(first, timeout=120)["state"] == "done"
            stores = session.checkpoint.stores
            assert stores > 0
            second = scheduler.submit(request)
            assert scheduler.wait(second, timeout=120)["state"] == "done"
            # the second job restored every shard instead of re-scheduling
            assert session.checkpoint.stores == stores
            assert session.checkpoint.hits >= stores
            assert scheduler.result(first) == scheduler.result(second)
        finally:
            scheduler.shutdown()
            session.close()


class TestTierJobDefaults:
    def test_tier_job_without_n_loops_runs_the_whole_tier(self, scheduler):
        job_id = scheduler.submit(
            {"kind": "evaluate", "params": {"config": "S64", "tier": "tiny"}}
        )
        status = scheduler.wait(job_id, timeout=120)
        assert status["state"] == "done"
        envelope = scheduler.result(job_id)
        assert len(envelope["data"]["runs"]) == 16  # the whole tiny tier

    def test_tierless_job_keeps_the_16_loop_default(self, scheduler):
        job_id = scheduler.submit(
            {"kind": "evaluate", "params": {"config": "S64"}}
        )
        status = scheduler.wait(job_id, timeout=120)
        assert status["state"] == "done"
        assert len(scheduler.result(job_id)["data"]["runs"]) == 16
