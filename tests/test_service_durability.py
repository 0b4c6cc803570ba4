"""Tests for the durable service layer: content-hash job ids, the jobs
table write-through, crash recovery, content-idempotent resubmission,
per-client quotas and round-robin fairness.

This is the kill-and-restart contract of ``repro serve --db``: a second
scheduler constructed over the same database must re-enqueue whatever a
crash orphaned, finish it with the same job ids and the same canonical
``runs_digest``, and answer a resubmission of finished content from the
store without scheduling a single loop.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.request
from contextlib import contextmanager

import pytest

from repro import serialize
from repro.eval.shards import runs_digest
from repro.service import (
    BatchScheduler, QuotaExceeded, fetch_json, job_content_key, make_server,
    submit_job,
)
from repro.service.batch import JobRequest
from repro.session import Session
from repro.store import RunDatabase

DAXPY = {"kind": "schedule", "params": {"kernel": "daxpy", "config": "S64"}}
VADD = {"kind": "schedule", "params": {"kernel": "vadd", "config": "S64"}}
FIR = {"kind": "schedule", "params": {"kernel": "fir_filter", "config": "S64"}}


@pytest.fixture()
def session():
    sess = Session()
    yield sess
    sess.close()


# --------------------------------------------------------------------------- #
# Content-hash job ids (the sequential-id regression)
# --------------------------------------------------------------------------- #
class TestContentHashJobIds:
    def test_id_is_a_content_hash_prefix(self, session):
        batch = BatchScheduler(session, start=False)
        try:
            job_id = batch.submit(DAXPY)
            assert re.fullmatch(r"job-[0-9a-f]{16}", job_id)
            key = job_content_key(JobRequest.from_dict(DAXPY), session)
            assert job_id == f"job-{key[:16]}"
        finally:
            batch.shutdown()

    def test_ids_are_stable_across_scheduler_instances(self, session):
        """The regression: sequential ids collided across service
        lifetimes; content-derived ids must come out identical."""
        first = BatchScheduler(session, start=False)
        id_a = first.submit(DAXPY)
        first.shutdown()
        second = BatchScheduler(session, start=False)
        id_b = second.submit(DAXPY)
        id_other = second.submit(VADD)
        second.shutdown()
        assert id_a == id_b
        assert id_other != id_b

    def test_client_is_not_part_of_the_content_key(self, session):
        request = JobRequest.from_dict(DAXPY)
        assert job_content_key(request, session) == job_content_key(
            JobRequest.from_dict({**DAXPY, "client": "alice"}), session
        )

    def test_repeat_submission_without_db_gets_suffixed_id(self, session):
        # Without a database there is no dedup: both attempts run, each
        # keeps an addressable record.
        batch = BatchScheduler(session, start=False)
        try:
            first = batch.submit(DAXPY)
            second = batch.submit(DAXPY)
            assert second == f"{first}.2"
            assert len(batch.list_jobs()) == 2
        finally:
            batch.shutdown()

    def test_unrunnable_request_still_gets_a_stable_key(self, session):
        bad = {"kind": "schedule",
               "params": {"kernel": "daxpy", "config": "not-a-config"}}
        key = job_content_key(JobRequest.from_dict(bad), session)
        assert key == job_content_key(JobRequest.from_dict(bad), session)
        assert key != job_content_key(JobRequest.from_dict(DAXPY), session)


# --------------------------------------------------------------------------- #
# Write-through and crash recovery
# --------------------------------------------------------------------------- #
class TestDurability:
    def test_submission_is_written_through(self, tmp_path, session):
        path = tmp_path / "runs.sqlite"
        batch = BatchScheduler(session, db=path, start=False)
        try:
            job_id = batch.submit(DAXPY, client="alice")
            row = batch.db.job(job_id)
            assert row["state"] == "queued" and row["client"] == "alice"
            assert row["job_key"] and job_id.startswith(f"job-{row['job_key'][:16]}")
        finally:
            batch.shutdown()
        # A clean shutdown cancels the queued job *in the database* too,
        # so the next lifetime has nothing to recover.
        with RunDatabase(path) as db:
            assert db.job(job_id)["state"] == "cancelled"
            assert db.pending_jobs() == []

    def test_crashed_jobs_are_recovered_and_finished(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        session_a = Session()
        # start=False and no shutdown(): the jobs sit queued in the
        # database exactly as a SIGKILL would leave them.
        crashed = BatchScheduler(session_a, db=path, start=False)
        first = crashed.submit(DAXPY)
        second = crashed.submit(VADD)
        crashed.db.close()
        session_a.close()

        session_b = Session()
        revived = BatchScheduler(session_b, db=path)
        try:
            assert revived.n_recovered == 2
            for job_id in (first, second):
                status = revived.wait(job_id, timeout=120)
                assert status["state"] == "done"
                assert status["runs_digest"]
            # The finished state and results were written through.
            assert revived.db.job(first)["state"] == "done"
            assert revived.db.stats()["n_runs"] == 2
        finally:
            revived.shutdown()
            session_b.close()

    def test_running_rows_restart_from_queued(self, tmp_path, session):
        path = tmp_path / "runs.sqlite"
        with RunDatabase(path) as db:
            crashed = BatchScheduler(session, db=db, start=False)
            job_id = crashed.submit(DAXPY)
            # Simulate dying mid-run: the row says running, n_done > 0.
            db.update_job(job_id, state="running", started_at=1.0, n_done=1)
        revived = BatchScheduler(session, db=path, start=False)
        try:
            status = revived.status(job_id)
            assert status["state"] == "queued"
            assert status["started_at"] is None
            assert status["progress"]["n_done"] == 0
        finally:
            revived.shutdown()

    def test_old_form_sequential_ids_still_work(self, tmp_path, session):
        """Databases written by the sequential-id scheme keep working:
        the stored id is used verbatim on recovery."""
        path = tmp_path / "runs.sqlite"
        with RunDatabase(path) as db:
            db.upsert_job({
                "job_id": "job-3", "job_key": "legacy",
                "kind": "schedule", "client": "anonymous",
                "params": '{"kind": "schedule", "params": '
                          '{"kernel": "daxpy", "config": "S64"}}',
                "state": "queued", "submitted_at": 1.0,
            })
        revived = BatchScheduler(session, db=path)
        try:
            assert revived.n_recovered == 1
            status = revived.wait("job-3", timeout=120)
            assert status["state"] == "done"
            assert revived.result("job-3")["type"] == "schedule_result"
        finally:
            revived.shutdown()

    def test_corrupt_stored_request_fails_that_row_only(self, tmp_path, session):
        path = tmp_path / "runs.sqlite"
        with RunDatabase(path) as db:
            db.upsert_job({
                "job_id": "job-bad", "job_key": "bad", "kind": "schedule",
                "client": "anonymous", "params": "not json{",
                "state": "queued", "submitted_at": 1.0,
            })
            db.upsert_job({
                "job_id": "job-ok", "job_key": "ok", "kind": "schedule",
                "client": "anonymous",
                "params": '{"kind": "schedule", "params": '
                          '{"kernel": "daxpy", "config": "S64"}}',
                "state": "queued", "submitted_at": 2.0,
            })
        revived = BatchScheduler(session, db=path, start=False)
        try:
            assert revived.n_recovered == 1
            assert revived.db.job("job-bad")["state"] == "failed"
            assert revived.status("job-ok")["state"] == "queued"
        finally:
            revived.shutdown()


# --------------------------------------------------------------------------- #
# Content-idempotent resubmission
# --------------------------------------------------------------------------- #
class TestIdempotentResubmission:
    def test_done_content_answers_from_the_store(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        session_a = Session()
        producer = BatchScheduler(session_a, db=path)
        job_id = producer.submit(DAXPY)
        assert producer.wait(job_id, timeout=120)["state"] == "done"
        digest = producer.status(job_id)["runs_digest"]
        envelope = producer.result(job_id)
        producer.shutdown()
        producer.db.close()
        session_a.close()

        # A fresh lifetime with a cold session and start=False: if the
        # resubmission scheduled anything at all it would sit queued
        # forever -- instead it answers done, from the run table.
        from repro.eval.cache import EvalCache

        session_b = Session(cache=EvalCache())
        replayer = BatchScheduler(session_b, db=path, start=False)
        try:
            again = replayer.submit(DAXPY)
            assert again == job_id
            status = replayer.status(again)
            assert status["state"] == "done"
            assert status["runs_digest"] == digest
            assert replayer.result(again) == envelope
            # Zero loops scheduled: the session's engine was never touched.
            assert session_b.cache.stores == 0 and session_b.cache.hits == 0
        finally:
            replayer.shutdown()
            session_b.close()

    def test_queued_content_dedupes_to_the_existing_job(self, tmp_path, session):
        batch = BatchScheduler(session, db=tmp_path / "runs.sqlite",
                               start=False)
        try:
            first = batch.submit(DAXPY)
            assert batch.submit(DAXPY) == first
            assert batch.submit(DAXPY, client="alice") == first
            assert len(batch.list_jobs()) == 1
        finally:
            batch.shutdown()

    def test_failed_content_gets_a_fresh_attempt(self, tmp_path, session):
        bad = {"kind": "schedule",
               "params": {"kernel": "daxpy", "config": "not-a-config"}}
        batch = BatchScheduler(session, db=tmp_path / "runs.sqlite")
        try:
            first = batch.submit(bad)
            assert batch.wait(first, timeout=60)["state"] == "failed"
            second = batch.submit(bad)
            assert second == f"{first}.2"
        finally:
            batch.shutdown()

    def test_digest_is_identical_across_lifetimes(self, tmp_path):
        """The CI durability-smoke invariant, in-process: an interrupted
        run finished by a second lifetime digests identically to an
        uninterrupted one."""
        digests = []
        for name in ("one", "two"):
            sess = Session()
            batch = BatchScheduler(sess, db=tmp_path / f"{name}.sqlite")
            try:
                job_id = batch.submit(DAXPY)
                status = batch.wait(job_id, timeout=120)
                assert status["state"] == "done"
                digests.append(status["runs_digest"])
            finally:
                batch.shutdown()
                batch.db.close()
                sess.close()
        assert digests[0] == digests[1]


# --------------------------------------------------------------------------- #
# The served result: one stored text behind every reader
# --------------------------------------------------------------------------- #
EVALUATE = {"kind": "evaluate", "params": {"config": "S64", "n_loops": 6}}


@contextmanager
def _serving(path):
    """A scheduler over the database at ``path`` behind a live HTTP server."""
    sess = Session()
    scheduler = BatchScheduler(sess, db=path)
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield scheduler, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        scheduler.shutdown()
        scheduler.db.close()
        sess.close()


def _finished_job(path) -> str:
    with _serving(path) as (scheduler, url):
        job_id = submit_job(url, EVALUATE)
        assert scheduler.wait(job_id, timeout=120)["state"] == "done"
    return job_id


class TestServedResult:
    """The GET body, ``result()`` and the ``jobs.result`` column agree."""

    def assert_one_result(self, scheduler, url, job_id):
        body = urllib.request.urlopen(f"{url}/v2/jobs/{job_id}").read()
        status = json.loads(body)
        assert status["state"] == "done"
        # Sorted-key JSON, as the route served it before the stored text
        # went onto the wire without being decoded.
        assert body == json.dumps(status, sort_keys=True).encode()
        stored = json.loads(scheduler.db.job(job_id)["result"])
        assert status["result"] == scheduler.result(job_id) == stored
        report = serialize.from_dict(status["result"])
        assert runs_digest(report.runs) == status["runs_digest"]
        # A caller owns what result() hands out: changing it changes
        # neither the next GET nor the next result().
        mine = scheduler.result(job_id)
        mine["data"]["runs"].clear()
        mine["type"] = "changed"
        assert fetch_json(f"{url}/v2/jobs/{job_id}")["result"] == stored
        assert scheduler.result(job_id) == stored

    def test_live_job(self, tmp_path):
        with _serving(tmp_path / "runs.sqlite") as (scheduler, url):
            job_id = submit_job(url, EVALUATE)
            assert scheduler.wait(job_id, timeout=120)["state"] == "done"
            self.assert_one_result(scheduler, url, job_id)

    def test_job_restored_after_a_restart(self, tmp_path):
        job_id = _finished_job(tmp_path / "runs.sqlite")
        with _serving(tmp_path / "runs.sqlite") as (scheduler, url):
            self.assert_one_result(scheduler, url, job_id)

    def test_resubmitted_job(self, tmp_path):
        job_id = _finished_job(tmp_path / "runs.sqlite")
        with _serving(tmp_path / "runs.sqlite") as (scheduler, url):
            assert submit_job(url, EVALUATE) == job_id
            self.assert_one_result(scheduler, url, job_id)


# --------------------------------------------------------------------------- #
# Quotas and fairness
# --------------------------------------------------------------------------- #
class TestQuotasAndFairness:
    def test_quota_limits_queued_jobs_per_client(self, session):
        batch = BatchScheduler(session, max_queued_per_client=2, start=False)
        try:
            batch.submit(DAXPY, client="alice")
            batch.submit(VADD, client="alice")
            with pytest.raises(QuotaExceeded, match="quota: 2"):
                batch.submit(FIR, client="alice")
            # Another client's queue is untouched by alice's quota.
            batch.submit(FIR, client="bob")
        finally:
            batch.shutdown()

    def test_quota_must_be_positive(self, session):
        with pytest.raises(ValueError, match=">= 1"):
            BatchScheduler(session, max_queued_per_client=0, start=False)

    def test_resubmission_of_done_content_never_hits_the_quota(
        self, tmp_path, session
    ):
        batch = BatchScheduler(session, db=tmp_path / "runs.sqlite",
                               max_queued_per_client=1)
        try:
            job_id = batch.submit(DAXPY, client="alice")
            assert batch.wait(job_id, timeout=120)["state"] == "done"
            other = batch.submit(VADD, client="alice")
            # Queue is now full for alice, but replaying finished work is
            # answered from the store -- not a new queue entry.
            assert batch.submit(DAXPY, client="alice") == job_id
            batch.wait(other, timeout=120)
        finally:
            batch.shutdown()

    def test_round_robin_across_clients_fifo_within(self, session):
        batch = BatchScheduler(session, start=False)
        try:
            a1 = batch.submit(DAXPY, client="alice")
            a2 = batch.submit(VADD, client="alice")
            a3 = batch.submit(FIR, client="alice")
            b1 = batch.submit(DAXPY, client="bob")
            with batch._lock:
                order = [batch._dequeue_locked() for _ in range(4)]
            # bob's single job is not stuck behind alice's backlog.
            assert order == [a1, b1, a2, a3]
        finally:
            batch.shutdown()

    def test_stats_expose_queue_and_recovery_counters(self, session):
        batch = BatchScheduler(session, max_queued_per_client=5, start=False)
        try:
            batch.submit(DAXPY, client="alice")
            stats = batch.stats()
            assert stats["queued_by_client"] == {"alice": 1}
            assert stats["max_queued_per_client"] == 5
            assert stats["n_recovered"] == 0
            assert "db" not in stats
        finally:
            batch.shutdown()
