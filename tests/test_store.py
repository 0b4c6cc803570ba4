"""Tests for the SQLite run database (repro.store).

Covers the durable state layer under ``repro serve --db``: schema and
journal mode, the jobs and runs tables, filtered queries, the
live-run converter, envelope round trips, and -- the concurrency
contract -- two independent *processes* writing one file at once.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import serialize
from repro.store import (
    DB_SCHEMA_VERSION,
    RunDatabase,
    RunRow,
    rows_from_runs,
    run_row_from_dict,
    run_row_to_dict,
)


def _row(key: str, **overrides) -> RunRow:
    defaults = dict(
        run_key=key,
        loop_name=f"loop_{key}",
        config_name="4C16S16",
        policy="mirs_hc",
        core="array",
        version="0.0",
        status="ok",
        ii=10,
        mii=8,
        spills=1,
        scheduling_time_s=0.25,
        digest=f"digest-{key}",
        job_id="job-aaaaaaaaaaaaaaaa",
        created_at=1000.0,
    )
    defaults.update(overrides)
    return RunRow(**defaults)


@pytest.fixture()
def db(tmp_path):
    database = RunDatabase(tmp_path / "runs.sqlite")
    yield database
    database.close()


class TestConnectionSetup:
    def test_wal_mode_and_busy_timeout(self, db):
        assert db.journal_mode == "wal"
        assert db.busy_timeout_s == pytest.approx(5.0)

    def test_database_file_is_shareable(self, tmp_path, db):
        # A second connection (the `repro report` reader) opens the same
        # file while the first stays live.
        with RunDatabase(tmp_path / "runs.sqlite") as reader:
            assert reader.stats()["n_runs"] == 0

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with RunDatabase(path) as database:
            database._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'db_schema'",
                (str(DB_SCHEMA_VERSION + 1),),
            )
            database._conn.commit()
        with pytest.raises(ValueError, match="understands <="):
            RunDatabase(path)


class TestJobsTable:
    def test_upsert_and_read_back(self, db):
        db.upsert_job({
            "job_id": "job-ab12", "job_key": "ab12ff", "kind": "schedule",
            "client": "alice", "params": "{}", "state": "queued",
            "submitted_at": 1.0,
        })
        row = db.job("job-ab12")
        assert row["state"] == "queued" and row["client"] == "alice"
        assert db.job("job-nope") is None

    def test_update_job_fields(self, db):
        db.upsert_job({
            "job_id": "job-1", "job_key": "k", "kind": "evaluate",
            "client": "anonymous", "params": "{}", "state": "queued",
            "submitted_at": 1.0,
        })
        db.update_job("job-1", state="done", result='{"x": 1}',
                      runs_digest="d" * 64)
        row = db.job("job-1")
        assert row["state"] == "done"
        assert row["runs_digest"] == "d" * 64

    def test_unknown_columns_rejected(self, db):
        with pytest.raises(ValueError, match="unknown jobs columns"):
            db.upsert_job({"job_id": "job-1", "explode": True})
        with pytest.raises(ValueError, match="unknown jobs columns"):
            db.update_job("job-1", explode=True)

    def test_job_by_key_returns_latest_submission(self, db):
        for index, job_id in enumerate(("job-k", "job-k.2")):
            db.upsert_job({
                "job_id": job_id, "job_key": "samekey", "kind": "schedule",
                "client": "anonymous", "params": "{}", "state": "done",
                "submitted_at": float(index),
            })
        assert db.job_by_key("samekey")["job_id"] == "job-k.2"
        assert db.job_by_key("unseen") is None

    def test_pending_jobs_in_submission_order(self, db):
        for index, (job_id, state) in enumerate((
            ("job-a", "done"), ("job-b", "running"),
            ("job-c", "queued"), ("job-d", "cancelled"),
        )):
            db.upsert_job({
                "job_id": job_id, "job_key": job_id, "kind": "schedule",
                "client": "anonymous", "params": "{}", "state": state,
                "submitted_at": float(index),
            })
        pending = [row["job_id"] for row in db.pending_jobs()]
        assert pending == ["job-b", "job-c"]
        assert [row["job_id"] for row in db.jobs()] == [
            "job-a", "job-b", "job-c", "job-d",
        ]


class TestRunsTable:
    def test_add_runs_is_idempotent_on_run_key(self, db):
        assert db.add_runs([_row("k1"), _row("k2")]) == 2
        # Re-evaluating identical work refreshes rows, never duplicates.
        assert db.add_runs([_row("k1", ii=9)]) == 1
        rows = db.query_runs()
        assert len(rows) == 2
        assert {row.run_key: row.ii for row in rows} == {"k1": 9, "k2": 10}

    def test_round_trips_through_sqlite(self, db):
        original = _row("k1", tier="small", seed=7)
        db.add_runs([original])
        assert db.query_runs() == [original]

    def test_query_filters(self, db):
        db.add_runs([
            _row("k1", config_name="4C16S16", policy="mirs_hc",
                 loop_name="daxpy_u4", created_at=100.0, tier="tiny"),
            _row("k2", config_name="S64", policy="mirs_hc",
                 loop_name="fir_filter", created_at=200.0, tier="small"),
            _row("k3", config_name="S64", policy="non_iterative",
                 loop_name="vadd", created_at=300.0, tier=None),
        ])
        assert [r.run_key for r in db.query_runs(configs=("S64",))] == ["k2", "k3"]
        assert [r.run_key for r in db.query_runs(policies=("mirs_hc",))] == [
            "k1", "k2",
        ]
        assert [r.run_key for r in db.query_runs(tiers=("tiny",))] == ["k1"]
        assert [r.run_key for r in db.query_runs(loop="fir")] == ["k2"]
        assert [r.run_key for r in db.query_runs(since=200.0)] == ["k2", "k3"]
        assert [r.run_key for r in db.query_runs(until=200.0)] == ["k1"]
        assert [r.run_key for r in db.query_runs(limit=2)] == ["k1", "k2"]
        assert db.query_runs(configs=("S64",), policies=("non_iterative",)) == [
            db.query_runs(loop="vadd")[0]
        ]

    def test_stats(self, db):
        db.add_runs([_row("k1")])
        db.upsert_job({
            "job_id": "job-1", "job_key": "k", "kind": "schedule",
            "client": "anonymous", "params": "{}", "state": "done",
            "submitted_at": 1.0,
        })
        stats = db.stats()
        assert stats["n_runs"] == 1 and stats["n_jobs"] == 1
        assert stats["jobs_by_state"] == {"done": 1}
        assert stats["journal_mode"] == "wal"


class TestRunRowEnvelope:
    def test_dict_round_trip(self):
        row = _row("k1", tier="small", seed=7)
        assert run_row_from_dict(run_row_to_dict(row)) == row

    def test_serialize_envelope_round_trip(self):
        row = _row("k1")
        envelope = serialize.to_dict(row)
        assert envelope["type"] == "run_row"
        serialize.validate(envelope, expect_type="run_row")
        assert serialize.from_dict(envelope) == row

    def test_optional_fields_default(self):
        row = run_row_from_dict({
            "run_key": "k", "loop_name": "l", "config_name": "c",
            "policy": "p", "core": "array", "status": "ok",
        })
        assert row.ii is None and row.spills == 0 and row.job_id is None


class TestRowsFromRuns:
    def test_rows_match_the_cache_identity(self):
        from repro.eval.cache import schedule_key
        from repro.eval.metrics import LoopRun
        from repro.session import Session
        from repro.workloads.kernels import build_kernel

        session = Session()
        try:
            loop = build_kernel("daxpy")
            result = session.schedule_kernel(loop, "S64")
            rf = session.resolve_rf("S64")
            rows = rows_from_runs(
                [LoopRun(loop=loop, result=result)],
                rf=rf, machine=session.machine,
                policy=session.policy,
                budget_ratio=session.budget_ratio,
                job_id="job-x", tier="tiny", created_at=42.0,
            )
        finally:
            session.close()
        (row,) = rows
        assert row.run_key == schedule_key(
            loop, rf, session.machine, budget_ratio=session.budget_ratio,
            scheduler=session.policy,
        )
        assert row.status == "ok" and row.ii >= row.mii >= 1
        assert row.core == "array"
        assert row.digest and row.job_id == "job-x"
        assert row.created_at == 42.0


_WRITER_SCRIPT = textwrap.dedent("""
    import sys
    from repro.store import RunDatabase, RunRow

    path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
    db = RunDatabase(path, busy_timeout_s=20.0)
    for index in range(count):
        db.upsert_job({
            "job_id": f"job-{tag}-{index}", "job_key": f"{tag}-{index}",
            "kind": "schedule", "client": tag, "params": "{}",
            "state": "queued", "submitted_at": float(index),
        })
        db.add_runs([RunRow(
            run_key=f"{tag}-{index}", loop_name=f"loop_{index}",
            config_name="S64", policy="mirs_hc", core="array",
            version="0", status="ok", ii=10, mii=8, created_at=float(index),
        )])
    db.close()
""")


class TestTwoProcessContention:
    def test_concurrent_writers_share_one_file(self, tmp_path):
        """Two processes hammering one database must not lose writes.

        WAL plus the busy timeout is the contract: writers briefly queue
        behind each other instead of failing with 'database is locked'.
        """
        path = tmp_path / "contended.sqlite"
        RunDatabase(path).close()  # create tables up front
        count = 40
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT,
                 str(path), tag, str(count)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for tag in ("alpha", "beta")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with RunDatabase(path) as db:
            stats = db.stats()
            assert stats["n_jobs"] == 2 * count
            assert stats["n_runs"] == 2 * count
