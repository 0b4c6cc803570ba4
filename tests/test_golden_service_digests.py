"""Golden service digests: what a finished service job records, pinned.

``tests/golden_service_digests.json`` holds, for two jobs run through a
:class:`~repro.service.BatchScheduler` with a
:class:`~repro.store.RunDatabase` attached -- a ``schedule`` job
(``daxpy`` on ``4C16S16``) and a tier-less ``evaluate`` job (``S64``,
the default 16 loops, seed 11) -- the job's ``runs_digest`` and the
``digest`` of every run row it writes, in workbench order.  Each row's
``run_key`` is checked against :func:`repro.eval.cache.schedule_key`
recomputed from the loop, so the row identity is covered without pinning
the package version that key carries.

A change to how the service finishes a job must reproduce these values
without regenerating the file.  Only a change meant to alter schedules
regenerates it, and says so::

    PYTHONPATH=src python tests/test_golden_service_digests.py > tests/golden_service_digests.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.eval.cache import schedule_key
from repro.service import BatchScheduler
from repro.session import Session
from repro.store import RunDatabase
from repro.workloads.kernels import build_kernel

GOLDEN_PATH = Path(__file__).with_name("golden_service_digests.json")

JOBS = {
    "schedule": {"kind": "schedule",
                 "params": {"kernel": "daxpy", "config": "4C16S16"}},
    "evaluate": {"kind": "evaluate", "params": {"config": "S64", "seed": 11}},
}


def run_jobs(db_path: Path) -> Dict[str, Dict]:
    """Run every job in ``JOBS``; per job, its digest and its row digests.

    Raises ``AssertionError`` when a row's ``run_key`` is not the
    recomputed ``schedule_key`` of its loop.
    """
    golden: Dict[str, Dict] = {}
    with Session() as session, RunDatabase(db_path) as db:
        scheduler = BatchScheduler(session, db=db)
        try:
            for name, request in JOBS.items():
                job_id = scheduler.submit(request)
                status = scheduler.wait(job_id, timeout=300)
                assert status["state"] == "done", status
                params = request["params"]
                if request["kind"] == "schedule":
                    loops = [build_kernel(params["kernel"])]
                else:
                    loops = session.workbench(n_loops=16, seed=params["seed"])
                rf = session.resolve_rf(params["config"])
                rows = {row.run_key: row for row in db.query_runs()
                        if row.job_id == job_id}
                assert len(rows) == len(loops)
                digests = []
                for loop in loops:
                    key = schedule_key(loop, rf, session.machine,
                                       budget_ratio=session.budget_ratio,
                                       scheduler=session.policy)
                    assert key in rows, f"no run row keyed {key} for {loop.name}"
                    digests.append(rows[key].digest)
                golden[name] = {"runs_digest": status["runs_digest"],
                                "row_digests": digests}
        finally:
            scheduler.shutdown()
    return golden


@pytest.fixture(scope="module")
def served(tmp_path_factory) -> Dict[str, Dict]:
    return run_jobs(tmp_path_factory.mktemp("golden-service") / "runs.sqlite")


@pytest.mark.parametrize("name", sorted(JOBS))
def test_job_runs_digest(served, name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert served[name]["runs_digest"] == golden[name]["runs_digest"]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_run_row_digests(served, name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert served[name]["row_digests"] == golden[name]["row_digests"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(run_jobs(Path(scratch) / "runs.sqlite"),
                         indent=2, sort_keys=True))
