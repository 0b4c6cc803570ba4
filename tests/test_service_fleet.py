"""Tests for the distributed fleet: coordinator, workers, wire types.

The failure matrix the design exists for is pinned here:

* a worker killed mid-shard costs one lease, not a run -- the lease
  expires, the shard is reassigned, and the final digest is unchanged;
* a completion arriving after its lease was reaped is accepted once,
  idempotently (``stale=True`` on every later arrival);
* a coordinator restarted over a warm :class:`ResultStore` re-schedules
  zero shards.

The end-to-end test runs the real stack -- ``BatchScheduler`` +
``ShardCoordinator`` behind the HTTP server, two in-process
:func:`run_worker` loops, one of them killed mid-run -- and asserts the
distributed report's ``runs_digest`` is byte-identical to the
single-process and checkpoint-resumed ones.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import serialize
from repro.eval.experiments import iter_schedule_suite
from repro.eval.shards import ResultStore, ShardResult, runs_digest
from repro.machine.presets import baseline_machine, config_by_name
from repro.service import (
    BatchScheduler,
    CoordinatorClosed,
    LeaseHeartbeat,
    ShardCoordinator,
    ShardLease,
    WorkerStatus,
    fetch_json,
    make_server,
    poll_job,
    run_worker,
    submit_job,
)
from repro.session import Session
from repro.workloads.suite import build_workbench


class FakeClock:
    """An injectable monotonic clock (seconds advance only on demand)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _loops(n: int = 4):
    return build_workbench("tiny", n_loops=n, seed=2003)


def _schedule_envelope(lease: ShardLease) -> dict:
    """Compute a lease's canonical shard_result envelope locally."""
    runs = [None] * len(lease.loops)
    for local, run, _cached in iter_schedule_suite(
        list(lease.loops),
        lease.config,
        machine=lease.machine,
        scale_to_clock=lease.scale_to_clock,
        budget_ratio=lease.budget_ratio,
        scheduler=lease.policy,
    ):
        runs[local] = run
    result = ShardResult(
        key=lease.shard_key,
        config_name=lease.config.name,
        positions=list(lease.positions),
        runs=runs,
    )
    return serialize.to_dict(result)


def _local_runs(loops, config_name: str = "S64"):
    """The single-process reference runs for a loop list."""
    runs = [None] * len(loops)
    for position, run, _cached in iter_schedule_suite(
        loops, config_by_name(config_name), machine=baseline_machine()
    ):
        runs[position] = run
    return runs


# --------------------------------------------------------------------------- #
# Wire types
# --------------------------------------------------------------------------- #
class TestWireTypes:
    def test_shard_lease_roundtrip(self, tmp_path):
        coordinator = ShardCoordinator(ResultStore(tmp_path / "store"))
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        worker = coordinator.register_worker("alice")
        lease = coordinator.acquire_lease(worker.worker_id)
        assert lease is not None
        envelope = serialize.to_dict(lease)
        assert envelope["type"] == "shard_lease"
        serialize.validate(envelope, expect_type="shard_lease")
        back = serialize.from_dict(envelope)
        assert isinstance(back, ShardLease)
        assert (back.lease_id, back.worker_id, back.job_id) == (
            lease.lease_id, lease.worker_id, lease.job_id
        )
        assert back.shard_key == lease.shard_key
        assert back.positions == lease.positions
        assert back.config == lease.config
        assert back.machine == lease.machine
        assert (back.policy, back.budget_ratio,
                back.scale_to_clock, back.lease_timeout_s) == (
            lease.policy, lease.budget_ratio,
            lease.scale_to_clock, lease.lease_timeout_s
        )
        # Loop fingerprints survive the round trip (the digest identity
        # contract rides on this; Loop itself compares by identity).
        assert [loop.fingerprint() for loop in back.loops] == [
            loop.fingerprint() for loop in lease.loops
        ]

    def test_heartbeat_and_worker_status_roundtrip(self):
        beat = LeaseHeartbeat(lease_id="lease-1", worker_id="w-1",
                              extended=True, remaining_s=12.5)
        assert serialize.from_dict(serialize.to_dict(beat)) == beat
        status = WorkerStatus(worker_id="w-1", name="alice", state="leased",
                              lease_id="lease-1", last_seen_s=0.25,
                              n_completed=3, n_expired=1, n_failed=0)
        assert serialize.from_dict(serialize.to_dict(status)) == status


# --------------------------------------------------------------------------- #
# Coordinator unit tests (deterministic fake clock)
# --------------------------------------------------------------------------- #
class TestCoordinator:
    @pytest.fixture()
    def clock(self):
        return FakeClock()

    @pytest.fixture()
    def store(self, tmp_path):
        return ResultStore(tmp_path / "fleet-store")

    @pytest.fixture()
    def coordinator(self, store, clock):
        coordinator = ShardCoordinator(store, lease_timeout_s=10.0, clock=clock)
        yield coordinator
        coordinator.close()

    def test_pull_based_leasing_drains_the_queue(self, coordinator):
        counters = coordinator.start_job("job-1", _loops(4), "S64", shard_size=2)
        assert counters == {"n_shards": 2, "n_restored": 0, "n_pending": 2}
        worker = coordinator.register_worker()
        first = coordinator.acquire_lease(worker.worker_id)
        second = coordinator.acquire_lease(worker.worker_id)
        assert first is not None and second is not None
        assert {first.shard_index, second.shard_index} == {0, 1}
        assert coordinator.acquire_lease(worker.worker_id) is None

    def test_unregistered_worker_cannot_lease(self, coordinator):
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        with pytest.raises(KeyError, match="register first"):
            coordinator.acquire_lease("w-999")

    def test_worker_death_costs_one_shard_not_the_run(
        self, coordinator, clock, store
    ):
        """Lease expiry -> reassignment -> digest unchanged."""
        loops = _loops(4)
        coordinator.start_job("job-1", loops, "S64", shard_size=2)
        dead = coordinator.register_worker("dead")
        doomed = coordinator.acquire_lease(dead.worker_id)
        assert doomed is not None
        # The worker dies silently; its lease runs out.
        clock.advance(10.1)
        survivor = coordinator.register_worker("survivor")
        leases = []
        while True:
            lease = coordinator.acquire_lease(survivor.worker_id)
            if lease is None:
                break
            leases.append(lease)
        # The survivor picked up both remaining shards, including the
        # reaped one.
        assert {lease.shard_index for lease in leases} == {0, 1}
        assert coordinator.n_reassigned == 1
        assert any(lease.shard_key == doomed.shard_key for lease in leases)
        for lease in leases:
            ack = coordinator.complete(
                survivor.worker_id, lease.lease_id, _schedule_envelope(lease)
            )
            assert ack == {"accepted": True, "stale": False}
        runs = coordinator.wait_job("job-1", timeout=0.1)
        assert runs_digest(runs) == runs_digest(_local_runs(loops))
        # The dead worker's expiry is visible in the worker listing.
        by_name = {status.name: status for status in coordinator.workers()}
        assert by_name["dead"].n_expired == 1
        assert by_name["survivor"].n_completed == 2

    def test_stale_completion_is_accepted_once_idempotently(
        self, coordinator, clock, store
    ):
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        slow = coordinator.register_worker("slow")
        lease = coordinator.acquire_lease(slow.worker_id)
        assert lease is not None
        envelope = _schedule_envelope(lease)
        clock.advance(10.1)  # the lease is reaped...
        fast = coordinator.register_worker("fast")
        release = coordinator.acquire_lease(fast.worker_id)
        assert release is not None and release.shard_key == lease.shard_key
        # ...the fast worker finishes first...
        ack = coordinator.complete(
            fast.worker_id, release.lease_id, _schedule_envelope(release)
        )
        assert ack == {"accepted": True, "stale": False}
        stores_after_first = store.stores
        # ...and the slow worker's late (but valid) completion is
        # acknowledged as stale without being applied again.
        late = coordinator.complete(slow.worker_id, lease.lease_id, envelope)
        assert late == {"accepted": True, "stale": True}
        assert store.stores == stores_after_first
        assert coordinator.n_stale_completions == 1

    def test_heartbeat_extends_live_lease_and_denies_reaped_one(
        self, coordinator, clock
    ):
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        worker = coordinator.register_worker()
        lease = coordinator.acquire_lease(worker.worker_id)
        clock.advance(6.0)
        beat = coordinator.heartbeat(worker.worker_id, lease.lease_id)
        assert beat.extended and beat.remaining_s == 10.0
        clock.advance(6.0)  # inside the renewed deadline
        assert coordinator.heartbeat(worker.worker_id, lease.lease_id).extended
        clock.advance(10.1)  # past it: the shard is gone
        beat = coordinator.heartbeat(worker.worker_id, lease.lease_id)
        assert not beat.extended and beat.remaining_s == 0.0

    def test_worker_error_requeues_shard_immediately(self, coordinator):
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        worker = coordinator.register_worker()
        lease = coordinator.acquire_lease(worker.worker_id)
        ack = coordinator.complete(
            worker.worker_id, lease.lease_id, None, error="ValueError: boom"
        )
        assert ack["requeued"] is True
        # No clock advance needed: the shard is pending again at once.
        again = coordinator.acquire_lease(worker.worker_id)
        assert again is not None and again.shard_key == lease.shard_key

    def test_repeatedly_failing_shard_fails_the_job(self, tmp_path, clock):
        coordinator = ShardCoordinator(
            ResultStore(tmp_path / "s"), lease_timeout_s=10.0,
            max_assignments=2, clock=clock,
        )
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        worker = coordinator.register_worker()
        for _ in range(2):
            lease = coordinator.acquire_lease(worker.worker_id)
            coordinator.complete(
                worker.worker_id, lease.lease_id, None, error="boom"
            )
        with pytest.raises(RuntimeError, match="failed after 2 assignments"):
            coordinator.wait_job("job-1", timeout=0.1)

    def test_restart_over_warm_store_reschedules_zero_shards(
        self, tmp_path, clock
    ):
        loops = _loops(4)
        store = ResultStore(tmp_path / "warm")
        first = ShardCoordinator(store, lease_timeout_s=10.0, clock=clock)
        first.start_job("job-1", loops, "S64", shard_size=2)
        worker = first.register_worker()
        while True:
            lease = first.acquire_lease(worker.worker_id)
            if lease is None:
                break
            first.complete(worker.worker_id, lease.lease_id,
                           _schedule_envelope(lease))
        runs = first.wait_job("job-1", timeout=0.1)
        first.close()
        # A brand-new coordinator over the same store: everything restores.
        second = ShardCoordinator(
            ResultStore(tmp_path / "warm"), lease_timeout_s=10.0, clock=clock
        )
        counters = second.start_job("job-2", loops, "S64", shard_size=2)
        assert counters == {"n_shards": 2, "n_restored": 2, "n_pending": 0}
        restored = second.wait_job("job-2", timeout=0.1)
        assert runs_digest(restored) == runs_digest(runs)
        second.close()

    def test_close_aborts_waiters(self, coordinator):
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        errors = []

        def wait():
            try:
                coordinator.wait_job("job-1", timeout=30)
            except CoordinatorClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=wait)
        thread.start()
        time.sleep(0.05)
        coordinator.close()
        thread.join(timeout=5)
        assert not thread.is_alive() and len(errors) == 1

    def test_duplicate_job_id_rejected(self, coordinator):
        coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)
        with pytest.raises(ValueError, match="already running"):
            coordinator.start_job("job-1", _loops(2), "S64", shard_size=2)


# --------------------------------------------------------------------------- #
# End to end: coordinator + HTTP + 2 workers, one killed mid-run
# --------------------------------------------------------------------------- #
class TestFleetEndToEnd:
    def test_two_worker_fleet_with_one_killed_matches_local_digest(
        self, tmp_path
    ):
        loops = build_workbench("tiny", n_loops=8, seed=2003)
        session = Session(shard_size=2)
        coordinator = ShardCoordinator(
            ResultStore(tmp_path / "fleet"), lease_timeout_s=1.0
        )
        batch = BatchScheduler(session, coordinator=coordinator)
        server = make_server(batch, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base_url = f"http://{host}:{port}"

        stop_doomed = threading.Event()
        stop_survivor = threading.Event()
        results = {}

        def kill_on_first_lease(message):
            # Die the moment the first lease is acquired: the stop event
            # aborts scheduling mid-shard, so the lease is abandoned with
            # work genuinely in flight.
            if message.startswith("leased shard"):
                stop_doomed.set()

        def doomed():
            results["doomed"] = run_worker(
                base_url, name="doomed", poll_interval=0.05,
                stop=stop_doomed, progress=kill_on_first_lease,
            )

        def survivor():
            results["survivor"] = run_worker(
                base_url, name="survivor", poll_interval=0.05,
                stop=stop_survivor,
            )

        threads = [threading.Thread(target=doomed),
                   threading.Thread(target=survivor)]
        try:
            threads[0].start()
            job_id = submit_job(
                base_url,
                {"kind": "evaluate",
                 "params": {"config": "S64", "tier": "tiny", "n_loops": 8}},
            )
            # The doomed worker dies mid-shard (see kill_on_first_lease);
            # only once it is gone does the survivor start, so it must
            # take every still-pending shard plus — after the 1s lease
            # timeout reaps it — the abandoned one.
            threads[0].join(timeout=60)
            assert not threads[0].is_alive()
            threads[1].start()
            status = poll_job(base_url, job_id, timeout=300, poll_interval=0.1)
            assert status["state"] == "done", status.get("error")
            assert status["progress"] == {"n_done": 8, "n_total": 8}
            envelope = status["result"]
            serialize.validate(envelope, expect_type="configuration_report")
            report = serialize.from_dict(envelope)
            # The fleet's registered workers are visible over the wire.
            workers = [
                serialize.from_dict(entry)
                for entry in fetch_json(f"{base_url}/v2/workers")["workers"]
            ]
            assert {w.name for w in workers} == {"doomed", "survivor"}
        finally:
            stop_doomed.set()
            stop_survivor.set()
            for worker_thread in threads:
                if worker_thread.ident is not None:
                    worker_thread.join(timeout=10)
            server.shutdown()
            batch.shutdown()
            session.close()

        # Digest identity, leg 1: vs a plain single-process run.
        with Session() as local:
            reference = local.evaluate_configuration(
                "S64", tier="tiny", n_loops=8
            )
        assert runs_digest(report.runs) == runs_digest(reference.runs)

        # Leg 2: vs a checkpointed run and its resumed re-run.
        with Session(checkpoint=tmp_path / "ck", shard_size=2) as checkpointed:
            cold = checkpointed.evaluate_configuration(
                "S64", tier="tiny", n_loops=8
            )
        with Session(checkpoint=tmp_path / "ck", shard_size=2) as resumed_session:
            resumed = resumed_session.evaluate_configuration(
                "S64", tier="tiny", n_loops=8
            )
            assert resumed_session.checkpoint.hits == 4  # all 4 shards restored
        assert runs_digest(report.runs) == runs_digest(cold.runs)
        assert runs_digest(report.runs) == runs_digest(resumed.runs)

        # The doomed worker really did lose work to the reaper: it took
        # exactly one lease, completed nothing, and abandoned the shard
        # mid-flight; the survivor then finished every one of the four.
        assert results["doomed"].n_leases == 1
        assert results["doomed"].n_completed == 0
        assert results["doomed"].n_lost == 1
        assert results["survivor"].n_completed == 4
        assert coordinator.stats()["n_reassigned"] == 1

    def test_worker_cli_registers_and_idle_exits(self, tmp_path, capsys):
        from repro.cli import main

        session = Session()
        coordinator = ShardCoordinator(ResultStore(tmp_path / "s"))
        batch = BatchScheduler(session, coordinator=coordinator)
        server = make_server(batch, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base_url = f"http://{host}:{port}"
        try:
            exit_code = main([
                "worker", "--url", base_url, "--name", "cli-worker",
                "--poll", "0.05", "--idle-exit", "0.3s",
            ])
            assert exit_code == 0
            err = capsys.readouterr().err
            assert "registered as" in err and "exiting" in err
            names = {
                serialize.from_dict(entry).name
                for entry in fetch_json(f"{base_url}/v2/workers")["workers"]
            }
            assert "cli-worker" in names
        finally:
            server.shutdown()
            batch.shutdown()
            session.close()

    def test_worker_against_non_coordinator_service_fails_cleanly(self):
        session = Session()
        batch = BatchScheduler(session)
        server = make_server(batch, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(RuntimeError, match="not a fleet coordinator"):
                run_worker(f"http://{host}:{port}", max_leases=1)
        finally:
            server.shutdown()
            batch.shutdown()
            session.close()
