"""The shard coordinator: distributed evaluation over a pull-based fleet.

A :class:`ShardCoordinator` owns the server side of the fleet protocol.
For every distributed evaluate job it builds a
:class:`~repro.eval.shards.ShardPlan`, restores the shards its
:class:`~repro.eval.shards.ResultStore` already holds (a coordinator
restarted over a warm store re-schedules **zero** shards), and hands the
rest out as :class:`~repro.service.wire.ShardLease`\\ s to whichever
registered worker asks first -- pull-based, so idle workers steal work
and a fleet with one slow machine still finishes at the speed of the
fast ones.

Failure semantics (the whole point of the design):

* **Worker death costs one shard, not a run.**  A lease carries a
  deadline; a worker that stops heartbeating past it is *reaped* -- the
  lease is revoked and the shard goes back on the pending queue for the
  next puller.
* **Completions are idempotent and content-addressed.**  A worker that
  finishes after its lease was reaped (it was slow, not dead) still
  posts a valid ``shard_result``: the envelope's content-addressed key
  identifies the shard, so the first completion wins, is persisted, and
  every later one is acknowledged as ``stale`` without being applied.
* **Results are persisted through the existing
  :class:`~repro.eval.shards.ResultStore`**, so a distributed run, a
  local checkpointed run, and a resumed run share one on-disk format and
  produce byte-identical ``runs_digest``\\ s.
* **A shard that keeps failing fails the job**, loudly: after
  ``max_assignments`` hand-outs (worker errors or repeated expiries) the
  job errors out instead of spinning forever.

Everything is in-process and thread-safe; the HTTP layer
(:mod:`repro.service.http`, ``/v2/workers/*``) is a thin wire adapter
over the public methods, exactly like :class:`BatchScheduler` and
``/v2/jobs``.  Time is injectable (``clock=``) so lease expiry is
deterministic under test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.eval.metrics import LoopRun
from repro.eval.shards import (
    DEFAULT_SHARD_SIZE,
    ResultStore,
    Shard,
    ShardResult,
    plan_shards,
)
from repro.ddg.loop import Loop
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import baseline_machine
from repro.service.wire import LeaseHeartbeat, ShardLease, WorkerStatus

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.db import RunDatabase

__all__ = ["CoordinatorClosed", "ShardCoordinator"]

#: A worker silent for this many lease timeouts is reported ``lost`` in
#: worker listings (purely informational -- reassignment is driven by
#: per-lease deadlines, not by worker liveness).
LOST_AFTER_TIMEOUTS: float = 3.0


class CoordinatorClosed(RuntimeError):
    """The coordinator was shut down while work was outstanding."""


@dataclass
class _WorkerRecord:
    worker_id: str
    name: str
    last_seen: float
    lease_id: Optional[str] = None
    n_completed: int = 0
    n_expired: int = 0
    n_failed: int = 0


@dataclass
class _LeaseRecord:
    lease_id: str
    worker_id: str
    job_id: str
    shard_index: int
    deadline: float
    #: ``active`` while held; ``expired`` after the reaper revoked it;
    #: ``completed`` once its result was accepted; ``stale`` when the
    #: shard was completed by someone else first.
    state: str = "active"


@dataclass
class _ShardState:
    shard: Shard
    #: ``pending`` -> ``leased`` -> ``done`` (pending again on expiry).
    state: str = "pending"
    runs: Optional[List[LoopRun]] = None
    lease_id: Optional[str] = None
    #: Times this shard was handed out (bounded by ``max_assignments``).
    n_assignments: int = 0


@dataclass
class _FleetJob:
    job_id: str
    config: RFConfig
    machine: MachineConfig
    loops: List[Loop]
    policy: str
    budget_ratio: float
    scale_to_clock: bool
    shards: List[_ShardState] = field(default_factory=list)
    n_restored: int = 0
    error: Optional[str] = None

    @property
    def n_total_loops(self) -> int:
        return len(self.loops)

    def n_done_loops(self) -> int:
        return sum(
            len(state.shard.positions) for state in self.shards
            if state.state == "done"
        )

    def done(self) -> bool:
        return all(state.state == "done" for state in self.shards)


class ShardCoordinator:
    """Hand out shard leases to a pull-based worker fleet.

    Parameters
    ----------
    store:
        The :class:`~repro.eval.shards.ResultStore` completed shard
        envelopes are persisted through (and restored from on start).
    lease_timeout_s:
        Seconds a lease stays valid between renewals.  Workers heartbeat
        well inside this; a worker that misses it loses the shard.
    max_assignments:
        Hand-outs per shard before the owning job is failed (guards
        against a shard that deterministically crashes every worker).
    db:
        Optional :class:`~repro.store.db.RunDatabase`: every accepted
        shard completion is additionally written through to the run
        table *as it arrives*, so a job interrupted mid-fleet still
        leaves its finished shards queryable.
    clock:
        Monotonic time source (injectable for deterministic expiry tests).
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        lease_timeout_s: float = 60.0,
        max_assignments: int = 5,
        db: Optional["RunDatabase"] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}"
            )
        self.store = store
        self.db = db
        self.lease_timeout_s = float(lease_timeout_s)
        self.max_assignments = int(max_assignments)
        self._clock = clock
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._workers: Dict[str, _WorkerRecord] = {}
        self._leases: Dict[str, _LeaseRecord] = {}
        self._jobs: Dict[str, _FleetJob] = {}
        #: FIFO of (job_id, shard_index) awaiting a worker.
        self._pending: List[Tuple[str, int]] = []
        #: shard key -> (job_id, shard_index); completions resolve their
        #: shard by content, so even a completion whose lease is long
        #: gone lands on the right shard.
        self._by_key: Dict[str, Tuple[str, int]] = {}
        self._counter = 0
        self._closed = False
        self.n_reassigned = 0
        self.n_stale_completions = 0

    # ------------------------------------------------------------------ #
    # Job side (driven by BatchScheduler)
    # ------------------------------------------------------------------ #
    def start_job(
        self,
        job_id: str,
        loops: Sequence[Loop],
        rf: Union[RFConfig, str],
        *,
        machine: Optional[MachineConfig] = None,
        policy: str = "mirs_hc",
        budget_ratio: float = 6.0,
        scale_to_clock: bool = True,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> Dict[str, int]:
        """Plan and enqueue one evaluate job; returns restore counters.

        Shards already present in the store are marked done immediately
        (their runs restored), so a coordinator restarted over a warm
        checkpoint directory re-schedules nothing.
        """
        machine = machine or baseline_machine()
        plan = plan_shards(
            list(loops),
            rf,
            machine,
            shard_size=shard_size,
            scale_to_clock=scale_to_clock,
            budget_ratio=budget_ratio,
            scheduler=policy,
        )
        from repro.machine.presets import config_by_name

        rf_config = config_by_name(rf) if isinstance(rf, str) else rf
        job = _FleetJob(
            job_id=job_id,
            config=rf_config,
            machine=machine,
            loops=list(loops),
            policy=policy,
            budget_ratio=float(budget_ratio),
            scale_to_clock=scale_to_clock,
        )
        # Restored outside the lock: store probing is pure I/O.  Fleet
        # jobs bind no prefetch, so restored runs take the job's loops.
        restored: List[Optional[List[LoopRun]]] = [
            self.store.get(shard, [job.loops[p] for p in shard.positions])
            for shard in plan.shards
        ]
        with self._changed:
            self._check_open()
            if job_id in self._jobs:
                raise ValueError(f"job {job_id!r} is already running on this coordinator")
            for shard, runs in zip(plan.shards, restored):
                state = _ShardState(shard=shard)
                if runs is not None:
                    state.state = "done"
                    state.runs = list(runs)
                    job.n_restored += 1
                else:
                    self._pending.append((job_id, shard.index))
                self._by_key[shard.key] = (job_id, shard.index)
                job.shards.append(state)
            self._jobs[job_id] = job
            self._changed.notify_all()
        return {
            "n_shards": len(plan.shards),
            "n_restored": job.n_restored,
            "n_pending": len(plan.shards) - job.n_restored,
        }

    def wait_job(
        self,
        job_id: str,
        *,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[LoopRun]:
        """Block until every shard of ``job_id`` is done; returns the runs.

        Runs come back in workbench position order -- the exact list a
        local :func:`~repro.eval.experiments.schedule_suite` call with
        the same store would produce.  ``progress`` (optional) receives
        ``(n_loops_done, n_loops_total)`` on every change.  Raises
        ``TimeoutError`` on deadline, :class:`CoordinatorClosed` on
        shutdown, and ``RuntimeError`` when the job failed (a shard
        exhausted its assignment budget).
        """
        deadline = None if timeout is None else self._clock() + timeout
        last_done = -1
        with self._changed:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise KeyError(f"unknown fleet job {job_id!r}")
                self._reap_expired_locked()
                if progress is not None:
                    n_done = job.n_done_loops()
                    if n_done != last_done:
                        last_done = n_done
                        progress(n_done, job.n_total_loops)
                if job.error is not None:
                    raise RuntimeError(job.error)
                if job.done():
                    return self._collect_locked(job)
                if self._closed:
                    raise CoordinatorClosed(
                        f"coordinator closed with job {job_id} incomplete"
                    )
                # Wake early enough to reap the next lease to expire.
                wait_for = self._next_wake_locked(deadline)
                if wait_for is not None and wait_for <= 0:
                    if deadline is not None and self._clock() >= deadline:
                        raise TimeoutError(
                            f"fleet job {job_id} incomplete after {timeout:.0f}s "
                            f"({job.n_done_loops()}/{job.n_total_loops} loops)"
                        )
                    continue
                self._changed.wait(timeout=wait_for)

    def _next_wake_locked(self, deadline: Optional[float]) -> Optional[float]:
        """Seconds to sleep before something can change (None = forever)."""
        now = self._clock()
        candidates: List[float] = []
        if deadline is not None:
            candidates.append(deadline - now)
        for lease in self._leases.values():
            if lease.state == "active":
                candidates.append(lease.deadline - now)
        if not candidates:
            return None
        return max(min(candidates), 0.0)

    def _collect_locked(self, job: _FleetJob) -> List[LoopRun]:
        runs: List[Optional[LoopRun]] = [None] * job.n_total_loops
        for state in job.shards:
            assert state.runs is not None
            for position, run in zip(state.shard.positions, state.runs):
                runs[position] = run
        holes = [index for index, run in enumerate(runs) if run is None]
        if holes:  # pragma: no cover - bookkeeping invariant
            raise RuntimeError(f"fleet job {job.job_id} has uncovered positions {holes}")
        return list(runs)

    def finish_job(self, job_id: str) -> None:
        """Forget a completed (or abandoned) job's in-memory state."""
        with self._changed:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return
            for state in job.shards:
                self._by_key.pop(state.shard.key, None)
            self._pending = [
                entry for entry in self._pending if entry[0] != job_id
            ]
            self._changed.notify_all()

    # ------------------------------------------------------------------ #
    # Worker side (driven over /v2/workers/*)
    # ------------------------------------------------------------------ #
    def register_worker(self, name: Optional[str] = None) -> WorkerStatus:
        """Register one worker; returns its assigned identity."""
        with self._changed:
            self._check_open()
            self._counter += 1
            worker_id = f"w-{self._counter}"
            record = _WorkerRecord(
                worker_id=worker_id,
                name=name or worker_id,
                last_seen=self._clock(),
            )
            self._workers[worker_id] = record
            self._changed.notify_all()
            return self._worker_status_locked(record)

    def acquire_lease(self, worker_id: str) -> Optional[ShardLease]:
        """Pull one pending shard as a lease (None when no work is waiting)."""
        with self._changed:
            self._check_open()
            worker = self._worker_locked(worker_id)
            worker.last_seen = self._clock()
            self._reap_expired_locked()
            while self._pending:
                job_id, shard_index = self._pending.pop(0)
                job = self._jobs.get(job_id)
                if job is None:
                    continue
                state = job.shards[shard_index]
                if state.state != "pending":
                    continue
                if state.n_assignments >= self.max_assignments:
                    self._fail_job_locked(
                        job,
                        f"shard {state.shard.key[:12]} failed after "
                        f"{state.n_assignments} assignments",
                    )
                    continue
                self._counter += 1
                lease = _LeaseRecord(
                    lease_id=f"lease-{self._counter}",
                    worker_id=worker_id,
                    job_id=job_id,
                    shard_index=shard_index,
                    deadline=self._clock() + self.lease_timeout_s,
                )
                self._leases[lease.lease_id] = lease
                state.state = "leased"
                state.lease_id = lease.lease_id
                state.n_assignments += 1
                worker.lease_id = lease.lease_id
                self._changed.notify_all()
                return ShardLease(
                    lease_id=lease.lease_id,
                    worker_id=worker_id,
                    job_id=job_id,
                    shard_index=shard_index,
                    shard_key=state.shard.key,
                    positions=tuple(state.shard.positions),
                    loops=tuple(
                        job.loops[position] for position in state.shard.positions
                    ),
                    config=job.config,
                    machine=job.machine,
                    policy=job.policy,
                    budget_ratio=job.budget_ratio,
                    scale_to_clock=job.scale_to_clock,
                    lease_timeout_s=self.lease_timeout_s,
                )
            return None

    def heartbeat(self, worker_id: str, lease_id: str) -> LeaseHeartbeat:
        """Renew one lease; ``extended=False`` means the shard was lost."""
        with self._changed:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
            self._reap_expired_locked()
            lease = self._leases.get(lease_id)
            if (
                lease is None
                or lease.state != "active"
                or lease.worker_id != worker_id
            ):
                return LeaseHeartbeat(
                    lease_id=lease_id, worker_id=worker_id,
                    extended=False, remaining_s=0.0,
                )
            lease.deadline = self._clock() + self.lease_timeout_s
            self._changed.notify_all()
            return LeaseHeartbeat(
                lease_id=lease_id, worker_id=worker_id,
                extended=True, remaining_s=self.lease_timeout_s,
            )

    def complete(
        self,
        worker_id: str,
        lease_id: str,
        envelope: Dict,
        *,
        error: Optional[str] = None,
    ) -> Dict[str, object]:
        """Accept one shard result (or a worker-reported failure).

        The result envelope must be a valid ``shard_result`` whose key
        names a shard of a live job.  First completion wins and is
        persisted through the store; later completions of the same shard
        (a reaped-but-alive worker finishing late) are acknowledged with
        ``stale=True`` and not applied.  ``error`` (instead of an
        envelope) hands the shard back for immediate reassignment.
        """
        result: Optional[ShardResult] = None
        if error is None:
            from repro import serialize

            decoded = serialize.from_dict(envelope, expect_type="shard_result")
            assert isinstance(decoded, ShardResult)
            result = decoded
        with self._changed:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.last_seen = self._clock()
                if worker.lease_id == lease_id:
                    worker.lease_id = None
            self._reap_expired_locked()
            lease = self._leases.get(lease_id)
            if lease is not None and lease.state == "active":
                lease.state = "completed" if error is None else "stale"

            if error is not None:
                return self._fail_lease_locked(worker, lease, error)

            assert result is not None
            located = self._by_key.get(result.key)
            if located is None:
                # The job was finished/forgotten, or the key is foreign.
                self.n_stale_completions += 1
                return {"accepted": False, "stale": True,
                        "reason": f"no live shard with key {result.key[:12]}"}
            job = self._jobs[located[0]]
            state = job.shards[located[1]]
            if len(result.runs) != len(state.shard.positions):
                raise ValueError(
                    f"shard {result.key[:12]} completion carries "
                    f"{len(result.runs)} runs, expected "
                    f"{len(state.shard.positions)}"
                )
            if state.state == "done":
                # Someone else (or an earlier retry) finished it first.
                self.n_stale_completions += 1
                if worker is not None:
                    worker.n_completed += 1
                return {"accepted": True, "stale": True}
            self.store.put(
                state.shard, result.runs, config_name=job.config.name
            )
            if self.db is not None:
                # Mid-job durability: the run table sees each shard the
                # moment it lands, not only when the whole job finishes
                # (upserts keyed on run_key, so the job-end pass by
                # BatchScheduler is an idempotent re-write).
                from repro.store.db import rows_from_runs

                self.db.add_runs(rows_from_runs(
                    result.runs,
                    rf=job.config,
                    machine=job.machine,
                    policy=job.policy,
                    budget_ratio=job.budget_ratio,
                    scale_to_clock=job.scale_to_clock,
                    job_id=job.job_id,
                ))
            state.state = "done"
            state.runs = list(result.runs)
            state.lease_id = None
            if worker is not None:
                worker.n_completed += 1
            self._changed.notify_all()
            return {"accepted": True, "stale": False}

    def _fail_lease_locked(
        self,
        worker: Optional[_WorkerRecord],
        lease: Optional[_LeaseRecord],
        error: str,
    ) -> Dict[str, object]:
        """Requeue the shard behind a worker-reported failure."""
        if worker is not None:
            worker.n_failed += 1
        if lease is None:
            return {"accepted": False, "stale": True, "reason": "unknown lease"}
        job = self._jobs.get(lease.job_id)
        if job is None:
            return {"accepted": False, "stale": True, "reason": "job finished"}
        state = job.shards[lease.shard_index]
        if state.state == "leased" and state.lease_id == lease.lease_id:
            if state.n_assignments >= self.max_assignments:
                self._fail_job_locked(
                    job,
                    f"shard {state.shard.key[:12]} failed after "
                    f"{state.n_assignments} assignments (last error: {error})",
                )
            else:
                state.state = "pending"
                state.lease_id = None
                self._pending.append((job.job_id, lease.shard_index))
            self._changed.notify_all()
        return {"accepted": False, "stale": False, "requeued": True}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def workers(self) -> List[WorkerStatus]:
        """Every registered worker, as :class:`WorkerStatus` snapshots."""
        with self._lock:
            return [
                self._worker_status_locked(record)
                for record in self._workers.values()
            ]

    def job_progress(self, job_id: str) -> Dict[str, int]:
        """Per-shard progress counters of one live job."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown fleet job {job_id!r}")
            return {
                "n_loops_done": job.n_done_loops(),
                "n_loops_total": job.n_total_loops,
                "n_shards_done": sum(
                    1 for state in job.shards if state.state == "done"
                ),
                "n_shards": len(job.shards),
                "n_restored": job.n_restored,
            }

    def stats(self) -> Dict[str, object]:
        """Fleet-level counters (health endpoint / logging)."""
        with self._lock:
            return {
                "n_workers": len(self._workers),
                "n_jobs": len(self._jobs),
                "n_pending_shards": len(self._pending),
                "n_active_leases": sum(
                    1 for lease in self._leases.values()
                    if lease.state == "active"
                ),
                "n_reassigned": self.n_reassigned,
                "n_stale_completions": self.n_stale_completions,
                "lease_timeout_s": self.lease_timeout_s,
            }

    def close(self) -> None:
        """Stop the coordinator; outstanding ``wait_job`` calls raise."""
        with self._changed:
            self._closed = True
            self._changed.notify_all()

    # ------------------------------------------------------------------ #
    # Internals (lock held)
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise CoordinatorClosed("the shard coordinator is shut down")

    def _worker_locked(self, worker_id: str) -> _WorkerRecord:
        record = self._workers.get(worker_id)
        if record is None:
            raise KeyError(f"unknown worker id {worker_id!r} (register first)")
        return record

    def _worker_status_locked(self, record: _WorkerRecord) -> WorkerStatus:
        age = max(self._clock() - record.last_seen, 0.0)
        if record.lease_id is not None:
            state = "leased"
        elif age > LOST_AFTER_TIMEOUTS * self.lease_timeout_s:
            state = "lost"
        else:
            state = "idle"
        return WorkerStatus(
            worker_id=record.worker_id,
            name=record.name,
            state=state,
            lease_id=record.lease_id,
            last_seen_s=age,
            n_completed=record.n_completed,
            n_expired=record.n_expired,
            n_failed=record.n_failed,
        )

    def _fail_job_locked(self, job: _FleetJob, error: str) -> None:
        job.error = error
        self._changed.notify_all()

    def _reap_expired_locked(self) -> None:
        """Revoke expired leases; their shards go back on the queue."""
        now = self._clock()
        for lease in list(self._leases.values()):
            if lease.state != "active" or lease.deadline > now:
                continue
            lease.state = "expired"
            worker = self._workers.get(lease.worker_id)
            if worker is not None:
                worker.n_expired += 1
                if worker.lease_id == lease.lease_id:
                    worker.lease_id = None
            job = self._jobs.get(lease.job_id)
            if job is None:
                continue
            state = job.shards[lease.shard_index]
            if state.state == "leased" and state.lease_id == lease.lease_id:
                state.state = "pending"
                state.lease_id = None
                self._pending.append((lease.job_id, lease.shard_index))
                self.n_reassigned += 1
                self._changed.notify_all()
