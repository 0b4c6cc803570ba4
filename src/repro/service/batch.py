"""The in-process batch scheduling service.

A :class:`BatchScheduler` is a long-lived job queue over one
:class:`~repro.session.Session`: clients submit work (``submit`` returns
a job id), poll or stream its status, and fetch the finished result as a
versioned JSON envelope (:mod:`repro.serialize`).  Because every job
runs on the *same* session, all clients share one warm evaluation cache
and one warm worker pool -- the scenario the ROADMAP's
production-service north star needs.

Job ids are **content-hash derived** (``job-<16 hex>``): the id of a job
is a prefix of the same content key :func:`repro.eval.cache.schedule_key`
/ :func:`repro.eval.shards.plan_shards` derive for the underlying
scheduling problems, plus the session fingerprint.  Ids therefore
survive restarts and never collide across them -- the sequential
``job-1``/``job-2`` ids of earlier versions collided as soon as a second
service lifetime wrote to the same store.  The old form is still
accepted everywhere a job id is *read*.

With a :class:`~repro.store.db.RunDatabase` attached (``repro serve
--db``) the scheduler is **durable**: every submission, state change and
result is written through to the ``jobs`` table, every finished run
lands in the ``runs`` table, a restarted scheduler re-enqueues the jobs
that were queued or running when the previous process died, and
resubmitting a job whose content key is already ``done`` returns the
stored result without scheduling a single loop.  Clients are isolated
by per-client FIFO queues drained round-robin (one client cannot starve
another) and an optional per-client queue quota
(:class:`QuotaExceeded`, HTTP 429).

Jobs execute one at a time on a background thread; intra-job parallelism
comes from the session's worker pool.  Progress is observable while a
job runs: evaluation jobs drive
:meth:`~repro.session.Session.evaluate_stream` and bump their
``n_done``/``n_total`` counters on every completed loop, and ``explore``
jobs (:mod:`repro.explore`) bump them per completed design-space probe
while persisting every probe to the store's ``probes`` table -- a killed
exploration resumes from its completed probes with zero re-evaluation.

The HTTP front end (:mod:`repro.service.http`, ``repro serve`` /
``repro submit``) is a thin wire adapter over this class; everything it
can do is available in-process here.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro import serialize
from repro.eval.shards import encode_runs, lines_digest
from repro.session import RunReady, Session, SuiteFinished
from repro.store.db import RunDatabase, rows_from_runs
from repro.workloads.suite import tier_names, workbench_tier

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.coordinator import ShardCoordinator

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "DEFAULT_CLIENT",
    "JobRequest",
    "QuotaExceeded",
    "BatchScheduler",
    "job_content_key",
    "explore_spec_from_params",
]

#: Work the service accepts: one kernel on one configuration
#: (``schedule``), a whole workbench on one configuration
#: (``evaluate``), or a budgeted design-space search (``explore``).
JOB_KINDS = ("schedule", "evaluate", "explore")

#: Every state a job can report.  ``queued -> running -> done | failed``;
#: ``cancelled`` is reachable from ``queued`` only.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Client name of submissions that do not identify themselves.
DEFAULT_CLIENT = "anonymous"


class QuotaExceeded(RuntimeError):
    """A client's queued-job quota is full (HTTP 429 on the wire)."""


@dataclass(frozen=True)
class JobRequest:
    """One validated unit of work for the service.

    ``params`` depends on the kind:

    * ``schedule``: ``kernel`` (name, required), ``config`` (required),
      optional ``policy``, ``budget_ratio``, and ``kernel_params`` (a
      dict of scalars forwarded to the kernel builder, e.g. ``taps``);
    * ``evaluate``: ``config`` (required), optional ``n_loops``,
      ``seed``, ``tier`` (a workbench tier name -- requests larger than
      the tier are rejected at submission), ``policy``, ``jobs``;
    * ``explore``: all optional -- ``budget``, ``seed``, ``algo``
      (``random``/``evolve``), ``tier``, ``n_loops``, ``probe_tier``,
      ``probe_n_loops``, ``population``, ``promote``, ``workbench_seed``,
      ``anchor`` -- see :class:`repro.explore.ExploreSpec` for defaults.

    ``client`` (top-level, optional) names the submitting tenant for
    fairness and quota purposes; it is *not* part of the job's content
    key -- two clients asking for the same work share one answer.

    Evaluate jobs run on the service's shared session, so a service
    started with a checkpoint store evaluates shard by shard and resumes
    partially evaluated suites across jobs and restarts.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    client: str = DEFAULT_CLIENT

    _REQUIRED = {
        "schedule": ("kernel", "config"),
        "evaluate": ("config",),
        "explore": (),
    }
    _OPTIONAL = {
        "schedule": ("policy", "budget_ratio", "kernel_params"),
        "evaluate": ("n_loops", "seed", "tier", "policy", "jobs"),
        "explore": (
            "budget", "seed", "algo", "tier", "n_loops", "probe_tier",
            "probe_n_loops", "population", "promote", "workbench_seed",
            "anchor",
        ),
    }

    @classmethod
    def from_dict(cls, payload: object) -> "JobRequest":
        """Validate a wire payload into a request (raises ``ValueError``)."""
        if not isinstance(payload, dict):
            raise ValueError(f"job request must be a dict, got {type(payload).__name__}")
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r} (known: {', '.join(JOB_KINDS)})"
            )
        client = payload.get("client", DEFAULT_CLIENT)
        if not isinstance(client, str) or not client:
            raise ValueError(f"client must be a non-empty string, got {client!r}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"job params must be a dict, got {type(params).__name__}")
        missing = [key for key in cls._REQUIRED[kind] if key not in params]
        if missing:
            raise ValueError(f"{kind} job is missing required params: {missing}")
        unknown = sorted(
            set(params) - set(cls._REQUIRED[kind]) - set(cls._OPTIONAL[kind])
        )
        if unknown:
            raise ValueError(f"{kind} job has unknown params: {unknown}")
        kernel_params = params.get("kernel_params", {})
        if not isinstance(kernel_params, dict):
            raise ValueError("kernel_params must be a dict of scalars")
        tier = params.get("tier")
        if tier is not None and tier not in tier_names():
            raise ValueError(
                f"unknown workbench tier {tier!r} "
                f"(known: {', '.join(tier_names())})"
            )
        # Numeric knobs are coerced here so a malformed value is a 400 at
        # submission, not an opaque failure deep inside the running job.
        for key, coerce in (("n_loops", int), ("seed", int), ("jobs", int),
                            ("budget_ratio", float), ("budget", int),
                            ("probe_n_loops", int), ("population", int),
                            ("promote", int), ("workbench_seed", int)):
            if params.get(key) is not None:
                try:
                    params = {**params, key: coerce(params[key])}
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{key} must be {'an integer' if coerce is int else 'a number'}, "
                        f"got {params[key]!r}"
                    )
        # A loop request beyond the tier is a 400 at submission, not a
        # failed job minutes later.  WorkbenchSizeError is a ValueError,
        # so the shared check (same one the CLI and session run) surfaces
        # with the canonical message.
        if tier is not None:
            workbench_tier(tier).check_size(params.get("n_loops"))
        # Explore specs carry their own invariants (algorithm name, budget
        # and population bounds); building one here makes a bad knob a 400
        # at submission.
        if kind == "explore":
            explore_spec_from_params(params)
        return cls(kind=kind, params=dict(params), client=client)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params), "client": self.client}


def explore_spec_from_params(params: Dict[str, object]):
    """Build the :class:`~repro.explore.ExploreSpec` an explore job runs.

    ``ValueError`` from the spec's own validation propagates, so callers
    can reject bad knobs at submission time.
    """
    from repro.explore import ExploreSpec

    defaults = ExploreSpec()
    return ExploreSpec(
        algo=str(params.get("algo", defaults.algo)),
        budget=int(params.get("budget", defaults.budget)),
        seed=int(params.get("seed", defaults.seed)),
        tier=str(params.get("tier") or defaults.tier),
        n_loops=None if params.get("n_loops") is None else int(params["n_loops"]),
        probe_tier=str(params.get("probe_tier", defaults.probe_tier)),
        probe_n_loops=(
            None if params.get("probe_n_loops") is None
            else int(params["probe_n_loops"])
        ),
        population=int(params.get("population", defaults.population)),
        promote=int(params.get("promote", defaults.promote)),
        workbench_seed=int(params.get("workbench_seed", defaults.workbench_seed)),
        anchor=params.get("anchor", defaults.anchor),
    )


def job_content_key(request: JobRequest, session: Session) -> str:
    """The durable content key of one job on one session.

    Derived from the same content hashes the evaluation layer already
    keys on -- :func:`repro.eval.cache.schedule_key` for a ``schedule``
    job, the shard keys of :func:`repro.eval.shards.plan_shards` for an
    ``evaluate`` job, :func:`repro.explore.explore_key` (spec plus
    session fingerprint) for an ``explore`` job -- so a job's identity
    is the identity of the
    scheduling problems it runs: same loops, same configuration, same
    policy/knobs/version => same key, across processes and restarts.
    The parallelism knob (``jobs``) is naturally excluded; it cannot
    change the result.

    Requests whose problems cannot be materialized (an unknown kernel or
    configuration -- the job will *fail at run time*, by contract) fall
    back to hashing the validated request plus the session fingerprint,
    which is stable too.
    """
    params = request.params
    try:
        if request.kind == "schedule":
            from repro.eval.cache import schedule_key
            from repro.workloads.kernels import build_kernel

            loop = build_kernel(
                str(params["kernel"]), **dict(params.get("kernel_params", {}))
            )
            budget_ratio = params.get("budget_ratio")
            key = schedule_key(
                loop,
                session.resolve_rf(params["config"]),
                session.machine,
                budget_ratio=(
                    session.budget_ratio if budget_ratio is None
                    else float(budget_ratio)
                ),
                scheduler=params.get("policy") or session.policy,
            )
            payload = f"schedule:{key}"
        elif request.kind == "explore":
            from repro.explore import explore_key

            spec = explore_spec_from_params(params)
            payload = f"explore:{explore_key(spec, session.fingerprint())}"
        else:
            from repro.eval.shards import plan_shards

            n_loops = params.get("n_loops")
            if n_loops is None and params.get("tier") is None:
                n_loops = DEFAULT_EVALUATE_N_LOOPS
            workbench = session.workbench(
                n_loops=None if n_loops is None else int(n_loops),
                seed=int(params.get("seed", 2003)),
                tier=params.get("tier"),
            )
            shards = plan_shards(
                workbench,
                session.resolve_rf(params["config"]),
                session.machine,
                shard_size=session.shard_size,
                budget_ratio=session.budget_ratio,
                scheduler=params.get("policy") or session.policy,
            )
            payload = "evaluate:" + ":".join(shard.key for shard in shards)
    except Exception:
        # Client excluded: content identity is what runs, not who asked.
        body = json.dumps({"kind": request.kind, "params": request.params},
                          sort_keys=True, default=repr)
        payload = f"fallback:{session.fingerprint()}:{body}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Workbench size of tier-less evaluate jobs (kept from the v2 service).
DEFAULT_EVALUATE_N_LOOPS = 16


@dataclass
class _JobRecord:
    """Internal per-job bookkeeping (exposed to clients via ``status``)."""

    job_id: str
    request: JobRequest
    job_key: str = ""
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    n_done: int = 0
    n_total: int = 0
    error: Optional[str] = None
    #: The result envelope (schedule_result, configuration_report or
    #: explore_report) as the JSON text stored in the ``jobs.result``
    #: column, once the job is done.  Kept as text, not decoded: every
    #: reader is served from it (see ``BatchScheduler.result``).
    result: Optional[str] = None
    #: Canonical digest over the job's finished runs (wall-clock zeroed)
    #: -- the identity the durability contract compares across restarts.
    runs_digest: Optional[str] = None

    def status(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "kind": self.request.kind,
            "client": self.request.client,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {"n_done": self.n_done, "n_total": self.n_total},
            "error": self.error,
            "runs_digest": self.runs_digest,
        }


class BatchScheduler:
    """A job queue over one shared session (submit -> poll -> JSON result).

    Example::

        scheduler = BatchScheduler(Session(jobs=0, cache=EvalCache()),
                                   db=RunDatabase("runs.sqlite"))
        job_id = scheduler.submit({"kind": "schedule",
                                   "params": {"kernel": "daxpy",
                                              "config": "4C16S16"}})
        status = scheduler.wait(job_id, timeout=60)
        envelope = scheduler.result(job_id)       # a repro.serialize envelope
        result = serialize.from_dict(envelope)    # a live ScheduleResult

    ``shutdown()`` stops the worker thread and marks still-queued jobs
    ``cancelled`` (clients blocked in ``wait``/``stream`` observe the
    terminal state instead of hanging); the session is owned by the
    caller and is *not* closed.  A cancelled-at-shutdown job whose row
    lives in an attached database is re-enqueued by the next scheduler
    over the same file only if it was still queued/running *in the
    database* -- shutdown writes the cancellation through, so a clean
    shutdown stays clean and only a crash leaves work to recover.

    With a :class:`~repro.service.coordinator.ShardCoordinator`
    attached, evaluate jobs take the *distributed* execution path: the
    workbench is planned into shards, handed out as leases to the
    registered worker fleet, and the job's progress counters advance
    shard by shard as completions arrive.  Schedule jobs (single loops)
    always run locally.
    """

    def __init__(
        self,
        session: Session,
        *,
        coordinator: "Optional[ShardCoordinator]" = None,
        db: Optional[Union[str, Path, RunDatabase]] = None,
        max_queued_per_client: Optional[int] = None,
        start: bool = True,
    ) -> None:
        self.session = session
        self.coordinator = coordinator
        self.db: Optional[RunDatabase] = (
            db if db is None or isinstance(db, RunDatabase) else RunDatabase(db)
        )
        if max_queued_per_client is not None and max_queued_per_client < 1:
            raise ValueError("max_queued_per_client must be >= 1 (or None)")
        self.max_queued_per_client = max_queued_per_client
        self._records: Dict[str, _JobRecord] = {}
        #: Per-client FIFO queues, drained round-robin (see ``_rr``).
        self._queues: Dict[str, deque] = {}
        self._rr: deque = deque()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._stop = False
        #: Jobs recovered from the database at construction (observable
        #: for logs/tests; 0 without a database or after a clean stop).
        self.n_recovered = 0
        if self.db is not None:
            self._restore_from_db()
        self._worker = threading.Thread(
            target=self._run, name="repro-batch-scheduler", daemon=True
        )
        # ``start=False`` keeps jobs queued until :meth:`start` -- tests
        # use it to observe the queue deterministically.
        if start:
            self._worker.start()

    def start(self) -> None:
        """Start the worker thread (no-op when already running)."""
        if not self._worker.is_alive() and not self._stop:
            self._worker.start()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def _restore_from_db(self) -> None:
        """Materialize every stored job; re-enqueue the non-terminal ones.

        Terminal rows (done/failed/cancelled) become plain records so
        ``status``/``result`` answer for jobs finished in an earlier
        process lifetime; queued/running rows -- the jobs a crash
        orphaned -- are reset to ``queued`` and re-enqueued in their
        original submission order.  Stored ids are used verbatim, so
        databases written by the old sequential-id scheme keep working.
        """
        assert self.db is not None
        for row in self.db.jobs():
            try:
                stored = json.loads(str(row["params"]))
                request = JobRequest(
                    kind=str(stored["kind"]),
                    params=dict(stored.get("params", {})),
                    client=str(stored.get("client", DEFAULT_CLIENT)),
                )
            except Exception:
                # A corrupt params column must not brick recovery of the
                # rest of the queue; the row is surfaced as failed.
                self.db.update_job(
                    str(row["job_id"]), state="failed",
                    error="recovery: stored request is unreadable",
                )
                continue
            record = _JobRecord(
                job_id=str(row["job_id"]),
                request=request,
                job_key=str(row["job_key"]),
                state=str(row["state"]),
                submitted_at=float(row["submitted_at"]),
                started_at=row["started_at"],
                finished_at=row["finished_at"],
                n_done=int(row["n_done"] or 0),
                n_total=int(row["n_total"] or 0),
                error=row["error"],
                runs_digest=row["runs_digest"],
            )
            if record.state == "done" and row["result"] is not None:
                text = str(row["result"])
                try:
                    json.loads(text)
                except ValueError:
                    record.state = "failed"
                    record.error = "recovery: stored result is unreadable"
                    self.db.update_job(
                        record.job_id, state="failed", error=record.error
                    )
                else:
                    record.result = text
            if record.state in ("queued", "running"):
                record.state = "queued"
                record.started_at = None
                record.n_done = 0
                self.db.update_job(record.job_id, state="queued", started_at=None)
                self._enqueue_locked(record)
                self.n_recovered += 1
            self._records[record.job_id] = record

    def _db_update(self, record: _JobRecord, **fields: object) -> None:
        if self.db is not None:
            self.db.update_job(record.job_id, **fields)

    # ------------------------------------------------------------------ #
    # Per-client queues
    # ------------------------------------------------------------------ #
    def _enqueue_locked(self, record: _JobRecord) -> None:
        client = record.request.client
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = deque()
            self._rr.append(client)
        queue.append(record.job_id)

    def _dequeue_locked(self) -> Optional[str]:
        """Pop the next job id, round-robin across clients (FIFO within)."""
        while self._rr:
            client = self._rr[0]
            queue = self._queues.get(client)
            if not queue:
                self._rr.popleft()
                self._queues.pop(client, None)
                continue
            job_id = queue.popleft()
            self._rr.popleft()
            if queue:
                self._rr.append(client)
            else:
                self._queues.pop(client, None)
            return job_id
        return None

    def _remove_queued_locked(self, record: _JobRecord) -> None:
        queue = self._queues.get(record.request.client)
        if queue is not None:
            try:
                queue.remove(record.job_id)
            except ValueError:  # pragma: no cover - already popped
                pass

    def _has_queued_locked(self) -> bool:
        return any(self._queues.values())

    def _new_job_id_locked(self, job_key: str) -> str:
        """A free content-derived id: ``job-<key16>``, then ``.2``, ``.3``...

        Suffixes disambiguate *repeated* submissions of identical
        content in the same store (only reachable without dedup, i.e.
        without a database, or when re-running failed/cancelled
        content): every attempt keeps an addressable record while the id
        stays recognizably derived from the content key.
        """
        base = f"job-{job_key[:16]}"
        job_id = base
        suffix = 2
        while job_id in self._records or (
            self.db is not None and self.db.job(job_id) is not None
        ):
            job_id = f"{base}.{suffix}"
            suffix += 1
        return job_id

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    def submit(
        self, request: Union[JobRequest, Dict], *, client: Optional[str] = None
    ) -> str:
        """Queue one job; returns its id immediately.

        With a database attached, submission is *idempotent on content*:
        if a job with the same content key is already queued, running or
        done, its existing id is returned (a done job's result is then
        served from the store without scheduling anything).  Failed or
        cancelled content gets a fresh attempt.  Raises
        :class:`QuotaExceeded` when the client's queued-job quota is
        full.
        """
        if not isinstance(request, JobRequest):
            request = JobRequest.from_dict(request)
        if client is not None:
            request = replace(request, client=client)
        job_key = job_content_key(request, self.session)
        with self._changed:
            if self._stop:
                raise RuntimeError("the batch scheduler is shut down")
            if self.db is not None:
                existing = self.db.job_by_key(job_key)
                if existing is not None and existing["state"] in (
                    "queued", "running", "done"
                ):
                    return str(existing["job_id"])
            queue = self._queues.get(request.client)
            if (
                self.max_queued_per_client is not None
                and queue is not None
                and len(queue) >= self.max_queued_per_client
            ):
                raise QuotaExceeded(
                    f"client {request.client!r} already has {len(queue)} "
                    f"queued jobs (quota: {self.max_queued_per_client})"
                )
            job_id = self._new_job_id_locked(job_key)
            record = _JobRecord(
                job_id=job_id, request=request, job_key=job_key,
                submitted_at=time.time(),
            )
            self._records[job_id] = record
            if self.db is not None:
                self.db.upsert_job({
                    "job_id": job_id,
                    "job_key": job_key,
                    "kind": request.kind,
                    "client": request.client,
                    "params": json.dumps(request.to_dict(), sort_keys=True),
                    "state": "queued",
                    "submitted_at": record.submitted_at,
                })
            self._enqueue_locked(record)
            self._changed.notify_all()
        return job_id

    def _record(self, job_id: str) -> _JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return record

    def status(self, job_id: str) -> Dict:
        """The current status view of one job (JSON-safe)."""
        with self._lock:
            return self._record(job_id).status()

    def status_with_result_text(self, job_id: str) -> Tuple[Dict, Optional[str]]:
        """One job's status and its stored result JSON text, read together.

        The text is ``None`` until the job is done.  This is what
        ``GET /v2/jobs/<id>`` serves: the text goes onto the wire as it
        was stored, without being decoded.
        """
        with self._lock:
            record = self._record(job_id)
            return record.status(), record.result

    def result(self, job_id: str) -> Dict:
        """The serialized result envelope of a finished job.

        Each call decodes the stored JSON text afresh, so a caller may
        modify what it gets without changing what later readers see.
        Raises ``KeyError`` for unknown ids and ``RuntimeError`` when the
        job is not (successfully) done.
        """
        with self._lock:
            record = self._record(job_id)
            if record.state != "done" or record.result is None:
                raise RuntimeError(
                    f"job {job_id} has no result (state: {record.state}"
                    + (f", error: {record.error}" if record.error else "")
                    + ")"
                )
            text = record.result
        return json.loads(text)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Block until the job reaches a terminal state; returns its status.

        When ``timeout`` elapses first, the returned (non-terminal)
        status carries ``timed_out: True`` -- without the marker a
        caller checking ``status["state"]`` against a specific terminal
        value could not tell "the job is still running" from a plain
        answer, and a caller that forgot to check at all mistook the
        timeout for completion.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            record = self._record(job_id)
            timed_out = False
            while record.state in ("queued", "running"):
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    timed_out = True
                    break
                self._changed.wait(timeout=remaining)
            status = record.status()
            if timed_out:
                status["timed_out"] = True
            return status

    def stream(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[Dict]:
        """Yield a status snapshot on every observable change.

        Ends after the terminal snapshot (or when ``timeout`` elapses
        without the job finishing).  This is the in-process analogue of
        polling ``GET /v2/jobs/<id>`` until completion.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        last: Optional[Dict] = None
        while True:
            with self._changed:
                record = self._record(job_id)
                snapshot = record.status()
                if snapshot == last:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        return
                    self._changed.wait(timeout=remaining)
                    snapshot = record.status()
            if snapshot != last:
                yield snapshot
                last = snapshot
            if snapshot["state"] not in ("queued", "running"):
                return

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running jobs are not interrupted."""
        with self._changed:
            record = self._record(job_id)
            if record.state != "queued":
                return False
            record.state = "cancelled"
            record.finished_at = time.time()
            self._remove_queued_locked(record)
            self._db_update(record, state="cancelled",
                            finished_at=record.finished_at)
            self._changed.notify_all()
            return True

    def list_jobs(self) -> List[Dict]:
        """Status of every known job, in submission order."""
        with self._lock:
            return [record.status() for record in self._records.values()]

    def stats(self) -> Dict[str, object]:
        """Queue/durability counters for the health endpoint and logs."""
        with self._lock:
            queued = {
                client: len(queue)
                for client, queue in self._queues.items() if queue
            }
        payload: Dict[str, object] = {
            "n_jobs": len(self._records),
            "queued_by_client": queued,
            "max_queued_per_client": self.max_queued_per_client,
            "n_recovered": self.n_recovered,
        }
        if self.db is not None:
            payload["db"] = self.db.stats()
        return payload

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting and executing jobs.

        Jobs still queued are marked ``cancelled`` (with an explanatory
        ``error``) and their waiters woken -- leaving them ``queued``
        forever would hang every ``wait()``/``stream()`` client on a job
        that can no longer run.  The job currently executing (if any)
        finishes and records its result; an attached fleet coordinator
        is closed, which aborts a distributed job's wait instead.
        """
        with self._changed:
            self._stop = True
            while True:
                job_id = self._dequeue_locked()
                if job_id is None:
                    break
                record = self._records[job_id]
                if record.state == "queued":
                    record.state = "cancelled"
                    record.error = (
                        "cancelled: the batch scheduler shut down before "
                        "the job started"
                    )
                    record.finished_at = time.time()
                    self._db_update(record, state="cancelled",
                                    error=record.error,
                                    finished_at=record.finished_at)
            self._changed.notify_all()
        if self.coordinator is not None:
            self.coordinator.close()
        if wait and self._worker.is_alive():
            self._worker.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            with self._changed:
                while not self._has_queued_locked() and not self._stop:
                    self._changed.wait()
                if self._stop:
                    return
                job_id = self._dequeue_locked()
                assert job_id is not None
                record = self._records[job_id]
                record.state = "running"
                record.started_at = time.time()
                self._db_update(record, state="running",
                                started_at=record.started_at)
                self._changed.notify_all()
            try:
                text = self._execute(record)
            except Exception as exc:
                with self._changed:
                    record.state = "failed"
                    record.error = f"{type(exc).__name__}: {exc}"
                    record.finished_at = time.time()
                    self._db_update(record, state="failed", error=record.error,
                                    finished_at=record.finished_at,
                                    n_done=record.n_done,
                                    n_total=record.n_total)
                    self._changed.notify_all()
                # The traceback is part of the service log, not the wire
                # status (clients get the one-line error above).
                traceback.print_exc()
            else:
                with self._changed:
                    record.state = "done"
                    record.result = text
                    record.finished_at = time.time()
                    self._db_update(
                        record, state="done",
                        finished_at=record.finished_at,
                        result=text,
                        runs_digest=record.runs_digest,
                        n_done=record.n_done, n_total=record.n_total,
                    )
                    self._changed.notify_all()

    def _progress(self, record: _JobRecord, n_done: int, n_total: int) -> None:
        with self._changed:
            record.n_done = n_done
            record.n_total = n_total
            self._changed.notify_all()

    def _finish(
        self,
        record: _JobRecord,
        runs,
        envelope_of: Callable[[List[Dict]], Dict],
        *,
        rf,
        policy: str,
        budget_ratio: float,
        tier: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> str:
        """Digest, record and encode a finished job, encoding each run once.

        The runs' ``loop_run`` payloads feed the job's ``runs_digest``,
        every run-table row's ``digest`` and -- through ``envelope_of``
        -- the result envelope, which is JSON-encoded here, on the worker
        thread, before any lock is taken.  Returns that JSON text.
        """
        payloads, lines = encode_runs(runs)
        record.runs_digest = lines_digest(lines)
        if self.db is not None:
            self.db.add_runs(rows_from_runs(
                runs,
                rf=rf,
                machine=self.session.machine,
                policy=policy,
                digests=[lines_digest([line]) for line in lines],
                budget_ratio=budget_ratio,
                job_id=record.job_id,
                tier=tier,
                seed=seed,
            ))
        return json.dumps(envelope_of(payloads), sort_keys=True)

    def _execute(self, record: _JobRecord) -> str:
        """Run one job; returns its result envelope as JSON text."""
        params = record.request.params
        session = self.session
        if record.request.kind == "schedule":
            from repro.eval.metrics import LoopRun
            from repro.workloads.kernels import build_kernel

            self._progress(record, 0, 1)
            kernel_params = dict(params.get("kernel_params", {}))
            # The loop is built here (not inside schedule_kernel) so the
            # finished run can be digested and written to the run table.
            loop = build_kernel(str(params["kernel"]), **kernel_params)
            budget_ratio = params.get("budget_ratio")
            effective_budget = (
                session.budget_ratio if budget_ratio is None
                else float(budget_ratio)
            )
            result = session.schedule_kernel(
                loop,
                params["config"],
                policy=params.get("policy"),
                budget_ratio=params.get("budget_ratio"),
            )
            text = self._finish(
                record,
                [LoopRun(loop=loop, result=result)],
                lambda payloads: serialize.envelope(result, payloads[0]["result"]),
                rf=session.resolve_rf(params["config"]),
                policy=params.get("policy") or session.policy,
                budget_ratio=effective_budget,
            )
            self._progress(record, 1, 1)
            return text

        if record.request.kind == "explore":
            from repro.explore import Explorer

            spec = explore_spec_from_params(params)
            self._progress(record, 0, spec.budget)
            explorer = Explorer(
                session=session,
                spec=spec,
                db=self.db,
                on_event=lambda update: self._progress(
                    record, update.n_done, update.n_total
                ),
            )
            report = explorer.run()
            return serialize.dumps(report, indent=None)

        assert record.request.kind == "evaluate"
        report = None
        # With a tier named and no explicit n_loops, the whole tier runs
        # (a 'full' job means all 1258 loops, never a silent subset);
        # tier-less jobs keep the historical 16-loop default.
        n_loops = params.get("n_loops")
        if n_loops is None and params.get("tier") is None:
            n_loops = DEFAULT_EVALUATE_N_LOOPS
        if self.coordinator is not None:
            return self._execute_fleet(record, params, n_loops)
        # The streaming path keeps the job's progress counters live while
        # loops complete, which is what poll/stream clients observe.
        for event in session.evaluate_stream(
            params["config"],
            n_loops=None if n_loops is None else int(n_loops),
            seed=int(params.get("seed", 2003)),
            tier=params.get("tier"),
            policy=params.get("policy"),
            jobs=params.get("jobs"),
            events=True,
        ):
            if isinstance(event, RunReady):
                self._progress(record, event.n_done, event.n_total)
            elif isinstance(event, SuiteFinished):
                report = event.report
        assert report is not None
        return self._finish(
            record,
            report.runs,
            lambda payloads: _report_envelope(report, payloads),
            rf=report.config,
            policy=params.get("policy") or session.policy,
            budget_ratio=session.budget_ratio,
            tier=params.get("tier"),
            seed=int(params.get("seed", 2003)),
        )

    def _execute_fleet(
        self, record: _JobRecord, params: Dict, n_loops: Optional[int]
    ) -> str:
        """Run one evaluate job over the coordinator's worker fleet.

        The workbench and the shard plan are built exactly as the local
        path would build them, so the assembled report -- restored
        shards plus worker-computed shards, in position order -- has the
        same ``runs_digest`` a single-process run produces.  Progress
        advances per completed shard (the coordinator reports loop
        counts), which is what poll/stream clients observe.
        """
        from repro.eval.reporting import ConfigurationReport
        from repro.hwmodel.timing import derive_hardware

        session = self.session
        rf_config = session.resolve_rf(params["config"])
        workbench = session.workbench(
            n_loops=None if n_loops is None else int(n_loops),
            seed=int(params.get("seed", 2003)),
            tier=params.get("tier"),
        )
        assert self.coordinator is not None
        self.coordinator.start_job(
            record.job_id,
            workbench,
            rf_config,
            machine=session.machine,
            policy=params.get("policy") or session.policy,
            budget_ratio=session.budget_ratio,
            shard_size=session.shard_size,
        )
        try:
            runs = self.coordinator.wait_job(
                record.job_id,
                progress=lambda n_done, n_total: self._progress(
                    record, n_done, n_total
                ),
            )
        finally:
            self.coordinator.finish_job(record.job_id)
        spec = derive_hardware(session.machine, rf_config)
        report = ConfigurationReport(config=rf_config, spec=spec, runs=runs)
        # Freshly computed shards were already written through by the
        # coordinator as they completed; this pass is idempotent on
        # run_key and additionally covers checkpoint-restored shards.
        return self._finish(
            record,
            runs,
            lambda payloads: _report_envelope(report, payloads),
            rf=rf_config,
            policy=params.get("policy") or session.policy,
            budget_ratio=session.budget_ratio,
            tier=params.get("tier"),
            seed=int(params.get("seed", 2003)),
        )


def _report_envelope(report, payloads: List[Dict]) -> Dict:
    """The ``configuration_report`` envelope of ``report`` from its run payloads."""
    return serialize.envelope(
        report, serialize.configuration_report_to_dict(report, run_payloads=payloads)
    )
