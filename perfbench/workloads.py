"""The benchmark's four workloads.

Each workload is driven through the program's public entry points only,
serially (``jobs=1``).  Its life in one run is:

``setup()``
    Everything a user pays before the first unit of work can be issued:
    the workbench build and the construction of sessions, stores and the
    server.  The import of ``repro`` is timed just before it by the
    caller (``run.py``), which is why this module imports ``repro`` only
    inside methods.
``plan()``
    Generates the remaining seeded inputs (not timed).
``measure()``
    The timed part.  Fills ``pass_s`` (one entry per unit of work a user
    waits for; their sum is the timed time), ``n_loops`` and ``n_jobs``.
``check()``
    The oracle, outside the timed part: returns (attempted, failed) and
    fills ``sum_ii`` and ``digests``.
``close()``
    Releases threads, sockets and files.

Why each workload exists and which layer it stresses is written in
``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Loops at the front of every workbench tier: the hand-written kernels,
#: their parameter variants and their unrolled variants.  A workbench
#: seed only changes the loops after them.
KERNEL_BLOCK = 52
#: Full-tier loops per second of ``--seconds``: 15 s takes the whole tier.
FULL_TIER_LOOPS_PER_S = 84


class Workload:
    """Shared bookkeeping; subclasses implement the five phases."""

    name = ""
    #: Modules imported (and timed) before ``setup``.
    imports: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, state: Path, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.state = state
        self.tracer = tracer
        self.pass_s: List[float] = []
        self.n_loops = 0
        self.n_jobs = 0
        self.sum_ii = 0
        #: II attempts behind the checked schedules (a deterministic cost count).
        self.ii_attempts = 0
        self.digests: Dict[str, str] = {}
        self.failures: List[str] = []
        #: Time spent checking outputs inside ``measure`` (not timed).
        self.check_s = 0.0

    def span(self, name: str):
        """A span recorded by the benchmark itself when tracing, else a no-op."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _request(self, request) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    def plan(self) -> None:
        pass

    def close(self) -> None:
        pass

    def layer_values(self) -> Dict[str, float]:
        """Per-layer values this workload measures outside the wrappers."""
        return {}

    def _check_runs(self, config: str, runs) -> Tuple[int, int]:
        """Validate every schedule of one pass; adds the achieved IIs to ``sum_ii``."""
        from repro.core.validate import ValidationError, validate_schedule
        from repro.eval import runs_digest

        machine, rf = _oracle_machine(config)
        failed = 0
        for run in runs:
            try:
                validate_schedule(run.result, machine, rf)
            except ValidationError as exc:
                failed += 1
                self.failures.append(f"{config} {run.loop.name}: {exc}".splitlines()[0])
            else:
                self.sum_ii += run.result.ii
            self.ii_attempts += sum(1 for ii in run.result.attempted_iis if isinstance(ii, int))
        self.digests[config] = runs_digest(runs)
        return len(runs), failed


def _full_tier(seconds: float, seed: int):
    """The seeded full tier; ``--seconds`` below 15 takes a prefix (tiny test runs)."""
    from repro.workloads import PAPER_LOOP_COUNT, build_workbench

    n_loops = min(PAPER_LOOP_COUNT, max(1, round(FULL_TIER_LOOPS_PER_S * seconds)))
    return build_workbench("full", n_loops=n_loops, seed=seed)


def _oracle_machine(config: str):
    """The scaled machine and RF a configuration's schedules must satisfy."""
    from repro.hwmodel import scaled_machine
    from repro.machine import baseline_machine, config_by_name

    rf = config_by_name(config)
    return scaled_machine(baseline_machine(), rf)[0], rf


class _BatchSchedule(Workload):
    """Cold, serial ``schedule_suite`` passes, one per configuration."""

    imports = ("repro.workloads", "repro.eval")
    configs: Tuple[str, ...] = ()
    loops: list

    def measure(self) -> None:
        from repro.eval import schedule_suite

        self.runs = {}
        for config in self.configs:
            self._request(config)
            started = time.perf_counter()
            self.runs[config] = schedule_suite(self.loops, config, jobs=1)
            self.pass_s.append(time.perf_counter() - started)
            self.n_loops += len(self.runs[config])
        self.n_jobs = len(self.configs)

    def check(self) -> Tuple[int, int]:
        attempted = failed = 0
        for config, runs in self.runs.items():
            n, bad = self._check_runs(config, runs)
            attempted += n
            failed += bad
        return attempted, failed


class ClusteredCold(_BatchSchedule):
    """A fixed sample of the canonical full tier plus seeded loops, on clustered RFs.

    A uniformly random sample of the size that fits a run varies by
    ±15 % in scheduling cost from seed to seed (a few loops need 20 II
    attempts), wider than any bound the benchmark can hold.  So the core
    is a systematic sample of the canonical (seed 2003) full tier, the
    same on every run, and the seed adds the ``SEEDED_LOOPS`` smallest
    memory-bound loops among the first 40 generated loops of its own full
    tier: the seed changes the inputs and the digest while owning about
    one percent of the cost.
    """

    name = "clustered_cold"
    configs = ("4C16S16", "8C16S16")
    #: Core loops per second of ``--seconds``.
    CORE_LOOPS_PER_S = 1.6
    SEEDED_LOOPS = 2

    def setup(self) -> None:
        from repro.workloads import build_workbench

        canonical = build_workbench("full")
        n_core = max(1, round(self.CORE_LOOPS_PER_S * self.seconds))
        core = [canonical[int((j + 0.5) * len(canonical) / n_core)] for j in range(n_core)]
        seeded = build_workbench("full", n_loops=KERNEL_BLOCK + 40, seed=self.seed)
        extras = sorted(
            (loop for loop in seeded[KERNEL_BLOCK:]
             if loop.attributes.get("profile") == "memory_bound"),
            key=lambda loop: len(loop.graph),
        )
        self.loops = core + extras[: self.SEEDED_LOOPS]


class MonolithicFull(_BatchSchedule):
    """Every loop of the seeded full tier, cold and serial, on monolithic RFs."""

    name = "monolithic_full"
    configs = ("S128", "S64")

    def setup(self) -> None:
        self.loops = _full_tier(self.seconds, self.seed)


class ResumeWarm(Workload):
    """Restores the seeded full tier from both on-disk formats, in a fresh process.

    ``populate()`` runs in child processes before this process imports
    ``repro``; the timed part then re-evaluates every loop twice, once
    through a session with only the shard checkpoint and once through a
    session with only the disk cache.
    """

    name = "resume_warm"
    imports = ("repro.workloads", "repro.eval", "repro.session", "repro.serialize")
    configs = ("S128", "S64")

    def populate(self, config: str) -> None:
        """Schedule one configuration cold into both stores; record its digest."""
        from repro.eval import EvalCache, runs_digest
        from repro.session import Session

        loops = _full_tier(self.seconds, self.seed)
        with Session(cache=EvalCache(self.state / "cache"),
                     checkpoint=self.state / "shards") as session:
            report = session.evaluate_configuration(config, loops=loops)
        (self.state / f"population-{config}.json").write_text(
            json.dumps({"digest": runs_digest(report.runs)}))

    def setup(self) -> None:
        from repro.eval import EvalCache
        from repro.session import Session

        self.loops = _full_tier(self.seconds, self.seed)
        with self.span("session.open"):
            self.sessions = {
                "shards": Session(checkpoint=self.state / "shards"),
                "cache": Session(cache=EvalCache(self.state / "cache")),
            }

    def measure(self) -> None:
        self.runs = {}
        for source, session in self.sessions.items():
            for config in self.configs:
                label = f"{source}:{config}"
                self._request(label)
                started = time.perf_counter()
                report = session.evaluate_configuration(config, loops=self.loops)
                self.pass_s.append(time.perf_counter() - started)
                self.runs[label] = report.runs
                self.n_loops += len(report.runs)
        self.n_jobs = len(self.runs)

    def check(self) -> Tuple[int, int]:
        """Every shard-restored schedule validates; both restores match the population."""
        from repro.eval import runs_digest

        attempted = failed = 0
        for config in self.configs:
            population = json.loads(
                (self.state / f"population-{config}.json").read_text())["digest"]
            n, bad = self._check_runs(config, self.runs[f"shards:{config}"])
            attempted += n
            failed += bad
            for source in self.sessions:
                label = f"{source}:{config}"
                digest = (self.digests[config] if source == "shards"
                          else runs_digest(self.runs[label]))
                if digest != population:
                    failed += 1
                    self.failures.append(f"{label}: digest {digest[:12]} differs from "
                                         f"the population's {population[:12]}")
            attempted += len(self.sessions)
        return attempted, failed

    def close(self) -> None:
        for session in getattr(self, "sessions", {}).values():
            session.close()


class ServiceMixed(Workload):
    """A closed loop of HTTP jobs against the durable service in this process.

    One client, one connection at a time: submit (POST), wait for the
    job through ``BatchScheduler.wait`` and fetch the status with the
    embedded result (GET).  Each block of 50 jobs holds, in a seeded
    order, 33 fresh ``schedule`` jobs, one fresh ``evaluate`` job and 16
    resubmissions of finished content.  Evaluates are the slowest kind
    and 2 % of the jobs, so p99 sits in the middle of their latency mode;
    resubmitted schedules are the fastest third, so the median sits
    inside the fresh-schedule mode.

    Each fetched status is checked right after its latency is taken and
    then dropped, so the client holds no results; the timed part is the
    sum of the job latencies (nothing is in flight while the client
    checks).
    """

    name = "service_mixed"
    imports = ("repro.eval", "repro.session", "repro.store", "repro.service",
               "repro.serialize")
    configs = ("S64", "S128")
    BLOCK = ("resubmit",) * 16 + ("schedule",) * 33 + ("evaluate",)
    #: Evaluate jobs take the workbench up to one loop past the kernel
    #: block: the first shard of 32 kernels is restored, the second (20
    #: kernels and the job's own seeded loop) is scheduled and written.
    EVALUATE_LOOPS = KERNEL_BLOCK + 1
    #: Jobs per second of ``--seconds``.  The count is fixed, not the time,
    #: so that the job mix, ``sum_ii`` and the service's memory do not
    #: depend on how fast the program is.
    JOBS_PER_S = 100

    def setup(self) -> None:
        from repro.eval import EvalCache
        from repro.service import BatchScheduler, make_server
        from repro.session import Session
        from repro.store import RunDatabase

        with self.span("session.open"):
            self.session = Session(cache=EvalCache(self.state / "cache"),
                                   checkpoint=self.state / "shards")
            self.db = RunDatabase(self.state / "runs.sqlite")
            self.scheduler = BatchScheduler(self.session, db=self.db)
            self.server = make_server(self.scheduler, port=0)
            self.thread = threading.Thread(target=self.server.serve_forever,
                                           name="perfbench-http", daemon=True)
            self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def plan(self) -> None:
        from repro.workloads import kernel_names

        self.kernels = kernel_names()
        self.rng = random.Random(self.seed)
        #: ``sum_ii`` covers the first two cycles of (kernel, config)
        #: schedule jobs.
        self.sum_ii_schedules = 2 * len(self.kernels) * len(self.configs)

    def _fresh_schedules(self):
        """(kernel, config) pairs in seeded order, cycle after cycle.

        Each cycle uses its own budget ratio, so every job is new content
        for the service while the schedules stay comparable.
        """
        cycle = 0
        while True:
            pairs = [(k, c) for k in self.kernels for c in self.configs]
            self.rng.shuffle(pairs)
            for kernel, config in pairs:
                yield {"kind": "schedule", "params": {
                    "kernel": kernel, "config": config,
                    "budget_ratio": 6.0 + 0.25 * cycle}}
            cycle += 1

    def _jobs(self):
        """The seeded job sequence: (kind, request, index of the resubmitted job)."""
        schedules = self._fresh_schedules()
        n_evaluates = 0
        while True:
            block = list(self.BLOCK)
            self.rng.shuffle(block)
            for kind in block:
                if kind == "resubmit" and self.fresh:
                    origin = self.rng.randrange(len(self.fresh))
                    yield "resubmit", self.fresh[origin]["request"], origin
                elif kind == "evaluate":
                    yield "evaluate", {"kind": "evaluate", "params": {
                        "config": self.configs[n_evaluates % len(self.configs)],
                        "n_loops": self.EVALUATE_LOOPS,
                        "seed": self.rng.randrange(1 << 30)}}, None
                    n_evaluates += 1
                else:
                    yield "schedule", next(schedules), None

    def measure(self) -> None:
        from repro.service import fetch_json, submit_job

        self.oracle = {config: _oracle_machine(config) for config in self.configs}
        self._validated: Dict[Tuple[str, str], dict] = {}
        #: Fresh jobs: what a resubmission of them must reproduce.
        self.fresh: List[Dict[str, object]] = []
        #: (submitted -> started, started -> finished) of fresh jobs, seconds.
        self.job_times: List[Tuple[float, float]] = []
        self.response_kb: List[float] = []
        self.attempted = self.failed = self.n_resubmits = 0
        n_schedules = 0
        jobs = self._jobs()
        for _ in range(max(1, round(self.JOBS_PER_S * self.seconds))):
            kind, request, origin = next(jobs)
            self._request(f"#{self.attempted}")
            began = time.perf_counter()
            try:
                job_id = submit_job(self.url, request)
                self.scheduler.wait(job_id, timeout=120.0)
                status = fetch_json(f"{self.url}/v2/jobs/{job_id}", retries=0)
            except RuntimeError as exc:
                job_id, status, error = None, None, str(exc)
            else:
                error = None
            self.pass_s.append(time.perf_counter() - began)
            checked = time.perf_counter()
            if self.tracer is not None:
                self.tracer.enabled = False
                if status is not None:
                    self.response_kb.append(len(json.dumps(status, sort_keys=True)) / 1024)
            problem = error or self._check_job(request, origin, job_id, status,
                                               counted=kind == "schedule"
                                               and n_schedules < self.sum_ii_schedules)
            if self.tracer is not None:
                self.tracer.enabled = True
            self.check_s += time.perf_counter() - checked
            n_schedules += kind == "schedule"
            self.n_resubmits += origin is not None
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.failures.append(f"job #{self.attempted - 1} ({kind}): {problem}")
        self.n_jobs = self.attempted
        self.digests["jobs"] = _combine([job["runs_digest"] for job in self.fresh])

    def _check_job(self, request, origin, job_id, status, counted) -> Optional[str]:
        """Check one fetched status; None when the job is correct."""
        from repro import serialize
        from repro.core.validate import ValidationError, validate_schedule

        if status.get("state") != "done" or not status.get("runs_digest"):
            return f"state {status.get('state')}: {status.get('error')}"
        result = status.get("result")
        if origin is not None:
            first = self.fresh[origin]
            if job_id != first["job_id"]:
                return f"resubmission got id {job_id}, not {first['job_id']}"
            if status["runs_digest"] != first["runs_digest"]:
                return "resubmission returned another runs_digest"
            if _hash(result) != first["result_hash"]:
                return "resubmission returned another result"
            return None
        try:
            decoded = serialize.from_dict(result)
        except serialize.SerializationError as exc:
            return f"undecodable result: {exc}"
        if result["type"] == "schedule_result":
            results, payloads = [decoded], [result["data"]]
        else:
            results = [run.result for run in decoded.runs]
            payloads = [run["result"] for run in result["data"]["runs"]]
        for schedule, payload in zip(results, payloads):
            key = (schedule.config_name, schedule.loop_name)
            # The same loop on the same configuration comes back in many
            # evaluate reports; an identical payload was validated already.
            if self._validated.get(key) != payload:
                machine, rf = self.oracle[schedule.config_name]
                try:
                    validate_schedule(schedule, machine, rf)
                except ValidationError as exc:
                    return f"{schedule.loop_name}: {str(exc).splitlines()[0]}"
                self._validated[key] = payload
            if counted:
                self.sum_ii += schedule.ii
        self.n_loops += len(results)
        self.job_times.append((status["started_at"] - status["submitted_at"],
                               status["finished_at"] - status["started_at"]))
        self.fresh.append({"request": request, "job_id": job_id,
                           "runs_digest": status["runs_digest"],
                           "result_hash": _hash(result)})
        return None

    def check(self) -> Tuple[int, int]:
        """Every job was checked as it finished (see ``measure``)."""
        return self.attempted, self.failed

    def layer_values(self) -> Dict[str, float]:
        """Service metrics read from job status timestamps and response sizes."""
        from tracing import percentile

        queue_ms = [queue * 1e3 for queue, _ in self.job_times]
        execute_ms = [execute * 1e3 for _, execute in self.job_times]
        return {
            "service.queue_wait_ms_p50": percentile(queue_ms, 50),
            "service.execute_ms_p50": percentile(execute_ms, 50),
            "service.execute_ms_p99": percentile(execute_ms, 99),
            "service.dedup_share": self.n_resubmits / max(1, self.attempted),
            "http.fetch_kb_p50": percentile(self.response_kb, 50),
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            server.server_close()
            self.thread.join(timeout=10.0)
        scheduler = getattr(self, "scheduler", None)
        if scheduler is not None:
            scheduler.shutdown()
        if getattr(self, "db", None) is not None:
            self.db.close()
        if getattr(self, "session", None) is not None:
            self.session.close()


def _hash(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _combine(digests: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ClusteredCold, MonolithicFull, ServiceMixed, ResumeWarm)
}
