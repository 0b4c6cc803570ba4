"""The :class:`Session` facade: shared state for the evaluation verbs.

The v1 module-level verbs of :mod:`repro.api` re-wired their plumbing --
machine, policy bundle, worker pool, result cache -- on every call.  A
:class:`Session` is constructed once with those defaults and owns the
shared state for its whole lifetime:

* one :class:`~repro.eval.cache.EvalCache` (optional) warmed by every
  verb, so a design-space sweep after a few schedules is mostly hits;
* one lazily created worker-process pool, reused across calls instead of
  paying pool start-up per verb (``jobs=1`` never creates it);
* the defaults (machine, policy bundle, budget ratio) every verb would
  otherwise take as per-call keyword plumbing.

Per-call ``jobs=``/``policy=`` overrides stay available where they make
sense; state-shaped plumbing (machine, cache) is fixed at construction
-- that is the point of a session.

The streaming verb, :meth:`Session.evaluate_stream`, is new in v2: it
yields each :class:`~repro.eval.metrics.LoopRun` the moment a worker
finishes (completion order), instead of a list at the end, and can
interleave :mod:`progress events <repro.session.events>`.  Collected, it
is bit-identical to :meth:`Session.evaluate_configuration` -- both run
on :func:`repro.eval.experiments.iter_schedule_suite`.
"""

from __future__ import annotations

import warnings
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Dict, Iterator, List, Optional, Sequence, Union

from pathlib import Path

from repro.core.policy import resolve_bundle
from repro.core.result import ScheduleResult
from repro.ddg.loop import Loop
from repro.eval.cache import EvalCache
from repro.eval.experiments import iter_schedule_suite, schedule_suite
from repro.eval.metrics import LoopRun
from repro.eval.parallel import resolve_jobs
from repro.eval.reporting import ConfigurationReport, Table
from repro.eval.shards import DEFAULT_SHARD_SIZE, ResultStore
from repro.hwmodel.timing import derive_hardware
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import baseline_machine, config_by_name
from repro.session.events import RunReady, StreamEvent, SuiteFinished, SuiteStarted
from repro.workloads.kernels import build_kernel
from repro.workloads.suite import build_workbench, perfect_club_like_suite

__all__ = ["Session", "default_session"]


class Session:
    """Long-lived facade over the scheduling and evaluation pipeline.

    Parameters
    ----------
    machine:
        Base datapath every verb schedules against (default: the paper's
        baseline, 8 FP units + 4 memory ports).
    policy:
        Default policy bundle name (``repro.core.bundle_names()`` lists
        them); individual calls may override it.
    budget_ratio:
        Scheduler backtracking budget per node.
    jobs:
        Default worker count for workbench-sized verbs (``0`` = one per
        CPU, ``1`` = serial).  The pool is created lazily on the first
        parallel call and reused until :meth:`close`.
    cache:
        A shared :class:`~repro.eval.cache.EvalCache`.  Every verb warms
        it and every verb is served by it -- including
        :meth:`compare_configurations`, so a warm session makes a
        design-space sweep near-free.  ``None`` disables cross-call
        caching (comparisons still deduplicate internally).
    checkpoint:
        A :class:`~repro.eval.shards.ResultStore` (or a directory path
        for one): every workbench-sized verb then evaluates *shard by
        shard*, restoring shards already on disk and persisting each
        freshly completed one.  A session killed mid-suite resumes where
        it stopped on the next run -- with an identical report, since
        schedules are deterministic and the stored form round-trips
        canonically.  ``None`` (default) disables checkpointing.
    shard_size:
        Loops per checkpoint shard (only meaningful with ``checkpoint``).

    Example::

        with Session(jobs=0, cache=EvalCache()) as session:
            session.evaluate_configuration("4C16S16", n_loops=64)   # cold
            session.compare_configurations(["S64", "4C16S16"])      # warm
    """

    def __init__(
        self,
        *,
        machine: Optional[MachineConfig] = None,
        policy: str = "mirs_hc",
        budget_ratio: float = 6.0,
        jobs: int = 1,
        cache: Optional[EvalCache] = None,
        checkpoint: Optional[Union[str, Path, ResultStore]] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        resolve_jobs(jobs)  # validates the worker count
        resolve_bundle(policy)  # fail on unknown bundles at construction
        self.machine = machine or baseline_machine()
        self.policy = policy
        self.budget_ratio = float(budget_ratio)
        self.jobs = jobs
        self.cache = cache
        self.checkpoint: Optional[ResultStore] = (
            checkpoint
            if checkpoint is None or isinstance(checkpoint, ResultStore)
            else ResultStore(checkpoint)
        )
        self.shard_size = int(shard_size)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def executor(self, jobs: Optional[int] = None) -> Optional[Executor]:
        """The session's warm worker pool for an effective job count.

        Returns ``None`` when the request resolves to a single worker (a
        serial call must not spawn processes).  The pool is created on
        the first parallel request and reused by every later call until
        :meth:`close`; a later request for *more* workers replaces it
        with a larger one (draining in-flight chunks first), so a
        per-call ``jobs=`` override is never silently capped by whatever
        the first call happened to ask for.
        """
        self._check_open()
        n_workers = resolve_jobs(self.jobs if jobs is None else jobs)
        if n_workers <= 1:
            return None
        if self._pool is not None and n_workers > self._pool_size:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=n_workers)
            self._pool_size = n_workers
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down; the session cannot be used after."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_size = 0
        self._closed = True

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Session is closed; construct a new one")

    def fingerprint(self) -> str:
        """Stable content hash of everything this session's verbs key on.

        Mixed into job content keys by the batch service: two sessions
        with the same machine, policy bundle, budget ratio and
        package/cache-schema version execute an identical request
        identically, so their jobs may share an id -- a session that
        differs in any of these must not.
        """
        import hashlib

        import repro
        from repro.eval.cache import (
            CACHE_SCHEMA_VERSION,
            _machine_token,
            _scheduler_token,
        )

        payload = (
            CACHE_SCHEMA_VERSION,
            repro.__version__,
            _machine_token(self.machine),
            _scheduler_token(self.policy),
            float(self.budget_ratio),
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()

    def stats(self) -> Dict[str, object]:
        """Observable session state: cache/checkpoint counters, pool status."""
        return {
            "policy": self.policy,
            "jobs": self.jobs,
            "pool_active": self._pool is not None,
            "pool_size": self._pool_size,
            "closed": self._closed,
            "cache": self.cache.stats() if self.cache is not None else None,
            "checkpoint": (
                self.checkpoint.stats() if self.checkpoint is not None else None
            ),
        }

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def resolve_rf(self, rf: Union[str, RFConfig]) -> RFConfig:
        """Resolve a configuration name to an :class:`RFConfig`."""
        return config_by_name(rf) if isinstance(rf, str) else rf

    #: Workbench size of the ad-hoc (tier-less) verbs, kept from v1.
    DEFAULT_N_LOOPS: int = 64

    def _workbench(
        self,
        loops: Optional[Sequence[Loop]],
        n_loops: Optional[int],
        seed: int,
        tier: Optional[str] = None,
    ) -> List[Loop]:
        """Resolve a verb's workbench: explicit loops, a tier, or ad hoc.

        With ``tier`` the loops come from the stratified registry
        (:func:`repro.workloads.suite.build_workbench`): ``n_loops=None``
        means the *whole* tier (naming ``"full"`` is asking for all 1258
        loops, never a silent subset), and a request for more loops than
        the tier holds raises
        :class:`~repro.workloads.suite.WorkbenchSizeError` naming the
        available sizes instead of silently truncating.  Without a tier,
        ``n_loops=None`` keeps the historical 64-loop default.
        """
        if loops is not None:
            return list(loops)
        if tier is not None:
            return build_workbench(tier, n_loops=n_loops, seed=seed)
        return perfect_club_like_suite(
            self.DEFAULT_N_LOOPS if n_loops is None else n_loops, seed=seed
        )

    def workbench(
        self,
        *,
        n_loops: Optional[int] = None,
        seed: int = 2003,
        tier: Optional[str] = None,
    ) -> List[Loop]:
        """The workbench an evaluation verb with these arguments would run.

        Public so out-of-process execution planners (the fleet
        coordinator behind ``repro serve --coordinator``) build the
        *identical* loop list the in-process verbs schedule -- same tier
        semantics (``n_loops=None`` with a tier means the whole tier),
        same oversize validation, same ad-hoc default.
        """
        self._check_open()
        return self._workbench(None, n_loops, seed, tier)

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def schedule_kernel(
        self,
        kernel: Union[str, Loop],
        rf: Union[str, RFConfig],
        *,
        budget_ratio: Optional[float] = None,
        policy: Optional[str] = None,
        jobs: Optional[int] = None,
        **kernel_params: object,
    ) -> ScheduleResult:
        """Schedule a named kernel (or a ready-made loop) on a configuration.

        A single loop always schedules in-process, so a parallelism
        request here is a no-op -- it is *validated and warned about*
        rather than silently swallowed (pass ``jobs`` to the
        workbench-sized verbs instead).

        Example:

        >>> from repro.session import Session
        >>> session = Session()
        >>> result = session.schedule_kernel("fir_filter", "4C16S16", taps=8)
        >>> result.success
        True
        >>> result.ii >= result.mii
        True
        """
        self._check_open()
        if jobs is not None and resolve_jobs(jobs) != 1:
            warnings.warn(
                f"jobs={jobs} has no effect in schedule_kernel: a single "
                f"loop always schedules in-process (use jobs on "
                f"evaluate_configuration / compare_configurations instead)",
                UserWarning,
                stacklevel=2,
            )
        loop = build_kernel(kernel, **kernel_params) if isinstance(kernel, str) else kernel
        runs = schedule_suite(
            [loop],
            self.resolve_rf(rf),
            machine=self.machine,
            budget_ratio=self.budget_ratio if budget_ratio is None else budget_ratio,
            scheduler=policy or self.policy,
            jobs=1,
            cache=self.cache,
        )
        return runs[0].result

    def evaluate_configuration(
        self,
        rf: Union[str, RFConfig],
        *,
        loops: Optional[Sequence[Loop]] = None,
        n_loops: Optional[int] = None,
        seed: int = 2003,
        tier: Optional[str] = None,
        policy: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> ConfigurationReport:
        """Schedule a workbench on one configuration and aggregate the metrics.

        The barrier sibling of :meth:`evaluate_stream` -- identical
        results, returned all at once as a
        :class:`~repro.eval.reporting.ConfigurationReport`.  ``tier``
        selects a stratified workbench tier (``tiny``/``small``/
        ``standard``/``full``); asking for more loops than the tier
        holds is an error, not a truncation.  With a session
        ``checkpoint`` the evaluation is sharded and resumable.

        Example:

        >>> from repro.session import Session
        >>> session = Session()
        >>> report = session.evaluate_configuration("4C16S16", n_loops=4)
        >>> report.n_failed
        0
        >>> report.cycles > 0
        True
        """
        self._check_open()
        rf_config = self.resolve_rf(rf)
        effective_jobs = self.jobs if jobs is None else jobs
        runs = schedule_suite(
            self._workbench(loops, n_loops, seed, tier),
            rf_config,
            machine=self.machine,
            budget_ratio=self.budget_ratio,
            scheduler=policy or self.policy,
            jobs=effective_jobs,
            cache=self.cache,
            executor=self.executor(effective_jobs),
            store=self.checkpoint,
            shard_size=self.shard_size,
        )
        spec = derive_hardware(self.machine, rf_config)
        return ConfigurationReport(config=rf_config, spec=spec, runs=runs)

    def evaluate_stream(
        self,
        rf: Union[str, RFConfig],
        *,
        loops: Optional[Sequence[Loop]] = None,
        n_loops: Optional[int] = None,
        seed: int = 2003,
        tier: Optional[str] = None,
        policy: Optional[str] = None,
        jobs: Optional[int] = None,
        events: bool = False,
    ) -> Iterator[Union[LoopRun, StreamEvent]]:
        """Evaluate a workbench, yielding each run as a worker finishes.

        Results arrive in *completion* order: cache hits first, then
        fresh schedules as the serial engine or the worker pool produces
        them -- the first run is available long before the slowest loop
        finishes.  Collected (and re-ordered by ``run.loop``), the stream
        is bit-identical to :meth:`evaluate_configuration`; both paths
        run on :func:`repro.eval.experiments.iter_schedule_suite`.

        With ``events=True`` the stream instead yields
        :class:`~repro.session.events.SuiteStarted`, one
        :class:`~repro.session.events.RunReady` per loop (carrying
        position and progress counters), and a final
        :class:`~repro.session.events.SuiteFinished` with the aggregate
        report.

        Example:

        >>> from repro.session import Session
        >>> session = Session()
        >>> runs = list(session.evaluate_stream("S64", n_loops=4))
        >>> len(runs)
        4
        >>> all(run.result.success for run in runs)
        True
        """
        self._check_open()
        rf_config = self.resolve_rf(rf)
        workbench = self._workbench(loops, n_loops, seed, tier)
        effective_jobs = self.jobs if jobs is None else jobs
        stream = iter_schedule_suite(
            workbench,
            rf_config,
            machine=self.machine,
            budget_ratio=self.budget_ratio,
            scheduler=policy or self.policy,
            jobs=effective_jobs,
            cache=self.cache,
            executor=self.executor(effective_jobs),
            store=self.checkpoint,
            shard_size=self.shard_size,
        )
        if events:
            yield SuiteStarted(config_name=rf_config.name, n_total=len(workbench))
        # Runs are only retained for the SuiteFinished report; the plain
        # stream hands each one to the consumer and keeps nothing, so
        # streaming a huge workbench does not carry batch-path memory.
        runs: List[Optional[LoopRun]] = [None] * len(workbench) if events else []
        n_done = 0
        for position, run, cached in stream:
            if events:
                runs[position] = run
            n_done += 1
            if events:
                yield RunReady(
                    position=position,
                    run=run,
                    cached=cached,
                    n_done=n_done,
                    n_total=len(workbench),
                )
            else:
                yield run
        if events:
            spec = derive_hardware(self.machine, rf_config)
            yield SuiteFinished(
                report=ConfigurationReport(
                    config=rf_config, spec=spec, runs=list(runs)
                )
            )

    def compare_configurations(
        self,
        configs: Sequence[Union[str, RFConfig]],
        *,
        loops: Optional[Sequence[Loop]] = None,
        n_loops: Optional[int] = None,
        seed: int = 2003,
        tier: Optional[str] = None,
        reference: Union[str, RFConfig] = "S64",
        policy: Optional[str] = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, object]:
        """Evaluate several configurations and rank them by execution time.

        Returns a dict with a ``reports`` mapping (name ->
        :class:`~repro.eval.reporting.ConfigurationReport`), a rendered
        ``table`` and the ``ranking`` (fastest first).

        The sweep runs against the *session* cache when one is
        configured, so a warm session re-ranks the design space without
        scheduling anything; without a session cache an ephemeral one
        still deduplicates repeated configurations within this call.

        Example:

        >>> from repro.session import Session
        >>> session = Session()
        >>> comparison = session.compare_configurations(
        ...     ["S64", "4C16S16"], n_loops=4)
        >>> sorted(comparison["reports"])
        ['4C16S16', 'S64']
        """
        self._check_open()
        workbench = self._workbench(loops, n_loops, seed, tier)
        # Satellite of the v2 redesign: reuse the session cache when one
        # is configured (warm sessions sweep for free); otherwise fall
        # back to an ephemeral per-call dedup cache, like v1.
        cache = self.cache if self.cache is not None else EvalCache()
        effective_jobs = self.jobs if jobs is None else jobs
        reference_rf = self.resolve_rf(reference)
        all_configs = [self.resolve_rf(config) for config in configs]
        if reference_rf.name not in {config.name for config in all_configs}:
            all_configs = [reference_rf, *all_configs]

        names: List[str] = []
        reports: Dict[str, ConfigurationReport] = {}
        for rf_config in all_configs:
            runs = schedule_suite(
                workbench,
                rf_config,
                machine=self.machine,
                budget_ratio=self.budget_ratio,
                scheduler=policy or self.policy,
                jobs=effective_jobs,
                cache=cache,
                executor=self.executor(effective_jobs),
                store=self.checkpoint,
                shard_size=self.shard_size,
            )
            spec = derive_hardware(self.machine, rf_config)
            report = ConfigurationReport(config=rf_config, spec=spec, runs=runs)
            reports[rf_config.name] = report
            names.append(rf_config.name)

        ref_time = reports[reference_rf.name].time_ns
        table = Table(
            ["config", "kind", "area (Mλ²)", "clock (ns)", "cycles",
             "rel time", "speedup"],
            title=f"Configuration comparison (relative to {reference_rf.name})",
        )
        for name in names:
            report = reports[name]
            rel = report.time_ns / ref_time if ref_time else float("nan")
            table.add_row(
                name, report.config.kind.value, report.area_mlambda2,
                report.spec.clock_ns, report.cycles, rel,
                1.0 / rel if rel else float("nan"),
            )
        ranking = sorted(names, key=lambda name: reports[name].time_ns)
        return {"reports": reports, "table": table, "ranking": ranking}

    def fuzz_schedules(self, n_seeds: int = 100, **kwargs):
        """Differentially fuzz the pipeline with the session's defaults.

        The session's machine, budget ratio and (as the single-bundle
        default) policy seed the fuzz run; every keyword of
        :func:`repro.verify.fuzz.fuzz_schedules` can still be passed
        through.  Returns a :class:`repro.verify.fuzz.FuzzReport`.
        """
        self._check_open()
        from repro.verify.fuzz import fuzz_schedules as _fuzz

        kwargs.setdefault("machine", self.machine)
        kwargs.setdefault("budget_ratio", self.budget_ratio)
        if kwargs.get("policies") is None:
            kwargs["policies"] = [self.policy]
        return _fuzz(n_seeds, **kwargs)


#: The process-wide session behind the deprecated module-level verbs of
#: :mod:`repro.api`.  Serial and cache-less, exactly like the v1 verbs'
#: defaults, so the shims behave identically to the old implementations.
_default_session: Optional[Session] = None


def default_session() -> Session:
    """The lazily created process-wide default :class:`Session`."""
    global _default_session
    if _default_session is None or _default_session._closed:
        _default_session = Session()
    return _default_session
