"""Sharded, checkpointed workbench evaluation.

Evaluating the paper-scale ``full`` workbench tier (1258 loops, see
:mod:`repro.workloads.suite`) on one configuration is minutes-to-hours of
pure-Python scheduling.  This module makes that tractable and
interruption-safe by splitting a suite into deterministic *shards* and
persisting each completed shard to disk the moment it finishes:

* :func:`plan_shards` cuts a workbench into contiguous shards and gives
  each one a content-addressed key -- the SHA-256 over the per-loop
  :func:`repro.eval.cache.schedule_key` values, so a shard's identity
  covers loop content, configuration, machine, policy bundle, knobs, and
  the package version, exactly like the evaluation cache.
* :class:`ResultStore` is the on-disk checkpoint layer *above*
  :class:`~repro.eval.cache.EvalCache`: one versioned
  :mod:`repro.serialize` envelope (type ``shard_result``) per completed
  shard, written atomically.  Where the cache memoizes individual
  (loop, configuration) schedules as pickles, the store checkpoints
  whole shards as portable JSON -- readable by any process, any machine,
  any future version that understands the schema.
* :func:`iter_schedule_suite_sharded` is the streaming evaluation loop:
  completed shards are restored and yielded without scheduling anything;
  unfinished shards are scheduled (serially or over the worker pool) and
  persisted as soon as their last loop completes.  A run killed after
  ``k`` of ``n`` shards re-schedules only the remaining ``n - k`` on the
  next invocation -- and reproduces the same report, because schedules
  are deterministic and the serialized form round-trips canonically.

"Identical" deliberately excludes wall-clock: ``scheduling_time_s`` is
the one nondeterministic field a run carries, so :func:`runs_digest` /
:func:`report_digest` hash the canonical payload with timing zeroed.
Two evaluations agree iff their digests agree.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ddg.loop import Loop
from repro.eval.cache import EvalCache, schedule_key
from repro.eval.metrics import LoopRun
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import baseline_machine, config_by_name
from repro.simulator.prefetch import PrefetchPolicy

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "SHARD_SCHEMA_VERSION",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "ResultStore",
    "plan_shards",
    "iter_schedule_suite_sharded",
    "canonical_run_payload",
    "runs_digest",
    "report_digest",
]

#: Loops per shard.  Small enough that an interrupted full-tier run
#: loses at most a few minutes of work, large enough that the per-shard
#: envelope write and the worker fan-out stay amortized.
DEFAULT_SHARD_SIZE: int = 32

#: Bumped when the shard key derivation or the ``shard_result`` payload
#: shape changes incompatibly; part of every shard key, so stale
#: checkpoints from older code are re-scheduled, never misread.
SHARD_SCHEMA_VERSION: int = 1


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a workbench evaluation."""

    index: int
    positions: Tuple[int, ...]
    #: Content-addressed identity (loop content + configuration + knobs
    #: + versions); the filename of the checkpoint envelope.
    key: str


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic decomposition of one (suite, configuration) run."""

    config_name: str
    n_loops: int
    shard_size: int
    shards: Tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)


@dataclass
class ShardResult:
    """A completed shard, as persisted by :class:`ResultStore`.

    Registered with :mod:`repro.serialize` as envelope type
    ``shard_result``; ``positions`` records where the runs sit in the
    workbench (bookkeeping for humans and validation -- the key alone
    identifies the content).
    """

    key: str
    config_name: str
    positions: List[int] = field(default_factory=list)
    runs: List[LoopRun] = field(default_factory=list)


def shard_result_to_dict(result: ShardResult) -> Dict:
    """The ``data`` payload of a serialized :class:`ShardResult`."""
    from repro import serialize

    return {
        "shard_schema": SHARD_SCHEMA_VERSION,
        "key": result.key,
        "config_name": result.config_name,
        "positions": list(result.positions),
        "runs": [serialize.loop_run_to_dict(run) for run in result.runs],
    }


def shard_result_from_dict(payload: Dict) -> ShardResult:
    """Rebuild a :class:`ShardResult` from its ``data`` payload."""
    from repro import serialize

    return ShardResult(
        key=payload["key"],
        config_name=payload.get("config_name", ""),
        positions=[int(p) for p in payload.get("positions", ())],
        runs=[serialize.loop_run_from_dict(entry) for entry in payload.get("runs", ())],
    )


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
def plan_shards(
    loops: Sequence[Loop],
    rf: Union[RFConfig, str],
    machine: Optional[MachineConfig] = None,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler="mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
) -> ShardPlan:
    """Split a workbench into deterministic, content-addressed shards.

    Shards are contiguous position ranges, so the tier prefix property
    of :mod:`repro.workloads.suite` carries over: every full shard of a
    ``small``-tier run has the same key when the same configuration is
    later evaluated on ``standard`` or ``full``, and is restored instead
    of re-scheduled.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    rf_config = config_by_name(rf) if isinstance(rf, str) else rf
    base = machine or baseline_machine()
    keys = [
        schedule_key(
            loop,
            rf_config,
            base,
            scale_to_clock=scale_to_clock,
            budget_ratio=budget_ratio,
            scheduler=scheduler,
            prefetch=prefetch,
        )
        for loop in loops
    ]
    shards: List[Shard] = []
    for start in range(0, len(loops), shard_size):
        positions = tuple(range(start, min(start + shard_size, len(loops))))
        digest = hashlib.sha256()
        digest.update(f"shard-schema:{SHARD_SCHEMA_VERSION}\n".encode())
        for position in positions:
            digest.update(keys[position].encode())
            digest.update(b"\n")
        shards.append(
            Shard(index=len(shards), positions=positions, key=digest.hexdigest())
        )
    return ShardPlan(
        config_name=rf_config.name,
        n_loops=len(loops),
        shard_size=shard_size,
        shards=tuple(shards),
    )


# --------------------------------------------------------------------------- #
# The on-disk checkpoint store
# --------------------------------------------------------------------------- #
class ResultStore:
    """On-disk store of completed shards (one JSON envelope each).

    Layered *above* :class:`~repro.eval.cache.EvalCache`: the cache
    memoizes single schedules within and across processes, the store
    checkpoints whole shards so a resumed evaluation never even plans
    work for them.  Counters (``hits``/``misses``/``stores``/
    ``invalid``/``write_failures``) make resume behaviour observable to
    tests, the benchmark record, and CI.

    Example::

        store = ResultStore(".repro-checkpoint")
        runs = schedule_suite(loops, "4C16S16", store=store)   # cold
        runs = schedule_suite(loops, "4C16S16", store=store)   # restored
        assert store.hits == store.stores > 0
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._warned_write_failure = False
        self._warned_invalid = False
        self.hits: int = 0
        self.misses: int = 0
        self.stores: int = 0
        #: Envelopes present but unusable (corrupt JSON, key mismatch,
        #: wrong schema...).  Counted as misses too; never fatal.
        self.invalid: int = 0
        self.write_failures: int = 0

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def __contains__(self, shard: Shard) -> bool:
        return self.path_for(shard.key).exists()

    #: On-disk layout of the envelopes under the store directory.  The
    #: single place that knows it -- ``count``/``has_shards`` and any
    #: outside probe (the CLI's ``--resume`` guard) go through here.
    _ENVELOPE_GLOB = "*/*.json"

    def count(self) -> int:
        """Number of shard envelopes currently on disk."""
        return sum(1 for _ in self.directory.glob(self._ENVELOPE_GLOB))

    @classmethod
    def has_shards(cls, directory: Union[str, Path]) -> bool:
        """True when ``directory`` holds at least one shard envelope.

        A pure probe: unlike constructing a :class:`ResultStore`, it
        never creates the directory -- the CLI's ``--resume`` guard uses
        it so a mistyped path is rejected without being mkdir'd into
        existence.
        """
        return any(Path(directory).expanduser().glob(cls._ENVELOPE_GLOB))

    def get(self, shard: Shard) -> Optional[List[LoopRun]]:
        """The persisted runs of ``shard``, or ``None`` when not usable."""
        from repro import serialize

        path = self.path_for(shard.key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            result = serialize.load(path, expect_type="shard_result")
        except (OSError, serialize.SerializationError, ValueError, KeyError) as exc:
            self._note_invalid(shard, f"unreadable envelope ({exc!r})")
            return None
        if (
            not isinstance(result, ShardResult)
            or result.key != shard.key
            or len(result.runs) != len(shard.positions)
        ):
            self._note_invalid(shard, "envelope content does not match the shard")
            return None
        self.hits += 1
        return result.runs

    def _note_invalid(self, shard: Shard, reason: str) -> None:
        """Count an unusable envelope -- and say so, once, with the key.

        An invalid checkpoint is handled by silently re-scheduling the
        shard, which is correct but can hide a corrupted or mismatched
        store for a very long time (the evaluation just gets slower).
        The first occurrence therefore warns with the shard hash so the
        situation is diagnosable; every occurrence is counted in
        ``invalid`` (and as a miss).
        """
        self.invalid += 1
        self.misses += 1
        if not self._warned_invalid:
            self._warned_invalid = True
            warnings.warn(
                f"checkpoint store {self.directory} holds an invalid "
                f"envelope for shard {shard.key}: {reason}; the shard "
                f"will be re-scheduled (further invalid envelopes are "
                f"counted in stats() without warning again)",
                RuntimeWarning,
                stacklevel=3,
            )

    def put(self, shard: Shard, runs: Sequence[LoopRun], *, config_name: str = "") -> None:
        """Persist one completed shard (atomic: write-temp + rename)."""
        from repro import serialize

        result = ShardResult(
            key=shard.key,
            config_name=config_name,
            positions=list(shard.positions),
            runs=list(runs),
        )
        path = self.path_for(shard.key)
        tmp_name = None
        try:
            payload = serialize.dumps(result, indent=None)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.write("\n")
            os.replace(tmp_name, path)
            self.stores += 1
        except Exception as exc:
            # Best-effort, like the cache's disk tier: a checkpoint that
            # cannot be written must not fail an evaluation that already
            # produced its results -- but it must not be invisible either.
            self.write_failures += 1
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            if not self._warned_write_failure:
                self._warned_write_failure = True
                warnings.warn(
                    f"shard checkpoint could not be persisted to "
                    f"{self.directory} ({exc!r}); an interrupted run will "
                    f"re-schedule this shard",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def stats(self) -> Dict[str, int]:
        """Counters for logging and the benchmark record."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "write_failures": self.write_failures,
            "envelopes": self.count(),
        }


# --------------------------------------------------------------------------- #
# The sharded evaluation loop
# --------------------------------------------------------------------------- #
def iter_schedule_suite_sharded(
    loops: Sequence[Loop],
    rf: Union[RFConfig, str],
    *,
    machine: Optional[MachineConfig] = None,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler="mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
    jobs: int = 1,
    cache: Optional[EvalCache] = None,
    executor=None,
    store: ResultStore,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> Iterator[Tuple[int, LoopRun, bool]]:
    """Schedule a workbench shard by shard, checkpointing each as it completes.

    Same contract as :func:`repro.eval.experiments.iter_schedule_suite`
    (``(position, run, cached)`` triples; every position covered exactly
    once), plus the checkpoint behaviour: shards already in ``store``
    are restored and yielded with ``cached=True`` without planning any
    scheduling work; the rest run through the ordinary (cache-aware,
    possibly parallel) suite iterator one shard at a time, and each is
    persisted the moment its last loop finishes.  Interrupt the process
    anywhere and a re-run schedules only the unfinished shards.

    Without an injected ``executor``, a parallel run (``jobs != 1``)
    creates **one** worker pool for the whole suite and reuses it across
    shards -- paying pool start-up per shard would dominate the very
    wall-clock the benchmark record measures.
    """
    from repro.eval.experiments import iter_schedule_suite
    from repro.eval.parallel import resolve_jobs

    n_workers = resolve_jobs(jobs)  # also rejects negative jobs up front
    plan = plan_shards(
        loops,
        rf,
        machine,
        shard_size=shard_size,
        scale_to_clock=scale_to_clock,
        budget_ratio=budget_ratio,
        scheduler=scheduler,
        prefetch=prefetch,
    )
    wants_pool = executor is None and jobs != 1 and n_workers > 1
    owned_pool = None
    try:
        for shard in plan.shards:
            restored = store.get(shard)
            if restored is not None:
                for position, run in zip(shard.positions, restored):
                    yield position, run, True
                continue
            if wants_pool and owned_pool is None:
                # Created lazily on the first shard that actually needs
                # scheduling: a fully restored resume pass must not pay
                # (or have its recorded wall-clock polluted by) worker
                # process start-up for a pool that never receives work.
                owned_pool = executor = ProcessPoolExecutor(max_workers=n_workers)
            shard_loops = [loops[position] for position in shard.positions]
            runs: List[Optional[LoopRun]] = [None] * len(shard_loops)
            for local, run, cached in iter_schedule_suite(
                shard_loops,
                rf,
                machine=machine,
                scale_to_clock=scale_to_clock,
                budget_ratio=budget_ratio,
                scheduler=scheduler,
                prefetch=prefetch,
                jobs=jobs,
                cache=cache,
                executor=executor,
            ):
                runs[local] = run
                yield shard.positions[local], run, cached
            store.put(shard, runs, config_name=plan.config_name)
    finally:
        if owned_pool is not None:
            owned_pool.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# Canonical digests ("identical modulo wall-clock")
# --------------------------------------------------------------------------- #
def canonical_run_payload(run: LoopRun) -> Dict:
    """The serialized payload of a run with wall-clock timing zeroed.

    ``scheduling_time_s`` is the only nondeterministic field a
    deterministic schedule carries; everything else (the graph, the
    placements, every derived counter) must agree between two
    evaluations of the same problem.
    """
    from repro import serialize

    payload = serialize.loop_run_to_dict(run)
    payload["result"]["scheduling_time_s"] = 0.0
    return payload


def runs_digest(runs: Sequence[LoopRun]) -> str:
    """SHA-256 over the canonical payloads of a run sequence (order-sensitive)."""
    digest = hashlib.sha256()
    for run in runs:
        digest.update(
            json.dumps(canonical_run_payload(run), sort_keys=True).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def report_digest(report) -> str:
    """Canonical digest of a :class:`~repro.eval.reporting.ConfigurationReport`.

    Two reports with the same configuration and the same deterministic
    run content produce the same digest, regardless of which process,
    machine, or (partially resumed) evaluation produced them.
    """
    digest = hashlib.sha256()
    digest.update(report.config.name.encode())
    digest.update(b"\n")
    digest.update(runs_digest(report.runs).encode())
    return digest.hexdigest()
