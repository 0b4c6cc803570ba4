"""Content-addressed cache for (loop, configuration) scheduling results.

Every table/figure driver and the high-level API ultimately funnel work
through :func:`repro.eval.experiments.schedule_suite`, and many of them
schedule the *same* loops on the *same* configurations (the reference
configuration of a comparison, the shared subsets of Table 5/6 and
Figure 6, repeated CLI invocations...).  Scheduling is by far the
expensive step, so :class:`EvalCache` memoizes one :class:`~repro.eval.metrics.LoopRun`
per unique scheduling problem.

The cache key (:func:`schedule_key`) is a stable SHA-256 over everything
that determines the outcome of scheduling one loop:

* the loop's content fingerprint (:meth:`repro.ddg.loop.Loop.fingerprint`:
  dependence-graph structure, trip counts, weight);
* the register-file organization (:class:`~repro.machine.config.RFConfig`);
* the datapath (:class:`~repro.machine.config.MachineConfig`, including
  latencies and the cache parameters of the real-memory scenario);
* the scheduling knobs: ``budget_ratio``, the scheduler flavour,
  whether latencies are re-scaled to the configuration's clock, and the
  binding-prefetch policy.

Keys are *content* addressed, not identity addressed: regenerating the
workbench from the same seed in a different process (or on a different
day) produces the same keys, which is what makes the optional on-disk
tier useful across CLI invocations (``--cache DIR``).

The on-disk tier stores one pickle per entry under ``<dir>/<key[:2]>/``;
writes go through a temporary file and ``os.replace`` so concurrent
writers (e.g. two CLI runs sharing a cache directory) never observe a
torn entry.

The cache itself stores any value.  What
:func:`~repro.eval.experiments.iter_schedule_suite` stores is a run
without its loop -- the caller holds that loop and re-attaches it on a
hit -- except for a binding-prefetch run (:func:`binds_prefetch`), which
keeps the transformed loop it scheduled.  A result pickles its graph and
its placements in compact form and builds them only when read (see
:class:`~repro.core.result.ScheduleResult`), so a disk hit costs the
run's numbers, not its objects.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.ddg.loop import Loop
from repro.machine.config import MachineConfig, RFConfig
from repro.eval.metrics import LoopRun
from repro.simulator.prefetch import PrefetchPolicy

__all__ = ["CACHE_SCHEMA_VERSION", "EvalCache", "binds_prefetch", "schedule_key"]

#: Bumped whenever the pickled payload or the key derivation changes, so
#: stale on-disk entries from older code are never silently reused.  The
#: package version is part of the key as well (see :func:`schedule_key`),
#: so *scheduler behavior* changes invalidate on-disk caches through the
#: normal release version bump without touching this constant.
#: (v2: the scheduler token became the policy bundle's name + axes.
#: v3: entries hold no loop unless binding prefetch transformed it, and a
#: result pickles its graph for a deferred build.
#: v4: a result pickles its placements as tuples for a deferred build.)
CACHE_SCHEMA_VERSION: int = 4


def _rf_token(rf: RFConfig) -> Tuple:
    return (rf.n_clusters, rf.cluster_regs, rf.shared_regs, rf.lp, rf.sp, rf.n_buses)


def _machine_token(machine: MachineConfig) -> Tuple:
    return (
        machine.n_fus,
        machine.n_mem_ports,
        tuple(sorted(machine.latencies.items())),
        tuple(sorted(machine.unpipelined)),
        machine.miss_latency_ns,
        machine.cache_size_bytes,
        machine.cache_line_bytes,
        machine.cache_max_pending,
    )


def binds_prefetch(prefetch: Optional[PrefetchPolicy], scale_to_clock: bool) -> bool:
    """Whether binding prefetch transforms the loops a run schedules.

    It takes effect only when a policy is present, enabled, and
    latencies are scaled to the configuration's clock (no hardware spec
    -> no miss latency to bind).  Such a run schedules, and persists, a
    transformed copy of its loop instead of the caller's.
    """
    return prefetch is not None and prefetch.enabled and bool(scale_to_clock)


def _prefetch_token(
    prefetch: Optional[PrefetchPolicy], scale_to_clock: bool
) -> Optional[Tuple]:
    # Behaviorally identical requests must share a key, so a prefetch
    # policy that binds nothing normalizes to None.
    if not binds_prefetch(prefetch, scale_to_clock):
        return None
    return (prefetch.enabled, prefetch.min_trip_count)


def _scheduler_token(scheduler) -> Tuple:
    """Identity of the policy bundle driving the engine.

    Both the name and the four policy axes (plus the engine mode) are in
    the key: two differently named bundles with identical axes may share
    behaviour but never share results by accident, and an ad-hoc
    :class:`~repro.core.policy.PolicyBundle` keys on what it *does*.
    """
    from repro.core.policy import resolve_bundle

    bundle = resolve_bundle(scheduler)
    return (bundle.name, *bundle.axes())


def schedule_key(
    loop: Loop,
    rf: RFConfig,
    machine: MachineConfig,
    *,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler="mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
) -> str:
    """The cache key of one (loop, configuration) scheduling problem.

    Besides the problem itself (loop content, configuration, knobs --
    including the policy bundle, see :func:`_scheduler_token`), the key
    carries the cache schema version and the package version: a release
    that changes what the scheduler *produces* must not be served stale
    results from an on-disk cache written by an older release.
    """
    import repro

    payload = (
        CACHE_SCHEMA_VERSION,
        repro.__version__,
        loop.fingerprint(),
        _rf_token(rf),
        _machine_token(machine),
        bool(scale_to_clock),
        float(budget_ratio),
        _scheduler_token(scheduler),
        _prefetch_token(prefetch, scale_to_clock),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


class EvalCache:
    """In-memory (and optionally on-disk) store of scheduling results.

    Parameters
    ----------
    directory:
        When given, every entry is also persisted as a pickle under this
        directory, and lookups fall back to disk on an in-memory miss --
        so a fresh process with the same cache directory starts warm.
    max_entries:
        Bound on the in-memory tier.  When the bound is reached the
        least-recently-used entry is evicted (``get`` and ``put`` both
        count as use).  ``None`` keeps the historical unbounded
        behaviour.  Eviction only touches the memory tier: an evicted
        entry that was persisted to ``directory`` is transparently
        re-loaded (and re-admitted) on its next lookup.  The default is
        generous -- a full paper reproduction stores a few thousand
        entries -- so eviction only engages on long-lived processes
        (services, sweeps over many machine scenarios) where the cache
        would otherwise grow without limit.

    Counters (``hits``, ``misses``, ``stores``, ``evictions``) make
    cache behaviour observable to tests and benchmarks.

    Example::

        cache = EvalCache()
        runs = schedule_suite(loops, "4C16S16", cache=cache)   # cold: schedules
        runs = schedule_suite(loops, "4C16S16", cache=cache)   # warm: no scheduling
        assert cache.hits == len(loops)
    """

    #: Default in-memory bound; see ``max_entries`` above.
    DEFAULT_MAX_ENTRIES: int = 50_000

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.directory: Optional[Path] = (
            Path(directory).expanduser() if directory is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries: Optional[int] = max_entries
        self._memory: "OrderedDict[str, LoopRun]" = OrderedDict()
        self._warned_write_failure: bool = False
        self.hits: int = 0
        self.misses: int = 0
        self.stores: int = 0
        #: In-memory entries dropped by the LRU bound.
        self.evictions: int = 0
        #: Disk-tier writes that failed (unpicklable run, filesystem
        #: error, ...).  The failure is non-fatal -- the in-memory tier
        #: keeps the result -- but it must not be invisible: the first
        #: one warns, every one is counted here and in :meth:`stats`.
        self.write_failures: int = 0

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def _disk_path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / key[:2] / f"{key}.pkl"

    def _admit(self, key: str, run: LoopRun) -> None:
        """Insert into the memory tier, evicting LRU past the bound."""
        memory = self._memory
        memory[key] = run
        memory.move_to_end(key)
        if self.max_entries is not None:
            while len(memory) > self.max_entries:
                memory.popitem(last=False)
                self.evictions += 1

    def get(self, key: str) -> Optional[LoopRun]:
        """The cached run for ``key``, or ``None`` on a miss."""
        run = self._memory.get(key)
        if run is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return run
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                with path.open("rb") as handle:
                    run = pickle.load(handle)
            except Exception:
                # Corrupt or stale entries raise a wide variety of types
                # (UnpicklingError, EOFError, OverflowError on damaged
                # frames, ModuleNotFoundError across refactors...); any
                # unreadable entry is simply a miss.
                run = None
            if run is not None:
                self._admit(key, run)
                self.hits += 1
                return run
        self.misses += 1
        return None

    def put(self, key: str, run: LoopRun) -> None:
        """Store one scheduling result under ``key`` (memory, then disk)."""
        self._admit(key, run)
        self.stores += 1
        path = self._disk_path(key)
        if path is None:
            return
        # Atomic publish: concurrent writers race benignly (same content
        # for the same key), and readers never see a partial pickle.  The
        # disk tier is best-effort -- an unpicklable run (e.g. exotic
        # objects in Loop.attributes) or a filesystem error must not fail
        # an evaluation whose scheduling already succeeded, so any write
        # problem just skips persistence (the in-memory tier keeps it).
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(run, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except Exception as exc:
            self.write_failures += 1
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            if not self._warned_write_failure:
                self._warned_write_failure = True
                warnings.warn(
                    f"evaluation cache could not persist an entry to "
                    f"{self.directory} ({exc!r}); results stay in memory "
                    f"only, so the next process will start cold",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._memory)

    def __bool__(self) -> bool:
        # Without this, an *empty* cache is falsy through __len__, and
        # call sites writing ``cache or EvalCache()`` silently drop a
        # cold on-disk cache (a bug this repo has already had once).
        return True

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def clear(self) -> None:
        """Drop the in-memory tier (on-disk entries are left in place)."""
        self._memory.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for logging: hits, misses, stores, evictions, write
        failures and resident entries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "write_failures": self.write_failures,
            "entries": len(self._memory),
        }
