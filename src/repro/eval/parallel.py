"""Process-parallel scheduling of a workbench.

Scheduling is CPU-bound pure Python, so the only way to use more than one
core is more than one process.  This module fans the loops of one
:func:`~repro.eval.experiments.schedule_suite` call out over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* the workbench is split into contiguous chunks of loops (one pickled
  task per chunk, amortizing the per-task round-trip over several loops);
* each worker rebuilds the scheduling engine from the (cheap, picklable)
  configuration objects and schedules its chunk exactly the way the
  serial path does -- both paths share
  :func:`repro.eval.experiments._schedule_one`, so results are identical
  by construction;
* chunks come back tagged with their original positions, so callers can
  slot runs into workbench order no matter which worker finished first.

The primitive is :func:`iter_schedule_loops`, an ``as_completed``-style
generator that yields each ``(position, run)`` pair the moment its chunk
finishes -- this is what :meth:`repro.session.Session.evaluate_stream`
streams to callers.  The barrier path (:func:`schedule_loops_parallel`)
is just the stream collected and sorted, so both paths are identical by
construction.

``jobs=1`` without an injected executor stays serial and in-process;
``jobs=0`` (or ``None``) means "one worker per CPU".  A long-lived
:class:`~repro.session.Session` passes its own ``executor`` so repeated
calls reuse warm worker processes instead of paying pool start-up per
call.  Results are deterministic: the only per-run variation is the
``scheduling_time_s`` wall-clock counter carried by each result.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.ddg.loop import Loop
from repro.eval.metrics import LoopRun
from repro.machine.config import MachineConfig, RFConfig
from repro.simulator.prefetch import PrefetchPolicy

__all__ = [
    "resolve_jobs",
    "chunk_indices",
    "iter_schedule_loops",
    "schedule_loops_parallel",
]

#: Chunks submitted per worker: >1 so a worker that drew cheap loops can
#: pick up more work, small enough to keep per-chunk pickling negligible.
_CHUNKS_PER_WORKER: int = 4


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request to a concrete worker count.

    ``None`` or ``0`` mean "use every CPU"; negative values are rejected.
    """
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def chunk_indices(n_items: int, n_chunks: int) -> List[range]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous ranges.

    Sizes differ by at most one, and order is preserved (chunk *k* holds
    smaller indices than chunk *k+1*), which is what keeps parallel
    results in workbench order.
    """
    n_chunks = max(1, min(n_chunks, n_items))
    base, extra = divmod(n_items, n_chunks)
    ranges: List[range] = []
    start = 0
    for chunk in range(n_chunks):
        size = base + (1 if chunk < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def _schedule_chunk(
    payload: Tuple[
        List[Tuple[int, Loop]],
        RFConfig,
        MachineConfig,
        bool,
        float,
        object,  # policy-bundle name or a picklable PolicyBundle
        Optional[PrefetchPolicy],
    ],
) -> List[Tuple[int, LoopRun]]:
    """Worker entry point: schedule one chunk of (position, loop) pairs."""
    # Imported here (not at module top) so the import happens inside the
    # worker as well, keeping this module importable before repro.eval is.
    from repro.eval.experiments import _build_engine, _schedule_one

    (chunk, rf_config, base, scale_to_clock, budget_ratio, scheduler,
     prefetch) = payload
    engine, scaled, spec = _build_engine(
        rf_config, base, scale_to_clock, budget_ratio, scheduler
    )
    return [
        (position, _schedule_one(loop, engine, scaled, spec, prefetch))
        for position, loop in chunk
    ]


def iter_schedule_loops(
    tasks: Sequence[Tuple[int, Loop]],
    rf_config: RFConfig,
    machine: MachineConfig,
    *,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler="mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
    jobs: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> Iterator[Tuple[int, LoopRun]]:
    """Yield ``(position, run)`` pairs the moment each chunk completes.

    The incremental primitive under both evaluation paths: results arrive
    in *completion* order (a worker that drew cheap loops reports before
    one grinding through an expensive chunk), and positions let callers
    re-establish workbench order if they want it -- that is all
    :func:`schedule_loops_parallel` does.

    ``executor`` injects a live pool (a session's warm worker processes,
    or a thread pool in tests); without one, ``jobs`` workers are spawned
    for this call and torn down when the stream ends.  ``jobs=1`` with no
    executor schedules serially in-process, still yielding each run as it
    is produced.  Abandoning the stream cancels chunks not yet started.
    """
    n_workers = resolve_jobs(jobs)
    tasks = list(tasks)
    if not tasks:
        return
    if executor is None and (n_workers <= 1 or len(tasks) <= 1):
        # Serial in-process path: no pool, but still incremental.
        from repro.eval.experiments import _build_engine, _schedule_one

        engine, scaled, spec = _build_engine(
            rf_config, machine, scale_to_clock, budget_ratio, scheduler
        )
        for position, loop in tasks:
            yield position, _schedule_one(loop, engine, scaled, spec, prefetch)
        return

    chunks = chunk_indices(len(tasks), n_workers * _CHUNKS_PER_WORKER)
    payloads = [
        (
            [tasks[i] for i in chunk],
            rf_config,
            machine,
            scale_to_clock,
            budget_ratio,
            scheduler,
            prefetch,
        )
        for chunk in chunks
    ]
    owns_pool = executor is None
    pool = executor if executor is not None else ProcessPoolExecutor(max_workers=n_workers)
    futures = [pool.submit(_schedule_chunk, payload) for payload in payloads]
    try:
        for future in as_completed(futures):
            yield from future.result()
    finally:
        # Reached on exhaustion, on error, and when the consumer abandons
        # the stream: chunks that have not started yet are cancelled so an
        # abandoned stream does not keep scheduling in the background.
        for future in futures:
            future.cancel()
        if owns_pool:
            pool.shutdown(wait=True)


def schedule_loops_parallel(
    tasks: Sequence[Tuple[int, Loop]],
    rf_config: RFConfig,
    machine: MachineConfig,
    *,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    scheduler="mirs_hc",
    prefetch: Optional[PrefetchPolicy] = None,
    jobs: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> List[Tuple[int, LoopRun]]:
    """Schedule ``tasks`` (position, loop) pairs over a process pool.

    The barrier view of :func:`iter_schedule_loops`: the stream is
    collected and sorted, so it returns one ``(position, run)`` pair per
    task in position order.  Positions are opaque to this function --
    callers use them to slot results back into the full workbench (cache
    hits occupy the holes).
    """
    results = list(
        iter_schedule_loops(
            tasks,
            rf_config,
            machine,
            scale_to_clock=scale_to_clock,
            budget_ratio=budget_ratio,
            scheduler=scheduler,
            prefetch=prefetch,
            jobs=jobs,
            executor=executor,
        )
    )
    results.sort(key=lambda pair: pair[0])
    return results
