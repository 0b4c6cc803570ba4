"""Execution of a modulo-scheduled loop against the memory hierarchy.

The paper breaks the real-memory results (Figure 6) into *useful* cycles
(the cycles the schedule itself accounts for) and *stall* cycles (cycles
the processor is blocked waiting for a cache miss that binding
prefetching could not hide).  This module computes both for one scheduled
loop:

* useful cycles follow the paper's formula
  ``II * (N + (SC - 1) * E)``;
* stall cycles come from replaying the schedule's memory accesses (with
  their synthetic per-loop address streams) against the lockup-free cache
  for a sample of iterations and extrapolating to the full trip count.

The stall model is in-order stall-on-use: when the earliest consumer of a
load issues before the miss completes, the whole (statically scheduled)
processor blocks for the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ddg.loop import Loop
from repro.ddg.operations import OpType
from repro.core.result import ScheduleResult
from repro.simulator.cache import CacheConfig, LockupFreeCache
from repro.workloads.traces import AddressStream, loop_address_streams

__all__ = ["LoopExecutionStats", "simulate_loop_execution"]


@dataclass(frozen=True)
class LoopExecutionStats:
    """Cycle breakdown of one loop's execution on one configuration."""

    loop_name: str
    config_name: str
    useful_cycles: float
    stall_cycles: float
    n_misses: int
    n_hits: int
    simulated_iterations: int

    @property
    def total_cycles(self) -> float:
        return self.useful_cycles + self.stall_cycles

    @property
    def miss_ratio(self) -> float:
        total = self.n_hits + self.n_misses
        return self.n_misses / total if total else 0.0


def _memory_schedule(
    result: ScheduleResult,
) -> List[Tuple[int, OpType, int, Optional[int]]]:
    """Per-iteration memory issue plan: (issue cycle, kind, node, earliest consumer cycle+distance*II)."""
    graph = result.graph
    assert graph is not None
    assignments = result.assignments
    plan: List[Tuple[int, OpType, int, Optional[int]]] = []
    for op in graph.memory_operations():
        placed = assignments.get(op.node_id)
        if placed is None:
            continue
        consumer_time: Optional[int] = None
        if op.op is OpType.LOAD:
            for dst, edge in graph.flow_consumers(op.node_id):
                dst_placed = assignments.get(dst)
                if dst_placed is None:
                    continue
                t = dst_placed.cycle + edge.distance * result.ii
                consumer_time = t if consumer_time is None else min(consumer_time, t)
        plan.append((placed.cycle, op.op, op.node_id, consumer_time))
    plan.sort(key=lambda item: item[0])
    return plan


def simulate_loop_execution(
    loop: Loop,
    result: ScheduleResult,
    cache_config: CacheConfig,
    *,
    max_simulated_iterations: int = 256,
) -> LoopExecutionStats:
    """Useful and stall cycles of the loop under the real memory system."""
    ii = result.ii
    n_total = loop.total_iterations
    useful = float(ii) * (n_total + (result.stage_count - 1) * loop.times_entered)

    if result.graph is None or not result.success:
        return LoopExecutionStats(
            loop_name=loop.name,
            config_name=result.config_name,
            useful_cycles=useful,
            stall_cycles=0.0,
            n_misses=0,
            n_hits=0,
            simulated_iterations=0,
        )

    streams: Dict[int, AddressStream] = {
        stream.node_id: stream
        for stream in loop_address_streams(
            # Address streams are defined on the *final* graph so spill
            # accesses are included.
            type(loop)(name=loop.name, graph=result.graph, trip_count=loop.trip_count,
                       times_entered=loop.times_entered)
        )
    }
    plan = _memory_schedule(result)
    if not plan:
        return LoopExecutionStats(
            loop_name=loop.name,
            config_name=result.config_name,
            useful_cycles=useful,
            stall_cycles=0.0,
            n_misses=0,
            n_hits=0,
            simulated_iterations=0,
        )

    cache = LockupFreeCache(cache_config)
    sim_iters = min(loop.trip_count, max_simulated_iterations)
    stall = 0.0
    for iteration in range(sim_iters):
        base = iteration * ii + stall
        for cycle, kind, node_id, consumer_time in plan:
            stream = streams.get(node_id)
            if stream is None:
                continue
            address = stream.address(iteration)
            issue = base + cycle
            if kind is OpType.STORE:
                cache.access(address, int(issue), is_write=True)
                continue
            access = cache.access(address, int(issue))
            if consumer_time is None:
                continue
            consumer_issue = iteration * ii + consumer_time + stall
            if access.ready_cycle > consumer_issue:
                stall += access.ready_cycle - consumer_issue

    # Extrapolate the sampled stalls to the full iteration count (each loop
    # entry restarts the pipeline but reuses the same streams, so the
    # per-iteration stall rate is representative).
    per_iteration_stall = stall / sim_iters if sim_iters else 0.0
    total_stall = per_iteration_stall * n_total

    return LoopExecutionStats(
        loop_name=loop.name,
        config_name=result.config_name,
        useful_cycles=useful,
        stall_cycles=total_stall,
        n_misses=cache.n_misses,
        n_hits=cache.n_hits,
        simulated_iterations=sim_iters,
    )
