"""Selective binding prefetching.

MIRS_HC hides memory latency by *binding prefetching*: load instructions
are scheduled assuming the cache-miss latency, so by the time the
consumer issues the data has (usually) arrived, at the cost of a longer
lifetime for the loaded value -- pressure that the hierarchical shared
bank is designed to absorb.

The paper uses the *selective* flavour: loads that belong to recurrences
and spill loads are scheduled with the hit latency (scheduling them with
the miss latency would inflate the RecMII), and loops with small trip
counts keep hit latency everywhere to avoid paying long prologues and
epilogues.  This module implements exactly that classification; the
chosen per-load latency is applied to the dependence graph through the
per-node latency override honoured by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.ddg.analysis import recurrence_components
from repro.ddg.graph import DepGraph
from repro.ddg.loop import Loop
from repro.ddg.operations import OpType

__all__ = ["PrefetchPolicy", "classify_loads", "apply_binding_prefetch"]


@dataclass(frozen=True)
class PrefetchPolicy:
    """Parameters of the selective binding-prefetching decision."""

    #: Loops executing fewer iterations than this keep hit latency for all
    #: loads (long prologues/epilogues would not be amortized).
    min_trip_count: int = 32
    #: Whether prefetching is enabled at all (the ideal-memory scenario and
    #: the no-prefetch ablation disable it).
    enabled: bool = True


def classify_loads(loop: Loop, policy: PrefetchPolicy = PrefetchPolicy()) -> Set[int]:
    """Node ids of the loads that should be scheduled with miss latency."""
    if not policy.enabled:
        return set()
    if loop.trip_count < policy.min_trip_count:
        return set()
    graph = loop.graph
    in_recurrence: Set[int] = set()
    for component in recurrence_components(graph):
        in_recurrence.update(component)
    prefetched: Set[int] = set()
    for op in graph.memory_operations():
        if op.op is not OpType.LOAD:
            continue
        if op.is_spill:
            continue
        if op.node_id in in_recurrence:
            continue
        prefetched.add(op.node_id)
    return prefetched


def apply_binding_prefetch(
    graph: DepGraph, prefetched: Set[int], miss_latency: int
) -> None:
    """Mark the selected loads so the scheduler uses the miss latency for them."""
    for node_id in prefetched:
        if node_id in graph:
            graph.set_latency_override(node_id, miss_latency)
