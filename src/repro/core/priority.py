"""HRMS-inspired node ordering for the modulo scheduler.

MIRS_HC pre-orders the nodes of the dependence graph with the node
ordering strategy of HRMS (Hypernode Reduction Modulo Scheduling, Llosa
et al., MICRO-28).  The goals of that ordering are:

1. operations on the most constraining recurrences are scheduled first
   (their slack is smallest), and
2. every operation (after the first) is scheduled while having at least
   one already-ordered predecessor or successor, so that its scheduling
   window is bounded on at least one side and lifetimes stay short.

This module implements an ordering with the same two properties: the
strongly connected components (recurrences) are ordered by decreasing
criticality (their RecMII), and the remaining nodes are appended by a
neighbour-first expansion that always prefers a node adjacent to the
already-ordered set, breaking ties by critical-path height.  Ejected
nodes re-enter the ready list with their original priority, exactly as in
the paper.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Sequence, Set

from repro.ddg.analysis import heights_and_depths, min_cycle_ii, recurrence_components
from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType

__all__ = [
    "order_nodes",
    "order_nodes_by_height",
    "order_nodes_asap",
    "PriorityList",
]

LatencyFn = Callable[[str], int]


def _component_rec_mii(graph: DepGraph, component: Sequence[int], latency_of: LatencyFn) -> int:
    """RecMII of a single strongly connected component, taken on its own.

    The component is searched as if it were the whole loop: over
    ``[1, 1 + sum of its members' latencies]``, with every producer at
    its machine latency (``latency_override`` is ignored here).
    """
    members = set(component)
    edges = []
    upper = 1
    for node_id in component:
        op = graph.node(node_id).op
        latency = 0 if op.is_pseudo else latency_of(op.mnemonic)
        upper += latency
        for edge in graph.iter_out_edges(node_id):
            if edge.dst not in members:
                continue
            if edge.kind == "flow":
                weight = latency
            elif edge.kind == "mem":
                weight = 1
            else:
                weight = 0
            edges.append((node_id, edge.dst, weight, edge.distance))
    return min_cycle_ii(component, edges, 1, upper)


def order_nodes(graph: DepGraph, latency_of: LatencyFn) -> List[int]:
    """Scheduling order (most critical first) of the schedulable nodes.

    Live-in pseudo nodes are excluded: they consume no resources and are
    implicitly available from cycle 0.  Cost: O((n + e) log n) plus one
    RecMII search per recurrence.
    """
    schedulable = _schedulable(graph)
    if not schedulable:
        return []
    schedulable_set = set(schedulable)

    height, depth = heights_and_depths(graph, latency_of)

    # 1. Recurrences first, most critical recurrence first.
    ordered: List[int] = []
    placed: Set[int] = set()
    components = [
        c for c in recurrence_components(graph) if not schedulable_set.isdisjoint(c)
    ]
    scored = sorted(
        components,
        key=lambda c: (-_component_rec_mii(graph, c, latency_of), -max(height[n] for n in c)),
    )
    for component in scored:
        members = sorted(
            (n for n in component if n in schedulable_set and n not in placed),
            key=lambda n: (depth[n], -height[n]),
        )
        ordered.extend(members)
        placed.update(members)

    # 2. Remaining nodes: neighbour-first expansion from the ordered set,
    # picking the least key (-adjacent, -height, depth, n).  Adjacency to
    # the ordered set only ever turns on, and an adjacent key sorts before
    # every non-adjacent one, so a lazy heap picks what a full re-sort
    # would: a node that becomes adjacent is pushed again with its new
    # key, and entries of nodes already ordered are skipped.
    adjacent: Set[int] = set()

    def mark_neighbours(node: int) -> List[int]:
        fresh = []
        for m in graph.successors(node) + graph.predecessors(node):
            if m in schedulable_set and m not in placed and m not in adjacent:
                adjacent.add(m)
                fresh.append(m)
        return fresh

    for node in placed:
        mark_neighbours(node)
    heap = [
        (-1 if n in adjacent else 0, -height[n], depth[n], n)
        for n in schedulable
        if n not in placed
    ]
    heapq.heapify(heap)
    while heap:
        chosen = heapq.heappop(heap)[3]
        if chosen in placed:
            continue
        ordered.append(chosen)
        placed.add(chosen)
        for m in mark_neighbours(chosen):
            heapq.heappush(heap, (-1, -height[m], depth[m], m))

    return ordered


def _schedulable(graph: DepGraph) -> List[int]:
    return [n.node_id for n in graph.nodes() if n.op is not OpType.LIVE_IN]


def order_nodes_by_height(graph: DepGraph, latency_of: LatencyFn) -> List[int]:
    """Alternative ordering policy: critical-path height, highest first.

    A classic list-scheduling order.  Unlike the HRMS-style order it
    ignores recurrence membership and adjacency to the already-ordered
    set, so lifetimes can be longer -- which is exactly what the policy
    ablation wants to measure.
    """
    schedulable = _schedulable(graph)
    if not schedulable:
        return []
    height, depth = heights_and_depths(graph, latency_of)
    return sorted(schedulable, key=lambda n: (-height[n], depth[n], n))


def order_nodes_asap(graph: DepGraph, latency_of: LatencyFn) -> List[int]:
    """Alternative ordering policy: ASAP (smallest depth first).

    Schedules producers strictly before their consumers, top of the graph
    first; ties broken by height so critical chains stay early.
    """
    schedulable = _schedulable(graph)
    if not schedulable:
        return []
    height, depth = heights_and_depths(graph, latency_of)
    return sorted(schedulable, key=lambda n: (depth[n], -height[n], n))


class PriorityList:
    """The scheduler's ready list.

    Nodes carry a fixed priority assigned once from the HRMS-like order;
    ejected nodes are re-inserted with their *original* priority (the
    paper's behaviour), and nodes inserted later (spill and communication
    code that the scheduler decides to defer) receive a priority just
    after the node they were inserted for.
    """

    def __init__(self, initial_order: Sequence[int]) -> None:
        self._priority: Dict[int, float] = {
            node: float(index) for index, node in enumerate(initial_order)
        }
        self._heap: List[tuple] = []
        self._present: Set[int] = set()
        for node in initial_order:
            self.push(node)

    def __len__(self) -> int:
        return len(self._present)

    def __bool__(self) -> bool:
        return bool(self._present)

    def __contains__(self, node: int) -> bool:
        return node in self._present

    def priority_of(self, node: int) -> float:
        return self._priority[node]

    def push(self, node: int, *, after: int | None = None) -> None:
        """(Re-)insert a node.

        ``after`` assigns a priority immediately after an existing node
        (used for spill code inserted on behalf of that node); otherwise
        the node must already have a priority (original order or a prior
        ``after`` insertion).
        """
        if node in self._present:
            return
        if node not in self._priority:
            if after is not None and after in self._priority:
                self._priority[node] = self._priority[after] + 0.5
            else:
                self._priority[node] = float(len(self._priority))
        heapq.heappush(self._heap, (self._priority[node], node))
        self._present.add(node)

    def pop(self) -> int:
        """Remove and return the highest-priority (lowest rank) node."""
        while self._heap:
            _, node = heapq.heappop(self._heap)
            if node in self._present:
                self._present.discard(node)
                return node
        raise IndexError("pop from an empty priority list")

    def discard(self, node: int) -> None:
        """Remove a node if present (used when a pending node is deleted)."""
        self._present.discard(node)
