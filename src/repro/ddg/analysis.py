"""Dependence-graph analysis: recurrences, MII bounds and priorities.

Modulo scheduling starts from the *minimum initiation interval* (MII),
the larger of two lower bounds:

* **ResMII** -- the initiation interval below which some resource class
  (functional units, memory ports, inter-bank communication bandwidth)
  would be oversubscribed.
* **RecMII** -- the initiation interval below which some recurrence
  (cycle of dependences spanning one or more iterations) could not close:
  for every cycle ``c`` the II must satisfy
  ``II * distance(c) >= latency(c)``.

This module computes both, plus the node priority metrics (heights and
depths over the acyclic component of the graph) used by the scheduler's
ordering phase, and the classification of which bound limits each loop
(the paper's Table 1 breakdown into FU-, memory-, recurrence- and
communication-bound loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ddg.graph import DepGraph
from repro.machine.resources import ResourceModel

__all__ = [
    "strongly_connected_components",
    "recurrence_components",
    "rec_mii",
    "min_cycle_ii",
    "res_mii_components",
    "compute_mii",
    "MIIBreakdown",
    "heights",
    "depths",
    "heights_and_depths",
    "critical_path_length",
]

LatencyFn = Callable[[str], int]


# --------------------------------------------------------------------------- #
# Recurrences
# --------------------------------------------------------------------------- #
def strongly_connected_components(graph: DepGraph) -> List[List[int]]:
    """Strongly connected components of the graph (Tarjan, iterative).

    See :meth:`repro.ddg.graph.DepGraph.strongly_connected_components`.
    """
    return graph.strongly_connected_components()


def recurrence_components(graph: DepGraph) -> List[List[int]]:
    """SCCs that actually contain a cycle (recurrences of the loop).

    Memoized on the graph (:meth:`repro.ddg.graph.DepGraph.recurrence_components`):
    one Tarjan pass serves RecMII, the ordering and every unchanged copy.
    """
    return graph.recurrence_components()


# --------------------------------------------------------------------------- #
# RecMII
# --------------------------------------------------------------------------- #
#: A weighted edge of one recurrence: ``(src, dst, latency, distance)``.
CycleEdge = Tuple[int, int, int, int]


def _has_positive_cycle(nodes: Sequence[int], edges: Sequence[CycleEdge], ii: int) -> bool:
    """True if some cycle over ``edges`` has positive weight at the given II.

    Edge weight is ``latency - II * distance``; a positive-weight cycle
    means the II is too small for that recurrence.  Detection is
    Bellman-Ford-style longest-path relaxation: without a positive cycle
    it settles within ``len(nodes) - 1`` rounds in any edge order.
    """
    dist = dict.fromkeys(nodes, 0)
    for _round in range(len(nodes)):
        changed = False
        for src, dst, latency, distance in edges:
            reach = dist[src] + latency - ii * distance
            if reach > dist[dst]:
                dist[dst] = reach
                changed = True
        if not changed:
            return False
    return True


def min_cycle_ii(nodes: Sequence[int], edges: Sequence[CycleEdge], lo: int, hi: int) -> int:
    """Smallest II in ``[lo, hi]`` with no positive cycle over ``edges``.

    ``hi`` is returned when every smaller II has one.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_positive_cycle(nodes, edges, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def rec_mii(graph: DepGraph, latency_of: LatencyFn) -> int:
    """Recurrence-constrained lower bound on the initiation interval."""
    recurrences = recurrence_components(graph)
    if not recurrences:
        return 1
    # Upper bound: the sum of all latencies certainly satisfies every cycle.
    upper = 1
    for op in graph.nodes():
        if not op.op.is_pseudo:
            upper += latency_of(op.op.mnemonic)
    best = 1
    for component in recurrences:
        members = set(component)
        edges = [
            (edge.src, edge.dst, graph.edge_latency(edge, latency_of), edge.distance)
            for node in component
            for edge in graph.iter_out_edges(node)
            if edge.dst in members
        ]
        best = min_cycle_ii(component, edges, best, upper)
    return best


# --------------------------------------------------------------------------- #
# ResMII and the combined MII
# --------------------------------------------------------------------------- #
def res_mii_components(
    graph: DepGraph, resources: ResourceModel, latency_of: LatencyFn
) -> Dict[str, int]:
    """Per-resource-class lower bounds on the II (``fu``, ``mem``, ``com``)."""
    counts = graph.count_ops()
    extra_unpipelined = 0
    for op in graph.compute_operations():
        occupancy = resources.machine.occupancy(op.op.mnemonic)
        extra_unpipelined += occupancy - 1
    return resources.res_mii_components(
        n_compute=counts["compute"],
        n_compute_unpipelined_cycles=extra_unpipelined,
        n_memory=counts["memory"],
        n_comm=counts["comm"],
    )


@dataclass(frozen=True)
class MIIBreakdown:
    """The MII and its components, with the binding constraint identified."""

    res_fu: int
    res_mem: int
    res_com: int
    rec: int
    mii: int

    @property
    def bound(self) -> str:
        """Which constraint determines the MII.

        Ties are resolved in favour of the scarcer resource: memory ports
        first (the baseline machine has half as many memory ports as
        functional units, so a tied loop saturates the memory ports at a
        higher utilization), then functional units, recurrences and
        communication bandwidth.
        """
        candidates = [
            ("mem", self.res_mem),
            ("fu", self.res_fu),
            ("rec", self.rec),
            ("com", self.res_com),
        ]
        best_name, best_value = "fu", -1
        for name, value in candidates:
            if value > best_value:
                best_name, best_value = name, value
        return best_name


def compute_mii(
    graph: DepGraph, resources: ResourceModel, latency_of: LatencyFn
) -> MIIBreakdown:
    """Compute the MII of a dependence graph for the given machine."""
    res = res_mii_components(graph, resources, latency_of)
    rec = rec_mii(graph, latency_of)
    mii = max(1, res["fu"], res["mem"], res["com"], rec)
    return MIIBreakdown(
        res_fu=res["fu"],
        res_mem=res["mem"],
        res_com=res["com"],
        rec=rec,
        mii=mii,
    )


# --------------------------------------------------------------------------- #
# Priority metrics
# --------------------------------------------------------------------------- #
def _acyclic_edges(graph: DepGraph) -> List:
    """Edges with zero iteration distance (the acyclic skeleton)."""
    return [edge for edge in graph.edges() if edge.distance == 0]


def _topological_order(graph: DepGraph) -> List[int]:
    """Topological order of the zero-distance skeleton (Kahn's algorithm)."""
    indegree = {n: 0 for n in graph.node_ids()}
    for edge in _acyclic_edges(graph):
        indegree[edge.dst] += 1
    ready = [n for n, deg in indegree.items() if deg == 0]
    order: List[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for edge in graph.iter_out_edges(node):
            if edge.distance != 0:
                continue
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                ready.append(edge.dst)
    if len(order) != len(graph):
        raise ValueError(
            "dependence graph has a zero-distance cycle; loop-carried "
            "dependences must have distance >= 1"
        )
    return order


def heights_and_depths(
    graph: DepGraph, latency_of: LatencyFn
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Heights and depths of every node from one topological walk.

    The height is the longest latency-weighted path from a node to any
    sink, the depth the longest path from any source to it, both over the
    zero-distance skeleton.  Every ordering policy of the scheduler reads
    both, so the skeleton is walked and weighted once for the pair.
    """
    order = _topological_order(graph)
    height: Dict[int, int] = {n: 0 for n in graph.node_ids()}
    depth: Dict[int, int] = dict(height)
    skeleton: List[List[Tuple[int, int]]] = []
    for node in order:
        out = [
            (edge.dst, graph.edge_latency(edge, latency_of))
            for edge in graph.iter_out_edges(node)
            if edge.distance == 0
        ]
        skeleton.append(out)
        start = depth[node]
        for dst, latency in out:
            if start + latency > depth[dst]:
                depth[dst] = start + latency
    for node, out in zip(reversed(order), reversed(skeleton)):
        height[node] = max((latency + height[dst] for dst, latency in out), default=0)
    return height, depth


def heights(graph: DepGraph, latency_of: LatencyFn) -> Dict[int, int]:
    """Longest latency-weighted path from each node to any sink.

    Computed over the zero-distance skeleton; used as the primary priority
    of the scheduler's ordering phase (critical operations first).
    """
    return heights_and_depths(graph, latency_of)[0]


def depths(graph: DepGraph, latency_of: LatencyFn) -> Dict[int, int]:
    """Longest latency-weighted path from any source to each node."""
    return heights_and_depths(graph, latency_of)[1]


def critical_path_length(graph: DepGraph, latency_of: LatencyFn) -> int:
    """Length of the longest latency-weighted zero-distance path."""
    if len(graph) == 0:
        return 0
    all_heights = heights(graph, latency_of)
    return max(all_heights.values(), default=0)
