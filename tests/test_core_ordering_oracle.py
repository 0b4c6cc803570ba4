"""Reference oracle for the scheduler's node ordering and its analyses.

The functions prefixed ``reference_`` are the straightforward forms of
what :mod:`repro.core.priority` and :mod:`repro.ddg.analysis` compute:

* ``reference_order_nodes`` re-sorts every remaining node after each
  pick (quadratic);
* ``reference_component_rec_mii`` builds the recurrence as a throwaway
  subgraph (which carries no ``latency_override``) and runs RecMII on it;
* ``reference_heights`` / ``reference_depths`` walk the graph separately;
* ``reference_rec_mii`` re-derives edge latencies at every probe.

The fast versions must agree with them exactly: the scheduling order
decides every schedule, so any difference would change results.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.priority import _component_rec_mii, order_nodes, order_nodes_asap, order_nodes_by_height
from repro.ddg import DepGraph, OpType
from repro.ddg.analysis import depths, heights, heights_and_depths, rec_mii
from repro.ddg.operations import MemRef
from repro.hwmodel import scaled_machine
from repro.machine import baseline_machine, config_by_name
from repro.workloads.generator import PROFILES, generate_loop

LatencyFn = Callable[[str], int]


# --------------------------------------------------------------------------- #
# Reference implementations
# --------------------------------------------------------------------------- #
def reference_recurrences(graph: DepGraph) -> List[List[int]]:
    """Recurrence components from a fresh Tarjan pass (no memo)."""
    return [
        c for c in graph.strongly_connected_components()
        if len(c) > 1 or graph.has_edge(c[0], c[0])
    ]


def reference_has_positive_cycle(
    graph: DepGraph, nodes: Sequence[int], ii: int, latency_of: LatencyFn
) -> bool:
    node_set = set(nodes)
    dist = {n: 0 for n in nodes}
    for _iteration in range(len(nodes)):
        changed = False
        for src in nodes:
            base = dist[src]
            for edge in graph.out_edges(src):
                if edge.dst not in node_set:
                    continue
                weight = graph.edge_latency(edge, latency_of) - ii * edge.distance
                if base + weight > dist[edge.dst]:
                    dist[edge.dst] = base + weight
                    changed = True
        if not changed:
            return False
    return True


def reference_rec_mii(graph: DepGraph, latency_of: LatencyFn) -> int:
    recurrences = reference_recurrences(graph)
    if not recurrences:
        return 1
    upper = 1
    for op in graph.nodes():
        if not op.op.is_pseudo:
            upper += latency_of(op.op.mnemonic)
    best = 1
    for component in recurrences:
        lo, hi = best, upper
        while lo < hi:
            mid = (lo + hi) // 2
            if reference_has_positive_cycle(graph, component, mid, latency_of):
                lo = mid + 1
            else:
                hi = mid
        best = max(best, lo)
    return best


def reference_component_rec_mii(
    graph: DepGraph, component: Sequence[int], latency_of: LatencyFn
) -> int:
    sub = DepGraph()
    mapping: Dict[int, int] = {}
    for node_id in component:
        node = graph.node(node_id)
        mapping[node_id] = sub.add_node(node.op, name=node.name)
    for node_id in component:
        for edge in graph.out_edges(node_id):
            if edge.dst in mapping:
                sub.add_edge(mapping[node_id], mapping[edge.dst],
                             distance=edge.distance, kind=edge.kind)
    return reference_rec_mii(sub, latency_of)


def _reference_topological_order(graph: DepGraph) -> List[int]:
    indegree = {n: 0 for n in graph.node_ids()}
    for edge in graph.edges():
        if edge.distance == 0:
            indegree[edge.dst] += 1
    ready = [n for n, deg in indegree.items() if deg == 0]
    order: List[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for edge in graph.out_edges(node):
            if edge.distance != 0:
                continue
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                ready.append(edge.dst)
    if len(order) != len(graph):
        raise ValueError("zero-distance cycle")
    return order


def reference_heights(graph: DepGraph, latency_of: LatencyFn) -> Dict[int, int]:
    order = _reference_topological_order(graph)
    height: Dict[int, int] = {n: 0 for n in graph.node_ids()}
    for node in reversed(order):
        best = 0
        for edge in graph.out_edges(node):
            if edge.distance != 0:
                continue
            best = max(best, graph.edge_latency(edge, latency_of) + height[edge.dst])
        height[node] = best
    return height


def reference_depths(graph: DepGraph, latency_of: LatencyFn) -> Dict[int, int]:
    order = _reference_topological_order(graph)
    depth: Dict[int, int] = {n: 0 for n in graph.node_ids()}
    for node in order:
        for edge in graph.out_edges(node):
            if edge.distance != 0:
                continue
            latency = graph.edge_latency(edge, latency_of)
            if depth[node] + latency > depth[edge.dst]:
                depth[edge.dst] = depth[node] + latency
    return depth


def _schedulable(graph: DepGraph) -> List[int]:
    return [n.node_id for n in graph.nodes() if n.op is not OpType.LIVE_IN]


def reference_order_nodes(graph: DepGraph, latency_of: LatencyFn) -> List[int]:
    schedulable = _schedulable(graph)
    if not schedulable:
        return []
    schedulable_set = set(schedulable)
    height = reference_heights(graph, latency_of)
    depth = reference_depths(graph, latency_of)

    ordered: List[int] = []
    placed: Set[int] = set()
    components = [c for c in reference_recurrences(graph) if set(c) & schedulable_set]
    scored = sorted(
        components,
        key=lambda c: (-reference_component_rec_mii(graph, c, latency_of),
                       -max(height[n] for n in c)),
    )
    for component in scored:
        members = sorted(
            (n for n in component if n in schedulable_set and n not in placed),
            key=lambda n: (depth[n], -height[n]),
        )
        ordered.extend(members)
        placed.update(members)

    remaining = [n for n in schedulable if n not in placed]

    def key(n: int, adjacent: bool) -> tuple:
        return (-int(adjacent), -height[n], depth[n], n)

    while remaining:
        adjacency = {
            n: any(m in placed for m in graph.successors(n) + graph.predecessors(n))
            for n in remaining
        }
        remaining.sort(key=lambda n: key(n, adjacency[n]))
        chosen = remaining.pop(0)
        ordered.append(chosen)
        placed.add(chosen)
    return ordered


def reference_order_by_height(graph: DepGraph, latency_of: LatencyFn) -> List[int]:
    height = reference_heights(graph, latency_of)
    depth = reference_depths(graph, latency_of)
    return sorted(_schedulable(graph), key=lambda n: (-height[n], depth[n], n))


def reference_order_asap(graph: DepGraph, latency_of: LatencyFn) -> List[int]:
    height = reference_heights(graph, latency_of)
    depth = reference_depths(graph, latency_of)
    return sorted(_schedulable(graph), key=lambda n: (depth[n], -height[n], n))


#: Ordering policy name -> (fast, reference).
POLICIES = {
    "hrms": (order_nodes, reference_order_nodes),
    "height": (order_nodes_by_height, reference_order_by_height),
    "asap": (order_nodes_asap, reference_order_asap),
}
CONFIGS = ("S128", "S64", "4C16S16", "8C16S16")
_LATENCIES = {}


def scaled_latency(config: str) -> LatencyFn:
    """The latency function of ``config``'s clock-scaled machine."""
    if config not in _LATENCIES:
        _LATENCIES[config] = scaled_machine(baseline_machine(), config_by_name(config))[0].latency
    return _LATENCIES[config]


def assert_matches_reference(graph: DepGraph, latency_of: LatencyFn, policy: str) -> None:
    fast, reference = POLICIES[policy]
    assert fast(graph, latency_of) == reference(graph, latency_of)
    height, depth = heights_and_depths(graph, latency_of)
    assert height == reference_heights(graph, latency_of) == heights(graph, latency_of)
    assert depth == reference_depths(graph, latency_of) == depths(graph, latency_of)
    assert rec_mii(graph, latency_of) == reference_rec_mii(graph, latency_of)
    for component in reference_recurrences(graph):
        assert (_component_rec_mii(graph, component, latency_of)
                == reference_component_rec_mii(graph, component, latency_of))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def random_loops(draw):
    """A random generated loop, with latency overrides on up to 3 nodes."""
    profile = draw(st.sampled_from(sorted(PROFILES)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    loop = generate_loop(np.random.default_rng(seed), PROFILES[profile],
                         index=0, name=f"hyp_{seed}")
    node_ids = loop.graph.node_ids()
    for position in draw(st.lists(st.integers(min_value=0, max_value=10_000), max_size=3)):
        loop.graph.node(node_ids[position % len(node_ids)]).latency_override = 25
    return loop


def recurrence_with_override() -> DepGraph:
    """A load-fed accumulator whose recurrence member carries an override.

    Honouring the override would raise the recurrence's RecMII from the
    fadd latency to 30; the ordering reads the machine latency.
    """
    graph = DepGraph()
    load = graph.add_node(OpType.LOAD, mem_ref=MemRef("x"))
    acc = graph.add_node(OpType.FADD)
    mul = graph.add_node(OpType.FMUL)
    scale = graph.add_node(OpType.FMUL)
    store = graph.add_node(OpType.STORE, mem_ref=MemRef("y"))
    graph.add_edge(load, acc)
    graph.add_edge(acc, mul)
    graph.add_edge(mul, acc, distance=1)
    graph.add_edge(load, scale)
    graph.add_edge(scale, store)
    graph.add_edge(acc, store)
    graph.node(acc).latency_override = 30
    return graph


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
class TestOrderingOracle:
    @given(random_loops(), st.sampled_from(CONFIGS), st.sampled_from(sorted(POLICIES)))
    @example(
        generate_loop(np.random.default_rng(7), PROFILES["recurrence_bound"], index=0, name="rec7"),
        "4C16S16", "hrms",
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fast_ordering_matches_reference(self, loop, config, policy):
        assert_matches_reference(loop.graph, scaled_latency(config), policy)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("config", CONFIGS)
    def test_override_on_a_recurrence_member(self, config, policy):
        graph = recurrence_with_override()
        latency_of = scaled_latency(config)
        [component] = reference_recurrences(graph)
        assert any(graph.node(n).latency_override is not None for n in component)
        # The override is real: the full-graph RecMII honours it.
        assert rec_mii(graph, latency_of) > _component_rec_mii(graph, component, latency_of)
        assert_matches_reference(graph, latency_of, policy)

    def test_workbench_loops_match_reference(self):
        from repro.workloads import build_workbench

        for loop in build_workbench("tiny"):
            for config in ("S64", "4C16S16"):
                assert_matches_reference(loop.graph, scaled_latency(config), "hrms")
