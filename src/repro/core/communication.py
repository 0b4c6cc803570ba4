"""Insertion and removal of inter-bank communication operations.

Whenever the scheduler places an operation in a cluster whose register
bank does not hold one of its (already-scheduled) operands -- or does not
hold the bank one of its already-scheduled consumers reads from -- a
communication chain has to be threaded through the dependence graph:

* pure clustered register files move values with a single ``Move``
  operation over the inter-cluster bus;
* hierarchical register files move values through the shared bank with a
  ``StoreR`` (cluster -> shared) and/or a ``LoadR`` (shared -> cluster).

The functions in this module mutate the dependence graph (inserting the
chain and re-routing the original dependence through it) and return the
newly created nodes so the driver can schedule them immediately -- the
paper schedules the new ``LoadR``/``StoreR`` operations *before* the
operation that triggered them, to keep lifetimes short.

The inverse operation, :func:`cleanup_after_eject`, removes the
communication chains that hang off an ejected operation and restores the
original dependences, mirroring the paper's removal of "useless LoadR and
StoreR nodes" when a scheduling decision is undone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.machine.config import RFConfig, RFKind
from repro.core.banks import SHARED, read_bank, value_bank
from repro.core.partial import PartialSchedule

__all__ = ["plan_communication", "cleanup_after_eject", "count_communication_ops"]


def _chain_kinds(
    rf: RFConfig, src_bank: int, dst_bank: int
) -> List[Tuple[OpType, int]]:
    """The (operation, home cluster) chain that moves a value between banks."""
    if rf.kind is RFKind.CLUSTERED:
        # Bus-based inter-cluster move; the home cluster is the destination.
        return [(OpType.MOVE, dst_bank)]
    # Hierarchical organizations.
    chain: List[Tuple[OpType, int]] = []
    if src_bank != SHARED:
        chain.append((OpType.STORER, src_bank))
    if dst_bank != SHARED:
        chain.append((OpType.LOADR, dst_bank))
    return chain


def _insert_chain(
    graph: DepGraph,
    src: int,
    dst: int,
    distance: int,
    kinds: Sequence[Tuple[OpType, int]],
    owner: int,
    cache: Dict[Tuple[int, int, OpType, int], int],
) -> List[int]:
    """Thread a communication chain between ``src`` and ``dst``.

    ``cache`` allows chains created within one planning call to share their
    prefix (the paper inserts a single ``StoreR`` even when several
    consumers in other clusters need the same value).  Returns the node ids
    created by this call, in dependence order.
    """
    if graph.has_edge(src, dst):
        graph.remove_edge(src, dst)
    new_nodes: List[int] = []
    prev = src
    prev_distance = distance
    for op, home in kinds:
        key = (prev, prev_distance, op, home)
        existing = cache.get(key)
        if existing is not None:
            prev = existing
            prev_distance = 0
            continue
        node = graph.add_node(
            op,
            name=f"{op.mnemonic}_for_{owner}",
            is_inserted=True,
            inserted_for=owner,
            home_cluster=home,
        )
        graph.add_edge(prev, node, distance=prev_distance)
        cache[key] = node
        new_nodes.append(node)
        prev = node
        prev_distance = 0
    graph.add_edge(prev, dst, distance=prev_distance)
    return new_nodes


def plan_communication(
    graph: DepGraph,
    schedule: PartialSchedule,
    node_id: int,
    cluster: Optional[int],
    rf: RFConfig,
) -> Tuple[List[int], List[int]]:
    """Insert the communication needed to place ``node_id`` on ``cluster``.

    Examines every *already scheduled* flow neighbour of the node and, for
    each register-bank mismatch, either inserts a communication chain or
    ejects a previously inserted communication node that the new placement
    makes inconsistent (it is returned for re-queueing).

    Returns ``(new_nodes, requeue)``: the communication nodes created (in
    the order they should be scheduled, i.e. before ``node_id``) and the
    previously scheduled nodes that were ejected and must go back to the
    priority list.
    """
    if rf.kind is RFKind.MONOLITHIC:
        return [], []

    new_nodes: List[int] = []
    requeue: List[int] = []
    cache: Dict[Tuple[int, int, OpType, int], int] = {}

    my_read_bank = read_bank(graph, node_id, cluster, rf)
    my_value_bank = value_bank(graph, node_id, cluster, rf)

    # ------------------------------------------------------------------ #
    # Operands produced in the wrong bank.
    # ------------------------------------------------------------------ #
    if my_read_bank is not None:
        for src, edge in list(graph.flow_producers(node_id)):
            if not schedule.is_scheduled(src):
                continue
            src_bank = value_bank(graph, src, schedule.clusters.get(src), rf)
            if src_bank is None or src_bank == my_read_bank:
                continue
            src_node = graph.node(src)
            distance = edge.distance
            source = src
            # Optimization: when the mis-placed producer is itself a LoadR,
            # re-load the value from its shared-bank producer instead of
            # bouncing it through the shared bank again.
            if (
                rf.is_hierarchical
                and src_node.op is OpType.LOADR
                and my_read_bank != SHARED
            ):
                producers = graph.flow_producers(src)
                if producers:
                    upstream, up_edge = producers[0]
                    source = upstream
                    distance = edge.distance + up_edge.distance
                    src_bank = SHARED
            kinds = _chain_kinds(rf, src_bank, my_read_bank)
            if source != src and graph.has_edge(src, node_id):
                graph.remove_edge(src, node_id)
            new_nodes.extend(
                _insert_chain(graph, source, node_id, distance, kinds, node_id, cache)
            )

    # ------------------------------------------------------------------ #
    # Already-scheduled consumers reading from the wrong bank.
    # ------------------------------------------------------------------ #
    if my_value_bank is not None:
        for dst, edge in list(graph.flow_consumers(node_id)):
            if not schedule.is_scheduled(dst):
                continue
            dst_node = graph.node(dst)
            if dst_node.is_inserted and dst_node.op is OpType.MOVE:
                # The Move reserved its source port for the bank this
                # producer lived in when the Move was scheduled; placing
                # the producer on another cluster leaves that reservation
                # stale even when the Move's destination bank (checked
                # below) still matches.  Compare against the reservation
                # the Move will need once this producer lands in
                # ``my_value_bank`` and eject it on any mismatch so it
                # re-schedules against the new source.  (The engine's
                # stale-reservation sweep catches the cases where the
                # Move's source changes without a placement event, e.g.
                # through chain re-routing.)
                move_src = 0 if my_value_bank == SHARED else my_value_bank
                needed = schedule.resources.move_uses(
                    move_src, schedule.clusters[dst]
                )
                if not schedule.reservation_matches(dst, needed):
                    schedule.remove(dst)
                    requeue.append(dst)
                    continue
            dst_bank = read_bank(graph, dst, schedule.clusters.get(dst), rf)
            if dst_bank is None or dst_bank == my_value_bank:
                continue
            if dst_node.is_inserted and dst_node.op.is_communication:
                # A previously inserted communication node no longer matches
                # the producer's bank: eject it and let it be re-scheduled
                # (with an updated home cluster for StoreR, whose source
                # bank is dictated by this producer).
                if dst_node.op is OpType.STORER and my_value_bank != SHARED:
                    graph.set_home_cluster(dst, my_value_bank)
                schedule.remove(dst)
                requeue.append(dst)
                continue
            kinds = _chain_kinds(rf, my_value_bank, dst_bank)
            new_nodes.extend(
                _insert_chain(graph, node_id, dst, edge.distance, kinds, node_id, cache)
            )

    return new_nodes, requeue


# --------------------------------------------------------------------------- #
# Cleanup when a node is ejected
# --------------------------------------------------------------------------- #
def _is_removable_comm(graph: DepGraph, node_id: int) -> bool:
    node = graph.node(node_id)
    return node.is_inserted and node.op.is_communication and not node.is_spill


def cleanup_after_eject(
    graph: DepGraph,
    schedule: PartialSchedule,
    ejected: int,
) -> List[int]:
    """Remove communication chains hanging off an ejected operation.

    Producer-side chains that fed only the ejected node, and consumer-side
    chains that drained its value to other operations, are deleted from the
    graph and the original dependences are restored (with the summed
    iteration distance).  Communication nodes that still serve other
    operations are kept.  Returns the ids of the deleted nodes so the
    caller can drop them from the priority list.
    """
    if ejected not in graph:
        return []
    removed: List[int] = []

    # ---- producer side: chains ending at `ejected` --------------------- #
    for src, edge in list(graph.flow_producers(ejected)):
        if src not in graph or not _is_removable_comm(graph, src):
            continue
        total_distance = edge.distance
        top: Optional[int] = src
        to_delete: List[int] = []
        while top is not None and _is_removable_comm(graph, top):
            others = [
                consumer
                for consumer, _ in graph.flow_consumers(top)
                if consumer != ejected and consumer not in to_delete
            ]
            if others:
                break
            producers = graph.flow_producers(top)
            to_delete.append(top)
            if not producers:
                top = None
                break
            upstream, up_edge = producers[0]
            total_distance += up_edge.distance
            top = upstream
        if not to_delete:
            continue
        for node_id in to_delete:
            schedule.forget(node_id)
            graph.remove_node(node_id)
            removed.append(node_id)
        if top is not None and top in graph and not graph.has_edge(top, ejected):
            graph.add_edge(top, ejected, distance=total_distance)

    # ---- consumer side: chains starting at `ejected` -------------------- #
    if ejected in graph:
        for dst, edge in list(graph.flow_consumers(ejected)):
            if dst not in graph or not _is_removable_comm(graph, dst):
                continue
            stack: List[Tuple[int, int]] = [(dst, edge.distance)]
            to_delete = []
            restores: List[Tuple[int, int]] = []
            while stack:
                current, distance = stack.pop()
                if current not in graph:
                    continue
                if not _is_removable_comm(graph, current):
                    restores.append((current, distance))
                    continue
                to_delete.append(current)
                for consumer, consumer_edge in graph.flow_consumers(current):
                    stack.append((consumer, distance + consumer_edge.distance))
            for node_id in to_delete:
                schedule.forget(node_id)
                graph.remove_node(node_id)
                removed.append(node_id)
            for consumer, distance in restores:
                if consumer in graph and not graph.has_edge(ejected, consumer):
                    graph.add_edge(ejected, consumer, distance=distance)

    return removed


def count_communication_ops(graph: DepGraph) -> int:
    """Number of Move/LoadR/StoreR operations currently in the graph."""
    return len(graph.communication_operations())
