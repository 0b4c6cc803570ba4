"""The mutable partial schedule used by the iterative scheduler.

A partial schedule maps already-scheduled nodes to an (issue cycle,
cluster) pair and keeps the modulo reservation table consistent with
those placements.  It implements the three scheduling primitives of the
paper's Figure 5(b):

* computing the dependence window ``[Early_Start, Late_Start]`` of an
  operation with respect to its already-scheduled neighbours,
* finding a free slot inside that window (searching top-down or bottom-up
  depending on which side of the window is constrained, to keep value
  lifetimes short), and
* *force-and-eject*: when no free slot exists, the operation is forced
  into a cycle and every operation that conflicts with it -- on resources
  or through a violated dependence -- is ejected from the schedule.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Set

from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.resources import ResourceModel, ResourceUse, SHARED
from repro.core.arraycore import ArrayMRT, ArrayPressureTracker
from repro.core.banks import value_bank

__all__ = ["PartialSchedule", "ScheduleInfeasible"]

#: Sentinel distinguishing "caller did not supply lstart" from a supplied
#: ``None`` (which is a meaningful value: no scheduled successors).
_UNKNOWN = object()


class ScheduleInfeasible(Exception):
    """Raised when an operation cannot be placed even after ejections.

    This happens only in pathological corner cases (for example when the
    resource requirements of a communication operation change because the
    ejection of a neighbour moved its source bank); the driver treats it
    as a failed attempt at the current II and retries at II + 1.
    """


class PartialSchedule:
    """Placement state (times, clusters, reservation table) at a fixed II."""

    def __init__(
        self,
        graph: DepGraph,
        ii: int,
        machine: MachineConfig,
        rf: RFConfig,
        resources: ResourceModel,
        *,
        track_pressure: bool = False,
    ) -> None:
        self.graph = graph
        self.ii = ii
        self.machine = machine
        self.rf = rf
        self.resources = resources
        self.times: Dict[int, int] = {}
        self.clusters: Dict[int, Optional[int]] = {}
        self.mrt = ArrayMRT(ii, resources.counts)
        #: Incremental per-bank MaxLive state, kept in sync with every
        #: placement and graph edit (``None`` when pressure tracking is
        #: off -- e.g. unbounded banks, or the validator's replay probe,
        #: which writes ``times`` directly).
        self.pressure: Optional[ArrayPressureTracker] = None
        if track_pressure:
            self.pressure = ArrayPressureTracker(
                graph, ii, rf, machine.latency, self.times, self.clusters
            )
        #: Last cycle each node was (forcibly) placed at; the force rule
        #: places a node at ``max(estart, previous + 1)`` so repeated
        #: ejection cannot ping-pong between the same two cycles.
        self._last_cycle: Dict[int, int] = {}
        #: Memoized ``uses_for`` answers per (node, cluster).  Safe for
        #: every operation except ``Move`` (whose source port follows its
        #: producer's *current* cluster): an operation's type never
        #: changes, node ids are never reused, and the underlying
        #: ResourceModel lists are shared immutables anyway.
        self._uses_cache: Dict[tuple, List[ResourceUse]] = {}
        #: Incrementally maintained number of scheduled operations per
        #: (cluster, operation class) -- the balance input of
        #: Select_Cluster, which would otherwise rescan every placement
        #: once per candidate cluster on every pop.  Only maintained when
        #: there is an actual cluster choice to score.
        self._track_classes = rf.has_cluster_banks and rf.n_clusters > 1
        self._class_counts: Dict[tuple, int] = {}
        self._placed_class: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    def is_scheduled(self, node_id: int) -> bool:
        return node_id in self.times

    def n_scheduled(self) -> int:
        return len(self.times)

    def latency_of(self, mnemonic: str) -> int:
        return self.machine.latency(mnemonic)

    def uses_for(self, node_id: int, cluster: Optional[int]) -> List[ResourceUse]:
        """Resource reservations the node needs when issued on ``cluster``."""
        key = (node_id, cluster)
        uses = self._uses_cache.get(key)
        if uses is not None:
            return uses
        op = self.graph.node(node_id).op
        if op is OpType.MOVE:
            # Not memoized: the source port follows the producer's
            # current cluster, which backtracking can change.
            src_cluster = self._move_source_cluster(node_id)
            assert cluster is not None and cluster >= 0
            return self.resources.move_uses(src_cluster, cluster)
        if op is OpType.LIVE_IN:
            uses = []
        elif op.is_compute:
            assert cluster is not None and cluster >= 0
            uses = self.resources.compute_uses(op.mnemonic, cluster)
        elif op.is_memory:
            mem_cluster = cluster if cluster is not None and cluster >= 0 else 0
            uses = self.resources.memory_uses(mem_cluster)
        elif op is OpType.LOADR:
            assert cluster is not None and cluster >= 0
            uses = self.resources.loadr_uses(cluster)
        elif op is OpType.STORER:
            assert cluster is not None and cluster >= 0
            uses = self.resources.storer_uses(cluster)
        else:
            raise AssertionError(f"unhandled op type {op}")
        self._uses_cache[key] = uses
        return uses

    def _move_source_cluster(self, node_id: int) -> int:
        """Cluster the (single) producer of a Move operation lives in."""
        for src, edge in self.graph.flow_producers(node_id):
            bank = value_bank(self.graph, src, self.clusters.get(src), self.rf)
            if bank is not None and bank != SHARED:
                return bank
            if bank == SHARED:
                return 0
        return 0

    # ------------------------------------------------------------------ #
    # Dependence windows
    # ------------------------------------------------------------------ #
    def earliest_start(self, node_id: int) -> int:
        """Earliest issue cycle allowed by already-scheduled predecessors."""
        estart = 0
        times = self.times
        graph = self.graph
        for edge in graph.iter_in_edges(node_id):
            cycle = times.get(edge.src)
            if cycle is None:
                continue
            latency = graph.edge_latency(edge, self.latency_of)
            bound = cycle + latency - edge.distance * self.ii
            if bound > estart:
                estart = bound
        return estart

    def latest_start(self, node_id: int) -> Optional[int]:
        """Latest issue cycle allowed by already-scheduled successors."""
        lstart: Optional[int] = None
        times = self.times
        graph = self.graph
        for edge in graph.iter_out_edges(node_id):
            cycle = times.get(edge.dst)
            if cycle is None:
                continue
            latency = graph.edge_latency(edge, self.latency_of)
            bound = cycle - latency + edge.distance * self.ii
            if lstart is None or bound < lstart:
                lstart = bound
        return lstart

    # ------------------------------------------------------------------ #
    # Placement primitives
    # ------------------------------------------------------------------ #
    def place(
        self,
        node_id: int,
        cycle: int,
        cluster: Optional[int],
        uses: Optional[List[ResourceUse]] = None,
        *,
        assume_free: bool = False,
    ) -> None:
        """Unconditionally place a node (resources must be available).

        ``uses`` may be passed by callers that already computed the
        reservations (the force-and-eject path must reserve exactly the
        resources it checked conflicts against).  ``assume_free`` skips
        the MRT's availability re-check when the caller just proved it
        (a positive :meth:`find_slot` answer with no reservation since).
        """
        if uses is None:
            uses = self.uses_for(node_id, cluster)
        if uses:
            self.mrt.reserve(node_id, uses, cycle, assume_free=assume_free)
        self.times[node_id] = cycle
        self.clusters[node_id] = cluster
        self._last_cycle[node_id] = cycle
        if self._track_classes and cluster is not None and cluster >= 0:
            key = (cluster, self.graph.node(node_id).op.op_class)
            self._placed_class[node_id] = key
            counts = self._class_counts
            counts[key] = counts.get(key, 0) + 1
        if self.pressure is not None:
            self.pressure.on_place(node_id)

    def remove(self, node_id: int) -> None:
        """Eject a node from the schedule (graph is left untouched).

        The pressure tracker is notified *before* the placement is
        dropped: it inspects the node's (still-present) cycle to decide
        which producer lifetimes can actually shrink.
        """
        if node_id in self.times:
            self.mrt.release(node_id)
            if self.pressure is not None:
                self.pressure.on_remove(node_id)
            del self.times[node_id]
            del self.clusters[node_id]
            key = self._placed_class.pop(node_id, None)
            if key is not None:
                self._class_counts[key] -= 1

    def class_count(self, cluster: int, op_class) -> int:
        """Scheduled operations of ``op_class`` currently on ``cluster``.

        Maintained incrementally by :meth:`place`/:meth:`remove`; equals
        the count a full scan of ``clusters`` would produce.  Only
        meaningful for organizations with a real cluster choice.
        """
        return self._class_counts.get((cluster, op_class), 0)

    def forget(self, node_id: int) -> None:
        """Drop all bookkeeping for a node that was deleted from the graph."""
        self.remove(node_id)
        self._last_cycle.pop(node_id, None)

    def reservation_matches(
        self, node_id: int, uses: Sequence[ResourceUse]
    ) -> bool:
        """Whether the node's held MRT reservation equals ``uses``.

        Duration-weighted multiset comparison (one slot per occupied
        cycle, mirroring :meth:`ArrayMRT.reserve`).  A
        ``Move``'s source port follows its producer's cluster, which
        backtracking and communication-chain re-routing can change after
        placement; callers pass the uses the node *should* hold and eject
        it on a mismatch (see the stale-reservation sweep in
        :class:`repro.core.engine.SchedulerEngine` and the proactive
        check in :func:`repro.core.communication.plan_communication`).
        """
        expected: Counter = Counter()
        for use in uses:
            expected[use.key] += min(use.duration, self.ii)
        return expected == Counter(self.mrt.held_keys(node_id))

    def find_slot(
        self,
        node_id: int,
        cluster: Optional[int],
        *,
        uses: Optional[List[ResourceUse]] = None,
        estart: Optional[int] = None,
        lstart: object = _UNKNOWN,
    ) -> Optional[int]:
        """A free cycle inside the node's dependence window, or ``None``.

        The window spans at most II consecutive cycles starting at the
        earliest start.  When the node is constrained only from below
        (scheduled predecessors) the search walks upward so the result
        stays close to the producers; when it is constrained only from
        above it walks downward so it stays close to the consumers.  Both
        directions keep value lifetimes short, mirroring the
        Early_Start/Late_Start/Direction logic of the paper.

        ``uses``/``estart``/``lstart`` let callers that probe the same
        node repeatedly without placing anything in between (cluster
        selection scoring every candidate cluster) hoist the
        cluster-independent parts of the computation out of the loop.
        """
        if uses is None:
            uses = self.uses_for(node_id, cluster)
        if estart is None:
            estart = self.earliest_start(node_id)
        if lstart is _UNKNOWN:
            lstart = self.latest_start(node_id)
        window_hi = estart + self.ii - 1
        if lstart is not None:
            window_hi = min(window_hi, lstart)
        if window_hi < estart:
            return None
        has_sched_pred = any(src in self.times for src in self.graph.iter_predecessors(node_id))
        downward = (lstart is not None) and not has_sched_pred
        cycles = range(window_hi, estart - 1, -1) if downward else range(estart, window_hi + 1)
        return self.mrt.first_free_cycle(uses, cycles)

    def force_cycle(self, node_id: int) -> int:
        """Cycle at which a node with no free slot is forced into the schedule."""
        estart = self.earliest_start(node_id)
        previous = self._last_cycle.get(node_id)
        if previous is None:
            return estart
        return max(estart, previous + 1)

    def schedule(self, node_id: int, cluster: Optional[int]) -> Set[int]:
        """Schedule a node, forcing and ejecting if necessary.

        Returns the set of node ids ejected from the schedule (empty when a
        free slot was found).  The caller is responsible for returning the
        ejected nodes to the priority list and for cleaning up any
        communication code that was inserted on their behalf.
        """
        uses = self.uses_for(node_id, cluster)
        slot = self.find_slot(node_id, cluster, uses=uses)
        ejected: Set[int] = set()
        if slot is not None:
            # find_slot just proved availability and nothing was reserved
            # since, so the place can skip the MRT's re-check.
            self.place(node_id, slot, cluster, uses=uses, assume_free=True)
            return ejected

        cycle = self.force_cycle(node_id)
        # Ejecting a neighbour may change the resource needs of this node
        # (a Move's source bank follows its producer), so re-derive the
        # reservations and re-check until they can actually be granted.
        for _ in range(4):
            for conflict in self.mrt.conflicting_nodes(uses, cycle):
                if conflict != node_id:
                    ejected.add(conflict)
                    self.remove(conflict)
            if self.mrt.can_reserve(uses, cycle) or not uses:
                break
            uses = self.uses_for(node_id, cluster)
        else:
            raise ScheduleInfeasible(
                f"cannot place node {node_id} at cycle {cycle} even after ejections"
            )
        if uses and not self.mrt.can_reserve(uses, cycle):
            raise ScheduleInfeasible(
                f"cannot place node {node_id} at cycle {cycle} even after ejections"
            )
        self.place(node_id, cycle, cluster, uses=uses, assume_free=True)

        # Eject already-scheduled neighbours whose dependence constraints the
        # forced placement violates.  (remove() only touches schedule state,
        # never the graph, so the allocation-free edge views are safe here.)
        for edge in self.graph.iter_in_edges(node_id):
            src = edge.src
            if src not in self.times or src == node_id:
                continue
            latency = self.graph.edge_latency(edge, self.latency_of)
            if self.times[src] + latency - edge.distance * self.ii > cycle:
                ejected.add(src)
                self.remove(src)
        for edge in self.graph.iter_out_edges(node_id):
            dst = edge.dst
            if dst not in self.times or dst == node_id:
                continue
            latency = self.graph.edge_latency(edge, self.latency_of)
            if cycle + latency - edge.distance * self.ii > self.times[dst]:
                ejected.add(dst)
                self.remove(dst)
        return ejected

    # ------------------------------------------------------------------ #
    # Derived results
    # ------------------------------------------------------------------ #
    def stage_count(self) -> int:
        """Number of II-cycle stages of the kernel (SC in the paper)."""
        if not self.times:
            return 1
        last_completion = 0
        for node_id, cycle in self.times.items():
            node = self.graph.node(node_id)
            if node.op.is_pseudo:
                latency = 0
            elif node.latency_override is not None:
                latency = node.latency_override
            else:
                latency = self.latency_of(node.op.mnemonic)
            last_completion = max(last_completion, cycle + max(1, latency))
        return max(1, -(-last_completion // self.ii))

    def schedule_length(self) -> int:
        """Length in cycles of one flat iteration of the schedule."""
        if not self.times:
            return 0
        return max(self.times.values()) + 1
