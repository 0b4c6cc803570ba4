"""The modulo reservation table (MRT).

A modulo schedule issues one iteration of the loop every II cycles, so a
resource used at cycle ``t`` is also used at ``t + k*II`` for every other
iteration ``k``.  The MRT therefore has exactly ``II`` rows per resource
instance: reserving a resource at cycle ``t`` occupies row ``t mod II``.

Unpipelined operations (division, square root) occupy their functional
unit for several consecutive cycles, i.e. several consecutive rows of the
table (capped at II rows -- beyond that the unit would be permanently
busy, which the reservation logic treats as occupying every row).

The scheduler itself runs on :class:`repro.core.arraycore.ArrayMRT`;
this dictionary table is the readable reference: the validator replays
finished schedules into it from scratch, and the lockstep tests in
``tests/test_core_equivalence.py`` compare ``ArrayMRT`` against it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.machine.resources import ResourceKey, ResourceUse

__all__ = ["ModuloReservationTable"]


class ModuloReservationTable:
    """Per-resource, per-modulo-slot occupancy tracking.

    Parameters
    ----------
    ii:
        The initiation interval (number of rows per resource).
    counts:
        Number of instances of every resource (from
        :meth:`repro.machine.resources.ResourceModel.counts`).
    """

    def __init__(self, ii: int, counts: Dict[ResourceKey, int]) -> None:
        if ii < 1:
            raise ValueError("the initiation interval must be >= 1")
        self.ii = ii
        self._counts = dict(counts)
        # table[resource][slot] -> list of node ids occupying one instance each
        self._table: Dict[ResourceKey, List[List[int]]] = {
            key: [[] for _ in range(ii)] for key in counts
        }
        # node -> list of (resource, slot) entries it occupies
        self._held: Dict[int, List[Tuple[ResourceKey, int]]] = {}

    # ------------------------------------------------------------------ #
    def _slots(self, use: ResourceUse, cycle: int) -> List[int]:
        """Modulo slots a use occupies.  Kept allocation-free for the
        overwhelmingly common fully pipelined (duration == 1) case."""
        start = cycle + use.offset
        if use.duration == 1:
            return [start % self.ii]
        span = min(use.duration, self.ii)
        return [(start + delta) % self.ii for delta in range(span)]

    def capacity(self, key: ResourceKey) -> int:
        return self._counts.get(key, 0)

    def can_reserve(self, uses: Sequence[ResourceUse], cycle: int) -> bool:
        """True when every requested reservation has a free instance.

        This is the scheduler's innermost feasibility check (hundreds of
        thousands of calls per workbench config), so the common
        single-slot path is fully inlined: no generator, one dict lookup
        per use, and the multi-use double-counting dict is only built
        when a second use actually lands on an already-counted slot.
        """
        counts = self._counts
        table = self._table
        ii = self.ii
        # Count how many instances each (resource, slot) pair would need,
        # so that two uses of the same resource in the same call are both
        # accounted for.
        needed: Dict[Tuple[ResourceKey, int], int] = {}
        for use in uses:
            key = use.key
            capacity = counts.get(key, 0)
            if capacity <= 0:
                return False
            start = cycle + use.offset
            if use.duration == 1:
                slot = start % ii
                extra = needed.get((key, slot), 0) + 1
                if len(table[key][slot]) + extra > capacity:
                    return False
                needed[(key, slot)] = extra
            else:
                for delta in range(min(use.duration, ii)):
                    slot = (start + delta) % ii
                    extra = needed.get((key, slot), 0) + 1
                    if len(table[key][slot]) + extra > capacity:
                        return False
                    needed[(key, slot)] = extra
        return True

    def first_free_cycle(
        self, uses: Sequence[ResourceUse], cycles: Sequence[int]
    ) -> "int | None":
        """First cycle of ``cycles`` where ``can_reserve`` holds, or ``None``.

        The reference answer for
        :meth:`repro.core.arraycore.ArrayMRT.first_free_cycle`, which
        accelerates the same contract with full-slot bitmasks.
        """
        if not uses:
            for cycle in cycles:
                return cycle
            return None
        for cycle in cycles:
            if self.can_reserve(uses, cycle):
                return cycle
        return None

    def reserve(
        self,
        node_id: int,
        uses: Sequence[ResourceUse],
        cycle: int,
        *,
        assume_free: bool = False,
    ) -> None:
        """Reserve resources for ``node_id`` issuing at ``cycle``.

        The caller must have checked :meth:`can_reserve` (or be prepared to
        over-subscribe deliberately, which this method refuses).
        ``assume_free`` skips the re-check for callers that just proved
        availability -- same contract as the array backend.
        """
        if not assume_free and not self.can_reserve(uses, cycle):
            raise ValueError(f"resources not available for node {node_id} at cycle {cycle}")
        held = self._held.setdefault(node_id, [])
        for use in uses:
            for slot in self._slots(use, cycle):
                self._table[use.key][slot].append(node_id)
                held.append((use.key, slot))

    def release(self, node_id: int) -> None:
        """Release every reservation held by ``node_id`` (idempotent)."""
        for key, slot in self._held.pop(node_id, []):
            occupants = self._table[key][slot]
            try:
                occupants.remove(node_id)
            except ValueError:  # pragma: no cover - defensive
                pass

    def holds(self, node_id: int) -> bool:
        return node_id in self._held

    def held_keys(self, node_id: int) -> List["ResourceKey"]:
        """Resource keys ``node_id`` occupies, one entry per occupied slot.

        Lets callers compare (as a multiset -- the keys mix unorderable
        enum kinds) what a node *reserved* at placement time against what
        it needs now: a ``Move``'s source-port reservation follows its
        producer's cluster, which backtracking and communication-chain
        re-routing can change after the fact.  See the stale-reservation
        sweep in :class:`repro.core.engine.SchedulerEngine`.
        """
        return [key for key, _slot in self._held.get(node_id, [])]

    def conflicting_nodes(self, uses: Sequence[ResourceUse], cycle: int) -> Set[int]:
        """Nodes whose eviction would free the requested reservations.

        Used by the force-and-eject step of the iterative scheduler: when a
        node is forced into a cycle with no free slot, every current
        occupant of the oversubscribed (resource, slot) pairs is ejected.
        """
        conflicts: Set[int] = set()
        for use in uses:
            if self.capacity(use.key) <= 0:
                continue
            for slot in self._slots(use, cycle):
                occupants = self._table[use.key][slot]
                if len(occupants) >= self._counts[use.key]:
                    conflicts.update(occupants)
        return conflicts

    # ------------------------------------------------------------------ #
    def utilization(self) -> Dict[ResourceKey, float]:
        """Fraction of occupied slots per resource (for reports/tests)."""
        result: Dict[ResourceKey, float] = {}
        for key, rows in self._table.items():
            total = self._counts[key] * self.ii
            used = sum(len(row) for row in rows)
            result[key] = used / total if total else 0.0
        return result
