"""Array-native state of the scheduler: reservation table and pressure.

The readable references (:class:`~repro.core.mrt.ModuloReservationTable`
and the from-scratch sweeps of :mod:`repro.core.lifetimes`) keep their
state in per-resource / per-value dictionaries and lists.  That layout is
easy to audit but pays a dictionary lookup and a container allocation on
nearly every probe of the scheduler's innermost loops, and a sweep costs
O(graph) per pressure check.  The scheduler instead runs on:

* :class:`ArrayMRT` -- resources are numbered densely once at
  construction; occupancy lives in one flat list indexed by
  ``resource * II + slot`` and every resource additionally maintains a
  *full-slot bitmask* (bit ``s`` set iff modulo slot ``s`` is at
  capacity).  A window probe (:meth:`ArrayMRT.first_free_cycle`) rotates
  and ORs those masks once per resource use and then tests one bit per
  candidate cycle instead of re-walking every use.  Window scans are
  additionally memoized under an *epoch* invalidation contract: every
  resource row carries a counter bumped whenever its occupancy changes
  (reserve/release), and a probe answer -- positive or negative -- stays
  valid for free while the epochs of every involved row are unchanged.
* :class:`ArrayPressureTracker` -- per-node lifetime state lives in
  parallel int arrays indexed by :meth:`repro.ddg.graph.DepGraph.dense_index`
  (stable per node, recycled through a free list), bank slot counts live
  in one flat list indexed by ``bank * II + slot``, and the per-bank
  MaxLive is cached and only recomputed for banks whose counts changed.

Both classes answer exactly like their references: same probe answers,
same exception behaviour, same dictionary key order in query results,
and -- critical for the force-and-eject path -- the same element
insertion order into the sets returned by ``conflicting_nodes``.
``tests/test_core_equivalence.py`` pins that with a differential
hypothesis harness, and the golden digests in ``tests/golden_digests.json``
pin the end-to-end schedules.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.ddg.graph import DepGraph, Dependence, GraphListener
from repro.ddg.operations import OpType
from repro.machine.config import RFConfig, RFKind
from repro.machine.resources import ResourceKey, ResourceUse, SHARED
from repro.core.banks import all_banks, bank_capacity
from repro.core.lifetimes import ValueLifetime, live_in_banks

__all__ = ["ArrayMRT", "ArrayPressureTracker"]


class ArrayMRT:
    """Modulo reservation table over flat occupancy arrays and bitmasks.

    Same constructor and method contract as
    :class:`~repro.core.mrt.ModuloReservationTable`.
    """

    def __init__(self, ii: int, counts: Dict[ResourceKey, int]) -> None:
        if ii < 1:
            raise ValueError("the initiation interval must be >= 1")
        self.ii = ii
        self._counts = dict(counts)
        #: Resource keys in inventory order (defines the dense numbering
        #: and the key order of :meth:`utilization`).
        self._keys: List[ResourceKey] = list(counts)
        self._index: Dict[ResourceKey, int] = {
            key: index for index, key in enumerate(self._keys)
        }
        self._caps: List[int] = [counts[key] for key in self._keys]
        n_slots = len(self._keys) * ii
        #: Occupants per (resource, slot), flat-indexed; append order is
        #: identical to the reference table's so ``conflicting_nodes`` builds
        #: its result set in the same element order.
        self._occupants: List[List[int]] = [[] for _ in range(n_slots)]
        #: Bit ``s`` of ``_full[r]`` set iff slot ``s`` of resource ``r``
        #: is at capacity.  Zero-capacity resources read as always-full.
        self._all_ones = (1 << ii) - 1
        self._full: List[int] = [
            0 if cap > 0 else self._all_ones for cap in self._caps
        ]
        #: node -> flat (resource, slot) indices it occupies.
        self._held: Dict[int, List[int]] = {}
        #: Per-resource epoch, bumped whenever the row's occupancy changes.
        #: A window-scan answer snapshot-stamped with the epochs of every
        #: resource it touched is exact while those epochs are unchanged.
        self._epochs: List[int] = [0] * len(self._keys)
        #: Memoized :meth:`first_free_cycle` answers, keyed by the uses
        #: list (identity -- the lists are the shared immutables of
        #: :class:`~repro.machine.resources.ResourceModel`) and the probed
        #: range.  Values keep a strong reference to the uses list so an
        #: ``id()`` can never be recycled under the memo.
        self._probe_memo: Dict[tuple, tuple] = {}
        #: Window scans answered (:meth:`first_free_cycle` calls).
        self.n_probes: int = 0
        #: Window scans served from the epoch memo.
        self.n_memo_hits: int = 0

    # ------------------------------------------------------------------ #
    def capacity(self, key: ResourceKey) -> int:
        return self._counts.get(key, 0)

    def can_reserve(self, uses: Sequence[ResourceUse], cycle: int) -> bool:
        """True when every requested reservation has a free instance."""
        ii = self.ii
        index = self._index
        caps = self._caps
        occupants = self._occupants
        if len(uses) == 1:
            # Fast path: one use never double-counts a slot (a multi-cycle
            # span covers min(duration, II) *distinct* modulo slots).
            use = uses[0]
            resource = index.get(use.key)
            if resource is None:
                return False
            cap = caps[resource]
            if cap <= 0:
                return False
            start = cycle + use.offset
            base = resource * ii
            if use.duration == 1:
                return len(occupants[base + start % ii]) < cap
            for delta in range(min(use.duration, ii)):
                if len(occupants[base + (start + delta) % ii]) >= cap:
                    return False
            return True
        needed: Dict[int, int] = {}
        for use in uses:
            resource = index.get(use.key)
            if resource is None:
                return False
            cap = caps[resource]
            if cap <= 0:
                return False
            start = cycle + use.offset
            base = resource * ii
            if use.duration == 1:
                flat = base + start % ii
                extra = needed.get(flat, 0) + 1
                if len(occupants[flat]) + extra > cap:
                    return False
                needed[flat] = extra
            else:
                for delta in range(min(use.duration, ii)):
                    flat = base + (start + delta) % ii
                    extra = needed.get(flat, 0) + 1
                    if len(occupants[flat]) + extra > cap:
                        return False
                    needed[flat] = extra
        return True

    def _blocked_mask(self, uses: Sequence[ResourceUse]) -> Optional[int]:
        """Bit ``s`` set iff issuing at any cycle ``c`` with ``c % II == s``
        is infeasible because some use hits a slot that is already full.

        ``None`` means every cycle is infeasible (unknown or
        zero-capacity resource).  A clear bit is only *necessary* for
        feasibility (several uses may still collide on one slot), so
        callers confirm candidates with :meth:`can_reserve`.
        """
        ii = self.ii
        index = self._index
        blocked = 0
        for use in uses:
            resource = index.get(use.key)
            if resource is None or self._caps[resource] <= 0:
                return None
            full = self._full[resource]
            if not full:
                continue
            for delta in range(1 if use.duration == 1 else min(use.duration, ii)):
                k = (use.offset + delta) % ii
                if k:
                    rotated = ((full >> k) | (full << (ii - k))) & self._all_ones
                else:
                    rotated = full
                blocked |= rotated
                if blocked == self._all_ones:
                    return None
        return blocked

    def first_free_cycle(
        self, uses: Sequence[ResourceUse], cycles: Sequence[int]
    ) -> Optional[int]:
        """First cycle of ``cycles`` where ``can_reserve`` holds, or ``None``.

        Range scans are memoized: the answer is a pure function of the
        occupancy of the involved resource rows, so it is stamped with
        their current epochs and replayed for free while none of those
        rows changed.  Both positive and negative answers are sound to
        reuse -- the dominant pattern is cluster selection probing a
        window and the placement immediately re-probing the same window
        with no reservation in between.
        """
        self.n_probes += 1
        if not uses:
            for cycle in cycles:
                return cycle
            return None
        memo_key = None
        stamp = None
        if type(cycles) is range:
            index = self._index
            epochs = self._epochs
            try:
                stamp = tuple(epochs[index[use.key]] for use in uses)
            except KeyError:
                stamp = None  # unknown resource: unmemoized (answer is None)
            if stamp is not None:
                memo_key = (id(uses), cycles.start, cycles.stop, cycles.step)
                entry = self._probe_memo.get(memo_key)
                if entry is not None and entry[0] is uses and entry[1] == stamp:
                    self.n_memo_hits += 1
                    return entry[2]
        result = self._scan_first_free(uses, cycles)
        if memo_key is not None:
            self._probe_memo[memo_key] = (uses, stamp, result)
        return result

    def _scan_first_free(
        self, uses: Sequence[ResourceUse], cycles: Sequence[int]
    ) -> Optional[int]:
        """The uncached window scan behind :meth:`first_free_cycle`."""
        blocked = self._blocked_mask(uses)
        if blocked is None:
            return None
        ii = self.ii
        # When no two uses can land on the same (resource, slot) pair --
        # every use is a single slot on a distinct resource -- a clear
        # blocked bit is feasibility itself, so no confirmation probe is
        # needed.  (Multi-cycle spans and repeated resources can still
        # collide below capacity, so those confirm with can_reserve.)
        exact = True
        if len(uses) > 1:
            seen = set()
            for use in uses:
                if use.duration != 1 or use.key in seen:
                    exact = False
                    break
                seen.add(use.key)
        elif uses[0].duration != 1:
            exact = False
        if exact:
            if blocked == 0:
                for cycle in cycles:
                    return cycle
                return None
            for cycle in cycles:
                if not (blocked >> (cycle % ii)) & 1:
                    return cycle
            return None
        if blocked:
            for cycle in cycles:
                if not (blocked >> (cycle % ii)) & 1 and self.can_reserve(uses, cycle):
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

        ``assume_free`` skips the availability re-check for callers that
        just proved it (a positive :meth:`first_free_cycle` /
        :meth:`can_reserve` answer with no reservation in between) --
        the fused place fast path of the scheduling engine.
        """
        if not assume_free and not self.can_reserve(uses, cycle):
            raise ValueError(f"resources not available for node {node_id} at cycle {cycle}")
        ii = self.ii
        held = self._held.setdefault(node_id, [])
        occupants = self._occupants
        caps = self._caps
        epochs = self._epochs
        for use in uses:
            resource = self._index[use.key]
            epochs[resource] += 1
            base = resource * ii
            start = cycle + use.offset
            for delta in range(1 if use.duration == 1 else min(use.duration, ii)):
                slot = (start + delta) % ii
                flat = base + slot
                row = occupants[flat]
                row.append(node_id)
                held.append(flat)
                if len(row) >= caps[resource]:
                    self._full[resource] |= 1 << slot

    def release(self, node_id: int) -> None:
        """Release every reservation held by ``node_id`` (idempotent)."""
        ii = self.ii
        epochs = self._epochs
        for flat in self._held.pop(node_id, []):
            row = self._occupants[flat]
            try:
                row.remove(node_id)
            except ValueError:  # pragma: no cover - defensive
                continue
            resource, slot = divmod(flat, ii)
            epochs[resource] += 1
            if self._caps[resource] > 0 and len(row) < self._caps[resource]:
                self._full[resource] &= ~(1 << slot)

    def holds(self, node_id: int) -> bool:
        return node_id in self._held

    def held_keys(self, node_id: int) -> List[ResourceKey]:
        """Resource keys ``node_id`` occupies, one entry per occupied slot."""
        ii = self.ii
        keys = self._keys
        return [keys[flat // ii] for flat in self._held.get(node_id, [])]

    def conflicting_nodes(self, uses: Sequence[ResourceUse], cycle: int) -> Set[int]:
        """Nodes whose eviction would free the requested reservations."""
        ii = self.ii
        conflicts: Set[int] = set()
        for use in uses:
            resource = self._index.get(use.key)
            if resource is None:
                continue
            cap = self._caps[resource]
            if cap <= 0:
                continue
            base = resource * ii
            start = cycle + use.offset
            for delta in range(1 if use.duration == 1 else min(use.duration, ii)):
                row = self._occupants[base + (start + delta) % ii]
                if len(row) >= cap:
                    conflicts.update(row)
        return conflicts

    # ------------------------------------------------------------------ #
    def utilization(self) -> Dict[ResourceKey, float]:
        """Fraction of occupied slots per resource (for reports/tests)."""
        ii = self.ii
        result: Dict[ResourceKey, float] = {}
        for resource, key in enumerate(self._keys):
            total = self._caps[resource] * ii
            base = resource * ii
            used = sum(len(self._occupants[base + slot]) for slot in range(ii))
            result[key] = used / total if total else 0.0
        return result


#: Sentinel for "no contribution recorded" in the dense bank-index array
#: (bank *ids* include -1 for the shared bank, so the arrays store dense
#: bank indices, which are always >= 0).
_NO_BANK = -1


class ArrayPressureTracker(GraphListener):
    """Incrementally maintained per-bank MaxLive over flat arrays.

    Placement events (``on_place``/``on_remove`` from the owning
    :class:`~repro.core.partial.PartialSchedule`) and structural graph
    edits (observed as a :class:`~repro.ddg.graph.GraphListener`) mark
    the affected producers dirty; a query re-derives only those
    lifetimes.  :meth:`usage` and :meth:`lifetimes_by_bank` always equal
    a from-scratch :func:`~repro.core.lifetimes.register_usage` /
    :func:`~repro.core.lifetimes.lifetimes_by_bank` over the same
    (graph, times, clusters).  Per-node state is stored in parallel
    arrays indexed by the graph's dense node index, and the per-bank
    maximum is cached between queries.
    """

    def __init__(
        self,
        graph: DepGraph,
        ii: int,
        rf: RFConfig,
        latency_of: Callable[[str], int],
        times: Dict[int, int],
        clusters: Dict[int, Optional[int]],
    ) -> None:
        self.graph = graph
        self.ii = ii
        self.rf = rf
        self.latency_of = latency_of
        self.times = times
        self.clusters = clusters
        #: Banks in ``all_banks`` order: defines the dense bank numbering
        #: and the key order of :meth:`usage` / :meth:`lifetimes_by_bank`.
        self._banks: List[int] = list(all_banks(rf))
        self._bank_index: Dict[int, int] = {
            bank: index for index, bank in enumerate(self._banks)
        }
        self._slots: List[int] = [0] * (len(self._banks) * ii)
        #: Cached per-bank MaxLive.  Kept exact on increments (a raised
        #: slot can only raise the max) and lazily recomputed through
        #: ``_stale_banks`` when a decrement touched the current max.
        self._bank_max: List[int] = [0] * len(self._banks)
        self._stale_banks: int = 0
        #: Register capacity per bank (``inf`` for unbounded banks) and
        #: the number of modulo slots currently strictly above it --
        #: maintained on every slot update so :meth:`any_over_capacity`
        #: (the per-placement spill gate) is O(banks), no max recompute.
        self._caps: List[float] = [bank_capacity(rf, bank) for bank in self._banks]
        self._n_over: List[int] = [0] * len(self._banks)
        #: Dense node indices currently contributing a lifetime, per bank
        #: index -- lets :meth:`lifetimes_by_bank` visit only the values
        #: of the requested banks instead of scanning every node slot.
        self._bank_members: List[Set[int]] = [set() for _ in self._banks]
        #: RF organization, hoisted for the inlined bank dispatch in
        #: :meth:`_refresh` (same rules as :func:`repro.core.banks.value_bank`).
        self._rf_kind = rf.kind
        #: Last :meth:`usage` answer, reused verbatim while no event has
        #: invalidated it (callers treat the dict as read-only, exactly
        #: like the fresh dict :func:`register_usage` hands out each call).
        self._usage_cache: Optional[Dict[int, int]] = None
        # Parallel per-node arrays, indexed by graph.dense_index(node).
        size = graph.dense_index_bound()
        self._contrib_bank: List[int] = [_NO_BANK] * size
        self._contrib_start: List[int] = [0] * size
        self._contrib_end: List[int] = [0] * size
        self._contrib_node: List[int] = [-1] * size
        #: Bitmask of dense bank indices charged one whole-loop register
        #: (live-in values only).
        self._live_banks: List[int] = [0] * size
        self._dirty: Set[int] = set()
        graph.add_listener(self)

    # ------------------------------------------------------------------ #
    # Event intake (placement + graph mutation)
    # ------------------------------------------------------------------ #
    def on_place(self, node_id: int) -> None:
        """The owning schedule placed ``node_id``.

        Placing a node can only *extend* the lifetime of an
        already-flushed producer (the producer's own cycle, bank and
        start are untouched; the new consumer adds one more ``use+1``
        candidate to the end maximum), so such producers are updated in
        place with an O(delta) slot-count extension instead of a full
        re-derivation.  Everything else -- the placed node itself,
        live-in producers (their bank *set* changes with consumer
        placement), producers with pending dirty state -- falls back to
        the dirty set.
        """
        dirty = self._dirty
        dirty.add(node_id)
        graph = self.graph
        if node_id not in graph:
            return
        cycle = self.times.get(node_id)
        if cycle is None:  # pragma: no cover - defensive (place sets times first)
            self._touch(node_id)
            return
        ii = self.ii
        contrib_bank = self._contrib_bank
        contrib_node = self._contrib_node
        contrib_end = self._contrib_end
        for src, edge in graph.flow_producers(node_id):
            if src in dirty:
                continue
            index = graph.dense_index(src)
            if (
                index < len(contrib_bank)
                and contrib_bank[index] != _NO_BANK
                and contrib_node[index] == src
            ):
                use_end = cycle + edge.distance * ii + 1
                if use_end > contrib_end[index]:
                    self._apply(contrib_bank[index], contrib_end[index], use_end, +1)
                    contrib_end[index] = use_end
            else:
                dirty.add(src)

    def on_remove(self, node_id: int) -> None:
        """The owning schedule ejected or forgot ``node_id``.

        Called while the node's cycle is still recorded (see
        :meth:`repro.core.partial.PartialSchedule.remove`).  Removing a
        consumer can only shrink a producer's lifetime if that consumer
        attained the current end; producers for which this use was
        strictly interior keep their contribution untouched.
        """
        dirty = self._dirty
        dirty.add(node_id)
        graph = self.graph
        if node_id not in graph:
            return
        cycle = self.times.get(node_id)
        if cycle is None:
            self._touch(node_id)
            return
        ii = self.ii
        contrib_bank = self._contrib_bank
        contrib_node = self._contrib_node
        contrib_end = self._contrib_end
        for src, edge in graph.flow_producers(node_id):
            if src in dirty:
                continue
            index = graph.dense_index(src)
            if (
                index < len(contrib_bank)
                and contrib_bank[index] != _NO_BANK
                and contrib_node[index] == src
                and cycle + edge.distance * ii + 1 < contrib_end[index]
            ):
                continue
            dirty.add(src)

    def _touch(self, node_id: int) -> None:
        """Mark a node and the producers whose lifetimes it extends dirty."""
        self._dirty.add(node_id)
        if node_id in self.graph:
            for src, _edge in self.graph.flow_producers(node_id):
                self._dirty.add(src)

    def on_edge_added(self, edge: Dependence) -> None:
        if edge.kind == "flow":
            self._dirty.add(edge.src)

    def on_edge_removed(self, edge: Dependence) -> None:
        if edge.kind == "flow":
            self._dirty.add(edge.src)

    def on_node_removed(self, node_id: int) -> None:
        # Handled eagerly (not via the dirty set): the node's dense index
        # is still alive during this callback but is recycled right after,
        # so its recorded contribution must be dropped now -- a later
        # flush could find the index re-used by a new node.
        index = self.graph.dense_index(node_id)
        self._clear(index)
        self._dirty.discard(node_id)

    # ------------------------------------------------------------------ #
    # Slot-count arithmetic (mirrors lifetimes._accumulate)
    # ------------------------------------------------------------------ #
    def _apply(self, bank_index: int, start: int, end: int, sign: int) -> None:
        ii = self.ii
        slots = self._slots
        base_offset = bank_index * ii
        cap = self._caps[bank_index]
        n_over = self._n_over[bank_index]
        bank_max = self._bank_max[bank_index]
        length = end - start
        if length < 1:
            length = 1
        base, rem = divmod(length, ii)
        anchor = start % ii
        if sign > 0:
            # Increments can only raise the max: track it in place, no
            # staleness.  Over-capacity slots are counted at the crossing.
            if base:
                for flat in range(base_offset, base_offset + ii):
                    old = slots[flat]
                    new = old + base
                    slots[flat] = new
                    if new > bank_max:
                        bank_max = new
                    if old <= cap < new:
                        n_over += 1
            for offset in range(rem):
                flat = base_offset + (anchor + offset) % ii
                old = slots[flat]
                new = old + 1
                slots[flat] = new
                if new > bank_max:
                    bank_max = new
                if old == cap:
                    n_over += 1
            self._bank_max[bank_index] = bank_max
        else:
            # Decrements only invalidate the max when they touch a slot
            # that attains it.
            demoted = False
            if base:
                for flat in range(base_offset, base_offset + ii):
                    old = slots[flat]
                    new = old - base
                    slots[flat] = new
                    if old == bank_max:
                        demoted = True
                    if new <= cap < old:
                        n_over -= 1
            for offset in range(rem):
                flat = base_offset + (anchor + offset) % ii
                old = slots[flat]
                slots[flat] = old - 1
                if old == bank_max:
                    demoted = True
                if old - 1 == cap:
                    n_over -= 1
            if demoted:
                self._stale_banks |= 1 << bank_index
        self._n_over[bank_index] = n_over
        self._usage_cache = None

    def _apply_whole(self, bank_index: int, sign: int) -> None:
        slots = self._slots
        base_offset = bank_index * self.ii
        cap = self._caps[bank_index]
        n_over = self._n_over[bank_index]
        if sign > 0:
            for flat in range(base_offset, base_offset + self.ii):
                old = slots[flat]
                slots[flat] = old + 1
                if old == cap:
                    n_over += 1
        else:
            for flat in range(base_offset, base_offset + self.ii):
                old = slots[flat]
                slots[flat] = old - 1
                if old - 1 == cap:
                    n_over -= 1
        self._n_over[bank_index] = n_over
        # Every slot shifts by the same amount, so the max shifts exactly
        # (a stale max stays stale-consistent: the bit is still set).
        self._bank_max[bank_index] += sign
        self._usage_cache = None

    # ------------------------------------------------------------------ #
    # Dirty flush
    # ------------------------------------------------------------------ #
    def _ensure_index(self, index: int) -> None:
        grow = index + 1 - len(self._contrib_bank)
        if grow > 0:
            self._contrib_bank.extend([_NO_BANK] * grow)
            self._contrib_start.extend([0] * grow)
            self._contrib_end.extend([0] * grow)
            self._contrib_node.extend([-1] * grow)
            self._live_banks.extend([0] * grow)

    def _clear(self, index: int) -> None:
        """Subtract and forget whatever is recorded at a dense index."""
        if index >= len(self._contrib_bank):
            return
        bank_index = self._contrib_bank[index]
        if bank_index != _NO_BANK:
            self._apply(
                bank_index, self._contrib_start[index], self._contrib_end[index], -1
            )
            self._contrib_bank[index] = _NO_BANK
            self._contrib_node[index] = -1
            self._bank_members[bank_index].discard(index)
        live = self._live_banks[index]
        if live:
            bank_index = 0
            while live:
                if live & 1:
                    self._apply_whole(bank_index, -1)
                live >>= 1
                bank_index += 1
            self._live_banks[index] = 0

    def _refresh(self, node_id: int) -> None:
        """Re-derive one node's contribution from the current state.

        The new contribution is derived *before* the old one is
        subtracted; when both are identical (common after eject/replace
        cycles that end up restoring a producer's lifetime) the -1/+1
        slot-update pair -- and the usage-cache invalidation it drags
        along -- is skipped entirely.
        """
        graph = self.graph
        if node_id not in graph:
            # Removed nodes were cleared eagerly in on_node_removed.
            return
        index = graph.dense_index(node_id)
        self._ensure_index(index)
        node = graph.node(node_id)
        if node.op is OpType.LIVE_IN:
            bank_index_map = self._bank_index
            live = 0
            for bank in live_in_banks(graph, node_id, self.clusters, self.rf):
                bank_index = bank_index_map.get(bank)
                if bank_index is not None:
                    live |= 1 << bank_index
            if (
                live == self._live_banks[index]
                and self._contrib_bank[index] == _NO_BANK
            ):
                return
            self._clear(index)
            if live:
                self._live_banks[index] = live
                bank_index = 0
                bits = live
                while bits:
                    if bits & 1:
                        self._apply_whole(bank_index, +1)
                    bits >>= 1
                    bank_index += 1
            return
        new_bank_index = None
        start = end = 0
        if node.op.defines_register:
            times = self.times
            cycle = times.get(node_id)
            if cycle is not None:
                # Inlined value_bank (STORE/LIVE_IN never reach here --
                # neither defines a register in scheduling order).
                kind = self._rf_kind
                if kind is RFKind.MONOLITHIC:
                    bank = SHARED
                elif kind is RFKind.CLUSTERED:
                    bank = self.clusters.get(node_id)
                elif node.op is OpType.LOAD or node.op is OpType.STORER:
                    bank = SHARED
                else:
                    bank = self.clusters.get(node_id)
                if bank is not None:
                    new_bank_index = self._bank_index.get(bank)
        if new_bank_index is not None:
            producer_latency = (
                node.latency_override
                if node.latency_override is not None
                else self.latency_of(node.op.mnemonic)
            )
            start = cycle + producer_latency
            end = start + 1
            ii = self.ii
            for dst, edge in graph.flow_consumers(node_id):
                use_cycle = times.get(dst)
                if use_cycle is None:
                    continue
                use = use_cycle + edge.distance * ii
                if use + 1 > end:
                    end = use + 1
        if (
            self._contrib_bank[index] == (
                _NO_BANK if new_bank_index is None else new_bank_index
            )
            and not self._live_banks[index]
            and (
                new_bank_index is None
                or (
                    self._contrib_node[index] == node_id
                    and self._contrib_start[index] == start
                    and self._contrib_end[index] == end
                )
            )
        ):
            return
        self._clear(index)
        if new_bank_index is None:
            return
        self._apply(new_bank_index, start, end, +1)
        self._contrib_bank[index] = new_bank_index
        self._contrib_start[index] = start
        self._contrib_end[index] = end
        self._contrib_node[index] = node_id
        self._bank_members[new_bank_index].add(index)

    def _flush(self) -> None:
        if not self._dirty:
            return
        for node_id in self._dirty:
            self._refresh(node_id)
        self._dirty.clear()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def any_over_capacity(self) -> bool:
        """True iff some bank currently exceeds its register capacity.

        The per-placement spill gate: after the dirty flush this is a
        plain scan of the per-bank over-capacity slot counters, with no
        max recompute, no dict build and no sort --
        :func:`repro.core.spill.check_and_insert_spill` is a no-op
        exactly when this returns False.
        """
        self._flush()
        for count in self._n_over:
            if count:
                return True
        return False

    def usage(self) -> Dict[int, int]:
        """MaxLive per bank -- same contract as :func:`register_usage`."""
        if not self._dirty and self._usage_cache is not None:
            return self._usage_cache
        self._flush()
        stale = self._stale_banks
        if stale:
            ii = self.ii
            slots = self._slots
            bank_max = self._bank_max
            bank_index = 0
            while stale:
                if stale & 1:
                    base_offset = bank_index * ii
                    bank_max[bank_index] = max(slots[base_offset:base_offset + ii])
                stale >>= 1
                bank_index += 1
            self._stale_banks = 0
        bank_max = self._bank_max
        result = {bank: bank_max[index] for index, bank in enumerate(self._banks)}
        self._usage_cache = result
        return result

    def lifetimes_by_bank(
        self, banks: "Optional[List[int]]" = None
    ) -> Dict[int, List[ValueLifetime]]:
        """Current value lifetimes grouped by bank (spill-victim input).

        ``banks`` restricts the answer to the listed banks (the spill
        pass only needs the over-capacity ones); ``None`` returns all.
        """
        self._flush()
        wanted = self._banks if banks is None else banks
        contrib_node = self._contrib_node
        contrib_start = self._contrib_start
        contrib_end = self._contrib_end
        per_bank: Dict[int, List[ValueLifetime]] = {}
        for bank in wanted:
            bank_index = self._bank_index.get(bank)
            lifetimes: List[ValueLifetime] = []
            if bank_index is not None:
                for index in self._bank_members[bank_index]:
                    lifetimes.append(
                        ValueLifetime(
                            contrib_node[index],
                            bank,
                            contrib_start[index],
                            contrib_end[index],
                        )
                    )
                lifetimes.sort(key=lambda lt: lt.node_id)
            per_bank[bank] = lifetimes
        return per_bank

    def detach(self) -> None:
        """Stop observing the graph (owning schedule is being discarded)."""
        self.graph.remove_listener(self)
