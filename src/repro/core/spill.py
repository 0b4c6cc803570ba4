"""Two-level register spilling.

MIRS_HC checks the register pressure of every bank each time an operation
is scheduled (and once more when the priority list empties).  When a bank
exceeds its capacity it spills a value out of it:

* a value living in a **cluster bank** of a hierarchical organization is
  spilled to the **shared bank**: a ``StoreR`` is inserted right after its
  producer and a ``LoadR`` right before each consumer in that cluster;
* a value living in the **shared bank** (or in a cluster bank of a pure
  clustered organization, which has no level above it) is spilled to
  **memory**: a spill store after the producer and a spill load before
  each consumer;
* **loop invariants** living in a cluster bank can be evicted to the
  shared bank: their cluster consumers then re-load them with ``LoadR``
  operations (the paper's special handling of invariants).

The inserted operations are returned so the driver can put them on the
priority list; they are scheduled like any other operation (and can
trigger further backtracking), which is exactly the integrated behaviour
the paper describes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.machine.config import MachineConfig, RFConfig, RFKind
from repro.core.banks import SHARED, bank_capacity, read_bank
from repro.core.lifetimes import ValueLifetime, live_in_banks
from repro.core.partial import PartialSchedule

__all__ = [
    "SpillState",
    "check_and_insert_spill",
    "victim_longest_lifetime",
    "victim_fewest_reloads",
    "victim_latest_def",
]


class SpillState:
    """Bookkeeping of what has already been spilled (to avoid re-spilling)."""

    def __init__(self) -> None:
        self.spilled_values: Set[int] = set()
        self.spilled_invariants: Set[int] = set()
        self.n_spill_memory_ops: int = 0
        self.n_spill_storer_loadr: int = 0

    def is_spilled(self, node_id: int) -> bool:
        return node_id in self.spilled_values or node_id in self.spilled_invariants


def _spillable(
    graph: DepGraph,
    lifetime: ValueLifetime,
    state: SpillState,
    *,
    allow_spill_copies: bool = False,
) -> bool:
    node = graph.node(lifetime.node_id)
    if state.is_spilled(lifetime.node_id):
        return False
    if node.is_spill and not (allow_spill_copies and node.op is OpType.STORER):
        # Spill code itself is normally not re-spilled.  The exception is
        # the second level of the paper's spill chain: a StoreR copy that a
        # cluster-bank spill parked in the shared bank can have a long
        # lifetime there, and when the *shared* bank overflows such copies
        # may continue on to memory (``allow_spill_copies``) -- otherwise a
        # shared bank full of spill copies is unfixable at any II.
        return False
    # A LoadR value is already a freshly re-loaded copy; spilling it would
    # only add churn (its source should be spilled instead).  StoreR and
    # Move values, however, can hold loop-carried values for several
    # iterations and are legitimate spill victims.
    if node.op is OpType.LOADR:
        return False
    # Spilling only helps when the value has at least one consumer to re-load.
    return bool(graph.flow_consumers(lifetime.node_id))


# --------------------------------------------------------------------------- #
# Spill-victim policies
# --------------------------------------------------------------------------- #
def victim_longest_lifetime(
    graph: DepGraph, candidates: Sequence[ValueLifetime]
) -> List[ValueLifetime]:
    """Default policy: spill the value that is live the longest.

    A long lifetime occupies the most register-slot instances per
    iteration, so evicting it frees the most pressure per inserted spill
    (the classic MaxLive-driven choice of the HRMS lineage).
    """
    return sorted(candidates, key=lambda lt: -lt.length)


def victim_fewest_reloads(
    graph: DepGraph, candidates: Sequence[ValueLifetime]
) -> List[ValueLifetime]:
    """Alternative policy: spill the value that is cheapest to re-load.

    Prefers victims with the fewest consumers (each consumer costs one
    re-load operation), breaking ties toward longer lifetimes.  Minimizes
    inserted spill code at the price of possibly needing several spills
    to relieve the same pressure.
    """
    return sorted(
        candidates,
        key=lambda lt: (len(graph.flow_consumers(lt.node_id)), -lt.length),
    )


def victim_latest_def(
    graph: DepGraph, candidates: Sequence[ValueLifetime]
) -> List[ValueLifetime]:
    """Alternative policy: spill the most recently defined value.

    Late definitions are the values the scheduler committed to last, so
    evicting them perturbs the established part of the schedule least
    (ties broken toward longer lifetimes).
    """
    return sorted(candidates, key=lambda lt: (-lt.start, -lt.length))


def _spill_value_to_shared(
    graph: DepGraph, node_id: int, cluster_bank: int, rf: RFConfig
) -> List[int]:
    """Spill a cluster-bank value to the shared bank (StoreR + LoadR per use).

    Consumers that read from the shared bank anyway (stores, StoreR nodes)
    keep their existing dependences; only consumers reading from the
    cluster bank are re-routed through a fresh LoadR.  If no consumer can
    be re-routed the spill is pointless and nothing is inserted.
    """
    reroutable = [
        (consumer, edge)
        for consumer, edge in graph.flow_consumers(node_id)
        if graph.node(consumer).op not in (OpType.STORE, OpType.STORER)
    ]
    if not reroutable:
        return []
    new_nodes: List[int] = []
    storer = graph.add_node(
        OpType.STORER,
        name=f"spill_str_{node_id}",
        is_spill=True,
        inserted_for=node_id,
        home_cluster=cluster_bank,
    )
    graph.add_edge(node_id, storer, distance=0)
    new_nodes.append(storer)
    for consumer, edge in reroutable:
        loadr = graph.add_node(
            OpType.LOADR,
            name=f"spill_ldr_{node_id}_{consumer}",
            is_spill=True,
            inserted_for=node_id,
            home_cluster=cluster_bank,
        )
        graph.remove_edge(node_id, consumer)
        graph.add_edge(storer, loadr, distance=edge.distance)
        graph.add_edge(loadr, consumer, distance=0)
        new_nodes.append(loadr)
    return new_nodes


def _spill_value_to_memory(graph: DepGraph, node_id: int) -> List[int]:
    """Spill a value to memory (spill store + spill load per use)."""
    new_nodes: List[int] = []
    store = graph.add_node(
        OpType.STORE,
        name=f"spill_st_{node_id}",
        is_spill=True,
        inserted_for=node_id,
    )
    graph.add_edge(node_id, store, distance=0)
    new_nodes.append(store)
    for consumer, edge in list(graph.flow_consumers(node_id)):
        if consumer == store:
            continue
        load = graph.add_node(
            OpType.LOAD,
            name=f"spill_ld_{node_id}_{consumer}",
            is_spill=True,
            inserted_for=node_id,
        )
        graph.remove_edge(node_id, consumer)
        graph.add_edge(store, load, distance=edge.distance, kind="mem")
        graph.add_edge(load, consumer, distance=0)
        new_nodes.append(load)
    return new_nodes


def _spill_invariant(
    graph: DepGraph, node_id: int, cluster_bank: int, rf: RFConfig,
    schedule: PartialSchedule,
) -> List[int]:
    """Evict a loop invariant from a cluster bank to the shared bank."""
    new_nodes: List[int] = []
    for consumer, edge in list(graph.flow_consumers(node_id)):
        bank = read_bank(graph, consumer, schedule.clusters.get(consumer), rf)
        if bank != cluster_bank:
            continue
        loadr = graph.add_node(
            OpType.LOADR,
            name=f"spill_inv_{node_id}_{consumer}",
            is_spill=True,
            inserted_for=node_id,
            home_cluster=cluster_bank,
        )
        graph.remove_edge(node_id, consumer)
        graph.add_edge(node_id, loadr, distance=edge.distance)
        graph.add_edge(loadr, consumer, distance=0)
        new_nodes.append(loadr)
    return new_nodes


def check_and_insert_spill(
    graph: DepGraph,
    schedule: PartialSchedule,
    rf: RFConfig,
    machine: MachineConfig,
    state: SpillState,
    *,
    max_spills_per_call: int = 2,
    victim_policy=victim_longest_lifetime,
) -> Tuple[List[int], Dict[int, int]]:
    """Spill values out of over-subscribed banks.

    Returns ``(new_nodes, usage)``: the newly inserted nodes (spill
    stores/loads, StoreR/LoadR), which the caller must add to the priority
    list, and the per-bank register usage that drove the decision (callers
    reuse it as the pressure input of other heuristics).  At most
    ``max_spills_per_call`` values are spilled per invocation: the check
    runs repeatedly as the schedule is built, so pressure is relieved
    incrementally instead of spilling a large batch on one estimate.

    The schedule must track pressure (``track_pressure=True``): both the
    per-bank usage and the candidate lifetimes come from its incremental
    :class:`~repro.core.arraycore.ArrayPressureTracker` (O(affected
    lifetimes)).  ``victim_policy`` orders the admissible candidates of an
    over-subscribed bank, best victim first (see
    :func:`victim_longest_lifetime` and friends).
    """
    tracker = schedule.pressure
    usage = tracker.usage()
    new_nodes: List[int] = []
    spills_done = 0

    # Only the over-capacity banks need their lifetime lists materialized;
    # restricting the (sorted) candidate extraction to them keeps the cost
    # of a spill pass proportional to the problem, not to the bank count.
    ranked = sorted(usage.items(), key=lambda kv: -kv[1])
    over_banks = [
        bank for bank, used in ranked
        if bank_capacity(rf, bank) != float("inf") and used > bank_capacity(rf, bank)
    ]
    per_bank = None  # computed lazily
    for bank, used in ranked:
        if spills_done >= max_spills_per_call:
            break
        capacity = bank_capacity(rf, bank)
        if capacity == float("inf") or used <= capacity:
            continue
        if per_bank is None:
            per_bank = tracker.lifetimes_by_bank(banks=over_banks)
        candidates = victim_policy(
            graph,
            [
                lt
                for lt in per_bank.get(bank, [])
                # In the shared bank, spill copies may continue to memory
                # (the second level of the cluster -> shared -> memory
                # chain); everywhere else they are off limits.
                if _spillable(graph, lt, state, allow_spill_copies=bank == SHARED)
            ],
        )
        # A cluster-bank value normally spills one level up, to the shared
        # bank; but when the shared bank itself is (close to) full, pushing
        # more long-lived values into it only moves the problem, so the
        # value goes all the way to memory instead -- the "and/or" of the
        # paper's two-level spill check.
        shared_capacity = bank_capacity(rf, SHARED)
        shared_has_room = (
            shared_capacity == float("inf")
            or usage.get(SHARED, 0) + 2 < shared_capacity
        )
        spilled_here = False
        for victim in candidates:
            if bank != SHARED and rf.is_hierarchical and shared_has_room:
                created = _spill_value_to_shared(graph, victim.node_id, bank, rf)
                state.n_spill_storer_loadr += len(created)
            else:
                created = _spill_value_to_memory(graph, victim.node_id)
                state.n_spill_memory_ops += len(created)
            # Remember the victim even when nothing could be re-routed, so
            # the same futile candidate is not examined again.
            state.spilled_values.add(victim.node_id)
            if not created:
                continue
            new_nodes.extend(created)
            spills_done += 1
            spilled_here = True
            break
        if not spilled_here and bank != SHARED and rf.is_hierarchical:
            # No ordinary value can be spilled: try evicting a loop invariant.
            for invariant in graph.live_in_nodes():
                if invariant.node_id in state.spilled_invariants:
                    continue
                banks = live_in_banks(graph, invariant.node_id, schedule.clusters, rf)
                if bank not in banks:
                    continue
                created = _spill_invariant(graph, invariant.node_id, bank, rf, schedule)
                if created:
                    state.spilled_invariants.add(invariant.node_id)
                    state.n_spill_storer_loadr += len(created)
                    new_nodes.extend(created)
                    spills_done += 1
                    spilled_here = True
                    break
        if not spilled_here and bank != SHARED:
            # Last resort for a stuck cluster bank: it can be clogged with
            # re-loaded (LoadR) copies, which the normal policy refuses to
            # touch -- their sources live one level up where there may be
            # no pressure to relieve, and the slot search places a LoadR
            # right after its producer, so a distant consumer gives the
            # copy a lifetime of several IIs.  Left alone the bank stays
            # over capacity at *every* II and the scheduler churns until
            # its budget dies; rerouting the longest-lived copy through
            # memory restores the guarantee that a large enough II always
            # schedules.
            for victim in sorted(per_bank.get(bank, []), key=lambda lt: -lt.length):
                node = graph.node(victim.node_id)
                if node.op is not OpType.LOADR:
                    continue
                if victim.node_id in state.spilled_values:
                    continue
                if not graph.flow_consumers(victim.node_id):
                    continue
                # _spill_value_to_memory always creates at least the spill
                # store, so this victim is never futile.
                created = _spill_value_to_memory(graph, victim.node_id)
                state.spilled_values.add(victim.node_id)
                state.n_spill_memory_ops += len(created)
                new_nodes.extend(created)
                spills_done += 1
                spilled_here = True
                break
        if not spilled_here:
            # Nothing left to spill from this bank; the driver will notice
            # that the pressure cannot be met and fail this II attempt.
            continue
    return new_nodes, usage
