"""Register-pressure analysis of (partial) modulo schedules.

Register requirements of a modulo schedule are measured with the standard
``MaxLive`` metric: the maximum, over the II cycles of the steady-state
kernel, of the number of simultaneously live values in a bank, counting
the multiple overlapping instances of a value whose lifetime exceeds II
cycles (one instance per overlapped iteration).  MaxLive is the metric
used throughout the modulo-scheduling register-pressure literature the
paper builds on (Llosa et al.); the number of registers obtained by the
wrap-around allocator the authors use is within one or two registers of
MaxLive in practice, so the spill decisions driven by it match the
paper's behaviour.

A value's lifetime starts when its producer delivers the result
(issue cycle + latency) and ends after the issue cycle of its last
consumer (offset by ``distance * II`` for loop-carried uses).
Loop-invariant (live-in) values occupy one register for the whole loop in
every bank where they are consumed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set

from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.machine.config import RFConfig
from repro.core.banks import SHARED, all_banks, read_bank, value_bank

__all__ = [
    "ValueLifetime",
    "register_usage",
    "lifetimes_by_bank",
    "live_in_banks",
]

LatencyFn = Callable[[str], int]


class ValueLifetime(NamedTuple):
    """Lifetime of one value in one bank (absolute schedule cycles)."""

    node_id: int
    bank: int
    start: int
    end: int          # exclusive

    @property
    def length(self) -> int:
        return self.end - self.start


def live_in_banks(
    graph: DepGraph,
    node_id: int,
    clusters: Dict[int, Optional[int]],
    rf: RFConfig,
    *,
    scheduled_only: bool = True,
) -> Set[int]:
    """Banks in which a live-in value must be resident.

    A loop invariant occupies one register in every bank from which one of
    its consumers reads it.  Consumers that are not yet scheduled are
    ignored when ``scheduled_only`` is true (the invariant does not yet
    constrain any bank through them).
    """
    banks: Set[int] = set()
    for dst, edge in graph.flow_consumers(node_id):
        if edge.kind != "flow":
            continue
        if scheduled_only and dst not in clusters:
            continue
        bank = read_bank(graph, dst, clusters.get(dst), rf)
        if bank is not None:
            banks.add(bank)
    return banks


def lifetimes_by_bank(
    graph: DepGraph,
    times: Dict[int, int],
    clusters: Dict[int, Optional[int]],
    ii: int,
    rf: RFConfig,
    latency_of: LatencyFn,
) -> Dict[int, List[ValueLifetime]]:
    """Lifetimes of every scheduled value, grouped by residence bank.

    Only values whose producer is scheduled are considered; consumers not
    yet scheduled do not extend lifetimes (the pressure estimate grows
    monotonically as the schedule is completed, which is what the
    incremental spill check needs).
    """
    per_bank: Dict[int, List[ValueLifetime]] = {bank: [] for bank in all_banks(rf)}
    for node in graph.nodes():
        node_id = node.node_id
        if node.op is OpType.LIVE_IN:
            continue
        if not node.op.defines_register:
            continue
        if node_id not in times:
            continue
        bank = value_bank(graph, node_id, clusters.get(node_id), rf)
        if bank is None or bank not in per_bank:
            continue
        producer_latency = (
            node.latency_override
            if node.latency_override is not None
            else latency_of(node.op.mnemonic)
        )
        start = times[node_id] + producer_latency
        end = start + 1
        for dst, edge in graph.flow_consumers(node_id):
            if dst not in times:
                continue
            use = times[dst] + edge.distance * ii
            end = max(end, use + 1)
        per_bank[bank].append(ValueLifetime(node_id, bank, start, end))
    return per_bank


def _accumulate(slots: List[int], start: int, end: int, ii: int) -> None:
    """Add one value instance spanning [start, end) to the per-slot counts."""
    length = max(1, end - start)
    base, rem = divmod(length, ii)
    if base:
        for slot in range(ii):
            slots[slot] += base
    anchor = start % ii
    for delta in range(rem):
        slots[(anchor + delta) % ii] += 1


def register_usage(
    graph: DepGraph,
    times: Dict[int, int],
    clusters: Dict[int, Optional[int]],
    ii: int,
    rf: RFConfig,
    latency_of: LatencyFn,
) -> Dict[int, int]:
    """MaxLive per register bank for the (partial) schedule.

    Returns a mapping ``bank -> registers`` covering every bank of the
    configuration (cluster banks by index, the shared bank under
    :data:`~repro.core.banks.SHARED`).
    """
    banks = all_banks(rf)
    slot_counts: Dict[int, List[int]] = {bank: [0] * ii for bank in banks}

    for bank, lifetimes in lifetimes_by_bank(graph, times, clusters, ii, rf, latency_of).items():
        for lifetime in lifetimes:
            _accumulate(slot_counts[bank], lifetime.start, lifetime.end, ii)

    # Loop invariants: one register for the whole loop in each bank used.
    for node in graph.live_in_nodes():
        for bank in live_in_banks(graph, node.node_id, clusters, rf):
            if bank in slot_counts:
                for slot in range(ii):
                    slot_counts[bank][slot] += 1

    return {bank: (max(slots) if slots else 0) for bank, slots in slot_counts.items()}
