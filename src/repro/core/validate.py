"""Independent validity checker for modulo schedules.

The scheduler is complex (backtracking, communication insertion, two-level
spilling), so the test suite never trusts its output blindly: every
schedule produced in the tests is re-checked by this module, which knows
nothing about how the schedule was constructed and simply verifies the
definition of a valid modulo schedule:

1. every non-pseudo operation of the final graph is placed exactly once;
2. every dependence ``u -> v`` with distance ``d`` satisfies
   ``t(v) + d*II >= t(u) + latency(u, edge kind)``;
3. no resource (functional units, memory ports, LoadR/StoreR ports, buses)
   is oversubscribed in any of the II modulo slots;
4. every operand is read from the bank that actually holds it (bank
   consistency of the clustered / hierarchical organization); and
5. no register bank uses more registers (MaxLive) than it has, unless the
   bank is unbounded.

Deliberately, this module does **not** use the scheduler's incremental
state: resources are replayed into a from-scratch
:class:`~repro.core.mrt.ModuloReservationTable`, and the register-capacity
check is a from-scratch :func:`~repro.core.lifetimes.register_usage`
sweep (the replay probe below writes ``times`` directly, bypassing the
tracked placement path), so a bug in
:class:`~repro.core.arraycore.ArrayMRT` or
:class:`~repro.core.arraycore.ArrayPressureTracker` cannot validate its
own output.  The lockstep tests in ``tests/test_core_equivalence.py`` and
the hypothesis oracle in ``tests/test_properties.py`` hold each pair
equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.resources import ResourceModel
from repro.core.banks import SHARED, bank_capacity, read_bank, value_bank
from repro.core.lifetimes import register_usage
from repro.core.mrt import ModuloReservationTable
from repro.core.partial import PartialSchedule
from repro.core.result import ScheduleResult

__all__ = ["ValidationError", "validate_schedule"]


class ValidationError(AssertionError):
    """Raised when a schedule violates one of the modulo-schedule invariants.

    ``reproducer`` (when given) is a ready-to-run command that replays
    the failing scheduling problem locally (the fuzz driver supplies
    one); it is appended to the message so any CI failure is one
    copy-paste away from a local debug session.
    """

    def __init__(self, message: str, *, reproducer: Optional[str] = None) -> None:
        self.reproducer = reproducer
        if reproducer:
            message = f"{message}\n  reproduce: {reproducer}"
        super().__init__(message)


def validate_schedule(
    result: ScheduleResult,
    machine: MachineConfig,
    rf: RFConfig,
    *,
    check_registers: bool = True,
    reproducer: Optional[str] = None,
) -> None:
    """Raise :class:`ValidationError` if the schedule is invalid.

    ``reproducer`` is attached to any error raised, embedding the replay
    command in the failure message.
    """
    try:
        _validate_schedule(result, machine, rf, check_registers=check_registers)
    except ValidationError as exc:
        if reproducer and exc.reproducer is None:
            raise ValidationError(str(exc), reproducer=reproducer) from None
        raise


def _validate_schedule(
    result: ScheduleResult,
    machine: MachineConfig,
    rf: RFConfig,
    *,
    check_registers: bool = True,
) -> None:
    if not result.success:
        raise ValidationError(f"schedule for {result.loop_name} did not succeed")
    graph = result.graph
    if graph is None:
        raise ValidationError("schedule result carries no final graph")
    ii = result.ii
    times: Dict[int, int] = {}
    clusters: Dict[int, Optional[int]] = {}

    # 1. Completeness.
    for node in graph.nodes():
        if node.op is OpType.LIVE_IN:
            continue
        if node.node_id not in result.assignments:
            raise ValidationError(
                f"operation {node.node_id} ({node.op.mnemonic}) is not scheduled"
            )
        placed = result.assignments[node.node_id]
        times[node.node_id] = placed.cycle
        clusters[node.node_id] = placed.cluster
        if placed.cycle < 0:
            raise ValidationError(f"operation {node.node_id} scheduled at negative cycle")

    # 2. Dependences.
    def latency_of(mnemonic: str) -> int:
        return machine.latency(mnemonic)

    for edge in graph.edges():
        if graph.node(edge.src).op is OpType.LIVE_IN:
            continue
        if edge.src not in times or edge.dst not in times:
            continue
        latency = graph.edge_latency(edge, latency_of)
        lhs = times[edge.dst] + edge.distance * ii
        rhs = times[edge.src] + latency
        if lhs < rhs:
            raise ValidationError(
                f"dependence {edge.src}->{edge.dst} (distance {edge.distance}, "
                f"latency {latency}) violated: t({edge.dst})={times[edge.dst]}, "
                f"t({edge.src})={times[edge.src]}, II={ii}"
            )

    # 3. Resources: rebuild a reservation table from scratch.
    resources = ResourceModel(machine, rf)
    table = ModuloReservationTable(ii, resources.counts)
    probe = PartialSchedule(graph, ii, machine, rf, resources)
    # Replay cluster assignments first so Move source clusters resolve.
    probe.times = dict(times)
    probe.clusters = dict(clusters)
    for node_id, cycle in times.items():
        uses = probe.uses_for(node_id, clusters[node_id])
        if not uses:
            continue
        if not table.can_reserve(uses, cycle):
            raise ValidationError(
                f"resource oversubscription when replaying operation {node_id} "
                f"({graph.node(node_id).op.mnemonic}) at cycle {cycle}"
            )
        table.reserve(node_id, uses, cycle)

    # 4. Bank consistency.
    for edge in graph.edges():
        if edge.kind != "flow":
            continue
        src_node = graph.node(edge.src)
        if src_node.op is OpType.LIVE_IN:
            continue  # invariants are resident wherever they are needed
        if edge.src not in times or edge.dst not in times:
            continue
        src_bank = value_bank(graph, edge.src, clusters[edge.src], rf)
        dst_bank = read_bank(graph, edge.dst, clusters[edge.dst], rf)
        if src_bank is None or dst_bank is None:
            continue
        if graph.node(edge.dst).op is OpType.MOVE:
            continue  # a Move reads the producer's bank by construction
        if src_bank != dst_bank:
            raise ValidationError(
                f"bank mismatch on {edge.src}->{edge.dst}: value lives in "
                f"{src_bank} but consumer reads bank {dst_bank}"
            )

    # 5. Register capacity.
    if check_registers:
        usage = register_usage(graph, times, clusters, ii, rf, latency_of)
        for bank, used in usage.items():
            capacity = bank_capacity(rf, bank)
            if used > capacity:
                raise ValidationError(
                    f"bank {bank} uses {used} registers but only has {capacity}"
                )
