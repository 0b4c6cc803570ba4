"""Schedule result containers.

A :class:`ScheduleResult` is the unit of output of every scheduler in this
package: it carries the final initiation interval, the placement of every
operation (including the communication and spill operations the scheduler
inserted), the per-bank register usage, and the counters the evaluation
harness needs (memory traffic, communication operations, spill traffic,
scheduling wall time, and the loop-bound classification used by Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.ddg.analysis import MIIBreakdown
from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType

__all__ = ["ScheduledOp", "ScheduleResult"]


@dataclass(frozen=True)
class ScheduledOp:
    """Final placement of one operation."""

    node_id: int
    op: OpType
    cycle: int
    cluster: Optional[int]

    def stage(self, ii: int) -> int:
        """Which II-cycle stage of the kernel this operation issues in."""
        return self.cycle // ii


@dataclass
class ScheduleResult:
    """The outcome of scheduling one loop on one configuration."""

    loop_name: str
    config_name: str
    success: bool
    ii: int
    mii: int
    mii_breakdown: MIIBreakdown
    stage_count: int
    assignments: Dict[int, ScheduledOp] = field(default_factory=dict)
    graph: Optional[DepGraph] = None
    register_usage: Dict[int, int] = field(default_factory=dict)
    #: Loads + stores per iteration of the final loop body (the paper's
    #: ``trf``), including spill accesses.
    memory_ops_per_iteration: int = 0
    #: Spill loads/stores to memory inserted by the register allocator.
    n_spill_memory_ops: int = 0
    #: Communication operations in the final body (Move, LoadR, StoreR),
    #: including the LoadR/StoreR introduced by spilling to the shared bank.
    n_comm_ops: int = 0
    #: Wall-clock seconds the scheduler needed for this loop.
    scheduling_time_s: float = 0.0
    #: How many times the II had to be bumped before a schedule was found.
    restarts: int = 0
    #: Classification of the final schedule (fu / mem / rec / com), based on
    #: the binding lower bound of the final dependence graph.
    bound: str = "fu"
    #: Every II the search actually attempted, in attempt order (includes
    #: the bisection refinement of an accelerated search).  On failure,
    #: ``ii`` above is the *last II tried*, not the search ceiling.  An
    #: II-search policy that ruled a range out without trying it appends
    #: one ``"skipped:<from>..:<why>"`` string as its audit trail (see
    #: :class:`repro.core.policy.InformedIISearch`).
    attempted_iis: List[Union[int, str]] = field(default_factory=list)
    #: Register-pressure queries the scheduler issued while building the
    #: schedule (the paper's per-node spill checks plus the pressure input
    #: of cluster selection).
    n_pressure_checks: int = 0
    #: Full-graph MaxLive sweeps spent on this loop: bounded banks are
    #: tracked incrementally (0); with unbounded banks no tracker runs and
    #: a successful schedule's usage comes from one final sweep (1).
    n_full_sweeps: int = 0
    #: Name of the policy bundle that produced this schedule.
    policy: str = "mirs_hc"
    #: Process-local perf telemetry (NOT serialized -- see
    #: :mod:`repro.serialize`): the analysis reuses depend on what the
    #: process scheduled before, and the serialized payloads feed the
    #: schedule digests, which must not.
    #: MRT window scans (``first_free_cycle`` calls) across all attempts.
    n_slot_probes: int = 0
    #: Window scans answered by the reservation table's epoch-stamped memo.
    n_probe_memo_hits: int = 0
    #: Analysis products (RecMII, ResMII components, priority order)
    #: served from the cross-II/cross-config analysis cache.
    n_analysis_reuses: int = 0

    @property
    def achieved_mii(self) -> bool:
        """True when the loop was scheduled at its minimum initiation interval."""
        return self.success and self.ii == self.mii

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of this result (see :mod:`repro.serialize`).

        The final dependence graph and every placement survive the round
        trip, so a schedule can cross process and wire boundaries and
        still be validated, rendered or diffed on the other side.
        """
        from repro import serialize

        return serialize.schedule_result_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScheduleResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro import serialize

        return serialize.schedule_result_from_dict(payload)

    def cycle_of(self, node_id: int) -> int:
        return self.assignments[node_id].cycle

    def cluster_of(self, node_id: int) -> Optional[int]:
        return self.assignments[node_id].cluster

    def kernel_table(self) -> str:
        """Readable kernel table: one line per modulo slot with its operations."""
        if not self.assignments:
            return "(empty schedule)"
        rows: Dict[int, list] = {slot: [] for slot in range(self.ii)}
        for placed in self.assignments.values():
            label = f"{placed.op.mnemonic}#{placed.node_id}"
            if placed.cluster is not None and placed.cluster >= 0:
                label += f"@c{placed.cluster}"
            rows[placed.cycle % self.ii].append((placed.cycle, label))
        lines = [f"II={self.ii} SC={self.stage_count} ({self.config_name}, {self.loop_name})"]
        for slot in range(self.ii):
            entries = ", ".join(label for _, label in sorted(rows[slot]))
            lines.append(f"  slot {slot:3d}: {entries}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line summary used by examples and logs."""
        status = "ok" if self.success else "FAILED"
        return (
            f"{self.loop_name} on {self.config_name}: {status} II={self.ii} "
            f"(MII={self.mii}) SC={self.stage_count} regs={self.register_usage} "
            f"comm={self.n_comm_ops} spill_mem={self.n_spill_memory_ops}"
        )
