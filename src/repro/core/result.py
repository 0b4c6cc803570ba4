"""Schedule result containers.

A :class:`ScheduleResult` is the unit of output of every scheduler in this
package: it carries the final initiation interval, the placement of every
operation (including the communication and spill operations the scheduler
inserted), the per-bank register usage, and the counters the evaluation
harness needs (memory traffic, communication operations, spill traffic,
scheduling wall time, and the loop-bound classification used by Table 1).

A result restored from a payload or a pickle keeps its final dependence
graph and its placements in stored form and builds each only when
``graph`` or ``assignments`` is first read: most readers of a restored
run (digests, tables, run rows) use only the scalar fields, and a
digest re-encodes the stored forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.ddg.analysis import MIIBreakdown
from repro.ddg.graph import DepGraph
from repro.ddg.operations import OP_VALUES, OpType

__all__ = ["ScheduledOp", "ScheduleResult", "check_assignments_json"]


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


#: One placement in stored form: ``(node, op value, cycle, cluster)``.
Placement = Tuple[int, str, int, Optional[int]]


def _build_graph(stored: Union[Dict, Tuple]) -> DepGraph:
    """A graph from its stored form: a JSON payload or a pickle state tuple."""
    if isinstance(stored, dict):
        from repro.verify.corpus import graph_from_json

        return graph_from_json(stored)
    graph = DepGraph.__new__(DepGraph)
    graph.__setstate__(stored)
    return graph


def _is_json_entries(stored: List) -> bool:
    """Whether stored placements are a payload's entry dicts (else tuples)."""
    return not stored or isinstance(stored[0], dict)


def _placement_tuples(stored: List) -> List[Placement]:
    """Stored placements -- a payload's ``{"node", "op", "cycle",
    "cluster"}`` entries or pickled tuples -- as :data:`Placement` tuples."""
    if _is_json_entries(stored):
        return [
            (entry["node"], entry["op"], entry["cycle"], entry["cluster"])
            for entry in stored
        ]
    return stored


def _build_assignments(stored: List) -> Dict[int, ScheduledOp]:
    return {
        node: ScheduledOp(node, OpType(op), cycle, cluster)
        for node, op, cycle, cluster in _placement_tuples(stored)
    }


def check_assignments_json(entries: object) -> None:
    """Raise unless ``entries`` are placements as
    :func:`repro.serialize.schedule_result_to_dict` writes them.

    Builds nothing: a decoded result keeps the entries and re-encodes
    them verbatim (see :meth:`ScheduleResult.assignments_json`), so
    anything but the canonical form is refused -- an entry that is not a
    dict of exactly ``node``, ``op``, ``cycle`` and ``cluster``, an
    unknown op, a ``node`` or ``cycle`` that is not an ``int``, a
    ``cluster`` that is neither an ``int`` nor ``None``, and node ids
    that repeat or are out of order.  Raises ``ValueError``, ``KeyError``
    for a missing key, or ``TypeError`` when ``entries`` is not a list.
    """
    if not isinstance(entries, list):
        raise TypeError(f"assignments must be a list, got {type(entries).__name__}")
    previous = float("-inf")
    for entry in entries:
        # Four keys, each looked up below: exactly the canonical ones.
        if not isinstance(entry, dict) or len(entry) != 4:
            raise ValueError(f"placement {entry!r} is not a node/op/cycle/cluster entry")
        node, cycle, cluster = entry["node"], entry["cycle"], entry["cluster"]
        # type() is int, not isinstance: JSON true would pass as 1.
        if type(node) is not int or type(cycle) is not int or not (
            cluster is None or type(cluster) is int
        ):
            raise ValueError(f"placement {entry!r} holds a non-integer field")
        if entry["op"] not in OP_VALUES:
            raise ValueError(f"placement {entry!r} has an unknown op")
        if node <= previous:
            raise ValueError(f"placement node ids are not increasing at {node}")
        previous = node


class _Deferred:
    """A field of :class:`ScheduleResult` held in stored form until first read.

    The instance dict holds the built value under the field's name and,
    while it is unbuilt, its stored form under ``_stored_<name>``; the
    first read builds the value with ``build`` and drops the stored form,
    and assigning the field drops it too.  With ``empty``, assigning
    ``None`` (the field's default) stores ``empty()``, so a result made
    without placements holds an empty dict.  A data descriptor on the
    result, not laziness on :class:`DepGraph`: a class-level
    ``__getattr__`` would slow every attribute load of the scheduler's
    hottest object.
    """

    def __init__(
        self, build: Callable, empty: Optional[Callable[[], object]] = None
    ) -> None:
        self.build = build
        self.empty = empty

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.stored = f"_stored_{name}"

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass field's default
        state = result.__dict__
        stored = state[self.stored]
        if stored is not None:
            state[self.name] = self.build(stored)
            state[self.stored] = None
        return state[self.name]

    def __set__(self, result, value) -> None:
        if value is None and self.empty is not None:
            value = self.empty()
        state = result.__dict__
        state[self.name] = value
        state[self.stored] = None


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
    #: Placement of every operation by node id (an empty dict when not
    #: given); built on first read for a restored result.
    assignments: Dict[int, ScheduledOp] = _Deferred(_build_assignments, dict)
    #: The final dependence graph (inserted spill and communication
    #: nodes included); built on first read for a restored result.
    graph: Optional[DepGraph] = _Deferred(_build_graph)
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
    #: Process-local perf telemetry, like ``n_slot_probes`` below (NOT
    #: serialized, reads 0 on a result rebuilt from its payload):
    #: register-pressure queries the scheduler issued while building the
    #: schedule (the paper's per-node spill checks plus the pressure input
    #: of cluster selection).
    n_pressure_checks: int = 0
    #: Process-local telemetry: full-graph MaxLive sweeps spent on this
    #: loop.  Bounded banks are tracked incrementally (0); with unbounded
    #: banks no tracker runs and a successful schedule's usage comes from
    #: one final sweep (1).
    n_full_sweeps: int = 0
    #: Name of the policy bundle that produced this schedule.
    policy: str = "mirs_hc"
    #: Process-local perf telemetry (NOT serialized -- see
    #: :mod:`repro.serialize`): these fields and the two counters above
    #: measure the scheduler's work, and the serialized payloads feed the
    #: schedule digests, which pin the schedule and must not move when
    #: the same schedule is found with less work.
    #: MRT window scans (``first_free_cycle`` calls) across all attempts.
    n_slot_probes: int = 0
    #: Window scans answered by the reservation table's epoch-stamped memo.
    n_probe_memo_hits: int = 0
    #: Analysis products (RecMII, ResMII components, priority order)
    #: served from the cross-II/cross-config analysis cache.
    n_analysis_reuses: int = 0

    def defer(self, graph: Optional[Dict], assignments: List[Dict]) -> None:
        """Hold a payload's graph (a
        :func:`~repro.verify.corpus.graph_to_json` form) and placement
        entries as this result's ``graph`` and ``assignments``, each
        built on its first read.  The caller vouches that both build
        (see :func:`~repro.verify.corpus.check_graph_json` and
        :func:`check_assignments_json`)."""
        state = self.__dict__
        state["graph"] = None
        state["_stored_graph"] = graph
        state["assignments"] = None
        state["_stored_assignments"] = assignments

    def graph_json(self) -> Optional[Dict]:
        """The graph's :func:`~repro.verify.corpus.graph_to_json` payload.

        An unread stored graph is not built: a decoded payload is
        returned as is, and a pickled state tuple is encoded directly.
        """
        from repro.verify.corpus import graph_state_to_json

        stored = self.__dict__["_stored_graph"]
        if isinstance(stored, dict):
            return stored
        if stored is None:
            graph = self.graph
            if graph is None:
                return None
            stored = graph.__getstate__()
        return graph_state_to_json(stored)

    def _placements(self) -> List[Placement]:
        """Every placement as a node-sorted :data:`Placement` tuple.

        Unread stored placements are converted, not built into
        :class:`ScheduledOp` objects.
        """
        stored = self.__dict__["_stored_assignments"]
        if stored is not None:
            return _placement_tuples(stored)
        return [
            (placed.node_id, placed.op.value, placed.cycle, placed.cluster)
            for placed in sorted(
                self.__dict__["assignments"].values(), key=attrgetter("node_id")
            )
        ]

    def assignments_json(self) -> List[Dict]:
        """The node-sorted ``{"node", "op", "cycle", "cluster"}`` entries
        of :func:`repro.serialize.schedule_result_to_dict`.

        A result decoded from a payload whose placements were never read
        returns the stored entries themselves.
        """
        stored = self.__dict__["_stored_assignments"]
        if stored is not None and _is_json_entries(stored):
            return stored
        return [
            {"node": node, "op": op, "cycle": cycle, "cluster": cluster}
            for node, op, cycle, cluster in self._placements()
        ]

    def __getstate__(self) -> Dict:
        """Pickle the graph and the placements in compact stored form, to
        be built on first read after unpickling: a built graph as its
        state tuple, placements as node-sorted :data:`Placement` tuples
        (the default ``__setstate__`` restores the dict as is)."""
        state = dict(self.__dict__)
        graph = state["graph"]
        if graph is not None:
            state["graph"] = None
            state["_stored_graph"] = graph.__getstate__()
        state["assignments"] = None
        state["_stored_assignments"] = self._placements()
        return state

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
