"""The incremental-state scheduling engine behind every scheduler.

One engine drives both of the paper's schedulers; a
:class:`~repro.core.policy.PolicyBundle` decides the heuristics:

* **MIRS_HC** (``mirs_hc``): iterative modulo scheduling with
  force-and-eject backtracking, integrated communication insertion and
  two-level register spilling (paper, Figure 5);
* **the non-iterative baseline** (``non_iterative``): same substrate, but
  a placement that finds no free slot -- or would need to revisit an
  earlier decision -- abandons the attempt and restarts at II + 1
  (the comparison point of Table 4).

Register pressure is maintained *incrementally* by the
:class:`~repro.core.arraycore.ArrayPressureTracker` owned by each
:class:`~repro.core.partial.PartialSchedule`: the paper's per-node spill
check runs after **every** placement at full fidelity, and cluster
selection sees the exact current pressure instead of a stale copy.

The II search is a policy too: the default ``geometric_bisect`` walks
linearly for three restarts, accelerates geometrically, and -- once an
accelerated jump lands on a feasible II -- bisects back toward the last
failed II so acceleration can never overshoot the minimal achievable II.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.ddg.analysis import compute_mii
from repro.ddg.graph import DepGraph
from repro.ddg.loop import Loop
from repro.ddg.operations import OpType
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.resources import ResourceModel
from repro.core.analysis_cache import AnalysisCache
from repro.core.cluster_select import UNDECIDED, preassigned_cluster
from repro.core.communication import cleanup_after_eject, plan_communication
from repro.core.lifetimes import register_usage
from repro.core.partial import PartialSchedule, ScheduleInfeasible
from repro.core.policy import (
    FailureDiagnosis,
    PolicyBundle,
    cluster_policy,
    ii_search_policy,
    ordering_policy,
    resolve_bundle,
    spill_victim_policy,
)
from repro.core.priority import PriorityList
from repro.core.result import ScheduledOp, ScheduleResult
from repro.core.spill import SpillState, check_and_insert_spill

__all__ = ["SchedulerEngine"]


class _Counters:
    """Per-loop instrumentation accumulated across II attempts."""

    def __init__(self) -> None:
        self.pressure_checks: int = 0
        #: MRT window scans (first_free_cycle calls) across all attempts.
        self.slot_probes: int = 0
        #: Window scans answered by the reservation table's epoch memo.
        self.probe_memo_hits: int = 0
        #: Analysis products (RecMII, ResMII, priority order) served from
        #: the cross-II/cross-config cache instead of recomputed.
        self.analysis_reuses: int = 0


class SchedulerEngine:
    """Modulo scheduling engine with pluggable policies.

    Parameters
    ----------
    machine:
        Datapath description whose latencies are already scaled to the
        target configuration's clock (see
        :func:`repro.hwmodel.timing.scaled_machine`).
    rf:
        The register-file organization to schedule for.
    policy:
        A registered bundle name (``"mirs_hc"``, ``"non_iterative"``,
        ...) or an ad-hoc :class:`~repro.core.policy.PolicyBundle`.
    budget_ratio:
        Average number of scheduling attempts allowed per node before the
        current II is abandoned (the paper's ``Budget_Ratio``; only
        meaningful for backtracking bundles).
    max_ii:
        Hard upper bound on the II explored before giving up on a loop.
    analysis_cache:
        Optional :class:`~repro.core.analysis_cache.AnalysisCache`
        memoizing MII breakdowns and priority orders across loops,
        configs and engine instances.  Pure reuse of deterministic
        products -- results are bit-identical with and without it.
    """

    def __init__(
        self,
        machine: MachineConfig,
        rf: RFConfig,
        *,
        policy: Union[str, PolicyBundle] = "mirs_hc",
        budget_ratio: float = 6.0,
        max_ii: int = 512,
        analysis_cache: Optional[AnalysisCache] = None,
    ) -> None:
        machine.validate_rf(rf)
        self.machine = machine
        self.rf = rf
        self.resources = ResourceModel(machine, rf)
        self.budget_ratio = budget_ratio
        self.max_ii = max_ii
        #: Optional cross-II/cross-config memo for machine-independent
        #: analysis (MII breakdown, priority orders); ``None`` recomputes
        #: everything per loop, exactly as before.  The suite drivers
        #: pass the per-process shared instance
        #: (:func:`repro.core.analysis_cache.shared_analysis_cache`).
        self.analysis_cache = analysis_cache
        self.bundle = resolve_bundle(policy)
        self._order_nodes = ordering_policy(self.bundle.ordering)
        self._select_cluster = cluster_policy(self.bundle.cluster)
        self._victim_policy = spill_victim_policy(self.bundle.spill)
        self._ii_search_cls = ii_search_policy(self.bundle.ii_search)
        self._backtracking = self.bundle.backtracking
        self._check_registers = not (
            (rf.cluster_regs is None or rf.cluster_regs_unbounded)
            and (rf.shared_regs is None or rf.shared_regs_unbounded)
        )
        # Cluster selection only consumes register pressure when there is
        # an actual choice to score; for single-cluster and non-clustered
        # organizations the per-node query would be wasted work (and
        # would inflate n_pressure_checks with queries nothing consumed).
        self._cluster_choice_exists = rf.has_cluster_banks and rf.n_clusters > 1

    # ------------------------------------------------------------------ #
    def schedule_loop(self, loop: Loop) -> ScheduleResult:
        """Schedule one loop, searching upward from its MII."""
        started = time.perf_counter()
        search = self._ii_search_cls()
        counters = _Counters()
        attempted: List[int] = []
        # The MII breakdown and the scheduling order are pure functions of
        # the dependence graph and the machine, and every II attempt
        # starts from a fresh copy of the same graph -- so both are
        # computed once per loop and shared across attempts, and (when an
        # analysis cache is wired in) reused across loops and configs.
        if self.analysis_cache is not None:
            signature = loop.graph.structural_signature()
            breakdown, reused = self.analysis_cache.mii(
                loop.graph, self.resources, self.machine, self.rf,
                signature=signature,
            )
            counters.analysis_reuses += reused
            order, reused = self.analysis_cache.order(
                loop.graph, self.machine, self.bundle.ordering,
                self._order_nodes, signature=signature,
            )
            counters.analysis_reuses += reused
        else:
            breakdown = compute_mii(loop.graph, self.resources, self.machine.latency)
            order = self._order_nodes(loop.graph, self.machine.latency)

        best: Optional[Tuple[int, Tuple[DepGraph, PartialSchedule]]] = None
        last_failed: Optional[int] = None
        ii = breakdown.mii
        n_failures = 0
        diagnosed = False
        while ii <= self.max_ii:
            attempted.append(ii)
            attempt = self._try(loop, ii, counters, order)
            if attempt is not None:
                best = (ii, attempt)
                break
            last_failed = ii
            n_failures += 1
            if search.wants_diagnosis and not diagnosed:
                # The only certificate currently extracted is II-independent
                # (a zero-capacity resource requirement), so one diagnosis
                # per loop is enough.
                diagnosed = True
                search.observe_failure(self._diagnose(loop.graph, ii))
            ii = search.next_ii(ii, n_failures)

        # Refinement: an accelerated search that jumped over candidate IIs
        # bisects (last failed, feasible) to recover any smaller II the
        # jump skipped.  Feasibility is not strictly monotonic in the II
        # (the backtracking budget is a heuristic), so this is a
        # best-effort minimization, biased exactly like the plain linear
        # search it replaces.
        if (
            best is not None
            and last_failed is not None
            and search.refine_with_bisection
        ):
            lo, hi = last_failed, best[0]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                attempted.append(mid)
                attempt = self._try(loop, mid, counters, order)
                if attempt is not None:
                    hi = mid
                    best = (mid, attempt)
                else:
                    lo = mid

        elapsed = time.perf_counter() - started
        # Upward failures only (the documented "II had to be bumped"
        # count, matching the pre-refactor semantics): the bisection's
        # downward refinement probes are visible in attempted_iis but do
        # not inflate the restart count.
        restarts = n_failures
        if best is None:
            # The reported II is the last *tried* value; the audit note of
            # any range the II-search policy skipped goes after it, so the
            # trail reads "tried 3, 4; skipped 5.. because ...".
            failure_ii = attempted[-1] if attempted else breakdown.mii
            trail: List[Union[int, str]] = list(attempted)
            if search.skip_note:
                trail.append(search.skip_note)
            return ScheduleResult(
                loop_name=loop.name,
                config_name=self.rf.name,
                success=False,
                ii=failure_ii,
                mii=breakdown.mii,
                mii_breakdown=breakdown,
                stage_count=0,
                scheduling_time_s=elapsed,
                restarts=restarts,
                bound=breakdown.bound,
                attempted_iis=trail,
                n_pressure_checks=counters.pressure_checks,
                policy=self.bundle.name,
                n_slot_probes=counters.slot_probes,
                n_probe_memo_hits=counters.probe_memo_hits,
                n_analysis_reuses=counters.analysis_reuses,
            )
        graph, schedule = best[1]
        return self._build_result(
            loop, graph, schedule, breakdown, restarts, elapsed,
            attempted, counters,
        )

    # ------------------------------------------------------------------ #
    def _try(
        self, loop: Loop, ii: int, counters: _Counters, order: List[int]
    ) -> Optional[Tuple[DepGraph, PartialSchedule]]:
        try:
            return self._attempt(loop.graph.copy(), ii, counters, order)
        except ScheduleInfeasible:
            return None

    # ------------------------------------------------------------------ #
    def _diagnose(self, graph: DepGraph, ii: int) -> FailureDiagnosis:
        """Evidence extracted from a failed attempt at ``ii``."""
        detail = self._unschedulable_certificate(graph)
        if detail is not None:
            return FailureDiagnosis(
                ii=ii,
                reason="zero_capacity_resource",
                unschedulable_at_all_iis=True,
                detail=detail,
            )
        return FailureDiagnosis(ii=ii, reason="attempt_failed")

    def _unschedulable_certificate(self, graph: DepGraph) -> Optional[str]:
        """Proof (if any) that *no* II can schedule this loop here.

        Raising the II adds reservation-table rows but never resource
        instances, so an original operation that needs a resource with
        zero instances in **every** cluster it could legally be placed on
        can never be scheduled.  Only original nodes count as evidence:
        inserted communication/spill code is attempt-specific (a
        different II may simply not insert it), and a ``Move``'s source
        port follows its producer's mutable cluster.
        """
        resources = self.resources
        for node in graph.nodes():
            op = node.op
            if node.is_inserted or op is OpType.LIVE_IN or op.is_communication:
                continue
            fixed = preassigned_cluster(graph, node.node_id, self.rf)
            if fixed is UNDECIDED:
                candidates = range(self.rf.n_clusters)
            else:
                candidates = (fixed,)
            blocked_everywhere = True
            for cluster in candidates:
                if op.is_memory:
                    uses = resources.memory_uses(
                        cluster if cluster is not None and cluster >= 0 else 0
                    )
                elif op.is_compute:
                    uses = resources.compute_uses(
                        op.mnemonic, cluster if cluster is not None else 0
                    )
                else:  # pragma: no cover - all other op kinds filtered above
                    uses = []
                if not any(resources.count(use.key) <= 0 for use in uses):
                    blocked_everywhere = False
                    break
            if blocked_everywhere and candidates:
                return (
                    f"node {node.node_id} ({op.mnemonic}) requires a "
                    f"zero-capacity resource in every permissible cluster"
                )
        return None

    def _usage(
        self, schedule: PartialSchedule, counters: _Counters
    ) -> Optional[Dict[int, int]]:
        """Current per-bank pressure (None when banks are unbounded)."""
        if not self._check_registers:
            return None
        counters.pressure_checks += 1
        return schedule.pressure.usage()

    # ------------------------------------------------------------------ #
    def _attempt(
        self, graph: DepGraph, ii: int, counters: _Counters,
        order: Optional[List[int]] = None,
    ) -> Optional[Tuple[DepGraph, PartialSchedule]]:
        """One scheduling attempt at a fixed II (None = infeasible)."""
        schedule = PartialSchedule(
            graph, ii, self.machine, self.rf, self.resources,
            track_pressure=self._check_registers,
        )
        try:
            return self._run_attempt(graph, schedule, counters, order)
        finally:
            # Harvest per-attempt MRT instrumentation on every exit path
            # (success, infeasible return, ScheduleInfeasible raise).
            counters.slot_probes += schedule.mrt.n_probes
            counters.probe_memo_hits += schedule.mrt.n_memo_hits

    def _run_attempt(
        self, graph: DepGraph, schedule: PartialSchedule, counters: _Counters,
        order: Optional[List[int]] = None,
    ) -> Optional[Tuple[DepGraph, PartialSchedule]]:
        if order is None:
            order = self._order_nodes(graph, self.machine.latency)
        if not order:
            return graph, schedule
        priority = PriorityList(order)
        spill_state = SpillState()
        budget = self.budget_ratio * len(order)
        # Budget is replenished only for *net* graph growth (new spill or
        # communication nodes that were not there before): churn that
        # removes one communication node and inserts another must not keep
        # the budget alive forever.
        max_graph_size = len(graph)
        # Hard cap on scheduling steps, as a backstop against pathological
        # interactions between spilling and communication insertion.  The
        # non-iterative mode places every node at most once, so its cap
        # counts placements and only guards against spill-insertion loops.
        if self._backtracking:
            steps_left = int(self.budget_ratio * len(order) * 4) + 128
        else:
            steps_left = 8 * len(order) + 64

        def award_growth() -> float:
            nonlocal max_graph_size
            grown = len(graph) - max_graph_size
            if grown > 0:
                max_graph_size = len(graph)
                return self.budget_ratio * grown
            return 0.0

        while True:
            while priority:
                if steps_left <= 0:
                    return None
                if self._backtracking:
                    if budget <= 0:
                        return None
                    steps_left -= 1  # one step per popped node
                node_id = priority.pop()
                if node_id not in graph:
                    continue  # deleted by communication cleanup while pending

                usage = (
                    self._usage(schedule, counters)
                    if self._cluster_choice_exists
                    else None
                )
                cluster = self._select_cluster(
                    graph, schedule, node_id, self.rf, usage
                )

                new_comm, requeue = plan_communication(
                    graph, schedule, node_id, cluster, self.rf
                )
                if requeue and not self._backtracking:
                    # A non-iterative scheduler cannot revisit previous
                    # decisions; needing to do so means this II fails.
                    return None
                for stale in requeue:
                    priority.push(stale, after=node_id)
                budget += award_growth()
                failed = False
                for comm_node in new_comm:
                    if comm_node not in graph:
                        # Scheduling an earlier member of this chain ejected
                        # a neighbour whose cleanup deleted this one.
                        continue
                    home = graph.node(comm_node).home_cluster
                    if self._backtracking:
                        ejected = schedule.schedule(comm_node, home)
                        budget -= 1
                        self._handle_ejections(graph, schedule, ejected, priority)
                        if budget <= 0:
                            failed = True
                            break
                    else:
                        slot = schedule.find_slot(comm_node, home)
                        if slot is None:
                            return None
                        schedule.place(comm_node, slot, home)
                        steps_left -= 1  # one step per placement
                if failed:
                    return None

                if node_id not in graph:
                    # Scheduling the communication chain above ejected a
                    # neighbour whose cleanup deleted this very node (it
                    # was an inserted comm/spill op of the ejected owner).
                    continue
                if self._backtracking:
                    ejected = schedule.schedule(node_id, cluster)
                    budget -= 1
                    self._handle_ejections(graph, schedule, ejected, priority)
                else:
                    slot = schedule.find_slot(node_id, cluster)
                    if slot is None:
                        return None
                    schedule.place(node_id, slot, cluster)
                    steps_left -= 1

                if self._check_registers:
                    # The paper's integrated spill check, after *every*
                    # placement: with the incremental tracker each check
                    # costs O(affected lifetimes), so no throttling.  When
                    # the tracker says no bank is over capacity the spill
                    # pass would be a pure no-op (it skips every bank at
                    # or under capacity), so it is elided outright --
                    # any_over_capacity is O(banks) against maintained
                    # counters, versus the usage dict + sorted scan the
                    # no-op call would still have built.
                    counters.pressure_checks += 1
                    if schedule.pressure.any_over_capacity():
                        new_spill, _usage = check_and_insert_spill(
                            graph, schedule, self.rf, self.machine, spill_state,
                            victim_policy=self._victim_policy,
                        )
                        for spill_node in new_spill:
                            priority.push(spill_node, after=node_id)
                        budget += award_growth()

            # Priority list empty: re-check communication reservations.
            # A Move's source port follows its producer's cluster, and
            # both backtracking and communication-chain re-routing can
            # change that producer *after* the Move was placed -- leaving
            # the Move holding the right bus but the wrong source port,
            # invisible to the bank-consistency ejects above.  Re-queue
            # any such node so it re-reserves against today's graph.
            stale_comm = [
                n for n in schedule.times
                if n in graph
                and graph.node(n).op.is_communication
                and not schedule.reservation_matches(
                    n, schedule.uses_for(n, schedule.clusters.get(n))
                )
            ]
            if stale_comm:
                if not self._backtracking:
                    return None  # cannot revisit decisions: this II fails
                for n in sorted(stale_comm):
                    schedule.remove(n)
                    priority.push(n)
                continue

            # Final register-pressure check.  Counting discipline matches
            # the pre-gate code exactly: +1 for the over-capacity query,
            # one more for the spill pass when a bank is actually over.
            if not self._check_registers:
                break
            counters.pressure_checks += 1
            if not schedule.pressure.any_over_capacity():
                break
            counters.pressure_checks += 1
            new_spill, _usage = check_and_insert_spill(
                graph, schedule, self.rf, self.machine, spill_state,
                max_spills_per_call=4,
                victim_policy=self._victim_policy,
            )
            if not new_spill:
                return None  # pressure cannot be reduced at this II
            for spill_node in new_spill:
                priority.push(spill_node)
            budget += award_growth()

        return graph, schedule

    # ------------------------------------------------------------------ #
    def _handle_ejections(
        self,
        graph: DepGraph,
        schedule: PartialSchedule,
        ejected: Set[int],
        priority: PriorityList,
    ) -> None:
        """Re-queue ejected nodes and drop the communication code they owned."""
        for node_id in ejected:
            if node_id not in graph:
                continue
            node = graph.node(node_id)
            if not (node.is_inserted and node.op.is_communication):
                removed = cleanup_after_eject(graph, schedule, node_id)
                for removed_id in removed:
                    priority.discard(removed_id)
            if node_id in graph:
                priority.push(node_id)

    # ------------------------------------------------------------------ #
    def _build_result(
        self,
        loop: Loop,
        graph: DepGraph,
        schedule: PartialSchedule,
        breakdown,
        restarts: int,
        elapsed: float,
        attempted: List[int],
        counters: _Counters,
    ) -> ScheduleResult:
        assignments: Dict[int, ScheduledOp] = {}
        for node_id, cycle in schedule.times.items():
            assignments[node_id] = ScheduledOp(
                node_id=node_id,
                op=graph.node(node_id).op,
                cycle=cycle,
                cluster=schedule.clusters.get(node_id),
            )
        if schedule.pressure is not None:
            usage = schedule.pressure.usage()
            # The graph outlives the schedule inside the ScheduleResult
            # (and may be pickled by the evaluation cache): stop
            # observing it so the tracker dies with the attempt.
            schedule.pressure.detach()
            n_full_sweeps = 0
        else:
            # Unbounded banks: no tracker ran, so the reported usage
            # comes from the one full MaxLive sweep of the final schedule.
            usage = register_usage(
                graph, schedule.times, schedule.clusters, schedule.ii,
                self.rf, self.machine.latency,
            )
            n_full_sweeps = 1
        final_breakdown = compute_mii(graph, self.resources, self.machine.latency)
        n_spill_mem = sum(
            1 for op in graph.memory_operations() if op.is_spill
        )
        return ScheduleResult(
            loop_name=loop.name,
            config_name=self.rf.name,
            success=True,
            ii=schedule.ii,
            mii=breakdown.mii,
            mii_breakdown=breakdown,
            stage_count=schedule.stage_count(),
            assignments=assignments,
            graph=graph,
            register_usage=usage,
            memory_ops_per_iteration=len(graph.memory_operations()),
            n_spill_memory_ops=n_spill_mem,
            n_comm_ops=len(graph.communication_operations()),
            scheduling_time_s=elapsed,
            restarts=restarts,
            bound=final_breakdown.bound,
            attempted_iis=attempted,
            n_pressure_checks=counters.pressure_checks,
            n_full_sweeps=n_full_sweeps,
            policy=self.bundle.name,
            n_slot_probes=counters.slot_probes,
            n_probe_memo_hits=counters.probe_memo_hits,
            n_analysis_reuses=counters.analysis_reuses,
        )
