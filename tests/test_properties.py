"""Property-based tests (hypothesis) on core data structures and invariants.

These tests generate random dependence graphs, register-file
configurations and reservation-table workloads, and check the invariants
that the rest of the system relies on:

* the MII is a true lower bound: every schedule the scheduler produces has
  ``II >= RecMII`` of its own graph and passes the independent validator;
* MaxLive accounting never loses a value and scales with loop-carried
  distances;
* the modulo reservation table never oversubscribes a resource;
* unrolling preserves the per-original-iteration work of a loop;
* the engine's spill-port exit only cuts short II attempts that fail
  anyway.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import MirsHC, validate_schedule
from repro.core.engine import SchedulerEngine
from repro.core.lifetimes import register_usage
from repro.core.mrt import ModuloReservationTable
from repro.core.banks import SHARED
from repro.ddg import DepGraph, OpType, compute_mii, unroll
from repro.ddg.analysis import heights, rec_mii
from repro.hwmodel import scaled_machine
from repro.machine import MachineConfig, RFConfig, ResourceModel, baseline_machine, config_by_name
from repro.machine.resources import ResourceKind, ResourceUse
from repro.verify.corpus import load_case
from repro.workloads.generator import PROFILES, generate_loop

MACHINE = MachineConfig()

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
profile_names = st.sampled_from(sorted(PROFILES))
seeds = st.integers(min_value=0, max_value=10_000)


def generated_loop(profile: str, seed: int):
    """The generated loop :func:`random_loops` draws for ``(profile, seed)``."""
    rng = np.random.default_rng(seed)
    return generate_loop(rng, PROFILES[profile], index=0, name=f"hyp_{seed}")


@st.composite
def random_loops(draw):
    """A random generated loop (dependence graph + metadata)."""
    return generated_loop(draw(profile_names), draw(seeds))


@st.composite
def random_dags(draw):
    """A small random acyclic dependence graph of compute ops."""
    n = draw(st.integers(min_value=2, max_value=12))
    graph = DepGraph()
    kinds = [OpType.FADD, OpType.FMUL]
    nodes = [graph.add_node(draw(st.sampled_from(kinds))) for _ in range(n)]
    for i in range(1, n):
        n_preds = draw(st.integers(min_value=0, max_value=min(2, i)))
        preds = draw(
            st.lists(st.integers(min_value=0, max_value=i - 1),
                     min_size=n_preds, max_size=n_preds, unique=True)
        )
        for p in preds:
            graph.add_edge(nodes[p], nodes[i])
    return graph, nodes


hypothesis_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# Graph / analysis properties
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @given(random_loops())
    @hypothesis_settings
    def test_generated_loops_are_well_formed(self, loop):
        graph = loop.graph
        # No zero-distance cycles (heights() would raise).
        heights(graph, MACHINE.latency)
        # Every load has a consumer; every edge endpoint exists.
        for op in graph.memory_operations():
            if op.op is OpType.LOAD:
                assert graph.successors(op.node_id)
        for edge in graph.edges():
            assert edge.src in graph and edge.dst in graph

    @given(random_loops())
    @hypothesis_settings
    def test_mii_is_positive_and_rec_consistent(self, loop):
        resources = ResourceModel(MACHINE, RFConfig.parse("S128"))
        breakdown = compute_mii(loop.graph, resources, MACHINE.latency)
        assert breakdown.mii >= 1
        assert breakdown.mii >= breakdown.rec
        assert breakdown.mii >= breakdown.res_mem

    @given(random_dags())
    @hypothesis_settings
    def test_copy_preserves_structure(self, graph_and_nodes):
        graph, _ = graph_and_nodes
        clone = graph.copy()
        assert len(clone) == len(graph)
        assert clone.n_edges() == graph.n_edges()
        assert sorted(n.op.mnemonic for n in clone.nodes()) == sorted(
            n.op.mnemonic for n in graph.nodes()
        )

    @given(random_dags(), st.integers(min_value=1, max_value=3))
    @hypothesis_settings
    def test_rec_mii_scales_with_distance(self, graph_and_nodes, distance):
        graph, nodes = graph_and_nodes
        graph.add_edge(nodes[-1], nodes[0], distance=distance)
        value = rec_mii(graph, MACHINE.latency)
        double = DepGraph()
        # RecMII with distance d is at least RecMII with distance 2d.
        graph2 = graph.copy()
        graph2.remove_edge(nodes[-1], nodes[0])
        graph2.add_edge(nodes[-1], nodes[0], distance=2 * distance)
        assert rec_mii(graph2, MACHINE.latency) <= value


# --------------------------------------------------------------------------- #
# Unrolling properties
# --------------------------------------------------------------------------- #
class TestUnrollProperties:
    @given(random_loops(), st.integers(min_value=2, max_value=4))
    @hypothesis_settings
    def test_unroll_preserves_work(self, loop, factor):
        unrolled = unroll(loop, factor)
        original_ops = sum(1 for op in loop.graph.nodes() if not op.op.is_pseudo)
        unrolled_ops = sum(1 for op in unrolled.graph.nodes() if not op.op.is_pseudo)
        assert unrolled_ops == factor * original_ops
        # No zero-distance cycles are introduced.
        heights(unrolled.graph, MACHINE.latency)

    @given(random_loops(), st.integers(min_value=2, max_value=4))
    @hypothesis_settings
    def test_unroll_work_per_original_iteration_not_reduced(self, loop, factor):
        resources = ResourceModel(MACHINE, RFConfig.parse("S128"))
        original = compute_mii(loop.graph, resources, MACHINE.latency)
        unrolled = compute_mii(unroll(loop, factor).graph, resources, MACHINE.latency)
        # The unrolled body does `factor` original iterations, so its MII
        # must be at least the original MII (it cannot get cheaper per
        # original iteration than the resource bound allows).
        assert unrolled.mii >= original.mii


# --------------------------------------------------------------------------- #
# Reservation-table properties
# --------------------------------------------------------------------------- #
class TestMRTProperties:
    @given(
        st.integers(min_value=1, max_value=8),           # II
        st.integers(min_value=1, max_value=3),           # capacity
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
    )
    @hypothesis_settings
    def test_never_oversubscribed(self, ii, capacity, cycles):
        key = (ResourceKind.FU, 0)
        table = ModuloReservationTable(ii, {key: capacity})
        per_slot = {s: 0 for s in range(ii)}
        for node_id, cycle in enumerate(cycles):
            use = [ResourceUse(key)]
            if table.can_reserve(use, cycle):
                table.reserve(node_id, use, cycle)
                per_slot[cycle % ii] += 1
        assert all(count <= capacity for count in per_slot.values())
        util = table.utilization()[key]
        assert 0.0 <= util <= 1.0

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 20)), min_size=1, max_size=15),
    )
    @hypothesis_settings
    def test_release_restores_capacity(self, ii, reservations):
        key = (ResourceKind.MEM, SHARED)
        table = ModuloReservationTable(ii, {key: 1})
        placed = []
        for node_id, (cycle, duration) in enumerate(reservations):
            use = [ResourceUse(key, duration=duration)]
            if table.can_reserve(use, cycle):
                table.reserve(node_id, use, cycle)
                placed.append(node_id)
        for node_id in placed:
            table.release(node_id)
        # After releasing everything the table is empty again.
        assert table.can_reserve([ResourceUse(key)], 0)
        assert table.utilization()[key] == 0.0


# --------------------------------------------------------------------------- #
# Register-pressure properties
# --------------------------------------------------------------------------- #
class TestPressureProperties:
    @given(random_loops(), st.integers(min_value=1, max_value=6))
    @hypothesis_settings
    def test_maxlive_counts_every_scheduled_value(self, loop, ii):
        graph = loop.graph
        rf = RFConfig.parse("S128")
        times = {}
        clusters = {}
        cycle = 0
        for node in graph.nodes():
            if node.op.is_pseudo:
                continue
            times[node.node_id] = cycle
            clusters[node.node_id] = 0 if node.op.is_compute else None
            cycle += 1
        usage = register_usage(graph, times, clusters, ii, rf, MACHINE.latency)
        assert usage[SHARED] >= 1
        # MaxLive never exceeds the sum of per-value instance counts (each
        # value contributes at most ceil(lifetime / II) concurrent copies)
        # plus one register per live-in value.
        from repro.core.lifetimes import lifetimes_by_bank

        per_bank = lifetimes_by_bank(graph, times, clusters, ii, rf, MACHINE.latency)
        upper = sum(
            -(-lifetime.length // ii) for lifetime in per_bank.get(SHARED, [])
        ) + len(graph.live_in_nodes())
        assert usage[SHARED] <= upper


# --------------------------------------------------------------------------- #
# Incremental pressure tracker: differential oracle
# --------------------------------------------------------------------------- #
class TestPressureTrackerProperties:
    """The tracker must equal a from-scratch MaxLive recompute, always.

    The engine trusts :class:`~repro.core.arraycore.ArrayPressureTracker`
    for every spill check; this oracle drives a partial schedule through arbitrary
    place / eject / spill / cleanup sequences (including the graph edits
    spilling and communication insertion perform) and asserts after every
    step that the incremental state matches ``register_usage`` recomputed
    from scratch.
    """

    @given(
        random_loops(),
        st.sampled_from(["S32", "2C32S32", "4C16S16", "4C32"]),
        st.integers(min_value=2, max_value=9),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 10_000)),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tracker_equals_full_recompute(self, loop, config_name, ii, actions):
        from repro.core.communication import cleanup_after_eject, plan_communication
        from repro.core.cluster_select import select_cluster
        from repro.core.partial import PartialSchedule
        from repro.core.spill import SpillState, check_and_insert_spill
        from repro.machine import ResourceModel

        rf = config_by_name(config_name)
        machine, _ = scaled_machine(baseline_machine(), rf)
        graph = loop.graph.copy()
        schedule = PartialSchedule(
            graph, ii, machine, rf, ResourceModel(machine, rf),
            track_pressure=True,
        )
        spill_state = SpillState()

        def oracle():
            usage = schedule.pressure.usage()
            fresh = register_usage(
                graph, schedule.times, schedule.clusters, ii, rf, machine.latency
            )
            assert usage == fresh, f"tracker {usage} != recompute {fresh}"
            # The tracked lifetimes must match the full sweep as well
            # (they feed spill-victim selection).
            from repro.core.lifetimes import lifetimes_by_bank

            tracked = {
                bank: sorted(lts)
                for bank, lts in schedule.pressure.lifetimes_by_bank().items()
            }
            swept = {
                bank: sorted(lts)
                for bank, lts in lifetimes_by_bank(
                    graph, schedule.times, schedule.clusters, ii, rf, machine.latency
                ).items()
            }
            assert tracked == swept

        oracle()
        for action, pick in actions:
            schedulable = [
                n.node_id for n in graph.nodes()
                if not n.op.is_pseudo and n.node_id not in schedule.times
            ]
            scheduled = sorted(schedule.times)
            if action == 0 and schedulable:
                # Place a node (with communication planning and possible
                # force-and-eject, exactly like the engine does).
                node_id = schedulable[pick % len(schedulable)]
                cluster = select_cluster(graph, schedule, node_id, rf,
                                         schedule.pressure.usage())
                new_comm, _requeue = plan_communication(
                    graph, schedule, node_id, cluster, rf
                )
                for comm_node in new_comm:
                    if comm_node not in graph:
                        continue
                    schedule.schedule(comm_node, graph.node(comm_node).home_cluster)
                if node_id in graph:
                    schedule.schedule(node_id, cluster)
            elif action == 1 and scheduled:
                # Eject a node and clean up the communication it owned.
                node_id = scheduled[pick % len(scheduled)]
                schedule.remove(node_id)
                cleanup_after_eject(graph, schedule, node_id)
            elif action == 2:
                # Run the spill check (may insert spill code = graph edits).
                check_and_insert_spill(graph, schedule, rf, spill_state)
            oracle()


# --------------------------------------------------------------------------- #
# End-to-end scheduling properties
# --------------------------------------------------------------------------- #
class TestSchedulerProperties:
    @given(random_loops(), st.sampled_from(["S64", "2C64", "2C32S32", "4C16S16"]))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_schedules_are_always_valid(self, loop, config_name):
        rf = config_by_name(config_name)
        machine, _ = scaled_machine(baseline_machine(), rf)
        result = MirsHC(machine, rf).schedule_loop(loop)
        assert result.success
        assert result.ii >= result.mii
        validate_schedule(result, machine, rf)


# --------------------------------------------------------------------------- #
# The engine's spill-port exit cuts only doomed attempts short
# --------------------------------------------------------------------------- #
CORPUS_DIR = Path(__file__).parent / "corpus"


def spy_on_spill_port_exit(engine: SchedulerEngine, *, cut: bool):
    """Record, per II attempt, whether the spill-port exit fired and the outcome.

    Returns a list that gets one ``(ii, fired, failed)`` entry per
    attempt.  With ``cut=False`` the exit still reports each firing but
    never ends the attempt, so the attempt runs to its natural end.
    """
    attempts = []
    fired = [False]
    exhausted = engine._spill_ports_exhausted
    attempt = engine._try

    def spy_exhausted(demand, ii):
        verdict = exhausted(demand, ii)
        fired[0] = fired[0] or verdict
        return verdict and cut

    def spy_try(loop, ii, counters, order):
        fired[0] = False
        outcome = attempt(loop, ii, counters, order)
        attempts.append((ii, fired[0], outcome is None))
        return outcome

    engine._spill_ports_exhausted = spy_exhausted
    engine._try = spy_try
    return attempts


def _schedule_payload(result) -> str:
    payload = result.to_dict()
    payload["scheduling_time_s"] = 0.0
    return repr(payload)


class TestSpillPortExit:
    @given(
        random_loops(),
        st.sampled_from(["4C16S16", "8C16S16", "4C32", "S64"]),
        st.sampled_from(["mirs_hc", "non_iterative"]),
    )
    # Loops on which counting communication LoadRs as spill demand (an
    # unsound exit) cuts short an attempt that succeeds when run to its end.
    @example(generated_loop("balanced", 35), "4C16S16", "mirs_hc")
    @example(generated_loop("balanced", 18), "8C16S16", "mirs_hc")
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exit_fires_only_in_attempts_that_fail_anyway(
        self, loop, config_name, policy
    ):
        rf = config_by_name(config_name)
        machine, _ = scaled_machine(baseline_machine(), rf)
        # A lower II ceiling only drops attempts above it, and keeps cheap
        # the loops that non_iterative fails at every II.
        engine = SchedulerEngine(machine, rf, policy=policy, max_ii=64)
        attempts = spy_on_spill_port_exit(engine, cut=False)
        engine.schedule_loop(loop)
        for ii, fired, failed in attempts:
            assert failed or not fired, (
                f"the spill-port exit fired at II={ii}, "
                f"but the attempt succeeded when run to its end"
            )

    def test_exit_fires_on_a_spilling_corpus_case_and_changes_nothing(self):
        case = load_case(CORPUS_DIR / "spill_memory_bound_8_4C16S16.json")
        machine, _ = scaled_machine(case.machine, case.rf)
        outcomes = {}
        for cut in (True, False):
            engine = SchedulerEngine(
                machine, case.rf, policy=case.policy,
                budget_ratio=case.budget_ratio,
            )
            attempts = spy_on_spill_port_exit(engine, cut=cut)
            outcomes[cut] = (engine.schedule_loop(case.loop), attempts)
        cut_result, cut_attempts = outcomes[True]
        full_result, full_attempts = outcomes[False]
        assert any(fired for _ii, fired, _failed in cut_attempts)
        assert cut_attempts == full_attempts
        assert cut_result.attempted_iis == full_result.attempted_iis
        assert _schedule_payload(cut_result) == _schedule_payload(full_result)
