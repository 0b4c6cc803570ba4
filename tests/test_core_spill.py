"""Unit tests for two-level register spilling."""

import pytest

from repro.core.banks import SHARED
from repro.core.partial import PartialSchedule
from repro.core.spill import SpillState, check_and_insert_spill
from repro.ddg import DepGraph, OpType
from repro.machine import MachineConfig, RFConfig, ResourceModel


@pytest.fixture
def machine():
    return MachineConfig()


def high_pressure_graph(n_values=12, gap=30):
    """Many values defined early and all consumed late -> high MaxLive."""
    g = DepGraph()
    producers = [g.add_node(OpType.LOAD) for _ in range(n_values)]
    sink = g.add_node(OpType.FADD, name="sink")
    for p in producers:
        g.add_edge(p, sink)
    store = g.add_node(OpType.STORE)
    g.add_edge(sink, store)
    times = {p: 0 for p in producers}
    times[sink] = gap
    times[store] = gap + 4
    return g, producers, sink, store, times


def make_schedule(graph, rf, machine, times, clusters, ii=2):
    schedule = PartialSchedule(
        graph, ii, machine, rf, ResourceModel(machine, rf), track_pressure=True
    )
    # The pressure tracker shares these dictionaries: fill them in place
    # and report each placement, as PartialSchedule.place would.
    schedule.times.update(times)
    schedule.clusters.update(clusters)
    for node_id in times:
        schedule.pressure.on_place(node_id)
    return schedule


class TestMemorySpill:
    def test_monolithic_overflow_spills_to_memory(self, machine):
        rf = RFConfig(n_clusters=1, cluster_regs=None, shared_regs=8)
        g, producers, sink, store, times = high_pressure_graph()
        clusters = {n: None if g.node(n).op.is_memory else 0 for n in times}
        schedule = make_schedule(g, rf, machine, times, clusters)
        state = SpillState()
        new_nodes, usage = check_and_insert_spill(g, schedule, rf, state)
        assert usage[SHARED] > 8
        assert new_nodes, "an over-subscribed bank must trigger spill code"
        kinds = {g.node(n).op for n in new_nodes}
        assert OpType.STORE in kinds and OpType.LOAD in kinds
        assert all(g.node(n).is_spill for n in new_nodes)
        assert state.n_spill_memory_ops == len(new_nodes)

    def test_no_spill_when_capacity_sufficient(self, machine):
        rf = RFConfig.parse("S128")
        g, producers, sink, store, times = high_pressure_graph(n_values=4, gap=8)
        clusters = {n: None if g.node(n).op.is_memory else 0 for n in times}
        schedule = make_schedule(g, rf, machine, times, clusters)
        new_nodes, _ = check_and_insert_spill(g, schedule, rf, SpillState())
        assert new_nodes == []

    def test_unbounded_bank_never_spills(self, machine):
        rf = RFConfig.parse("S64").with_unbounded_registers()
        g, producers, sink, store, times = high_pressure_graph()
        clusters = {n: None if g.node(n).op.is_memory else 0 for n in times}
        schedule = make_schedule(g, rf, machine, times, clusters)
        new_nodes, _ = check_and_insert_spill(g, schedule, rf, SpillState())
        assert new_nodes == []

    def test_values_not_spilled_twice(self, machine):
        rf = RFConfig(n_clusters=1, cluster_regs=None, shared_regs=4)
        g, producers, sink, store, times = high_pressure_graph()
        clusters = {n: None if g.node(n).op.is_memory else 0 for n in times}
        schedule = make_schedule(g, rf, machine, times, clusters)
        state = SpillState()
        first, _ = check_and_insert_spill(g, schedule, rf, state)
        spilled_after_first = set(state.spilled_values)
        second, _ = check_and_insert_spill(g, schedule, rf, state)
        assert not (spilled_after_first & (state.spilled_values - spilled_after_first))

    def test_spill_rewires_dependences_through_memory(self, machine):
        rf = RFConfig(n_clusters=1, cluster_regs=None, shared_regs=6)
        g, producers, sink, store, times = high_pressure_graph()
        clusters = {n: None if g.node(n).op.is_memory else 0 for n in times}
        schedule = make_schedule(g, rf, machine, times, clusters)
        state = SpillState()
        new_nodes, _ = check_and_insert_spill(g, schedule, rf, state)
        victim = next(iter(state.spilled_values))
        # The victim no longer feeds the sink directly.
        assert not g.has_edge(victim, sink)


class TestHierarchicalSpill:
    def _cluster_pressure_graph(self):
        g = DepGraph()
        producers = [g.add_node(OpType.FMUL) for _ in range(10)]
        seed = g.add_node(OpType.LOAD)
        for p in producers:
            g.add_edge(seed, p)
        sink = g.add_node(OpType.FADD, name="sink")
        for p in producers:
            g.add_edge(p, sink)
        times = {seed: 0, sink: 40}
        times.update({p: 2 for p in producers})
        clusters = {seed: None, sink: 0}
        clusters.update({p: 0 for p in producers})
        return g, producers, sink, times, clusters

    def test_cluster_overflow_spills_to_shared_bank(self, machine):
        rf = RFConfig(n_clusters=4, cluster_regs=6, shared_regs=64)
        g, producers, sink, times, clusters = self._cluster_pressure_graph()
        schedule = make_schedule(g, rf, machine, times, clusters, ii=2)
        state = SpillState()
        new_nodes, usage = check_and_insert_spill(g, schedule, rf, state)
        assert usage[0] > 6
        kinds = {g.node(n).op for n in new_nodes}
        assert kinds <= {OpType.STORER, OpType.LOADR}
        assert OpType.STORER in kinds
        assert state.n_spill_storer_loadr == len(new_nodes)
        # No memory traffic is generated by a cluster -> shared spill.
        assert state.n_spill_memory_ops == 0

    def test_clustered_without_shared_spills_to_memory(self, machine):
        rf = RFConfig(n_clusters=4, cluster_regs=6, shared_regs=None)
        g, producers, sink, times, clusters = self._cluster_pressure_graph()
        # Memory op needs a cluster in a pure clustered organization.
        clusters = {n: (0 if c is None else c) for n, c in clusters.items()}
        schedule = make_schedule(g, rf, machine, times, clusters, ii=2)
        state = SpillState()
        new_nodes, _ = check_and_insert_spill(g, schedule, rf, state)
        kinds = {g.node(n).op for n in new_nodes}
        assert OpType.STORE in kinds or OpType.LOAD in kinds

    def test_invariant_evicted_when_nothing_else_to_spill(self, machine):
        rf = RFConfig(n_clusters=2, cluster_regs=2, shared_regs=32)
        g = DepGraph()
        invariants = [g.add_node(OpType.LIVE_IN) for _ in range(4)]
        add = g.add_node(OpType.FADD)
        store = g.add_node(OpType.STORE)
        for inv in invariants:
            g.add_edge(inv, add)
        g.add_edge(add, store)
        times = {add: 0, store: 4}
        clusters = {add: 0, store: None}
        schedule = make_schedule(g, rf, machine, times, clusters, ii=1)
        state = SpillState()
        new_nodes, usage = check_and_insert_spill(g, schedule, rf, state)
        assert usage[0] > 2
        assert new_nodes, "invariants should be evicted to the shared bank"
        assert all(g.node(n).op is OpType.LOADR for n in new_nodes)
        assert state.spilled_invariants

    def test_spill_state_tracking(self):
        state = SpillState()
        assert not state.is_spilled(3)
        state.spilled_values.add(3)
        assert state.is_spilled(3)
        state.spilled_invariants.add(9)
        assert state.is_spilled(9)


class TestPathologicalPressure:
    def test_high_pressure_generated_loop_schedules_on_tight_hierarchy(self):
        """Regression: a 'large'-profile loop (22 memory ops, 36 compute)
        used to be unschedulable at *any* II on the S16-shared-bank
        hierarchical clustered configurations.  Two spill dead ends were
        responsible: a shared bank full of is_spill StoreR copies had no
        admissible victims (the second level of the cluster -> shared ->
        memory chain never fired), and a cluster bank clogged with
        long-lived LoadR re-loads could not be relieved at all.
        """
        import numpy as np

        from repro.core.mirs_hc import MirsHC
        from repro.core.validate import validate_schedule
        from repro.hwmodel import scaled_machine
        from repro.machine import baseline_machine, config_by_name
        from repro.workloads.generator import PROFILES, generate_loop

        loop = generate_loop(
            np.random.default_rng(129), PROFILES["large"], index=0, name="hyp_129"
        )
        rf = config_by_name("8C16S16")
        machine, _ = scaled_machine(baseline_machine(), rf)
        result = MirsHC(machine, rf).schedule_loop(loop)
        assert result.success
        assert result.n_spill_memory_ops > 0  # the memory fallback fired
        validate_schedule(result, machine, rf)
