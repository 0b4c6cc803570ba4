"""Unit tests for the dependence-graph data structure."""

import pytest

from repro.ddg import DepGraph, OpType
from repro.ddg.operations import MemRef, OpClass
from repro.machine import MachineConfig


@pytest.fixture
def machine():
    return MachineConfig()


def build_simple_graph():
    """load -> mul -> add -> store with a live-in multiplier."""
    g = DepGraph()
    alpha = g.add_node(OpType.LIVE_IN, name="alpha")
    load = g.add_node(OpType.LOAD, name="ld", mem_ref=MemRef("x"))
    mul = g.add_node(OpType.FMUL, name="mul")
    add = g.add_node(OpType.FADD, name="add")
    store = g.add_node(OpType.STORE, name="st", mem_ref=MemRef("y"))
    g.add_edge(alpha, mul)
    g.add_edge(load, mul)
    g.add_edge(mul, add)
    g.add_edge(add, store)
    return g, (alpha, load, mul, add, store)


class TestOpType:
    def test_classification(self):
        assert OpType.FADD.op_class is OpClass.COMPUTE
        assert OpType.LOAD.op_class is OpClass.MEMORY
        assert OpType.LOADR.op_class is OpClass.COMMUNICATION
        assert OpType.LIVE_IN.op_class is OpClass.PSEUDO

    def test_defines_register(self):
        assert OpType.LOAD.defines_register
        assert OpType.STORER.defines_register
        assert not OpType.STORE.defines_register

    def test_mnemonics_unique(self):
        mnemonics = [op.mnemonic for op in OpType]
        assert len(mnemonics) == len(set(mnemonics))


class TestGraphConstruction:
    def test_add_nodes_and_edges(self):
        g, (alpha, load, mul, add, store) = build_simple_graph()
        assert len(g) == 5
        assert g.n_edges() == 4
        assert set(g.successors(mul)) == {add}
        assert set(g.predecessors(mul)) == {alpha, load}

    def test_unknown_node_edge_rejected(self):
        g = DepGraph()
        a = g.add_node(OpType.FADD)
        with pytest.raises(KeyError):
            g.add_edge(a, 999)

    def test_negative_distance_rejected(self):
        g = DepGraph()
        a = g.add_node(OpType.FADD)
        b = g.add_node(OpType.FADD)
        with pytest.raises(ValueError):
            g.add_edge(a, b, distance=-1)

    def test_remove_node_cleans_edges(self):
        g, (alpha, load, mul, add, store) = build_simple_graph()
        g.remove_node(mul)
        assert mul not in g
        assert add not in g.successors(load)
        assert g.n_edges() == 1  # only add -> store remains

    def test_remove_edge(self):
        g, (_, load, mul, _, _) = build_simple_graph()
        g.remove_edge(load, mul)
        assert not g.has_edge(load, mul)

    def test_node_ids_are_stable_after_removal(self):
        g, nodes = build_simple_graph()
        g.remove_node(nodes[2])
        new = g.add_node(OpType.FADD)
        assert new not in nodes  # ids are never reused

    def test_copy_is_deep(self):
        g, (_, load, mul, _, _) = build_simple_graph()
        clone = g.copy()
        clone.remove_node(mul)
        assert mul in g
        assert g.has_edge(load, mul)

    def test_copy_preserves_attributes(self):
        g = DepGraph()
        n = g.add_node(OpType.LOADR, is_inserted=True, home_cluster=3)
        clone = g.copy()
        assert clone.node(n).home_cluster == 3
        assert clone.node(n).is_inserted


class TestGraphQueries:
    def test_count_ops(self):
        g, _ = build_simple_graph()
        counts = g.count_ops()
        assert counts == {"compute": 2, "unpipelined": 0, "memory": 2, "comm": 0}

    def test_count_unpipelined(self):
        g = DepGraph()
        a = g.add_node(OpType.FDIV)
        b = g.add_node(OpType.FSQRT)
        g.add_edge(a, b)
        assert g.count_ops()["unpipelined"] == 2

    def test_op_listings(self):
        g, _ = build_simple_graph()
        assert len(g.memory_operations()) == 2
        assert len(g.compute_operations()) == 2
        assert len(g.live_in_nodes()) == 1
        assert g.communication_operations() == []

    def test_flow_consumers_and_producers(self):
        g, (alpha, load, mul, add, _) = build_simple_graph()
        assert [dst for dst, _ in g.flow_consumers(mul)] == [add]
        producers = {src for src, _ in g.flow_producers(mul)}
        assert producers == {alpha, load}

    def test_summary_is_readable(self):
        g, _ = build_simple_graph()
        summary = g.summary()
        assert "5 nodes" in summary and "2 compute" in summary


class TestEdgeLatency:
    def test_flow_edge_uses_producer_latency(self, machine):
        g, (_, load, mul, add, _) = build_simple_graph()
        edge = g.edge(mul, add)
        assert g.edge_latency(edge, machine.latency) == machine.latency("fmul")

    def test_live_in_edges_have_zero_latency(self, machine):
        g, (alpha, _, mul, _, _) = build_simple_graph()
        assert g.edge_latency(g.edge(alpha, mul), machine.latency) == 0

    def test_memory_edges_have_unit_latency(self, machine):
        g = DepGraph()
        st = g.add_node(OpType.STORE)
        ld = g.add_node(OpType.LOAD)
        edge = g.add_edge(st, ld, kind="mem")
        assert g.edge_latency(edge, machine.latency) == 1

    def test_latency_override(self, machine):
        g, (_, load, mul, _, _) = build_simple_graph()
        g.node(load).latency_override = 25
        assert g.edge_latency(g.edge(load, mul), machine.latency) == 25


class _RecordingListener:
    """Graph listener that logs every callback it receives."""

    def __init__(self):
        self.events = []

    def on_edge_added(self, edge):
        self.events.append(("edge_added", edge.src, edge.dst))

    def on_edge_removed(self, edge):
        self.events.append(("edge_removed", edge.src, edge.dst))

    def on_node_removed(self, node_id):
        self.events.append(("node_removed", node_id))


class TestListeners:
    def test_listener_sees_every_mutation(self):
        g, (alpha, load, mul, add, store) = build_simple_graph()
        listener = _RecordingListener()
        g.add_listener(listener)
        g.add_edge(load, add, kind="seq")
        g.remove_edge(load, add)
        g.remove_node(store)
        assert listener.events == [
            ("edge_added", load, add),
            ("edge_removed", load, add),
            # remove_node detaches incident edges (firing edge callbacks)
            # before announcing the node itself.
            ("edge_removed", add, store),
            ("node_removed", store),
        ]

    def test_remove_listener_unsubscribes(self):
        g, (_, load, _, add, _) = build_simple_graph()
        listener = _RecordingListener()
        g.add_listener(listener)
        g.add_edge(load, add, kind="seq")
        assert len(listener.events) == 1
        g.remove_listener(listener)
        g.remove_edge(load, add)
        assert len(listener.events) == 1

    def test_remove_unregistered_listener_is_a_noop(self):
        g, _ = build_simple_graph()
        g.remove_listener(_RecordingListener())   # must not raise

    def test_two_listeners_both_notified_in_order(self):
        g, (_, load, _, add, _) = build_simple_graph()
        first, second = _RecordingListener(), _RecordingListener()
        g.add_listener(first)
        g.add_listener(second)
        g.add_edge(load, add, kind="seq")
        assert first.events == second.events == [("edge_added", load, add)]

    def test_listeners_do_not_survive_pickling(self):
        import pickle

        g, (_, load, _, add, _) = build_simple_graph()
        listener = _RecordingListener()
        g.add_listener(listener)
        clone = pickle.loads(pickle.dumps(g))
        clone.add_edge(load, add, kind="seq")
        # The clone mutation must not reach the original's listener, and
        # the clone must come back with a clean listener list.
        assert listener.events == []
        assert clone._listeners == []
        g.add_edge(load, add, kind="seq")
        assert listener.events == [("edge_added", load, add)]

    def test_copy_does_not_carry_listeners(self):
        g, (_, load, _, add, _) = build_simple_graph()
        listener = _RecordingListener()
        g.add_listener(listener)
        clone = g.copy()
        clone.add_edge(load, add, kind="seq")
        assert listener.events == []


class TestDenseIndices:
    def test_indices_are_dense_and_unique(self):
        g, nodes = build_simple_graph()
        indices = [g.dense_index(n) for n in nodes]
        assert sorted(indices) == list(range(len(nodes)))
        assert g.dense_index_bound() == len(nodes)

    def test_removed_index_is_recycled_for_the_next_node(self):
        g, (_, load, mul, _, _) = build_simple_graph()
        freed = g.dense_index(mul)
        bound = g.dense_index_bound()
        g.remove_node(mul)
        with pytest.raises(KeyError):
            g.dense_index(mul)
        fresh = g.add_node(OpType.FADD)
        assert fresh != mul   # node ids are never reused ...
        assert g.dense_index(fresh) == freed   # ... but dense slots are
        assert g.dense_index_bound() == bound

    def test_index_freed_after_removal_listeners_run(self):
        g, (_, _, mul, _, _) = build_simple_graph()
        seen = {}

        class Probe:
            def on_edge_added(self, edge): pass
            def on_edge_removed(self, edge): pass
            def on_node_removed(self, node_id):
                # The dense index must still resolve while the removal
                # callback runs: array-backed listeners clear their slot
                # for exactly this index.
                seen[node_id] = g.dense_index(node_id)

        g.add_listener(Probe())
        expected = g.dense_index(mul)
        g.remove_node(mul)
        assert seen == {mul: expected}

    def test_pickle_round_trip_reassigns_dense_indices(self):
        import pickle

        g, (_, _, mul, _, _) = build_simple_graph()
        g.remove_node(mul)
        clone = pickle.loads(pickle.dumps(g))
        indices = sorted(clone.dense_index(n) for n in clone.node_ids())
        assert indices == list(range(len(clone)))
        assert clone.dense_index_bound() == len(clone)


def build_cycle_graph():
    """mul -> add -> mul (distance 1), plus a store hanging off add."""
    g = DepGraph()
    mul = g.add_node(OpType.FMUL)
    add = g.add_node(OpType.FADD)
    store = g.add_node(OpType.STORE, mem_ref=MemRef("y"))
    g.add_edge(mul, add)
    g.add_edge(add, mul, distance=1)
    g.add_edge(add, store)
    return g, (mul, add, store)


class TestRecurrenceMemo:
    def test_memo_is_reused_until_a_mutation(self):
        g, (mul, add, _) = build_cycle_graph()
        first = g.recurrence_components()
        assert sorted(first[0]) == sorted([mul, add])
        assert g.recurrence_components() is first

    def test_add_edge_clears_the_memo(self):
        g, (_, add, store) = build_cycle_graph()
        g.remove_edge(add, store)
        assert len(g.recurrence_components()) == 1
        g.add_edge(store, store, distance=1)   # makes a second cycle
        assert g._recurrences is None
        assert [store] in g.recurrence_components()

    def test_remove_edge_clears_the_memo(self):
        g, (mul, add, _) = build_cycle_graph()
        assert g.recurrence_components()
        g.remove_edge(add, mul)   # breaks the only cycle
        assert g._recurrences is None
        assert g.recurrence_components() == []

    def test_remove_node_clears_the_memo(self):
        g, (mul, _, _) = build_cycle_graph()
        assert g.recurrence_components()
        g.remove_node(mul)   # breaks the only cycle
        assert g._recurrences is None
        assert g.recurrence_components() == []

    def test_add_node_clears_the_memo(self):
        g, (mul, add, _) = build_cycle_graph()
        g.remove_edge(add, mul)
        assert g.recurrence_components() == []
        loop_back = g.add_node(OpType.FADD)
        assert g._recurrences is None
        g.add_edge(add, loop_back)
        g.add_edge(loop_back, mul, distance=1)   # closes a cycle through the new node
        assert sorted(g.recurrence_components()[0]) == sorted([mul, add, loop_back])

    def test_copy_shares_the_memo_until_the_copy_changes(self):
        g, (mul, add, _) = build_cycle_graph()
        memo = g.recurrence_components()
        clone = g.copy()
        assert clone.recurrence_components() is memo
        clone.remove_edge(add, mul)
        assert clone.recurrence_components() == []
        assert g.recurrence_components() is memo

    def test_pickling_drops_the_memo(self):
        import pickle

        g, _ = build_cycle_graph()
        memo = g.recurrence_components()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._recurrences is None
        assert clone.recurrence_components() == memo


class TestCopyFidelity:
    def test_every_operation_field_survives_copy(self):
        import dataclasses

        from repro.ddg.graph import Operation

        values = {
            "node_id": 0,
            "op": OpType.LOADR,
            "name": "copied",
            "mem_ref": MemRef("x", stride_bytes=16, offset_bytes=24),
            "is_spill": True,
            "is_inserted": True,
            "inserted_for": 7,
            "home_cluster": 2,
            "latency_override": 17,
        }
        fields = dataclasses.fields(Operation)
        # A new field must be added here, and so to DepGraph.copy.
        assert {f.name for f in fields} == set(values)
        g = DepGraph()
        node_id = g.add_node(OpType.FADD)
        original = g.node(node_id)
        for f in fields:
            default = f.default if f.default is not dataclasses.MISSING else None
            if f.name != "node_id":
                assert values[f.name] != default, f.name
                setattr(original, f.name, values[f.name])
        copied = g.copy().node(node_id)
        assert copied is not original
        assert {f.name: getattr(copied, f.name) for f in fields} == values

    def test_copy_keeps_successor_and_predecessor_order(self):
        g = DepGraph()
        a, b, c = (g.add_node(OpType.FADD) for _ in range(3))
        g.add_edge(c, b)
        g.add_edge(a, b)
        g.add_edge(b, a, distance=1)
        clone = g.copy()
        for node_id in g.node_ids():
            assert clone.successors(node_id) == g.successors(node_id)
        # Predecessors are rebuilt in successor (node) order.
        assert clone.predecessors(b) == [a, c]


class TestResultGraph:
    def test_result_graph_holds_no_listeners_or_snapshots(self):
        from repro.core import MirsHC
        from repro.hwmodel import scaled_machine
        from repro.machine import baseline_machine, config_by_name
        from repro.workloads import build_kernel

        rf = config_by_name("4C16S16")
        machine, _ = scaled_machine(baseline_machine(), rf)
        result = MirsHC(machine, rf).schedule_loop(build_kernel("daxpy"))
        assert result.success and result.n_comm_ops > 0
        graph = result.graph
        assert graph._listeners == []
        assert graph._flow_succ == {} and graph._flow_pred == {}
        # The snapshots rebuild on first use.
        producer = next(op.node_id for op in graph.nodes() if op.op is OpType.LOAD)
        assert graph.flow_consumers(producer)
