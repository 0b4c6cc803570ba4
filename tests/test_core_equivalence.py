"""Differential lockstep harness: the array core vs. its references.

The scheduler's state (:mod:`repro.core.arraycore`) promises to answer
exactly like the readable references -- :class:`ArrayMRT` like
:class:`~repro.core.mrt.ModuloReservationTable` (same probe answers, same
set-insertion order in ``conflicting_nodes``, which the force-and-eject
path iterates), :class:`ArrayPressureTracker` like a from-scratch
:func:`~repro.core.lifetimes.register_usage` /
:func:`~repro.core.lifetimes.lifetimes_by_bank` sweep (same values, same
dictionary key order, same lifetime endpoints).  These tests drive
randomly generated reserve/release/eject/forget sequences through both
**in lockstep** and compare the full observable state after every single
step, so any divergence is caught at the step that introduced it (not
three spills later as a different final schedule).

The golden digests (``tests/test_golden_digests.py`` and the corpus
replay) pin the end-to-end schedules; ``repro fuzz`` covers the whole
pipeline.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.arraycore import ArrayMRT, ArrayPressureTracker
from repro.core.lifetimes import lifetimes_by_bank, register_usage
from repro.core.mrt import ModuloReservationTable
from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.machine.presets import baseline_machine, config_by_name
from repro.machine.resources import GLOBAL, SHARED, ResourceKind, ResourceUse

# --------------------------------------------------------------------------- #
# MRT lockstep
# --------------------------------------------------------------------------- #
#: A small but adversarial inventory: per-cluster FUs, a shared memory
#: port, cluster ports, a global bus -- plus a zero-capacity resource
#: (always full) and, in generated uses, a key outside the inventory.
_INVENTORY = [
    (ResourceKind.FU, 0),
    (ResourceKind.FU, 1),
    (ResourceKind.MEM, SHARED),
    (ResourceKind.LP, 0),
    (ResourceKind.SP, 1),
    (ResourceKind.BUS, GLOBAL),
]
_UNKNOWN_KEY = (ResourceKind.MEM, 7)


def _use_strategy():
    return st.builds(
        ResourceUse,
        key=st.sampled_from(_INVENTORY + [_UNKNOWN_KEY]),
        offset=st.integers(min_value=0, max_value=6),
        duration=st.integers(min_value=1, max_value=4),
    )


def _uses_strategy():
    return st.lists(_use_strategy(), min_size=1, max_size=3)


@st.composite
def _mrt_script(draw):
    ii = draw(st.integers(min_value=1, max_value=6))
    counts = {
        key: draw(st.integers(min_value=0, max_value=3)) for key in _INVENTORY
    }
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("reserve"),
                    st.integers(min_value=0, max_value=9),   # node id
                    _uses_strategy(),
                    st.integers(min_value=0, max_value=24),  # cycle
                ),
                st.tuples(
                    st.just("release"),
                    st.integers(min_value=0, max_value=9),
                ),
                st.tuples(
                    st.just("probe"),
                    _uses_strategy(),
                    st.integers(min_value=0, max_value=24),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return ii, counts, steps


def _assert_mrt_states_equal(obj: ModuloReservationTable, arr: ArrayMRT) -> None:
    assert obj.utilization() == arr.utilization()
    assert list(obj.utilization()) == list(arr.utilization())
    for node_id in range(10):
        assert obj.holds(node_id) == arr.holds(node_id)
        assert Counter(obj.held_keys(node_id)) == Counter(arr.held_keys(node_id))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mrt_script())
def test_mrt_lockstep_equivalence(script):
    """Both reservation tables answer every probe identically, step by step."""
    ii, counts, steps = script
    obj = ModuloReservationTable(ii, counts)
    arr = ArrayMRT(ii, counts)
    for step in steps:
        if step[0] == "reserve":
            _tag, node_id, uses, cycle = step
            feasible = obj.can_reserve(uses, cycle)
            assert arr.can_reserve(uses, cycle) == feasible
            # conflicting_nodes must agree as a set AND in iteration
            # order: the eject loop iterates it, so a different element
            # order would eject in a different order.
            obj_conflicts = obj.conflicting_nodes(uses, cycle)
            arr_conflicts = arr.conflicting_nodes(uses, cycle)
            assert obj_conflicts == arr_conflicts
            assert list(obj_conflicts) == list(arr_conflicts)
            if feasible and not obj.holds(node_id):
                obj.reserve(node_id, uses, cycle)
                arr.reserve(node_id, uses, cycle)
            elif not feasible:
                with pytest.raises(ValueError):
                    obj.reserve(node_id, uses, cycle)
                with pytest.raises(ValueError):
                    arr.reserve(node_id, uses, cycle)
        elif step[0] == "release":
            _tag, node_id = step
            obj.release(node_id)   # idempotent, unknown ids included
            arr.release(node_id)
        else:
            _tag, uses, cycle = step
            assert obj.can_reserve(uses, cycle) == arr.can_reserve(uses, cycle)
            window = list(range(cycle, cycle + 2 * ii + 1))
            assert obj.first_free_cycle(uses, window) == arr.first_free_cycle(
                uses, window
            )
        _assert_mrt_states_equal(obj, arr)


def test_mrt_empty_uses_window_scan():
    """No uses -> the first candidate cycle, in both backends."""
    counts = {(ResourceKind.FU, 0): 1}
    obj = ModuloReservationTable(4, counts)
    arr = ArrayMRT(4, counts)
    assert obj.first_free_cycle([], [7, 8]) == arr.first_free_cycle([], [7, 8]) == 7
    assert obj.first_free_cycle([], []) is None
    assert arr.first_free_cycle([], []) is None


def test_mrt_rejects_bad_ii():
    with pytest.raises(ValueError):
        ModuloReservationTable(0, {})
    with pytest.raises(ValueError):
        ArrayMRT(0, {})


# --------------------------------------------------------------------------- #
# Pressure-tracker lockstep
# --------------------------------------------------------------------------- #
_PRESSURE_CONFIGS = ["S64", "4C32", "4C16S16", "2C32S32"]
_OPS = [
    OpType.FADD, OpType.FMUL, OpType.FADD, OpType.LOAD,
    OpType.STORE, OpType.LIVE_IN,
]


@st.composite
def _pressure_script(draw):
    config_name = draw(st.sampled_from(_PRESSURE_CONFIGS))
    ii = draw(st.integers(min_value=1, max_value=6))
    n_nodes = draw(st.integers(min_value=2, max_value=10))
    ops = [draw(st.sampled_from(_OPS)) for _ in range(n_nodes)]
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=2),   # distance
            ),
            max_size=2 * n_nodes,
        )
    )
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("place"),
                    st.integers(min_value=0, max_value=n_nodes - 1),
                    st.integers(min_value=0, max_value=20),  # cycle
                    st.integers(min_value=0, max_value=3),   # cluster (mod n)
                ),
                st.tuples(st.just("eject"), st.integers(min_value=0, max_value=n_nodes - 1)),
                st.tuples(
                    st.just("add_edge"),
                    st.integers(min_value=0, max_value=n_nodes - 1),
                    st.integers(min_value=0, max_value=n_nodes - 1),
                    st.integers(min_value=0, max_value=2),
                ),
                st.tuples(
                    st.just("remove_edge"),
                    st.integers(min_value=0, max_value=n_nodes - 1),
                    st.integers(min_value=0, max_value=n_nodes - 1),
                ),
                st.tuples(st.just("forget"), st.integers(min_value=0, max_value=n_nodes - 1)),
                st.tuples(st.just("probe")),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return config_name, ii, ops, edges, steps


def _assert_tracker_matches_sweep(tracker: ArrayPressureTracker) -> None:
    sweep_args = (
        tracker.graph, tracker.times, tracker.clusters, tracker.ii,
        tracker.rf, tracker.latency_of,
    )
    usage = tracker.usage()
    fresh_usage = register_usage(*sweep_args)
    assert usage == fresh_usage
    assert list(usage) == list(fresh_usage)
    lifetimes = tracker.lifetimes_by_bank()
    fresh_lifetimes = lifetimes_by_bank(*sweep_args)
    assert list(lifetimes) == list(fresh_lifetimes)
    # NamedTuple equality covers node, bank and both lifetime endpoints,
    # list equality their order.
    assert lifetimes == fresh_lifetimes


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_pressure_script())
def test_pressure_lockstep_equivalence(script):
    """The tracker equals a from-scratch sweep after every event.

    The tracker observes the graph and shares the ``times``/``clusters``
    dictionaries exactly like the one a
    :class:`~repro.core.partial.PartialSchedule` owns; the script replays
    the full event alphabet of the scheduler -- place, eject
    (``on_remove`` fires *before* the times entry goes away, mirroring
    ``PartialSchedule.remove``), structural edge edits from
    spilling/communication re-routing, and node removal -- and the
    sweeps recompute usage and lifetimes from the same state.
    """
    config_name, ii, ops, edges, steps = script
    rf = config_by_name(config_name)
    machine = baseline_machine()
    n_clusters = max(1, rf.n_clusters)

    graph = DepGraph()
    node_ids = [graph.add_node(op) for op in ops]
    for src_pos, dst_pos, distance in edges:
        src, dst = node_ids[src_pos], node_ids[dst_pos]
        if src != dst and dst not in dict(graph.flow_consumers(src)):
            graph.add_edge(src, dst, distance=distance, kind="flow")

    times: dict = {}
    clusters: dict = {}
    tracker = ArrayPressureTracker(graph, ii, rf, machine.latency, times, clusters)

    for step in steps:
        tag = step[0]
        if tag == "place":
            _tag, pos, cycle, cluster = step
            node_id = node_ids[pos]
            if node_id not in graph or node_id in times:
                continue
            if graph.node(node_id).op is OpType.LIVE_IN:
                continue   # pseudo ops are never scheduled
            times[node_id] = cycle
            clusters[node_id] = cluster % n_clusters
            tracker.on_place(node_id)
        elif tag == "eject":
            _tag, pos = step
            node_id = node_ids[pos]
            if node_id not in times:
                continue
            # PartialSchedule.remove notifies while times still holds the
            # node, then deletes the entries -- mirror that order.
            tracker.on_remove(node_id)
            del times[node_id]
            del clusters[node_id]
        elif tag == "add_edge":
            _tag, src_pos, dst_pos, distance = step
            src, dst = node_ids[src_pos], node_ids[dst_pos]
            if src == dst or src not in graph or dst not in graph:
                continue
            graph.add_edge(src, dst, distance=distance, kind="flow")
        elif tag == "remove_edge":
            _tag, src_pos, dst_pos = step
            src, dst = node_ids[src_pos], node_ids[dst_pos]
            if src not in graph or dst not in graph:
                continue
            graph.remove_edge(src, dst)
        elif tag == "forget":
            _tag, pos = step
            node_id = node_ids[pos]
            if node_id not in graph or len(graph) <= 1:
                continue
            if node_id in times:
                tracker.on_remove(node_id)
                del times[node_id]
                del clusters[node_id]
            graph.remove_node(node_id)
        _assert_tracker_matches_sweep(tracker)

    tracker.detach()
    assert not graph._listeners


def test_pressure_trackers_share_partial_schedule_contract():
    """A tiny hand-built chain agrees with the sweep end to end."""
    rf = config_by_name("4C16S16")
    machine = baseline_machine()
    graph = DepGraph()
    live_in = graph.add_node(OpType.LIVE_IN)
    load = graph.add_node(OpType.LOAD)
    mul = graph.add_node(OpType.FMUL)
    store = graph.add_node(OpType.STORE)
    graph.add_edge(live_in, mul, kind="flow")
    graph.add_edge(load, mul, kind="flow")
    graph.add_edge(mul, store, distance=1, kind="flow")

    times: dict = {}
    clusters: dict = {}
    tracker = ArrayPressureTracker(graph, 3, rf, machine.latency, times, clusters)
    for node_id, cycle, cluster in [(load, 0, 0), (mul, 4, 1), (store, 6, 1)]:
        times[node_id] = cycle
        clusters[node_id] = cluster
        tracker.on_place(node_id)
        _assert_tracker_matches_sweep(tracker)
    # The live-in charges one whole-loop register in the mul's bank.
    assert tracker.usage()[1] >= 1
