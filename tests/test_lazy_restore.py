"""A restored run costs only its numbers until something reads its graph.

Restores from a shard checkpoint or a disk :class:`EvalCache` take the
caller's loop and keep the result's final graph and placements in stored
form; the first read of ``result.graph`` or ``result.assignments``
builds it.  Digests, payloads, report aggregates and pickling must not
build either.  Binding-prefetch runs are the exception to the
caller's-loop rule: they keep the transformed loop they scheduled.
"""

from __future__ import annotations

import json
import pickle
import warnings

import pytest

import repro.verify.corpus as corpus
from repro import serialize
from repro.core.result import ScheduledOp, ScheduleResult
from repro.core.validate import validate_schedule
from repro.ddg.graph import DepGraph
from repro.ddg.operations import OpType
from repro.eval.cache import EvalCache
from repro.eval.experiments import schedule_suite
from repro.eval.reporting import ConfigurationReport
from repro.eval.shards import (
    ResultStore,
    canonical_run_payload,
    plan_shards,
    runs_digest,
)
from repro.hwmodel import derive_hardware, scaled_machine
from repro.machine import baseline_machine, config_by_name
from repro.simulator.prefetch import PrefetchPolicy
from repro.verify.differential import differential_check
from repro.workloads import build_workbench
from repro.workloads.suite import perfect_club_like_suite

CONFIG = "S64"
SHARD_SIZE = 4


@pytest.fixture(scope="module")
def loops():
    return perfect_club_like_suite(n_loops=10, seed=2003)


@pytest.fixture(scope="module")
def populated(loops, tmp_path_factory):
    """Cold runs, scheduled into a checkpoint and a disk cache at once."""
    directory = tmp_path_factory.mktemp("populated")
    cold = schedule_suite(
        loops, CONFIG, shard_size=SHARD_SIZE,
        store=ResultStore(directory / "checkpoint"),
        cache=EvalCache(directory / "cache"),
    )
    return directory, cold


@pytest.fixture
def builds(monkeypatch):
    """Count graph builds: JSON decodes and pickle-state restores."""
    counts = {"json": 0, "pickle": 0}
    from_json = corpus.graph_from_json
    setstate = DepGraph.__setstate__

    def counted_from_json(payload):
        counts["json"] += 1
        return from_json(payload)

    def counted_setstate(graph, state):
        counts["pickle"] += 1
        return setstate(graph, state)

    monkeypatch.setattr(corpus, "graph_from_json", counted_from_json)
    monkeypatch.setattr(DepGraph, "__setstate__", counted_setstate)
    return counts


def _restore(loops, directory, source, prefetch=None):
    if source == "checkpoint":
        store, cache = ResultStore(directory / "checkpoint"), None
    else:
        store, cache = None, EvalCache(directory / "cache")
    return schedule_suite(
        loops, CONFIG, shard_size=SHARD_SIZE, prefetch=prefetch,
        store=store, cache=cache,
    )


def _check(runs):
    rf = config_by_name(CONFIG)
    machine, _spec = scaled_machine(baseline_machine(), rf)
    for run in runs:
        validate_schedule(run.result, machine, rf)
        report = differential_check(run.loop, run.result, machine, rf)
        assert report.ok, report.describe_failure()


def test_checkpoint_digest_and_payloads_build_no_graph(loops, populated, builds):
    """A result decoded from JSON re-encodes to its stored graph payload."""
    directory, cold = populated
    restored = _restore(loops, directory, "checkpoint")
    assert runs_digest(restored) == runs_digest(cold)
    assert [canonical_run_payload(run) for run in restored] == [
        canonical_run_payload(run) for run in cold
    ]
    assert builds == {"json": 0, "pickle": 0}


@pytest.mark.parametrize("source", ["checkpoint", "cache"])
class TestLazyGraph:
    def test_report_aggregates_build_no_graph(self, loops, populated, builds, source):
        directory, _cold = populated
        rf = config_by_name(CONFIG)
        report = ConfigurationReport(
            config=rf,
            spec=derive_hardware(baseline_machine(), rf),
            runs=_restore(loops, directory, source),
        )
        assert report.cycles > 0 and report.memory_traffic > 0
        assert report.time_ns > 0 and report.n_failed == 0
        assert builds == {"json": 0, "pickle": 0}

    def test_first_read_builds_a_graph_that_validates_and_executes(
        self, loops, populated, builds, source
    ):
        directory, cold = populated
        restored = _restore(loops, directory, source)
        _check(restored)
        assert sum(builds.values()) == len(restored)
        # Built once: a second read returns the same graph object.
        assert all(run.result.graph is run.result.graph for run in restored)
        assert sum(builds.values()) == len(restored)
        assert runs_digest(restored) == runs_digest(cold)

    def test_pickled_restore_round_trips_without_building(
        self, loops, populated, builds, source
    ):
        directory, _cold = populated
        restored = _restore(loops, directory, source)
        payloads = [run.result.to_dict() for run in restored] if source == "checkpoint" else None
        clones = pickle.loads(pickle.dumps([run.result for run in restored]))
        if payloads is not None:
            assert [clone.to_dict() for clone in clones] == payloads
        assert builds == {"json": 0, "pickle": 0}
        assert all(clone.graph is not None for clone in clones)
        assert sum(builds.values()) == len(clones)

    def test_restored_run_takes_the_callers_loop(self, loops, populated, source):
        directory, _cold = populated
        restored = _restore(loops, directory, source)
        assert all(run.loop is loop for run, loop in zip(restored, loops))


def test_built_graph_pickles_for_a_deferred_build(populated, builds):
    _directory, cold = populated
    result = cold[0].result
    assert result.graph is not None  # a cold result holds a built graph
    clone = pickle.loads(pickle.dumps(result))
    assert builds["pickle"] == 0
    assert clone.to_dict() == result.to_dict()
    assert builds["pickle"] == 0


def test_assigning_the_graph_drops_the_stored_payload(populated, builds):
    _directory, cold = populated
    payload = cold[0].result.to_dict()
    restored = serialize.schedule_result_from_dict(payload)
    restored.graph = None
    assert restored.graph is None
    assert restored.to_dict()["graph"] is None
    assert builds["json"] == 0


class TestPrefetchKeepsItsOwnLoop:
    """A binding-prefetch run scheduled a transformed copy of the caller's
    loop (load latencies bound to the miss latency); a restore must hand
    that copy back, not the caller's loop."""

    @pytest.fixture(scope="class")
    def prefetched(self, tmp_path_factory):
        loops = build_workbench("tiny")
        directory = tmp_path_factory.mktemp("prefetch")
        cold = schedule_suite(
            loops, CONFIG, shard_size=SHARD_SIZE, prefetch=PrefetchPolicy(),
            store=ResultStore(directory / "checkpoint"),
            cache=EvalCache(directory / "cache"),
        )
        bound = [
            position for position, run in enumerate(cold)
            if any(op.latency_override is not None for op in run.loop.graph.nodes())
        ]
        assert bound, "the policy bound no load; the test would show nothing"
        return loops, directory, cold, bound

    @pytest.mark.parametrize("source", ["checkpoint", "cache"])
    def test_restore_keeps_the_transformed_loop(self, prefetched, source):
        loops, directory, cold, bound = prefetched
        restored = _restore(loops, directory, source, prefetch=PrefetchPolicy())
        assert all(run.loop is not loop for run, loop in zip(restored, loops))
        for position in bound:
            assert any(
                op.latency_override is not None
                for op in restored[position].loop.graph.nodes()
            )
        assert runs_digest(restored) == runs_digest(cold)


def _corrupt_runs(data):
    data["runs"] = 5


def _corrupt_result_nodes(data):
    data["runs"][0]["result"]["graph"]["nodes"] = [1, 2]


def _corrupt_loop_nodes(data):
    data["runs"][0]["loop"]["nodes"] = "abc"


def _corrupt_unknown_op(data):
    data["runs"][0]["result"]["graph"]["nodes"][0]["op"] = "frobnicate"


def _corrupt_missing_edge_node(data):
    graph = data["runs"][0]["result"]["graph"]
    graph["edges"].append([graph["nodes"][0]["id"], 10_000, 0, "flow"])


def _corrupt_placement_op(data):
    data["runs"][0]["result"]["assignments"][0]["op"] = "frobnicate"


def _corrupt_placement_cycle_text(data):
    entry = data["runs"][0]["result"]["assignments"][0]
    entry["cycle"] = str(entry["cycle"])


def _corrupt_placement_repeated_node(data):
    entries = data["runs"][0]["result"]["assignments"]
    entries[1]["node"] = entries[0]["node"]


def _corrupt_placement_order(data):
    entries = data["runs"][0]["result"]["assignments"]
    entries[0], entries[1] = entries[1], entries[0]


def _corrupt_placements_not_a_list(data):
    data["runs"][0]["result"]["assignments"] = 5


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_runs, _corrupt_result_nodes, _corrupt_loop_nodes,
     _corrupt_unknown_op, _corrupt_missing_edge_node,
     _corrupt_placement_op, _corrupt_placement_cycle_text,
     _corrupt_placement_repeated_node, _corrupt_placement_order,
     _corrupt_placements_not_a_list],
    ids=["runs-not-a-list", "result-nodes-not-dicts", "loop-nodes-a-string",
         "unknown-op", "edge-to-missing-node",
         "placement-unknown-op", "placement-cycle-text",
         "placement-repeated-node", "placement-out-of-order",
         "placements-not-a-list"],
)
def test_wrong_shape_envelope_is_a_counted_miss(loops, populated, tmp_path, corrupt):
    """Valid JSON of the wrong shape is an invalid checkpoint, never a crash:
    the shard is counted, warned about once and scheduled again."""
    directory, cold = populated
    plan = plan_shards(loops, CONFIG, shard_size=SHARD_SIZE)
    source = ResultStore(directory / "checkpoint")
    store = ResultStore(tmp_path)
    shard = plan.shards[0]
    envelope = json.loads(source.path_for(shard.key).read_text())
    corrupt(envelope["data"])
    store.path_for(shard.key).parent.mkdir(parents=True)
    store.path_for(shard.key).write_text(json.dumps(envelope))
    with pytest.warns(RuntimeWarning, match=shard.key):
        runs = schedule_suite(loops, CONFIG, shard_size=SHARD_SIZE, store=store)
    assert store.invalid == 1
    assert runs_digest(runs) == runs_digest(cold)
    # The re-scheduled shard replaced the corrupt envelope.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.get(shard, [loops[p] for p in shard.positions]) is not None


# --------------------------------------------------------------------------- #
# Placements on first read, and the graph encoded from its pickled state
# --------------------------------------------------------------------------- #
@pytest.fixture
def placements_built(monkeypatch):
    """Count :class:`ScheduledOp` constructions."""
    counts = {"n": 0}
    init = ScheduledOp.__init__

    def counted_init(placed, *args, **kwargs):
        counts["n"] += 1
        init(placed, *args, **kwargs)

    monkeypatch.setattr(ScheduledOp, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("source", ["checkpoint", "cache"])
def test_digests_and_payloads_build_no_placement(
    loops, populated, placements_built, builds, source
):
    """A JSON restore (checkpoint) and a pickle restore (disk cache) digest
    and encode from the stored placements and graph."""
    directory, cold = populated
    restored = _restore(loops, directory, source)
    assert runs_digest(restored) == runs_digest(cold)
    assert [run.result.to_dict() for run in restored] == [
        run.result.to_dict() for run in cold
    ]
    assert placements_built["n"] == 0
    assert builds == {"json": 0, "pickle": 0}
    assert restored[0].result.assignments == cold[0].result.assignments
    assert placements_built["n"] == len(cold[0].result.assignments)


def eager_assignments(entries):
    """The placements as the eager decode built them before they were
    kept in stored form."""
    assignments = {}
    for entry in entries:
        node_id = entry["node"]
        assignments[node_id] = ScheduledOp(
            node_id=node_id,
            op=OpType(entry["op"]),
            cycle=int(entry["cycle"]),
            cluster=entry.get("cluster"),
        )
    return assignments


def node_by_node_graph_json(graph):
    """The graph encoder as it was written against a built graph, before
    :func:`repro.verify.corpus.graph_state_to_json` took its place."""
    nodes = []
    for op in sorted(graph.nodes(), key=lambda node: node.node_id):
        entry = {"id": op.node_id, "op": op.op.value}
        if op.name:
            entry["name"] = op.name
        if op.mem_ref is not None:
            entry["mem_ref"] = {
                "array": op.mem_ref.array,
                "stride_bytes": op.mem_ref.stride_bytes,
                "offset_bytes": op.mem_ref.offset_bytes,
                "footprint_bytes": op.mem_ref.footprint_bytes,
            }
        for flag in ("is_spill", "is_inserted"):
            if getattr(op, flag):
                entry[flag] = True
        if op.inserted_for is not None:
            entry["inserted_for"] = op.inserted_for
        if op.home_cluster is not None:
            entry["home_cluster"] = op.home_cluster
        if op.latency_override is not None:
            entry["latency_override"] = op.latency_override
        nodes.append(entry)
    edges = [
        [edge.src, edge.dst, edge.distance, edge.kind]
        for edge in sorted(graph.edges(), key=lambda e: (e.src, e.dst, e.distance, e.kind))
    ]
    return {"nodes": nodes, "edges": edges}


@pytest.fixture(scope="module", params=["S64", "4C16S16"])
def tiny_cold(request):
    return schedule_suite(build_workbench("tiny"), request.param)


def test_pickled_graph_encodes_like_the_built_graph(tiny_cold, builds):
    """The JSON of a pickled, unbuilt graph is byte-identical to encoding
    the built graph, for every tiny-tier run."""
    for run in tiny_cold:
        expected = json.dumps(node_by_node_graph_json(run.result.graph))
        assert json.dumps(corpus.graph_to_json(run.result.graph)) == expected
        clone = pickle.loads(pickle.dumps(run.result))
        assert json.dumps(clone.graph_json()) == expected
    assert builds == {"json": 0, "pickle": 0}


def test_first_read_of_placements_equals_the_eager_decode(tiny_cold):
    for run in tiny_cold:
        payload = run.result.to_dict()
        eager = eager_assignments(payload["assignments"])
        assert eager == run.result.assignments
        assert ScheduleResult.from_dict(payload).assignments == eager
        assert pickle.loads(pickle.dumps(run.result)).assignments == eager
        unpickled = pickle.loads(pickle.dumps(ScheduleResult.from_dict(payload)))
        assert unpickled.assignments == eager


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: payload["assignments"][0].update(extra=1),
        lambda payload: payload["assignments"][0].pop("cluster"),
        lambda payload: payload["assignments"][0].update(cycle=True),
        lambda payload: payload["assignments"][0].update(node=0.0),
        lambda payload: payload["assignments"][0].update(cluster="0"),
        lambda payload: payload["assignments"].__setitem__(0, [0, "fadd", 0, None]),
        lambda payload: payload.update(assignments={}),
    ],
    ids=["extra-key", "missing-cluster", "bool-cycle", "float-node",
         "text-cluster", "entry-a-list", "empty-dict"],
)
def test_non_canonical_placements_are_refused(populated, corrupt):
    """Stored placements are re-emitted verbatim, so a payload the encoder
    would not write is refused at decode, never re-encoded differently."""
    _directory, cold = populated
    payload = json.loads(json.dumps(cold[0].result.to_dict()))
    corrupt(payload)
    with pytest.raises((ValueError, KeyError, TypeError)):
        ScheduleResult.from_dict(payload)
