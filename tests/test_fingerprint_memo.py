"""The loop fingerprint memo and the mutation contract that keeps it true.

:meth:`Loop.fingerprint` keeps its last digest on the loop's
:class:`DepGraph` (:meth:`DepGraph.signature_digest`), keyed on the text
of the loop's metadata.  The memo is only as good as the contract behind
it: every write to a graph goes through a :class:`DepGraph` method that
drops it, and nothing else assigns an :class:`Operation` field.  These
tests check each dropping operation, enforce the contract over the whole
package, and compare the memoized fingerprint with a memo-free reference
after random scripts of mutations.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.ddg.graph import DepGraph
from repro.ddg.loop import Loop
from repro.ddg.operations import MemRef, OpType
from repro.workloads.suite import tiny_suite

#: The :class:`Operation` fields in the structural signature (``name`` is
#: not, and ``node_id`` is the dict key).
SIGNATURE_FIELDS = frozenset({
    "op", "mem_ref", "is_spill", "is_inserted", "inserted_for",
    "home_cluster", "latency_override",
})


def reference_fingerprint(loop: Loop) -> str:
    """The fingerprint without a memo: SHA-256 of the ``repr`` of the 5-tuple."""
    payload = (
        loop.name,
        loop.trip_count,
        loop.times_entered,
        loop.weight,
        loop.graph.structural_signature(),
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def small_loop() -> Loop:
    """load -> fmul -> fadd -> store, with the fadd carried across iterations."""
    graph = DepGraph()
    load = graph.add_node(OpType.LOAD, mem_ref=MemRef("x"))
    mul = graph.add_node(OpType.FMUL)
    add = graph.add_node(OpType.FADD)
    store = graph.add_node(OpType.STORE, mem_ref=MemRef("y"))
    graph.add_edge(load, mul)
    graph.add_edge(mul, add)
    graph.add_edge(add, add, distance=1)
    graph.add_edge(add, store)
    return Loop(name="small", graph=graph)


# --------------------------------------------------------------------------- #
# One test per memo-dropping operation
# --------------------------------------------------------------------------- #
MUTATIONS = {
    "add_node": lambda g: g.add_node(OpType.FADD),
    "add_edge": lambda g: g.add_edge(0, 3, kind="mem"),
    "remove_edge": lambda g: g.remove_edge(2, 3),
    "remove_node": lambda g: g.remove_node(3),
    "set_latency_override": lambda g: g.set_latency_override(0, 40),
    "set_home_cluster": lambda g: g.set_home_cluster(1, 2),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutator_drops_the_memo(mutation):
    loop = small_loop()
    before = loop.fingerprint()
    assert loop.graph._signature_digest is not None
    MUTATIONS[mutation](loop.graph)
    assert loop.graph._signature_digest is None
    after = loop.fingerprint()
    assert after == reference_fingerprint(loop)
    assert after != before


def test_a_node_without_edges_drops_the_memo_when_removed():
    loop = small_loop()
    lone = loop.graph.add_node(OpType.FADD)
    before = loop.fingerprint()
    loop.graph.remove_node(lone)
    assert loop.graph._signature_digest is None
    assert loop.fingerprint() == reference_fingerprint(loop) != before


def test_the_memo_answers_without_rebuilding_the_signature(monkeypatch):
    loop = small_loop()
    first = loop.fingerprint()
    monkeypatch.setattr(
        DepGraph, "structural_signature",
        lambda graph: pytest.fail("an unchanged graph rebuilt its signature"),
    )
    assert loop.fingerprint() == first


def test_a_metadata_change_misses_the_memo():
    loop = small_loop()
    before = loop.fingerprint()
    loop.weight = 1  # the int 1 keys apart from the float 1.0
    assert loop.fingerprint() == reference_fingerprint(loop) != before


def test_copy_shares_the_memo():
    loop = small_loop()
    loop.fingerprint()
    clone = loop.copy()
    assert clone.graph._signature_digest is loop.graph._signature_digest
    clone.graph.set_latency_override(0, 40)
    assert clone.fingerprint() != loop.fingerprint() == reference_fingerprint(loop)


def test_a_pickle_round_trip_drops_the_memo():
    loop = small_loop()
    digest = loop.fingerprint()
    clone = pickle.loads(pickle.dumps(loop))
    assert "_signature_digest" not in vars(clone.graph)
    assert clone.graph._signature_digest is None
    assert clone.fingerprint() == digest


def test_an_undigested_graph_holds_no_memo_attribute():
    """The memo stays a class-level default until a digest is stored, so
    the graphs the scheduler builds and copies carry no extra attribute."""
    graph = small_loop().graph
    graph.add_node(OpType.FADD)
    assert "_signature_digest" not in vars(graph)
    assert "_signature_digest" not in vars(graph.copy())


def test_tiny_tier_fingerprints_match_the_reference():
    for loop in tiny_suite():
        assert loop.fingerprint() == reference_fingerprint(loop)
        assert loop.fingerprint() == reference_fingerprint(loop)


# --------------------------------------------------------------------------- #
# The contract, over the whole package
# --------------------------------------------------------------------------- #
def test_no_module_assigns_an_operation_field_outside_the_graph():
    """Only :mod:`repro.ddg.graph` writes an :class:`Operation` field of
    another object; everything else goes through a :class:`DepGraph`
    method, which drops the memos."""
    package = Path(repro.__file__).parent
    allowed = package / "ddg" / "graph.py"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and node.attr in SIGNATURE_FIELDS
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                offenders.append(f"{path.relative_to(package)}:{node.lineno} .{node.attr}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in SIGNATURE_FIELDS
            ):
                offenders.append(f"{path.relative_to(package)}:{node.lineno} {node.func.id}")
    assert offenders == []


# --------------------------------------------------------------------------- #
# Random scripts of public mutations against the memo-free reference
# --------------------------------------------------------------------------- #
OPS = [OpType.FADD, OpType.FMUL, OpType.LOAD, OpType.STORE, OpType.LOADR]

steps = st.one_of(
    st.tuples(st.just("add_node"), st.sampled_from(OPS)),
    st.tuples(st.just("add_edge"), st.integers(0, 30), st.integers(0, 30),
              st.integers(0, 2), st.sampled_from(["flow", "mem", "seq"])),
    st.tuples(st.just("remove_edge"), st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.just("remove_node"), st.integers(0, 30)),
    st.tuples(st.just("set_latency_override"), st.integers(0, 30),
              st.one_of(st.none(), st.integers(1, 50))),
    st.tuples(st.just("set_home_cluster"), st.integers(0, 30),
              st.one_of(st.none(), st.integers(0, 3))),
    st.tuples(st.just("copy")),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("name"), st.sampled_from(["a", "b", "a, 1"])),
    st.tuples(st.just("trip_count"), st.integers(1, 3)),
    st.tuples(st.just("times_entered"), st.integers(1, 3)),
    st.tuples(st.just("weight"), st.sampled_from([1, 1.0, 0.5, True])),
)


def apply_step(loop: Loop, step) -> Loop:
    graph = loop.graph
    ids = graph.node_ids()
    kind, *args = step
    if kind == "add_node":
        graph.add_node(args[0])
    elif kind == "add_edge" and ids:
        graph.add_edge(ids[args[0] % len(ids)], ids[args[1] % len(ids)],
                       distance=args[2], kind=args[3])
    elif kind == "remove_edge" and ids:
        src = ids[args[0] % len(ids)]
        successors = graph.successors(src)
        if successors:
            graph.remove_edge(src, successors[args[1] % len(successors)])
    elif kind == "remove_node" and ids:
        graph.remove_node(ids[args[0] % len(ids)])
    elif kind == "set_latency_override" and ids:
        graph.set_latency_override(ids[args[0] % len(ids)], args[1])
    elif kind == "set_home_cluster" and ids:
        graph.set_home_cluster(ids[args[0] % len(ids)], args[1])
    elif kind == "copy":
        return loop.copy()
    elif kind == "pickle":
        return pickle.loads(pickle.dumps(loop))
    elif kind in ("name", "trip_count", "times_entered", "weight"):
        setattr(loop, kind, args[0])
    return loop


@given(st.lists(steps, max_size=25))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fingerprint_equals_the_reference_after_any_script(script):
    loop = small_loop()
    assert loop.fingerprint() == reference_fingerprint(loop)
    for step in script:
        loop = apply_step(loop, step)
        assert loop.fingerprint() == reference_fingerprint(loop)
