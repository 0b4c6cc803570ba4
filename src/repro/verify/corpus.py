"""JSON regression corpus for the verification pipeline.

Every fuzz failure is minimized and frozen as one JSON file under
``tests/corpus/``; ``tests/test_corpus.py`` auto-discovers and replays
them (schedule -> validate -> allocate -> emit -> differentially
execute) on every run, so a bug found once by randomized search is
guarded forever by the deterministic suite.  Cases are also written by
hand to pin regressions found outside the fuzzer (the PR 1 spill
dead-end loops seed the corpus).

The format is deliberately dumb and stable: the loop is stored node by
node and edge by edge (no pickles -- a corpus written by one version
replays on any other), the configuration either by preset name or as an
inline parameter object, and ``expect`` states what the replay must
observe (``"ok"`` for a full clean pipeline; ``"unschedulable"`` for
capacity cases that must *fail to schedule* gracefully rather than
loop or crash).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.ddg.graph import DepGraph
from repro.ddg.loop import Loop
from repro.ddg.operations import OP_VALUES, MemRef, OpType
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import config_by_name

__all__ = [
    "CORPUS_SCHEMA_VERSION",
    "CorpusCase",
    "graph_to_json",
    "graph_state_to_json",
    "graph_from_json",
    "check_graph_json",
    "loop_to_json",
    "loop_from_json",
    "rf_to_json",
    "rf_from_json",
    "machine_to_json",
    "machine_from_json",
    "load_case",
    "save_case",
    "discover_cases",
]

CORPUS_SCHEMA_VERSION = 1


# --------------------------------------------------------------------------- #
# Dependence graph <-> JSON
# --------------------------------------------------------------------------- #
def graph_to_json(graph: DepGraph) -> Dict:
    """Node-by-node, edge-by-edge JSON form of a dependence graph.

    This is the graph convention every serialized artifact shares: corpus
    cases, serialized loops and serialized schedule results (see
    :mod:`repro.serialize`) all embed graphs in this shape.
    """
    return graph_state_to_json(graph.__getstate__())


def graph_state_to_json(state: Tuple) -> Dict:
    """The :func:`graph_to_json` form of a :meth:`DepGraph.__getstate__`
    tuple, built from its node and edge tuples.

    A result that holds its graph in pickled form (see
    :class:`~repro.core.result.ScheduleResult`) is encoded without
    building the graph; a built graph is encoded through its state.
    """
    _next_id, node_states, edge_states = state
    nodes = []
    for (node_id, op, name, mem_ref, is_spill, is_inserted, inserted_for,
         home_cluster, latency_override) in sorted(node_states, key=itemgetter(0)):
        entry: Dict[str, object] = {"id": node_id, "op": op.value}
        if name:
            entry["name"] = name
        if mem_ref is not None:
            entry["mem_ref"] = {
                "array": mem_ref.array,
                "stride_bytes": mem_ref.stride_bytes,
                "offset_bytes": mem_ref.offset_bytes,
                "footprint_bytes": mem_ref.footprint_bytes,
            }
        if is_spill:
            entry["is_spill"] = True
        if is_inserted:
            entry["is_inserted"] = True
        if inserted_for is not None:
            entry["inserted_for"] = inserted_for
        if home_cluster is not None:
            entry["home_cluster"] = home_cluster
        if latency_override is not None:
            entry["latency_override"] = latency_override
        nodes.append(entry)
    edges = [list(edge) for edge in sorted(edge_states)]
    return {"nodes": nodes, "edges": edges}


def graph_from_json(payload: Dict) -> DepGraph:
    """Rebuild a graph from its :func:`graph_to_json` form.

    Node ids are *preserved* -- including the gaps a shrunk or scheduled
    graph carries after node removal -- so per-node side tables (e.g. the
    assignments of a serialized schedule result) stay valid verbatim and
    a round trip is canonical-form exact.  ``inserted_for`` is kept
    verbatim too: it is provenance, not an edge, and its owner may be
    gone from a final graph (ejected after its communication node
    survived).
    """
    graph = DepGraph()
    for entry in payload["nodes"]:
        ref = None
        if entry.get("mem_ref") is not None:
            mr = entry["mem_ref"]
            ref = MemRef(
                array=mr["array"],
                stride_bytes=mr.get("stride_bytes", 8),
                offset_bytes=mr.get("offset_bytes", 0),
                footprint_bytes=mr.get("footprint_bytes"),
            )
        override = entry.get("latency_override")
        graph.add_node(
            OpType(entry["op"]),
            name=entry.get("name", ""),
            mem_ref=ref,
            is_spill=bool(entry.get("is_spill", False)),
            is_inserted=bool(entry.get("is_inserted", False)),
            inserted_for=entry.get("inserted_for"),
            home_cluster=entry.get("home_cluster"),
            latency_override=int(override) if override is not None else None,
            node_id=int(entry["id"]),
        )
    for src, dst, distance, kind in payload["edges"]:
        graph.add_edge(src, dst, distance=distance, kind=kind)
    return graph


def check_graph_json(payload: Dict) -> None:
    """Raise where :func:`graph_from_json` would reject ``payload``.

    Builds no graph, so a reader that defers the build (a restored
    schedule result, see :class:`~repro.core.result.ScheduleResult`)
    can still refuse a corrupt payload when it is read: an unknown op, a
    duplicate id, an unusable memory reference or latency override, an
    edge to a missing node, or a negative distance.  Raises
    ``ValueError``, or the ``KeyError``/``TypeError``/``AttributeError``
    a payload of the wrong shape gives.
    """
    ids = set()
    for entry in payload["nodes"]:
        if entry["op"] not in OP_VALUES:
            raise ValueError(f"unknown op {entry['op']!r}")
        node_id = int(entry["id"])
        if node_id in ids:
            raise ValueError(f"node id {node_id} appears twice")
        ids.add(node_id)
        mem_ref = entry.get("mem_ref")
        if mem_ref is not None and not (isinstance(mem_ref, dict) and "array" in mem_ref):
            raise ValueError(f"node {node_id} has an unusable mem_ref {mem_ref!r}")
        override = entry.get("latency_override")
        if override is not None:
            int(override)  # raises where the build's int() would
    for src, dst, distance, _kind in payload["edges"]:
        if src not in ids or dst not in ids:
            raise ValueError(f"edge references unknown node ({src} -> {dst})")
        if distance < 0:
            raise ValueError("dependence distance must be non-negative")


# --------------------------------------------------------------------------- #
# Loop <-> JSON
# --------------------------------------------------------------------------- #
def loop_to_json(loop: Loop) -> Dict:
    payload = {
        "name": loop.name,
        "trip_count": loop.trip_count,
        "times_entered": loop.times_entered,
        "weight": loop.weight,
        "source": loop.source,
        "attributes": {
            key: value
            for key, value in loop.attributes.items()
            if isinstance(value, (str, int, float, bool))
        },
    }
    payload.update(graph_to_json(loop.graph))
    return payload


def loop_from_json(payload: Dict) -> Loop:
    return Loop(
        name=payload["name"],
        graph=graph_from_json(payload),
        trip_count=payload.get("trip_count", 100),
        times_entered=payload.get("times_entered", 1),
        weight=payload.get("weight", 1.0),
        source=payload.get("source", "corpus"),
        attributes=dict(payload.get("attributes", {})),
    )


# --------------------------------------------------------------------------- #
# Configurations <-> JSON (delegating to the config objects' own
# to_dict/from_dict, the single JSON convention shared with repro.serialize)
# --------------------------------------------------------------------------- #
def rf_to_json(rf: RFConfig) -> Dict:
    return rf.to_dict()


def rf_from_json(payload: Union[str, Dict]) -> RFConfig:
    if isinstance(payload, str):
        return config_by_name(payload)
    return RFConfig.from_dict(payload)


def machine_to_json(machine: MachineConfig) -> Dict:
    return machine.to_dict()


def machine_from_json(payload: Optional[Dict]) -> MachineConfig:
    return MachineConfig.from_dict(payload)


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #
@dataclass
class CorpusCase:
    """One replayable verification case."""

    loop: Loop
    rf: RFConfig
    machine: MachineConfig
    #: What the replay must observe: "ok" (clean full pipeline) or
    #: "unschedulable" (the scheduler must give up gracefully).
    expect: str = "ok"
    description: str = ""
    #: Free-form provenance (fuzz seed, profile, original failure kind).
    origin: Dict[str, object] = field(default_factory=dict)
    #: Preset name when the configuration is a named one (readability).
    config_name: Optional[str] = None
    budget_ratio: float = 6.0
    scale_to_clock: bool = True
    n_iterations: Optional[int] = None
    #: Policy bundle the failing schedule was produced with (replay must
    #: use the same heuristics to reproduce the bug).
    policy: str = "mirs_hc"

    @property
    def name(self) -> str:
        return self.loop.name

    def to_json(self) -> Dict:
        payload: Dict[str, object] = {
            "schema": CORPUS_SCHEMA_VERSION,
            "description": self.description,
            "expect": self.expect,
            "origin": self.origin,
            "budget_ratio": self.budget_ratio,
            "scale_to_clock": self.scale_to_clock,
            "n_iterations": self.n_iterations,
            "policy": self.policy,
            "loop": loop_to_json(self.loop),
        }
        if self.config_name is not None:
            payload["config"] = self.config_name
        else:
            payload["rf"] = rf_to_json(self.rf)
        payload["machine"] = machine_to_json(self.machine)
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "CorpusCase":
        schema = payload.get("schema", 0)
        if schema > CORPUS_SCHEMA_VERSION:
            raise ValueError(f"corpus case uses unknown schema {schema}")
        config_name = payload.get("config")
        rf = rf_from_json(config_name if config_name else payload["rf"])
        return cls(
            loop=loop_from_json(payload["loop"]),
            rf=rf,
            machine=machine_from_json(payload.get("machine")),
            expect=payload.get("expect", "ok"),
            description=payload.get("description", ""),
            origin=dict(payload.get("origin", {})),
            config_name=config_name,
            budget_ratio=payload.get("budget_ratio", 6.0),
            scale_to_clock=payload.get("scale_to_clock", True),
            n_iterations=payload.get("n_iterations"),
            policy=payload.get("policy", "mirs_hc"),
        )


def save_case(case: CorpusCase, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case.to_json(), indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: Union[str, Path]) -> CorpusCase:
    return CorpusCase.from_json(json.loads(Path(path).read_text()))


def discover_cases(directory: Union[str, Path]) -> List[Path]:
    """Every corpus case file under ``directory``, in stable order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))
