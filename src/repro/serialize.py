"""Versioned JSON serialization for every public result type.

Results used to live and die inside one process: a
:class:`~repro.core.result.ScheduleResult` carried a live dependence
graph, a :class:`~repro.eval.reporting.ConfigurationReport` a list of
live runs, and nothing but pickle could move either across a process or
wire boundary.  This module is the single registry that makes the whole
result surface serializable:

* ``to_dict(obj)`` wraps any registered object in a self-describing
  *envelope* -- ``{"schema": ..., "type": ..., "data": {...}}`` -- and
  ``from_dict(envelope)`` rebuilds the object (``envelope(obj, data)``
  wraps a payload the caller already encoded);
* ``dumps``/``loads`` and ``save``/``load`` add the JSON round trip;
* ``schema()`` returns a machine-readable description of every
  registered type (the artifact the CI service smoke job validates
  against), and ``validate(envelope)`` checks a payload against it.

Registered types: :class:`~repro.machine.config.RFConfig`,
:class:`~repro.machine.config.MachineConfig`,
:class:`~repro.hwmodel.spec.HardwareSpec`,
:class:`~repro.ddg.loop.Loop`, :class:`~repro.core.result.ScheduleResult`,
:class:`~repro.eval.metrics.LoopRun`,
:class:`~repro.eval.reporting.ConfigurationReport`, the shard
checkpoints of :mod:`repro.eval.shards`
(:class:`~repro.eval.shards.ShardResult`), the fleet protocol's wire
types (:class:`~repro.service.wire.ShardLease`,
:class:`~repro.service.wire.LeaseHeartbeat`,
:class:`~repro.service.wire.WorkerStatus`), and the fuzz reproducers
(:class:`~repro.verify.corpus.CorpusCase`,
:class:`~repro.verify.fuzz.FuzzFailure`,
:class:`~repro.verify.fuzz.FuzzReport`), the durable-store types
(:class:`~repro.store.db.RunRow` run-table rows and
:class:`~repro.report.query.ReportQuery` report queries), and the
design-space exploration types (:class:`~repro.explore.ExploreSpec`,
:class:`~repro.explore.FrontierPoint`,
:class:`~repro.explore.ExploreReport`).

The graph/loop/configuration payload shapes are the JSON conventions the
verification corpus established (:mod:`repro.verify.corpus`): a corpus
case written by the fuzzer and a serialized loop embed graphs in exactly
the same node-by-node, edge-by-edge form.  Nothing here pickles:
payloads are plain dicts of JSON scalars, so a schedule produced by one
version replays on any other that understands the schema.

Round-trip contract: ``to_dict(from_dict(to_dict(x))) == to_dict(x)``
(canonical-form equality), and for cache-keyed inputs (loops,
configurations) the :func:`repro.eval.cache.schedule_key` is preserved
exactly -- a result computed for a serialized problem is a cache hit for
the deserialized one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.result import ScheduleResult, check_assignments_json
from repro.ddg.analysis import MIIBreakdown
from repro.ddg.loop import Loop
from repro.eval.metrics import LoopRun
from repro.eval.reporting import ConfigurationReport
from repro.eval.shards import (
    ShardResult,
    shard_result_from_dict,
    shard_result_to_dict,
)
from repro.explore.driver import ExploreReport
from repro.explore.frontier import FrontierPoint
from repro.explore.search import ExploreSpec
from repro.hwmodel.spec import BankEstimate, HardwareSpec
from repro.machine.config import MachineConfig, RFConfig
from repro.report.query import (
    ReportQuery,
    report_query_from_dict,
    report_query_to_dict,
)
from repro.service.wire import (
    LeaseHeartbeat,
    ShardLease,
    WorkerStatus,
    lease_heartbeat_from_dict,
    lease_heartbeat_to_dict,
    shard_lease_from_dict,
    shard_lease_to_dict,
    worker_status_from_dict,
    worker_status_to_dict,
)
from repro.store.db import (
    RunRow,
    run_row_from_dict,
    run_row_to_dict,
)
from repro.verify.corpus import (
    CorpusCase,
    check_graph_json,
    loop_from_json,
    loop_to_json,
)
from repro.verify.fuzz import (
    FuzzFailure,
    FuzzReport,
    fuzz_failure_from_dict,
    fuzz_failure_to_dict,
    fuzz_report_from_dict,
    fuzz_report_to_dict,
)

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "register",
    "registered_types",
    "to_dict",
    "envelope",
    "from_dict",
    "dumps",
    "loads",
    "save",
    "load",
    "schema",
    "validate",
    "schedule_result_to_dict",
    "schedule_result_from_dict",
    "loop_run_to_dict",
    "loop_run_from_dict",
    "hardware_spec_to_dict",
    "hardware_spec_from_dict",
    "configuration_report_to_dict",
    "configuration_report_from_dict",
]

#: Bumped whenever an envelope or a registered payload shape changes
#: incompatibly.  ``from_dict`` refuses envelopes from a *newer* schema
#: (it cannot know what they mean) and keeps reading older ones as long
#: as the per-type decoders tolerate their missing keys.
SCHEMA_VERSION: int = 1


class SerializationError(ValueError):
    """A payload does not parse, validate, or name a registered type."""


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _TypeEntry:
    name: str
    cls: type
    encode: Callable[[object], Dict]
    decode: Callable[[Dict], object]
    #: Keys that must be present in ``data`` (the schema the service
    #: smoke job validates results against).
    required: Tuple[str, ...]


_REGISTRY: Dict[str, _TypeEntry] = {}
_BY_CLASS: Dict[type, str] = {}


def register(
    name: str,
    cls: type,
    encode: Callable[[object], Dict],
    decode: Callable[[Dict], object],
    *,
    required: Tuple[str, ...] = (),
) -> None:
    """Register one serializable type under a stable envelope name."""
    if name in _REGISTRY:
        raise ValueError(f"serialization type {name!r} is already registered")
    _REGISTRY[name] = _TypeEntry(name, cls, encode, decode, tuple(required))
    _BY_CLASS[cls] = name


def registered_types() -> List[str]:
    """Every registered envelope type name, sorted."""
    return sorted(_REGISTRY)


def _entry_for(obj: object) -> _TypeEntry:
    name = _BY_CLASS.get(type(obj))
    if name is None:
        raise SerializationError(
            f"cannot serialize {type(obj).__name__!r}: not a registered type "
            f"(known: {', '.join(registered_types())})"
        )
    return _REGISTRY[name]


# --------------------------------------------------------------------------- #
# Envelope API
# --------------------------------------------------------------------------- #
def to_dict(obj: object) -> Dict:
    """Wrap any registered object in a self-describing envelope."""
    return envelope(obj, _entry_for(obj).encode(obj))


def envelope(obj: object, data: Dict) -> Dict:
    """The envelope of a registered object whose ``data`` is already encoded.

    For a caller that built the payload from parts it encoded for
    another purpose (the service digests a job's runs and serves them
    from one encode); ``data`` must be what ``to_dict(obj)["data"]``
    would hold.
    """
    import repro

    return {
        "schema": SCHEMA_VERSION,
        "generator": f"repro {repro.__version__}",
        "type": _entry_for(obj).name,
        "data": data,
    }


def validate(payload: object, expect_type: Optional[str] = None) -> _TypeEntry:
    """Check an envelope against the schema; returns the type entry.

    Raises :class:`SerializationError` on a malformed envelope, an
    unknown or unexpected type, a newer schema version, or missing
    required data keys.  This is the check the service clients run on
    every wire result (``repro submit --validate``).
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"envelope must be a dict, got {type(payload).__name__}"
        )
    missing = [key for key in ("schema", "type", "data") if key not in payload]
    if missing:
        raise SerializationError(f"envelope is missing keys: {missing}")
    if not isinstance(payload["schema"], int) or payload["schema"] > SCHEMA_VERSION:
        raise SerializationError(
            f"envelope uses unknown schema {payload['schema']!r} "
            f"(this build understands <= {SCHEMA_VERSION})"
        )
    entry = _REGISTRY.get(payload["type"])
    if entry is None:
        raise SerializationError(
            f"unknown envelope type {payload['type']!r} "
            f"(known: {', '.join(registered_types())})"
        )
    if expect_type is not None and entry.name != expect_type:
        raise SerializationError(
            f"expected an envelope of type {expect_type!r}, got {entry.name!r}"
        )
    data = payload["data"]
    if not isinstance(data, dict):
        raise SerializationError(
            f"envelope data must be a dict, got {type(data).__name__}"
        )
    lacking = [key for key in entry.required if key not in data]
    if lacking:
        raise SerializationError(
            f"{entry.name} data is missing required keys: {lacking}"
        )
    return entry


def from_dict(payload: Dict, expect_type: Optional[str] = None) -> object:
    """Rebuild the object a :func:`to_dict` envelope describes."""
    entry = validate(payload, expect_type=expect_type)
    return entry.decode(payload["data"])


def dumps(obj: object, *, indent: Optional[int] = 2) -> str:
    """Serialize a registered object to a JSON string."""
    return json.dumps(to_dict(obj), indent=indent, sort_keys=True)


def loads(text: Union[str, bytes], expect_type: Optional[str] = None) -> object:
    """Rebuild an object from :func:`dumps` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"payload is not valid JSON: {exc}") from exc
    return from_dict(payload, expect_type=expect_type)


def save(obj: object, path: Union[str, Path]) -> Path:
    """Write one object as a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(obj) + "\n")
    return path


def load(path: Union[str, Path], expect_type: Optional[str] = None) -> object:
    """Read back an object written by :func:`save`."""
    return loads(Path(path).read_text(), expect_type=expect_type)


def schema() -> Dict:
    """Machine-readable description of every registered envelope type.

    ``repro schema`` writes this to a file; the CI service smoke job
    uploads it as an artifact and validates wire results against it.
    """
    import repro

    return {
        "schema": SCHEMA_VERSION,
        "generator": f"repro {repro.__version__}",
        "envelope": {"required": ["schema", "type", "data"]},
        "types": {
            entry.name: {
                "class": entry.cls.__name__,
                "required": list(entry.required),
            }
            for entry in _REGISTRY.values()
        },
    }


# --------------------------------------------------------------------------- #
# Encoders / decoders
# --------------------------------------------------------------------------- #
def _mii_breakdown_to_dict(breakdown: MIIBreakdown) -> Dict:
    return {
        "res_fu": breakdown.res_fu,
        "res_mem": breakdown.res_mem,
        "res_com": breakdown.res_com,
        "rec": breakdown.rec,
        "mii": breakdown.mii,
    }


def _mii_breakdown_from_dict(payload: Dict) -> MIIBreakdown:
    return MIIBreakdown(
        res_fu=int(payload["res_fu"]),
        res_mem=int(payload["res_mem"]),
        res_com=int(payload["res_com"]),
        rec=int(payload["rec"]),
        mii=int(payload["mii"]),
    )


def schedule_result_to_dict(result: ScheduleResult) -> Dict:
    """The ``data`` payload of a serialized :class:`ScheduleResult`.

    The payload is the schedule contract that every digest hashes, so it
    holds what the scheduler produced, not how much work that took: the
    work counters (``n_pressure_checks``, ``n_full_sweeps``,
    ``n_slot_probes``, ...) are process-local telemetry and are not
    written.
    """
    return {
        "loop_name": result.loop_name,
        "config_name": result.config_name,
        "success": result.success,
        "ii": result.ii,
        "mii": result.mii,
        "mii_breakdown": _mii_breakdown_to_dict(result.mii_breakdown),
        "stage_count": result.stage_count,
        "assignments": result.assignments_json(),
        "graph": result.graph_json(),
        "register_usage": {
            str(bank): usage for bank, usage in sorted(result.register_usage.items())
        },
        "memory_ops_per_iteration": result.memory_ops_per_iteration,
        "n_spill_memory_ops": result.n_spill_memory_ops,
        "n_comm_ops": result.n_comm_ops,
        "scheduling_time_s": result.scheduling_time_s,
        "restarts": result.restarts,
        "bound": result.bound,
        "attempted_iis": list(result.attempted_iis),
        "policy": result.policy,
    }


def schedule_result_from_dict(payload: Dict) -> ScheduleResult:
    """Rebuild a :class:`ScheduleResult` from its ``data`` payload.

    The final graph and the placements are checked here (a payload that
    would not build raises now, not on first use) but built only when
    ``result.graph`` or ``result.assignments`` is first read; until then
    the result re-encodes to the stored payloads.  Node ids are
    preserved, so ``assignments`` (keyed by node id) stay valid
    verbatim.  Envelopes written before 1.12 also carry
    ``n_pressure_checks`` and ``n_full_sweeps``; those keys are ignored,
    and the rebuilt counters read 0.
    """
    graph_payload = payload.get("graph")
    if graph_payload is not None:
        check_graph_json(graph_payload)
    entries = payload.get("assignments", [])
    check_assignments_json(entries)
    result = ScheduleResult(
        loop_name=payload["loop_name"],
        config_name=payload["config_name"],
        success=bool(payload["success"]),
        ii=int(payload["ii"]),
        mii=int(payload["mii"]),
        mii_breakdown=_mii_breakdown_from_dict(payload["mii_breakdown"]),
        stage_count=int(payload["stage_count"]),
        register_usage={
            int(bank): int(usage)
            for bank, usage in (payload.get("register_usage") or {}).items()
        },
        memory_ops_per_iteration=int(payload.get("memory_ops_per_iteration", 0)),
        n_spill_memory_ops=int(payload.get("n_spill_memory_ops", 0)),
        n_comm_ops=int(payload.get("n_comm_ops", 0)),
        scheduling_time_s=float(payload.get("scheduling_time_s", 0.0)),
        restarts=int(payload.get("restarts", 0)),
        bound=payload.get("bound", "fu"),
        # Entries are IIs (ints) except a policy's trailing
        # "skipped:..." audit note, which must survive the round trip.
        attempted_iis=[
            ii if isinstance(ii, str) else int(ii)
            for ii in payload.get("attempted_iis", ())
        ],
        policy=payload.get("policy", "mirs_hc"),
    )
    result.defer(graph_payload, entries)
    return result


def _bank_estimate_to_dict(bank: Optional[BankEstimate]) -> Optional[Dict]:
    if bank is None:
        return None
    return {"access_ns": bank.access_ns, "area_mlambda2": bank.area_mlambda2}


def _bank_estimate_from_dict(payload: Optional[Dict]) -> Optional[BankEstimate]:
    if payload is None:
        return None
    return BankEstimate(
        access_ns=float(payload["access_ns"]),
        area_mlambda2=float(payload["area_mlambda2"]),
    )


def hardware_spec_to_dict(spec: HardwareSpec) -> Dict:
    """The ``data`` payload of a serialized :class:`HardwareSpec`."""
    return {
        "config_name": spec.config_name,
        "cluster_bank": _bank_estimate_to_dict(spec.cluster_bank),
        "shared_bank": _bank_estimate_to_dict(spec.shared_bank),
        "logic_depth_fo4": spec.logic_depth_fo4,
        "clock_ns": spec.clock_ns,
        "mem_hit_latency": spec.mem_hit_latency,
        "fu_latency": spec.fu_latency,
        "loadr_latency": spec.loadr_latency,
        "from_published": spec.from_published,
        "n_cluster_banks": spec._n_cluster_banks,
    }


def hardware_spec_from_dict(payload: Dict) -> HardwareSpec:
    """Rebuild a :class:`HardwareSpec` from its ``data`` payload."""
    return HardwareSpec(
        config_name=payload["config_name"],
        cluster_bank=_bank_estimate_from_dict(payload.get("cluster_bank")),
        shared_bank=_bank_estimate_from_dict(payload.get("shared_bank")),
        logic_depth_fo4=int(payload["logic_depth_fo4"]),
        clock_ns=float(payload["clock_ns"]),
        mem_hit_latency=int(payload["mem_hit_latency"]),
        fu_latency=int(payload["fu_latency"]),
        loadr_latency=payload.get("loadr_latency"),
        from_published=bool(payload.get("from_published", True)),
        _n_cluster_banks=int(payload.get("n_cluster_banks", 1)),
    )


def loop_run_to_dict(run: LoopRun) -> Dict:
    """The ``data`` payload of a serialized :class:`LoopRun`."""
    return {
        "loop": loop_to_json(run.loop),
        "result": schedule_result_to_dict(run.result),
        "spec": hardware_spec_to_dict(run.spec) if run.spec is not None else None,
        "stall_cycles": run.stall_cycles,
    }


def loop_run_from_dict(payload: Dict, loop: Optional[Loop] = None) -> LoopRun:
    """Rebuild a :class:`LoopRun` from its ``data`` payload.

    ``loop`` is the caller's own copy of the run's loop (a restore keyed
    on its :func:`~repro.eval.cache.schedule_key`): the run takes it
    instead of decoding the stored one.  The stored loop's graph is
    still checked, so a corrupt one is refused either way.
    """
    spec = payload.get("spec")
    if loop is None:
        loop = loop_from_json(payload["loop"])
    else:
        check_graph_json(payload["loop"])
    return LoopRun(
        loop=loop,
        result=schedule_result_from_dict(payload["result"]),
        spec=hardware_spec_from_dict(spec) if spec is not None else None,
        stall_cycles=float(payload.get("stall_cycles", 0.0)),
    )


def configuration_report_to_dict(
    report: ConfigurationReport, run_payloads: Optional[List[Dict]] = None
) -> Dict:
    """The ``data`` payload of a serialized :class:`ConfigurationReport`.

    Derived aggregates (cycles, traffic, time) are included read-only so
    wire consumers need not recompute them; ``from_dict`` rebuilds the
    report from the runs and ignores them.  ``run_payloads`` are the
    runs' :func:`loop_run_to_dict` payloads when the caller has them.
    """
    if run_payloads is None:
        run_payloads = [loop_run_to_dict(run) for run in report.runs]
    return {
        "config": report.config.to_dict(),
        "config_name": report.config.name,
        "spec": hardware_spec_to_dict(report.spec),
        "runs": run_payloads,
        "aggregates": {
            "cycles": report.cycles,
            "memory_traffic": report.memory_traffic,
            "time_ns": report.time_ns,
            "area_mlambda2": report.area_mlambda2,
            "n_failed": report.n_failed,
        },
    }


def configuration_report_from_dict(payload: Dict) -> ConfigurationReport:
    """Rebuild a :class:`ConfigurationReport` from its ``data`` payload."""
    return ConfigurationReport(
        config=RFConfig.from_dict(payload["config"]),
        spec=hardware_spec_from_dict(payload["spec"]),
        runs=[loop_run_from_dict(entry) for entry in payload.get("runs", ())],
    )


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #
register(
    "rf_config", RFConfig,
    lambda rf: rf.to_dict(), RFConfig.from_dict,
    required=("n_clusters", "lp", "sp"),
)
register(
    "machine_config", MachineConfig,
    lambda machine: machine.to_dict(), MachineConfig.from_dict,
    required=("n_fus", "n_mem_ports", "latencies"),
)
register(
    "hardware_spec", HardwareSpec,
    hardware_spec_to_dict, hardware_spec_from_dict,
    required=("config_name", "clock_ns", "mem_hit_latency", "fu_latency"),
)
register(
    "loop", Loop,
    loop_to_json, loop_from_json,
    required=("name", "nodes", "edges"),
)
register(
    "schedule_result", ScheduleResult,
    schedule_result_to_dict, schedule_result_from_dict,
    required=("loop_name", "config_name", "success", "ii", "mii",
              "mii_breakdown", "stage_count"),
)
register(
    "loop_run", LoopRun,
    loop_run_to_dict, loop_run_from_dict,
    required=("loop", "result"),
)
register(
    "configuration_report", ConfigurationReport,
    configuration_report_to_dict, configuration_report_from_dict,
    required=("config", "spec", "runs"),
)
register(
    "shard_result", ShardResult,
    shard_result_to_dict, shard_result_from_dict,
    required=("key", "positions", "runs"),
)
register(
    "shard_lease", ShardLease,
    shard_lease_to_dict, shard_lease_from_dict,
    required=("lease_id", "worker_id", "shard_key", "positions", "loops",
              "config", "machine"),
)
register(
    "lease_heartbeat", LeaseHeartbeat,
    lease_heartbeat_to_dict, lease_heartbeat_from_dict,
    required=("lease_id", "worker_id", "extended"),
)
register(
    "worker_status", WorkerStatus,
    worker_status_to_dict, worker_status_from_dict,
    required=("worker_id", "state"),
)
register(
    "corpus_case", CorpusCase,
    lambda case: case.to_json(), CorpusCase.from_json,
    required=("loop", "expect"),
)
register(
    "fuzz_failure", FuzzFailure,
    fuzz_failure_to_dict, fuzz_failure_from_dict,
    required=("seed", "status", "reproducer"),
)
register(
    "fuzz_report", FuzzReport,
    fuzz_report_to_dict, fuzz_report_from_dict,
    required=("n_cases", "n_ok", "n_unschedulable", "failures"),
)
register(
    "run_row", RunRow,
    run_row_to_dict, run_row_from_dict,
    required=("run_key", "loop_name", "config_name", "policy", "core",
              "status"),
)
register(
    "report_query", ReportQuery,
    report_query_to_dict, report_query_from_dict,
)
register(
    "explore_spec", ExploreSpec,
    ExploreSpec.to_dict, ExploreSpec.from_dict,
    required=("algo", "budget", "seed", "tier"),
)
register(
    "frontier_point", FrontierPoint,
    FrontierPoint.to_dict, FrontierPoint.from_dict,
    required=("config", "config_name", "area_mlambda2", "time_ns"),
)
register(
    "explore_report", ExploreReport,
    ExploreReport.to_dict, ExploreReport.from_dict,
    required=("spec", "points", "digest"),
)
