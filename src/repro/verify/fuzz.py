"""Randomized scheduler/codegen/allocation fuzzing with failure shrinking.

One fuzz *case* is fully determined by its seed: the seed picks a
generator profile, generates a loop, and (optionally) samples a random
machine/register-file pair; the case is then pushed through the whole
pipeline -- schedule, statically validate, allocate registers, emit
code, differentially execute against the scalar reference -- and any
failure is shrunk (operations and dependences are dropped while the
failure still reproduces) and frozen as a JSON corpus case that
``tests/test_corpus.py`` replays forever after.

Determinism contract: a failure report embeds a reproducer command of
the form ``python -m repro.cli fuzz --seeds 1 --base-seed S --profiles P
--configs C`` that regenerates the identical loop and configuration;
profile choice, loop generation and configuration sampling each use an
independent seeded generator so that pinning one of them on the command
line does not perturb the others.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.engine import SchedulerEngine
from repro.core.result import ScheduleResult
from repro.core.validate import ValidationError, validate_schedule
from repro.ddg.loop import Loop
from repro.hwmodel.timing import scaled_machine
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import baseline_machine, config_by_name
from repro.machine.sampler import sample_machine, sample_rf_config
from repro.verify.corpus import CorpusCase, load_case, save_case
from repro.verify.differential import DifferentialReport, differential_check
from repro.workloads.generator import PROFILES, generate_loop

__all__ = [
    "DEFAULT_FUZZ_CONFIGS",
    "PipelineOutcome",
    "FuzzFailure",
    "FuzzReport",
    "format_reproducer",
    "run_pipeline",
    "replay_case",
    "shrink_loop",
    "fuzz_schedules",
    "fuzz_failure_to_dict",
    "fuzz_failure_from_dict",
    "fuzz_report_to_dict",
    "fuzz_report_from_dict",
]

#: The preset rotation fuzzed by default: the monolithic baseline, the
#: small monolithic file, and the paper's flagship hierarchical
#: clustered organization.
DEFAULT_FUZZ_CONFIGS: Tuple[str, ...] = ("S128", "S64", "4C16S16")

# Independent sub-seeds so pinning --profiles / --configs / --policies on
# replay does not change what the other generators draw.
_PROFILE_STREAM = 0x50524F46   # "PROF"
_CONFIG_STREAM = 0x434F4E46    # "CONF"
_POLICY_STREAM = 0x504F4C49    # "POLI"


@dataclass
class PipelineOutcome:
    """What one schedule->validate->emit->execute run observed."""

    #: "ok" | "unschedulable" | "invalid" | "emit-error" | "mismatch"
    status: str
    message: str = ""
    result: Optional[ScheduleResult] = None
    report: Optional[DifferentialReport] = None

    @property
    def is_failure(self) -> bool:
        """True for outcomes that indicate a pipeline *bug*.

        A loop that does not fit a configuration at any II is not a bug
        (``unschedulable``); everything else short of ``ok`` is.
        """
        return self.status in ("invalid", "emit-error", "mismatch")


def format_reproducer(
    seed: int,
    profile: str,
    config_name: str,
    *,
    ii: Optional[int] = None,
    sampled: bool = False,
    budget_ratio: float = 6.0,
    n_iterations: Optional[int] = None,
    policy: str = "mirs_hc",
) -> str:
    """The replay command (and context) embedded in failure messages.

    Every knob that influences the outcome and differs from its default
    is spelled out, so the command regenerates the failure verbatim.
    """
    context = f"seed={seed} profile={profile} config={config_name}"
    if policy != "mirs_hc":
        context += f" policy={policy}"
    if ii is not None:
        context += f" II={ii}"
    command = (
        f"python -m repro.cli fuzz --seeds 1 --base-seed {seed} "
        f"--profiles {profile} "
    )
    command += "--sample-configs" if sampled else f"--configs {config_name}"
    if policy != "mirs_hc":
        command += f" --policies {policy}"
    if budget_ratio != 6.0:
        command += f" --budget-ratio {budget_ratio}"
    if n_iterations is not None:
        command += f" --iterations {n_iterations}"
    return f"[{context}] {command}"


def run_pipeline(
    loop: Loop,
    rf: RFConfig,
    machine: Optional[MachineConfig] = None,
    *,
    budget_ratio: float = 6.0,
    scale_to_clock: bool = True,
    n_iterations: Optional[int] = None,
    reproducer: Optional[str] = None,
    policy: str = "mirs_hc",
) -> PipelineOutcome:
    """Push one loop through the full verification pipeline.

    Returns a :class:`PipelineOutcome` rather than raising, so fuzzing
    and corpus replay can classify every ending uniformly.  ``machine``
    is the *base* datapath (latencies are re-scaled to the
    configuration's clock when ``scale_to_clock`` is set, exactly as the
    evaluation drivers do).  ``policy`` selects the policy bundle the
    engine schedules with, so the differential oracle covers every
    registered bundle, not just MIRS_HC.
    """
    base = machine or baseline_machine()
    if scale_to_clock:
        scaled, _spec = scaled_machine(base, rf)
    else:
        scaled = base
    try:
        result = SchedulerEngine(
            scaled, rf, policy=policy, budget_ratio=budget_ratio
        ).schedule_loop(loop)
    except Exception:
        return PipelineOutcome(
            status="emit-error",
            message=f"scheduler crashed:\n{traceback.format_exc()}",
        )
    if not result.success:
        return PipelineOutcome(
            status="unschedulable",
            message=f"no schedule up to II={result.ii}",
            result=result,
        )
    try:
        validate_schedule(result, scaled, rf, reproducer=reproducer)
    except ValidationError as exc:
        return PipelineOutcome(status="invalid", message=str(exc), result=result)
    try:
        report = differential_check(
            loop, result, scaled, rf, n_iterations=n_iterations
        )
    except Exception:
        return PipelineOutcome(
            status="emit-error",
            message=f"allocation/codegen/execution crashed:\n{traceback.format_exc()}",
            result=result,
        )
    if not report.ok:
        message = report.describe_failure()
        if reproducer:
            message = f"{message}\n  reproduce: {reproducer}"
        return PipelineOutcome(
            status="mismatch", message=message, result=result, report=report
        )
    return PipelineOutcome(status="ok", result=result, report=report)


def replay_case(
    case: Union[CorpusCase, str, Path],
    *,
    reproducer: Optional[str] = None,
) -> PipelineOutcome:
    """Replay one frozen corpus case through the full pipeline.

    ``case`` is a :class:`~repro.verify.corpus.CorpusCase` or the path of
    one of its JSON files.  The replay runs with the exact knobs the case
    froze (budget ratio, clock scaling, iteration count, policy bundle);
    compare ``outcome.status`` against ``case.expect``.
    """
    if not isinstance(case, CorpusCase):
        path = Path(case)
        reproducer = reproducer or f"python -m repro.cli fuzz --replay {path}"
        case = load_case(path)
    return run_pipeline(
        case.loop, case.rf, case.machine,
        budget_ratio=case.budget_ratio,
        scale_to_clock=case.scale_to_clock,
        n_iterations=case.n_iterations,
        reproducer=reproducer,
        policy=case.policy,
    )


# --------------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------------- #
def shrink_loop(
    loop: Loop,
    still_fails: Callable[[Loop], bool],
    *,
    max_attempts: int = 150,
    deadline: Optional[float] = None,
) -> Loop:
    """Greedily minimize a failing loop while the failure reproduces.

    Alternates node-removal and edge-removal passes until a fixpoint (or
    the attempt budget runs out).  ``still_fails`` re-runs the pipeline
    on a candidate and must return True when the original failure kind
    is still observed.  ``deadline`` (a ``time.perf_counter`` instant)
    bounds the wall-clock cost: every pipeline re-run can be expensive,
    so the fuzz driver's time budget covers shrinking too.
    """
    current = loop
    attempts = 0
    progressed = True

    def exhausted() -> bool:
        return attempts >= max_attempts or (
            deadline is not None and time.perf_counter() > deadline
        )

    while progressed and not exhausted():
        progressed = False
        for node_id in sorted(current.graph.node_ids(), reverse=True):
            if exhausted():
                break
            if len(current.graph) <= 1:
                break
            candidate = current.copy()
            candidate.graph.remove_node(node_id)
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progressed = True
        for edge in sorted(
            current.graph.edges(), key=lambda e: (e.src, e.dst), reverse=True
        ):
            if exhausted():
                break
            candidate = current.copy()
            candidate.graph.remove_edge(edge.src, edge.dst)
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progressed = True
    return current


# --------------------------------------------------------------------------- #
# The fuzz driver
# --------------------------------------------------------------------------- #
@dataclass
class FuzzFailure:
    """One failing case, after shrinking."""

    seed: int
    profile: str
    config_name: str
    status: str
    message: str
    reproducer: str
    corpus_path: Optional[Path] = None
    policy: str = "mirs_hc"


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    n_cases: int = 0
    n_ok: int = 0
    n_unschedulable: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        line = (
            f"fuzz: {self.n_cases} case(s) in {self.elapsed_s:.1f}s -- "
            f"{self.n_ok} ok, {self.n_unschedulable} unschedulable, "
            f"{len(self.failures)} failure(s)"
        )
        if self.stopped_early:
            line += " (stopped early: time budget)"
        return line

    def render(self) -> str:
        lines = [self.summary()]
        for failure in self.failures:
            lines.append(f"  [{failure.status}] {failure.reproducer}")
            if failure.corpus_path is not None:
                lines.append(f"    minimized case: {failure.corpus_path}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-safe dict of this report (see :mod:`repro.serialize`)."""
        return fuzz_report_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "FuzzReport":
        return fuzz_report_from_dict(payload)


# --------------------------------------------------------------------------- #
# Serialization (payload shapes registered in repro.serialize)
# --------------------------------------------------------------------------- #
def fuzz_failure_to_dict(failure: FuzzFailure) -> Dict:
    """The ``data`` payload of a serialized :class:`FuzzFailure`."""
    return {
        "seed": failure.seed,
        "profile": failure.profile,
        "config_name": failure.config_name,
        "status": failure.status,
        "message": failure.message,
        "reproducer": failure.reproducer,
        "corpus_path": str(failure.corpus_path) if failure.corpus_path else None,
        "policy": failure.policy,
    }


def fuzz_failure_from_dict(payload: Dict) -> FuzzFailure:
    corpus_path = payload.get("corpus_path")
    return FuzzFailure(
        seed=int(payload["seed"]),
        profile=payload.get("profile", ""),
        config_name=payload.get("config_name", ""),
        status=payload["status"],
        message=payload.get("message", ""),
        reproducer=payload["reproducer"],
        corpus_path=Path(corpus_path) if corpus_path else None,
        policy=payload.get("policy", "mirs_hc"),
    )


def fuzz_report_to_dict(report: FuzzReport) -> Dict:
    """The ``data`` payload of a serialized :class:`FuzzReport`."""
    return {
        "n_cases": report.n_cases,
        "n_ok": report.n_ok,
        "n_unschedulable": report.n_unschedulable,
        "failures": [fuzz_failure_to_dict(failure) for failure in report.failures],
        "elapsed_s": report.elapsed_s,
        "stopped_early": report.stopped_early,
    }


def fuzz_report_from_dict(payload: Dict) -> FuzzReport:
    return FuzzReport(
        n_cases=int(payload.get("n_cases", 0)),
        n_ok=int(payload.get("n_ok", 0)),
        n_unschedulable=int(payload.get("n_unschedulable", 0)),
        failures=[
            fuzz_failure_from_dict(entry) for entry in payload.get("failures", ())
        ],
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
        stopped_early=bool(payload.get("stopped_early", False)),
    )


def _case_loop(seed: int, profile: str) -> Loop:
    rng = np.random.default_rng(seed)
    return generate_loop(
        rng, PROFILES[profile], index=0, name=f"fuzz{seed}_{profile}"
    )


def _case_profile(seed: int, profiles: Sequence[str]) -> str:
    rng = np.random.default_rng((seed, _PROFILE_STREAM))
    return profiles[int(rng.integers(0, len(profiles)))]


def _case_policy(seed: int, policies: Sequence[str]) -> str:
    rng = np.random.default_rng((seed, _POLICY_STREAM))
    return policies[int(rng.integers(0, len(policies)))]


def _case_config(
    seed: int,
    index: int,
    configs: Sequence[str],
    sample_configs: bool,
    base: MachineConfig,
) -> Tuple[RFConfig, MachineConfig, str, bool]:
    if sample_configs:
        rng = np.random.default_rng((seed, _CONFIG_STREAM))
        machine = sample_machine(rng)
        rf = sample_rf_config(rng, machine)
        return rf, machine, rf.name, True
    name = configs[index % len(configs)]
    return config_by_name(name), base, name, False


def fuzz_schedules(
    n_seeds: int = 100,
    *,
    base_seed: int = 2003,
    configs: Sequence[str] = DEFAULT_FUZZ_CONFIGS,
    profiles: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    sample_configs: bool = False,
    machine: Optional[MachineConfig] = None,
    budget_ratio: float = 6.0,
    time_budget_s: Optional[float] = None,
    corpus_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
    max_shrink_attempts: int = 120,
    n_iterations: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Hunt for scheduler/codegen/allocation bugs with randomized cases.

    Case ``k`` uses seed ``base_seed + k``; the seed alone determines the
    loop (via a generator profile), the policy bundle (drawn from
    ``policies``; default: only ``mirs_hc``) and, with
    ``sample_configs``, the random machine/register-file pair --
    otherwise the case rotates through the ``configs`` presets.  Every
    failure is shrunk (when ``shrink``) and written into ``corpus_dir``
    as a JSON case the test suite replays.  ``time_budget_s`` bounds the
    wall-clock time: the run stops early (reported, not an error) once
    exceeded.

    Pass ``policies=repro.core.bundle_names()`` (CLI:
    ``--policies all``) to spread the differential oracle over every
    registered policy bundle.
    """
    profile_names = list(profiles) if profiles else sorted(PROFILES)
    # Validate bundle names up front: a typo'd --policies value must fail
    # loudly here, not be misclassified as a scheduler crash on every
    # case (and pollute the corpus with bogus "failures").
    from repro.core.policy import resolve_bundle

    policy_names = [
        resolve_bundle(name).name for name in (policies or ["mirs_hc"])
    ]
    base = machine or baseline_machine()
    report = FuzzReport()
    started = time.perf_counter()
    deadline = started + time_budget_s if time_budget_s is not None else None

    for index in range(n_seeds):
        if time_budget_s is not None and time.perf_counter() - started > time_budget_s:
            report.stopped_early = True
            break
        seed = base_seed + index
        profile = _case_profile(seed, profile_names)
        policy = _case_policy(seed, policy_names)
        rf, case_machine, config_name, sampled = _case_config(
            seed, index, configs, sample_configs, base
        )
        loop = _case_loop(seed, profile)
        reproducer = format_reproducer(
            seed, profile, config_name, sampled=sampled,
            budget_ratio=budget_ratio, n_iterations=n_iterations,
            policy=policy,
        )
        outcome = run_pipeline(
            loop, rf, case_machine,
            budget_ratio=budget_ratio,
            n_iterations=n_iterations,
            reproducer=reproducer,
            policy=policy,
        )
        report.n_cases += 1
        if outcome.status == "ok":
            report.n_ok += 1
            continue
        if outcome.status == "unschedulable":
            report.n_unschedulable += 1
            continue

        # ---- a real failure: shrink it and freeze a corpus case ------- #
        ii = outcome.result.ii if outcome.result is not None else None
        reproducer = format_reproducer(
            seed, profile, config_name, ii=ii, sampled=sampled,
            budget_ratio=budget_ratio, n_iterations=n_iterations,
            policy=policy,
        )
        if progress:
            progress(f"failure ({outcome.status}): {reproducer}")
        minimized = loop
        if shrink:
            failure_kind = outcome.status

            def still_fails(candidate: Loop) -> bool:
                probe = run_pipeline(
                    candidate, rf, case_machine,
                    budget_ratio=budget_ratio,
                    n_iterations=n_iterations,
                    policy=policy,
                )
                return probe.status == failure_kind

            minimized = shrink_loop(
                loop, still_fails, max_attempts=max_shrink_attempts,
                deadline=deadline,
            )
            if progress and len(minimized.graph) < len(loop.graph):
                progress(
                    f"  shrunk {len(loop.graph)} -> {len(minimized.graph)} nodes"
                )
        corpus_path: Optional[Path] = None
        if corpus_dir is not None:
            case = CorpusCase(
                loop=minimized,
                rf=rf,
                machine=case_machine,
                expect="ok",
                description=(
                    f"fuzz failure ({outcome.status}) found with seed {seed}, "
                    f"profile {profile}, config {config_name}; minimized by "
                    f"the shrinker.  Expected behaviour after the fix: the "
                    f"full pipeline passes."
                ),
                origin={
                    "seed": seed,
                    "profile": profile,
                    "config": config_name,
                    "sampled_config": sampled,
                    "policy": policy,
                    "failure": outcome.status,
                },
                config_name=None if sampled else config_name,
                budget_ratio=budget_ratio,
                n_iterations=n_iterations,
                policy=policy,
            )
            corpus_path = save_case(
                case, Path(corpus_dir) / f"fuzz_{seed}_{config_name}.json"
            )
        report.failures.append(
            FuzzFailure(
                seed=seed,
                profile=profile,
                config_name=config_name,
                status=outcome.status,
                message=outcome.message,
                reproducer=reproducer,
                corpus_path=corpus_path,
                policy=policy,
            )
        )
    report.elapsed_s = time.perf_counter() - started
    return report
