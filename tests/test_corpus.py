"""Auto-replay of the regression corpus.

Every JSON case under ``tests/corpus/`` is discovered and pushed through
the full verification pipeline -- schedule, statically validate,
allocate registers, emit code, differentially execute against the scalar
reference -- and the observed outcome must match the case's ``expect``
field.  Fuzz failures land here (minimized) once fixed; hand-written
regressions (like the PR 1 spill dead-end loops that seed the corpus)
are pinned the same way.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.verify.corpus import discover_cases, load_case
from repro.verify.fuzz import run_pipeline

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
CASES = discover_cases(CORPUS_DIR)


def test_corpus_is_seeded():
    """The corpus must never silently vanish (a glob typo would otherwise
    turn the whole replay suite into a no-op)."""
    assert len(CASES) >= 4


def schedule_digest(result) -> str:
    """Content hash of everything schedule-shaped in a result.

    Wall-clock time is the only nondeterministic field, so it is zeroed
    before hashing; every placement, counter and usage figure
    participates.
    """
    payload = result.to_dict()
    payload["scheduling_time_s"] = 0.0
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _replay(path):
    """One pipeline run per case, shared by the tests below."""
    case = load_case(path)
    outcome = run_pipeline(
        case.loop,
        case.rf,
        case.machine,
        budget_ratio=case.budget_ratio,
        scale_to_clock=case.scale_to_clock,
        n_iterations=case.n_iterations,
        reproducer=f"python -m repro.cli fuzz --replay {path}",
        policy=case.policy,
    )
    return case, outcome


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_replay_corpus_case(path):
    case, outcome = _replay(path)
    assert outcome.status == case.expect, (
        f"{path.name}: expected {case.expect!r}, observed {outcome.status!r}\n"
        f"{case.description}\n{outcome.message}"
    )
    if path.stem.startswith("spill_"):
        # The seeded PR 1 cases are only meaningful while they exercise
        # the two-level spill chain; if a scheduler change stops them
        # spilling, the corpus needs harder cases.
        assert outcome.result is not None
        assert outcome.result.n_spill_memory_ops > 0


@pytest.mark.parametrize("path", CASES, ids=[path.stem for path in CASES])
def test_corpus_case_is_core_invariant(path):
    """The scheduler core reproduces each case's schedule bit for bit.

    The golden digest in ``tests/golden_digests.json`` was taken while an
    object core and the array core ran side by side and agreed on every
    case; the remaining array core must still produce it (placements,
    clusters, register usage, search trace).  See
    ``tests/test_golden_digests.py`` for how the file is regenerated.
    """
    _case, outcome = _replay(path)
    assert outcome.result is not None
    golden = json.loads(GOLDEN_PATH.read_text())["corpus"]
    assert schedule_digest(outcome.result) == golden[path.stem]
