"""Golden loop fingerprints: the loop part of every cache key, pinned byte for byte.

:meth:`~repro.ddg.loop.Loop.fingerprint` is the loop component of
:func:`~repro.eval.cache.schedule_key`, so the shard checkpoints and the
disk cache are addressed by it.  The digests below are SHA-256 over the
fingerprints of every loop of a workbench tier at the canonical seed,
one fingerprint per line in workbench order.  A change to how the
fingerprint is computed (a memo, a faster signature) must reproduce them
without regenerating them; only a change meant to re-key every stored
result does, and says so::

    PYTHONPATH=src python tests/test_golden_fingerprints.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.workloads import build_workbench

GOLDEN_FINGERPRINTS = {
    "full": "f32c35e1cd05e6221cd0a55a134c9fefc7dce268337959a2330828a6ff07389d",
    "tiny": "93d4926fa1a24b2feec2651a25573374a9872e4192f71b2267db70defcaaf662",
}


def fingerprints_digest(tier: str) -> str:
    digest = hashlib.sha256()
    for loop in build_workbench(tier):
        digest.update(loop.fingerprint().encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("tier", sorted(GOLDEN_FINGERPRINTS))
def test_fingerprints_match_golden(tier):
    assert fingerprints_digest(tier) == GOLDEN_FINGERPRINTS[tier]


if __name__ == "__main__":
    for name in sorted(GOLDEN_FINGERPRINTS):
        print(f'    "{name}": "{fingerprints_digest(name)}",')
