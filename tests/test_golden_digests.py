"""Golden schedule digests: the scheduler's output pinned byte for byte.

``tests/golden_digests.json`` holds, for the tiny and small workbench
tiers, the :func:`~repro.eval.shards.runs_digest` of every Table 5
configuration (latencies scaled to the configuration's clock, as in
Table 6 and Figure 6) and of every distinct Table 3 configuration
(unbounded banks, baseline latencies, as in the Table 3 driver), plus the
schedule digest of every regression-corpus case (asserted by
``tests/test_corpus.py``).  Configurations are keyed by name and lp-sp,
because Table 3 reuses a name with different port counts.

A refactor of the scheduler must reproduce these digests without
regenerating the file.  Only a change meant to alter schedules
regenerates it, and says so::

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.eval import runs_digest, schedule_suite
from repro.machine.config import RFConfig
from repro.machine.presets import table3_configs, table5_configs
from repro.workloads import build_workbench

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
TIERS = ("tiny", "small")


def config_key(rf: RFConfig) -> str:
    return f"{rf.name} {rf.lp}-{rf.sp}"


def golden_configs() -> List[Tuple[str, str, RFConfig]]:
    """``(table, key, config)`` of the 15 Table 5 and 13 distinct Table 3 configs."""
    configs = [("table5", config_key(rf), rf) for rf in table5_configs()]
    seen = set()
    for pair in table3_configs():
        for rf in pair:
            key = config_key(rf)
            if key not in seen:
                seen.add(key)
                configs.append(("table3", key, rf))
    return configs


def config_digest(loops, table: str, rf: RFConfig) -> str:
    runs = schedule_suite(loops, rf, scale_to_clock=table == "table5")
    return runs_digest(runs)


def _golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text())


CONFIGS = golden_configs()
CONFIG_IDS = [f"{table}:{key}" for table, key, _rf in CONFIGS]


def test_golden_covers_every_config():
    golden = _golden()
    for tier in TIERS:
        for table in ("table5", "table3"):
            assert sorted(golden[tier][table]) == sorted(
                key for config_table, key, _rf in CONFIGS if config_table == table
            )


@pytest.fixture(scope="module")
def tiny_workbench():
    return build_workbench("tiny")


@pytest.fixture(scope="module")
def small_workbench():
    return build_workbench("small")


@pytest.mark.parametrize("table,key,rf", CONFIGS, ids=CONFIG_IDS)
def test_tiny_tier_digest(tiny_workbench, table, key, rf):
    assert config_digest(tiny_workbench, table, rf) == _golden()["tiny"][table][key]


@pytest.mark.slow
@pytest.mark.parametrize("table,key,rf", CONFIGS, ids=CONFIG_IDS)
def test_small_tier_digest(small_workbench, table, key, rf):
    assert config_digest(small_workbench, table, rf) == _golden()["small"][table][key]


if __name__ == "__main__":
    from repro.verify.fuzz import replay_case

    # Run as a script, this file's directory is on sys.path.
    from test_corpus import CASES, schedule_digest

    golden: Dict[str, Dict] = {}
    for tier in TIERS:
        loops = build_workbench(tier)
        golden[tier] = {"table5": {}, "table3": {}}
        for table, key, rf in CONFIGS:
            golden[tier][table][key] = config_digest(loops, table, rf)
    golden["corpus"] = {
        path.stem: schedule_digest(replay_case(path).result) for path in CASES
    }
    print(json.dumps(golden, indent=2, sort_keys=True))
