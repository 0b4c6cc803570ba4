"""MIRS_HC: the integrated iterative modulo scheduler (paper, Figure 5).

Since the engine/policy refactor this module is a thin facade: the actual
driver lives in :class:`repro.core.engine.SchedulerEngine`, and MIRS_HC
is the engine configured with the ``mirs_hc`` policy bundle --

1. HRMS-inspired node ordering (``ordering=hrms``);
2. the communication-affinity ``Select_Cluster`` heuristic
   (``cluster=comm_affinity``), fed the *exact* current register pressure
   by the incremental tracker;
3. per-placement integrated register spilling with longest-lifetime
   victims (``spill=longest_lifetime``);
4. force-and-eject backtracking bounded by the paper's ``Budget_Ratio``;
5. a geometric II search with bisection refinement
   (``ii_search=geometric_bisect``): II + 1 for the first three restarts,
   then accelerated jumps, then -- once a jump lands on a feasible II --
   bisection back toward the last failed II so acceleration cannot
   overshoot the minimal achievable II.

The scheduler handles all four register-file families (monolithic,
clustered, hierarchical, hierarchical clustered) through the same code
path; the organization only changes which communication chains are
needed and where values live.  Alternative heuristics for every axis are
registered in :mod:`repro.core.policy` (pass ``policy=...`` here, or
``--policy`` on the CLI) and compared by the policy-ablation driver.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ddg.loop import Loop
from repro.machine.config import MachineConfig, RFConfig
from repro.machine.presets import baseline_machine, config_by_name
from repro.core.engine import SchedulerEngine
from repro.core.policy import PolicyBundle
from repro.core.result import ScheduleResult

__all__ = ["MirsHC", "schedule_loop"]


class MirsHC(SchedulerEngine):
    """Modulo scheduling with Integrated Register Spilling for HC VLIWs.

    Parameters
    ----------
    machine:
        Datapath description whose latencies are already scaled to the
        target configuration's clock (see
        :func:`repro.hwmodel.timing.scaled_machine`).
    rf:
        The register-file organization to schedule for.
    budget_ratio:
        Average number of scheduling attempts allowed per node before the
        current II is abandoned (the paper's ``Budget_Ratio``).
    max_ii:
        Hard upper bound on the II explored before giving up on a loop.
    policy:
        Policy bundle to run the engine with (default: the paper's
        ``mirs_hc`` bundle).
    """

    def __init__(
        self,
        machine: MachineConfig,
        rf: RFConfig,
        *,
        budget_ratio: float = 6.0,
        max_ii: int = 512,
        policy: Union[str, PolicyBundle] = "mirs_hc",
        analysis_cache=None,
    ) -> None:
        super().__init__(
            machine,
            rf,
            policy=policy,
            budget_ratio=budget_ratio,
            max_ii=max_ii,
            analysis_cache=analysis_cache,
        )


def schedule_loop(
    loop: Loop,
    rf: RFConfig | str,
    machine: Optional[MachineConfig] = None,
    *,
    scale_to_clock: bool = True,
    budget_ratio: float = 6.0,
    policy: Union[str, PolicyBundle] = "mirs_hc",
) -> ScheduleResult:
    """Convenience wrapper: schedule one loop on one configuration.

    ``rf`` may be a configuration object or a name such as ``"4C16S64"``.
    When ``scale_to_clock`` is true the operation latencies are first
    re-scaled to the configuration's derived clock (the paper's
    methodology); otherwise the baseline latencies are used unchanged.
    ``policy`` selects the policy bundle (see :mod:`repro.core.policy`).
    """
    from repro.hwmodel.timing import scaled_machine  # local import: avoid cycle

    rf_config = config_by_name(rf) if isinstance(rf, str) else rf
    base = machine or baseline_machine()
    if scale_to_clock:
        scaled, _spec = scaled_machine(base, rf_config)
    else:
        scaled = base
    scheduler = SchedulerEngine(
        scaled, rf_config, policy=policy, budget_ratio=budget_ratio
    )
    return scheduler.schedule_loop(loop)
