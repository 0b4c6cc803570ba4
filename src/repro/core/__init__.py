"""The MIRS_HC modulo scheduler and its supporting machinery.

This package implements the paper's contribution: *Modulo scheduling with
Integrated Register Spilling for Hierarchical Clustered VLIW
architectures* (MIRS_HC), which simultaneously performs

* instruction scheduling (iterative modulo scheduling with backtracking),
* cluster selection,
* insertion of inter-bank communication operations (``Move`` for pure
  clustered register files, ``StoreR``/``LoadR`` for hierarchical ones),
* register allocation at both levels of the register-file hierarchy, and
* spill-code insertion (cluster bank -> shared bank -> memory).

Module map
----------
``banks``            bank identifiers and value-residence rules
``mrt``              the reference modulo reservation table
``arraycore``        the scheduler's MRT and incremental MaxLive tracker
``partial``          the mutable partial schedule (slots, force & eject)
``priority``         node orderings (HRMS-inspired + alternatives)
``lifetimes``        register-pressure (MaxLive) computation per bank
``communication``    insertion/removal of Move / LoadR / StoreR chains
``spill``            two-level spill insertion + victim policies
``cluster_select``   Select_Cluster heuristics (one per policy)
``policy``           policy registries and named policy bundles
``engine``           the scheduling engine every bundle runs on
``mirs_hc``          MIRS_HC = engine + the ``mirs_hc`` bundle (Figure 5)
``baseline``         the non-iterative bundle MIRS_HC is compared with
``result``           schedule result containers
``validate``         independent schedule validity checker (used in tests)
"""

from repro.core.result import ScheduledOp, ScheduleResult
from repro.core.engine import SchedulerEngine
from repro.core.policy import PolicyBundle, bundle_names, get_bundle, resolve_bundle
from repro.core.mirs_hc import MirsHC, schedule_loop
from repro.core.baseline import NonIterativeScheduler
from repro.core.validate import ValidationError, validate_schedule
from repro.core.allocation import RegisterAllocation, allocate_registers
from repro.core.codegen import VLIWProgram, generate_code

__all__ = [
    "ScheduledOp",
    "ScheduleResult",
    "SchedulerEngine",
    "PolicyBundle",
    "bundle_names",
    "get_bundle",
    "resolve_bundle",
    "MirsHC",
    "schedule_loop",
    "NonIterativeScheduler",
    "ValidationError",
    "validate_schedule",
    "RegisterAllocation",
    "allocate_registers",
    "VLIWProgram",
    "generate_code",
]
