"""repro: Hierarchical clustered register files for VLIW processors.

A reproduction of Zalamea, Llosa, Ayguadé and Valero, *Hierarchical
Clustered Register File Organization for VLIW Processors* (IPDPS 2003).

The package is organized as:

* :mod:`repro.machine` -- VLIW datapath and register-file configurations.
* :mod:`repro.hwmodel` -- CACTI-like access-time/area model, clock and
  latency derivation per configuration.
* :mod:`repro.ddg` -- data-dependence graphs, MII analysis.
* :mod:`repro.workloads` -- the Perfect-Club-like loop workbench.
* :mod:`repro.core` -- the MIRS_HC modulo scheduler (the paper's
  contribution) and the baseline schedulers it is compared against.
* :mod:`repro.simulator` -- lockup-free cache and stall-cycle simulation
  for the real-memory scenario.
* :mod:`repro.eval` -- metrics and the drivers that regenerate every table
  and figure of the paper's evaluation section.
* :mod:`repro.session` -- the session-based public API: construct a
  :class:`~repro.session.Session` once (machine, policy, worker pool,
  shared cache) and call the verbs as methods, including the streaming
  ``evaluate_stream``.
* :mod:`repro.serialize` -- versioned JSON serialization for every public
  result type (schedules, runs, reports, configurations, fuzz cases).
* :mod:`repro.service` -- the in-process batch scheduling service, its
  ``repro serve`` / ``repro submit`` HTTP front end, and the distributed
  shard-evaluation fleet (``repro serve --coordinator`` handing leases
  to pull-based ``repro worker`` processes).
* :mod:`repro.store` -- the durable SQLite run database behind
  ``repro serve --db``: job durability, the queryable run table, and
  the exploration probe store.
* :mod:`repro.report` -- paper-style reports rendered from the run
  table (``repro report``: console, HTML, CSV).
* :mod:`repro.explore` -- Pareto design-space exploration over the
  register-file configuration space (``repro explore``): seeded
  random/evolutionary search with successive-halving promotion and a
  resumable probe store.

Quickstart::

    from repro.session import Session
    session = Session()
    result = session.schedule_kernel("daxpy", "4C16S64")
    print(result.ii, result.stage_count)

The flat v1 verbs (``repro.api.schedule_kernel`` and friends) keep
working as thin shims over a default session.
"""

__version__ = "1.12.0"

from repro.machine import MachineConfig, RFConfig, baseline_machine, config_by_name
from repro.ddg import DepGraph, Loop, OpType
from repro.hwmodel import derive_hardware, scaled_machine

__all__ = [
    "__version__",
    "MachineConfig",
    "RFConfig",
    "Session",
    "baseline_machine",
    "config_by_name",
    "DepGraph",
    "Loop",
    "OpType",
    "derive_hardware",
    "scaled_machine",
]


def __getattr__(name: str):
    # Session is re-exported lazily: repro.session imports the evaluation
    # stack, which would make a plain ``import repro`` heavy (and create
    # an import cycle with the submodules imported above).
    if name == "Session":
        from repro.session import Session

        return Session
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
