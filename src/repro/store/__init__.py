"""Durable persistence for the batch service: the SQLite run table.

The service layers above this package keep everything observable in
memory; this package is where state *survives*:

* :class:`~repro.store.db.RunDatabase` -- one SQLite file holding a
  ``jobs`` table (write-through durability for
  :class:`~repro.service.batch.BatchScheduler`: every job row carries
  its content-hash key, state, and -- once finished -- the serialized
  result envelope) and a ``runs`` table (one row per scheduled
  ``(loop, config, policy, version)`` problem with the metrics
  columns reports are rendered from).
* :func:`~repro.store.db.rows_from_runs` -- the single converter from
  live :class:`~repro.eval.metrics.LoopRun` lists to run-table rows,
  shared by the local execution path and the fleet coordinator.

Reports (:mod:`repro.report`, ``repro report``) and resubmission
answers are rendered *from* these tables, never recomputed -- the
experiment-database workflow of PyExperimenter / muBench's
``run_table.csv`` split, applied to this service.
"""

from repro.store.db import (
    DB_SCHEMA_VERSION,
    RunDatabase,
    RunRow,
    rows_from_runs,
    run_row_from_dict,
    run_row_to_dict,
)

__all__ = [
    "DB_SCHEMA_VERSION",
    "RunDatabase",
    "RunRow",
    "rows_from_runs",
    "run_row_from_dict",
    "run_row_to_dict",
]
