"""The :class:`Loop` container: a dependence graph plus execution metadata.

The evaluation metrics of the paper (Section 2.3) need, besides the
schedule itself, the total number of iterations the loop executes at run
time (``N``), the number of times the loop is entered (``E``, which
multiplies the pipeline fill/drain overhead ``(SC - 1)``), and the memory
behaviour of the loop (for memory traffic and the real-memory scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ddg.graph import DepGraph

__all__ = ["Loop"]


@dataclass
class Loop:
    """One software-pipelinable innermost loop of the workbench.

    Parameters
    ----------
    name:
        Identifier of the loop (kernel name or generator tag).
    graph:
        The data-dependence graph of the loop body (single basic block,
        already IF-converted).
    trip_count:
        Total number of iterations executed per entry of the loop
        (``N / E`` in the paper's execution-cycle formula).
    times_entered:
        Number of times the loop is started during program execution
        (``E``); each entry pays the pipeline fill/drain overhead.
    weight:
        Relative weight of the loop in the workbench (used when composing
        whole-program style metrics; 1.0 for equally weighted loops).
    source:
        Free-form provenance tag (``"kernel"`` or ``"generated"``).
    """

    name: str
    graph: DepGraph
    trip_count: int = 100
    times_entered: int = 1
    weight: float = 1.0
    source: str = "kernel"
    #: Optional free-form attributes attached by the workload generator
    #: (e.g. the statistical profile the loop was drawn from).
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """Total iterations across all entries (``N`` in the paper)."""
        return self.trip_count * self.times_entered

    @property
    def n_operations(self) -> int:
        """Number of operations in the original loop body."""
        return len(self.graph)

    @property
    def n_memory_ops(self) -> int:
        return len(self.graph.memory_operations())

    def copy(self) -> "Loop":
        """A deep copy (fresh graph) of the loop."""
        return Loop(
            name=self.name,
            graph=self.graph.copy(),
            trip_count=self.trip_count,
            times_entered=self.times_entered,
            weight=self.weight,
            source=self.source,
            attributes=dict(self.attributes),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the loop (structure plus run metadata).

        Two loops with identical dependence graphs, trip counts and
        weights share a fingerprint even when they are distinct objects
        (e.g. regenerated from the same seed in another process); any
        change to the body or the execution metadata changes it.  This is
        the loop component of the evaluation-cache key
        (:func:`repro.eval.cache.schedule_key`).

        The digest is SHA-256 over ``repr((name, trip_count,
        times_entered, weight, graph.structural_signature()))``.  The
        graph keeps the last digest with the text of the four metadata
        values (see :meth:`DepGraph.signature_digest`): fields of a loop
        may change, and equal text means equal bytes.
        """
        head = (
            f"{self.name!r}, {self.trip_count!r}, "
            f"{self.times_entered!r}, {self.weight!r}"
        )
        return self.graph.signature_digest(head)

    def describe(self) -> str:
        """Readable one-line description used by examples and reports."""
        return (
            f"{self.name}: {self.graph.summary()}, N={self.total_iterations}, "
            f"entries={self.times_entered}"
        )
