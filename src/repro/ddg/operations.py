"""Operation kinds and memory-reference descriptors.

The operation repertoire matches the paper's evaluation framework: the
floating-point operations executed by the general-purpose units (addition,
multiplication, division, square root), the memory operations executed by
the load/store ports, and the data-movement operations introduced by the
register-file organization (inter-cluster ``Move``, and the
``LoadR``/``StoreR`` pair that moves values between the two levels of the
hierarchical register file).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

__all__ = ["OpType", "OpClass", "MemRef", "OP_VALUES"]


class OpClass(enum.Enum):
    """Coarse classification of operations used by the resource model."""

    COMPUTE = "compute"         # executes on a general-purpose FP unit
    MEMORY = "memory"           # executes on a memory (load/store) port
    COMMUNICATION = "comm"      # moves data between register banks
    PSEUDO = "pseudo"           # no resource usage (live-in values)

    # Enum members are singletons, so identity hashing is equivalent to
    # the default name hashing -- but it runs as a C slot instead of a
    # Python-level call.  Operation classes key the scheduler's hottest
    # dictionaries (see :mod:`repro.core.mrt`), where the default hash
    # showed up as a top-3 cost at paper scale.
    __hash__ = object.__hash__


class OpType(enum.Enum):
    """The operation kinds that can appear in a dependence graph.

    Classification flags (``mnemonic``, ``op_class``, ``is_compute``,
    ``is_memory``, ``is_communication``, ``is_pseudo``,
    ``defines_register``) are plain attributes cached on each member
    after the class is built: the scheduler queries them millions of
    times per workbench, and property descriptors were a measurable
    fraction of full-tier scheduling time.
    """

    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    LOAD = "load"
    STORE = "store"
    MOVE = "move"          # inter-cluster copy over the bus (clustered RFs)
    LOADR = "loadr"        # shared bank  -> cluster bank (hierarchical RFs)
    STORER = "storer"      # cluster bank -> shared bank  (hierarchical RFs)
    LIVE_IN = "live_in"    # loop-invariant / live-in value (no resources)

    # See OpClass.__hash__: identity hashing as a C slot for the
    # scheduler's dictionary-heavy inner loops.
    __hash__ = object.__hash__

    if TYPE_CHECKING:  # pragma: no cover - assigned below, typed here
        mnemonic: str
        op_class: "OpClass"
        is_compute: bool
        is_memory: bool
        is_communication: bool
        is_pseudo: bool
        defines_register: bool


#: Every ``OpType`` value: what a payload's ``"op"`` may hold.
OP_VALUES = frozenset(op.value for op in OpType)

_COMPUTE_OPS = frozenset({OpType.FADD, OpType.FMUL, OpType.FDIV, OpType.FSQRT})
_MEMORY_OPS = frozenset({OpType.LOAD, OpType.STORE})
_COMM_OPS = frozenset({OpType.MOVE, OpType.LOADR, OpType.STORER})


def _classify(op: OpType) -> OpClass:
    if op in _COMPUTE_OPS:
        return OpClass.COMPUTE
    if op in _MEMORY_OPS:
        return OpClass.MEMORY
    if op in _COMM_OPS:
        return OpClass.COMMUNICATION
    return OpClass.PSEUDO


for _op in OpType:
    #: Lower-case mnemonic used to look up latencies in the machine.
    _op.mnemonic = _op.value
    _op.op_class = _classify(_op)
    _op.is_compute = _op in _COMPUTE_OPS
    _op.is_memory = _op in _MEMORY_OPS
    _op.is_communication = _op in _COMM_OPS
    _op.is_pseudo = _op is OpType.LIVE_IN
    # Operations that write a result into some register bank: ``Store``
    # writes to memory, not to a register; everything else (including
    # ``StoreR``, which writes into the shared bank) defines a value.
    _op.defines_register = _op is not OpType.STORE
del _op


@dataclass(frozen=True)
class MemRef:
    """Description of the memory access pattern of a load or store.

    Used by the workload generator and the real-memory simulator to
    synthesize the address stream of the loop.

    Parameters
    ----------
    array:
        Symbolic name of the array (accesses to the same array with the
        same stride hit the same cache lines).
    stride_bytes:
        Address increment per loop iteration; 8 for a unit-stride
        double-precision stream, larger for strided or multi-dimensional
        accesses, 0 for repeated access to a single location.
    offset_bytes:
        Starting offset of the stream within the array.
    footprint_bytes:
        Approximate size of the region the loop touches (used to lay out
        distinct arrays in the address space).
    """

    array: str
    stride_bytes: int = 8
    offset_bytes: int = 0
    footprint_bytes: Optional[int] = None
