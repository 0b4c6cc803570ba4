"""Mutable data-dependence graph.

The graph is deliberately small and hand-rolled (rather than built on
``networkx``): the scheduler mutates it heavily (inserting and removing
spill and communication nodes, re-routing edges) inside its innermost
loop, so we keep adjacency as plain dictionaries and avoid any generic
graph-library overhead.

Edges do **not** store latencies.  The effective latency of a dependence
is a property of the *producer operation and the machine configuration*
(which differs between register-file organizations because latencies are
re-scaled to each configuration's clock), so it is always derived at
scheduling time via :meth:`DepGraph.edge_latency`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ddg.operations import MemRef, OpType

__all__ = ["Operation", "Dependence", "DepGraph", "GraphListener"]


class GraphListener:
    """Base class for :class:`DepGraph` mutation observers.

    Subclasses override the callbacks they care about; the defaults do
    nothing, so a listener only pays for the events it uses.
    """

    def on_edge_added(self, edge: "Dependence") -> None:  # pragma: no cover
        pass

    def on_edge_removed(self, edge: "Dependence") -> None:  # pragma: no cover
        pass

    def on_node_removed(self, node_id: int) -> None:  # pragma: no cover
        pass


@dataclass
class Operation:
    """A node of the dependence graph (one operation of the loop body)."""

    node_id: int
    op: OpType
    name: str = ""
    #: Memory access descriptor (loads/stores only).
    mem_ref: Optional[MemRef] = None
    #: True for spill loads/stores inserted by the register allocator.
    is_spill: bool = False
    #: True for communication nodes (Move/LoadR/StoreR) inserted by the
    #: scheduler; such nodes are removed again when their owner is ejected.
    is_inserted: bool = False
    #: For LoadR nodes pre-inserted after memory loads (hierarchical RFs)
    #: and other bookkeeping: the node this one was inserted on behalf of.
    inserted_for: Optional[int] = None
    #: For communication operations: the cluster bank the operation is tied
    #: to (the destination cluster for LoadR/Move, the source cluster for
    #: StoreR).  ``None`` for every other operation.
    home_cluster: Optional[int] = None
    #: Per-node latency override, used by binding prefetching to schedule
    #: selected loads with the cache-miss latency instead of the hit
    #: latency.  ``None`` means "use the machine latency of the op type".
    latency_override: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.op.mnemonic
        return f"Operation({self.node_id}, {label})"


@dataclass(frozen=True)
class Dependence:
    """A dependence edge ``src -> dst``.

    ``distance`` is the iteration distance (``omega``): 0 for
    intra-iteration dependences, >= 1 for loop-carried ones.  ``kind`` is
    ``"flow"`` for true register dependences, ``"mem"`` for dependences
    through memory (store -> load serialization), and ``"seq"`` for other
    ordering constraints with zero latency contribution.
    """

    src: int
    dst: int
    distance: int = 0
    kind: str = "flow"

    def with_src(self, new_src: int) -> "Dependence":
        return replace(self, src=new_src)

    def with_dst(self, new_dst: int) -> "Dependence":
        return replace(self, dst=new_dst)


class DepGraph:
    """A mutable dependence graph over :class:`Operation` nodes.

    Every write goes through a method of this class: the structural
    mutators, :meth:`set_latency_override` and :meth:`set_home_cluster`.
    Nothing else assigns an :class:`Operation` field after the node is
    added, so the memos below see every change.
    """

    #: Memo of :meth:`signature_digest`: ``(head, digest)`` of the last
    #: call, dropped by every mutator.  A class-level default: only a
    #: graph that was digested holds its own, so the graphs the scheduler
    #: builds and copies carry no extra attribute.
    _signature_digest: Optional[Tuple[str, str]] = None

    def __init__(self) -> None:
        self._nodes: Dict[int, Operation] = {}
        self._succ: Dict[int, Dict[int, Dependence]] = {}
        self._pred: Dict[int, Dict[int, Dependence]] = {}
        self._next_id: int = 0
        #: Mutation observers (see :meth:`add_listener`).  Not copied by
        #: :meth:`copy`: a listener tracks one concrete graph instance.
        self._listeners: List["GraphListener"] = []
        #: Dense index per live node (see :meth:`dense_index`).  Indices of
        #: removed nodes are recycled LIFO so the index space stays compact
        #: under the scheduler's insert/remove churn.
        self._node_index: Dict[int, int] = {}
        self._free_indices: List[int] = []
        self._index_size: int = 0
        #: Per-node flow-adjacency snapshots (see :meth:`flow_consumers`).
        #: Invalidated on any incident edge mutation; a list handed out
        #: before a mutation keeps snapshot semantics, exactly like the
        #: fresh list each call used to build.
        self._flow_succ: Dict[int, List[Tuple[int, Dependence]]] = {}
        self._flow_pred: Dict[int, List[Tuple[int, Dependence]]] = {}
        #: Memo of :meth:`recurrence_components`; ``None`` until computed
        #: and again after any structural mutation.
        self._recurrences: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------ #
    # Mutation listeners
    # ------------------------------------------------------------------ #
    def add_listener(self, listener: "GraphListener") -> None:
        """Register an observer of structural mutations.

        Listeners receive ``on_edge_added(edge)``, ``on_edge_removed(edge)``
        and ``on_node_removed(node_id)`` callbacks.  The incremental
        register-pressure tracker uses this to follow spill insertion and
        communication re-routing without rescanning the graph.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: "GraphListener") -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------ #
    # Construction / mutation
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        op: OpType,
        name: str = "",
        *,
        mem_ref: Optional[MemRef] = None,
        is_spill: bool = False,
        is_inserted: bool = False,
        inserted_for: Optional[int] = None,
        home_cluster: Optional[int] = None,
        latency_override: Optional[int] = None,
        node_id: Optional[int] = None,
    ) -> int:
        """Add an operation and return its node id.

        ``node_id`` pins an explicit id: deserialization uses it to
        preserve the ids a graph was saved with (including gaps left by
        removed nodes), so side tables keyed by node id -- schedule
        assignments, corpus provenance -- stay valid across a round
        trip.  Fresh ids never collide with pinned ones.
        """
        if node_id is None:
            node_id = self._next_id
            self._next_id += 1
        else:
            if node_id in self._nodes:
                raise ValueError(f"node id {node_id} is already in the graph")
            self._next_id = max(self._next_id, node_id + 1)
        self._recurrences = None
        if self._signature_digest is not None:
            self._signature_digest = None
        self._nodes[node_id] = Operation(
            node_id=node_id,
            op=op,
            name=name or f"{op.mnemonic}{node_id}",
            mem_ref=mem_ref,
            is_spill=is_spill,
            is_inserted=is_inserted,
            inserted_for=inserted_for,
            home_cluster=home_cluster,
            latency_override=latency_override,
        )
        self._succ[node_id] = {}
        self._pred[node_id] = {}
        if self._free_indices:
            self._node_index[node_id] = self._free_indices.pop()
        else:
            self._node_index[node_id] = self._index_size
            self._index_size += 1
        return node_id

    def add_edge(
        self, src: int, dst: int, *, distance: int = 0, kind: str = "flow"
    ) -> Dependence:
        """Add (or replace) a dependence edge from ``src`` to ``dst``."""
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"edge references unknown node ({src} -> {dst})")
        if distance < 0:
            raise ValueError("dependence distance must be non-negative")
        edge = Dependence(src=src, dst=dst, distance=distance, kind=kind)
        self._succ[src][dst] = edge
        self._pred[dst][src] = edge
        self._flow_succ.pop(src, None)
        self._flow_pred.pop(dst, None)
        self._recurrences = None
        if self._signature_digest is not None:
            self._signature_digest = None
        if self._listeners:
            for listener in self._listeners:
                listener.on_edge_added(edge)
        return edge

    def remove_edge(self, src: int, dst: int) -> None:
        edge = self._succ[src].pop(dst, None)
        self._pred[dst].pop(src, None)
        self._flow_succ.pop(src, None)
        self._flow_pred.pop(dst, None)
        self._recurrences = None
        if self._signature_digest is not None:
            self._signature_digest = None
        if edge is not None and self._listeners:
            for listener in self._listeners:
                listener.on_edge_removed(edge)

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every edge incident to it."""
        for dst in list(self._succ[node_id]):
            self.remove_edge(node_id, dst)
        for src in list(self._pred[node_id]):
            self.remove_edge(src, node_id)
        del self._succ[node_id]
        del self._pred[node_id]
        del self._nodes[node_id]
        self._flow_succ.pop(node_id, None)
        self._flow_pred.pop(node_id, None)
        self._recurrences = None
        if self._signature_digest is not None:
            self._signature_digest = None
        if self._listeners:
            # The dense index is released only after the listeners ran:
            # index-keyed observers (the array pressure tracker) need it to
            # locate the state they must drop for this node.
            for listener in self._listeners:
                listener.on_node_removed(node_id)
        self._free_indices.append(self._node_index.pop(node_id))

    def set_latency_override(self, node_id: int, latency: Optional[int]) -> None:
        """Schedule ``node_id`` with ``latency`` cycles instead of its
        machine latency (``None`` restores the machine latency)."""
        self._nodes[node_id].latency_override = latency
        if self._signature_digest is not None:
            self._signature_digest = None

    def set_home_cluster(self, node_id: int, cluster: Optional[int]) -> None:
        """Tie the communication operation ``node_id`` to ``cluster``."""
        self._nodes[node_id].home_cluster = cluster
        if self._signature_digest is not None:
            self._signature_digest = None

    def copy(self) -> "DepGraph":
        """Deep copy of the graph (fresh Operation objects, same ids).

        The copy iterates nodes and successors in the original's order,
        so it shares the recurrence and signature-digest memos until
        either graph changes.  Flow-adjacency snapshots and listeners are
        not copied.
        """
        clone = DepGraph()
        clone._next_id = self._next_id
        # Positional construction keeps this cheap: the scheduler copies
        # the loop graph once per II attempt.  A test checks that every
        # Operation field survives the copy.
        clone._nodes = {
            node_id: Operation(
                op.node_id, op.op, op.name, op.mem_ref, op.is_spill,
                op.is_inserted, op.inserted_for, op.home_cluster,
                op.latency_override,
            )
            for node_id, op in self._nodes.items()
        }
        clone._succ = {src: dict(edges) for src, edges in self._succ.items()}
        # Predecessor maps are filled in successor order, as a pickle
        # round trip fills them, so every copy lists predecessors alike.
        pred: Dict[int, Dict[int, Dependence]] = {node_id: {} for node_id in self._nodes}
        for src, edges in self._succ.items():
            for dst, edge in edges.items():
                pred[dst][src] = edge
        clone._pred = pred
        clone._node_index = dict(self._node_index)
        clone._free_indices = list(self._free_indices)
        clone._index_size = self._index_size
        clone._recurrences = self._recurrences
        if self._signature_digest is not None:
            clone._signature_digest = self._signature_digest
        return clone

    def drop_snapshots(self) -> None:
        """Forget the flow-adjacency snapshots; they rebuild on first use.

        The scheduler calls this when it hands a graph over to a result,
        so a kept result does not also keep the attempt's per-node caches.
        """
        self._flow_succ = {}
        self._flow_pred = {}

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Tuple:
        """Compact pickle form: node tuples + edge tuples.

        The worker fan-out of :mod:`repro.eval.parallel` pickles one
        graph per loop out to the pool and one scheduled graph per result
        back; the default dict-of-dicts state roughly doubles that
        payload by carrying ``_pred`` (fully derivable from ``_succ``)
        and a per-node ``Operation`` dataclass dict.  Listeners are
        deliberately dropped: they track one live graph instance (e.g. a
        scheduler's pressure tracker) and must never travel across a
        process boundary with a result.  Snapshots and the recurrence
        memo are dropped too, and so is the signature-digest memo; they
        rebuild on first use.
        """
        nodes = [
            (
                op.node_id, op.op, op.name, op.mem_ref, op.is_spill,
                op.is_inserted, op.inserted_for, op.home_cluster,
                op.latency_override,
            )
            for op in self._nodes.values()
        ]
        edges = [
            (edge.src, edge.dst, edge.distance, edge.kind)
            for succ in self._succ.values()
            for edge in succ.values()
        ]
        return (self._next_id, nodes, edges)

    def __setstate__(self, state: Tuple) -> None:
        next_id, nodes, edges = state
        self._nodes = {}
        self._succ = {}
        self._pred = {}
        self._next_id = next_id
        self._listeners = []
        # Dense indices are not part of the pickle: they are an internal
        # acceleration structure, so a round trip simply re-assigns them in
        # node order (the mapping itself carries no semantics).
        self._node_index = {}
        self._free_indices = []
        self._index_size = 0
        self._flow_succ = {}
        self._flow_pred = {}
        self._recurrences = None
        for (node_id, op, name, mem_ref, is_spill, is_inserted,
             inserted_for, home_cluster, latency_override) in nodes:
            operation = Operation(
                node_id=node_id, op=op, name=name, mem_ref=mem_ref,
                is_spill=is_spill, is_inserted=is_inserted,
                inserted_for=inserted_for, home_cluster=home_cluster,
                latency_override=latency_override,
            )
            self._nodes[node_id] = operation
            self._succ[node_id] = {}
            self._pred[node_id] = {}
            self._node_index[node_id] = self._index_size
            self._index_size += 1
        for src, dst, distance, kind in edges:
            edge = Dependence(src=src, dst=dst, distance=distance, kind=kind)
            self._succ[src][dst] = edge
            self._pred[dst][src] = edge

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> Operation:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[Operation]:
        return iter(self._nodes.values())

    def node_ids(self) -> List[int]:
        return list(self._nodes.keys())

    def edges(self) -> Iterator[Dependence]:
        for edges in self._succ.values():
            yield from edges.values()

    def n_edges(self) -> int:
        return sum(len(edges) for edges in self._succ.values())

    def successors(self, node_id: int) -> List[int]:
        return list(self._succ[node_id].keys())

    def predecessors(self, node_id: int) -> List[int]:
        return list(self._pred[node_id].keys())

    def out_edges(self, node_id: int) -> List[Dependence]:
        return list(self._succ[node_id].values())

    def in_edges(self, node_id: int) -> List[Dependence]:
        return list(self._pred[node_id].values())

    def iter_out_edges(self, node_id: int) -> Iterable[Dependence]:
        """Allocation-free view of :meth:`out_edges`.

        Safe while the caller does not add or remove edges of
        ``node_id``; the scheduler's window computations iterate these
        views thousands of times per loop, where the defensive list copy
        of :meth:`out_edges` is pure overhead.
        """
        return self._succ[node_id].values()

    def iter_in_edges(self, node_id: int) -> Iterable[Dependence]:
        """Allocation-free view of :meth:`in_edges` (same caveat)."""
        return self._pred[node_id].values()

    def iter_predecessors(self, node_id: int) -> Iterable[int]:
        """Allocation-free view of :meth:`predecessors` (same caveat)."""
        return self._pred[node_id].keys()

    def edge(self, src: int, dst: int) -> Dependence:
        return self._succ[src][dst]

    def has_edge(self, src: int, dst: int) -> bool:
        return dst in self._succ.get(src, {})

    # ------------------------------------------------------------------ #
    # Dense node indexing
    # ------------------------------------------------------------------ #
    def dense_index(self, node_id: int) -> int:
        """Dense array index of a live node.

        Node ids are sparse (deserialization preserves gaps, inserted
        spill/communication nodes keep growing them), so side structures
        that want flat-array storage -- the array-core pressure tracker --
        key their arrays on this index instead.  Indices are stable for
        the lifetime of a node and recycled (most recently freed first)
        after :meth:`remove_node`, so :meth:`dense_index_bound` stays
        within a constant of the live node count.

        Raises ``KeyError`` for unknown/removed nodes.
        """
        return self._node_index[node_id]

    def dense_index_bound(self) -> int:
        """Exclusive upper bound of every index :meth:`dense_index` returned.

        Sized arrays indexed by :meth:`dense_index` are safe at this
        length until the next :meth:`add_node`.
        """
        return self._index_size

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def edge_latency(self, edge: Dependence, latency_of: Callable[[str], int]) -> int:
        """Effective latency of an edge under a given latency function.

        ``latency_of`` maps an operation mnemonic to its latency in cycles
        (typically :meth:`repro.machine.config.MachineConfig.latency`).
        Flow dependences take the full latency of the producer; dependences
        through memory and sequencing edges only force issue ordering.
        """
        if edge.kind == "flow":
            src = self._nodes[edge.src]
            if src.op.is_pseudo:
                return 0
            if src.latency_override is not None:
                return src.latency_override
            return latency_of(src.op.mnemonic)
        if edge.kind == "mem":
            return 1
        return 0

    def count_ops(self) -> Dict[str, int]:
        """Operation counts by class, used for the ResMII bounds.

        Returns a dict with keys ``compute``, ``unpipelined``, ``memory``
        and ``comm``; ``unpipelined`` is the number of division/square-root
        operations (their extra occupancy is added separately by the
        resource model).
        """
        counts = {"compute": 0, "unpipelined": 0, "memory": 0, "comm": 0}
        for op in self._nodes.values():
            if op.op.is_compute:
                counts["compute"] += 1
                if op.op in (OpType.FDIV, OpType.FSQRT):
                    counts["unpipelined"] += 1
            elif op.op.is_memory:
                counts["memory"] += 1
            elif op.op.is_communication:
                counts["comm"] += 1
        return counts

    def memory_operations(self) -> List[Operation]:
        return [op for op in self._nodes.values() if op.op.is_memory]

    def compute_operations(self) -> List[Operation]:
        return [op for op in self._nodes.values() if op.op.is_compute]

    def communication_operations(self) -> List[Operation]:
        return [op for op in self._nodes.values() if op.op.is_communication]

    def live_in_nodes(self) -> List[Operation]:
        return [op for op in self._nodes.values() if op.op is OpType.LIVE_IN]

    def flow_consumers(self, node_id: int) -> List[Tuple[int, Dependence]]:
        """Flow-dependence consumers of the value defined by ``node_id``.

        The returned list is a snapshot: it is cached per node and
        invalidated when an incident edge changes, so callers must not
        mutate it (they never did -- each call used to allocate a fresh
        filtered list, which is exactly what a cache miss still does).
        """
        cached = self._flow_succ.get(node_id)
        if cached is None:
            cached = [
                (dst, edge)
                for dst, edge in self._succ[node_id].items()
                if edge.kind == "flow"
            ]
            self._flow_succ[node_id] = cached
        return cached

    def flow_producers(self, node_id: int) -> List[Tuple[int, Dependence]]:
        """Flow-dependence producers of the values read by ``node_id``.

        Same snapshot/caching contract as :meth:`flow_consumers`.
        """
        cached = self._flow_pred.get(node_id)
        if cached is None:
            cached = [
                (src, edge)
                for src, edge in self._pred[node_id].items()
                if edge.kind == "flow"
            ]
            self._flow_pred[node_id] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Recurrences
    # ------------------------------------------------------------------ #
    def strongly_connected_components(self) -> List[List[int]]:
        """Strongly connected components of the graph (Tarjan, iterative).

        Returned in reverse topological order of the condensation; components
        of size one without a self-edge are included (callers filter them out
        when looking for recurrences).
        """
        index_counter = 0
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Dict[int, bool] = {}
        stack: List[int] = []
        components: List[List[int]] = []
        succ = self._succ

        for root in self._nodes:
            if root in index:
                continue
            # Iterative DFS with an explicit work stack of (node, successor iterator).
            work = [(root, iter(succ[root]))]
            index[root] = lowlink[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                node, successors = work[-1]
                advanced = False
                for nxt in successors:
                    if nxt not in index:
                        index[nxt] = lowlink[nxt] = index_counter
                        index_counter += 1
                        stack.append(nxt)
                        on_stack[nxt] = True
                        work.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                    if on_stack.get(nxt, False):
                        lowlink[node] = min(lowlink[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        return components

    def recurrence_components(self) -> List[List[int]]:
        """SCCs that actually contain a cycle (recurrences of the loop).

        Memoized until the next :meth:`add_node`, :meth:`add_edge`,
        :meth:`remove_edge` or :meth:`remove_node`; :meth:`copy` shares
        the memo.  The returned lists are shared, so callers must not
        mutate them.
        """
        if self._recurrences is None:
            self._recurrences = [
                component
                for component in self.strongly_connected_components()
                if len(component) > 1 or self.has_edge(component[0], component[0])
            ]
        return self._recurrences

    def structural_signature(self) -> Tuple:
        """A hashable canonical form of the graph.

        Two graphs with the same nodes (id, operation kind, memory
        reference, insertion flags, latency overrides) and the same edges
        produce the same signature; any structural difference changes it.
        Used by the evaluation cache to content-address scheduling results
        (see :mod:`repro.eval.cache`).
        """
        nodes = tuple(
            (
                node_id,
                op.op.mnemonic,
                op.mem_ref,
                op.is_spill,
                op.is_inserted,
                op.inserted_for,
                op.home_cluster,
                op.latency_override,
            )
            for node_id, op in sorted(self._nodes.items())
        )
        edges = tuple(
            sorted(
                (edge.src, edge.dst, edge.distance, edge.kind)
                for edge in self.edges()
            )
        )
        return (nodes, edges)

    def signature_digest(self, head: str) -> str:
        """SHA-256 hex digest of the text ``(<head>, <signature>)``.

        ``<signature>`` is the ``repr`` of :meth:`structural_signature`
        and ``head`` the ``repr`` text of what precedes it, so the text
        is the ``repr`` of a tuple that ends with the signature (a loop's
        metadata and its graph, see
        :meth:`repro.ddg.loop.Loop.fingerprint`).  The last digest is
        kept with its head: asked again with the same head, an unchanged
        graph answers without rebuilding its signature.  Every mutator
        drops the memo, :meth:`copy` shares it and pickling drops it.
        """
        memo = self._signature_digest
        if memo is not None and memo[0] == head:
            return memo[1]
        text = f"({head}, {self.structural_signature()!r})"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self._signature_digest = (head, digest)
        return digest

    def summary(self) -> str:
        """One-line human-readable summary of the graph."""
        counts = self.count_ops()
        return (
            f"DepGraph({len(self)} nodes, {self.n_edges()} edges, "
            f"{counts['compute']} compute, {counts['memory']} memory, "
            f"{counts['comm']} comm)"
        )
